"""Evaluation metrics used in the paper's experimental study (Section IV).

The paper reports root mean squared error (RMSE) on the training sets in
Table II and test error against a time budget in Fig. 10b.  Everything here
operates on plain 1-D NumPy arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmse", "mse", "error_rate", "accuracy"]


def _check(y: np.ndarray, yhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64).ravel()
    yhat = np.asarray(yhat, dtype=np.float64).ravel()
    if y.shape != yhat.shape:
        raise ValueError(f"shape mismatch: y {y.shape} vs yhat {yhat.shape}")
    if y.size == 0:
        raise ValueError("metrics undefined on empty arrays")
    return y, yhat


def mse(y: np.ndarray, yhat: np.ndarray) -> float:
    """Mean squared error."""
    y, yhat = _check(y, yhat)
    return float(np.mean((y - yhat) ** 2))


def rmse(y: np.ndarray, yhat: np.ndarray) -> float:
    """Root mean squared error -- the "rmse" columns of Table II."""
    return float(np.sqrt(mse(y, yhat)))


def error_rate(y: np.ndarray, yhat: np.ndarray, threshold: float = 0.5) -> float:
    """Binary classification error with predictions thresholded at 0.5.

    This is the "test error" metric of Fig. 10b: the paper trains the binary
    susy dataset with MSE loss and 0/1 targets, so a regression output >= 0.5
    counts as a positive prediction.
    """
    y, yhat = _check(y, yhat)
    pred = (yhat >= threshold).astype(np.float64)
    truth = (y >= threshold).astype(np.float64)
    return float(np.mean(pred != truth))


def accuracy(y: np.ndarray, yhat: np.ndarray, threshold: float = 0.5) -> float:
    """1 - error_rate."""
    return 1.0 - error_rate(y, yhat, threshold)
