"""The GPU prediction kernel (Section III-D).

Although SmartGD removes prediction from the *training* loop, the paper
still ships a parallel predictor for scoring unseen data: "we do both
instance level and tree level parallelism (i.e., one GPU thread predicts the
partial target value of an instance using one tree)", followed by a
reduction summing the per-tree partial predictions.

This module runs that kernel on the simulator: functionally it is the
ensemble's exact traversal; the cost charged is one thread per
(instance, tree) pair doing depth-many irregular node fetches -- precisely
the traffic SmartGD avoids during training.
"""

from __future__ import annotations

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix
from ..gpusim.kernel import GpuDevice
from .booster_model import GBDTModel

__all__ = ["charge_prediction_kernels", "predict_on_device"]


def charge_prediction_kernels(
    device: GpuDevice,
    *,
    n_rows: float,
    n_trees: int,
    avg_depth: float,
    row_scale: float = 1.0,
) -> None:
    """Record the Section III-D prediction kernels on ``device``'s ledger.

    Shared by :func:`predict_on_device` and the serving path
    (:class:`~repro.serve.batcher.MicroBatcher`), so a batched flush is
    charged exactly what the ad-hoc predictor would have been.
    """
    rows = n_rows * row_scale
    n_trees = max(n_trees, 1)
    with device.phase("predict"):
        # one thread per (instance, tree): traversal fetches a node record
        # (~24 B) and an attribute value (~8 B) per level, data-dependent
        device.launch(
            "predict_instance_x_tree",
            elements=rows * n_trees,
            flops_per_element=4.0 * avg_depth,
            coalesced_bytes=rows * n_trees * 4,
            irregular_bytes=rows * n_trees * avg_depth * 32,
            scale=False,
        )
        # sum the per-tree partial predictions (parallel reduction [12])
        device.launch(
            "reduce_partial_predictions",
            elements=rows * n_trees,
            flops_per_element=1.0,
            coalesced_bytes=rows * n_trees * 4 + rows * 4,
            scale=False,
        )
        device.transfer("download_predictions", rows * 4, direction="d2h", scale=False)


def predict_on_device(
    device: GpuDevice,
    model: GBDTModel,
    X: CSRMatrix | DenseMatrix | np.ndarray,
    *,
    row_scale: float = 1.0,
    transform: bool = False,
) -> np.ndarray:
    """Predict for all rows of ``X`` using instance x tree parallelism."""
    n = X.n_rows if isinstance(X, (CSRMatrix, DenseMatrix)) else np.asarray(X).shape[0]
    flat = model.flatten()
    charge_prediction_kernels(
        device,
        n_rows=n,
        n_trees=flat.n_trees,
        avg_depth=max(1.0, flat.mean_depth),
        row_scale=row_scale,
    )
    return model.predict(X, transform=transform)
