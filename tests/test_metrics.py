"""Tests for repro.metrics."""

import numpy as np
import pytest

from repro.metrics import accuracy, error_rate, mse, rmse


def test_mse_basic():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_rmse_is_sqrt_mse():
    y = np.array([3.0, -1.0, 2.0])
    p = np.array([0.0, 0.0, 0.0])
    assert rmse(y, p) == pytest.approx(np.sqrt(mse(y, p)))


def test_rmse_zero_for_perfect_predictions():
    y = np.linspace(0, 1, 10)
    assert rmse(y, y) == 0.0


def test_error_rate_thresholding():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    p = np.array([0.2, 0.9, 0.4, 0.6])  # last two wrong
    assert error_rate(y, p) == pytest.approx(0.5)


def test_accuracy_complements_error_rate():
    y = np.array([0.0, 1.0])
    p = np.array([0.9, 0.9])
    assert accuracy(y, p) + error_rate(y, p) == pytest.approx(1.0)


def test_custom_threshold():
    y = np.array([0.0, 1.0])
    p = np.array([0.4, 0.4])
    assert error_rate(y, p, threshold=0.3) == pytest.approx(0.5)


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        rmse(np.zeros(2), np.zeros(3))


def test_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        mse(np.array([]), np.array([]))


def test_flattening_of_2d_inputs():
    y = np.array([[1.0], [2.0]])
    p = np.array([1.0, 2.0])
    assert rmse(y, p) == 0.0
