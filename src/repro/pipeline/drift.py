"""Streaming drift detection: per-feature PSI and prediction-distribution PSI.

The population stability index compares a reference distribution (the data
the serving model was trained on) against what is arriving now::

    PSI = sum_b (a_b - e_b) * ln(a_b / e_b)

over histogram bins ``b`` with expected fraction ``e_b`` and actual
fraction ``a_b``.  The usual reading: < 0.1 stable, 0.1-0.25 drifting,
> 0.25 act.

Everything here is **incremental**: binning is fixed once against the
reference (deciles plus an explicit missing-value bin), and each arriving
batch only bumps integer counts -- scoring a stream of ``B`` batches does
the same total work as scoring their concatenation once, and
``tests/test_pipeline_drift.py`` asserts the scores are identical.

:class:`DriftMonitor` bundles a per-feature detector with a prediction
detector and exports its scores through the shared metrics registry, which
is how the retrain controller's decisions become observable.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from ..obs import get_registry

__all__ = [
    "DriftMonitor",
    "DriftReport",
    "FeatureDriftDetector",
    "PredictionDriftDetector",
    "psi",
]

#: smoothing floor so an empty bin contributes a finite penalty
_EPS = 1e-4


def psi(expected: np.ndarray, actual: np.ndarray) -> float:
    """PSI between two count (or fraction) vectors over the same bins."""
    e = np.asarray(expected, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if e.shape != a.shape:
        raise ValueError(f"bin shape mismatch: {e.shape} vs {a.shape}")
    if e.sum() <= 0 or a.sum() <= 0:
        return 0.0
    e = np.clip(e / e.sum(), _EPS, None)
    a = np.clip(a / a.sum(), _EPS, None)
    e = e / e.sum()
    a = a / a.sum()
    return float(np.sum((a - e) * np.log(a / e)))


def _quantile_edges(values: np.ndarray, n_bins: int) -> np.ndarray:
    """Interior bin edges from reference quantiles (deduplicated -- heavily
    tied features get fewer, wider bins rather than empty ones)."""
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return np.empty(0, dtype=np.float64)
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.unique(np.quantile(finite, qs))


def _bin_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts per bin: ``len(edges) + 1`` value bins plus a trailing missing
    (NaN) bin."""
    missing = ~np.isfinite(values)
    idx = np.searchsorted(edges, values[~missing], side="right")
    counts = np.bincount(idx, minlength=edges.size + 1).astype(np.float64)
    return np.concatenate([counts, [float(missing.sum())]])


class PredictionDriftDetector:
    """Incremental PSI of a 1-D stream (margins) against a reference."""

    def __init__(self, reference: np.ndarray, n_bins: int = 10) -> None:
        reference = np.asarray(reference, dtype=np.float64).reshape(-1)
        if reference.size < 2:
            raise ValueError("need at least 2 reference values")
        self.edges = _quantile_edges(reference, n_bins)
        self.ref_counts = _bin_counts(reference, self.edges)
        self.cur_counts = np.zeros_like(self.ref_counts)
        self.n_seen = 0

    def update(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        self.cur_counts += _bin_counts(values, self.edges)
        self.n_seen += values.size

    def score(self) -> float:
        return psi(self.ref_counts, self.cur_counts)

    def reset(self) -> None:
        self.cur_counts[:] = 0.0
        self.n_seen = 0


class FeatureDriftDetector:
    """Incremental per-feature PSI over streaming dense batches.

    ``NaN`` cells are missing values and get their own bin, so a feature
    whose *missingness* shifts registers drift even when the observed
    values do not.
    """

    def __init__(self, reference: np.ndarray, n_bins: int = 10) -> None:
        reference = np.asarray(reference, dtype=np.float64)
        if reference.ndim != 2 or reference.shape[0] < 2:
            raise ValueError("reference must be a 2-D matrix with >= 2 rows")
        self.n_features = reference.shape[1]
        self.edges: List[np.ndarray] = []
        self.ref_counts: List[np.ndarray] = []
        self.cur_counts: List[np.ndarray] = []
        for j in range(self.n_features):
            edges = _quantile_edges(reference[:, j], n_bins)
            self.edges.append(edges)
            self.ref_counts.append(_bin_counts(reference[:, j], edges))
            self.cur_counts.append(np.zeros(edges.size + 2, dtype=np.float64))
        self.n_seen = 0

    def update(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.n_features:
            raise ValueError(
                f"batch must have {self.n_features} columns, got {batch.shape}"
            )
        for j in range(self.n_features):
            self.cur_counts[j] += _bin_counts(batch[:, j], self.edges[j])
        self.n_seen += batch.shape[0]

    def feature_scores(self) -> np.ndarray:
        """PSI per feature (zeros until the first update)."""
        return np.array(
            [psi(self.ref_counts[j], self.cur_counts[j]) for j in range(self.n_features)]
        )

    def reset(self) -> None:
        for c in self.cur_counts:
            c[:] = 0.0
        self.n_seen = 0


@dataclasses.dataclass
class DriftReport:
    """Snapshot of the monitor's state at one point in the stream."""

    rows_seen: int
    max_feature_psi: float
    mean_feature_psi: float
    prediction_psi: float
    #: feature indices sorted by PSI, worst first (top 5)
    top_features: List[int]

    @property
    def score(self) -> float:
        """The controller's trigger scalar: worst of feature vs prediction."""
        return max(self.max_feature_psi, self.prediction_psi)


class DriftMonitor:
    """Feature + prediction drift against the serving model's training data.

    ``rebase`` re-anchors both references after a retrain is accepted: the
    new model's training window becomes the new "expected" distribution.
    """

    def __init__(
        self,
        reference_X: np.ndarray,
        reference_preds: np.ndarray,
        *,
        n_bins: int = 10,
    ) -> None:
        self.features = FeatureDriftDetector(reference_X, n_bins=n_bins)
        self.predictions = PredictionDriftDetector(reference_preds, n_bins=n_bins)
        self.n_bins = n_bins

    def observe(self, X_batch: np.ndarray, preds: np.ndarray) -> None:
        self.features.update(X_batch)
        self.predictions.update(preds)

    def report(self) -> DriftReport:
        scores = self.features.feature_scores()
        pred_psi = self.predictions.score()
        order = np.argsort(-scores)
        rep = DriftReport(
            rows_seen=self.features.n_seen,
            max_feature_psi=float(scores.max()) if scores.size else 0.0,
            mean_feature_psi=float(scores.mean()) if scores.size else 0.0,
            prediction_psi=pred_psi,
            top_features=[int(j) for j in order[:5]],
        )
        reg = get_registry()
        reg.gauge("pipeline_drift_max_feature_psi", "worst per-feature PSI").set(
            rep.max_feature_psi
        )
        reg.gauge("pipeline_drift_prediction_psi", "prediction-distribution PSI").set(
            rep.prediction_psi
        )
        return rep

    def drifted(self, threshold: float) -> bool:
        return self.report().score >= threshold

    def reset(self) -> None:
        """Clear the current-window counts (after a retrain decision)."""
        self.features.reset()
        self.predictions.reset()

    def rebase(self, reference_X: np.ndarray, reference_preds: np.ndarray) -> None:
        """Re-anchor the reference distributions (accepted model swap)."""
        self.features = FeatureDriftDetector(reference_X, n_bins=self.n_bins)
        self.predictions = PredictionDriftDetector(
            reference_preds, n_bins=self.n_bins
        )

    @classmethod
    def for_model(cls, model, reference_X: np.ndarray, *, n_bins: int = 10) -> "DriftMonitor":
        """Monitor anchored to ``model``'s predictions on its training data."""
        reference_X = np.asarray(reference_X, dtype=np.float64)
        return cls(
            reference_X, model.predict(reference_X), n_bins=n_bins
        )
