"""User-facing estimator facade over all trainers.

:class:`GradientBoostedTrees` is the package's sklearn-style entry point::

    from repro import GradientBoostedTrees, GBDTParams
    model = GradientBoostedTrees(GBDTParams(n_trees=40, max_depth=6))
    model.fit(X, y)            # X: CSRMatrix / DenseMatrix / ndarray
    yhat = model.predict(X)

Backends
--------
``"gpu-gbdt"``
    The paper's algorithm on the simulated device (default).
``"cpu-reference"``
    The independent sequential exact-greedy trainer
    (:mod:`repro.cpu.exact_greedy`) -- slow, loop-based, used as the
    tree-identity oracle; it stands in for ``xgbst-1``.
``"xgb-gpu-dense"``
    The dense-representation GPU baseline (:mod:`repro.cpu.gpu_xgboost`),
    reproducing xgbst-gpu's missing-as-zero semantics and memory appetite.
``"histogram"``
    The approximate (LightGBM-style) trainer
    (:mod:`repro.approx.histogram_trainer`) the paper positions against.
"""

from __future__ import annotations

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix
from ..gpusim.kernel import GpuDevice
from ..obs import span
from .booster_model import GBDTModel
from .params import GBDTParams

__all__ = ["GradientBoostedTrees", "as_csr", "BACKENDS"]

BACKENDS = ("gpu-gbdt", "cpu-reference", "xgb-gpu-dense", "histogram")


def as_csr(X: CSRMatrix | DenseMatrix | np.ndarray) -> CSRMatrix:
    """Normalize any supported matrix type to CSR.

    Dense inputs keep **every** non-nan cell as a present entry (zeros stay
    real observations); ``nan`` cells become missing.  CSR passes through.
    """
    if isinstance(X, CSRMatrix):
        return X
    if isinstance(X, DenseMatrix):
        dense = X.values
    else:
        dense = np.asarray(X, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("expected a 2-D matrix")
    mask = ~np.isnan(dense)
    counts = mask.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = np.nonzero(mask)[1].astype(np.int64)
    data = dense[mask].astype(np.float64)
    return CSRMatrix(indptr, indices, data, n_cols=dense.shape[1])


class GradientBoostedTrees:
    """Estimator facade; see module docstring.

    Parameters
    ----------
    params:
        Training hyper-parameters (defaults = the paper's main setting).
    backend:
        One of :data:`BACKENDS`.
    device:
        Simulated device for the GPU backends (fresh Titan X by default).
    row_scale:
        Full-scale rows per run row, forwarded to the cost accounting.
    **overrides:
        Convenience keyword overrides applied to ``params`` via
        :meth:`GBDTParams.replace` (e.g. ``n_trees=10``).
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        *,
        backend: str = "gpu-gbdt",
        device: GpuDevice | None = None,
        row_scale: float = 1.0,
        **overrides,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        base = params if params is not None else GBDTParams()
        self.params = base.replace(**overrides) if overrides else base
        self.backend = backend
        self.device = device
        self.row_scale = float(row_scale)
        self.model_: GBDTModel | None = None
        self.report_ = None

    # ------------------------------------------------------------------- api
    def fit(
        self,
        X,
        y,
        *,
        init_model: GBDTModel | None = None,
        eval_set=None,
        early_stopping_rounds: int | None = None,
        eval_metric=None,
    ) -> "GradientBoostedTrees":
        """Train and return self; the fitted ensemble is ``self.model_``.

        Parameters
        ----------
        init_model:
            Warm start: resume boosting from an existing ensemble instead of
            from scratch.  ``params.n_trees`` *new* trees are appended, and
            the result is bit-identical to one uninterrupted training of
            ``init_model.n_trees + params.n_trees`` trees.
        eval_set:
            Optional ``(X_val, y_val)`` pair.  When given, a per-round
            validation curve is recorded in ``self.eval_history_``.
        early_stopping_rounds:
            With an ``eval_set``: keep only the trees up to the best
            validation round if no improvement follows for this many rounds
            (``self.best_iteration_`` records the kept count).  On this
            substrate boosting is deterministic, so post-hoc truncation is
            exactly equivalent to stopping the loop.
        eval_metric:
            ``(y, yhat) -> float`` to minimize; defaults to RMSE.
        """
        Xc = as_csr(X)
        y = np.asarray(y, dtype=np.float64)
        self.eval_history_ = None
        self.best_iteration_ = None
        with span("fit", backend=self.backend, n_rows=Xc.n_rows, n_cols=Xc.n_cols):
            from ..approx.histogram_trainer import HistogramGBDTTrainer
            from ..cpu.exact_greedy import ReferenceTrainer
            from ..cpu.gpu_xgboost import DenseGpuXgboostTrainer
            from .trainer import GPUGBDTTrainer

            if self.backend == "cpu-reference":
                trainer = ReferenceTrainer(self.params)
            else:
                if self.device is None:
                    self.device = GpuDevice()
                trainer = {
                    "gpu-gbdt": GPUGBDTTrainer,
                    "xgb-gpu-dense": DenseGpuXgboostTrainer,
                    "histogram": HistogramGBDTTrainer,
                }[self.backend](self.params, self.device, row_scale=self.row_scale)
            self.model_ = trainer.fit(Xc, y, init_model=init_model)
            self.report_ = getattr(trainer, "report", None)

        if eval_set is not None:
            Xv, yv = eval_set
            with span("eval_history", rounds=len(self.model_.trees)):
                self.eval_history_ = self.model_.eval_history(
                    as_csr(Xv), np.asarray(yv, dtype=np.float64), metric=eval_metric
                )
            if early_stopping_rounds is not None:
                if early_stopping_rounds < 1:
                    raise ValueError("early_stopping_rounds must be >= 1")
                hist = self.eval_history_
                best = 0
                for t in range(1, hist.size):
                    if hist[t] < hist[best]:
                        best = t
                    elif t - best >= early_stopping_rounds:
                        break
                self.best_iteration_ = best + 1
                self.model_.trees = self.model_.trees[: self.best_iteration_]
        elif early_stopping_rounds is not None:
            raise ValueError("early_stopping_rounds requires an eval_set")
        return self

    def _require_model(self) -> GBDTModel:
        if self.model_ is None:
            raise RuntimeError("call fit() before predict()")
        return self.model_

    def predict(self, X, *, n_trees: int | None = None, transform: bool = False) -> np.ndarray:
        """Predict margins (or transformed outputs) for ``X``."""
        return self._require_model().predict(X, n_trees=n_trees, transform=transform)

    def staged_predict(self, X) -> np.ndarray:
        """Cumulative per-round predictions (Fig. 10b helper)."""
        return self._require_model().staged_predict(X)
