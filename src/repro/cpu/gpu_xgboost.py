"""The dense-representation GPU XGBoost baseline (xgbst-gpu).

Section II-D describes the GPU plugin of XGBoost the paper compares with:

* **dense data representation** "for the ease of tracking back which
  attribute the best split point belongs to" -- every cell of the n x d
  matrix is materialized, absent entries becoming literal zeros;
* **node interleaving** for node-level parallelism -- one copy of the
  per-instance g/h arrays per node being split.

Both choices are reproduced here, with their Table-II consequences:

* the densified matrix changes which trees are learned on sparse data
  (missing values can no longer take the learned default branch), so RMSE
  drifts -- "probably because of dense representation which considers
  missing values as 0";
* the device-memory footprint is ``8 bytes x n x d`` cells plus
  ``16 bytes x n x 2^(depth-1)`` interleaved gradients, which exceeds the
  Titan X's 12 GB on e2006 / log1p / news20 at full scale and raises
  :class:`~repro.gpusim.memory.DeviceOutOfMemory` -- Table II's "OOM" cells.
"""

from __future__ import annotations

import numpy as np

from ..core.booster_model import GBDTModel
from ..core.params import GBDTParams
from ..core.trainer import GPUGBDTTrainer, TrainReport
from ..data.matrix import CSRMatrix
from ..gpusim.kernel import GpuDevice

__all__ = ["DenseGpuXgboostTrainer", "densify", "dense_device_bytes"]


def densify(X: CSRMatrix) -> CSRMatrix:
    """Materialize every cell: absent entries become present zeros.

    The result has ``nnz == n * d`` -- the whole point of the paper's
    criticism of the dense representation.
    """
    dense = X.to_dense(fill=0.0)
    mask_all = np.ones(dense.values.shape, dtype=bool)
    counts = mask_all.sum(axis=1)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = np.tile(np.arange(X.n_cols, dtype=np.int64), X.n_rows)
    data = dense.values.ravel().astype(np.float64)
    return CSRMatrix(indptr, indices, data, n_cols=X.n_cols)


def dense_device_bytes(n_full: float, d_full: float, max_depth: int) -> float:
    """Full-scale device footprint of the dense baseline (see module doc)."""
    cells = n_full * d_full * 8.0
    interleaved = n_full * 8.0 * (2 ** max(max_depth - 1, 0))
    return cells + interleaved


class DenseGpuXgboostTrainer:
    """Train with xgbst-gpu's representation on the simulated device.

    The caller's ``device`` must carry *cell-based* scales: the functional
    run sees ``n_run * d_run`` cells, the full-scale dataset has
    ``n_full * d_full`` -- density plays no role once everything is
    materialized.  :class:`~repro.bench.harness` sets this up.
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        device: GpuDevice | None = None,
        *,
        row_scale: float = 1.0,
    ) -> None:
        self.params = params if params is not None else GBDTParams()
        self.device = device if device is not None else GpuDevice()
        self.row_scale = float(row_scale)
        self.report: TrainReport | None = None

    def fit(
        self, X: CSRMatrix, y: np.ndarray, *, init_model: GBDTModel | None = None
    ) -> GBDTModel:
        """Densify, then train; may raise ``DeviceOutOfMemory`` during setup
        exactly as the real plugin aborts on large datasets."""
        Xd = densify(X)
        trainer = GPUGBDTTrainer(
            self.params,
            self.device,
            row_scale=self.row_scale,
            dense_memory_model=True,
            # dense data has no repetition structure worth compressing, and
            # the plugin predates RLE anyway
            rle_policy="never",
        )
        model = trainer.fit(Xd, y, init_model=init_model)
        self.report = trainer.report
        return model
