"""The xgbst-1 / xgbst-40 baselines: functional run + multi-core timing.

The paper's CPU baselines execute the same exact-greedy algorithm as
GPU-GBDT (Table II verifies identical trees), so they are reproduced by
running the training engine functionally once the way XGBoost's CPU exact
method works (no RLE -- XGBoost stores plain sorted columns -- and SmartGD,
which its always-on prediction cache corresponds to) and replaying the
recorded operation counts through :class:`~repro.cpu.model.CpuTimeModel` at
1 or 40 threads.

Training once and timing at several thread counts mirrors the paper's
methodology of sweeping 10/20/40/80 threads over the same algorithm.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.booster_model import GBDTModel
from ..core.params import GBDTParams
from ..core.trainer import GPUGBDTTrainer
from ..data.matrix import CSRMatrix
from ..gpusim.device import XEON_E5_2640V4_X2, CpuSpec, DeviceSpec, TITAN_X_PASCAL, GIB
from ..gpusim.kernel import GpuDevice
from .model import CpuLedger, CpuTimeModel, translate_gpu_ledger

__all__ = ["XGBoostCpuRunner"]


#: an unconstrained pseudo-device for recording CPU work (host RAM is 256 GB
#: on the paper's workstation; we only need the ledger, not the OOM model)
_HOST_SPEC = DeviceSpec(
    name="host-recorder",
    sm_count=TITAN_X_PASCAL.sm_count,
    cores_per_sm=TITAN_X_PASCAL.cores_per_sm,
    clock_ghz=TITAN_X_PASCAL.clock_ghz,
    global_mem_bytes=256 * GIB,
    mem_bandwidth_gbs=TITAN_X_PASCAL.mem_bandwidth_gbs,
    pcie_bandwidth_gbs=TITAN_X_PASCAL.pcie_bandwidth_gbs,
    kernel_launch_us=TITAN_X_PASCAL.kernel_launch_us,
    price_usd=0.0,
)


@dataclasses.dataclass
class XGBoostCpuRunner:
    """Train once, model any thread count.

    Parameters
    ----------
    params:
        User hyper-parameters; ``use_smartgd`` must stay on (XGBoost's
        prediction cache cannot be switched off).
    spec:
        CPU hardware description (paper default: 2x Xeon E5-2640 v4).
    work_scale, seg_scale, row_scale:
        Same extrapolation factors the GPU run uses, so both sides model the
        same full-scale dataset.
    """

    params: GBDTParams
    spec: CpuSpec = XEON_E5_2640V4_X2
    work_scale: float = 1.0
    seg_scale: float = 1.0
    row_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.params.use_smartgd:
            raise ValueError(
                "use_smartgd=False has no XGBoost counterpart: its prediction "
                "cache (SmartGD's role) is always on"
            )
        self.model: GBDTModel | None = None
        self.ledger: CpuLedger | None = None
        self._time_model = CpuTimeModel(self.spec)

    def fit(self, X: CSRMatrix, y: np.ndarray) -> GBDTModel:
        """Run the functional training and record the CPU work ledger."""
        recorder = GpuDevice(_HOST_SPEC, work_scale=self.work_scale, seg_scale=self.seg_scale)
        trainer = GPUGBDTTrainer(
            self.params, recorder, row_scale=self.row_scale, rle_policy="never"
        )
        self.model = trainer.fit(X, y)
        self.ledger = translate_gpu_ledger(recorder.ledger)
        return self.model

    def modeled_seconds(self, threads: int) -> float:
        """Modeled training wall time at the given thread count."""
        if self.ledger is None:
            raise RuntimeError("call fit() first")
        return self._time_model.total_time(self.ledger, threads)

    def phase_seconds(self, threads: int) -> dict[str, float]:
        """Per-phase breakdown (the paper: ~75% of CPU time in split finding)."""
        if self.ledger is None:
            raise RuntimeError("call fit() first")
        return self._time_model.phase_times(self.ledger, threads)
