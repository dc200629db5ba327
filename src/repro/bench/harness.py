"""Experiment runner: one dataset x one system -> modeled seconds + RMSE.

The four systems of Table II:

=============  ==============================================================
``ours``       GPU-GBDT on the simulated Titan X (all optimizations on)
``xgbst-1``    sequential XGBoost -- functional run replayed through the CPU
               model at 1 thread
``xgbst-40``   same ledger at 40 threads
``xgbst-gpu``  dense-representation GPU baseline (may OOM at full scale)
=============  ==============================================================

Each run wires the dataset's full-scale extrapolation factors into the
simulated device so the modeled seconds and memory refer to the paper's
dataset sizes while the functional training runs at the reduced scale
(DESIGN.md Section 2).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.booster_model import GBDTModel
from ..core.params import GBDTParams
from ..core.trainer import GPUGBDTTrainer
from ..cpu.gpu_xgboost import DenseGpuXgboostTrainer
from ..cpu.parallel_model import XGBoostCpuRunner
from ..data.datasets import Dataset
from ..gpusim.costmodel import phase_times
from ..gpusim.device import TITAN_X_PASCAL, XEON_E5_2640V4_X2, CpuSpec, DeviceSpec
from ..gpusim.kernel import GpuDevice
from ..gpusim.memory import DeviceOutOfMemory
from ..metrics import rmse

__all__ = ["RunResult", "run_gpu_gbdt", "run_cpu_baseline", "run_xgb_gpu", "dense_scales"]


@dataclasses.dataclass
class RunResult:
    """Outcome of one system on one dataset."""

    system: str
    dataset: str
    seconds: Optional[float]  # None = did not finish (OOM)
    train_rmse: Optional[float]
    status: str  # "ok" | "oom"
    model: Optional[GBDTModel] = None
    device: Optional[GpuDevice] = None
    phase_seconds: Optional[dict] = None
    notes: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_gpu_gbdt(
    ds: Dataset,
    params: GBDTParams | None = None,
    spec: DeviceSpec = TITAN_X_PASCAL,
    init_model=None,
    **kernel_options,
) -> RunResult:
    """Train GPU-GBDT; modeled seconds at the dataset's full scale.

    ``init_model`` warm-starts boosting from an existing ensemble (the
    continual-training refresh path), charging only the replay plus the new
    rounds.  ``**kernel_options`` go to :class:`GPUGBDTTrainer` (its
    ``rle_policy``, ``use_direct_rle``, ... switches)."""
    p = params if params is not None else GBDTParams()
    device = GpuDevice(spec, work_scale=ds.work_scale, seg_scale=ds.seg_scale)
    trainer = GPUGBDTTrainer(p, device, row_scale=ds.row_scale, **kernel_options)
    try:
        model = trainer.fit(ds.X, ds.y, init_model=init_model)
    except DeviceOutOfMemory as exc:
        return RunResult(
            system="ours", dataset=ds.name, seconds=None, train_rmse=None,
            status="oom", device=device, notes=str(exc),
        )
    return RunResult(
        system="ours",
        dataset=ds.name,
        seconds=device.elapsed_seconds(),
        train_rmse=rmse(ds.y, model.predict(ds.X)),
        status="ok",
        model=model,
        device=device,
        phase_seconds=phase_times(spec, device.ledger),
        notes=f"rle={trainer.report.used_rle}" if trainer.report else "",
    )


def run_cpu_baseline(
    ds: Dataset,
    params: GBDTParams | None = None,
    spec: CpuSpec = XEON_E5_2640V4_X2,
) -> tuple[RunResult, RunResult, XGBoostCpuRunner]:
    """Train the functional CPU-profile run once; return (xgbst-1, xgbst-40)."""
    p = params if params is not None else GBDTParams()
    runner = XGBoostCpuRunner(
        params=p,
        spec=spec,
        work_scale=ds.work_scale,
        seg_scale=ds.seg_scale,
        row_scale=ds.row_scale,
    )
    model = runner.fit(ds.X, ds.y)
    err = rmse(ds.y, model.predict(ds.X))
    one = RunResult(
        system="xgbst-1", dataset=ds.name, seconds=runner.modeled_seconds(1),
        train_rmse=err, status="ok", model=model,
        phase_seconds=runner.phase_seconds(1),
    )
    forty = RunResult(
        system="xgbst-40", dataset=ds.name, seconds=runner.modeled_seconds(40),
        train_rmse=err, status="ok", model=model,
        phase_seconds=runner.phase_seconds(40),
    )
    return one, forty, runner


def dense_scales(ds: Dataset) -> tuple[float, float]:
    """(work_scale, seg_scale) for the dense baseline: density plays no role
    once every cell is materialized."""
    cells_run = ds.X.n_rows * ds.X.n_cols
    cells_full = ds.spec.n_full * ds.spec.d_full
    return max(1.0, cells_full / max(cells_run, 1)), max(
        1.0, ds.spec.d_full / max(ds.X.n_cols, 1)
    )


def run_xgb_gpu(
    ds: Dataset,
    params: GBDTParams | None = None,
    spec: DeviceSpec = TITAN_X_PASCAL,
) -> RunResult:
    """Train the dense GPU baseline; OOM at full scale becomes status='oom'."""
    p = params if params is not None else GBDTParams()
    work_scale, seg_scale = dense_scales(ds)
    device = GpuDevice(spec, work_scale=work_scale, seg_scale=seg_scale)
    trainer = DenseGpuXgboostTrainer(p, device, row_scale=ds.row_scale)
    try:
        model = trainer.fit(ds.X, ds.y)
    except DeviceOutOfMemory as exc:
        return RunResult(
            system="xgbst-gpu", dataset=ds.name, seconds=None, train_rmse=None,
            status="oom", device=device, notes=str(exc),
        )
    # the dense model was trained on zero-filled data; evaluate accordingly
    dense_eval = ds.X.to_dense(fill=0.0)
    return RunResult(
        system="xgbst-gpu",
        dataset=ds.name,
        seconds=device.elapsed_seconds(),
        train_rmse=rmse(ds.y, model.predict(dense_eval)),
        status="ok",
        model=model,
        device=device,
        phase_seconds=phase_times(spec, device.ledger),
    )
