"""CPU-side baselines: the sequential exact-greedy reference (xgbst-1
oracle), the multi-core cost model (xgbst-1 / xgbst-40 timing) and the
dense-representation GPU XGBoost baseline (xgbst-gpu)."""

from .exact_greedy import ReferenceTrainer
from .gpu_xgboost import DenseGpuXgboostTrainer, dense_device_bytes, densify
from .model import CpuLedger, CpuOp, CpuTimeModel, translate_gpu_ledger
from .parallel_model import XGBoostCpuRunner

__all__ = [
    "ReferenceTrainer",
    "DenseGpuXgboostTrainer",
    "dense_device_bytes",
    "densify",
    "CpuLedger",
    "CpuOp",
    "CpuTimeModel",
    "translate_gpu_ledger",
    "XGBoostCpuRunner",
]
