"""Experiment harness: one driver per table/figure of the paper, plus
pricing and report formatting."""

from .experiments import (
    ABLATIONS,
    AblationResult,
    CaseStudyResult,
    Fig10bResult,
    SeriesResult,
    Table2Result,
    load_table2_datasets,
    run_case_studies,
    run_fig8a,
    run_fig8b,
    run_fig9,
    run_fig10a,
    run_fig10b,
    run_device_sweep,
    run_table2,
)
from .harness import RunResult, dense_scales, run_cpu_baseline, run_gpu_gbdt, run_xgb_gpu
from .pricing import normalized_ratio, performance_price_ratio
from .output import to_payload
from .report import PAPER_BANDS, format_series, format_table

__all__ = [
    "ABLATIONS",
    "AblationResult",
    "CaseStudyResult",
    "Fig10bResult",
    "SeriesResult",
    "Table2Result",
    "load_table2_datasets",
    "run_case_studies",
    "run_fig8a",
    "run_fig8b",
    "run_fig9",
    "run_fig10a",
    "run_fig10b",
    "run_device_sweep",
    "run_table2",
    "RunResult",
    "dense_scales",
    "run_cpu_baseline",
    "run_gpu_gbdt",
    "run_xgb_gpu",
    "normalized_ratio",
    "performance_price_ratio",
    "to_payload",
    "PAPER_BANDS",
    "format_series",
    "format_table",
]
