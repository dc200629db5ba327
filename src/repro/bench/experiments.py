"""One entry point per table/figure of the paper's Section IV.

Each ``run_*`` function returns a result object whose ``text`` property
prints the same rows/series the paper reports, plus the paper's bands for
comparison.  ``quick=True`` shrinks datasets/tree counts for smoke tests;
the benchmark suite and the CLI run the full (default) configuration.

Experiment index (see DESIGN.md Section 4):

==========  ===========================================================
table2      overall time/speedup/RMSE for the 8 datasets, 4 systems
fig8a       speedup over xgbst-40 vs. tree depth (2..8)
fig8b       speedup over xgbst-40 vs. number of trees (10..80)
fig9        impact of disabling each individual optimization
fig10a      performance-price ratio normalized to the CPUs
fig10b      test error against training-time budget (susy)
cases       Section IV-E case studies (i)-(iii)
==========  ===========================================================
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.params import GBDTParams
from ..data.datasets import TABLE2_NAMES, Dataset, make_dataset
from ..gpusim.device import TESLA_K20, TESLA_P100, TITAN_X_PASCAL, XEON_E5_2640V4_X2
from ..metrics import error_rate
from .harness import run_cpu_baseline, run_gpu_gbdt, run_xgb_gpu
from .pricing import normalized_ratio
from .report import PAPER_BANDS, format_series, format_table

__all__ = [
    "load_table2_datasets",
    "Table2Result",
    "run_table2",
    "SeriesResult",
    "run_fig8a",
    "run_fig8b",
    "AblationResult",
    "run_fig9",
    "run_fig10a",
    "Fig10bResult",
    "run_fig10b",
    "CaseStudyResult",
    "run_case_studies",
    "run_device_sweep",
    "ApproxResult",
    "run_exact_vs_approx",
    "run_crossover",
    "run_multigpu_scaling",
    "run_thread_sweep",
    "ServingBenchResult",
    "run_serving_bench",
]

#: datasets whose speedup series the sensitivity studies track (a dense, a
#: compressible and a high-dimensional representative keep runtime sane)
SENSITIVITY_DATASETS = ("covtype", "susy", "news20")


def load_table2_datasets(
    quick: bool = False, names: Sequence[str] = TABLE2_NAMES, seed: int = 7
) -> List[Dataset]:
    """Generate the Table-II dataset stand-ins."""
    if quick:
        return [
            make_dataset(n, run_rows=300, run_cols=60, seed=seed) for n in names
        ]
    return [make_dataset(n, seed=seed) for n in names]


def _params(quick: bool, **overrides) -> GBDTParams:
    base = GBDTParams(n_trees=8 if quick else 40, max_depth=4 if quick else 6)
    return base.replace(**overrides) if overrides else base


# =========================================================== Table II =======
@dataclasses.dataclass
class Table2Result:
    rows: List[Dict]

    @property
    def text(self) -> str:
        headers = [
            "dataset", "cardinality", "dimension", "ours(s)", "xgbst-1(s)",
            "xgbst-40(s)", "xgbst-gpu(s)", "vs-1", "vs-40",
            "rmse-ours", "rmse-x40", "rmse-xgpu",
        ]
        body = [
            [
                r["dataset"], r["cardinality"], r["dimension"], r["ours"],
                r["xgbst1"], r["xgbst40"], r["xgbstgpu"], r["speedup1"],
                r["speedup40"], r["rmse_ours"], r["rmse_x40"], r["rmse_xgpu"],
            ]
            for r in self.rows
        ]
        lo1, hi1 = PAPER_BANDS["speedup_vs_xgbst1"]
        lo40, hi40 = PAPER_BANDS["speedup_vs_xgbst40"]
        note = (
            f"paper bands: vs-1 in [{lo1:.0f}, {hi1:.0f}] (often), "
            f"vs-40 in [{lo40:.1f}, {hi40:.1f}]; xgbst-gpu OOMs on the "
            "large sparse datasets and drifts in RMSE on sparse data"
        )
        return format_table(headers, body, title="Table II -- overall comparison") + "\n" + note

    def row(self, dataset: str) -> Dict:
        """The row for one dataset (KeyError if absent)."""
        for r in self.rows:
            if r["dataset"] == dataset:
                return r
        raise KeyError(dataset)


#: memo for default-parameter Table-II runs (fig10a reuses table2's rows;
#: results are deterministic, so caching only saves wall time)
_TABLE2_CACHE: Dict[tuple, "Table2Result"] = {}


def run_table2(
    quick: bool = False,
    names: Sequence[str] = TABLE2_NAMES,
    params: GBDTParams | None = None,
) -> Table2Result:
    """Regenerate Table II: 8 datasets x 4 systems."""
    cache_key = (quick, tuple(names)) if params is None else None
    if cache_key is not None and cache_key in _TABLE2_CACHE:
        return _TABLE2_CACHE[cache_key]
    p = params if params is not None else _params(quick)
    rows: List[Dict] = []
    for ds in load_table2_datasets(quick, names):
        ours = run_gpu_gbdt(ds, p)
        one, forty, _ = run_cpu_baseline(ds, p)
        xgpu = run_xgb_gpu(ds, p)
        rows.append(
            {
                "dataset": ds.name,
                "cardinality": ds.spec.n_full,
                "dimension": ds.spec.d_full,
                "ours": ours.seconds,
                "xgbst1": one.seconds,
                "xgbst40": forty.seconds,
                "xgbstgpu": xgpu.seconds,
                "speedup1": (one.seconds / ours.seconds) if ours.ok else None,
                "speedup40": (forty.seconds / ours.seconds) if ours.ok else None,
                "rmse_ours": ours.train_rmse,
                "rmse_x40": forty.train_rmse,
                "rmse_xgpu": xgpu.train_rmse,
                "ours_result": ours,
                "xgbstgpu_status": xgpu.status,
            }
        )
    result = Table2Result(rows=rows)
    if cache_key is not None:
        _TABLE2_CACHE[cache_key] = result
    return result


# ===================================================== Fig. 8a / 8b =========
@dataclasses.dataclass
class SeriesResult:
    x_label: str
    xs: List
    series: Dict[str, List[float]]
    title: str
    note: str = ""

    @property
    def text(self) -> str:
        body = format_series(self.x_label, self.xs, self.series, title=self.title)
        return f"{body}\n{self.note}" if self.note else body


def _fig8_note() -> str:
    lo, hi = PAPER_BANDS["speedup_vs_xgbst40"]
    return f"paper: consistently above 1, roughly [{lo:.1f}, {hi:.1f}] at depth 6"


def _speedup_over_xgbst40(ds: Dataset, p: GBDTParams) -> float:
    ours = run_gpu_gbdt(ds, p)
    _, forty, _ = run_cpu_baseline(ds, p)
    if not ours.ok:
        raise RuntimeError(f"GPU-GBDT OOM on {ds.name}")
    return forty.seconds / ours.seconds


def run_fig8a(
    quick: bool = False,
    depths: Sequence[int] = (2, 3, 4, 5, 6, 7, 8),
    names: Sequence[str] = SENSITIVITY_DATASETS,
) -> SeriesResult:
    """Fig. 8a: speedup over xgbst-40 while varying tree depth (T = 40)."""
    if quick:
        depths = (2, 4, 6)
    datasets = load_table2_datasets(quick, names)
    series: Dict[str, List[float]] = {ds.name: [] for ds in datasets}
    for depth in depths:
        p = _params(quick, max_depth=depth)
        for ds in datasets:
            series[ds.name].append(_speedup_over_xgbst40(ds, p))
    return SeriesResult(
        x_label="depth", xs=list(depths), series=series,
        title="Fig. 8a -- speedup of GPU-GBDT over xgbst-40 vs. tree depth",
        note=_fig8_note() + "; best at depth 2, then relatively stable",
    )


def run_fig8b(
    quick: bool = False,
    tree_counts: Sequence[int] = (10, 20, 40, 80),
    names: Sequence[str] = SENSITIVITY_DATASETS,
) -> SeriesResult:
    """Fig. 8b: speedup over xgbst-40 while varying #trees (depth = 6)."""
    if quick:
        tree_counts = (4, 8)
    datasets = load_table2_datasets(quick, names)
    series: Dict[str, List[float]] = {ds.name: [] for ds in datasets}
    for t in tree_counts:
        p = _params(quick, n_trees=t)
        for ds in datasets:
            series[ds.name].append(_speedup_over_xgbst40(ds, p))
    return SeriesResult(
        x_label="trees", xs=list(tree_counts), series=series,
        title="Fig. 8b -- speedup of GPU-GBDT over xgbst-40 vs. number of trees",
        note=_fig8_note() + "; rather stable as the number of trees increases",
    )


# ============================================================ Fig. 9 ========
#: ablation label -> (GBDTParams override, GPUGBDTTrainer keywords) that
#: switch that optimization off
ABLATIONS: Dict[str, Tuple[Dict, Dict]] = {
    "Customized SetKey": ({}, {"use_custom_setkey": False}),
    "Customized IdxComp Workload": ({}, {"use_custom_workload": False}),
    "RLE": ({}, {"rle_policy": "never"}),
    "SmartGD": ({"use_smartgd": False}, {}),
    "Directly Split RLE": ({}, {"use_direct_rle": False}),
}


@dataclasses.dataclass
class AblationResult:
    datasets: List[str]
    full_seconds: Dict[str, float]
    ablated_seconds: Dict[str, Dict[str, float]]  # ablation -> dataset -> s

    @property
    def slowdowns(self) -> Dict[str, Dict[str, float]]:
        """ablation -> dataset -> relative slowdown when disabled."""
        out: Dict[str, Dict[str, float]] = {}
        for ab, per_ds in self.ablated_seconds.items():
            out[ab] = {
                d: per_ds[d] / self.full_seconds[d] - 1.0 for d in self.datasets
            }
        return out

    @property
    def text(self) -> str:
        headers = ["optimization disabled"] + list(self.datasets)
        rows = []
        slow = self.slowdowns
        for ab in self.ablated_seconds:
            rows.append([ab] + [f"+{slow[ab][d] * 100:.0f}%" for d in self.datasets])
        return (
            format_table(headers, rows, title="Fig. 9 -- execution-time increase when disabling each optimization")
            + "\npaper: SmartGD and Directly-Split-RLE have the largest impact; "
            "Customized SetKey gives 10-20% on high-dimensional datasets"
        )


def run_fig9(
    quick: bool = False, names: Sequence[str] = TABLE2_NAMES
) -> AblationResult:
    """Fig. 9: switch each optimization off and measure the slowdown."""
    if quick:
        names = SENSITIVITY_DATASETS
    # the default "measured" RLE policy decides per dataset, so the RLE and
    # Directly-Split-RLE ablations only move where the data compresses
    p_full = _params(quick)
    datasets = load_table2_datasets(quick, names)
    full_seconds: Dict[str, float] = {}
    for ds in datasets:
        full_seconds[ds.name] = run_gpu_gbdt(ds, p_full).seconds
    ablated: Dict[str, Dict[str, float]] = {}
    for label, (overrides, kernel_options) in ABLATIONS.items():
        per_ds: Dict[str, float] = {}
        for ds in datasets:
            res = run_gpu_gbdt(ds, p_full.replace(**overrides), **kernel_options)
            per_ds[ds.name] = res.seconds
        ablated[label] = per_ds
    return AblationResult(
        datasets=[ds.name for ds in datasets],
        full_seconds=full_seconds,
        ablated_seconds=ablated,
    )


# =========================================================== Fig. 10a =======
def run_fig10a(quick: bool = False, table2: Table2Result | None = None) -> SeriesResult:
    """Fig. 10a: performance-price ratio of GPU-GBDT normalized by xgbst-40."""
    t2 = table2 if table2 is not None else run_table2(quick)
    names, ratios = [], []
    for r in t2.rows:
        if r["ours"] is None or r["xgbst40"] is None:
            continue
        names.append(r["dataset"])
        ratios.append(normalized_ratio(r["ours"], r["xgbst40"]))
    lo, hi = PAPER_BANDS["perf_price_vs_cpu"]
    return SeriesResult(
        x_label="dataset", xs=names, series={"perf-price vs CPU": ratios},
        title=(
            "Fig. 10a -- performance-price ratio (GPU $%.0f vs CPUs $%.0f), "
            "normalized to xgbst-40" % (TITAN_X_PASCAL.price_usd, XEON_E5_2640V4_X2.price_usd)
        ),
        note=f"paper: GPU-GBDT consistently better by [{lo:.1f}, {hi:.1f}]x",
    )


# =========================================================== Fig. 10b =======
@dataclasses.dataclass
class Fig10bResult:
    budgets: List[float]
    gpu_error: List[float]
    cpu_error: List[float]

    @property
    def text(self) -> str:
        return format_series(
            "budget(s)",
            [round(b, 2) for b in self.budgets],
            {"GPU-GBDT test error": self.gpu_error, "xgbst-40 test error": self.cpu_error},
            title="Fig. 10b -- test error for a given training-time budget (susy)",
        ) + "\npaper: for the same budget GPU-GBDT reaches clearly lower test error"


def run_fig10b(
    quick: bool = False,
    dataset: str = "susy",
    n_budgets: int = 10,
) -> Fig10bResult:
    """Fig. 10b: test error vs. modeled training-time budget.

    Both systems train the same trees (identical algorithms); the budget
    axis uses each system's modeled seconds, attributed uniformly across
    boosting rounds (tree costs are level-dominated and near-constant).
    Budgets are log-spaced from "GPU has a few trees" to "CPU finished" --
    the region the paper's figure covers -- and the learning rate is
    lowered so the ensembles are still improving across that region.
    """
    ds = make_dataset(dataset, run_rows=400 if quick else None)
    p = _params(quick, n_trees=16 if quick else 80, learning_rate=0.1)
    ours = run_gpu_gbdt(ds, p)
    _, forty, _ = run_cpu_baseline(ds, p)
    staged = ours.model.staged_predict(ds.X_test)
    errors = np.array([error_rate(ds.y_test, staged[t]) for t in range(p.n_trees)])
    t_gpu = ours.seconds * (np.arange(p.n_trees) + 1) / p.n_trees
    t_cpu = forty.seconds * (np.arange(p.n_trees) + 1) / p.n_trees

    start = t_gpu[min(2, p.n_trees - 1)]
    budgets = list(np.geomspace(start, t_cpu[-1], n_budgets))

    def err_at(times: np.ndarray, budget: float) -> float:
        k = int(np.searchsorted(times, budget, side="right")) - 1
        if k < 0:
            return 0.5  # no tree finished: majority-class guess
        return float(errors[k])

    return Fig10bResult(
        budgets=budgets,
        gpu_error=[err_at(t_gpu, b) for b in budgets],
        cpu_error=[err_at(t_cpu, b) for b in budgets],
    )


# ======================================================= device sweep =======
def run_device_sweep(
    quick: bool = False, names: Sequence[str] = ("covtype", "susy")
) -> SeriesResult:
    """Section IV setup note: "We have also tested GPU-GBDT on Tesla P100
    and K20, and the speedup is almost sublinear in the number of cores of
    the GPUs."  One training per (dataset, device); times normalized to the
    K20 so the series reads as speedup alongside the core ratio."""
    devices = [TESLA_K20, TITAN_X_PASCAL, TESLA_P100]
    datasets = load_table2_datasets(quick, names)
    p = _params(quick)
    series: Dict[str, List[float]] = {ds.name: [] for ds in datasets}
    for ds in datasets:
        base = None
        for spec in devices:
            res = run_gpu_gbdt(ds, p, spec=spec)
            if base is None:
                base = res.seconds
            series[ds.name].append(base / res.seconds)
    series["core ratio"] = [d.total_cores / devices[0].total_cores for d in devices]
    return SeriesResult(
        x_label="device",
        xs=[d.name for d in devices],
        series=series,
        title="Device sweep -- speedup over Tesla K20 vs. core count",
        note="paper: also validated on P100/K20; ordering K20 < Titan X < P100 "
        "(our memory-bound model tracks bandwidth ratios rather than core count)",
    )


def run_multigpu_scaling(
    quick: bool = False,
    dataset: str = "susy",
    device_counts: Sequence[int] = (1, 2, 4, 8),
) -> SeriesResult:
    """Extension (Section VI future work): strong scaling over simulated GPUs.

    Attribute-parallel training of one workload on 1..k devices; reported as
    speedup over a single device.  Identical trees are asserted by the test
    suite; here we only measure the modeled wall time (slowest device).
    """
    from ..ext.multigpu import MultiGpuGBDTTrainer

    if quick:
        device_counts = (1, 2)
    ds = make_dataset(dataset, run_rows=300 if quick else 1500)
    p = _params(quick, n_trees=4 if quick else 10)
    times: List[float] = []
    for k in device_counts:
        trainer = MultiGpuGBDTTrainer(
            p, n_devices=int(k),
            work_scale=ds.work_scale, seg_scale=ds.seg_scale, row_scale=ds.row_scale,
        )
        trainer.fit(ds.X, ds.y)
        times.append(trainer.elapsed_seconds())
    return SeriesResult(
        x_label="devices",
        xs=list(device_counts),
        series={
            "seconds": times,
            "speedup": [times[0] / t for t in times],
        },
        title="Extension -- multi-GPU strong scaling (susy profile)",
        note="attribute-parallel split finding with per-level winner allreduce "
        "and side-array broadcast; communication keeps scaling sublinear",
    )


def run_thread_sweep(
    quick: bool = False,
    dataset: str = "susy",
    thread_counts: Sequence[int] = (1, 10, 20, 40, 80),
) -> SeriesResult:
    """Section IV setup note: "We have also tried XGBoost with 10, 20, 40
    and 80 threads, and found that using 40 threads results in the shortest
    execution time."  One functional run, re-timed at every thread count.
    """
    ds = make_dataset(dataset, run_rows=300 if quick else 1500)
    p = _params(quick, n_trees=4 if quick else 10)
    _, _, runner = run_cpu_baseline(ds, p)
    times = [runner.modeled_seconds(int(t)) for t in thread_counts]
    return SeriesResult(
        x_label="threads",
        xs=list(thread_counts),
        series={"xgbst modeled seconds": times},
        title="Thread sweep -- XGBoost training time vs. OpenMP threads (susy profile)",
        note="paper: 40 threads (the hardware's SMT width) is the sweet spot; "
        "80 oversubscribes and slows down",
    )


# ======================================================== case studies ======
@dataclasses.dataclass
class CaseStudyResult:
    rows: List[Dict]

    @property
    def text(self) -> str:
        headers = ["case", "workload", "xgbst-40", "GPU-GBDT", "speedup"]
        body = [
            [r["case"], r["workload"], r["cpu_human"], r["gpu_human"], r["speedup"]]
            for r in self.rows
        ]
        return format_table(headers, body, title="Section IV-E -- case studies") + (
            "\npaper: credit-risk ~27 min on CPU; malware 43 s -> ~20 s; "
            "Kaggle 144-model search ~22.3 days -> ~10 days"
        )


def _human(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 60:
        return f"{seconds / 60:.1f} min"
    return f"{seconds:.1f} s"


def run_case_studies(quick: bool = False) -> CaseStudyResult:
    """Section IV-E: (i) credit risk, (ii) malware, (iii) Kaggle search.

    Each case is a synthetic workload with the cited shape; times are the
    cost model's full-scale estimates for one training (cases i-ii) or the
    whole 144-configuration hyper-parameter grid (case iii, via
    :mod:`repro.ext.hyperband`).
    """
    from ..ext.hyperband import TimeBudgetSearch, paper_search_grid

    rows: List[Dict] = []

    # (i) credit risk: 211,357 x 8,990 features
    credit = make_dataset("real-sim", run_rows=300 if quick else 1500)
    credit = dataclasses.replace(
        credit,
        spec=dataclasses.replace(
            credit.spec, name="credit-risk", n_full=211_357, d_full=8_990, density_full=0.05
        ),
    )
    p = _params(quick)
    ours = run_gpu_gbdt(credit, p)
    _, forty, _ = run_cpu_baseline(credit, p)
    rows.append(
        {
            "case": "(i) credit risk",
            "workload": "211,357 x 8,990, one model",
            "cpu_human": _human(forty.seconds),
            "gpu_human": _human(ours.seconds),
            "speedup": forty.seconds / ours.seconds,
        }
    )

    # (ii) malware detection: frequent small retrains
    malware = make_dataset("covtype", run_rows=300 if quick else 2000)
    malware = dataclasses.replace(
        malware,
        spec=dataclasses.replace(
            malware.spec, name="malware", n_full=500_000, d_full=120, density_full=0.3
        ),
    )
    ours_m = run_gpu_gbdt(malware, p)
    _, forty_m, _ = run_cpu_baseline(malware, p)
    rows.append(
        {
            "case": "(ii) malware update",
            "workload": "500,000 x 120, one retrain",
            "cpu_human": _human(forty_m.seconds),
            "gpu_human": _human(ours_m.seconds),
            "speedup": forty_m.seconds / ours_m.seconds,
        }
    )

    # (iii) Kaggle-style hyper-parameter search: the paper's 144-model grid.
    # The Santander features are engineered categoricals, so the insurance
    # (high-repetition) generator is the right profile -- RLE is what lets
    # the 17M x 142 sorted lists fit on the device at all.
    search_ds = make_dataset("insurance", run_rows=300 if quick else 1200)
    search_ds = dataclasses.replace(
        search_ds,
        spec=dataclasses.replace(
            search_ds.spec, name="kaggle", n_full=17_000_000, d_full=142, density_full=0.9
        ),
    )
    grid = paper_search_grid(quick=quick)
    search = TimeBudgetSearch(search_ds, grid)
    summary = search.estimate()
    rows.append(
        {
            "case": "(iii) Kaggle search",
            "workload": f"17M x 142, {summary.n_configs} configs",
            "cpu_human": _human(summary.cpu_seconds_total),
            "gpu_human": _human(summary.gpu_seconds_total),
            "speedup": summary.cpu_seconds_total / summary.gpu_seconds_total,
        }
    )
    return CaseStudyResult(rows=rows)


# ================================================= extension experiments ====
@dataclasses.dataclass
class ApproxResult:
    """Exact-vs-histogram comparison rows."""

    rows: List[Dict]
    max_bins: int

    @property
    def text(self) -> str:
        headers = ["dataset", "exact(s)", f"hist-{self.max_bins}(s)", "speedup",
                   "exact rmse", "hist rmse"]
        body = [
            [r["dataset"], r["exact_s"], r["hist_s"], r["speedup"],
             r["exact_rmse"], r["hist_rmse"]]
            for r in self.rows
        ]
        return format_table(
            headers, body,
            title="Extension -- exact GPU-GBDT vs. histogram (approximate) training",
        ) + ("\npaper context: GPU-GBDT finds splits without approximation; "
             "LightGBM-style histograms trade exactness for speed")


def run_exact_vs_approx(
    quick: bool = False,
    names: Sequence[str] = ("covtype", "susy", "higgs"),
    max_bins: int = 64,
) -> "ApproxResult":
    """Extension: exact GPU-GBDT vs. the histogram (approximate) family.

    The paper's Section V contrast ("LightGBM ... only supports finding the
    best split points approximately") made runnable: modeled training time
    and held-out RMSE for both trainers.  On quantized data (covtype) the
    histogram trainer matches the exact partitions; on continuous data
    (susy, higgs) it is faster but learns different trees.
    """
    from ..approx import HistogramGBDTTrainer
    from ..gpusim.kernel import GpuDevice
    from ..metrics import rmse as _rmse

    p = _params(quick)
    rows: List[Dict] = []
    for ds in load_table2_datasets(quick, names):
        exact = run_gpu_gbdt(ds, p)
        dev = GpuDevice(TITAN_X_PASCAL, work_scale=ds.work_scale, seg_scale=ds.seg_scale)
        hist_model = HistogramGBDTTrainer(
            p, dev, max_bins=max_bins, row_scale=ds.row_scale
        ).fit(ds.X, ds.y)
        rows.append(
            {
                "dataset": ds.name,
                "exact_s": exact.seconds,
                "hist_s": dev.elapsed_seconds(),
                "speedup": exact.seconds / dev.elapsed_seconds(),
                "exact_rmse": _rmse(ds.y_test, exact.model.predict(ds.X_test)),
                "hist_rmse": _rmse(ds.y_test, hist_model.predict(ds.X_test)),
            }
        )
    return ApproxResult(rows=rows, max_bins=max_bins)


def run_crossover(
    quick: bool = False,
    dataset: str = "susy",
    cardinalities: Sequence[int] = (2_000, 20_000, 100_000, 500_000, 2_500_000, 12_500_000),
) -> SeriesResult:
    """Extension: modeled training time vs. dataset cardinality.

    Fixed overheads (kernel launches, PCIe transactions) dominate the GPU at
    small n, so sequential XGBoost wins tiny datasets and GPU-GBDT takes
    over as n grows -- the crossover implied by the paper's "for smaller
    datasets ... use dense representation / CPU" discussion.
    """
    if quick:
        cardinalities = (20_000, 500_000)
    base = make_dataset(dataset, run_rows=300 if quick else 1000)
    p = _params(quick, n_trees=4 if quick else 10)
    gpu_times: List[float] = []
    cpu1_times: List[float] = []
    cpu40_times: List[float] = []
    for n_full in cardinalities:
        ds = dataclasses.replace(
            base, spec=dataclasses.replace(base.spec, n_full=int(n_full))
        )
        gpu = run_gpu_gbdt(ds, p)
        one, forty, _ = run_cpu_baseline(ds, p)
        gpu_times.append(gpu.seconds)
        cpu1_times.append(one.seconds)
        cpu40_times.append(forty.seconds)
    return SeriesResult(
        x_label="cardinality",
        xs=list(cardinalities),
        series={
            "GPU-GBDT (s)": gpu_times,
            "xgbst-1 (s)": cpu1_times,
            "xgbst-40 (s)": cpu40_times,
        },
        title="Extension -- modeled training time vs. dataset cardinality (susy profile)",
        note="fixed launch/PCIe overheads make the CPU competitive at small n; "
        "the GPU pulls ahead as cardinality grows",
    )


# ============================================================ serving =======
@dataclasses.dataclass
class ServingBenchResult:
    """Wall-clock serving comparison plus batched-path service metrics."""

    rows: List[Dict]
    metrics: Dict[str, float]
    #: batched micro-batcher throughput over the old per-request loop
    speedup_vs_per_request: float
    #: flattened batch sweep over the per-tree loop on the same full batch
    speedup_batch_vs_loop: float
    #: max |flat - per-tree loop| over every served row (differential guard;
    #: 0 when every path sums in boosting order)
    max_abs_dev: float
    modeled_gpu_seconds: float
    n_requests: int
    n_trees: int

    def invariants(self) -> Dict[str, bool]:
        """What every run must show: micro-batching beats per-request
        serving tenfold, the flat sweep never loses badly to the per-tree
        loop, everything served equals the per-tree loop bit for bit, the
        device was charged, and no request was turned away."""
        return {
            "speedup_vs_per_request_at_least_10": self.speedup_vs_per_request >= 10.0,
            "speedup_batch_vs_loop_above_0.8": self.speedup_batch_vs_loop > 0.8,
            "max_abs_dev_zero": self.max_abs_dev == 0.0,
            "modeled_gpu_seconds_positive": self.modeled_gpu_seconds > 0.0,
            "none_rejected": self.metrics["rejected"] == 0,
        }

    def payload(self) -> Dict:
        """Structured run-store payload (stable ``flatten_metrics`` paths:
        rows are keyed by ``name``, so reordering never renames a metric)."""
        return {
            "n_requests": self.n_requests,
            "n_trees": self.n_trees,
            "metrics": {
                "paths": self.rows,
                "batched": self.metrics,
                "speedup_vs_per_request": self.speedup_vs_per_request,
                "speedup_batch_vs_loop": self.speedup_batch_vs_loop,
                "max_abs_dev": self.max_abs_dev,
                "modeled_gpu_seconds": self.modeled_gpu_seconds,
            },
            "invariants": self.invariants(),
        }

    @property
    def text(self) -> str:
        headers = ["serving path", "total (s)", "per-request (ms)", "req/s"]
        body = [
            [r["name"], r["total_s"], r["per_request_ms"], r["rps"]] for r in self.rows
        ]
        table = format_table(
            headers,
            body,
            title=(
                f"Serving bench -- {self.n_requests} requests x "
                f"{self.n_trees} trees"
            ),
        )
        m = self.metrics
        return table + (
            f"\nbatched path: p50={m['p50_ms']:.3g} ms  p95={m['p95_ms']:.3g} ms  "
            f"p99={m['p99_ms']:.3g} ms (queue wait, simulated arrivals)"
            f"\nshed={int(m['shed'])} rejected={int(m['rejected'])}"
            f"\nspeedup: micro-batched vs per-request loop {self.speedup_vs_per_request:.1f}x; "
            f"flat batch vs per-tree loop on one full batch {self.speedup_batch_vs_loop:.2f}x"
            f"\nmax |flat - per-tree| deviation {self.max_abs_dev:.3g}; "
            f"modeled GPU serving cost {self.modeled_gpu_seconds * 1e3:.3g} ms"
        )


def run_serving_bench(quick: bool = False) -> ServingBenchResult:
    """Benchmark the serving subsystem (:mod:`repro.serve`).

    Three ways to serve the same request stream:

    1. **per-request loop** -- the pre-serving path: each single-row request
       routed tree by tree in Python with ``DecisionTree.predict`` (measured
       on a sample of the stream, reported per request);
    2. **flat batch** -- one :class:`~repro.serve.FlatEnsemble` sweep over
       the whole stream as a single matrix;
    3. **micro-batched** -- the :class:`~repro.serve.MicroBatcher` fed
       request by request (simulated arrival clock, real prediction work),
       with a simulated device charging the Section III-D kernels.
    """
    import time as _time

    from ..gpusim.kernel import GpuDevice
    from ..serve import BatchPolicy, MicroBatcher, ModelRegistry

    n_requests = 1000 if quick else 10000
    n_trees = 20 if quick else 100
    ds = make_dataset("susy", run_rows=600 if quick else 2000, seed=21)
    from ..core.trainer import GPUGBDTTrainer

    model = GPUGBDTTrainer(
        GBDTParams(n_trees=n_trees, max_depth=4 if quick else 6)
    ).fit(ds.X, ds.y)

    rng = np.random.default_rng(33)
    requests = rng.normal(size=(n_requests, ds.X.n_cols))

    def per_tree_loop(rows: np.ndarray) -> np.ndarray:
        out = np.full(rows.shape[0], model.base_score)
        for tree in model.trees:
            out += tree.predict(rows)
        return out

    # -- path 1: per-request per-tree loop, sampled ------------------------
    sample = min(n_requests, 100 if quick else 300)
    t0 = _time.perf_counter()
    for i in range(sample):
        per_tree_loop(requests[i : i + 1])
    per_request_s = (_time.perf_counter() - t0) / sample

    # -- path 2: one flat sweep over the full stream -----------------------
    registry = ModelRegistry()
    registry.publish(model)
    flat = registry.active().flat
    flat.predict(requests[:64])  # warm-up
    t0 = _time.perf_counter()
    flat_pred = flat.predict(requests)
    flat_batch_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    loop_pred = per_tree_loop(requests)
    loop_batch_s = _time.perf_counter() - t0
    max_abs_dev = float(np.abs(flat_pred - loop_pred).max())

    # -- path 3: micro-batched serving of the stream -----------------------
    arrival_gap = 20e-6  # simulated 50k req/s arrival process
    policy = BatchPolicy(max_batch=256, max_wait=0.002, max_queue=4096)
    device = GpuDevice()
    batcher = MicroBatcher(registry, policy=policy, device=device)
    now = 0.0
    t0 = _time.perf_counter()
    handles = []
    for i in range(n_requests):
        handles.append(batcher.submit(requests[i], now=now))
        batcher.poll(now=now)
        now += arrival_gap
    batcher.drain(now=now)
    batched_s = _time.perf_counter() - t0
    served = np.array([h.result() for h in handles])
    max_abs_dev = max(max_abs_dev, float(np.abs(served - flat_pred).max()))

    def row(path: str, total: float) -> Dict:
        return {
            "name": path,
            "total_s": total,
            "per_request_ms": total / n_requests * 1e3,
            "rps": n_requests / total,
        }

    rows = [
        row("per-request per-tree loop", per_request_s * n_requests),
        row("per-tree loop, one batch", loop_batch_s),
        row("flat ensemble, one batch", flat_batch_s),
        row("micro-batched (serve path)", batched_s),
    ]
    return ServingBenchResult(
        rows=rows,
        metrics=batcher.stats.summary(duration=batched_s),
        speedup_vs_per_request=per_request_s * n_requests / batched_s,
        speedup_batch_vs_loop=loop_batch_s / flat_batch_s,
        max_abs_dev=max_abs_dev,
        modeled_gpu_seconds=device.elapsed_seconds(),
        n_requests=n_requests,
        n_trees=n_trees,
    )

