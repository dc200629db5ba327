"""Hot-path wall-clock benchmark of the training loop.

Unlike the rest of :mod:`repro.bench` -- which reports *modeled* seconds
from the simulated device's cost model -- this module measures the real
wall-clock time of the training hot path.  The exact trainer's level loop
(:meth:`GPUGBDTTrainer._grow_tree`) runs on the reused buffers of a
:class:`~repro.core.workspace.WorkspaceArena`; each exact row reports the
best-of cold fit time (``arena_on_s``, a fresh trainer per fit) and the
arena's reserved bytes and buffer count after a fit.

Three fixed synthetic workloads:

``medium``
    The gated workload: dense-ish sparse-path training (``rle_policy
    "never"``).  ``results/perf_baseline.json`` records its absolute time
    and its pinned arena footprint, and ``tests/test_perf_smoke.py`` gates
    on them.
``rle``
    Same trainer with RLE-compressed attribute lists (informational).
``deep``
    Many small levels (informational: Python per-call overhead dominates).

Every exact row also refits on the trainer whose arena the timed fit left
full: ``identical_models`` records whether the warm refit serializes
**byte-identically** to the cold fit, so stale buffer contents never leak
into a model.

Each workload additionally carries a **histogram-trainer section**
(:func:`run_hist_workload`): full sibling builds vs. sibling histogram
subtraction (exact -- byte-identity asserted) vs. GOSS sampling (holdout
RMSE ratio reported, gated by ``tests/test_goss.py``), with per-fit
``find_split``-phase wall seconds so the JSON shows the subtraction trick
cutting the histogram-build phase on the gated workload.

The payload's ``invariants`` dict states what must hold on every run (see
:meth:`HotpathResult.invariants`); ``main`` exits 1 and the run store
refuses the run when one is false.

Run via pytest (``benchmarks/bench_hotpath.py``) or directly::

    PYTHONPATH=src python -m repro.bench.hotpath

Results land as ``BENCH_hotpath.json`` in the standard bench output
location (repo root, or ``$BENCH_METRICS_DIR`` -- see
:mod:`repro.bench.output`); ``--out`` overrides the path.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Tuple

import numpy as np

from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..core.params import GBDTParams
from ..core.trainer import GPUGBDTTrainer
from ..data.matrix import CSRMatrix
from ..metrics import rmse
from ..obs import Tracer, use_tracer
from ..obs.runstore import PHASES, failed_invariants
from .output import to_payload, write_bench_json

__all__ = [
    "HOTPATH_WORKLOADS",
    "HistWorkloadResult",
    "HotpathResult",
    "WorkloadSpec",
    "make_hotpath_data",
    "run_hist_workload",
    "run_hotpath",
    "run_workload",
]


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """One fixed synthetic training configuration."""

    name: str
    n_rows: int
    n_cols: int
    n_trees: int
    max_depth: int
    rle_policy: str  # the exact trainer's (the histogram rows have no RLE)
    gated: bool  # participates in the perf-smoke gate

    def params(self) -> GBDTParams:
        return GBDTParams(
            n_trees=self.n_trees,
            max_depth=self.max_depth,
            learning_rate=0.3,
            lambda_=1.0,
            seed=7,
        )


#: The fixed workload set.  ``medium`` is the acceptance-gated one.
HOTPATH_WORKLOADS: Dict[str, WorkloadSpec] = {
    "medium": WorkloadSpec("medium", 8000, 16, 10, 6, "never", gated=True),
    "rle": WorkloadSpec("rle", 4000, 12, 10, 6, "always", gated=False),
    "deep": WorkloadSpec("deep", 1000, 20, 20, 8, "paper", gated=False),
    # tiny variant for CI smoke runs; same code paths, seconds not gated
    "smoke": WorkloadSpec("smoke", 600, 8, 4, 4, "never", gated=False),
}


def make_hotpath_data(
    n_rows: int, n_cols: int, seed: int = 0
) -> Tuple[CSRMatrix, np.ndarray]:
    """Deterministic synthetic regression data with the shapes the hot path
    cares about: ~80% density, quantized (RLE-friendly) columns, and one
    constant column."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, n_cols))
    for j in range(0, n_cols, 3):
        dense[:, j] = np.round(dense[:, j] * 2) / 2
    dense[:, 1 % n_cols] = 1.0
    mask = rng.random((n_rows, n_cols)) < 0.8
    y = dense @ rng.normal(size=n_cols) + rng.normal(scale=0.1, size=n_rows)
    r, c = np.nonzero(mask)
    X = CSRMatrix.from_coo(r, c, dense[r, c], n_rows=n_rows, n_cols=n_cols)
    return X, y


@dataclasses.dataclass
class WorkloadResult:
    """Exact-trainer timing of one workload."""

    workload: str
    gated: bool
    #: best-of-repeats wall seconds of a cold fit (fresh trainer and arena)
    arena_on_s: float
    #: a warm refit on the same trainer reproduced the cold fit's model
    identical_models: bool
    arena_reserved_bytes: int
    arena_buffers: int
    #: per-fit mean wall seconds in each training phase during the timed
    #: repeats (the run store's gate attributes regressions to these)
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class HistWorkloadResult:
    """Histogram-trainer hot path on one workload: full sibling builds vs.
    sibling subtraction vs. GOSS sampling.

    Subtraction is exact (``identical_models`` must hold); GOSS is not, so
    its row carries a holdout-RMSE ratio against full-data training instead
    of an identity bit.  ``find_split_*_s`` are best-of per-fit wall seconds
    in the ``find_split`` phase (the histogram build + scan these
    optimizations target) from the trainer's tracer spans;
    ``find_split_model_*_s`` are the simulated device's modeled seconds for
    the same phase.  The modeled number is the gated one: subtraction
    halves the atomic scatter traffic the cost model charges per histogram
    entry (the paper's regime), which the numpy host -- whose per-entry
    masking work is unchanged -- only partly reflects in wall time on
    balanced splits.  ``setup_s`` is the best-of per-fit wall seconds of
    the ``setup`` span (quantile binning of the training matrix) over all
    three configurations, whose setup is the same work."""

    workload: str
    gated: bool
    full_s: float
    subtract_s: float
    speedup: float
    find_split_full_s: float
    find_split_subtract_s: float
    find_split_speedup: float
    find_split_model_full_s: float
    find_split_model_subtract_s: float
    find_split_model_speedup: float
    identical_models: bool
    goss_s: float
    goss_find_split_s: float
    goss_find_split_model_s: float
    goss_rmse_ratio: float
    setup_s: float


@dataclasses.dataclass
class HotpathResult:
    """All workload timings plus the rendered table."""

    rows: List[WorkloadResult]
    repeats: int
    hist_rows: List[HistWorkloadResult] = dataclasses.field(default_factory=list)

    @property
    def text(self) -> str:
        hdr = f"{'workload':>10} {'fit (s)':>9} {'arena (B)':>11}  gated  identical"
        lines = ["exact trainer (identical = warm refit == cold fit)", hdr, "-" * len(hdr)]
        for r in self.rows:
            lines.append(
                f"{r.workload:>10} {r.arena_on_s:>9.4f} {r.arena_reserved_bytes:>11}"
                f"  {'yes' if r.gated else 'no':<5}  {'yes' if r.identical_models else 'NO'}"
            )
        if self.hist_rows:
            hdr2 = (
                f"{'workload':>10} {'full fs(s)':>11} {'sub fs(s)':>10}"
                f" {'fs spdup':>9} {'model spdup':>12} {'goss (s)':>9}"
                f" {'rmse rat':>9} {'setup(s)':>9}  identical"
            )
            lines += [
                "",
                "histogram trainer -- full build vs. sibling subtraction vs. GOSS"
                " (fs = find_split phase; model spdup = device cost model)",
                hdr2,
                "-" * len(hdr2),
            ]
            for h in self.hist_rows:
                lines.append(
                    f"{h.workload:>10} {h.find_split_full_s:>11.4f}"
                    f" {h.find_split_subtract_s:>10.4f}"
                    f" {h.find_split_speedup:>8.2f}x"
                    f" {h.find_split_model_speedup:>11.2f}x {h.goss_s:>9.4f}"
                    f" {h.goss_rmse_ratio:>9.3f} {h.setup_s:>9.4f}"
                    f"  {'yes' if h.identical_models else 'NO'}"
                )
        return "\n".join(lines)

    def row(self, workload: str) -> WorkloadResult:
        for r in self.rows:
            if r.workload == workload:
                return r
        raise KeyError(workload)

    def invariants(self) -> Dict[str, bool]:
        """What every run must show: warm refits and sibling subtraction
        leave the trees byte-identical, GOSS stays within 1.5x of the
        full-data holdout RMSE, and on gated workloads subtraction cuts the
        modeled ``find_split`` time."""
        inv = {"hist_rows_present": bool(self.hist_rows)}
        for r in self.rows:
            inv[f"warm_refit_identical[{r.workload}]"] = r.identical_models
        for h in self.hist_rows:
            inv[f"subtraction_identical[{h.workload}]"] = h.identical_models
            inv[f"goss_rmse_ratio_below_1.5[{h.workload}]"] = h.goss_rmse_ratio < 1.5
            if h.gated:
                inv[f"subtraction_cuts_modeled_find_split[{h.workload}]"] = (
                    h.find_split_model_speedup > 1.0
                )
        return inv

    def payload(self) -> Dict:
        """The ``BENCH_hotpath.json`` document: per-workload rows, the
        invariants, and a top-level phase breakdown (summed across
        workloads) that the run store's gate uses for regression
        attribution."""
        # asdict first: to_payload's cleaner keeps scalars/containers only
        # and would silently drop the nested WorkloadResult dataclasses
        doc = to_payload(dataclasses.asdict(self))
        doc["phases"] = {
            p: sum(r.phases.get(p, 0.0) for r in self.rows) for p in PHASES
        }
        doc["invariants"] = self.invariants()
        return doc


def _time_fit(params, X, y, repeats: int, rle_policy: str):
    """Best-of-``repeats`` wall-clock cold fit time (best-of defeats
    scheduler noise; the work is deterministic so the minimum is the honest
    number).  Returns ``(seconds, model, trainer)`` from the last repeat."""
    best = float("inf")
    trainer = model = None
    for _ in range(max(1, repeats)):
        trainer = GPUGBDTTrainer(params, rle_policy=rle_policy)
        t0 = time.perf_counter()
        model = trainer.fit(X, y)
        best = min(best, time.perf_counter() - t0)
    assert trainer is not None and model is not None
    return best, model, trainer


def run_workload(spec: WorkloadSpec, repeats: int = 3) -> WorkloadResult:
    """Time one workload's cold fits, then check a warm refit's identity."""
    X, y = make_hotpath_data(spec.n_rows, spec.n_cols)
    params = spec.params()
    # a private tracer around the timed repeats captures the phase spans
    # the trainer emits; reported per fit so they compare against arena_on_s
    tracer = Tracer()
    with use_tracer(tracer):
        fit_s, model, trainer = _time_fit(
            params, X, y, repeats=repeats, rle_policy=spec.rle_policy
        )
    n_fits = max(1, repeats)
    phases = {p: tracer.total_time(p) / n_fits for p in PHASES}
    reserved, buffers = trainer.workspace.reserved_bytes, trainer.workspace.n_buffers
    return WorkloadResult(
        workload=spec.name,
        gated=spec.gated,
        arena_on_s=fit_s,
        identical_models=trainer.fit(X, y).to_json() == model.to_json(),
        arena_reserved_bytes=reserved,
        arena_buffers=buffers,
        phases=phases,
    )


_HIST_MAX_BINS = 64


def _time_hist_fit(params, X, y, repeats: int, **trainer_kw):
    """Best-of-``repeats`` wall seconds for a histogram-trainer fit plus the
    best-of per-fit ``find_split``-phase and ``setup`` wall seconds (from
    the trainer's tracer spans; best-of defeats scheduler noise, same as the
    wall number) and the modeled ``find_split`` device seconds
    (deterministic, so taken from the last fit).  Returns ``(seconds,
    find_split_s, setup_s, find_split_model_s, model)``."""
    from ..gpusim.timeline import profile

    best = float("inf")
    best_fs = best_setup = float("inf")
    trainer = model = None
    for _ in range(max(1, repeats)):
        trainer = HistogramGBDTTrainer(
            params, max_bins=_HIST_MAX_BINS, **trainer_kw
        )
        tracer = Tracer()
        with use_tracer(tracer):
            t0 = time.perf_counter()
            model = trainer.fit(X, y)
            best = min(best, time.perf_counter() - t0)
        best_fs = min(best_fs, tracer.total_time("find_split"))
        best_setup = min(best_setup, tracer.total_time("setup"))
    assert trainer is not None and model is not None
    model_fs = sum(
        s.seconds for s in profile(trainer.device) if s.phase == "find_split"
    )
    return best, best_fs, best_setup, model_fs, model


def run_hist_workload(spec: WorkloadSpec, repeats: int = 3) -> HistWorkloadResult:
    """Histogram trainer on one workload: full sibling builds, sibling
    subtraction, and GOSS (a=0.2, b=0.2), on a 75/25 train/holdout split so
    the GOSS row carries an honest generalization ratio."""
    X, y = make_hotpath_data(spec.n_rows, spec.n_cols)
    cut = (spec.n_rows * 3) // 4
    tr = np.arange(cut, dtype=np.int64)
    te = np.arange(cut, spec.n_rows, dtype=np.int64)
    Xtr, ytr = X.select_rows(tr), y[tr]
    Xte, yte = X.select_rows(te), y[te]
    params = spec.params()

    full_s, fs_full, setup_full, mfs_full, full_model = _time_hist_fit(
        params, Xtr, ytr, repeats, use_subtraction=False
    )
    sub_s, fs_sub, setup_sub, mfs_sub, sub_model = _time_hist_fit(
        params, Xtr, ytr, repeats, use_subtraction=True
    )
    goss_s, fs_goss, setup_goss, mfs_goss, goss_model = _time_hist_fit(
        params.replace(goss_a=0.2, goss_b=0.2), Xtr, ytr, repeats
    )
    r_full = rmse(yte, full_model.predict(Xte))
    r_goss = rmse(yte, goss_model.predict(Xte))
    return HistWorkloadResult(
        workload=spec.name,
        gated=spec.gated,
        full_s=full_s,
        subtract_s=sub_s,
        speedup=full_s / sub_s if sub_s > 0 else float("inf"),
        find_split_full_s=fs_full,
        find_split_subtract_s=fs_sub,
        find_split_speedup=fs_full / fs_sub if fs_sub > 0 else float("inf"),
        find_split_model_full_s=mfs_full,
        find_split_model_subtract_s=mfs_sub,
        find_split_model_speedup=(
            mfs_full / mfs_sub if mfs_sub > 0 else float("inf")
        ),
        identical_models=full_model.to_json() == sub_model.to_json(),
        goss_s=goss_s,
        goss_find_split_s=fs_goss,
        goss_find_split_model_s=mfs_goss,
        goss_rmse_ratio=r_goss / r_full if r_full > 0 else float("inf"),
        setup_s=min(setup_full, setup_sub, setup_goss),
    )


def run_hotpath(
    workloads: List[str] | None = None, repeats: int = 3
) -> HotpathResult:
    """Run the named workloads (default: all but ``smoke``)."""
    names = workloads if workloads is not None else ["medium", "rle", "deep"]
    rows = [run_workload(HOTPATH_WORKLOADS[name], repeats=repeats) for name in names]
    hist_rows = [
        run_hist_workload(HOTPATH_WORKLOADS[name], repeats=repeats)
        for name in names
    ]
    return HotpathResult(rows=rows, repeats=repeats, hist_rows=hist_rows)


def main(argv: List[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=None, help="subset of workload names")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_hotpath.json at the repo root)",
    )
    args = ap.parse_args(argv)
    result = run_hotpath(args.workloads, repeats=args.repeats)
    print(result.text)
    payload = result.payload()
    print(f"[-> {write_bench_json('hotpath', payload, args.out)}]")
    broken = failed_invariants(payload)
    if broken:
        print(f"ERROR: invariants failed: {', '.join(broken)}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
