"""Distributed-training benchmark: scaling curve + layout comm comparison.

Two experiments on one fixed synthetic workload:

* **Scaling curve** -- :class:`~repro.dist.DistributedHistTrainer` at
  W ∈ {1, 2, 4, 8} workers.  Reports each run's modeled
  makespan (slowest rank's device), speedup over W=1, collective payload
  bytes and ring steps -- and asserts every W produces the byte-identical
  serialized model to the single-process histogram trainer (a benchmark
  must not report a speedup obtained by changing the trees).

* **Comm-volume comparison** -- data-parallel (row shards, allreduced
  histograms: traffic is O(bins), independent of row count) versus the
  attribute-parallel :class:`~repro.ext.multigpu.MultiGpuGBDTTrainer`
  (per-tree gradient broadcast + per-level side arrays: traffic is O(rows)).
  The crossover this table shows is the reason production systems shard
  rows, not columns, at scale.

* **Subtraction comm volume** -- the data-parallel allreduce payload with
  sibling histogram subtraction off vs. on: reducing only the smaller
  child of each sibling pair roughly halves the histogram traffic at every
  level past the root, byte-identically (``tests/test_dist_trainer.py``
  pins the exact analytic saving).

The payload's ``invariants`` dict states what must hold on every run (see
:meth:`DistBenchResult.invariants`); ``main`` exits 1 and the run store
refuses the run when one is false.

Run via pytest (``benchmarks/bench_dist.py``) or directly::

    PYTHONPATH=src python -m repro.bench.distbench

Results land as ``BENCH_dist.json`` in the standard bench output location
(repo root, or ``$BENCH_METRICS_DIR`` -- see :mod:`repro.bench.output`).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..core.params import GBDTParams
from ..dist import DistributedHistTrainer
from ..ext.multigpu import MultiGpuGBDTTrainer
from ..gpusim.timeline import profile
from ..obs.runstore import failed_invariants
from .hotpath import make_hotpath_data
from .output import to_payload, write_bench_json

__all__ = [
    "DistBenchResult",
    "LayoutRow",
    "ScalingRow",
    "SubtractionRow",
    "run_dist_bench",
]

#: fixed workload: rows x cols, trees, depth (quick shrinks rows and W set)
_FULL = dict(n_rows=6000, n_cols=12, n_trees=6, max_depth=5)
_QUICK = dict(n_rows=1200, n_cols=8, n_trees=3, max_depth=4)
_MAX_BINS = 32

#: scale extrapolation (see repro.gpusim.kernel): the functional run uses the
#: rows above, but compute/traffic cost is declared at rows x _SCALE -- the
#: regime the paper targets.  Histogram allreduce volume does NOT grow with
#: _SCALE (it is O(bins) per level, the structural advantage of
#: data-parallel), while per-row compute and the attribute-parallel layout's
#: row-linear broadcasts do.
_SCALE = 128.0


@dataclasses.dataclass
class ScalingRow:
    """One worker count of the data-parallel scaling curve."""

    workers: int
    modeled_s: float
    speedup: float
    comm_mb: float
    comm_steps: int
    identical_model: bool


@dataclasses.dataclass
class LayoutRow:
    """Comm volume of one parallel layout at one device count."""

    layout: str
    devices: int
    comm_mb: float
    modeled_s: float


@dataclasses.dataclass
class SubtractionRow:
    """Collective payload with sibling histogram subtraction off vs. on.

    With subtraction only the smaller child of each sibling pair is
    allreduced (the sibling is derived locally as ``parent - built``), so
    every level past the root ships half its histogram tables.  The models
    must stay byte-identical -- the saving may not come from changing the
    trees."""

    workers: int
    comm_mb_full: float
    comm_mb_subtract: float
    ratio: float
    identical_model: bool


@dataclasses.dataclass
class DistBenchResult:
    """Scaling curve + layout comparison, with the rendered tables."""

    scaling: List[ScalingRow]
    layouts: List[LayoutRow]
    n_rows: int
    n_cols: int
    n_trees: int
    #: modeled seconds per training phase on the largest scaling run's
    #: slowest rank (regression attribution for the run-store gate)
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)
    subtraction: List[SubtractionRow] = dataclasses.field(default_factory=list)

    @property
    def text(self) -> str:
        hdr = f"{'workers':>8} {'modeled (ms)':>13} {'speedup':>8} {'comm (MB)':>10} {'steps':>7}  identical"
        lines = [
            f"data-parallel scaling -- {self.n_rows} rows x {self.n_cols} attrs, "
            f"{self.n_trees} trees",
            hdr,
            "-" * len(hdr),
        ]
        for r in self.scaling:
            lines.append(
                f"{r.workers:>8} {r.modeled_s*1e3:>13.3f} {r.speedup:>7.2f}x"
                f" {r.comm_mb:>10.3f} {r.comm_steps:>7}  {'yes' if r.identical_model else 'NO'}"
            )
        lines.append("")
        hdr2 = f"{'layout':>20} {'devices':>8} {'comm (MB)':>10} {'modeled (ms)':>13}"
        lines += [
            "comm volume by parallel layout (same workload)", hdr2, "-" * len(hdr2)
        ]
        for r in self.layouts:
            lines.append(
                f"{r.layout:>20} {r.devices:>8} {r.comm_mb:>10.3f} {r.modeled_s*1e3:>13.3f}"
            )
        if self.subtraction:
            lines.append("")
            hdr3 = (
                f"{'workers':>8} {'full (MB)':>10} {'subtract (MB)':>14}"
                f" {'ratio':>7}  identical"
            )
            lines += [
                "histogram allreduce volume -- sibling subtraction off vs. on",
                hdr3,
                "-" * len(hdr3),
            ]
            for s in self.subtraction:
                lines.append(
                    f"{s.workers:>8} {s.comm_mb_full:>10.3f}"
                    f" {s.comm_mb_subtract:>14.3f} {s.ratio:>7.3f}"
                    f"  {'yes' if s.identical_model else 'NO'}"
                )
        return "\n".join(lines)

    def invariants(self) -> Dict[str, bool]:
        """What every run must show: sharding and subtraction leave the
        trees byte-identical, subtraction cuts the allreduce payload below
        0.9x, and data-parallel moves less than attribute-parallel."""
        comm = {r.layout: r.comm_mb for r in self.layouts}
        inv = {
            "subtraction_rows_present": bool(self.subtraction),
            "data_parallel_comm_below_attribute_parallel": (
                comm["data-parallel"] < comm["attribute-parallel"]
            ),
        }
        for r in self.scaling:
            inv[f"scaling_identical[workers={r.workers}]"] = r.identical_model
        for s in self.subtraction:
            inv[f"subtraction_identical[workers={s.workers}]"] = s.identical_model
            inv[f"subtraction_ratio_below_0.9[workers={s.workers}]"] = s.ratio < 0.9
        return inv

    def payload(self) -> Dict:
        """The ``BENCH_dist.json`` document: every table plus the invariants."""
        doc = to_payload(dataclasses.asdict(self))
        doc["invariants"] = self.invariants()
        return doc


def run_dist_bench(quick: bool = False) -> DistBenchResult:
    """Run both experiments; see the module docstring."""
    cfg = _QUICK if quick else _FULL
    X, y = make_hotpath_data(cfg["n_rows"], cfg["n_cols"], seed=5)
    params = GBDTParams(
        n_trees=cfg["n_trees"], max_depth=cfg["max_depth"], seed=7
    )

    single = HistogramGBDTTrainer(params, max_bins=_MAX_BINS)
    reference = single.fit(X, y).to_json()

    worker_counts = (1, 2) if quick else (1, 2, 4, 8)
    scaling: List[ScalingRow] = []
    base_s = None
    phases: Dict[str, float] = {}
    for w in worker_counts:
        trainer = DistributedHistTrainer(
            params, n_workers=w, max_bins=_MAX_BINS,
            work_scale=_SCALE, row_scale=_SCALE,
        )
        model = trainer.fit(X, y)
        modeled = trainer.elapsed_seconds()
        if base_s is None:
            base_s = modeled
        scaling.append(
            ScalingRow(
                workers=w,
                modeled_s=modeled,
                speedup=base_s / modeled if modeled > 0 else float("inf"),
                comm_mb=trainer.comm_bytes() / 1e6,
                comm_steps=trainer.comm_steps(),
                identical_model=model.to_json() == reference,
            )
        )
        # phase attribution from the largest run's slowest (critical) rank
        slowest = max(trainer.devices_, key=lambda d: d.elapsed_seconds())
        phases = {s.phase: s.seconds for s in profile(slowest)}

    layouts: List[LayoutRow] = []
    k = 2 if quick else 4
    data_par = next(r for r in scaling if r.workers == k)
    layouts.append(
        LayoutRow(
            layout="data-parallel",
            devices=k,
            comm_mb=data_par.comm_mb,
            modeled_s=data_par.modeled_s,
        )
    )
    mg = MultiGpuGBDTTrainer(
        params, n_devices=k, work_scale=_SCALE, row_scale=_SCALE
    )
    mg.fit(X, y)
    mg_bytes = sum(
        t.nbytes for dev in mg.devices for t in dev.ledger.transfers
        if t.name in (
            "broadcast_gradients", "allreduce_best_splits", "broadcast_side_array"
        )
    )
    layouts.append(
        LayoutRow(
            layout="attribute-parallel",
            devices=k,
            comm_mb=mg_bytes / 1e6,
            modeled_s=mg.elapsed_seconds(),
        )
    )

    subtraction: List[SubtractionRow] = []
    for w in ((2,) if quick else (2, 4)):
        volumes = {}
        models = {}
        for use_sub in (False, True):
            t = DistributedHistTrainer(
                params, n_workers=w, max_bins=_MAX_BINS,
                use_subtraction=use_sub,
            )
            models[use_sub] = t.fit(X, y)
            volumes[use_sub] = t.comm_bytes()
        subtraction.append(
            SubtractionRow(
                workers=w,
                comm_mb_full=volumes[False] / 1e6,
                comm_mb_subtract=volumes[True] / 1e6,
                ratio=volumes[True] / volumes[False],
                identical_model=(
                    models[True].to_json() == models[False].to_json()
                    == reference
                ),
            )
        )

    return DistBenchResult(
        scaling=scaling,
        layouts=layouts,
        subtraction=subtraction,
        n_rows=cfg["n_rows"],
        n_cols=cfg["n_cols"],
        n_trees=cfg["n_trees"],
        phases=phases,
    )


def main(argv: List[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="smoke-scale workload")
    ap.add_argument(
        "--out", default=None, help="output path (default: BENCH_dist.json at repo root)"
    )
    args = ap.parse_args(argv)
    result = run_dist_bench(quick=args.quick)
    print(result.text)
    payload = result.payload()
    print(f"[-> {write_bench_json('dist', payload, args.out)}]")
    broken = failed_invariants(payload)
    if broken:
        print(f"ERROR: invariants failed: {', '.join(broken)}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
