"""Tier-1 perf smoke: the hot path must not silently regress.

Two kinds of gate read ``results/perf_baseline.json``:

* **Allocation** (always on, deterministic): on the gated ``medium``
  workload, a refit on a warm trainer must allocate nothing new in its
  workspace arena, hold exactly the pinned arena bytes, and keep its
  ``tracemalloc`` peak within ``max_warm_peak_ratio`` x the pinned peak.
  A kernel that stops drawing its temporaries from the arena fails it.
* **Wall clock** (noisy): generous ``max_time_ratio`` x recorded-seconds
  budgets on the ``smoke`` and ``medium`` workloads.  These can be skipped
  on constrained or shared machines with ``REPRO_SKIP_PERF=1``.

The histogram trainer's allocation gate (always on) needs no baseline:
its bound is derived from the data's bin count.

``docs/performance.md`` documents how to refresh the baseline after an
intentional change.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro import GBDTParams
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.bench.hotpath import HOTPATH_WORKLOADS, make_hotpath_data, run_workload
from repro.core.trainer import GPUGBDTTrainer
from repro.data import make_dataset

wall_clock = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1: wall-clock gates disabled",
)

_BASELINE_PATH = Path(__file__).resolve().parent.parent / "results" / "perf_baseline.json"


@pytest.fixture(scope="module")
def baseline() -> dict:
    return json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))


def test_baseline_document_shape(baseline):
    assert set(baseline["gates"]) == {"max_time_ratio", "max_warm_peak_ratio"}
    for name, row in baseline["workloads"].items():
        assert row["arena_on_s"] > 0, name
        assert not {"arena_off_s", "speedup"} & set(row), name
    medium = baseline["workloads"]["medium"]
    assert medium["arena_reserved_bytes"] > 0 and medium["warm_fit_peak_bytes"] > 0


def _warm_refit(trainer, X, y):
    """Fit twice; the second fit's ``tracemalloc`` peak above its start and
    the arena allocations and grows it made.  Asserts the models agree."""
    cold = trainer.fit(X, y).to_json()
    ws = trainer.workspace
    allocs, grows = ws.n_allocs, ws.n_grows

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        warm = trainer.fit(X, y).to_json()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()

    assert warm == cold
    return peak, (ws.n_allocs - allocs, ws.n_grows - grows)


def test_medium_warm_refit_allocation_gate(baseline):
    """A second fit on the same trainer reuses the first fit's arena."""
    spec = HOTPATH_WORKLOADS["medium"]
    X, y = make_hotpath_data(spec.n_rows, spec.n_cols)
    trainer = GPUGBDTTrainer(spec.params(), rle_policy=spec.rle_policy)
    peak, new_allocs = _warm_refit(trainer, X, y)
    ws = trainer.workspace

    assert new_allocs == (0, 0)
    pinned = baseline["workloads"]["medium"]
    assert ws.reserved_bytes == pinned["arena_reserved_bytes"], (
        f"arena holds {ws.reserved_bytes} B after a medium fit, pinned "
        f"{pinned['arena_reserved_bytes']} B (docs/performance.md)"
    )
    budget = float(baseline["gates"]["max_warm_peak_ratio"]) * pinned["warm_fit_peak_bytes"]
    assert peak <= budget, (
        f"warm medium refit peaked at {peak} B, budget {budget:.0f} B "
        f"(pinned {pinned['warm_fit_peak_bytes']} B; docs/performance.md)"
    )


#: the histogram refit's transient peak, in units of one node's level
#: tables (3 int64 tables of ``total_bins`` cells).  The level tables and
#: the split scan's candidate gain buffers are arena buffers, so what a
#: refit allocates is the scan's per-chunk temporaries (bounded by
#: ``histops._SCAN_CELLS``, not by the level's width) and per-pass entry
#: arrays: 6.7 units here.  Allocating the scan's gain buffers on every
#: call peaks at 10.3; dense per-level accumulation and sibling tables
#: built outside the arena at 18.9 (26.9 without subtraction).
HIST_PEAK_NODE_TABLES = 8


@pytest.mark.parametrize("use_subtraction", [True, False], ids=["sub", "nosub"])
def test_hist_warm_refit_allocation_gate(use_subtraction):
    """A histogram refit builds every level inside the arena's level tables."""
    ds = make_dataset("e2006", run_rows=3000, seed=1)
    trainer = HistogramGBDTTrainer(
        GBDTParams(n_trees=2, max_depth=6), use_subtraction=use_subtraction
    )
    peak, new_allocs = _warm_refit(trainer, ds.X, ds.y)
    assert new_allocs == (0, 0)
    node_tables = 3 * int(trainer.bins_.bin_offset[-1]) * 8
    budget = HIST_PEAK_NODE_TABLES * node_tables
    assert peak <= budget, (
        f"warm histogram refit peaked at {peak} B = {peak / node_tables:.1f} "
        f"node table sets, budget {HIST_PEAK_NODE_TABLES}"
    )


@wall_clock
def test_smoke_workload_within_baseline(baseline):
    """Tiny fixed workload stays within ``max_time_ratio`` x recorded time."""
    result = run_workload(HOTPATH_WORKLOADS["smoke"], repeats=3)
    assert result.identical_models
    ratio = float(baseline["gates"]["max_time_ratio"])
    budget = ratio * float(baseline["workloads"]["smoke"]["arena_on_s"])
    assert result.arena_on_s <= budget, (
        f"smoke workload took {result.arena_on_s:.3f}s, budget {budget:.3f}s "
        f"({ratio}x baseline); refresh results/perf_baseline.json if this "
        "machine is legitimately slower (docs/performance.md)"
    )


def _measure_medium_fresh(tmp_path: Path, repeats: int) -> dict:
    """Time the medium workload in a **fresh subprocess** via the bench CLI.

    In-process measurement would be optimistic: a long-lived warm heap (such
    as mid-pytest-suite) has raised the allocator's mmap threshold, so a
    cold fit's arena buffers come from cheap free-list memory.  Real fits
    run in fresh processes; the gate measures that regime.
    """
    out = tmp_path / "hotpath-medium.json"
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.bench.hotpath",
            "--workloads", "medium", "--repeats", str(repeats), "--out", str(out),
        ],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"bench CLI failed:\n{proc.stdout}\n{proc.stderr}"
    (row,) = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert row["identical_models"]
    return row


@wall_clock
def test_medium_workload_within_baseline(baseline, tmp_path):
    """The gated workload stays within ``max_time_ratio`` x recorded time."""
    row = _measure_medium_fresh(tmp_path, repeats=2)
    budget = float(baseline["gates"]["max_time_ratio"]) * float(
        baseline["workloads"]["medium"]["arena_on_s"]
    )
    assert row["arena_on_s"] <= budget, (
        f"medium workload took {row['arena_on_s']:.3f}s, budget {budget:.3f}s"
    )
