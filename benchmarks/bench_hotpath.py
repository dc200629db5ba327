"""Benchmark: hot-path wall-clock time of the training loop.

Unlike the figure/table benchmarks (modeled seconds), this one measures
real wall time of cold exact fits.  It asserts the payload's invariants
(warm refits and sibling subtraction byte-identical, GOSS holdout RMSE
within 1.5x, subtraction cutting modeled ``find_split`` time on gated
workloads -- see :meth:`repro.bench.hotpath.HotpathResult.invariants`)
and that the medium workload's arena holds exactly the pinned bytes.
``--quick-bench`` runs only the tiny smoke workload.
"""

import json
from pathlib import Path

import pytest

from repro.bench.hotpath import run_hotpath
from repro.obs.runstore import failed_invariants

from conftest import print_result


@pytest.mark.benchmark(group="hotpath")
def test_hotpath(benchmark, quick):
    workloads = ["smoke"] if quick else ["medium", "rle", "deep"]
    result = benchmark.pedantic(
        lambda: run_hotpath(workloads, repeats=1 if quick else 3),
        rounds=1,
        iterations=1,
    )
    print_result(result, "Hot path -- wall-clock", bench="hotpath")
    assert not failed_invariants(result.payload())

    if not quick:
        baseline = json.loads(
            (Path(__file__).resolve().parent.parent / "results" / "perf_baseline.json").read_text()
        )
        pinned = baseline["workloads"]["medium"]["arena_reserved_bytes"]
        medium = result.row("medium")
        assert medium.arena_reserved_bytes == pinned, (
            f"medium arena holds {medium.arena_reserved_bytes} B, pinned {pinned} B"
        )
