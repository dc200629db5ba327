"""Benchmark: hot-path wall-clock time of the training loop.

Unlike the figure/table benchmarks (modeled seconds), this one measures
real wall time of cold exact fits, asserting that a warm refit on the same
trainer (its workspace arena full of the first fit's buffers) serializes
byte-identically, and that the medium workload's arena holds exactly the
pinned bytes.  ``--quick-bench`` runs only the tiny smoke workload.
"""

import json
from pathlib import Path

import pytest

from repro.bench.hotpath import run_hotpath, write_hotpath_json

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

    path = write_hotpath_json(result)
    print(f"[hotpath json -> {path}]")

    # stale arena buffers must never change the trees, at any scale
    for row in result.rows:
        assert row.identical_models, row.workload
    # neither may sibling subtraction in the histogram trainer
    for row in result.hist_rows:
        assert row.identical_models, f"{row.workload} (subtraction)"

    if not quick:
        baseline = json.loads(
            (Path(__file__).resolve().parent.parent / "results" / "perf_baseline.json").read_text()
        )
        pinned = baseline["workloads"]["medium"]["arena_reserved_bytes"]
        medium = result.row("medium")
        assert medium.arena_reserved_bytes == pinned, (
            f"medium arena holds {medium.arena_reserved_bytes} B, pinned {pinned} B"
        )
        # subtraction must actually cut the find_split phase where it is on
        # (modeled device seconds: deterministic, unlike the wall numbers)
        hist_medium = result.hist_row("medium")
        assert hist_medium.find_split_model_speedup > 1.0, (
            "subtraction did not reduce modeled find_split time: "
            f"{hist_medium.find_split_model_full_s:.6f}s -> "
            f"{hist_medium.find_split_model_subtract_s:.6f}s"
        )
