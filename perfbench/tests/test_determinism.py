"""Checks of the benchmark itself: determinism, layer wrappers, metric list.

Run from the root of a source checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: values that depend only on the generated data, never on timing
EXACT_END_TO_END = ("device_s", "holdout_rmse")


def _exact_layer_values(metrics: dict) -> dict:
    """Call and row counts plus everything read from the device ledger."""
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith((".calls", ".rows")) or k.startswith("gpusim.")
    }


@pytest.fixture
def one_round(monkeypatch, tmp_path):
    """Runs of a single round, writing traces under the test's own directory."""
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    return tmp_path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_repeats_exactly(name, one_round):
    wl = workloads.WORKLOADS[name]
    plain, traced = [], []
    for i in range(2):
        spill = one_round / f"spill-{i}"
        tally, values = run.run_plain(wl, 3, 0.0, spill)
        assert not tally.incorrect and tally.failed == 0, tally.problems
        plain.append({k: values[k] for k in EXACT_END_TO_END})
        tally, values = run.run_traced(wl, 3, 0.0, spill)
        assert not tally.incorrect and tally.failed == 0, tally.problems
        traced.append(_exact_layer_values(values))
    assert plain[0] == plain[1]
    assert traced[0] == traced[1]
    assert traced[0]["gpusim.kernel_launches"] > 0
    assert (one_round / "out" / f"{name}.trace.json").is_file()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_data(name):
    wl = workloads.WORKLOADS[name]
    a, b = workloads.make_data(wl, 1), workloads.make_data(wl, 2)
    same = a.X.nnz == b.X.nnz and np.array_equal(a.X.indices, b.X.indices)
    assert not (same and np.array_equal(a.X.data, b.X.data))
    assert not np.array_equal(a.y, b.y)


def test_instrument_restores_every_binding():
    import repro.approx.histops as histops
    import repro.core.split as split
    import repro.core.trainer as trainer
    from repro.serve.flat_model import FlatEnsemble

    before = (histops.eq2_gain, trainer.find_best_splits_sparse, FlatEnsemble.__dict__["predict"])
    recorder = layers.SpanRecorder()
    with layers.instrument(recorder):
        assert histops.eq2_gain is not split.eq2_gain  # separate bindings, separate layers
        assert trainer.find_best_splits_sparse is not before[1]
        split.eq2_gain(np.ones(2), np.ones(2), 1.0, 2.0, 1.0)
        histops.eq2_gain(np.ones(2), np.ones(2), 1.0, 2.0, 1.0)
    assert before == (
        histops.eq2_gain, trainer.find_best_splits_sparse, FlatEnsemble.__dict__["predict"]
    )
    assert histops.eq2_gain is split.eq2_gain
    totals = recorder.totals()
    assert totals["core.split.eq2_gain"].calls == 1
    assert totals["approx.histops.eq2_gain"].calls == 1


def test_self_time_excludes_children():
    recorder = layers.SpanRecorder()
    with recorder.region("outer"):
        with recorder.region("inner"):
            sum(range(1000))
        sum(range(1000))
    inner, outer = recorder.spans
    assert inner[0] == "inner" and outer[0] == "outer"
    assert inner[4] == inner[3] - inner[2]
    assert outer[4] == (outer[3] - outer[2]) - (inner[3] - inner[2])


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
