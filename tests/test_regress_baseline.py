"""Tier-1 cost-model regression gate against the pinned ``experiments`` run.

``make baseline`` pins the full-scale numeric output of every experiment in
the run store (``results/runs/experiments/``, ``runs submit --pin``) and
``make compare`` gates a fresh run against it.  This wires the same gate
into the default test run, in process and without writing to the store, so
a change that moves any modeled number beyond tolerance fails CI instead of
slipping by unnoticed.

Only the cheap full-scale experiments are recomputed here (the complete
sweep is ``make compare``); they exercise the whole cost model -- device
specs, kernel launches, transfer and memory accounting -- end to end.
"""

import pytest

from repro.bench import experiments
from repro.bench.output import to_payload
from repro.obs.runstore import RunStore, flatten_metrics, pinned_findings

#: fast-to-recompute experiments (seconds each, full scale) that still cover
#: the cost model broadly: CPU thread scaling, multi-GPU partitioning and
#: the cross-device sweep
CHECKED = {
    "threads": experiments.run_thread_sweep,
    "multigpu": experiments.run_multigpu_scaling,
    "devices": experiments.run_device_sweep,
}

RTOL = 0.05


@pytest.fixture(scope="module")
def pinned_run():
    pins = [r for r in RunStore().runs("experiments") if r.pinned]
    assert pins, "no pinned experiments run in results/runs/experiments/"
    return pins[-1]


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_modeled_numbers_match_baseline(pinned_run, name):
    assert name in pinned_run.metrics["experiments"], f"{name} missing from pin"
    fresh = {"experiments": {name: to_payload(CHECKED[name](False))}}
    findings = pinned_findings(
        pinned_run.flat_metrics(), flatten_metrics(fresh), RTOL
    )
    assert findings, f"no metric of {name} shared with the pinned run"
    drifts = [f for f in findings if f.regressed]
    assert not drifts, (
        f"cost-model drift vs pinned run {pinned_run.run_id}:\n"
        + "\n".join(f"  {d}" for d in drifts)
    )


def test_baseline_document_is_wellformed(pinned_run):
    doc = pinned_run.metrics
    assert "experiments" in doc and "meta" in doc
    assert doc["meta"].get("quick") is False, "baseline must be full-scale"


def test_pinned_table2_rows_wellformed(pinned_run):
    experiments_doc = pinned_run.metrics["experiments"]
    assert "table2" in experiments_doc
    rows = experiments_doc["table2"]["rows"]
    assert len(rows) == 8
    assert all("ours" in r for r in rows)
