"""End-to-end observability tests: instrumented training is bit-identical
and cheap, and the ``obs report`` breakdown joins wall vs modeled time."""

import json
import time

import pytest

from repro import GBDTParams, GPUGBDTTrainer, GpuDevice, models_equal
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.data import make_dataset
from repro.dist import DistributedHistTrainer
from repro.ext.multigpu import MultiGpuGBDTTrainer
from repro.obs import (
    MetricsRegistry,
    Tracer,
    run_obs_report,
    use_registry,
    use_tracer,
)
from repro.obs.report import PHASES
from repro.stream import StreamingHistTrainer


def train_once(*, tracing: bool, rows: int = 300, trees: int = 4):
    """One deterministic training run under a scoped tracer/registry."""
    tracer = Tracer(enabled=tracing)
    registry = MetricsRegistry(max_label_sets=1024)
    with use_tracer(tracer), use_registry(registry):
        ds = make_dataset("covtype", run_rows=rows, seed=11)
        trainer = GPUGBDTTrainer(GBDTParams(n_trees=trees, max_depth=5), GpuDevice())
        model = trainer.fit(ds.X, ds.y)
    return model, tracer, registry


class TestDifferential:
    def test_instrumented_training_is_bit_identical(self):
        m_on, tracer, _ = train_once(tracing=True)
        m_off, tracer_off, _ = train_once(tracing=False)
        assert len(tracer) > 0
        assert len(tracer_off) == 0
        assert models_equal(m_on, m_off, rtol=0.0, atol=0.0)


#: every trainer family, each fitting through the one boosting driver
CONTRACT_TRAINERS = {
    "exact": lambda p: GPUGBDTTrainer(p),
    "multigpu": lambda p: MultiGpuGBDTTrainer(p, n_devices=2),
    "hist-depthwise": lambda p: HistogramGBDTTrainer(p),
    "hist-lossguide": lambda p: HistogramGBDTTrainer(
        p, grow_policy="lossguide", max_leaves=8
    ),
    "stream": lambda p: StreamingHistTrainer(p, block_rows=100),
    "dist": lambda p: DistributedHistTrainer(p, n_workers=2),
}


class TestTrainingContract:
    """One span tree and one metric set for every trainer: ``train`` holds
    ``setup`` and one ``boost_round`` per tree, and every round holds
    ``gradients``, ``find_split`` and ``split_node``."""

    @pytest.mark.parametrize("kind", list(CONTRACT_TRAINERS))
    def test_span_tree_and_metrics(self, kind):
        n_trees = 4
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry(max_label_sets=1024)
        with use_tracer(tracer), use_registry(registry):
            ds = make_dataset("covtype", run_rows=300, seed=11)
            trainer = CONTRACT_TRAINERS[kind](GBDTParams(n_trees=n_trees, max_depth=5))
            trainer.fit(ds.X, ds.y)
        # a distributed fit records one span tree per rank
        tracers = trainer.rank_tracers_ if kind == "dist" else [tracer]
        for tr in tracers:
            spans = tr.finished()
            by_id = {s.span_id: s for s in spans}

            def under(name, parent):
                found = [s for s in spans if s.name == name]
                assert found, f"{kind}: no {name!r} span"
                assert {by_id[s.parent_id].name for s in found} == {parent}, name
                return found

            (train,) = [s for s in spans if s.name == "train"]
            root = by_id.get(train.parent_id)
            assert (root and root.name) == ("dist.worker" if kind == "dist" else None)
            assert under("setup", "train")
            rounds = under("boost_round", "train")
            assert len(rounds) == n_trees
            for phase in ("gradients", "find_split", "split_node"):
                inside = {s.parent_id for s in under(phase, "boost_round")}
                assert inside == {r.span_id for r in rounds}, phase
            agg = tr.aggregate()
            for phase in PHASES:
                assert phase in agg, f"missing phase span {phase!r}"
            assert agg["train"].total >= agg["boost_round"].total
        assert registry.counter("train_rounds_total").value == n_trees
        assert registry.get("train_round_seconds").count == n_trees
        if kind in ("exact", "multigpu"):
            assert registry.gauge("train_compression_ratio").value > 0


class TestOverhead:
    def test_tracing_overhead_under_ten_percent(self):
        # Interleave on/off runs and compare best-of-N wall times; the
        # min filters scheduler noise from both sides equally.  The bound
        # is on *relative* overhead, and the workspace arena shrank the
        # denominator (fit wall time) without touching tracing's ~1ms
        # absolute cost -- hence 10%, not the pre-arena 5%.  A miss earns
        # one re-measurement: the ~30ms workload's best-of-N still has a
        # noise tail that brushes the bound.
        train_once(tracing=True, rows=200, trees=2)  # warm caches/JIT-ish paths

        def measure(repeats):
            on, off = [], []
            for _ in range(repeats):
                t0 = time.perf_counter()
                train_once(tracing=True)
                on.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                train_once(tracing=False)
                off.append(time.perf_counter() - t0)
            return min(on), min(off)

        on, off = measure(6)
        if on >= off * 1.10:
            on, off = measure(8)
        assert on < off * 1.10, (on, off)


class TestObsReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_obs_report(quick=True)

    def test_split_share_consistent_with_profile(self, report):
        # the paper's Section IV-A story: split work dominates both the
        # wall-clock spans and the gpusim timeline.profile breakdown
        assert report.consistent
        assert report.wall_split_share > 0.5
        assert report.modeled_split_share > 0.5
        assert "[consistent]" in report.text

    def test_breakdowns_are_normalized(self, report):
        assert sum(report.wall[p]["share"] for p in PHASES) == pytest.approx(1.0)
        for p in PHASES:
            assert report.wall[p]["seconds"] >= 0
            assert report.modeled[p]["seconds"] >= 0
        # modeled shares come straight from timeline.profile: they are each
        # phase's fraction of total modeled time, so they sum to <= 1
        assert sum(report.modeled[p]["share"] for p in PHASES) <= 1.0 + 1e-9

    def test_report_carries_training_metrics(self, report):
        assert report.metrics["train_rounds_total"] == report.n_trees
        assert report.n_spans > 0

    def test_report_exports(self, tmp_path):
        trace = tmp_path / "merged.json"
        jsonl = tmp_path / "obs.jsonl"
        prom = tmp_path / "obs.prom"
        run_obs_report(
            quick=True, n_trees=2, trace_path=trace, jsonl_path=jsonl, prom_path=prom
        )
        doc = json.loads(trace.read_text())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {1, 2}
        ts = [e["ts"] for e in slices]
        assert ts == sorted(ts)
        assert all(json.loads(ln) for ln in jsonl.read_text().splitlines())
        assert "train_rounds_total 2" in prom.read_text()


class TestCli:
    def test_obs_report_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        trace = tmp_path / "t.json"
        rc = main(["obs", "report", "--quick", "--trees", "2", "--trace", str(trace)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "obs report" in out
        assert "split work share" in out
        assert json.loads(trace.read_text())["traceEvents"]
