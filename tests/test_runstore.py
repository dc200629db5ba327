"""Run-store tests: envelopes, torn-file skip, diff, rolling gate, CLI.

The store is the longitudinal perf record, so the properties under test are
integrity ones: a submitted run reads back exactly, a torn file is skipped
(never trusted, never fatal), diffs key list metrics by name (stable under
workload reordering), and the rolling-baseline gate fails only on genuine
step changes -- attributed to the phase that moved.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs import MetricsRegistry, use_registry
from repro.obs.history import build_history, sparkline
from repro.obs.runstore import (
    PHASES,
    RunStore,
    flatten_metrics,
    metric_direction,
)


def make_store(tmp_path, start=1000.0):
    """Deterministic store: injected clock and commit resolver."""
    state = {"t": start, "commit": "deadbeefcafe0123"}

    def clock():
        state["t"] += 60.0
        return state["t"]

    return RunStore(
        tmp_path / "runs",
        clock=clock,
        commit_resolver=lambda: state["commit"],
    ), state


def payload(on_s=1.0, speedup=2.0, find_split=0.6, split_node=0.2):
    return {
        "rows": [
            {
                "workload": "medium",
                "arena_on_s": on_s,
                "speedup": speedup,
                "identical_models": True,
            }
        ],
        "repeats": 3,
        "phases": {
            "setup": 0.1,
            "gradients": 0.1,
            "find_split": find_split,
            "split_node": split_node,
        },
    }


# ----------------------------------------------------------------- envelope
class TestEnvelope:
    def test_submit_round_trip(self, tmp_path):
        store, _ = make_store(tmp_path)
        rec = store.submit("hotpath", payload(), note="first")
        assert rec.run_id == "000001-deadbeefca"
        (loaded,) = store.runs("hotpath")
        assert loaded.run_id == rec.run_id
        assert loaded.commit == "deadbeefcafe0123"
        assert loaded.note == "first"
        assert loaded.metrics == payload()
        assert loaded.phases["find_split"] == pytest.approx(0.6)
        assert set(PHASES) == set(loaded.phases)

    def test_envelope_is_checksummed(self, tmp_path):
        store, _ = make_store(tmp_path)
        rec = store.submit("hotpath", payload())
        env = json.loads(rec.path.read_text())
        assert env["format"] == "repro-run-v1"
        import hashlib

        assert (
            hashlib.sha256(env["payload"].encode()).hexdigest() == env["checksum"]
        )

    def test_sequence_numbers_append(self, tmp_path):
        store, _ = make_store(tmp_path)
        ids = [store.submit("hotpath", payload()).run_id for _ in range(3)]
        assert [int(i.split("-")[0]) for i in ids] == [1, 2, 3]

    def test_bad_bench_name_rejected(self, tmp_path):
        store, _ = make_store(tmp_path)
        with pytest.raises(ValueError):
            store.submit("../escape", payload())


class TestTornFiles:
    def test_torn_file_skipped_and_counted(self, tmp_path):
        store, _ = make_store(tmp_path)
        good = store.submit("hotpath", payload(on_s=1.0))
        bad = store.submit("hotpath", payload(on_s=9.9))
        # tear the newest envelope mid-payload
        text = bad.path.read_text()
        bad.path.write_text(text[: len(text) // 2])
        registry = MetricsRegistry()
        with use_registry(registry):
            (latest,) = store.latest("hotpath", 1)
        assert latest.run_id == good.run_id
        assert (
            registry.counter("runstore_torn_skipped_total", "").value == 1
        )

    def test_checksum_mismatch_skipped(self, tmp_path):
        store, _ = make_store(tmp_path)
        rec = store.submit("hotpath", payload())
        env = json.loads(rec.path.read_text())
        env["payload"] = env["payload"].replace("1.0", "1.1", 1)
        rec.path.write_text(json.dumps(env))
        with use_registry(MetricsRegistry()):
            assert store.runs("hotpath") == []


# ------------------------------------------------------------------ algebra
class TestFlattenAndDirection:
    def test_list_elements_keyed_by_name(self):
        flat = flatten_metrics(payload())
        assert "rows[workload=medium].arena_on_s" in flat
        assert "phases.find_split" in flat
        # booleans are not metrics
        assert not any("identical" in k for k in flat)

    def test_keyed_paths_survive_reordering(self):
        a = {"rows": [{"workload": "a", "t_s": 1.0}, {"workload": "b", "t_s": 2.0}]}
        b = {"rows": [{"workload": "b", "t_s": 2.0}, {"workload": "a", "t_s": 1.0}]}
        assert flatten_metrics(a) == flatten_metrics(b)

    @pytest.mark.parametrize(
        "key,want",
        [
            ("rows[workload=medium].arena_on_s", "lower"),
            ("scaling[workers=4].comm_mb", "lower"),
            ("scaling[workers=4].comm_steps", "lower"),
            ("rows[workload=medium].speedup", "higher"),
            ("throughput_rows_per_s", "higher"),
            ("goodput_qps", "higher"),
            ("p99_ms", "lower"),
            ("repeats", None),
            ("n_trees", None),
        ],
    )
    def test_direction_rules(self, key, want):
        assert metric_direction(key) == want


# --------------------------------------------------------------------- diff
class TestDiff:
    def test_diff_reports_moved_metrics(self, tmp_path):
        store, _ = make_store(tmp_path)
        a = store.submit("hotpath", payload(on_s=1.0, speedup=2.0))
        b = store.submit("hotpath", payload(on_s=1.5, speedup=1.4))
        deltas = store.diff(a, b)
        by_key = {d.key: d for d in deltas}
        slower = by_key["rows[workload=medium].arena_on_s"]
        assert slower.old == 1.0 and slower.new == 1.5
        assert slower.worse and slower.rel == pytest.approx(0.5)
        assert by_key["rows[workload=medium].speedup"].worse

    def test_get_by_index_and_prefix(self, tmp_path):
        store, _ = make_store(tmp_path)
        a = store.submit("hotpath", payload())
        b = store.submit("hotpath", payload())
        assert store.get("hotpath", "-1").run_id == b.run_id
        assert store.get("hotpath", "-2").run_id == a.run_id
        assert store.get("hotpath", "000001").run_id == a.run_id
        with pytest.raises(KeyError):
            store.get("hotpath", "nope")


# --------------------------------------------------------------------- gate
class TestGate:
    def seed_history(self, store, k=4):
        for _ in range(k):
            store.submit("hotpath", payload(on_s=1.0, speedup=2.0))

    def test_gate_passes_within_band(self, tmp_path):
        store, _ = make_store(tmp_path)
        self.seed_history(store)
        store.submit("hotpath", payload(on_s=1.1, speedup=1.9))  # within 25%
        report = store.gate("hotpath")
        assert report.ok and "PASS" in report.text

    def test_gate_fails_on_step_change_and_attributes_phase(self, tmp_path):
        store, _ = make_store(tmp_path)
        self.seed_history(store)
        with use_registry(MetricsRegistry()) as registry:
            # 80% slower, driven by find_split growing
            store.submit("hotpath", payload(on_s=1.8, find_split=1.4))
            report = store.gate("hotpath")
            assert not report.ok
            keys = [f.key for f in report.regressions]
            assert "rows[workload=medium].arena_on_s" in keys
            assert report.culprit_phase == "find_split"
            assert (
                registry.counter(
                    "runstore_gate_failures_total", "", bench="hotpath"
                ).value
                == 1
            )
        assert "FAIL" in report.text and "find_split" in report.text

    def test_gate_fails_on_speedup_collapse(self, tmp_path):
        store, _ = make_store(tmp_path)
        self.seed_history(store)
        store.submit("hotpath", payload(speedup=1.0))
        report = store.gate("hotpath")
        assert not report.ok
        assert any("speedup" in f.key for f in report.regressions)

    def test_gate_skips_without_history(self, tmp_path):
        store, _ = make_store(tmp_path)
        store.submit("hotpath", payload())
        report = store.gate("hotpath")
        assert report.ok and report.skipped

    def test_gate_uses_median_not_latest(self, tmp_path):
        """One noisy outlier in history must not move the baseline."""
        store, _ = make_store(tmp_path)
        for on_s in (1.0, 1.0, 5.0, 1.0):  # one spike
            store.submit("hotpath", payload(on_s=on_s))
        store.submit("hotpath", payload(on_s=1.1))
        assert store.gate("hotpath").ok


# ------------------------------------------------------------------ history
class TestHistory:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0, 1.0]) == "▄▄"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁" and line[-1] == "█"

    def test_build_history_and_html(self, tmp_path):
        store, _ = make_store(tmp_path)
        for on_s in (1.0, 1.2, 0.9):
            store.submit("hotpath", payload(on_s=on_s))
        rep = build_history(store)
        (bh,) = rep.benches
        assert bh.bench == "hotpath" and len(bh.runs) == 3
        row = next(
            r for r in bh.rows if r.key == "rows[workload=medium].arena_on_s"
        )
        assert row.values == [1.0, 1.2, 0.9]
        assert "hotpath" in rep.text and "▁" in rep.text or "█" in rep.text
        doc = rep.html()
        assert "<script" not in doc  # self-contained, zero JS
        assert "<svg" in doc and "var(--series-1)" in doc
        assert "prefers-color-scheme: dark" in doc
        assert "data table" in doc  # numeric table view always present


# ---------------------------------------------------------------------- CLI
class TestRunsCli:
    def write_bench(self, tmp_path, **kw):
        p = tmp_path / "BENCH_hotpath.json"
        p.write_text(json.dumps(payload(**kw)))
        return p

    def test_submit_diff_gate_end_to_end(self, tmp_path, capsys, monkeypatch):
        store_dir = str(tmp_path / "store")
        f = self.write_bench(tmp_path, on_s=1.0)
        for _ in range(3):
            assert (
                cli_main(
                    ["runs", "--store", store_dir, "submit", "--file", str(f)]
                )
                == 0
            )
        f2 = self.write_bench(tmp_path, on_s=1.9, find_split=1.5)
        assert (
            cli_main(["runs", "--store", store_dir, "submit", "--file", str(f2)])
            == 0
        )
        assert cli_main(["runs", "--store", store_dir, "list"]) == 0
        assert cli_main(["runs", "--store", store_dir, "diff", "-2", "-1"]) == 0
        rc = cli_main(["runs", "--store", store_dir, "gate"])
        out = capsys.readouterr().out
        assert rc == 1 and "FAIL" in out and "find_split" in out
        # REPRO_SKIP_PERF honors CI's noisy-runner escape hatch
        monkeypatch.setenv("REPRO_SKIP_PERF", "1")
        assert cli_main(["runs", "--store", store_dir, "gate"]) == 0

    def test_submit_missing_file_errors(self, tmp_path):
        rc = cli_main(
            [
                "runs",
                "--store",
                str(tmp_path / "store"),
                "submit",
                "--file",
                str(tmp_path / "absent.json"),
            ]
        )
        assert rc == 2

    def test_obs_history_cli(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        f = self.write_bench(tmp_path)
        for _ in range(2):
            cli_main(["runs", "--store", store_dir, "submit", "--file", str(f)])
        html = tmp_path / "hist.html"
        rc = cli_main(
            ["obs", "history", "--store", store_dir, "--html", str(html)]
        )
        out = capsys.readouterr().out
        assert rc == 0 and "hotpath" in out
        assert html.is_file() and "<svg" in html.read_text()
