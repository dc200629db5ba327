"""Tests for the CLI driver (python -m repro ...)."""

import json

import pytest

from repro.cli import EXPERIMENTS, main


@pytest.fixture(autouse=True)
def _bench_output_in_tmp(tmp_path, monkeypatch):
    """Experiment runs write ``BENCH_experiments.json``; keep it out of the
    checkout."""
    monkeypatch.setenv("BENCH_METRICS_DIR", str(tmp_path))


class TestMain:
    def test_quick_table2(self, capsys, tmp_path):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "regenerated in" in out
        doc = json.loads((tmp_path / "BENCH_experiments.json").read_text())
        assert doc["meta"]["quick"] is True and list(doc["experiments"]) == ["table2"]

    def test_multiple_experiments_dedup(self, capsys):
        assert main(["fig10b", "fig10b", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.count("Fig. 10b") == 1

    def test_all_alias_contains_every_experiment(self):
        assert set(EXPERIMENTS) == {
            "table2", "fig8a", "fig8b", "fig9", "fig10a", "fig10b", "cases", "devices",
            "approx", "crossover", "multigpu", "threads", "serve-bench",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cases_quick(self, capsys):
        assert main(["cases", "--quick"]) == 0
        assert "case studies" in capsys.readouterr().out
