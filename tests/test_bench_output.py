"""Tests for the bench payload serializer and writer (``repro.bench.output``)."""

import json

import numpy as np
import pytest

from repro.bench.experiments import SeriesResult
from repro.bench.output import to_payload, write_bench_json


def series(vals):
    return SeriesResult(
        x_label="x", xs=[1, 2, 3], series={"s": list(vals)}, title="t"
    )


class TestPayload:
    def test_series_result_serializes(self):
        p = to_payload(series([1.0, 2.0, 3.0]))
        assert p["series"]["s"] == [1.0, 2.0, 3.0]
        assert p["xs"] == [1, 2, 3]

    def test_numpy_values_converted(self):
        p = to_payload(series(np.array([1.5, 2.5, 3.5])))
        assert p["series"]["s"] == [1.5, 2.5, 3.5]
        assert all(isinstance(v, float) for v in p["series"]["s"])

    def test_non_serializable_attributes_dropped(self):
        from repro.bench.experiments import Table2Result

        rows = [{"dataset": "a", "ours": 1.0, "model_obj": object()}]
        p = to_payload(Table2Result(rows=rows))
        assert p["rows"][0] == {"dataset": "a", "ours": 1.0}

    def test_table2_quick_payload_is_json(self):
        from repro.bench.experiments import run_table2

        res = run_table2(quick=True, names=("covtype",))
        text = json.dumps(to_payload(res))
        assert "covtype" in text

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            to_payload(42)


class TestWrite:
    def test_explicit_path_overrides_standard_location(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_METRICS_DIR", str(tmp_path / "std"))
        out = write_bench_json("x", {"a": 1.0}, tmp_path / "sub" / "mine.json")
        assert out == tmp_path / "sub" / "mine.json"
        assert json.loads(out.read_text()) == {"a": 1.0}
        assert not (tmp_path / "std").exists()
        std = write_bench_json("x", {"a": 2.0})
        assert std == tmp_path / "std" / "BENCH_x.json"


class TestInvariants:
    def test_dist_subtraction_ratio_must_be_below_0_9(self):
        """The strictest earlier copy of the check wins: a 0.95x saving
        (which a ``< 1.0`` check let through) is a failed invariant."""
        from repro.bench.distbench import DistBenchResult, LayoutRow, SubtractionRow
        from repro.obs.runstore import failed_invariants

        def result(ratio):
            return DistBenchResult(
                scaling=[],
                layouts=[
                    LayoutRow("data-parallel", 2, comm_mb=0.4, modeled_s=1.0),
                    LayoutRow("attribute-parallel", 2, comm_mb=9.0, modeled_s=1.0),
                ],
                n_rows=10, n_cols=2, n_trees=1,
                subtraction=[SubtractionRow(2, 0.4, 0.4 * ratio, ratio, True)],
            )

        assert failed_invariants(result(0.6).payload()) == []
        assert failed_invariants(result(0.95).payload()) == [
            "subtraction_ratio_below_0.9[workers=2]"
        ]
