"""Tests for the experiment harness and report formatting."""

import pytest

from repro import GBDTParams
from repro.bench.harness import dense_scales, run_cpu_baseline, run_gpu_gbdt, run_xgb_gpu
from repro.bench.pricing import normalized_ratio, performance_price_ratio
from repro.bench.report import PAPER_BANDS, fmt_cell, format_series, format_table
from repro.data import make_dataset


@pytest.fixture(scope="module")
def ds():
    return make_dataset("covtype", run_rows=200, seed=17)


@pytest.fixture(scope="module")
def quick_params():
    return GBDTParams(n_trees=2, max_depth=3)


class TestRunners:
    def test_gpu_run(self, ds, quick_params):
        res = run_gpu_gbdt(ds, quick_params)
        assert res.ok
        assert res.seconds > 0
        assert res.train_rmse is not None
        assert "find_split" in res.phase_seconds

    def test_cpu_runs_share_one_fit(self, ds, quick_params):
        one, forty, runner = run_cpu_baseline(ds, quick_params)
        assert one.system == "xgbst-1" and forty.system == "xgbst-40"
        assert one.train_rmse == forty.train_rmse
        assert one.seconds > forty.seconds
        assert one.model is forty.model

    def test_gpu_and_cpu_rmse_match(self, ds, quick_params):
        """The Table-II RMSE columns: ours == xgbst-40."""
        g = run_gpu_gbdt(ds, quick_params)
        _, forty, _ = run_cpu_baseline(ds, quick_params)
        assert g.train_rmse == pytest.approx(forty.train_rmse, abs=1e-10)

    def test_xgb_gpu_runs_or_ooms_cleanly(self, quick_params):
        ds_oom = make_dataset("news20", run_rows=100, run_cols=30, seed=17)
        res = run_xgb_gpu(ds_oom, quick_params)
        assert res.status == "oom"
        assert res.seconds is None
        assert "GiB" in res.notes

    def test_dense_scales_ignore_density(self):
        ds = make_dataset("real-sim", run_rows=100, run_cols=20, seed=1)
        ws, ss = dense_scales(ds)
        cells_run = ds.X.n_rows * 20
        assert ws == pytest.approx(72_309 * 20_958 / cells_run)


class TestPricing:
    def test_ratio_formula(self):
        assert performance_price_ratio(2.0, 100.0) == pytest.approx(1 / 200)

    def test_invalid(self):
        with pytest.raises(ValueError):
            performance_price_ratio(0.0, 1.0)

    def test_normalized_ratio_uses_paper_prices(self):
        """Equal runtimes: the GPU wins exactly by the price ratio
        1878 / 1200."""
        assert normalized_ratio(10.0, 10.0) == pytest.approx(1878 / 1200)

    def test_faster_gpu_increases_ratio(self):
        assert normalized_ratio(5.0, 10.0) == pytest.approx(2 * 1878 / 1200)


class TestReport:
    def test_fmt_cell_oom(self):
        assert fmt_cell(None).strip() == "OOM"

    def test_fmt_cell_float_sizes(self):
        assert fmt_cell(12345.0).strip() == "12,345"
        assert fmt_cell(12.345).strip() == "12.3"
        assert fmt_cell(1.23456).strip() == "1.235"

    def test_format_table_alignment(self):
        out = format_table(["a", "b"], [[1, 2.5], [None, 3.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "OOM" in out

    def test_format_series(self):
        out = format_series("x", [1, 2], {"s": [0.1, 0.2]})
        assert "0.100" in out and "0.200" in out

    def test_paper_bands_present(self):
        assert PAPER_BANDS["speedup_vs_xgbst40"] == (1.5, 2.0)
        assert PAPER_BANDS["split_share_gpu"] == 0.95


class TestHotpathHistRow:
    def test_setup_s_read_from_setup_span(self):
        from repro.bench.hotpath import HOTPATH_WORKLOADS, run_hist_workload

        row = run_hist_workload(HOTPATH_WORKLOADS["smoke"], repeats=1)
        assert 0 < row.setup_s < min(row.full_s, row.subtract_s, row.goss_s)
        assert row.identical_models
