"""Smoke tests for every table/figure driver at quick scale."""

import pytest

from repro.bench import experiments as ex


@pytest.fixture(scope="module")
def table2_quick():
    return ex.run_table2(quick=True, names=("covtype", "susy", "news20"))


class TestTable2:
    def test_row_shape(self, table2_quick):
        assert len(table2_quick.rows) == 3
        r = table2_quick.row("covtype")
        assert r["cardinality"] == 581_012
        assert r["ours"] > 0
        assert r["speedup40"] > 1.0

    def test_rmse_equality_between_engines(self, table2_quick):
        for r in table2_quick.rows:
            assert r["rmse_ours"] == pytest.approx(r["rmse_x40"], abs=1e-10)

    def test_news20_dense_baseline_ooms(self, table2_quick):
        assert table2_quick.row("news20")["xgbstgpu"] is None

    def test_text_renders(self, table2_quick):
        text = table2_quick.text
        assert "Table II" in text
        assert "OOM" in text
        assert "paper bands" in text

    def test_unknown_row(self, table2_quick):
        with pytest.raises(KeyError):
            table2_quick.row("mnist")


class TestFig8:
    def test_fig8a_series(self):
        res = ex.run_fig8a(quick=True, names=("covtype",))
        assert res.xs == [2, 4, 6]
        assert all(s > 1.0 for s in res.series["covtype"])
        assert "depth" in res.text

    def test_fig8b_series(self):
        res = ex.run_fig8b(quick=True, names=("susy",))
        assert res.xs == [4, 8]
        vals = res.series["susy"]
        assert all(v > 1.0 for v in vals)
        # paper: "rather stable as the number of trees increases"
        assert max(vals) / min(vals) < 1.5


class TestFig9:
    def test_ablation_structure(self):
        res = ex.run_fig9(quick=True, names=("covtype",))
        assert set(res.ablated_seconds) == set(ex.ABLATIONS)
        slow = res.slowdowns
        # disabling SmartGD must not speed things up
        assert slow["SmartGD"]["covtype"] > -0.02
        assert "Fig. 9" in res.text


class TestFig10:
    def test_fig10a_uses_table2(self, table2_quick):
        res = ex.run_fig10a(table2=table2_quick)
        assert len(res.xs) == 3
        assert all(r > 1.0 for r in res.series["perf-price vs CPU"])

    def test_fig10b_budget_curves(self):
        res = ex.run_fig10b(quick=True)
        assert len(res.budgets) == 10
        assert all(0 <= e <= 0.5 for e in res.gpu_error)
        # GPU reaches low error before the CPU does at small budgets
        assert res.gpu_error[1] <= res.cpu_error[1]
        assert "Fig. 10b" in res.text


class TestCaseStudies:
    def test_three_cases(self):
        res = ex.run_case_studies(quick=True)
        assert len(res.rows) == 3
        for r in res.rows:
            assert r["speedup"] > 1.0
        assert "case studies" in res.text


class TestLoaders:
    def test_quick_datasets_are_small(self):
        for ds in ex.load_table2_datasets(quick=True, names=("covtype",)):
            assert ds.X.n_rows <= 300

    def test_full_loader_uses_spec_defaults(self):
        (ds,) = ex.load_table2_datasets(names=("susy",))
        assert ds.X.n_rows + ds.X_test.n_rows == 4000
