"""Tests for the Section III-D prediction kernel's cost shape."""

from repro import GBDTParams, GPUGBDTTrainer, GpuDevice, TITAN_X_PASCAL
from repro.core.predictor import charge_prediction_kernels


def charge(n_rows, n_trees, avg_depth=3.0, row_scale=1.0) -> GpuDevice:
    d = GpuDevice(TITAN_X_PASCAL)
    charge_prediction_kernels(
        d, n_rows=n_rows, n_trees=n_trees, avg_depth=avg_depth, row_scale=row_scale
    )
    return d


class TestCostShape:
    def test_instance_x_tree_parallelism_recorded(self):
        """One thread per (instance, tree): elements = n * T."""
        d = charge(500, 4)
        k = next(k for k in d.ledger.kernels if k.name == "predict_instance_x_tree")
        assert k.work.elements == 500 * 4
        assert k.phase == "predict"

    def test_reduction_and_download_recorded(self):
        d = charge(500, 4)
        names = {k.name for k in d.ledger.kernels}
        assert "reduce_partial_predictions" in names
        (t,) = d.ledger.transfers
        assert t.direction == "d2h" and t.nbytes == 500 * 4

    def test_row_scale_amplifies(self):
        assert charge(500, 4, row_scale=100.0).elapsed_seconds() > charge(500, 4).elapsed_seconds()

    def test_more_trees_cost_more(self, susy_small):
        ds = susy_small
        small = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3)).fit(ds.X, ds.y)
        big = GPUGBDTTrainer(GBDTParams(n_trees=8, max_depth=3)).fit(ds.X, ds.y)
        d1, d2 = (
            charge(ds.X_test.n_rows, m.n_trees, max(1.0, m.flatten().mean_depth), 1000.0)
            for m in (small, big)
        )
        assert d2.elapsed_seconds() > d1.elapsed_seconds()
