"""Tests for the Table-II synthetic dataset generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import TABLE2_NAMES, TABLE2_SPECS, make_dataset, table1_example
from repro.data.rle import measured_ratio
from repro.data.sorted_columns import build_sorted_columns


class TestSpecs:
    def test_all_eight_datasets_present(self):
        assert set(TABLE2_NAMES) == {
            "covtype", "e2006", "higgs", "insurance", "log1p", "news20",
            "real-sim", "susy",
        }

    def test_full_scale_cardinalities_match_libsvm(self):
        assert TABLE2_SPECS["covtype"].n_full == 581_012
        assert TABLE2_SPECS["covtype"].d_full == 54
        assert TABLE2_SPECS["news20"].d_full == 1_355_191
        assert TABLE2_SPECS["higgs"].n_full == 11_000_000

    def test_task_types(self):
        assert TABLE2_SPECS["susy"].task == "binary"
        assert TABLE2_SPECS["e2006"].task == "regression"


class TestGeneration:
    def test_reproducible(self):
        a = make_dataset("covtype", run_rows=100, seed=5)
        b = make_dataset("covtype", run_rows=100, seed=5)
        assert a.X == b.X
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = make_dataset("covtype", run_rows=100, seed=5)
        b = make_dataset("covtype", run_rows=100, seed=6)
        assert not np.array_equal(a.y, b.y)

    def test_train_test_split_sizes(self):
        ds = make_dataset("susy", run_rows=200, test_fraction=0.25)
        assert ds.X.n_rows == 150
        assert ds.X_test.n_rows == 50
        assert ds.y.size == 150 and ds.y_test.size == 50

    def test_binary_targets_are_01(self):
        ds = make_dataset("covtype", run_rows=120)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}

    def test_regression_targets_standardized(self):
        ds = make_dataset("e2006", run_rows=300, run_cols=50)
        combined = np.concatenate([ds.y, ds.y_test])
        assert abs(combined.mean()) < 0.2
        assert 0.5 < combined.std() < 2.0

    def test_no_empty_columns(self):
        ds = make_dataset("news20", run_rows=150, run_cols=40)
        csc = ds.X_test.to_csc()  # even the small split keeps shape
        assert ds.X.n_cols == 40 and csc.n_cols == 40

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            make_dataset("mnist")

    def test_run_rows_floor(self):
        with pytest.raises(ValueError, match="at least 8"):
            make_dataset("susy", run_rows=4)

    def test_run_cols_clamped_to_full_dim(self):
        ds = make_dataset("susy", run_rows=100, run_cols=10_000)
        assert ds.X.n_cols == TABLE2_SPECS["susy"].d_full


def dataset_digest(ds) -> str:
    """sha256 over the bytes of ``X`` and ``X_test`` (``indptr``,
    ``indices``, ``data``) and of ``y`` and ``y_test``."""
    h = hashlib.sha256()
    for X in (ds.X, ds.X_test):
        for part in (X.indptr, X.indices, X.data):
            h.update(part.tobytes())
    h.update(ds.y.tobytes())
    h.update(ds.y_test.tobytes())
    return h.hexdigest()


#: ``(name, run_rows, seed) -> dataset_digest``: every Table-II name at its
#: default shape and seed, and the perfbench shapes at seeds 1 and 2.  A
#: change to the RNG draw order or to the arithmetic of the targets moves them.
DATASET_DIGESTS = {
    ("covtype", None, 7): "654f27c5eddd6de3fc714e2fc2e81db8bb0406c2e016162f0d4c1b9855428ad2",
    ("e2006", None, 7): "beabaa99eddad328fa4f83de4f1b132fb36d9c84bf2c0f594b38d4534f227c2c",
    ("higgs", None, 7): "bbd2f1ad6e7e3260b96c3d98817ce2e2ca3bca6fbcf4dfd47bf685b9e1aea4c4",
    ("insurance", None, 7): "e2629de155b9f485c91352c04c8435b01393c37f5915c4dcf39b14361d3fe9d0",
    ("log1p", None, 7): "b7a6961c8320a4eea103c054e64d76bfbccd47784d6b22ec2253ff3846806bd6",
    ("news20", None, 7): "8896abe7135c6b578cae457027e06d6a70cd861dcb281840c2a79481a1f05c4e",
    ("real-sim", None, 7): "0fe8000f1e3fe8a90b3750ab73c02c190d0544670fdbf9a1c801c1d81dab4c49",
    ("susy", None, 7): "d624f0dd0396e825621e6e5db575832b0a49500beef7324e795909d110225974",
    ("higgs", 8000, 1): "79b5611f0494fa55d59ebfe49fd5758629f522f8a86d7c984619cd5ea6f8d29b",
    ("higgs", 8000, 2): "bb734a7a47c41ff5968d95320214425fceca64e2c2175dc44fee2edd5c753501",
    ("covtype", 8000, 1): "f97b5cea3f611492e30428343eba8f50c59ac8287086e2b0ef9c749249f20c61",
    ("covtype", 8000, 2): "9ad41fff35a17d57f8b55796399f8360bbfd68fbc399fbf96fbedf6ba10e7101",
    ("e2006", 24000, 1): "19f967dd2738998a0b0c605d4ec8f3958c943f491bbc451bbbee9200354b71c5",
    ("e2006", 24000, 2): "5872d04b4d1ea8939927a025c4497a3056c81ab87062a77db04a8ba3d3acf8e6",
}


class TestPinnedBytes:
    @pytest.mark.parametrize("name, run_rows, seed", list(DATASET_DIGESTS))
    def test_dataset_bytes_pinned(self, name, run_rows, seed):
        kwargs = {} if run_rows is None else {"run_rows": run_rows}
        ds = make_dataset(name, seed=seed, **kwargs)
        assert dataset_digest(ds) == DATASET_DIGESTS[name, run_rows, seed]

    def test_generation_never_densifies(self):
        """e2006 at 24,000 x 600 is a 110 MiB dense block; generation stays
        on the sparse entries and the (n, 12) signal block."""
        tracemalloc.start()
        try:
            make_dataset("e2006", run_rows=24000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestStatisticalProfiles:
    def test_dense_vs_sparse_density(self):
        dense = make_dataset("susy", run_rows=200)
        sparse = make_dataset("real-sim", run_rows=200, run_cols=100)
        assert dense.X.density > 0.8
        assert sparse.X.density < 0.1

    def test_compressible_vs_incompressible(self):
        """covtype/insurance repeat heavily; susy/higgs do not -- the
        property the RLE policy keys on."""
        for name, compressible in [("covtype", True), ("insurance", True),
                                   ("susy", False), ("higgs", False)]:
            ds = make_dataset(name, run_rows=300)
            sc = build_sorted_columns(ds.X.to_csc())
            ratio = measured_ratio(sc.values, sc.col_offsets)
            if compressible:
                assert ratio > 4.0, name
            else:
                assert ratio < 1.5, name

    def test_targets_learnable(self):
        """A depth-limited tree must be able to reduce error below the
        majority baseline -- targets are functions of the features."""
        from repro import GBDTParams, GradientBoostedTrees
        from repro.metrics import error_rate

        ds = make_dataset("susy", run_rows=300, seed=3)
        model = GradientBoostedTrees(GBDTParams(n_trees=10, max_depth=4)).fit(ds.X, ds.y)
        err = error_rate(ds.y_test, model.predict(ds.X_test))
        assert err < 0.45  # clearly better than coin flip


class TestScales:
    def test_work_scale_reflects_full_nnz(self):
        ds = make_dataset("covtype", run_rows=200)
        assert ds.work_scale == pytest.approx(ds.spec.nnz_full / ds.X.nnz)

    def test_seg_scale_reflects_dimension(self):
        ds = make_dataset("news20", run_rows=100, run_cols=50)
        assert ds.seg_scale == pytest.approx(1_355_191 / 50)

    def test_row_scale(self):
        ds = make_dataset("susy", run_rows=200, test_fraction=0.25)
        assert ds.row_scale == pytest.approx(5_000_000 / 150)

    def test_scales_at_least_one(self):
        ds = make_dataset("covtype", run_rows=200)
        assert ds.seg_scale >= 1.0 and ds.work_scale >= 1.0

    def test_describe_mentions_full_shape(self):
        ds = make_dataset("covtype", run_rows=200)
        assert "581012" in ds.describe()


class TestTable1Example:
    def test_matches_paper(self):
        X, y = table1_example()
        assert X.shape == (4, 4)
        assert X.nnz == 8
        assert y.size == 4
