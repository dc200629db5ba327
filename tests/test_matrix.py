"""Tests for dense/CSR/CSC matrices (Section II-A representations)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.matrix import CSRMatrix, DenseMatrix


@pytest.fixture
def table1_csr() -> CSRMatrix:
    """The paper's Table I sparse representation."""
    return CSRMatrix.from_rows(
        [
            [(2, 0.1)],
            [(0, 1.2), (2, 0.1), (3, 0.6)],
            [(0, 0.5), (1, 1.0)],
            [(0, 1.2), (2, 2.0)],
        ],
        n_cols=4,
    )


class TestDense:
    def test_shape(self):
        m = DenseMatrix(np.zeros((3, 2)))
        assert m.shape == (3, 2)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            DenseMatrix(np.zeros(3))

    def test_to_csr_drops_absent_value(self):
        m = DenseMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        s = m.to_csr()
        assert s.nnz == 2
        assert s.get(0, 1) == 1.0
        assert s.get(0, 0) is None

    def test_fp32_footprint(self):
        assert DenseMatrix(np.zeros((10, 5))).nbytes_fp32 == 200

    def test_equality(self):
        a = DenseMatrix(np.ones((2, 2)))
        assert a == DenseMatrix(np.ones((2, 2)))
        assert a != DenseMatrix(np.zeros((2, 2)))


class TestCSR:
    def test_table1_lookup(self, table1_csr):
        """a3 of x4 is 2.0 in the paper's example (0-based: (3, 2))."""
        assert table1_csr.get(3, 2) == 2.0
        assert table1_csr.get(0, 0) is None

    def test_shape_nnz_density(self, table1_csr):
        assert table1_csr.shape == (4, 4)
        assert table1_csr.nnz == 8
        assert table1_csr.density == pytest.approx(0.5)

    def test_row_view(self, table1_csr):
        cols, vals = table1_csr.row(1)
        assert list(cols) == [0, 2, 3]
        assert list(vals) == [1.2, 0.1, 0.6]

    def test_from_rows_sorts_columns(self):
        m = CSRMatrix.from_rows([[(3, 1.0), (1, 2.0)]])
        cols, vals = m.row(0)
        assert list(cols) == [1, 3]
        assert list(vals) == [2.0, 1.0]

    def test_from_rows_ncols_too_small(self):
        with pytest.raises(ValueError, match="n_cols"):
            CSRMatrix.from_rows([[(5, 1.0)]], n_cols=3)

    def test_from_coo_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            CSRMatrix.from_coo(
                np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]),
                n_rows=1, n_cols=2,
            )

    def test_from_coo_unsorted_input(self):
        m = CSRMatrix.from_coo(
            np.array([1, 0, 1]), np.array([0, 1, 2]), np.array([5.0, 6.0, 7.0]),
            n_rows=2, n_cols=3,
        )
        assert m.get(1, 0) == 5.0 and m.get(0, 1) == 6.0 and m.get(1, 2) == 7.0

    def test_to_dense_fill_semantics(self, table1_csr):
        zero_filled = table1_csr.to_dense(fill=0.0)
        assert zero_filled.values[0, 0] == 0.0  # xgbst-gpu's behaviour
        nan_filled = table1_csr.to_dense(fill=np.nan)
        assert np.isnan(nan_filled.values[0, 0])
        assert nan_filled.values[0, 2] == 0.1

    def test_to_dense_matches_table1(self, table1_csr):
        expected = np.array(
            [
                [0.0, 0.0, 0.1, 0.0],
                [1.2, 0.0, 0.1, 0.6],
                [0.5, 1.0, 0.0, 0.0],
                [1.2, 0.0, 2.0, 0.0],
            ]
        )
        assert np.array_equal(table1_csr.to_dense(0.0).values, expected)

    def test_select_rows(self, table1_csr):
        sub = table1_csr.select_rows(np.array([3, 1]))
        assert sub.n_rows == 2
        assert sub.get(0, 2) == 2.0  # old row 3
        assert sub.get(1, 3) == 0.6  # old row 1

    def test_select_rows_empty(self, table1_csr):
        sub = table1_csr.select_rows(np.array([], dtype=np.int64))
        assert sub.n_rows == 0 and sub.nnz == 0

    def test_validation_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 5]), np.array([0]), np.array([1.0]), n_cols=2)

    def test_validation_col_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([9]), np.array([1.0]), n_cols=2)


class TestSelectRows:
    @staticmethod
    def oracle(m, idx):
        rows = [list(zip(*m.row(i))) for i in idx]
        return CSRMatrix.from_rows(rows, n_cols=m.n_cols)

    @pytest.mark.parametrize(
        "idx",
        [[3, 0, 2], [1, 1, 3, 1], [2, 2], [0, 1, 2, 3], []],
        ids=["unsorted", "repeated", "empty-rows-only", "all", "no-rows"],
    )
    def test_matches_per_row_oracle(self, idx):
        # rows 1 and 2 are empty
        m = CSRMatrix.from_rows(
            [[(0, 1.0), (2, 2.0)], [], [], [(1, 3.0), (3, 4.0), (4, 5.0)]], n_cols=5
        )
        got = m.select_rows(np.array(idx, dtype=np.int64))
        assert got == self.oracle(m, idx)
        assert got.shape == (len(idx), 5)

    @given(st.integers(1, 12), st.integers(0, 20), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_property(self, n, k, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        dense = rng.normal(size=(n, 6)) * (rng.random((n, 6)) < 0.4)
        m = DenseMatrix(dense).to_csr()
        idx = rng.integers(0, n, size=k)
        assert m.select_rows(idx) == self.oracle(m, idx)


class TestCSC:
    def test_transpose_roundtrip(self, table1_csr):
        assert table1_csr.to_csc().to_csr() == table1_csr

    def test_column_view_matches_paper(self, table1_csr):
        """Column a1 holds x2, x3, x4 (0-based rows 1, 2, 3)."""
        rows, vals = table1_csr.to_csc().column(0)
        assert list(rows) == [1, 2, 3]
        assert list(vals) == [1.2, 0.5, 1.2]

    def test_empty_column(self, table1_csr):
        csc = table1_csr.to_csc()
        rows, _ = csc.column(1)
        assert list(rows) == [2]

    def test_csc_shape(self, table1_csr):
        csc = table1_csr.to_csc()
        assert csc.shape == (4, 4)
        assert csc.nnz == 8

    @pytest.mark.parametrize("n_cols", [1, 255, 256, 32767, 32768, 65535, 65536, 70000])
    def test_narrow_index_sort_equals_int64_stable_sort(self, n_cols):
        """The column index sorts as a narrow type; the permutation is the
        one a stable int64 argsort gives."""
        rng = np.random.default_rng(n_cols)
        n_rows = 50
        # every row holds the widest index the narrow type must represent
        per_row = [
            np.union1d(rng.choice(n_cols, size=min(40, n_cols), replace=False), [n_cols - 1])
            for _ in range(n_rows)
        ]
        rows = np.repeat(np.arange(n_rows), [c.size for c in per_row])
        cols = np.concatenate(per_row)
        m = CSRMatrix.from_coo(rows, cols, rng.normal(size=cols.size), n_rows=n_rows, n_cols=n_cols)
        order = np.argsort(m.indices.astype(np.int64), kind="stable")
        row_of = np.repeat(np.arange(n_rows), np.diff(m.indptr))
        csc = m.to_csc()
        np.testing.assert_array_equal(csc.indices, row_of[order])
        np.testing.assert_array_equal(csc.data, m.data[order])
        assert csc.to_csr() == m

    def test_stability_of_transpose(self):
        """Rows stay ascending within each column (counting sort)."""
        m = CSRMatrix.from_rows([[(0, 1.0)], [(0, 2.0)], [(0, 3.0)]])
        rows, vals = m.to_csc().column(0)
        assert list(rows) == [0, 1, 2]
        assert list(vals) == [1.0, 2.0, 3.0]


@given(
    st.integers(1, 10),
    st.integers(1, 8),
    st.floats(0.1, 1.0),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(n, d, density, rnd):
    """CSR -> CSC -> CSR and CSR -> dense -> CSR are identities."""
    rng = np.random.default_rng(rnd.randint(0, 2**31))
    dense = rng.uniform(0.5, 2.0, size=(n, d)) * (rng.random((n, d)) < density)
    csr = DenseMatrix(dense).to_csr()
    assert csr.to_csc().to_csr() == csr
    assert csr.to_dense(0.0).to_csr() == csr


class TestValidationHardening:
    def test_unsorted_row_indices_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix(
                np.array([0, 2]), np.array([3, 1]), np.array([1.0, 2.0]), n_cols=4
            )

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix(
                np.array([0, 2]), np.array([1, 1]), np.array([1.0, 2.0]), n_cols=4
            )

    def test_nan_data_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            CSRMatrix(
                np.array([0, 1]), np.array([0]), np.array([np.nan]), n_cols=1
            )

    def test_inf_data_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            CSRMatrix(
                np.array([0, 1]), np.array([0]), np.array([np.inf]), n_cols=1
            )

    def test_boundary_between_rows_may_decrease(self):
        # last col of row 0 > first col of row 1 is fine
        m = CSRMatrix(
            np.array([0, 1, 2]), np.array([3, 0]), np.array([1.0, 2.0]), n_cols=4
        )
        assert m.get(1, 0) == 2.0
