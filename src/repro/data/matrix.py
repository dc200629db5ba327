"""Dense and sparse training-set representations (Section II-A of the paper).

The paper contrasts a *dense* representation (an ``n x d`` matrix -- cheap
random access, huge memory) with a *sparse* one that stores only the present
``(attribute, value)`` pairs per instance.  A crucial semantic difference
drives one of Table II's findings: in the sparse form an absent entry is a
**missing value** whose branch direction is *learned* (Section II-A,
"Missing values"), while the dense form must fill it with a number -- the
GPU XGBoost baseline fills with 0, which changes the trained trees and its
RMSE ("probably because of dense representation which considers missing
values as 0").

These classes are implemented from scratch (no ``scipy.sparse``) because the
representation details -- layouts, conversion algorithms, byte accounting --
are part of what the paper's design space is about.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["DenseMatrix", "CSRMatrix", "CSCMatrix", "predict_rows"]


class DenseMatrix:
    """Row-major dense ``n x d`` matrix with an explicit fill for absences."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError("DenseMatrix requires a 2-D array")
        self.values = values

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.values.shape  # type: ignore[return-value]

    @property
    def nbytes_fp32(self) -> int:
        """Device footprint of the dense values at float32, as the GPU
        XGBoost baseline would allocate them."""
        return self.n_rows * self.n_cols * 4

    def to_csr(self, *, absent_value: float = 0.0) -> "CSRMatrix":
        """Sparsify: entries equal to ``absent_value`` become absent."""
        mask = self.values != absent_value
        counts = mask.sum(axis=1)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        indices = np.nonzero(mask)[1].astype(np.int64)
        data = self.values[mask].astype(np.float64)
        return CSRMatrix(indptr, indices, data, n_cols=self.n_cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DenseMatrix) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        return f"DenseMatrix(shape={self.shape})"


def _validate_compressed(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n_minor: int, axis_name: str
) -> None:
    if indptr.ndim != 1 or indptr.size < 1:
        raise ValueError("indptr must be 1-D and non-empty")
    if indptr[0] != 0 or indptr[-1] != indices.size:
        raise ValueError("indptr must start at 0 and end at nnz")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if indices.size != data.size:
        raise ValueError("indices and data must have equal length")
    if indices.size and (indices.min() < 0 or indices.max() >= n_minor):
        raise ValueError(f"{axis_name} index out of range [0, {n_minor})")
    if data.size and not np.all(np.isfinite(data)):
        raise ValueError(
            "non-finite value in matrix data; encode missing values as absent "
            "entries, not as nan/inf"
        )
    # minor indices must be strictly increasing within each major slice --
    # binary-search accessors and the stable transpose depend on it
    if indices.size > 1:
        same_major = np.repeat(
            np.arange(indptr.size - 1), np.diff(indptr)
        )
        interior = same_major[1:] == same_major[:-1]
        if np.any(interior & (np.diff(indices) <= 0)):
            raise ValueError(
                f"{axis_name} indices must be strictly increasing within each "
                "row/column (duplicates are not allowed)"
            )


class CSRMatrix:
    """Compressed sparse rows: per-instance (attribute, value) pairs.

    Absent entries are *missing* (not zero) -- see the module docstring.
    Within each row, column indices are kept sorted ascending.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, *, n_cols: int
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if n_cols < 0:
            raise ValueError("n_cols must be non-negative")
        self.n_cols = int(n_cols)
        _validate_compressed(self.indptr, self.indices, self.data, self.n_cols, "column")

    # ------------------------------------------------------------- factories
    @classmethod
    def from_rows(
        cls, rows: Sequence[Iterable[Tuple[int, float]]], n_cols: int | None = None
    ) -> "CSRMatrix":
        """Build from per-row iterables of ``(col, value)`` pairs.

        >>> m = CSRMatrix.from_rows([[(2, 0.1)], [(0, 1.2), (2, 0.1), (3, 0.6)]])
        >>> m.shape
        (2, 4)
        """
        indptr = [0]
        cols: list[int] = []
        vals: list[float] = []
        for row in rows:
            pairs = sorted(row, key=lambda cv: cv[0])
            for c, v in pairs:
                cols.append(int(c))
                vals.append(float(v))
            indptr.append(len(cols))
        inferred = (max(cols) + 1) if cols else 0
        if n_cols is None:
            n_cols = inferred
        elif n_cols < inferred:
            raise ValueError(f"n_cols={n_cols} smaller than max column index {inferred - 1}")
        return cls(
            np.asarray(indptr, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64),
            n_cols=n_cols,
        )

    @classmethod
    def from_coo(
        cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, *, n_rows: int, n_cols: int
    ) -> "CSRMatrix":
        """Build from unsorted coordinate triplets (duplicates not allowed)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.size == cols.size == vals.size):
            raise ValueError("COO arrays must align")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if np.any(dup):
                raise ValueError("duplicate (row, col) entries in COO input")
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=n_rows)))
        ).astype(np.int64)
        return cls(indptr, cols, vals, n_cols=n_cols)

    # ------------------------------------------------------------ properties
    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self.data.size

    @property
    def density(self) -> float:
        cells = self.n_rows * self.n_cols
        return self.nnz / cells if cells else 0.0

    # -------------------------------------------------------------- accessors
    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(column indices, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def get(self, i: int, j: int) -> float | None:
        """Value at ``(i, j)`` or ``None`` if absent/missing."""
        cols, vals = self.row(i)
        k = np.searchsorted(cols, j)
        if k < cols.size and cols[k] == j:
            return float(vals[k])
        return None

    # ------------------------------------------------------------ conversions
    def to_dense(self, fill: float = 0.0, lo: int = 0, hi: int | None = None) -> DenseMatrix:
        """Materialize rows ``lo:hi`` (all by default; ``0 <= lo <= hi <=
        n_rows``), filling absences with ``fill`` (0 = the xgbst-gpu
        semantics; ``np.nan`` keeps missingness explicit)."""
        hi = self.n_rows if hi is None else hi
        ptr = self.indptr[lo:hi + 1]
        out = np.full((hi - lo, self.n_cols), fill, dtype=np.float64)
        row_of = np.repeat(np.arange(hi - lo), np.diff(ptr))
        out[row_of, self.indices[ptr[0]:ptr[-1]]] = self.data[ptr[0]:ptr[-1]]
        return DenseMatrix(out)

    def to_csc(self) -> "CSCMatrix":
        """Transpose to column-compressed form via the counting-sort
        algorithm (a stable scatter -- rows stay sorted within columns).

        The column index is sorted as the narrowest unsigned type that holds
        ``n_cols``: up to 65535 columns that is 16 bits or fewer, which
        NumPy's stable argsort radix-sorts; the permutation is the same."""
        order = np.argsort(
            self.indices.astype(np.min_scalar_type(self.n_cols)), kind="stable"
        )
        row_of = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))
        col_counts = np.bincount(self.indices, minlength=self.n_cols)
        indptr = np.concatenate(([0], np.cumsum(col_counts))).astype(np.int64)
        return CSCMatrix(indptr, row_of[order], self.data[order], n_rows=self.n_rows)

    def select_rows(self, idx: np.ndarray) -> "CSRMatrix":
        """New CSR with the given rows, in the given order (for train/test
        splits and the online-update example)."""
        idx = np.asarray(idx, dtype=np.int64)
        starts = self.indptr[idx]
        lens = self.indptr[idx + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
        # entry k of output row r sits at starts[r] + (k - indptr[r])
        gather = np.repeat(starts - indptr[:-1], lens) + np.arange(indptr[-1])
        return CSRMatrix(indptr, self.indices[gather], self.data[gather], n_cols=self.n_cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CSRMatrix)
            and self.n_cols == other.n_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"


class CSCMatrix:
    """Compressed sparse columns: per-attribute (instance, value) pairs.

    This is the layout split finding wants ("the matrix is transposed",
    Section II-A); :class:`~repro.data.sorted_columns.SortedColumns` is built
    directly from it.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, *, n_rows: int
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        self.n_rows = int(n_rows)
        _validate_compressed(self.indptr, self.indices, self.data, self.n_rows, "row")

    @property
    def n_cols(self) -> int:
        return self.indptr.size - 1

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return self.data.size

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(row indices, values)`` views of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def to_csr(self) -> CSRMatrix:
        """Transpose back (counting-sort, stable)."""
        order = np.argsort(self.indices, kind="stable")
        col_of = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(self.indptr))
        row_counts = np.bincount(self.indices, minlength=self.n_rows)
        indptr = np.concatenate(([0], np.cumsum(row_counts))).astype(np.int64)
        return CSRMatrix(indptr, col_of[order], self.data[order], n_cols=self.n_cols)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CSCMatrix)
            and self.n_rows == other.n_rows
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"


def predict_rows(
    X: CSRMatrix | DenseMatrix | np.ndarray, n_features: int
) -> CSRMatrix | np.ndarray:
    """``X`` as rows to predict -- a ``CSRMatrix`` as is (absent entries are
    missing), anything else as dense float64 rows -- refused with
    ``ValueError`` unless 2-D and at least ``n_features`` wide."""
    if isinstance(X, CSRMatrix):
        rows = X
    elif isinstance(X, DenseMatrix):
        rows = X.values
    else:
        rows = np.asarray(X, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("expected a 2-D matrix of rows to predict")
    if rows.shape[1] < n_features:
        raise ValueError(f"input has {rows.shape[1]} features, ensemble tests up to {n_features}")
    return rows
