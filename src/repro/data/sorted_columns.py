"""Transposed, per-attribute **sorted** value lists (Section II-A).

Exact split finding enumerates every attribute value as a candidate split,
so the training matrix is transposed and each attribute's values are stored
in sorted order next to the owning instance id -- "a common and efficient
approach used in training decision trees" [3], [7].  The paper's worked
example sorts descending (``a1: (x2: 1.2); (x4: 1.2); (x3: 0.5)``) and so do
we; ties keep ascending instance-id order (stable sort), which pins down
every later tie-break deterministically.

During training the trainer re-segments these flat arrays by tree node; this
module only builds the initial one-segment-per-attribute layout and offers
pure-NumPy accessors used across the trainers and the tests.

The histogram trainers read the same lists: each attribute's runs of equal
values are its distinct values and their counts, which is all the one cut
rule of :mod:`repro.approx.quantile` consults.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import segment_order_desc, segment_sort_desc
from .matrix import CSCMatrix

__all__ = ["SortedColumns", "build_sorted_columns"]


@dataclasses.dataclass
class SortedColumns:
    """Flat sorted attribute lists.

    Attributes
    ----------
    col_offsets:
        ``(d + 1,)`` int64; attribute ``j`` occupies
        ``[col_offsets[j], col_offsets[j+1])`` in the flat arrays.
    values:
        ``(nnz,)`` float64, descending within each attribute.
    inst:
        ``(nnz,)`` int64 owning-instance ids (ascending among equal values).
    n_rows, n_cols:
        Logical matrix shape.
    """

    col_offsets: np.ndarray
    values: np.ndarray
    inst: np.ndarray
    n_rows: int
    n_cols: int

    def __post_init__(self) -> None:
        self.col_offsets = np.asarray(self.col_offsets, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.inst = np.asarray(self.inst, dtype=np.int64)
        if self.col_offsets.size != self.n_cols + 1:
            raise ValueError("col_offsets must have n_cols + 1 entries")
        if self.col_offsets[0] != 0 or self.col_offsets[-1] != self.values.size:
            raise ValueError("col_offsets must span the flat arrays")
        if self.values.size != self.inst.size:
            raise ValueError("values and inst must align")

    @property
    def nnz(self) -> int:
        return self.values.size

    def column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, instance ids)`` views of attribute ``j``."""
        lo, hi = self.col_offsets[j], self.col_offsets[j + 1]
        return self.values[lo:hi], self.inst[lo:hi]

    def missing_count(self, j: int) -> int:
        """Instances with no entry for attribute ``j`` (missing values)."""
        return self.n_rows - int(self.col_offsets[j + 1] - self.col_offsets[j])

    def check_sorted(self) -> bool:
        """True iff every attribute segment is descending (test invariant)."""
        for j in range(self.n_cols):
            vals, _ = self.column(j)
            if vals.size > 1 and np.any(np.diff(vals) > 0):
                return False
        return True

    @property
    def nbytes_device(self) -> int:
        """Device footprint: fp32 value + int32 instance id per entry, plus
        the attribute offsets."""
        return self.nnz * 8 + self.col_offsets.size * 8


def build_sorted_columns(csc: CSCMatrix, device: GpuDevice | None = None) -> SortedColumns:
    """Sort each CSC column by descending value (stable in instance id).

    When a ``device`` is given the sort is executed through the simulator's
    segmented radix-sort primitive (one-time cost the paper notes is
    amortized across all trees); otherwise the same order
    (:func:`~repro.gpusim.primitives.segment_order_desc`) is taken on the
    host with nothing charged.
    """
    offsets = csc.indptr.copy()
    if device is not None:
        values, inst = segment_sort_desc(
            device, csc.data, csc.indices, offsets, name="build_sorted_attr_lists"
        )
    else:
        order = segment_order_desc(csc.data, offsets)
        values, inst = csc.data[order], csc.indices[order]
    return SortedColumns(
        col_offsets=offsets,
        values=values,
        inst=inst,
        n_rows=csc.n_rows,
        n_cols=csc.n_cols,
    )
