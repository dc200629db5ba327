"""Quantile binning of sorted attribute values.

The paper positions GPU-GBDT as an **exact** trainer and notes that
"LightGBM ... only supports finding the best split points approximately"
(Section V) and that XGBoost offers approximation for large data via
per-attribute quantile proposals [7], [3].  To make that comparison
runnable, :mod:`repro.approx` implements the histogram family on the same
substrate; this module builds the bin edges.

Because the sorted attribute lists already exist (Section II-A), computing
quantile cuts is a pass over the columns: pick at most ``max_bins`` cut
points per attribute such that each bin holds roughly ``1/max_bins`` of the
column's present mass.  These are the *global* proposals of [3] (computed
once, reused for every tree/node).

There is **one cut rule**, and it reads only each column's distinct values
and their counts -- a :class:`ColumnSketch`.  :func:`sketch_columns` builds
the sketch of every column of the sorted lists in one segmented pass, and
the rule cuts every column at once: one ``searchsorted`` of the per-column
equi-mass targets on the flat group starts.  :func:`build_bins` applies it
to the sketch of the sorted columns, and :func:`bin_column_values` finds
every entry's bin in one search over all columns.

For distributed and out-of-core training the same cuts must come out of
*row shards* that never see each other's values.  A sketch is the run-length
encoding of the sorted columns, so it is lossless for the cut rule, and
sketches merge exactly (:func:`merge_sketches`): cutting the merge of the
shards' sketches (:func:`build_bins_from_sketches`) reproduces the
monolithic :func:`build_bins` edges bit-for-bit, not approximately (tested).
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..core.split import midpoint_thresholds
from ..data.sorted_columns import SortedColumns

__all__ = [
    "BinSpec",
    "ColumnSketch",
    "build_bins",
    "build_bins_from_sketches",
    "bin_column_values",
    "merge_sketches",
    "sketch_columns",
]


@dataclasses.dataclass
class BinSpec:
    """Per-attribute quantile bin edges.

    ``edges[j]`` is a descending float array; a present value ``v`` of
    attribute ``j`` falls into bin ``k`` iff ``edges[j][k-1] >= v >
    edges[j][k]`` (virtual ``+inf`` above and ``-inf`` below), i.e.
    ``bin(v) = #{edges >= v}``.  Bin 0 therefore holds the largest values,
    matching the descending sorted-list convention everywhere else in the
    package; splitting "before bin k" uses threshold ``edges[j][k-1]`` with
    the usual ``x > thr -> left`` predicate.  ``n_bins(j) == len(edges[j]) + 1``.

    The edges are stored flat: attribute ``j``'s are
    ``flat[offsets[j]:offsets[j + 1]]``.
    """

    flat: np.ndarray  # float64, every attribute's edges, attribute-major
    offsets: np.ndarray  # (d + 1,) int64
    max_bins: int

    @property
    def n_attrs(self) -> int:
        return self.offsets.size - 1

    @property
    def edges(self) -> list[np.ndarray]:
        """Per-attribute edge views."""
        return np.split(self.flat, self.offsets[1:-1])

    def n_bins(self, j: int) -> int:
        """Bin count of attribute ``j`` (edges + 1)."""
        return int(self.offsets[j + 1] - self.offsets[j]) + 1

    @property
    def total_bins(self) -> int:
        return self.flat.size + self.n_attrs

    @property
    def bin_offset(self) -> np.ndarray:
        """``(d + 1,)`` int64: attribute ``j``'s global bins start here."""
        return self.offsets + np.arange(self.offsets.size, dtype=np.int64)

    def bin_of(self, j: int, values: np.ndarray) -> np.ndarray:
        """Bin index for (present) values of attribute ``j``."""
        e = self.flat[self.offsets[j]:self.offsets[j + 1]]
        # edges descending: count how many edges are >= v
        idx = e.size - np.searchsorted(e[::-1], np.asarray(values, dtype=np.float64), side="left")
        return idx.astype(np.int32)


# --------------------------------------------------------------- sketches
@dataclasses.dataclass
class ColumnSketch:
    """Exact weighted quantile summary of every attribute's present values.

    Attribute ``j``'s distinct values, strictly descending, are
    ``values[offsets[j]:offsets[j + 1]]`` and ``counts`` holds their (int64)
    multiplicities.  This is the run-length encoding of the sorted columns,
    which is lossless for the cut rule: it consults only distinct-value
    boundaries and the cumulative counts on either side.  Sketches merge
    associatively (:func:`merge_sketches`), so W row shards allgather their
    local sketches and every worker derives the identical global edges.
    """

    values: np.ndarray  # float64, distinct and descending within a column
    counts: np.ndarray  # int64 multiplicity per value
    offsets: np.ndarray  # (d + 1,) int64 group offsets per attribute

    @property
    def n_cols(self) -> int:
        return self.offsets.size - 1


def sketch_columns(cols: SortedColumns) -> ColumnSketch:
    """Sketch every attribute of the sorted columns in one segmented pass.

    A value group starts wherever the value changes or a column begins; the
    group's representative is its first entry and its count its length.
    """
    v = cols.values
    n = v.size
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(v[1:], v[:-1], out=new[1:])
    new[cols.col_offsets[:-1][np.diff(cols.col_offsets) > 0]] = True
    starts = np.flatnonzero(new)
    return ColumnSketch(
        values=v[starts],
        counts=np.diff(starts, append=n),
        offsets=np.searchsorted(starts, cols.col_offsets),
    )


def merge_sketches(sketches: Sequence[ColumnSketch]) -> ColumnSketch:
    """Exact merge of same-shape sketches: per attribute, the union of the
    distinct values with integer-summed counts."""
    d = sketches[0].n_cols
    v = np.concatenate([s.values for s in sketches])
    c = np.concatenate([s.counts for s in sketches])
    col = np.concatenate(
        [np.repeat(np.arange(d, dtype=np.int64), np.diff(s.offsets)) for s in sketches]
    )
    order = np.lexsort((-v, col))
    v, c, col = v[order], c[order], col[order]
    new = np.empty(v.size, dtype=bool)
    new[:1] = True
    new[1:] = (v[1:] != v[:-1]) | (col[1:] != col[:-1])
    starts = np.flatnonzero(new)
    return ColumnSketch(
        values=v[starts],
        counts=np.add.reduceat(c, starts) if starts.size else c,
        offsets=np.searchsorted(col[starts], np.arange(d + 1), side="left"),
    )


# --------------------------------------------------------------- cut rule
def build_bins_from_sketches(sk: ColumnSketch, max_bins: int = 64) -> BinSpec:
    """The cut rule: every attribute's edges from a sketch of its columns.

    Cuts always fall *between distinct values*, so a value group is never
    split across bins (the histogram analogue of the duplicate-split-point
    rule).  A column with at most ``max_bins`` distinct values is cut at
    every group boundary -- the histogram trainer is then exact on it.  A
    column with ``L`` entries and more groups is cut at the first group
    boundary at or after entry ``(k * L) // max_bins``, for ``k = 1 ..
    max_bins - 1`` (clipped to the column's last boundary), once per
    distinct boundary.  The edge of the cut after group ``p`` is
    :func:`~repro.core.split.midpoint_thresholds` of ``values[p]`` and
    ``values[p + 1]``, so it lies in ``[values[p + 1], values[p])`` even at
    the float edges; within a column the edges come out strictly
    descending.

    ``build_bins_from_sketches(merge_sketches(shard_sketches))`` equals
    :func:`build_bins` on the unsharded data exactly, for any sharding.
    """
    if max_bins < 2:
        raise ValueError("max_bins must be >= 2")
    v, c, goffs = sk.values, sk.counts, sk.offsets
    n_groups = np.diff(goffs)
    many = n_groups > max_bins
    # few-distinct columns: a cut after every group but the column's last
    cut = np.repeat(~many, n_groups)
    cut[goffs[1:][n_groups > 0] - 1] = False
    # equi-mass columns: the target entry positions, offset to each
    # column's first entry, searched once on the flat group starts
    m = np.flatnonzero(many)
    if m.size:
        end = np.cumsum(c)
        gstart = end - c
        first = gstart[goffs[m]]
        size = end[goffs[m + 1] - 1] - first
        k = np.arange(1, max_bins, dtype=np.int64)
        targets = (k * size[:, None]) // max_bins + first[:, None]
        prev = np.searchsorted(gstart, targets, side="left") - 1
        cut[np.minimum(prev, (goffs[m + 1] - 2)[:, None]).ravel()] = True
    p = np.flatnonzero(cut)
    return BinSpec(
        flat=midpoint_thresholds(v[p], v[p + 1]),
        offsets=np.searchsorted(p, goffs, side="left"),
        max_bins=max_bins,
    )


def build_bins(cols: SortedColumns, max_bins: int = 64) -> BinSpec:
    """Equi-mass quantile cuts of the descending sorted columns: the cut
    rule applied to :func:`sketch_columns` of ``cols``."""
    return build_bins_from_sketches(sketch_columns(cols), max_bins)


def bin_column_values(spec: BinSpec, cols: SortedColumns) -> np.ndarray:
    """Bin index for every entry of the flat sorted arrays (int32).

    An entry's bin is the number of its attribute's edges ``>= value``.
    Each attribute's entries are sorted descending, so the entries an edge
    counts for are a suffix of them: one search finds where every edge's
    suffix starts, and a cumsum over the entries adds the suffixes up.  The
    search covers all attributes at once: NumPy orders complex numbers by
    real part, then imaginary part, so the entry keys ``attribute + 1j *
    -value`` ascend through every attribute in turn, and an edge's key
    ``attribute + 1j * -edge`` lands on its attribute's first entry
    ``<= edge``.  The suffixes of earlier attributes' edges all start by an
    attribute's first entry; subtracting its edge offset removes them.
    """
    d = spec.n_attrs
    n = cols.nnz
    lens = np.diff(cols.col_offsets)
    ent = np.empty(n, dtype=np.complex128)
    ent.real = np.repeat(np.arange(d), lens)
    ent.imag = -cols.values
    keys = np.empty(spec.flat.size, dtype=np.complex128)
    keys.real = np.repeat(np.arange(d), np.diff(spec.offsets))
    keys.imag = -spec.flat
    start = np.searchsorted(ent, keys, side="left")
    counted = np.cumsum(np.bincount(start, minlength=n + 1)[:n])
    return (counted - np.repeat(spec.offsets[:-1], lens)).astype(np.int32)
