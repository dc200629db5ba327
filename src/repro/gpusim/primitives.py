"""Device primitives used by the GBDT kernels.

These are the GPU building blocks the paper leans on (Section III-B):
segmented prefix sum ("available in CUDA Thrust"), segmented reduction for
best-split selection, gathers and atomic group sums, and segmented radix
sort for the initial attribute-list build.  The order-preserving node
partition of Fig. 2/3 is :func:`repro.core.partition.partition_segments`.

Every primitive executes functionally on NumPy arrays *and* charges the
simulated device with a :class:`~repro.gpusim.kernel.Work` estimate.  The
functional results are exact -- tests compare them against per-segment
NumPy references, and hypothesis drives them with adversarial segmentations
(empty segments, singleton segments, all-one-segment).

Conventions
-----------
* A *segmentation* of an array of length ``n`` is an int64 ``offsets`` array
  of length ``S + 1`` with ``offsets[0] == 0``, ``offsets[-1] == n`` and
  non-decreasing entries; segment ``s`` occupies ``[offsets[s], offsets[s+1])``.
* Segments may be empty.
* All argmax-style reductions return the **first** maximising index, which
  is the tie-breaking rule the split-selection logic relies on.
"""

from __future__ import annotations

import functools

import numpy as np

from .kernel import GpuDevice

__all__ = [
    "check_offsets",
    "seg_ids",
    "segmented_inclusive_cumsum",
    "segmented_sum",
    "segmented_argmax",
    "gather",
    "bincount_sum",
    "segment_order_desc",
    "segment_sort_desc",
]


def check_offsets(offsets: np.ndarray, n: int) -> np.ndarray:
    """Validate a segmentation over ``n`` elements and return it as int64."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ValueError("offsets must be a 1-D array with at least one entry")
    if offsets[0] != 0 or offsets[-1] != n:
        raise ValueError(f"offsets must span [0, {n}], got [{offsets[0]}, {offsets[-1]}]")
    if np.any(np.diff(offsets) < 0):
        raise ValueError("offsets must be non-decreasing")
    return offsets


def _checked(body):
    """``body`` behind an ``offsets`` check: the public primitive.  Kernels
    check their offsets once at entry and call the ``_`` bodies."""

    @functools.wraps(body)
    def checked(device, values, offsets, *args, **kwargs):
        values = np.asarray(values)
        return body(device, values, check_offsets(offsets, values.size), *args, **kwargs)

    checked.__name__ = checked.__qualname__ = body.__name__[1:]
    return checked


def seg_ids(offsets: np.ndarray, n: int) -> np.ndarray:
    """Element -> segment-id map (int64 array of length ``n``)."""
    offsets = check_offsets(offsets, n)
    return np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))


# --------------------------------------------------------------------- scans
def _segmented_inclusive_cumsum(
    device: GpuDevice,
    values: np.ndarray,
    offsets: np.ndarray,
    name: str = "seg_prefix_sum",
    charge: bool = True,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Segmented inclusive prefix sum (Fig. 1 of the paper).

    Implemented the way a single-pass GPU segmented scan behaves: a global
    scan whose carry is cancelled at segment heads.  ``out`` (optional,
    matching accumulator dtype) receives the result without allocating.
    """
    values = np.asarray(values)
    n = values.size
    if values.dtype.kind in "biu":
        acc = values.astype(np.int64, copy=False)
    else:
        acc = values.astype(np.float64, copy=False)
    if out is None:
        out = np.cumsum(acc)
    else:
        np.cumsum(acc, out=out)
    if n > 0:
        starts = offsets[:-1]
        lens = np.diff(offsets)
        # carry entering a segment = inclusive scan value just before its start
        base = np.where(starts > 0, out[np.maximum(starts - 1, 0)], 0)
        np.subtract(out, np.repeat(base, lens), out=out)
    if charge:
        device.launch(
            name,
            elements=n,
            flops_per_element=2.0,
            coalesced_bytes=2.0 * n * acc.dtype.itemsize + offsets.size * 8,
        )
    return out


def _segmented_sum(
    device: GpuDevice,
    values: np.ndarray,
    offsets: np.ndarray,
    name: str = "seg_reduce_sum",
    charge: bool = True,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Per-segment totals; empty segments sum to 0.

    ``scratch`` (optional, ``n + 1`` elements of the accumulator dtype)
    holds the intermediate exclusive prefix sum so only the small
    per-segment result is allocated; totals are bit-identical either way
    (the same prefix values are subtracted).
    """
    values = np.asarray(values)
    n = values.size
    if values.dtype.kind in "iu":
        acc = values.astype(np.int64, copy=False)
        zero = np.int64(0)
    else:
        acc = values.astype(np.float64, copy=False)
        zero = np.float64(0.0)
    if scratch is None:
        c = np.concatenate(([zero], np.cumsum(acc)))
        out = c[offsets[1:]] - c[offsets[:-1]]
    else:
        if scratch.size < n + 1:
            raise ValueError("scratch must hold n + 1 accumulator elements")
        c = scratch[: n + 1]
        c[0] = zero
        np.cumsum(acc, out=c[1:])
        out = c[offsets[1:]] - c[offsets[:-1]]
    if charge:
        device.launch(
            name,
            elements=n,
            flops_per_element=1.0,
            coalesced_bytes=n * acc.dtype.itemsize + 2 * offsets.size * 8,
        )
    return out


# ---------------------------------------------------------------- reductions
def _segmented_argmax(
    device: GpuDevice,
    values: np.ndarray,
    offsets: np.ndarray,
    name: str = "seg_reduce_argmax",
    blocks: int | None = None,
    blocks_scale: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``(max, first global argmax)``.

    Empty segments yield ``(-inf, -1)``.  ``blocks`` lets the caller impose
    the Customized-SetKey grid (or the naive one-block-per-segment grid when
    the optimization is disabled, with ``blocks_scale=True``).
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    n_seg = offsets.size - 1
    best_val = np.full(n_seg, -np.inf)
    best_idx = np.full(n_seg, -1, dtype=np.int64)
    lens = np.diff(offsets)
    nonempty = lens > 0
    if n > 0 and np.any(nonempty):
        starts = offsets[:-1][nonempty]
        # reduceat over non-empty starts: each range ends at the next start
        # (empty segments contribute no range), last range runs to the end.
        best_val[nonempty] = np.maximum.reduceat(values, starts)
        hit = np.flatnonzero(values == np.repeat(best_val, lens))
        hit_seg = np.searchsorted(offsets, hit, side="right") - 1
        segs, first = np.unique(hit_seg, return_index=True)
        best_idx[segs] = hit[first]
    device.launch(
        name,
        elements=n,
        flops_per_element=2.0,
        coalesced_bytes=n * 8 + n_seg * 16,
        blocks=blocks,
        blocks_scale=blocks_scale,
    )
    return best_val, best_idx


segmented_inclusive_cumsum, segmented_sum, segmented_argmax = map(
    _checked, (_segmented_inclusive_cumsum, _segmented_sum, _segmented_argmax)
)


# ------------------------------------------------------------------- gathers
def gather(
    device: GpuDevice,
    src: np.ndarray,
    idx: np.ndarray,
    name: str = "gather",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``src[idx]`` with irregular-access cost (the paper's challenge 1).

    ``out`` (optional, ``idx``-shaped, ``src``-dtyped) receives the gathered
    values without allocating.
    """
    src = np.asarray(src)
    idx = np.asarray(idx)
    if out is None:
        out = src[idx]
    else:
        np.take(src, idx, out=out)
    device.launch(
        name,
        elements=idx.size,
        flops_per_element=0.5,
        coalesced_bytes=idx.size * (idx.dtype.itemsize + out.dtype.itemsize),
        irregular_bytes=idx.size * src.dtype.itemsize,
    )
    return out


def bincount_sum(
    device: GpuDevice,
    groups: np.ndarray,
    weights: np.ndarray,
    n_groups: int,
    name: str = "atomic_group_sum",
) -> np.ndarray:
    """Per-group float64 sums via atomic adds (``out[g] += w``)."""
    groups = np.asarray(groups, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if groups.shape != weights.shape:
        raise ValueError("groups and weights must align")
    if groups.size and (groups.min() < 0 or groups.max() >= n_groups):
        raise ValueError("group id out of range")
    out = np.bincount(groups, weights=weights, minlength=n_groups)
    device.launch(
        name,
        elements=groups.size,
        flops_per_element=1.0,
        coalesced_bytes=groups.size * 16,
        irregular_bytes=groups.size * 8,  # atomic scatter into the group table
    )
    return out


# -------------------------------------------------------------------- sorts
def segment_order_desc(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Permutation sorting each segment by descending value, ties in index order.

    The permutation of ``np.lexsort((-values, seg_ids(offsets, n)))`` for
    non-NaN values (``-0.0`` ties ``0.0``).  Two sorts give it, each fast
    where the other is slow, and the input order picks one:

    - When at most half the entries differ from the value before them
      (binary and low-cardinality columns, and ``n <= 1``), ``lexsort``
      itself: its merge sort takes each run of equal values whole, where a
      float quicksort crawls.
    - Otherwise by rank: one unstable float argsort plus a cumsum give every
      entry its dense descending rank ``r`` among the ``R`` distinct values,
      and one stable argsort of the int64 key ``sid * R + r`` orders
      segments, then values, then indices.  The key stays below
      ``segments * n``, so it cannot overflow.
    """
    values = np.asarray(values)
    n = values.size
    key = seg_ids(offsets, n)
    if 2 * np.count_nonzero(values[1:] != values[:-1]) <= n:
        return np.lexsort((-values, key))
    asc = np.argsort(values)
    sv = values[asc]
    new = np.empty(n, dtype=bool)
    new[0] = True
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    up = np.cumsum(new)  # 1-based ascending dense rank, in ascending order
    n_distinct = int(up[-1])
    rank = np.empty(n, dtype=np.int64)
    rank[asc] = n_distinct - up  # descending dense rank, 0-based
    key *= n_distinct
    key += rank
    return np.argsort(key, kind="stable")


def segment_sort_desc(
    device: GpuDevice,
    values: np.ndarray,
    payload: np.ndarray,
    offsets: np.ndarray,
    name: str = "seg_radix_sort",
) -> tuple[np.ndarray, np.ndarray]:
    """Stable per-segment sort by descending value, carrying a payload.

    Used once per training run to build the sorted attribute lists of
    Section II-A (descending order, as in the paper's ``a1`` example:
    ``1.2, 1.2, 0.5``).  Stability fixes the tie order to the original
    (instance-id) order, making every later step deterministic.  The host
    order comes from :func:`segment_order_desc`.
    """
    values = np.asarray(values)
    payload = np.asarray(payload)
    n = values.size
    if payload.size != n:
        raise ValueError("values and payload must align")
    offsets = check_offsets(offsets, n)
    order = segment_order_desc(values, offsets)
    log_n = max(1.0, np.log2(max(n, 2)))
    device.launch(
        name,
        elements=n,
        flops_per_element=2.0 * log_n,
        coalesced_bytes=2.0 * n * (values.dtype.itemsize + payload.dtype.itemsize) * (log_n / 8.0 + 1.0),
    )
    return values[order], payload[order]
