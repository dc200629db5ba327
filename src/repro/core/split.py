"""Finding the best split point for every node at once (Section III-B).

This is the paper's fine-grained multi-level parallelism: **one kernel
sequence evaluates every candidate split of every attribute of every active
node**.  The flat sorted arrays are segmented by (node, attribute); the
steps map one-to-one onto the paper's:

1. gather per-entry gradients ``g_i, h_i`` (the irregular access SmartGD
   keeps cheap to *compute* but which still must be *read* here);
2. segmented prefix sums give ``G_L/H_L`` at every candidate (Fig. 1);
3. per-candidate gains via Eq. (2), with the missing-value mass tried on
   both sides ("the instances with missing values ... either go to the left
   or right node, depending on which way results in larger gain");
4. duplicated split points are suppressed -- sparse path: candidates where
   the value equals its predecessor are invalidated ("reset gain of repeated
   split points"); RLE path: each run *is* one candidate, so the problem
   vanishes (Section III-C);
5. segmented reduction selects the best candidate per segment (grid chosen
   by the Customized SetKey formula), then a per-node reduction picks the
   best attribute [12].

Candidate semantics (shared with the CPU reference so trees are identical):

* Candidates of a segment are ordered: interior positions ascending, then
  the present|missing boundary split.  Earlier candidates win ties
  (strict ``>``); across attributes the lowest attribute wins ties.
  (A "missing|present" boundary candidate would be the *same partition* as
  present|missing with sides relabeled, so it is not enumerated.)
* An interior candidate *before* element ``e`` sends elements ``< e`` left.
* ``default_left = (gain with missing left) >= (gain with missing right)``.
* Thresholds are midpoints of adjacent distinct values
  (:func:`midpoint_thresholds`); the boundary candidate uses
  ``nextafter(min_value, -inf)``.
* Gains are **quantized to float32** before any comparison.  Different
  implementations sum gradients in different orders (a segmented scan's
  carry-cancellation vs. a per-node sequential scan), so algebraically-tied
  candidates carry ~1e-16 relative noise; quantization collapses such ties
  so the deterministic ordering above resolves them identically everywhere.
  This is what makes the paper's "trees are identical" check reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..data.rle import RunLengthColumns
from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import (
    _segmented_argmax,
    _segmented_inclusive_cumsum,
    _segmented_sum,
    check_offsets,
    gather,
)
from .setkey import plan_segment_grid
from .workspace import IDX_DTYPE, WorkspaceArena

__all__ = ["SegmentLayout", "NodeBestSplits", "eq2_gain", "midpoint_thresholds",
           "find_best_splits_sparse", "find_best_splits_rle"]

#: candidates scored per chunk by :func:`_score_candidates`, so the chunk's eight
#: float temporaries stay in cache instead of growing with the level
#: (2**14 and 2**15 measured fastest; docs/performance.md, Exact level step)
_SCORE_CHUNK = 1 << 14


@dataclasses.dataclass
class SegmentLayout:
    """Node-major segmentation of the flat attribute lists.

    Segment ``local_node * n_attrs + attr`` holds the (sorted, descending)
    present values of ``attr`` restricted to instances of ``local_node``.
    """

    offsets: np.ndarray  # (n_nodes * n_attrs + 1,) element offsets
    n_nodes: int
    n_attrs: int

    def __post_init__(self) -> None:
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.offsets.size != self.n_nodes * self.n_attrs + 1:
            raise ValueError("offsets must have n_nodes * n_attrs + 1 entries")
        # descriptor cache: seg_node/seg_attr/node_offsets are pure functions
        # of (n_nodes, n_attrs) and get asked for several times per level
        # (split finding, selection, and the trainer's routing step), so they
        # are materialized at most once per layout instance
        self._descriptors: dict = {}

    @property
    def n_segments(self) -> int:
        return self.n_nodes * self.n_attrs

    @property
    def n_elements(self) -> int:
        return int(self.offsets[-1])

    def _cached(self, key: str, build) -> np.ndarray:
        arr = self._descriptors.get(key)
        if arr is None:
            arr = build()
            arr.setflags(write=False)  # shared across callers
            self._descriptors[key] = arr
        return arr

    def seg_node(self) -> np.ndarray:
        """Segment -> local node index (cached, read-only)."""
        return self._cached(
            "seg_node",
            lambda: np.repeat(np.arange(self.n_nodes, dtype=np.int64), self.n_attrs),
        )

    def seg_attr(self) -> np.ndarray:
        """Segment -> attribute index (cached, read-only)."""
        return self._cached(
            "seg_attr",
            lambda: np.tile(np.arange(self.n_attrs, dtype=np.int64), self.n_nodes),
        )

    def node_offsets(self) -> np.ndarray:
        """Segmentation of the *segment* axis by node (for the node reduce)."""
        return self._cached(
            "node_offsets",
            lambda: np.arange(0, self.n_segments + 1, self.n_attrs, dtype=np.int64),
        )


@dataclasses.dataclass
class NodeBestSplits:
    """Best split per active node (arrays indexed by local node id).

    ``attr == -1`` means no valid candidate existed.  ``left_*`` are the
    totals routed to the left child *including* the missing-value mass when
    ``default_left`` -- exactly the child statistics the trainer needs.
    ``elem_pos`` is the global flat-array index where the right part of the
    chosen segment begins (a positional split: present entries of the
    segment with index < ``elem_pos`` go left).
    """

    gain: np.ndarray
    attr: np.ndarray
    seg: np.ndarray
    elem_pos: np.ndarray
    threshold: np.ndarray
    default_left: np.ndarray
    left_g: np.ndarray
    left_h: np.ndarray
    left_n: np.ndarray

    @property
    def found(self) -> np.ndarray:
        return self.attr >= 0


def eq2_gain(
    gl: np.ndarray,
    hl: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    lambda_: float,
    *,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The split gain of Eq. (2) (with the standard ``+ lambda`` in the
    parent term -- the paper's ``-`` is a typo against its reference [3]).

    With ``out`` and two same-shaped float64 ``scratch`` buffers the gain is
    computed allocation-free in **exactly the same elementary-operation
    order** as the expression below, so the result is bit-identical.
    """
    gl = np.asarray(gl, dtype=np.float64)
    hl = np.asarray(hl, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if out is None or scratch is None:
        gr = g - gl
        hr = h - hl
        with np.errstate(divide="ignore", invalid="ignore"):
            out = 0.5 * (gl * gl / (hl + lambda_) + gr * gr / (hr + lambda_) - g * g / (h + lambda_))
        return np.where(np.isfinite(out), out, -np.inf)
    s1, s2 = scratch
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(h, hl, out=s1)       # hr
        np.add(s1, lambda_, out=s1)      # hr + lambda
        np.subtract(g, gl, out=s2)       # gr
        np.multiply(s2, s2, out=s2)      # gr^2
        np.divide(s2, s1, out=s2)        # gr^2 / (hr + lambda)
        np.multiply(gl, gl, out=out)     # gl^2
        np.add(hl, lambda_, out=s1)      # hl + lambda
        np.divide(out, s1, out=out)      # gl^2 / (hl + lambda)
        np.add(out, s2, out=out)         # left + right child terms
        np.multiply(g, g, out=s1)        # g^2
        np.add(h, lambda_, out=s2)       # h + lambda
        np.divide(s1, s2, out=s1)        # parent term
        np.subtract(out, s1, out=out)
        np.multiply(out, 0.5, out=out)
    mask = np.isfinite(out)
    np.logical_not(mask, out=mask)
    np.copyto(out, -np.inf, where=mask)
    return out


def quantize_gain(
    gain: np.ndarray,
    *,
    out: np.ndarray | None = None,
    f32: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Collapse sub-float32 noise before gain comparisons (module docstring).

    Magnitudes below 1e-10 are flushed to exactly 0 so an algebraically-zero
    gain (whose summation noise may land on either side of 0) compares
    against the ``> gamma`` split threshold identically in every
    implementation.  ``out``/``scratch`` (float64) and ``f32`` (a float32
    staging buffer) make the round-trip allocation-free; the flush
    comparison stays in float64 so results are bit-identical.
    """
    if out is None or f32 is None or scratch is None:
        q = np.asarray(gain, dtype=np.float32).astype(np.float64)
        return np.where(np.abs(q) < 1e-10, 0.0, q)
    f32[...] = gain          # float64 -> float32 rounding
    out[...] = f32           # widen back: exactly representable
    np.abs(out, out=scratch)
    np.copyto(out, 0.0, where=scratch < 1e-10)
    return out


def midpoint_thresholds(
    hi: np.ndarray, lo: np.ndarray, *, out: np.ndarray | None = None,
    skip: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Thresholds ``(hi + lo) / 2`` with ``lo <= thr < hi`` for every finite
    pair ``hi > lo``, so ``x > thr`` sends ``hi`` left and ``lo`` right.

    Only where the plain midpoint overflowed to ``±inf`` or rounded onto
    ``hi`` (at the float edges) does it become ``hi / 2 + lo / 2``, or the
    float below ``hi``.  ``skip`` marks pairs that are not cuts; ``out``
    and the bool ``scratch`` are optional buffers.
    """
    hi = np.asarray(hi, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    out = np.empty(hi.shape) if out is None else out
    with np.errstate(over="ignore"):
        np.add(hi, lo, out=out)
    np.divide(out, 2.0, out=out)
    # one pass finds rounding onto hi and +inf; a midpoint below lo can
    # only be -inf, which the minimum shows
    ok = np.less(out, hi, out=scratch)
    skip = np.zeros(1, bool) if skip is None else skip
    if np.logical_or(ok, skip, out=ok).all() and out.min(initial=np.inf) > -np.inf:
        return out
    bad = np.flatnonzero(~((out < hi) & (out >= lo) | skip))
    h = hi[bad]
    thr = h / 2 + lo[bad] / 2
    out[bad] = np.where(thr < h, thr, np.nextafter(h, -np.inf))
    return out


def _candidate_thresholds(ws: WorkspaceArena, values: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Each candidate's threshold between its value and the one before."""
    n = values.size
    prev = ws.buf("split/prev", n, np.float64)
    prev[:1] = values[:1]
    prev[1:] = values[:-1]
    return midpoint_thresholds(prev, values, out=ws.buf("split/thr", n, np.float64),
                               skip=skip, scratch=ws.buf("split/ok", n, bool))


def _last_valid(cum: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment inclusive-scan value at the segment's last element
    (0 for empty segments)."""
    lens = np.diff(offsets)
    idx = np.maximum(offsets[1:] - 1, 0)
    return np.where(lens > 0, cum[idx] if cum.size else 0.0, 0.0)


def _score_candidates(
    ws: WorkspaceArena,
    gl: np.ndarray,
    hl: np.ndarray,
    invalid: np.ndarray,
    cand_offsets: np.ndarray,
    seg_tot_g: np.ndarray,
    seg_tot_h: np.ndarray,
    miss_g: np.ndarray,
    miss_h: np.ndarray,
    lambda_: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Quantized gain and missing-left flag of every interior candidate.

    Candidates are segmented by ``cand_offsets``; ``gl``/``hl`` are their
    exclusive left prefixes, and the ``seg_*``/``miss_*`` arrays give each
    segment's node totals and missing mass.  ``invalid`` marks candidates
    that are not real cuts; each segment's first candidate is marked here,
    as nothing lies left of it.  Runs ``_SCORE_CHUNK`` candidates at a
    time, broadcasting per-segment constants with ``np.repeat`` over the
    chunk's slice of each segment.  The element-wise operation order is
    the plain ``quantize_gain(eq2_gain(...))`` one, so the gains do not
    depend on the chunk size.
    """
    n = gl.size
    lens = np.diff(cand_offsets)
    invalid[cand_offsets[:-1][lens > 0]] = True
    cand_gain = ws.buf("split/cgain", n, np.float64)
    cand_dir = ws.buf("split/dir", n, bool)
    step = max(1, min(_SCORE_CHUNK, n))
    mr, s1, s2 = (ws.buf(f"split/chunk{i}", step, np.float64) for i in range(3))
    f32 = ws.buf("split/chunk_f32", step, np.float32)
    for c0 in range(0, n, step):
        c1 = min(c0 + step, n)
        # segments overlapping [c0, c1) and their lengths clipped to it
        lo = np.searchsorted(cand_offsets, c0, side="right") - 1
        hi = np.searchsorted(cand_offsets, c1, side="left")
        reps = np.diff(np.clip(cand_offsets[lo : hi + 1], c0, c1))
        segs = slice(lo, hi)
        g_tot = np.repeat(seg_tot_g[segs], reps)
        h_tot = np.repeat(seg_tot_h[segs], reps)
        c = slice(c0, c1)
        k = c1 - c0
        gain_mr, scratch, f = mr[:k], (s1[:k], s2[:k]), f32[:k]
        eq2_gain(gl[c], hl[c], g_tot, h_tot, lambda_, out=gain_mr, scratch=scratch)
        quantize_gain(gain_mr, out=gain_mr, f32=f, scratch=s1[:k])
        glm = np.repeat(miss_g[segs], reps)  # missing entries join the left
        np.add(gl[c], glm, out=glm)
        hlm = np.repeat(miss_h[segs], reps)
        np.add(hl[c], hlm, out=hlm)
        gain_ml = cand_gain[c]
        eq2_gain(glm, hlm, g_tot, h_tot, lambda_, out=gain_ml, scratch=scratch)
        quantize_gain(gain_ml, out=gain_ml, f32=f, scratch=s1[:k])
        np.greater_equal(gain_ml, gain_mr, out=cand_dir[c])
        np.maximum(gain_ml, gain_mr, out=gain_ml)
        np.copyto(gain_ml, -np.inf, where=invalid[c])
    return cand_gain, cand_dir


def _select_splits(
    device: GpuDevice,
    *,
    cand_gain: np.ndarray,
    cand_dir: np.ndarray,
    cand_elem_pos: np.ndarray,
    cand_thr: np.ndarray,
    cand_gl: np.ndarray,
    cand_hl: np.ndarray,
    cand_nl: np.ndarray,
    cand_offsets: np.ndarray,
    seg_elem_offsets: np.ndarray,
    seg_g: np.ndarray,
    seg_h: np.ndarray,
    seg_min_value: np.ndarray,
    miss_g: np.ndarray,
    miss_h: np.ndarray,
    miss_n: np.ndarray,
    node_g: np.ndarray,
    node_h: np.ndarray,
    layout: SegmentLayout,
    lambda_: float,
    setkey_enabled: bool,
) -> NodeBestSplits:
    """Shared tail of split finding: per-segment argmax over interior
    candidates, boundary (missing) candidates, then the per-node reduce."""
    S = layout.n_segments
    seg_node = layout.seg_node()
    lens = np.diff(seg_elem_offsets)
    has_missing = miss_n > 0
    nonempty = lens > 0
    node_g_seg = node_g[seg_node]
    node_h_seg = node_h[seg_node]

    # -- interior candidates: segmented argmax with the SetKey grid ----------
    plan = plan_segment_grid(device.spec, max(S, 1), enabled=setkey_enabled)
    best_gain, best_cand = _segmented_argmax(
        device,
        cand_gain,
        cand_offsets,
        name="seg_reduce_best_split",
        blocks=plan.blocks,
        blocks_scale=not plan.custom,
    )

    seg_gain = best_gain.copy()
    hit = best_cand >= 0
    safe = np.maximum(best_cand, 0)
    if cand_elem_pos.size:
        seg_pos = np.where(hit, cand_elem_pos[safe], -1)
        seg_thr = np.where(hit, cand_thr[safe], np.nan)
        seg_dir = np.where(hit, cand_dir[safe], False)
        base_gl = np.where(hit, cand_gl[safe], 0.0)
        base_hl = np.where(hit, cand_hl[safe], 0.0)
        base_nl = np.where(hit, cand_nl[safe], 0)
    else:
        # no interior candidates exist anywhere (e.g. every segment empty
        # after a stochastic round's staging): boundary candidates may still
        # apply below
        seg_pos = np.full(S, -1, dtype=np.int64)
        seg_thr = np.full(S, np.nan)
        seg_dir = np.zeros(S, dtype=bool)
        base_gl = np.zeros(S)
        base_hl = np.zeros(S)
        base_nl = np.zeros(S, dtype=np.int64)
    seg_lg = base_gl + np.where(seg_dir, miss_g, 0.0)
    seg_lh = base_hl + np.where(seg_dir, miss_h, 0.0)
    seg_ln = base_nl + np.where(seg_dir, miss_n, 0)

    # -- boundary candidate: all present left | missing right ----------------
    sp1_ok = has_missing & nonempty
    sp1_gain = np.where(
        sp1_ok,
        quantize_gain(eq2_gain(seg_g, seg_h, node_g_seg, node_h_seg, lambda_)),
        -np.inf,
    )
    take = sp1_gain > seg_gain
    seg_gain = np.where(take, sp1_gain, seg_gain)
    seg_pos = np.where(take, seg_elem_offsets[1:], seg_pos)
    seg_thr = np.where(take, np.nextafter(seg_min_value, -np.inf), seg_thr)
    seg_dir = np.where(take, False, seg_dir)
    seg_lg = np.where(take, seg_g, seg_lg)
    seg_lh = np.where(take, seg_h, seg_lh)
    seg_ln = np.where(take, lens, seg_ln)

    device.launch(
        "combine_boundary_candidates",
        elements=S,
        flops_per_element=20.0,
        coalesced_bytes=S * 8 * 10,
        blocks=plan.blocks,
        blocks_scale=not plan.custom,
    )

    # -- node-level reduce: best attribute per node (first max = lowest) -----
    node_best_gain, node_best_seg = _segmented_argmax(
        device, seg_gain, layout.node_offsets(), name="node_reduce_best_attr"
    )
    found = node_best_seg >= 0
    sel = np.maximum(node_best_seg, 0)
    no_candidate = found & ~np.isfinite(node_best_gain)
    found = found & ~no_candidate

    return NodeBestSplits(
        gain=np.where(found, node_best_gain, -np.inf),
        attr=np.where(found, layout.seg_attr()[sel], -1),
        seg=np.where(found, sel, -1),
        elem_pos=np.where(found, seg_pos[sel], -1),
        threshold=np.where(found, seg_thr[sel], np.nan),
        default_left=np.where(found, seg_dir[sel], False).astype(bool),
        left_g=np.where(found, seg_lg[sel], 0.0),
        left_h=np.where(found, seg_lh[sel], 0.0),
        left_n=np.where(found, seg_ln[sel], 0).astype(np.int64),
    )


def find_best_splits_sparse(
    device: GpuDevice,
    values: np.ndarray,
    inst: np.ndarray,
    layout: SegmentLayout,
    g: np.ndarray,
    h: np.ndarray,
    node_g: np.ndarray,
    node_h: np.ndarray,
    node_n: np.ndarray,
    *,
    lambda_: float,
    setkey_enabled: bool = True,
    workspace: WorkspaceArena | None = None,
) -> NodeBestSplits:
    """Split finding on uncompressed sorted attribute lists (Section III-B).

    Every per-entry temporary is a view into ``workspace`` (a fresh
    :class:`~repro.core.workspace.WorkspaceArena` when omitted).
    """
    ws = workspace if workspace is not None else WorkspaceArena()
    n = values.size
    offsets = check_offsets(layout.offsets, n)
    if inst.size != n:
        raise ValueError("value count must match the instance array")
    with device.phase(device.current_phase):
        g_ent = gather(device, g, inst, name="gather_gradients",
                       out=ws.buf("split/g_ent", n, np.float64))
        h_ent = gather(device, h, inst, name="gather_hessians",
                       out=ws.buf("split/h_ent", n, np.float64))
        cg = _segmented_inclusive_cumsum(device, g_ent, offsets, name="seg_prefix_sum_g",
                                         out=ws.buf("split/cg", n, np.float64))
        ch = _segmented_inclusive_cumsum(device, h_ent, offsets, name="seg_prefix_sum_h",
                                         out=ws.buf("split/ch", n, np.float64))

    seg_node = layout.seg_node()
    lens = np.diff(offsets)

    seg_g = _last_valid(cg, offsets)
    seg_h = _last_valid(ch, offsets)
    miss_g = node_g[seg_node] - seg_g
    miss_h = node_h[seg_node] - seg_h
    miss_n = node_n[seg_node] - lens

    # exclusive prefix at each entry = "everything strictly above this
    # value"; the cumsum buffers become it in place (the inclusive scans
    # are not read again)
    gl = cg
    np.subtract(cg, g_ent, out=gl)
    hl = ch
    np.subtract(ch, h_ent, out=hl)

    pos = ws.buf("split/pos", n, IDX_DTYPE)
    np.subtract(ws.arange(n), np.repeat(offsets[:-1], lens), out=pos)
    invalid = ws.buf("split/invalid", n, bool)
    # "reset gain of repeated split points": only the first occurrence of
    # each value group is a real candidate
    np.equal(values[1:], values[:-1], out=invalid[1:])
    cand_gain, cand_dir = _score_candidates(
        ws, gl, hl, invalid, offsets, node_g[seg_node], node_h[seg_node],
        miss_g, miss_h, lambda_,
    )

    cand_thr = _candidate_thresholds(ws, values, invalid)
    cand_elem_pos = ws.arange(n)

    device.launch(
        "compute_split_gains",
        elements=n,
        flops_per_element=30.0,
        coalesced_bytes=n * 8 * 6,
    )

    seg_min_value = np.where(
        lens > 0, values[np.maximum(offsets[1:] - 1, 0)] if n else 0.0, np.nan
    )

    return _select_splits(
        device,
        cand_gain=cand_gain,
        cand_dir=cand_dir,
        cand_elem_pos=cand_elem_pos,
        cand_thr=cand_thr,
        cand_gl=gl,
        cand_hl=hl,
        cand_nl=pos,
        cand_offsets=offsets,
        seg_elem_offsets=offsets,
        seg_g=seg_g,
        seg_h=seg_h,
        seg_min_value=seg_min_value,
        miss_g=miss_g,
        miss_h=miss_h,
        miss_n=miss_n,
        node_g=node_g,
        node_h=node_h,
        layout=layout,
        lambda_=lambda_,
        setkey_enabled=setkey_enabled,
    )


def find_best_splits_rle(
    device: GpuDevice,
    rle: RunLengthColumns,
    inst: np.ndarray,
    layout: SegmentLayout,
    g: np.ndarray,
    h: np.ndarray,
    node_g: np.ndarray,
    node_h: np.ndarray,
    node_n: np.ndarray,
    *,
    lambda_: float,
    setkey_enabled: bool = True,
    workspace: WorkspaceArena | None = None,
) -> NodeBestSplits:
    """Split finding on RLE-compressed values (Section III-C, Fig. 5).

    Per-run gradient sums replace per-entry gradients; each run is exactly
    one candidate, so no duplicate suppression is needed and the reductions
    shrink from ``nnz`` to ``n_runs`` items.  Functionally equivalent to the
    sparse path (a run's first element is the group's first occurrence).
    Temporaries are views into ``workspace`` (a fresh arena when omitted).
    """
    ws = workspace if workspace is not None else WorkspaceArena()
    n = inst.size
    offsets = check_offsets(layout.offsets, n)
    if rle.n_elements != n or rle.run_offsets.size != offsets.size:
        raise ValueError("RLE columns must match the instance array and the layout")
    n_runs = rle.n_runs
    run_offsets = rle.run_offsets  # checked when the RunLengthColumns was built
    run_elem_offsets = rle.run_elem_offsets
    run_starts = run_elem_offsets[:-1]

    with device.phase(device.current_phase):
        g_ent = gather(device, g, inst, name="gather_gradients",
                       out=ws.buf("split/g_ent", n, np.float64))
        h_ent = gather(device, h, inst, name="gather_hessians",
                       out=ws.buf("split/h_ent", n, np.float64))
        # Fig. 5: aggregate gradients of instances sharing an attribute value
        sum_scratch = ws.buf("split/scan", n + 1, np.float64)
        g_run = _segmented_sum(device, g_ent, run_elem_offsets,
                               name="rle_aggregate_g", scratch=sum_scratch)
        h_run = _segmented_sum(device, h_ent, run_elem_offsets,
                               name="rle_aggregate_h", scratch=sum_scratch)
        cgr = _segmented_inclusive_cumsum(device, g_run, run_offsets,
                                          name="seg_prefix_sum_g_rle",
                                          out=ws.buf("split/cg", n_runs, np.float64))
        chr_ = _segmented_inclusive_cumsum(device, h_run, run_offsets,
                                           name="seg_prefix_sum_h_rle",
                                           out=ws.buf("split/ch", n_runs, np.float64))

    seg_node = layout.seg_node()
    lens = np.diff(offsets)

    seg_g = _last_valid(cgr, run_offsets)
    seg_h = _last_valid(chr_, run_offsets)
    miss_g = node_g[seg_node] - seg_g
    miss_h = node_h[seg_node] - seg_h
    miss_n = node_n[seg_node] - lens

    gl = cgr
    np.subtract(cgr, g_run, out=gl)
    hl = chr_
    np.subtract(chr_, h_run, out=hl)

    invalid = ws.zeros("split/invalid", n_runs, bool)
    cand_gain, cand_dir = _score_candidates(
        ws, gl, hl, invalid, run_offsets,
        node_g[seg_node], node_h[seg_node], miss_g, miss_h, lambda_,
    )

    cand_thr = _candidate_thresholds(ws, rle.run_values, invalid)

    # element count strictly above each run = its run start within the segment
    cand_nl = ws.buf("split/nl", n_runs, IDX_DTYPE)
    np.subtract(run_starts, np.repeat(offsets[:-1], np.diff(run_offsets)), out=cand_nl)

    device.launch(
        "compute_split_gains_rle",
        elements=n_runs,
        flops_per_element=30.0,
        coalesced_bytes=n_runs * 8 * 6,
    )

    run_lens_per_seg = np.diff(run_offsets)
    seg_min_value = np.where(
        run_lens_per_seg > 0,
        rle.run_values[np.maximum(run_offsets[1:] - 1, 0)] if n_runs else 0.0,
        np.nan,
    )

    return _select_splits(
        device,
        cand_gain=cand_gain,
        cand_dir=cand_dir,
        cand_elem_pos=run_starts,
        cand_thr=cand_thr,
        cand_gl=gl,
        cand_hl=hl,
        cand_nl=cand_nl,
        cand_offsets=run_offsets,
        seg_elem_offsets=offsets,
        seg_g=seg_g,
        seg_h=seg_h,
        seg_min_value=seg_min_value,
        miss_g=miss_g,
        miss_h=miss_h,
        miss_n=miss_n,
        node_g=node_g,
        node_h=node_h,
        layout=layout,
        lambda_=lambda_,
        setkey_enabled=setkey_enabled,
    )
