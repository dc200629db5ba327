"""Shared histogram kernels: integer accumulation, subtraction, split scan.

Both :class:`repro.approx.histogram_trainer.HistogramGBDTTrainer` (one
process) and :class:`repro.dist.trainer.DistributedHistTrainer` (W
row-sharded workers) drive the same functions:

* :func:`accumulate_histograms` -- per-(node, attribute, bin) int64 sums of
  the fixed-point gradients (:mod:`repro.approx.fixedpoint`) over whatever
  entry subset the caller owns, scatter-added in place into the caller's
  level tables.  Integer sums are associative, so local histograms
  ring-allreduced across workers equal the monolithic sums **exactly**.
* :func:`plan_sibling_builds` / :func:`subtract_child_histogram` -- the
  sibling-subtraction trick (Mitchell et al., GPU XGBoost): a level's
  active nodes arrive in (left, right) sibling pairs whose instance sets
  partition the parent's, so the trainer accumulates only the **smaller**
  child of each pair and derives the larger one as ``parent - smaller``.
  Because every table is an exact int64 sum, the identity
  ``parent == left + right`` holds bit-for-bit and subtraction is **exact**
  -- not an approximation -- which is why the subtraction path grows
  byte-identical models while skipping roughly half the accumulation work
  per level (and, distributed, halving the histogram allreduce payload:
  only built children are reduced; siblings are derived locally from the
  already-global parent tables).  A derived sibling is written straight
  into its row of the level table, so no level allocates tables of its
  own.
* :func:`scan_histograms` -- the best split of every node of a level in
  one vectorized pass over the occupied cells of the (already global)
  histograms.  It is a pure
  function of the histogram integers, so every worker that holds the
  allreduced tables takes the identical decision with no winner broadcast
  -- the structural reason data-parallel histogram training communicates
  O(bins), not O(rows).

Split slots tile ``(n_active, total_bins)`` **one slot per bin**: an
attribute with ``nb`` bins has ``nb - 1`` interior cuts (ascending cut
index, i.e. descending value), then its present|missing boundary.  Gains
are float32-quantized and each node takes the **first** maximum in that
order, the exact trainer's canonical tie rule (see :mod:`repro.core.split`).
The scan scores only the *candidate* slots: interior slots over an occupied
bin (``hist_c > 0``) plus every boundary.  This is the histogram form of the
paper's RLE argument: a cut after an empty bin repeats the cut before it,
so the first-maximum rule can never pick it.  Two invariants make the
compaction exact: such a slot's gain, direction and validity are bit-equal
to its predecessor's (or it is invalid, when its whole left side is
empty), and an empty cell has zero gradient and hessian sums, in
accumulated and subtraction-derived tables alike.  On deep levels of
sparse data most cells are empty (4.4% occupied at depth 7 on ``e2006``),
so this skips most of the gain work.  The modeled GPU kernel still scans
every bin; only the host evaluation is compacted.
"""

from __future__ import annotations

import numpy as np

from ..core.split import eq2_gain, quantize_gain
from ..core.workspace import WorkspaceArena
from .fixedpoint import inv_scale

__all__ = [
    "accumulate_histograms",
    "plan_sibling_builds",
    "scan_histograms",
    "subtract_child_histogram",
    "leaf_values",
]

#: candidate budget (occupied cells plus boundaries) of one row chunk of
#: :func:`scan_histograms`; bounds its temporaries independently of the
#: level's node count
_SCAN_CELLS = 1 << 16


def accumulate_histograms(
    gq: np.ndarray,
    hq: np.ndarray,
    ent_inst: np.ndarray,
    ent_gbin: np.ndarray,
    inst2row: np.ndarray,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> int:
    """Scatter-add entries into int64 (table row, global-bin) tables in place.

    ``gq, hq`` are the fixed-point gradients of the caller's instances;
    ``inst2row`` maps each instance to the row of ``tables = (hist_gq,
    hist_hq, hist_c)`` its entries add to, and entries whose instance maps
    to -1 (settled, or in a node derived by subtraction) are skipped.  The
    tables must be C-contiguous ``(rows, total_bins)`` arrays -- the
    caller's level tables, whose target rows it zeroed first.  Every sum
    is an exact int64 ``np.add.at``, so calls over any split of the
    entries (stream blocks, worker shards) add up to the same tables.
    Returns how many entries were added.
    """
    hist_gq, hist_hq, hist_c = tables
    if not all(t.flags.c_contiguous for t in tables):
        raise ValueError("histogram tables must be C-contiguous")
    ent_row = inst2row[ent_inst]
    live = np.flatnonzero(ent_row >= 0)
    inst_live = ent_inst[live]
    idx = ent_row[live] * hist_gq.shape[1] + ent_gbin[live]
    np.add.at(hist_gq.reshape(-1), idx, gq[inst_live])
    np.add.at(hist_hq.reshape(-1), idx, hq[inst_live])
    np.add.at(hist_c.reshape(-1), idx, 1)
    return int(live.size)


def plan_sibling_builds(
    node_n: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Which locals of a sibling level to build vs derive by subtraction.

    ``node_n`` holds the **global** instance counts of the level's active
    nodes, ordered as (left, right) sibling pairs -- the layout
    ``_grow_tree`` produces for every depth > 0.  For each pair the smaller
    child (ties -> left) is built by accumulation and its sibling derived as
    ``parent - built``.  Distributed callers must pass post-allreduce counts
    so every rank picks the same side.

    Returns ``(build_locals, derive_locals)``; ``derive_locals[i]`` is the
    sibling of ``build_locals[i]`` (i.e. ``build_locals[i] ^ 1``).
    """
    node_n = np.asarray(node_n)
    if node_n.size % 2:
        raise ValueError("sibling level must hold an even number of nodes")
    pairs = node_n.reshape(-1, 2)
    right_smaller = pairs[:, 1] < pairs[:, 0]
    base = np.arange(pairs.shape[0], dtype=np.int64) * 2
    build_locals = base + right_smaller
    derive_locals = build_locals ^ 1
    return build_locals, derive_locals


def subtract_child_histogram(
    parent_gq: np.ndarray,
    parent_hq: np.ndarray,
    parent_c: np.ndarray,
    child_gq: np.ndarray,
    child_hq: np.ndarray,
    child_c: np.ndarray,
    *,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sibling histogram by exact int64 subtraction: ``out = parent - child``.

    Every input is an exact fixed-point sum over a node's instances and a
    node's instance set is the disjoint union of its children's, so the
    subtraction reproduces the sibling's accumulated table bit-for-bit --
    no floats are involved at any point.  ``out`` is the destination
    ``(gq, hq, c)``; the trainer passes the derived node's rows of its
    level tables, so a sibling is written where it is scanned.

    Raises ``ValueError`` if any count would go negative -- that means the
    supplied child is not a child of the supplied parent, and silently
    returning garbage histograms would corrupt split decisions downstream.
    """
    sib_gq, sib_hq, sib_c = out
    np.subtract(parent_gq, child_gq, out=sib_gq)
    np.subtract(parent_hq, child_hq, out=sib_hq)
    np.subtract(parent_c, child_c, out=sib_c)
    if sib_c.size and int(sib_c.min()) < 0:
        raise ValueError(
            "negative sibling count: child histogram is not contained in parent"
        )
    return out


def _row_chunks(kept: np.ndarray, budget: int):
    """``[a, b)`` row ranges, each of at least one row, whose ``kept`` sums
    stay within ``budget`` whenever more than one row is taken."""
    cum = np.cumsum(kept)
    a = 0
    while a < kept.size:
        base = int(cum[a - 1]) if a else 0
        b = max(a + 1, int(np.searchsorted(cum, base + budget, side="right")))
        yield a, b
        a = b


def scan_histograms(
    hist_gq: np.ndarray,
    hist_hq: np.ndarray,
    hist_c: np.ndarray,
    node_gq: np.ndarray,
    node_hq: np.ndarray,
    node_n: np.ndarray,
    bin_offset: np.ndarray,
    shift: int,
    lambda_: float,
    *,
    workspace: WorkspaceArena | None = None,
):
    """Best split per node from global histogram tables, one pass per level.

    Slot ``j`` of an attribute with bins ``lo..hi-1`` puts bins ``lo..j``
    left: the interior cut ``j - lo + 1`` below ``hi - 1``, else the
    present|missing boundary (cut ``hi - lo``, ``dir=False``).  Only
    *candidate* slots are scored: interior slots whose bin has
    ``hist_c > 0``, plus every attribute's boundary.  Dropping the rest
    changes no output, because of two invariants:

    * an interior slot ``j > lo`` over an empty bin has the left statistics
      of slot ``j - 1``, hence a bit-equal gain, direction and validity, and
      the first maximum already goes to the earlier slot; at ``j == lo`` it
      has ``lc == 0`` and is invalid;
    * a cell with ``hist_c == 0`` has ``hist_gq == hist_hq == 0`` (true of
      accumulated tables, and of subtraction-derived ones since
      ``parent - child`` is exact), so skipping it leaves every running sum
      unchanged.

    One int64 ``cumsum`` per table over the kept cells, minus each
    (node, attribute) segment's prefix, gives every candidate's left
    statistics exactly; each attribute's present total is the left sum at
    its boundary.  An interior slot scores the better of missing-right and
    missing-left (``dir=True`` if missing-left wins or ties); each node
    takes its first maximum; a node with no valid one gets ``gain=-inf``,
    ``attr = cut = -1``.  Rows go in chunks of at most ``_SCAN_CELLS``
    candidates (a single row may exceed it), found from occupancy masks of
    at most ``4 * _SCAN_CELLS`` bytes, so temporaries do not grow with
    ``n_active``.  The candidate gain buffers are views into ``workspace``
    (a fresh :class:`~repro.core.workspace.WorkspaceArena` when omitted),
    so a trainer's refit reuses them.  Floats appear only at the gain
    evaluation, so any two callers holding the same tables compute
    bit-identical results.

    Returns ``(best_gain, best_attr, best_cut, best_dir, best_lgq,
    best_lhq, best_ln)`` -- left-child statistics stay in fixed point so the
    caller can propagate child stats with exact integer subtraction.
    """
    inv = inv_scale(shift)
    n_active, total_bins = hist_gq.shape
    nbins = np.diff(bin_offset)
    n_attr = nbins.size
    slot_attr = np.repeat(np.arange(n_attr), nbins)
    bounds = bin_offset[1:] - 1  # boundary slots (every attribute has >= 1 bin)
    is_bound = np.zeros(total_bins, dtype=bool)
    is_bound[bounds] = True

    best_gain = np.full(n_active, -np.inf)
    best_attr = np.full(n_active, -1, dtype=np.int64)
    best_cut = np.full(n_active, -1, dtype=np.int64)
    best_dir = np.zeros(n_active, dtype=bool)
    best_lgq, best_lhq, best_ln = (np.zeros(n_active, dtype=np.int64) for _ in range(3))

    def scan_chunk(occ, r0, kept):
        nr = kept.size
        rows = slice(r0, r0 + nr)
        flat = np.flatnonzero(occ)
        col = flat % total_bins
        seg_end = np.flatnonzero(is_bound[col])  # one per (row, attribute)
        seg_len = np.diff(seg_end, prepend=-1)

        def left_and_present(hist):
            # a running sum that wraps int64 still gives exact differences,
            # which stay below 2**50
            cum = np.cumsum(hist[rows].reshape(-1)[flat])
            prefix = np.zeros(seg_end.size, dtype=np.int64)
            prefix[1:] = cum[seg_end[:-1]]
            present = cum[seg_end] - prefix
            np.subtract(cum, np.repeat(prefix, seg_len), out=cum)
            return cum, present

        lgq, pgq = left_and_present(hist_gq)
        lhq, phq = left_and_present(hist_hq)
        lc, pc = left_and_present(hist_c)
        gq_miss = (node_gq[rows, None] - pgq.reshape(nr, n_attr)).reshape(-1)
        hq_miss = (node_hq[rows, None] - phq.reshape(nr, n_attr)).reshape(-1)
        n_miss = (node_n[rows, None] - pc.reshape(nr, n_attr)).reshape(-1)
        node_g = np.repeat(node_gq[rows] * inv, kept)
        node_h = np.repeat(node_hq[rows] * inv, kept)
        m = flat.size
        mr, ml, scratch = buf_mr[:m], buf_ml[:m], (s1[:m], s2[:m])

        eq2_gain(lgq * inv, lhq * inv, node_g, node_h, lambda_, out=mr, scratch=scratch)
        quantize_gain(mr, out=mr, f32=f32[:m], scratch=s1[:m])
        gl_ml = (lgq + np.repeat(gq_miss, seg_len)) * inv  # missing rows join the left
        hl_ml = (lhq + np.repeat(hq_miss, seg_len)) * inv
        eq2_gain(gl_ml, hl_ml, node_g, node_h, lambda_, out=ml, scratch=scratch)
        quantize_gain(ml, out=ml, f32=f32[:m], scratch=s1[:m])
        ml[seg_end] = -np.inf  # a boundary sends missing rows right only
        dirs = ml >= mr
        gains = np.maximum(ml, mr, out=ml)
        valid = lc < np.repeat(pc, seg_len)  # a kept interior slot has lc > 0
        valid[seg_end] = (n_miss > 0) & (pc > 0)
        np.copyto(gains, -np.inf, where=~valid)

        # first max per node: the first candidate hitting the row's maximum
        row_start = np.zeros(nr, dtype=np.int64)
        np.cumsum(kept[:-1], out=row_start[1:])
        top = np.maximum.reduceat(gains, row_start)
        hit = np.flatnonzero(gains == np.repeat(top, kept))
        k = hit[np.searchsorted(hit, row_start)]
        r = np.flatnonzero(top > -np.inf)
        k = k[r]
        c = col[k]
        a = slot_attr[c]
        seg = r * n_attr + a
        d = dirs[k]
        sel = r + r0
        best_gain[sel] = top[r]
        best_attr[sel] = a
        best_cut[sel] = c - bin_offset[a] + 1
        best_dir[sel] = d
        best_lgq[sel] = lgq[k] + np.where(d, gq_miss[seg], 0)
        best_lhq[sel] = lhq[k] + np.where(d, hq_miss[seg], 0)
        best_ln[sel] = lc[k] + np.where(d, n_miss[seg], 0)

    # candidate buffers for eq2_gain's bit-identical allocation-free path; a
    # chunk holds at most _SCAN_CELLS candidates unless it is a single row
    ws = workspace if workspace is not None else WorkspaceArena()
    size = min(n_active * total_bins, max(_SCAN_CELLS, total_bins))
    buf_mr, buf_ml, s1, s2 = (
        ws.buf(f"scan/{k}", size, np.float64) for k in ("mr", "ml", "s1", "s2")
    )
    f32 = ws.buf("scan/f32", size, np.float32)
    # occupancy masks take one byte per cell: a block of 4 * _SCAN_CELLS
    # cells costs half of one int64 candidate array
    block = max(1, 4 * _SCAN_CELLS // max(total_bins, 1))
    for b0 in range(0, n_active if total_bins else 0, block):
        occ = hist_c[b0:b0 + block] > 0
        occ[:, bounds] = True
        kept = np.count_nonzero(occ, axis=1)
        for a, b in _row_chunks(kept, _SCAN_CELLS):
            scan_chunk(occ[a:b], b0 + a, kept[a:b])

    return best_gain, best_attr, best_cut, best_dir, best_lgq, best_lhq, best_ln


def leaf_values(
    node_gq: np.ndarray,
    node_hq: np.ndarray,
    shift: int,
    learning_rate: float,
    lambda_: float,
) -> np.ndarray:
    """Leaf weights ``-eta * G / (H + lambda)`` from fixed-point node stats.

    One shared expression so monolithic and distributed leaves agree to the
    last bit.
    """
    inv = inv_scale(shift)
    return -learning_rate * (node_gq * inv) / (node_hq * inv + lambda_)
