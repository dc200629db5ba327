"""Histogram-based (approximate) GBDT training on the simulated device.

The paper's Section V positions GPU-GBDT against approximate trainers:
XGBoost's quantile proposals [3], [7] and LightGBM, which "only supports
finding the best split points approximately".  This module implements that
family on the same substrate so the exact-vs-approximate trade-off is
measurable inside the reproduction:

* attribute values are quantized once into at most ``max_bins`` quantile
  bins (:mod:`repro.approx.quantile`);
* each level accumulates per-(node, attribute, bin) gradient histograms
  with one atomic-scatter pass over the present entries -- **no sorted-list
  partitioning and no per-entry prefix sums**, the structural reason
  histogram methods are cheap; the same walk of the entries first routes
  the rows of the nodes that just split, so a tree of depth D reads the
  entry stream D + 1 times;
* candidate splits are the bin boundaries; missing values take the learned
  default direction exactly as in the exact trainer;
* one grow loop serves both growth policies: it keeps a list of open
  leaves, scores the unscored ones in one pass, and a selection rule picks
  which to split -- every one (``"depthwise"``, a level at a time) or the
  one with the highest gain (``"lossguide"``, LightGBM's leaf-wise growth
  bounded by ``max_leaves``).

When every attribute has at most ``max_bins`` distinct values the candidate
set coincides with the exact trainer's, so the learned *partitions* (tree
structure, gains, instance counts, training predictions) match exactly --
only thresholds sit at bin edges instead of value midpoints.  On truly
continuous data the trees genuinely differ: that is the approximation.

Histogram statistics accumulate in **fixed-point int64**
(:mod:`repro.approx.fixedpoint`): each round's gradients are quantized once
onto a power-of-two grid chosen from their global magnitudes, and every
per-(node, attribute, bin) sum is an exact integer.  Resolution (~2**-40)
sits far below the float32 gain quantization that decides splits, so trees
are indistinguishable from full-precision training -- and because integer
sums are order-independent, the row-sharded data-parallel trainer
(:mod:`repro.dist`) that ring-allreduces the same tables is **byte-identical**
to this trainer for any worker count.

The boosting rounds are the shared :class:`~repro.core.boosting.
BoostingDriver` loop; this family supplies ``_setup`` (quantize into the
entry stream), ``_sample`` (GOSS, or every row) and ``_grow_tree`` (quantize
the round's gradients, then the grow loop above).
"""

from __future__ import annotations

import numpy as np

from ..core.boosting import BoostingDriver
from ..core.params import GBDTParams
from ..core.sampling import GossSample, goss_sample
from ..core.smartgd import GradientComputer
from ..core.tree import DecisionTree
from ..data.matrix import CSRMatrix
from ..data.sorted_columns import build_sorted_columns
from ..gpusim.kernel import GpuDevice
from ..losses import goss_weighted_gradients
from ..obs import get_registry, span
from .fixedpoint import choose_shift, quantize_gradients
from .histops import (
    accumulate_histograms,
    leaf_values,
    plan_sibling_builds,
    scan_histograms,
    subtract_child_histogram,
)
from .quantile import BinSpec, bin_column_values, build_bins

__all__ = ["HistogramGBDTTrainer"]

#: best-split fields, in the order :func:`scan_histograms` returns them
_BEST = ("gain", "attr", "cut", "dir", "lgq", "lhq", "ln")
#: one open leaf of the grow loop: tree node id, fixed-point stats, depth,
#: and its best split once scored
_LEAF = np.dtype(
    [("tid", np.int64), ("gq", np.int64), ("hq", np.int64), ("n", np.int64),
     ("depth", np.int64), ("scored", bool), ("gain", np.float64),
     ("attr", np.int64), ("cut", np.int64), ("dir", bool),
     ("lgq", np.int64), ("lhq", np.int64), ("ln", np.int64)]
)


class HistogramGBDTTrainer(BoostingDriver):
    """LightGBM-style histogram trainer (the paper's "approximate" rival).

    Parameters mirror :class:`~repro.core.trainer.GPUGBDTTrainer`; the extra
    ``max_bins`` knob bounds the per-attribute quantile resolution.

    ``use_subtraction`` enables the sibling-subtraction trick (build only
    the smaller child's histogram per sibling pair, derive the other as
    ``parent - built``; see :mod:`repro.approx.histops`).  It is exact in
    fixed point, so models are **byte-identical** with the knob on or off.
    The per-level histogram tables (and gradient buffers) live in the
    trainer's reusable :class:`~repro.core.workspace.WorkspaceArena`
    (``self.workspace``).

    ``grow_policy`` selects which open leaves the one grow loop splits:
    ``"depthwise"`` splits all of them (a level at a time, with sibling
    subtraction); ``"lossguide"`` splits the one with the highest gain
    until the tree holds ``max_leaves`` leaves (0 = unbounded), scoring the
    two children of each split in one pass without subtraction.  Both
    respect ``params.max_depth``.

    GOSS (``params.goss_a < 1``) works under either policy: each round
    keeps the top-``a`` fraction of rows by |gradient| plus an amplified
    ``b``-sample of the rest (see :func:`repro.core.sampling.goss_sample`).
    Sampled training is not byte-identical to full-data training -- it is
    pinned by a differential accuracy gate instead (``tests/test_goss.py``).
    ``subsample`` and ``colsample_bytree`` are rejected: this family does
    not implement them.

    ``fit`` is the shared :class:`~repro.core.boosting.BoostingDriver`
    loop: ``init_model`` appends ``params.n_trees`` trees, and a resumed
    fit is bit-identical to uninterrupted training, GOSS or not.
    """

    GROW_POLICIES = ("depthwise", "lossguide")
    backend = "histogram"

    def __init__(
        self,
        params: GBDTParams | None = None,
        device: GpuDevice | None = None,
        *,
        max_bins: int = 64,
        row_scale: float = 1.0,
        grow_policy: str = "depthwise",
        max_leaves: int = 0,
        use_subtraction: bool = True,
    ) -> None:
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        if grow_policy not in self.GROW_POLICIES:
            raise ValueError(f"grow_policy must be one of {self.GROW_POLICIES}")
        if max_leaves < 0:
            raise ValueError("max_leaves must be >= 0 (0 = unbounded)")
        super().__init__(params, device, row_scale)
        if self.params.subsample < 1.0 or self.params.colsample_bytree < 1.0:
            raise ValueError(
                "subsample and colsample_bytree are not implemented by the "
                "histogram trainers; sample rows with GOSS (goss_a < 1) instead"
            )
        self.max_bins = int(max_bins)
        self.grow_policy = grow_policy
        self.max_leaves = int(max_leaves)
        self.use_subtraction = bool(use_subtraction)
        self.bins_: BinSpec | None = None

    def _sample(self, round_: int, g: np.ndarray, h: np.ndarray) -> GossSample:
        """GOSS on the *raw* gradients, keyed by the global round index (so a
        warm start replays the identical draw); the reweighting happens
        before the fixed-point shift is chosen, so amplified magnitudes stay
        representable.  Every row when GOSS is off."""
        p = self.params
        goss = goss_sample(p.seed, round_, g, p.goss_a, p.goss_b)
        if goss is None:
            return GossSample(np.ones(g.size, dtype=bool), np.zeros(g.size, dtype=bool), 1.0)
        goss_weighted_gradients(g, h, goss.inst_mask, goss.amplified, goss.factor)
        get_registry().counter(
            "goss_rows_kept_total",
            "rows participating in GOSS-sampled boosting rounds",
        ).inc(goss.n_kept)
        return goss

    # ------------------------------------------------------------- tree grow
    @staticmethod
    def _threshold(spec: BinSpec, a: int, cut: int) -> float:
        """Split threshold for 'left = bins [0, cut)' of attribute ``a``."""
        if cut == spec.n_bins(a):
            # present | missing boundary: every present value goes left
            return -np.finfo(np.float64).max
        return float(spec.flat[spec.offsets[a] + cut - 1])

    def _choose_leaves(self, leaves: np.ndarray, can_split: np.ndarray) -> np.ndarray:
        """Open-leaf positions to split this step (the grow policy's rule).

        Depthwise splits every splittable leaf: one whole level.  Lossguide
        splits the first open leaf with the highest gain; the open list is
        in insertion order, so ties go to the leaf scored first.
        """
        cand = np.flatnonzero(can_split)
        if self.grow_policy == "depthwise" or cand.size == 0:
            return cand
        return cand[np.argmax(leaves["gain"][cand])][None]

    def _grow_tree(
        self,
        X: CSRMatrix,
        g: np.ndarray,
        h: np.ndarray,
        gc: GradientComputer,
        sample: GossSample,
        entries: tuple,
    ) -> DecisionTree:
        """Grow one tree over an insertion-ordered list of open leaves.

        The round's gradients are first quantized onto the fixed-point grid
        of :meth:`_round_shift`.  Each step scores the open leaves not yet
        scored in one :meth:`_find_splits` call, settles those that cannot
        split (no candidate, gain <= ``gamma``), and splits the ones
        :meth:`_choose_leaves` picks, appending their children.  Leaves at
        ``max_depth`` are never scored; they and whatever is still open
        when growth stops (lossguide's ``max_leaves``) settle at the end.
        ``inst2local`` maps each row to its open leaf's position, -1 once
        settled or left out by GOSS.

        The histograms a step scores are built by the entry pass of the
        step before, in the same walk that routes the rows of the leaves it
        split (:meth:`_route_and_accumulate`); the root's by a route-free
        pass.  A tree of depth D thus walks the entry stream D + 1 times.
        """
        p = self.params
        device = self.device
        spec = self.bins_
        bin_offset = spec.bin_offset
        total_bins = int(bin_offset[-1])
        lossguide = self.grow_policy == "lossguide"
        subtracting = self.use_subtraction and not lossguide
        shift = self._round_shift(g, h)
        gq, hq = quantize_gradients(g, h, shift)

        # rows GOSS left out start settled (-1): they touch no histogram, no
        # node count, and receive their leaf value by traversal later.
        # Their (g, h) were zeroed, so full-array sums stay correct.
        inst2local = np.where(sample.inst_mask, 0, -1).astype(np.int64)
        root_gq, root_hq, root_n = self._root_sums(gq, hq, sample.n_kept)
        tree = DecisionTree()
        tree.add_root(root_n)
        leaves = np.zeros(1, dtype=_LEAF)
        leaves["gq"], leaves["hq"], leaves["n"] = root_gq, root_hq, root_n
        # last scored batch's level tables + which of its locals split: the
        # subtraction parents of the next level
        parent_ctx = None

        def level_tables(depth: int, n_active: int) -> tuple:
            # one arena set per depth parity: a level's tables stay intact
            # as its children's subtraction parents while those are built
            return tuple(
                self.workspace.buf2d(f"hist/{k}/{depth & 1}", n_active, total_bins, np.int64)
                for k in ("gq", "hq", "c")
            )

        def capped() -> bool:
            # lossguide stops once the tree holds max_leaves leaves
            return lossguide and 0 < self.max_leaves <= tree.n_leaves

        def splittable() -> np.ndarray:
            return leaves["scored"] & (leaves["attr"] >= 0) & (leaves["gain"] > p.gamma)

        def settle(mask: np.ndarray) -> None:
            idx = np.flatnonzero(mask)
            values = np.zeros(leaves.size)
            values[idx] = leaf_values(
                leaves["gq"][idx], leaves["hq"][idx], shift, p.learning_rate, p.lambda_
            )
            for loc in idx:
                tree.set_leaf(int(leaves["tid"][loc]), float(values[loc]))
            safe = np.maximum(inst2local, 0)
            ids = np.flatnonzero((inst2local >= 0) & mask[safe])
            gc.on_leaves(ids, values[inst2local[ids]])
            inst2local[ids] = -1

        # tables of the leaves the next step scores and which of their rows
        # the last pass built (the others are derived by subtraction)
        tables = build_locals = None
        if p.max_depth > 0 and not capped():
            tables, build_locals = level_tables(0, 1), np.zeros(1, dtype=np.int64)
            with device.phase("find_split"):
                self._route_and_accumulate(
                    gq, hq, *entries, inst2local,
                    batch=(np.zeros(1, dtype=np.int64), tables, build_locals),
                )

        while not capped():
            todo = np.flatnonzero(~leaves["scored"] & (leaves["depth"] < p.max_depth))
            if todo.size:
                depth = int(leaves["depth"][todo[0]])
                batch_of = np.full(leaves.size + 1, -1, dtype=np.int64)  # settled (-1) -> -1
                batch_of[todo] = np.arange(todo.size)
                with device.phase("find_split"), span(
                    "find_split", depth=depth, nodes=todo.size
                ):
                    best = self._find_splits(
                        tables, build_locals, shift, bin_offset, leaves["gq"][todo],
                        leaves["hq"][todo], leaves["n"][todo],
                        parent=parent_ctx, depth=depth,
                    )
                for field, values in zip(_BEST, best):
                    leaves[field][todo] = values
                leaves["scored"][todo] = True
            can_split = splittable()
            unsplittable = leaves["scored"] & ~can_split

            with device.phase("split_node"), span("split_node"):
                if unsplittable.any():
                    settle(unsplittable)
                chosen = self._choose_leaves(leaves, can_split)
                if not chosen.size:
                    break
                is_chosen = np.zeros(leaves.size, dtype=bool)
                is_chosen[chosen] = True
                kept = np.flatnonzero(~unsplittable & ~is_chosen)
                k = chosen.size
                children = np.zeros(2 * k, dtype=_LEAF)
                for j, loc in enumerate(chosen):
                    leaf = leaves[loc]
                    a, cut = int(leaf["attr"]), int(leaf["cut"])
                    lid, rid = tree.split_node(
                        int(leaf["tid"]), a, self._threshold(spec, a, cut),
                        bool(leaf["dir"]), float(leaf["gain"]),
                        n_left=int(leaf["ln"]), n_right=int(leaf["n"] - leaf["ln"]),
                    )
                    children["tid"][2 * j : 2 * j + 2] = lid, rid

                # routing: a chosen leaf's rows go to its children 2j (left)
                # or 2j + 1 (right), the others keep their leaf's new position
                split = leaves[chosen]
                new_local_of = np.full(leaves.size, -1, dtype=np.int64)
                new_local_of[kept] = np.arange(kept.size)
                new_local_of[chosen] = kept.size + 2 * np.arange(k, dtype=np.int64)
                attr_of = np.full(leaves.size, -2, dtype=np.int64)
                attr_of[chosen] = split["attr"]
                gcut_of = np.zeros(leaves.size, dtype=np.int64)
                gcut_of[chosen] = bin_offset[split["attr"]] + split["cut"]
                side_of = np.zeros(leaves.size, dtype=np.int64)
                side_of[chosen] = np.where(split["dir"], 0, 1)

                for field in ("gq", "hq", "n"):
                    left = split["l" + field]
                    children[field][0::2] = left
                    children[field][1::2] = split[field] - left
                children["depth"] = np.repeat(split["depth"] + 1, 2)
                leaves = np.concatenate([leaves[kept], children])

                # the next step scores the children unless they sit at
                # max_depth or the split reached lossguide's cap; depthwise,
                # their locals (2j, 2j+1) pair under this batch's local
                # batch_of[chosen[j]] and only the smaller one is built
                next_batch = parent_ctx = None
                if children["depth"][0] < p.max_depth and not capped():
                    batch_local = np.full(leaves.size, -1, dtype=np.int64)
                    batch_local[kept.size:] = np.arange(2 * k)
                    if subtracting:
                        build_locals, derive_locals = plan_sibling_builds(children["n"])
                        parent_ctx = (tables, batch_of[chosen], derive_locals)
                    else:
                        build_locals = np.arange(2 * k)
                    tables = level_tables(int(children["depth"][0]), 2 * k)
                    next_batch = (batch_local, tables, build_locals)
                inst2local = self._route_and_accumulate(
                    gq, hq, *entries, inst2local,
                    route=(attr_of, gcut_of, side_of, new_local_of), batch=next_batch,
                )

        still_open = ~leaves["scored"] | splittable()
        if still_open.any() and (inst2local >= 0).any():
            settle(still_open)
        return tree

    # ---------------------------------------------------------- split search
    def _find_splits(
        self, tables, build_locals, shift, bin_offset, node_gq, node_hq, node_n,
        parent=None, depth=0,
    ):
        """Reduce, complete and scan one batch of leaves' histograms.

        ``tables`` are the batch's level tables ``(hist_gq, hist_hq,
        hist_c)``, full ``(n_active, total_bins)`` arena views whose rows
        ``build_locals`` hold this shard's sums, accumulated by
        :meth:`_route_and_accumulate`.  The shared kernels of
        :mod:`repro.approx.histops` (also driven, with a ring allreduce in
        between, by :mod:`repro.dist.trainer`) do the rest, plus this
        device's cost charges.

        ``parent`` carries the previous level's *global* tables, the locals
        that split and the derived locals ``(p_tables, split_locals,
        derive_locals)``: then ``build_locals`` holds only the smaller child
        of each sibling pair -- roughly halving both the scatter work and,
        distributed, the allreduce payload -- and each sibling row is
        derived in place as ``parent_row - built_row``.  Returns the scan
        results; the tables are complete and global afterwards.
        """
        device = self.device
        p = self.params
        n_active = node_n.size
        total_bins = int(bin_offset[-1])

        self._reduce_histograms(tables, build_locals)
        if parent is not None:
            (p_gq, p_hq, p_c), parent_locals, derive_locals = parent
            hist_gq, hist_hq, hist_c = tables
            with span(
                "hist.subtract", depth=depth, derived=int(derive_locals.size)
            ):
                # pair j's parent row: both operands are global tables, so
                # the derived sibling is the global histogram, exactly
                for pl, bl, dl in zip(parent_locals, build_locals, derive_locals):
                    subtract_child_histogram(
                        p_gq[pl], p_hq[pl], p_c[pl], hist_gq[bl], hist_hq[bl], hist_c[bl],
                        out=(hist_gq[dl], hist_hq[dl], hist_c[dl]),
                    )
                device.launch(
                    "subtract_sibling_histograms",
                    elements=derive_locals.size * total_bins,
                    flops_per_element=3.0,
                    coalesced_bytes=derive_locals.size * total_bins * 72,
                )
                get_registry().counter(
                    "subtract_skipped_total",
                    "sibling histograms derived by subtraction instead of built",
                ).inc(int(derive_locals.size))
        device.launch(
            "scan_histograms_for_best_split",
            elements=n_active * total_bins,
            flops_per_element=30.0,
            coalesced_bytes=n_active * total_bins * 32,
        )
        return scan_histograms(
            *tables, node_gq, node_hq, node_n, bin_offset, shift, p.lambda_,
            workspace=self.workspace,
        )

    # -------------------------------------------------- distribution hooks
    # Every quantity whose value must be *global* for the grown trees to be
    # well-defined flows through one of these methods (or the driver's
    # ``_base_score`` / ``_global_rows``).  The single-process
    # trainer computes them locally; the row-sharded worker trainer of
    # :mod:`repro.dist` overrides them with collectives.  Because the
    # surrounding grow loop is shared (not duplicated), W-worker training is
    # byte-identical to single-process training by construction: the hooks
    # return the same values (exact integer/max reductions), and everything
    # downstream is the same code.

    def _setup(self, X: CSRMatrix) -> tuple:
        """Quantize the training matrix into the per-entry stream.

        Sets ``bins_`` and returns the entry handles ``(ent_inst, ent_gbin,
        ent_attr)``.  The in-memory trainer materializes the full (instance
        id, global bin, attribute) arrays on the device; the out-of-core
        trainer (:mod:`repro.stream.trainer`) overrides this to build
        spillable row-range blocks instead and returns ``None`` handles,
        with :meth:`_entry_chunks` iterating its block store.
        """
        device = self.device
        n, d = X.shape
        csc = X.to_csc()
        cols = build_sorted_columns(csc, device)
        spec = self._bin_spec(cols)
        ent_bin = bin_column_values(spec, cols)
        ent_inst = cols.inst
        ent_attr = np.repeat(
            np.arange(d, dtype=np.int64), np.diff(cols.col_offsets)
        )
        device.launch(
            "quantize_to_bins",
            elements=X.nnz,
            flops_per_element=np.log2(max(self.max_bins, 2)),
            coalesced_bytes=X.nnz * (8 + 4),
        )
        # device state: per-entry (instance id, global bin id) -- the
        # quantized matrix replaces the sorted value lists entirely
        bin_offset = spec.bin_offset
        ent_gbin = bin_offset[ent_attr] + ent_bin
        total_bins = int(bin_offset[-1])
        device.transfer("upload_quantized_matrix", X.nnz * 8 + total_bins * 8)
        mem = device.memory
        nnz_full = X.nnz * device.work_scale
        n_full = n * self.row_scale
        mem.alloc("quantized_entries", nnz_full * 8)
        mem.alloc("gradients_gh", n_full * 8)
        mem.alloc("predictions", n_full * 4)
        mem.alloc("instance_to_node", n_full * 4)
        # two resident level-table generations (the arena's parity
        # ping-pong): the previous level's tables stay live as the
        # subtraction parents (sibling = parent - built child, see
        # _find_splits) while the current level's are built; bins scale
        # with the full-scale dimensionality
        mem.alloc(
            "level_histograms",
            total_bins * device.seg_scale * 4 * 16,
        )
        self.bins_ = spec
        return ent_inst, ent_gbin, ent_attr

    def _entry_chunks(self, ent_inst, ent_gbin, ent_attr, n):
        """The entry stream as ``(instance id, global bin, attribute, lo, hi)``
        chunks, each holding every entry of rows ``[lo, hi)``.

        In memory it is one chunk over rows ``[0, n)``; the streaming
        trainer yields its row-range blocks.  Every chunk scatter-adds into
        the same level tables; int64 adds commute and each instance owns at
        most one entry per attribute, so any chunking gives the same tables
        and routing.
        """
        yield ent_inst, ent_gbin, ent_attr, 0, n

    def _route_and_accumulate(
        self, gq, hq, ent_inst, ent_gbin, ent_attr, inst2local, route=None, batch=None,
    ):
        """One walk of the entry stream: route rows, then build histograms.

        ``route`` (``None``: rows stay put) is ``(attr_of, gcut_of, side_of,
        new_local_of)``, indexed by open-leaf position: a splitting leaf's
        attribute (-2 for the others, which no entry matches) and its cut
        as a global bin (bins at or above it go right), the side (0 = left,
        1 = right) its rows without that attribute take, and each leaf's
        position after the split -- a splitting leaf's left child; the
        others add side 0.  ``batch`` (``None``: accumulate nothing) is
        ``(batch_of, tables, build_locals)``: ``batch_of`` maps the
        positions after routing to the next scored batch (-1 = not in it),
        ``tables`` are that batch's level tables and ``build_locals`` the
        rows to build; they are zeroed here, the other rows left to
        subtraction.

        A chunk covers whole rows, so its entries decide the new positions
        of exactly its rows ``[lo, hi)`` -- rows without entries keep their
        default side -- and those rows' entries are then added to the
        table rows of the leaves they landed in.  Accumulation is charged
        to the ``find_split`` phase and routing to ``split_node``.  Returns
        the new ``inst2local``.
        """
        device = self.device
        n = inst2local.size
        if batch is not None:
            batch_of, tables, build_locals = batch
            for t in tables:
                t[build_locals] = 0
            # batch local -> table row, -1 unless built; the extra last slot
            # maps -1 (not in the batch, or settled) to -1
            row_of = np.full(tables[0].shape[0] + 1, -1, dtype=np.int64)
            row_of[build_locals] = build_locals
            row_of = np.append(row_of[batch_of], -1)
            inst2row = np.empty(n, dtype=np.int64)
        new = inst2local
        if route is not None:
            attr_of, gcut_of, side_of, new_local_of = route
            # each row's attribute to test (settled rows read the -2
            # sentinel) and its side should that attribute be missing
            row_attr = np.append(attr_of, -2)[inst2local]
            side = side_of[inst2local]
            new = np.empty_like(inst2local)
        for c_inst, c_gbin, c_attr, lo, hi in self._entry_chunks(
            ent_inst, ent_gbin, ent_attr, n
        ):
            if route is not None:
                sel = np.flatnonzero(c_attr == row_attr[c_inst])
                inst = c_inst[sel]
                side[inst] = c_gbin[sel] >= gcut_of[inst2local[inst]]
                old = inst2local[lo:hi]
                new[lo:hi] = np.where(old >= 0, new_local_of[old] + side[lo:hi], -1)
            if batch is None:
                continue
            inst2row[lo:hi] = row_of[new[lo:hi]]
            with device.phase("find_split"):
                n_live = accumulate_histograms(gq, hq, c_inst, c_gbin, inst2row, tables)
                device.launch(
                    "accumulate_histograms",
                    elements=n_live,
                    flops_per_element=3.0,
                    coalesced_bytes=n_live * 12,
                    irregular_bytes=n_live * 24,  # atomic adds into node tables
                )
        if route is not None:
            with device.phase("split_node"):
                device.launch(
                    "route_instances_by_bin",
                    elements=n * self.row_scale,
                    flops_per_element=2.0,
                    coalesced_bytes=n * self.row_scale * 9,
                    scale=False,
                )
        return new

    def _bin_spec(self, cols) -> BinSpec:
        """Global quantile cuts (sketch allgather + merge when sharded)."""
        return build_bins(cols, self.max_bins)

    def _round_shift(self, g: np.ndarray, h: np.ndarray) -> int:
        """Fixed-point shift from the *global* gradient extrema."""
        return choose_shift(
            float(np.max(np.abs(g))), float(np.max(np.abs(h))), self._global_rows(g.size)
        )

    def _root_sums(self, gq: np.ndarray, hq: np.ndarray, n: int):
        """Global root statistics ``(sum gq, sum hq, rows)``."""
        return int(gq.sum()), int(hq.sum()), n

    def _reduce_histograms(self, tables, rows):
        """Make rows ``rows`` of the level ``tables`` global, in place (a
        ring allreduce when sharded; one shard's sums already are)."""
