"""The GPU-GBDT training loop: Algorithm 1 on the simulated device.

Per boosting round the trainer:

1. computes gradients (SmartGD or traversal, :mod:`repro.core.smartgd`);
2. grows the tree level by level; at each level one kernel sequence finds
   the best split of **every** active node (:mod:`repro.core.split`) --
   the paper's node x attribute x split-point parallelism;
3. splits the nodes: instances are routed by *position* in the chosen
   segment (entries before the split point go left, matching the sorted
   enumeration exactly), the attribute lists are partitioned
   order-preservingly (:mod:`repro.core.partition`), and the RLE runs are
   split directly or via decompression (:mod:`repro.core.rle_split`);
4. finalizes leaves with weight ``-eta * G / (H + lambda)`` and reports
   them to the gradient computer (SmartGD's "intermediate results").

The grow loop runs over a list of :class:`ColumnShard` -- attribute subsets,
each with its device and per-tree lists.  The single-GPU trainer is the
one-shard case.  :mod:`repro.ext.multigpu` (one shard per device) and
:mod:`repro.ext.outofcore` (host-resident column groups streamed through one
device) are subclasses that build their shards and charge their transfers
through the ``_build_shards`` / ``_share_gradients`` / ``_page_in`` /
``_exchange_winners`` / ``_charge_routing`` / ``_page_out`` hooks; the loop
itself combines the per-shard winners (strictly higher gain wins, ties go
to the lowest global attribute -- the single-shard kernels' own rule).

Every Fig. 9 optimization switch in :class:`~repro.core.params.GBDTParams`
changes the *recorded work* (and sometimes the code path) but never the
resulting trees -- ``tests/test_trainer.py`` asserts tree identity across
all switch combinations and against the independent CPU reference.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Tuple

import numpy as np

from ..data.matrix import CSRMatrix
from ..data.rle import RunLengthColumns, decide_compression, encode_segments
from ..data.sorted_columns import SortedColumns, build_sorted_columns
from ..gpusim.kernel import GpuDevice
from ..gpusim.primitives import bincount_sum
from ..obs import get_registry, span
from .booster_model import GBDTModel, validate_fit
from .params import GBDTParams
from .partition import partition_segments, plan_partition
from .rle_split import split_runs_direct, split_runs_with_decompression
from .sampling import TreeSample, sample_tree
from .smartgd import GradientComputer
from .split import NodeBestSplits, SegmentLayout, find_best_splits_rle, find_best_splits_sparse
from .tree import DecisionTree
from .workspace import IDX_DTYPE, WorkspaceArena

__all__ = ["ColumnShard", "GPUGBDTTrainer", "TrainReport"]


@dataclasses.dataclass
class TrainReport:
    """Side information from a training run."""

    used_rle: bool
    compression_ratio: float
    n_nodes_total: int
    n_leaves_total: int
    #: per-tree node counts, in boosting order
    tree_sizes: list = dataclasses.field(default_factory=list)
    #: deepest leaf over the whole ensemble
    max_depth_seen: int = 0

    @property
    def n_trees(self) -> int:
        return len(self.tree_sizes)

    @property
    def mean_tree_size(self) -> float:
        return float(sum(self.tree_sizes) / len(self.tree_sizes)) if self.tree_sizes else 0.0


@dataclasses.dataclass
class ColumnShard:
    """An attribute subset of the training matrix, held on one device.

    ``cols`` and ``base_rle`` are built once per fit; :meth:`stage` resets
    the per-tree lists (``inst``, ``vals`` or ``rle``, ``layout``) for each
    tree's sampled rows and columns, and the grow loop partitions them
    level by level.  ``workspace`` keeps the shard's buffer names apart
    from every other shard's.
    """

    device: GpuDevice
    #: global attribute ids of the shard's columns, ascending
    attrs: np.ndarray
    cols: SortedColumns
    base_rle: RunLengthColumns | None
    workspace: WorkspaceArena | None = None
    #: global ids of the columns staged for the current tree
    tree_attrs: np.ndarray | None = None
    inst: np.ndarray | None = None
    vals: np.ndarray | None = None
    rle: RunLengthColumns | None = None
    layout: SegmentLayout | None = None

    def stage(self, sample: TreeSample, used_rle: bool) -> bool:
        """Per-tree working copies of the lists; False if no column is drawn.

        On the device this is the first scatter into the double buffer; a
        stochastic round keeps only the sampled rows/columns (an extra
        compaction pass over the staged lists).
        """
        cols = self.cols
        local = np.flatnonzero(np.isin(self.attrs, sample.attrs))
        if local.size == 0:
            return False
        self.tree_attrs = self.attrs[local]
        if sample.inst_mask.all() and local.size == self.attrs.size:
            self.inst = cols.inst.copy()
            self.vals = None if used_rle else cols.values.copy()
            self.rle = self.base_rle
            self.layout = SegmentLayout(cols.col_offsets.copy(), 1, local.size)
        else:
            parts_i, parts_v, lens = [], [], []
            for a in local:
                lo, hi = cols.col_offsets[a], cols.col_offsets[a + 1]
                inst_a = cols.inst[lo:hi]
                keep = sample.inst_mask[inst_a]
                parts_i.append(inst_a[keep])
                parts_v.append(cols.values[lo:hi][keep])
                lens.append(int(keep.sum()))
            self.inst = np.concatenate(parts_i)
            stage_vals = np.concatenate(parts_v)
            offsets = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
            self.layout = SegmentLayout(offsets, 1, local.size)
            self.rle = encode_segments(stage_vals, offsets) if used_rle else None
            self.vals = None if used_rle else stage_vals
        self.device.launch(
            "stage_attribute_lists",
            elements=cols.nnz,
            flops_per_element=0.5,
            coalesced_bytes=cols.nnz * 16,
        )
        return True


def _combine_winners(
    shards: List[ColumnShard], bests: List[NodeBestSplits]
) -> Tuple[NodeBestSplits, np.ndarray]:
    """Per-node winner across shards, with ``attr`` as global attribute ids.

    A shard's split replaces the current winner only on strictly higher
    gain, or on equal gain with a lower global attribute.  Also returns the
    index of the shard each node's winner came from.
    """
    merged, owner = None, np.zeros(bests[0].gain.size, dtype=np.int64)
    for si, (shard, b) in enumerate(zip(shards, bests)):
        gattr = np.where(b.found, shard.tree_attrs[np.maximum(b.attr, 0)], -1)
        b = dataclasses.replace(b, attr=gattr)
        if merged is not None:
            better = b.found & (
                ~merged.found
                | (b.gain > merged.gain)
                | ((b.gain == merged.gain) & (b.attr < merged.attr))
            )
            b = NodeBestSplits(*(
                np.where(better, getattr(b, f.name), getattr(merged, f.name))
                for f in dataclasses.fields(NodeBestSplits)
            ))
            owner[better] = si
        merged = b
    return merged, owner


class GPUGBDTTrainer:
    """Train a GBDT on the simulated GPU.

    Parameters
    ----------
    params:
        Hyper-parameters and optimization switches.
    device:
        Simulated device (scales pre-configured by the caller/harness);
        a fresh Titan X is created when omitted.
    row_scale:
        Full-scale rows per run row, for per-instance kernel accounting.
    dense_memory_model:
        When True, device memory is registered the way the dense GPU
        XGBoost baseline allocates it (n x d cells + node-interleaved
        gradient copies) instead of GPU-GBDT's sparse/RLE layout.  Used by
        :mod:`repro.cpu.gpu_xgboost`.
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        device: GpuDevice | None = None,
        *,
        row_scale: float = 1.0,
        dense_memory_model: bool = False,
    ) -> None:
        self.params = params if params is not None else GBDTParams()
        self.device = device if device is not None else GpuDevice()
        self.row_scale = float(row_scale)
        self.dense_memory_model = dense_memory_model
        #: persistent across fit calls: buffers warm up on the first tree and
        #: are reused for every level of every round thereafter
        self.workspace = WorkspaceArena()
        #: one arena per shard; shard 0 shares the trainer's
        self._shard_arenas = [self.workspace]
        self.report: TrainReport | None = None

    def elapsed_seconds(self) -> float:
        """Modeled device seconds spent so far."""
        return self.device.elapsed_seconds()

    # ----------------------------------------------------------------- setup
    def _register_memory(self, X: CSRMatrix, used_rle: bool, rle: RunLengthColumns | None) -> None:
        """Register full-scale device buffers; raises DeviceOutOfMemory."""
        mem = self.device.memory
        nnz_full = X.nnz * self.device.work_scale
        n_full = X.n_rows * self.row_scale
        if self.dense_memory_model:
            # dense baseline: (fp32 value + int32 instance id) per cell of the
            # n x d matrix, plus node-interleaved g/h copies (Section II-D:
            # "the number of copies equals the number of nodes to split").
            # Gain evaluation reuses per-column workspace, so no separate
            # per-candidate buffer is charged (real-sim must fit, Table II).
            mem.alloc("dense_sorted_cells", nnz_full * 8)
            copies = 2 ** max(self.params.max_depth - 1, 0)
            mem.alloc("node_interleaved_gh", n_full * 8 * copies)
            mem.alloc("predictions", n_full * 4)
            mem.alloc("instance_to_node", n_full * 4)
            return
        if used_rle and rle is not None:
            runs_full = rle.n_runs * self.device.work_scale
            mem.alloc("rle_runs", runs_full * 8)
            mem.alloc("per_candidate_gains", runs_full * 4)
        else:
            mem.alloc("sorted_values", nnz_full * 4)
            mem.alloc("per_candidate_gains", nnz_full * 4)
        mem.alloc("instance_ids", nnz_full * 4)
        # the order-preserving scatter ping-pongs one attribute at a time, so
        # the workspace is two columns' worth of (value, id) pairs -- not a
        # full double buffer (that is what lets GPU-GBDT hold every Table-II
        # dataset while the dense baseline cannot)
        mem.alloc("partition_column_workspace", 2 * (nnz_full / max(X.n_cols, 1)) * 8)
        mem.alloc("gradients_gh", n_full * 8)
        mem.alloc("predictions", n_full * 4)
        mem.alloc("instance_to_node", n_full * 4)

    def _decide_rle(self, cols: SortedColumns) -> bool:
        """The run-wide compression decision, made once on all columns."""
        p = self.params
        return p.use_rle and decide_compression(
            p.rle_policy,
            n_rows=cols.n_rows,
            n_cols=cols.n_cols,
            values=cols.values,
            offsets=cols.col_offsets,
            paper_threshold=p.rle_paper_threshold,
            measured_threshold=p.rle_measured_threshold,
        )

    def _build_shards(self, X: CSRMatrix) -> Tuple[List[ColumnShard], bool]:
        """Sort, compress and upload the columns; one shard on ``device``.

        Runs inside the ``setup`` phase.  Returns the shards and whether
        the run uses RLE.
        """
        device = self.device
        cols = build_sorted_columns(X.to_csc(), device)
        used_rle = self._decide_rle(cols)
        base_rle = encode_segments(cols.values, cols.col_offsets) if used_rle else None
        if used_rle:
            device.launch(
                "rle_compress_initial",
                elements=X.nnz,
                flops_per_element=2.0,
                coalesced_bytes=X.nnz * 8 + base_rle.n_runs * 16,
            )
        # host -> device: instance ids + (compressed) values + targets.
        # RLE shrinks the PCI-e traffic (Section III-C advantage (i)).
        value_bytes = base_rle.n_runs * 8 if used_rle else X.nnz * 4
        device.transfer("upload_training_data", X.nnz * 4 + value_bytes)
        device.transfer("upload_targets", X.n_rows * 4 * self.row_scale, scale=False)
        self._register_memory(X, used_rle, base_rle)
        return [ColumnShard(device, np.arange(X.n_cols, dtype=np.int64), cols, base_rle)], used_rle

    # ------------------------------------------------------------------ hooks
    # Distribution and streaming plug in here; the single-GPU trainer moves
    # nothing between devices, so every hook but the routing charge is a
    # no-op.
    def _round_span_attrs(self) -> dict:
        """Extra attributes for each ``boost_round`` span."""
        return {}

    def _share_gradients(self, n: int) -> None:
        """After the round's gradients are computed on ``device``."""

    def _page_in(self, shard: ColumnShard) -> None:
        """Before a shard's lists are read (split finding, partitioning)."""

    def _exchange_winners(self, shard: ColumnShard, n_active: int) -> None:
        """After a shard found its per-node winners, before they combine."""

    def _charge_routing(self, owners: List[ColumnShard], n: int, d: int, split_n) -> None:
        """After the winning shards routed the instances of split nodes."""
        self.device.launch(
            "update_instance_to_node",
            elements=n * self.row_scale,
            flops_per_element=2.0,
            coalesced_bytes=n * self.row_scale * 9,
            irregular_bytes=split_n * (self.device.work_scale / max(d, 1)) * 4,
            scale=False,
        )

    def _page_out(self, shard: ColumnShard) -> None:
        """After a shard's lists are partitioned."""

    # ------------------------------------------------------------------- fit
    def fit(
        self,
        X: CSRMatrix,
        y: np.ndarray,
        *,
        init_model: GBDTModel | None = None,
    ) -> GBDTModel:
        """Train ``params.n_trees`` *additional* trees on ``(X, y)``.

        With ``init_model`` boosting resumes from the given ensemble: its
        margins seed ``yhat`` (replayed in boosting order, so every float
        add happens in the same sequence as uninterrupted training) and the
        per-round sampling index continues from ``init_model.n_trees``.
        Under the repo's determinism guarantees, ``fit(k trees)`` followed
        by ``fit(m trees, init_model=...)`` is **bit-identical** to a single
        ``fit(k + m trees)`` -- the differential tests assert byte-equal
        ``to_json`` payloads.  The returned model contains the resumed trees
        followed by the new ones.
        """
        with span(
            "train",
            backend="gpu-gbdt" if not self.dense_memory_model else "xgb-gpu-dense",
            n_trees=self.params.n_trees,
            n_rows=X.n_rows,
            n_cols=X.n_cols,
            warm_start_trees=0 if init_model is None else init_model.n_trees,
        ):
            return self._fit(X, y, init_model)

    def _fit(
        self, X: CSRMatrix, y: np.ndarray, init_model: GBDTModel | None = None
    ) -> GBDTModel:
        p = self.params
        device = self.device
        y = validate_fit(X, y, p, init_model)
        n, d = X.shape
        if p.goss_a < 1.0:
            raise ValueError(
                "GOSS (goss_a < 1) is only implemented by the histogram "
                "trainer; the exact trainer supports uniform subsample="
            )
        init_trees: List[DecisionTree] = [] if init_model is None else list(init_model.trees)
        round_offset = len(init_trees)

        with device.phase("setup"), span("setup"):
            shards, used_rle = self._build_shards(X)
        while len(self._shard_arenas) < len(shards):
            self._shard_arenas.append(WorkspaceArena())
        for shard, arena in zip(shards, self._shard_arenas):
            shard.workspace = arena

        gc = GradientComputer(
            device,
            p.loss_fn,
            y,
            use_smartgd=p.use_smartgd,
            row_scale=self.row_scale,
            X=X,
            workspace=self.workspace,
        )
        if init_trees:
            with device.phase("gradients"):
                gc.warm_start(init_trees)

        registry = get_registry()
        rounds_total = registry.counter(
            "train_rounds_total", "boosting rounds completed"
        )
        nodes_total = registry.counter("train_nodes_total", "tree nodes grown")
        leaves_total = registry.counter("train_leaves_total", "leaves finalized")
        round_seconds = registry.histogram(
            "train_round_seconds", "wall-clock seconds per boosting round"
        )

        trees: List[DecisionTree] = []
        n_nodes_total = 0
        n_leaves_total = 0
        for t in range(p.n_trees):
            # global boosting-round index: resumed rounds continue the
            # sampling sequence exactly where the init model stopped
            t_idx = round_offset + t
            t_round = time.perf_counter()
            with span("boost_round", tree=t_idx, **self._round_span_attrs()):
                with device.phase("gradients"), span("gradients"):
                    g, h = gc.compute()
                self._share_gradients(n)
                sample = sample_tree(
                    p.seed, t_idx, n, d, p.subsample, p.colsample_bytree
                )
                tree = self._grow_tree(X, g, h, shards, used_rle, gc, sample)
                if not sample.inst_mask.all():
                    gc.apply_tree_to(tree, np.flatnonzero(~sample.inst_mask))
                gc.on_tree_finished(tree)
            trees.append(tree)
            n_nodes_total += tree.n_nodes
            n_leaves_total += tree.n_leaves
            rounds_total.inc()
            nodes_total.inc(tree.n_nodes)
            leaves_total.inc(tree.n_leaves)
            round_seconds.observe(time.perf_counter() - t_round)
        runs = [s.base_rle for s in shards if used_rle]
        n_runs = sum(r.n_runs for r in runs)
        ratio = sum(r.n_elements for r in runs) / n_runs if n_runs else 1.0
        registry.gauge(
            "train_compression_ratio", "RLE compression ratio of the last run"
        ).set(ratio)
        self.workspace.publish_metrics()

        self.report = TrainReport(
            used_rle=used_rle,
            compression_ratio=ratio,
            n_nodes_total=n_nodes_total,
            n_leaves_total=n_leaves_total,
            tree_sizes=[t.n_nodes for t in trees],
            max_depth_seen=max((t.max_depth() for t in trees), default=0),
        )
        return GBDTModel(
            trees=init_trees + trees, params=p, base_score=p.loss_fn.base_score(y)
        )

    # ------------------------------------------------------------- tree grow
    def _grow_tree(
        self,
        X: CSRMatrix,
        g: np.ndarray,
        h: np.ndarray,
        shards: List[ColumnShard],
        used_rle: bool,
        gc: GradientComputer,
        sample: TreeSample,
    ) -> DecisionTree:
        p = self.params
        device = self.device
        ws = self.workspace
        n, d = X.shape

        tree = DecisionTree()
        shards = [s for s in shards if s.stage(sample, used_rle)]
        if sample.inst_mask.all():
            inst2local = np.zeros(n, dtype=np.int64)
            n_inc = n
        else:
            inst2local = np.where(sample.inst_mask, 0, -1).astype(np.int64)
            n_inc = sample.n_included
        tree.add_root(n_inc)

        node_tree_ids = np.array([0], dtype=np.int64)
        with device.phase("gradients"), span("gradients"):
            included = np.flatnonzero(sample.inst_mask)
            node_g = bincount_sum(
                device, np.zeros(included.size, np.int64), g[included], 1,
                name="node_gradient_totals",
            )
            node_h = bincount_sum(
                device, np.zeros(included.size, np.int64), h[included], 1,
                name="node_hessian_totals",
            )
        node_n = np.array([n_inc], dtype=np.int64)

        for _depth in range(p.max_depth):
            n_active = node_tree_ids.size
            if n_active == 0:
                break
            with span("find_split", depth=_depth, nodes=n_active):
                bests = []
                for shard in shards:
                    with shard.device.phase("find_split"):
                        self._page_in(shard)
                        find = find_best_splits_rle if used_rle else find_best_splits_sparse
                        bests.append(find(
                            shard.device, shard.rle if used_rle else shard.vals,
                            shard.inst, shard.layout, g, h, node_g, node_h, node_n,
                            lambda_=p.lambda_, setkey_enabled=p.use_custom_setkey,
                            setkey_c=p.setkey_c, workspace=shard.workspace,
                        ))
                        self._exchange_winners(shard, n_active)
            best, owner = _combine_winners(shards, bests)

            split_mask = best.found & (best.gain > p.gamma)

            with device.phase("split_node"), span("split_node", depth=_depth):
                # ---- finalize leaves (nodes that will not split) -----------
                leaf_locals = np.flatnonzero(~split_mask)
                if leaf_locals.size:
                    self._finalize_leaves(
                        tree, gc, node_tree_ids, node_g, node_h, leaf_locals, inst2local
                    )
                if not split_mask.any():
                    inst2local[:] = -1
                    break

                split_locals = np.flatnonzero(split_mask)
                k = split_locals.size

                # ---- tree bookkeeping -------------------------------------
                new_tree_ids = np.empty(2 * k, dtype=np.int64)
                for j, loc in enumerate(split_locals):
                    lid, rid = tree.split_node(
                        int(node_tree_ids[loc]),
                        int(best.attr[loc]),
                        float(best.threshold[loc]),
                        bool(best.default_left[loc]),
                        float(best.gain[loc]),
                        n_left=int(best.left_n[loc]),
                        n_right=int(node_n[loc] - best.left_n[loc]),
                    )
                    new_tree_ids[2 * j] = lid
                    new_tree_ids[2 * j + 1] = rid

                # ---- route instances (positional split) --------------------
                new_local_of = np.full(n_active, -1, dtype=np.int64)
                new_local_of[split_locals] = 2 * np.arange(k, dtype=np.int64)

                default_side = np.where(best.default_left, 0, 1).astype(np.int8)
                side_inst = ws.full("tree/side_inst", n, np.int8, -1)
                local_safe = ws.buf("tree/local_safe", n, IDX_DTYPE)
                np.maximum(inst2local, 0, out=local_safe)
                active = ws.buf("tree/active", n, bool)
                np.greater_equal(inst2local, 0, out=active)
                amask = ws.buf("tree/amask", n, bool)
                np.take(split_mask, local_safe, out=amask)
                np.logical_and(active, amask, out=active)
                side_tmp = ws.buf("tree/side_tmp", n, np.int8)
                np.take(default_side, local_safe, out=side_tmp)
                np.copyto(side_inst, side_tmp, where=active)

                # present entries of the chosen segments override the default;
                # each winner's own shard holds its segment
                owners = []
                for si, shard in enumerate(shards):
                    owned = split_locals[owner[split_locals] == si]
                    if owned.size:
                        _route_present(shard, best, owned, side_inst)
                        owners.append(shard)
                self._charge_routing(owners, n, d, node_n[split_locals].sum())

                # ping-pong: read the previous level's map, write this one's
                i2l_next = ws.buf(f"tree/i2l/{_depth % 2}", n, IDX_DTYPE)
                np.take(new_local_of, local_safe, out=i2l_next)
                np.add(i2l_next, side_inst, out=i2l_next)
                np.logical_not(active, out=active)
                np.copyto(i2l_next, -1, where=active)
                inst2local = i2l_next

                # ---- partition the attribute lists -------------------------
                for shard in shards:
                    with shard.device.phase("split_node"):
                        self._page_in(shard)
                        self._partition(
                            shard, side_inst, split_mask, new_local_of, k, _depth, used_rle
                        )
                        self._page_out(shard)

                # ---- child statistics from the chosen splits ---------------
                lg = best.left_g[split_locals]
                lh = best.left_h[split_locals]
                ln = best.left_n[split_locals]
                pg = node_g[split_locals]
                ph = node_h[split_locals]
                pn = node_n[split_locals]
                pp = _depth % 2
                node_g = ws.buf(f"tree/node_g/{pp}", 2 * k, np.float64)
                node_h = ws.buf(f"tree/node_h/{pp}", 2 * k, np.float64)
                node_n = ws.buf(f"tree/node_n/{pp}", 2 * k, IDX_DTYPE)
                node_g[0::2], node_g[1::2] = lg, pg - lg
                node_h[0::2], node_h[1::2] = lh, ph - lh
                node_n[0::2], node_n[1::2] = ln, pn - ln
                node_tree_ids = new_tree_ids

        # nodes still active after the depth budget become leaves
        if node_tree_ids.size and (inst2local >= 0).any():
            with device.phase("split_node"), span("split_node", depth=p.max_depth):
                self._finalize_leaves(
                    tree,
                    gc,
                    node_tree_ids,
                    node_g,
                    node_h,
                    np.arange(node_tree_ids.size),
                    inst2local,
                )
            inst2local[:] = -1
        return tree

    def _partition(
        self, shard: ColumnShard, side_inst: np.ndarray, split_mask: np.ndarray,
        new_local_of: np.ndarray, k: int, depth: int, used_rle: bool,
    ) -> None:
        """Order-preserving split of one shard's lists into the children's."""
        p = self.params
        device = shard.device
        ws = shard.workspace
        layout = shard.layout
        d_used = layout.n_attrs
        seg_node = layout.seg_node()
        seg_attr = layout.seg_attr()
        splitting_seg = split_mask[seg_node]
        child_base = new_local_of[seg_node]
        left_seg = np.where(splitting_seg, child_base * d_used + seg_attr, -1)
        right_seg = np.where(splitting_seg, (child_base + 1) * d_used + seg_attr, -1)

        inst_arr = shard.inst
        side_ent = ws.buf("tree/side_ent", inst_arr.size, np.int8)
        np.take(side_inst, inst_arr, out=side_ent)
        plan = plan_partition(
            int(layout.n_elements * device.work_scale),
            k,
            max_counter_mem_bytes=p.max_counter_mem_bytes,
            use_custom_workload=p.use_custom_workload,
            fixed_thread_workload=p.fixed_thread_workload,
        )
        # the decompression strategy consumes -1-coded drops, so the
        # trash-slot scatter is reserved for the other code paths
        use_trash = not used_rle or p.use_direct_rle
        dest, new_offsets = partition_segments(
            device, layout.offsets, side_ent, left_seg, right_seg, 2 * k * d_used, plan,
            bytes_per_element=8 if used_rle else 16, workspace=ws, drop_to_trash=use_trash,
        )
        n_new = int(new_offsets[-1])
        if use_trash:
            # full-array stable scatter: dropped elements pile into the
            # single trash slot past the end, no boolean compression
            pp = depth % 2
            new_inst = ws.buf(f"tree/inst/{pp}", n_new + 1, IDX_DTYPE)
            new_inst[dest] = inst_arr
            new_inst = new_inst[:n_new]
            if used_rle:
                shard.rle = split_runs_direct(
                    device, shard.rle, side_ent, left_seg, right_seg, 2 * k * d_used,
                    workspace=ws, parity=depth,
                )
            else:
                val_buf = ws.buf(f"tree/vals/{pp}", n_new + 1, np.float64)
                val_buf[dest] = shard.vals
                shard.vals = val_buf[:n_new]
        else:
            # the paper's decompress-and-recompress ablation (Fig. 6)
            keep = dest >= 0
            new_inst = np.empty(n_new, dtype=np.int64)
            new_inst[dest[keep]] = inst_arr[keep]
            shard.rle = split_runs_with_decompression(device, shard.rle, dest, new_offsets)
        shard.inst = new_inst
        shard.layout = SegmentLayout(new_offsets, 2 * k, d_used)

    def _finalize_leaves(
        self,
        tree: DecisionTree,
        gc: GradientComputer,
        node_tree_ids: np.ndarray,
        node_g: np.ndarray,
        node_h: np.ndarray,
        leaf_locals: np.ndarray,
        inst2local: np.ndarray,
    ) -> None:
        """Set leaf weights ``-eta G/(H + lambda)`` and report to SmartGD."""
        p = self.params
        values = np.zeros(node_tree_ids.size)
        values[leaf_locals] = (
            -p.learning_rate * node_g[leaf_locals] / (node_h[leaf_locals] + p.lambda_)
        )
        for loc in leaf_locals:
            tree.set_leaf(int(node_tree_ids[loc]), float(values[loc]))
        is_leaf_local = np.zeros(node_tree_ids.size, dtype=bool)
        is_leaf_local[leaf_locals] = True
        ws = self.workspace
        local_safe = ws.buf("leaf/local_safe", inst2local.size, IDX_DTYPE)
        np.maximum(inst2local, 0, out=local_safe)
        settled = ws.buf("leaf/settled", inst2local.size, bool)
        np.greater_equal(inst2local, 0, out=settled)
        lmask = ws.buf("leaf/lmask", inst2local.size, bool)
        np.take(is_leaf_local, local_safe, out=lmask)
        np.logical_and(settled, lmask, out=settled)
        ids = np.flatnonzero(settled)
        gc.on_leaves(ids, values[inst2local[ids]])
        inst2local[ids] = -1


def _route_present(
    shard: ColumnShard, best: NodeBestSplits, owned: np.ndarray, side_inst: np.ndarray
) -> None:
    """Send the present entries of ``owned`` nodes' chosen segments to their
    side: entries before the split position go left (0), the rest right."""
    layout = shard.layout
    # only the chosen segments' entries: their ranges laid end to end, each
    # entry compared with its segment's split point
    seg = best.seg[owned]
    lo = layout.offsets[seg]
    reps = layout.offsets[seg + 1] - lo
    ent = np.repeat(lo - np.cumsum(reps) + reps, reps)
    ent += shard.workspace.arange(ent.size)
    elem_right = ent >= np.repeat(best.elem_pos[owned], reps)
    side_inst[shard.inst[ent]] = elem_right
