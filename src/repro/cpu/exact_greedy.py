"""Independent sequential exact-greedy GBDT trainer (the xgbst-1 oracle).

This is a deliberately *separate* implementation of Algorithm 1 -- plain
per-node loops over per-attribute sorted lists, the way CPU XGBoost's exact
tree method works -- used to validate that the GPU trainer's fused, segmented
kernels compute the same thing.  The paper performs exactly this check:
"We have compared the trees constructed by GPU-GBDT and the CPU-based
XGBoost, and found that the trees are identical."

It shares *semantics* (candidate ordering, tie-breaking, missing-value
handling, thresholds -- see :mod:`repro.core.split`) but no split-finding
code with the GPU path.  It is intentionally simple rather than fast; the
Table-II CPU baselines are timed through the cost model
(:mod:`repro.cpu.parallel_model`), not through this class's wall clock.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

from ..core.booster_model import GBDTModel, validate_fit
from ..core.params import GBDTParams
from ..core.sampling import sample_tree
from ..core.split import eq2_gain, quantize_gain
from ..core.tree import DecisionTree
from ..data.matrix import CSRMatrix

__all__ = ["ReferenceTrainer"]


@dataclasses.dataclass
class _Candidate:
    gain: float
    attr: int
    pos: int  # entries [0, pos) of the attr's list go left
    threshold: float
    default_left: bool
    left_g: float
    left_h: float
    left_n: int


@dataclasses.dataclass
class _Node:
    tree_id: int
    depth: int
    lists: List[Tuple[np.ndarray, np.ndarray]]  # per attr: (values desc, inst)
    inst_ids: np.ndarray
    g_sum: float
    h_sum: float


def _guarded_midpoint(hi: float, lo: float) -> float:
    """Midpoint of two distinct sorted values with ``lo <= thr < hi`` so the
    predicate ``x > thr`` routes ``hi`` left and ``lo`` right even when the
    midpoint rounds up to ``hi``."""
    thr = (hi + lo) / 2.0
    if thr >= hi:
        thr = np.nextafter(hi, -np.inf)
    return float(thr)


class ReferenceTrainer:
    """Sequential exact-greedy trainer; see module docstring."""

    def __init__(self, params: GBDTParams | None = None) -> None:
        self.params = params if params is not None else GBDTParams()

    # -------------------------------------------------------------- fitting
    def fit(
        self,
        X: CSRMatrix,
        y: np.ndarray,
        *,
        init_model: GBDTModel | None = None,
    ) -> GBDTModel:
        """Train ``params.n_trees`` *additional* trees with per-node scans.

        ``init_model`` resumes boosting exactly like the GPU trainer's
        warm start: margins are replayed tree by tree (the same per-instance
        addition order as uninterrupted training) and the sampling index
        continues from ``init_model.n_trees``, so ``fit(k)`` + resumed
        ``fit(m)`` equals ``fit(k + m)`` bit for bit.
        """
        p = self.params
        y = validate_fit(X, y, p, init_model)
        n, d = X.shape
        if p.goss_a < 1.0:
            raise ValueError(
                "GOSS (goss_a < 1) is only implemented by the histogram "
                "trainer; the exact trainer supports uniform subsample="
            )
        loss = p.loss_fn
        init_trees: List[DecisionTree] = [] if init_model is None else list(init_model.trees)
        round_offset = len(init_trees)

        csc = X.to_csc()
        base_lists: List[Tuple[np.ndarray, np.ndarray]] = []
        for j in range(d):
            rows, vals = csc.column(j)
            order = np.argsort(-vals, kind="stable")  # descending, stable
            base_lists.append((vals[order], rows[order]))

        yhat = np.full(n, loss.base_score(y), dtype=np.float64)
        if init_trees:
            dense_nan = X.to_dense(fill=np.nan).values
            for tree in init_trees:
                yhat += tree.predict(dense_nan)
        trees: List[DecisionTree] = []
        for t in range(p.n_trees):
            t_idx = round_offset + t
            g, h = loss.gradients(y, yhat)
            sample = sample_tree(p.seed, t_idx, n, d, p.subsample, p.colsample_bytree)
            self._tree_attrs = sample.attrs
            if sample.is_trivial:
                tree_lists = base_lists
                included = np.arange(n, dtype=np.int64)
            else:
                tree_lists = []
                for a in sample.attrs:
                    vals_a, inst_a = base_lists[a]
                    keep = sample.inst_mask[inst_a]
                    tree_lists.append((vals_a[keep], inst_a[keep]))
                included = np.flatnonzero(sample.inst_mask)
            tree = DecisionTree()
            tree.add_root(included.size)
            root = _Node(
                tree_id=0,
                depth=0,
                lists=tree_lists,
                inst_ids=included,
                g_sum=float(
                    np.bincount(np.zeros(included.size, np.int64), weights=g[included])[0]
                ),
                h_sum=float(
                    np.bincount(np.zeros(included.size, np.int64), weights=h[included])[0]
                ),
            )
            frontier = [root]
            while frontier:
                nxt: List[_Node] = []
                for node in frontier:
                    cand = None
                    if node.depth < p.max_depth:
                        cand = self._best_split(node, g, h)
                    if cand is None or not (cand.gain > p.gamma):
                        value = -p.learning_rate * node.g_sum / (node.h_sum + p.lambda_)
                        tree.set_leaf(node.tree_id, value)
                        yhat[node.inst_ids] += value
                        continue
                    left, right = self._apply_split(tree, node, cand)
                    nxt.append(left)
                    nxt.append(right)
                frontier = nxt
            if not sample.inst_mask.all():
                excluded = np.flatnonzero(~sample.inst_mask)
                yhat[excluded] += tree.predict(X.select_rows(excluded))
            trees.append(tree)
        return GBDTModel(
            trees=init_trees + trees, params=p, base_score=loss.base_score(y)
        )

    # -------------------------------------------------------- split finding
    def _best_split(self, node: _Node, g: np.ndarray, h: np.ndarray) -> Optional[_Candidate]:
        """Enumerate candidates in the canonical order (interior ascending,
        then the present|missing boundary; lowest attribute first) keeping
        the first strict maximum of the float32-quantized gain."""
        lam = self.params.lambda_
        G, H, n_node = node.g_sum, node.h_sum, node.inst_ids.size
        best: Optional[_Candidate] = None
        for a, (vals, inst) in enumerate(node.lists):
            L = vals.size
            if L == 0:
                continue  # every instance is missing this attribute
            gv = g[inst]
            hv = h[inst]
            cg = np.cumsum(gv)
            ch = np.cumsum(hv)
            g_present, h_present = float(cg[-1]), float(ch[-1])
            g_miss = G - g_present
            h_miss = H - h_present
            n_miss = n_node - L

            if L > 1:
                gl = cg[:-1]
                hl = ch[:-1]
                valid = vals[1:] != vals[:-1]
                gain_mr = quantize_gain(eq2_gain(gl, hl, G, H, lam))
                gain_ml = quantize_gain(eq2_gain(gl + g_miss, hl + h_miss, G, H, lam))
                dirs = gain_ml >= gain_mr
                gains = np.where(valid, np.maximum(gain_ml, gain_mr), -np.inf)
                i = int(np.argmax(gains))  # first maximum
                if np.isfinite(gains[i]) and (best is None or gains[i] > best.gain):
                    dl = bool(dirs[i])
                    best = _Candidate(
                        gain=float(gains[i]),
                        attr=a,
                        pos=i + 1,
                        threshold=_guarded_midpoint(float(vals[i]), float(vals[i + 1])),
                        default_left=dl,
                        left_g=float(gl[i]) + (g_miss if dl else 0.0),
                        left_h=float(hl[i]) + (h_miss if dl else 0.0),
                        left_n=(i + 1) + (n_miss if dl else 0),
                    )
            if n_miss > 0:
                # boundary candidate: all present left | missing right (the
                # mirrored missing|present boundary is the same partition and
                # is not enumerated -- see repro.core.split)
                gain1 = float(
                    quantize_gain(
                        eq2_gain(np.float64(g_present), np.float64(h_present), G, H, lam)
                    )
                )
                if np.isfinite(gain1) and (best is None or gain1 > best.gain):
                    best = _Candidate(
                        gain=gain1,
                        attr=a,
                        pos=L,
                        threshold=float(np.nextafter(vals[-1], -np.inf)),
                        default_left=False,
                        left_g=g_present,
                        left_h=h_present,
                        left_n=L,
                    )
        return best

    # ------------------------------------------------------------- splitting
    def _apply_split(self, tree: DecisionTree, node: _Node, cand: _Candidate) -> Tuple[_Node, _Node]:
        """Route instances positionally and filter every attribute list,
        preserving the descending order (the reference analogue of the GPU's
        order-preserving scatter)."""
        lid, rid = tree.split_node(
            node.tree_id,
            int(self._tree_attrs[cand.attr]),
            cand.threshold,
            cand.default_left,
            cand.gain,
            n_left=cand.left_n,
            n_right=node.inst_ids.size - cand.left_n,
        )
        side = np.full(int(node.inst_ids.max()) + 1, -1, np.int8)
        side[node.inst_ids] = 0 if cand.default_left else 1
        vals_a, inst_a = node.lists[cand.attr]
        side[inst_a[: cand.pos]] = 0
        side[inst_a[cand.pos :]] = 1

        left_lists: List[Tuple[np.ndarray, np.ndarray]] = []
        right_lists: List[Tuple[np.ndarray, np.ndarray]] = []
        for vals, inst in node.lists:
            m = side[inst] == 0
            left_lists.append((vals[m], inst[m]))
            right_lists.append((vals[~m], inst[~m]))

        left_ids = node.inst_ids[side[node.inst_ids] == 0]
        right_ids = node.inst_ids[side[node.inst_ids] == 1]
        left = _Node(
            tree_id=lid,
            depth=node.depth + 1,
            lists=left_lists,
            inst_ids=left_ids,
            g_sum=cand.left_g,
            h_sum=cand.left_h,
        )
        right = _Node(
            tree_id=rid,
            depth=node.depth + 1,
            lists=right_lists,
            inst_ids=right_ids,
            g_sum=node.g_sum - cand.left_g,
            h_sum=node.h_sum - cand.left_h,
        )
        return left, right
