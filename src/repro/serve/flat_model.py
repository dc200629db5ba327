"""Flattened-ensemble predictor: all trees as one set of contiguous arrays.

:meth:`GBDTModel.predict <repro.core.booster_model.GBDTModel.predict>`
historically looped over trees in Python, and each
:meth:`DecisionTree.predict <repro.core.tree.DecisionTree.predict>` call
re-materialized that tree's node lists.  :class:`FlatEnsemble` packs the
whole ensemble once:

* node arrays of every tree are concatenated (``tree_offset[t]`` is tree
  ``t``'s slice start, node ids are rebased to global ids);
* nodes are renumbered in BFS order so an internal node's children are
  adjacent -- the right child is always ``left + 1`` and the next node is
  computed arithmetically instead of via a second gather;
* leaves *self-loop* (``left[leaf] == leaf``, ``step[leaf] == 0``) so the
  level-wise sweep needs no per-level leaf masking.

Prediction then routes every (row, tree) pair at once, level by level, with
the frontier compacted as pairs settle into leaves.  Rows are processed in
chunks sized to keep the pair temporaries cache-resident.

Thresholds and feature values stay ``float64``: the flattened predictor must
be bit-identical to the per-row oracle (``DecisionTree.predict_row``), not
merely close -- a rounded threshold flips a branch and moves the prediction
by a whole leaf value.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix
from ..obs import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.booster_model import GBDTModel
    from ..core.tree import DecisionTree

__all__ = ["FlatEnsemble"]

#: target number of (row, tree) pairs routed per chunk; keeps the per-level
#: temporaries (a handful of arrays of this length) inside the outer caches
_PAIRS_PER_CHUNK = 131072


class FlatEnsemble:
    """An immutable, contiguous-array view of a trained GBDT ensemble.

    Build one with :meth:`from_model` / :meth:`from_trees` (or via
    :meth:`GBDTModel.flatten <repro.core.booster_model.GBDTModel.flatten>`).

    Attributes
    ----------
    tree_offset:
        ``(n_trees + 1,)`` int32; tree ``t`` owns nodes
        ``tree_offset[t]:tree_offset[t + 1]``, its root is ``tree_offset[t]``.
    left:
        Global id of the left child for internal nodes; the node's own id
        for leaves (self-loop).  The right child is always ``left + 1``.
    step:
        1 for internal nodes, 0 for leaves -- ``next = left + step * go_right``.
    attr / threshold / default_left:
        Split condition (leaves hold ``attr=0``, ``threshold=+inf``,
        ``default_left=False``, which routes nothing anywhere: the self-loop
        ignores the test).
    value:
        Leaf prediction (0.0 on internal nodes).
    tree_depths:
        ``(n_trees,)`` max node depth per tree.
    """

    def __init__(
        self,
        *,
        tree_offset: np.ndarray,
        left: np.ndarray,
        step: np.ndarray,
        attr: np.ndarray,
        threshold: np.ndarray,
        default_left: np.ndarray,
        value: np.ndarray,
        tree_depths: np.ndarray,
        base_score: float = 0.0,
        n_features: int = 0,
    ) -> None:
        self.tree_offset = np.asarray(tree_offset, dtype=np.int32)
        self.left = np.asarray(left, dtype=np.int32)
        self.step = np.asarray(step, dtype=np.int32)
        self.attr = np.asarray(attr, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.default_left = np.asarray(default_left, dtype=bool)
        self.value = np.asarray(value, dtype=np.float64)
        self.tree_depths = np.asarray(tree_depths, dtype=np.int32)
        self.base_score = float(base_score)
        self.n_features = int(n_features)
        self._validate()

    def _validate(self) -> None:
        n = self.left.size
        for name in ("step", "attr", "threshold", "default_left", "value"):
            if getattr(self, name).size != n:
                raise ValueError(f"node array {name!r} length mismatch")
        if self.tree_offset.size == 0 or self.tree_offset[0] != 0:
            raise ValueError("tree_offset must start at 0")
        if self.tree_offset[-1] != n:
            raise ValueError("tree_offset must end at the node count")
        if np.any(np.diff(self.tree_offset) < 1):
            raise ValueError("every tree needs at least one node")
        if self.tree_depths.size != self.n_trees:
            raise ValueError("tree_depths length mismatch")
        ids = np.arange(n, dtype=np.int64)
        internal = self.step == 1
        if not np.array_equal(self.left[~internal], ids[~internal]):
            raise ValueError("leaves must self-loop (left[leaf] == leaf)")
        if internal.any():
            child = self.left[internal].astype(np.int64)
            if child.min() < 0 or (child + 1).max() >= n:
                raise ValueError("child id out of range")

    # ------------------------------------------------------------- factories
    @classmethod
    def from_trees(
        cls,
        trees: Sequence["DecisionTree"],
        *,
        base_score: float = 0.0,
        n_features: int | None = None,
    ) -> "FlatEnsemble":
        """Pack ``trees`` (BFS-renumbered per tree) into one flat ensemble."""
        offsets = [0]
        chunks: dict[str, list[np.ndarray]] = {
            "left": [], "step": [], "attr": [], "threshold": [],
            "default_left": [], "value": [],
        }
        depths = []
        max_attr = -1
        for tree in trees:
            packed = _pack_tree(tree, offset=offsets[-1])
            for key, arr in packed.items():
                if key == "depth":
                    depths.append(arr)
                else:
                    chunks[key].append(arr)
            offsets.append(offsets[-1] + packed["left"].size)
            if packed["attr"].size:
                max_attr = max(max_attr, int(packed["attr"].max()))

        def cat(key: str, dtype) -> np.ndarray:
            parts = chunks[key]
            return (
                np.concatenate(parts).astype(dtype)
                if parts
                else np.empty(0, dtype=dtype)
            )

        if n_features is None:
            n_features = max_attr + 1
        elif max_attr >= n_features:
            raise ValueError(
                f"tree tests attribute {max_attr} but n_features={n_features}"
            )
        return cls(
            tree_offset=np.asarray(offsets, dtype=np.int32),
            left=cat("left", np.int32),
            step=cat("step", np.int32),
            attr=cat("attr", np.int32),
            threshold=cat("threshold", np.float64),
            default_left=cat("default_left", bool),
            value=cat("value", np.float64),
            tree_depths=np.asarray(depths, dtype=np.int32),
            base_score=base_score,
            n_features=n_features,
        )

    @classmethod
    def from_model(cls, model: "GBDTModel", *, n_features: int | None = None) -> "FlatEnsemble":
        """Flatten a trained :class:`~repro.core.booster_model.GBDTModel`."""
        return cls.from_trees(
            model.trees, base_score=model.base_score, n_features=n_features
        )

    # ------------------------------------------------------------ inspection
    @property
    def n_trees(self) -> int:
        return self.tree_offset.size - 1

    @property
    def n_nodes(self) -> int:
        return self.left.size

    @property
    def max_depth(self) -> int:
        return int(self.tree_depths.max()) if self.tree_depths.size else 0

    @property
    def mean_depth(self) -> float:
        return float(self.tree_depths.mean()) if self.tree_depths.size else 0.0

    @property
    def nbytes(self) -> int:
        """Resident size of the packed arrays."""
        return sum(
            a.nbytes
            for a in (
                self.tree_offset, self.left, self.step, self.attr,
                self.threshold, self.default_left, self.value, self.tree_depths,
            )
        )

    def __repr__(self) -> str:
        return (
            f"FlatEnsemble(n_trees={self.n_trees}, n_nodes={self.n_nodes}, "
            f"max_depth={self.max_depth})"
        )

    # ------------------------------------------------------------ prediction
    def predict(self, X: CSRMatrix | DenseMatrix | np.ndarray) -> np.ndarray:
        """Margin predictions for every row of ``X`` (``base_score`` included).

        Dense ``nan`` cells and absent CSR entries are missing values routed
        by ``default_left`` -- identical semantics to the per-tree path.
        """
        dense = _as_dense(X)
        n = dense.shape[0]
        if self.n_features and dense.shape[1] < self.n_features:
            raise ValueError(
                f"input has {dense.shape[1]} features, ensemble tests up to "
                f"{self.n_features}"
            )
        out = np.full(n, self.base_score, dtype=np.float64)
        if n == 0 or self.n_trees == 0:
            return out
        with span("flat_predict", rows=n, trees=self.n_trees):
            chunk = max(1, _PAIRS_PER_CHUNK // self.n_trees)
            for lo in range(0, n, chunk):
                hi = min(n, lo + chunk)
                out[lo:hi] += self._route_block(dense[lo:hi])
        return out

    def _route_block(self, dense: np.ndarray) -> np.ndarray:
        """Sum of leaf values over all trees for one row block (no base)."""
        n, d = dense.shape
        T = self.n_trees
        flat_x = np.ascontiguousarray(dense).reshape(-1)
        has_nan = bool(np.isnan(flat_x).any())
        roots = self.tree_offset[:-1]
        # one (row, tree) pair per slot; all pairs start at their tree's root
        cur = np.broadcast_to(roots, (n, T)).reshape(-1).copy()
        row_base = np.repeat(np.arange(n, dtype=np.int64) * d, T)
        active = None  # None means "every pair", else global slot indices
        a_cur, a_row = cur, row_base
        for _ in range(self.max_depth):
            x = flat_x.take(a_row + self.attr.take(a_cur))
            with np.errstate(invalid="ignore"):
                go_left = x > self.threshold.take(a_cur)
            if has_nan:
                miss = np.isnan(x)
                if miss.any():
                    go_left |= miss & self.default_left.take(a_cur)
            # right child = left + 1; leaves have step 0 and stay put
            a_cur = self.left.take(a_cur) + self.step.take(a_cur) * ~go_left
            if active is None:
                cur = a_cur
            else:
                cur[active] = a_cur
            live = self.step.take(a_cur) == 1
            if not live.all():
                if active is None:
                    active = np.flatnonzero(live)
                else:
                    active = active[live]
                if active.size == 0:
                    break
                a_cur = a_cur[live]
                a_row = a_row[live]
        return self.value.take(cur).reshape(n, T).sum(axis=1)

    def predict_one(self, row: np.ndarray) -> float:
        """Single dense row via scalar traversal (the overload fallback --
        no batch temporaries, no queue wait)."""
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        left, step, attr = self.left, self.step, self.attr
        thr, dleft, value = self.threshold, self.default_left, self.value
        total = self.base_score
        for t in range(self.n_trees):
            nid = int(self.tree_offset[t])
            while step[nid]:
                v = row[attr[nid]]
                go_left = bool(dleft[nid]) if math.isnan(v) else v > thr[nid]
                nid = int(left[nid]) + (not go_left)
            total += float(value[nid])
        return total

    def predict_row(self, cols: np.ndarray, vals: np.ndarray) -> float:
        """Single sparse row (``cols`` sorted ascending; absent = missing)."""
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        # entries beyond the last tested attribute can't affect routing but
        # must not crash the scatter
        width = max(self.n_features, int(cols[-1]) + 1 if cols.size else 0)
        row = np.full(width, np.nan)
        if cols.size:
            row[cols] = vals
        return self.predict_one(row)


def _pack_tree(tree: "DecisionTree", *, offset: int) -> dict[str, np.ndarray]:
    """BFS-renumber one tree into the flat node encoding.

    BFS enqueues both children of a node together, so in the new numbering
    the right child always directly follows the left -- the invariant the
    arithmetic child step relies on, whatever order the source arrays used.
    """
    n = tree.n_nodes
    if n == 0:
        raise ValueError("cannot flatten a tree with no nodes")
    old_left = np.asarray(tree.left, dtype=np.int64)
    old_right = np.asarray(tree.right, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)  # BFS position -> old id
    order[0] = 0
    head, filled = 0, 1
    while head < filled:
        old = order[head]
        if old_left[old] >= 0:
            order[filled] = old_left[old]
            order[filled + 1] = old_right[old]
            filled += 2
        head += 1
    if filled != n:
        raise ValueError(f"tree has {n - filled} node(s) unreachable from the root")
    new_id = np.empty(n, dtype=np.int64)  # old id -> BFS position
    new_id[order] = np.arange(n)

    leaf = old_left[order] < 0
    ids = np.arange(n, dtype=np.int64)
    left = np.where(leaf, ids, new_id[np.where(leaf, 0, old_left[order])]) + offset
    threshold = np.asarray(tree.threshold, dtype=np.float64)[order]
    return {
        "left": left,
        "step": np.where(leaf, 0, 1),
        "attr": np.where(leaf, 0, np.asarray(tree.attr, dtype=np.int64)[order]),
        "threshold": np.where(leaf, np.inf, threshold),
        "default_left": np.asarray(tree.default_left, dtype=bool)[order] & ~leaf,
        "value": np.where(leaf, np.asarray(tree.value, dtype=np.float64)[order], 0.0),
        "depth": int(max(tree.depth)) if tree.depth else 0,
    }


def _as_dense(X: CSRMatrix | DenseMatrix | np.ndarray) -> np.ndarray:
    if isinstance(X, CSRMatrix):
        return X.to_dense(fill=np.nan).values
    if isinstance(X, DenseMatrix):
        return X.values
    dense = np.asarray(X, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("expected a 2-D matrix of rows to predict")
    return dense
