"""Flattened-ensemble predictor: all trees as one set of contiguous arrays.

Every ensemble prediction goes through :class:`FlatEnsemble` -- serving,
:meth:`GBDTModel.predict <repro.core.booster_model.GBDTModel.predict>` and
``staged_predict``.  It packs the whole ensemble once:

* node arrays of every tree are concatenated (``tree_offset[t]`` is tree
  ``t``'s slice start, node ids are rebased to global ids);
* nodes are renumbered in BFS order so an internal node's children are
  adjacent -- the right child is always ``left + 1`` and the next node is
  computed arithmetically instead of via a second gather;
* leaves *self-loop* (``left[leaf] == leaf``, ``step[leaf] == 0``) so the
  level-wise sweep needs no per-level leaf masking.

Prediction then routes every (row, tree) pair at once, level by level, with
the frontier compacted as pairs settle into leaves.  Rows are processed in
chunks sized to keep the pair temporaries cache-resident.  A row's leaf
values are summed in training's order, ``((base_score + v0) + v1) + ...``,
so its prediction has the same bits whatever batch it arrives in.

Thresholds and feature values stay ``float64``: the flattened predictor must
be bit-identical to the per-row oracle (``DecisionTree.predict_row``), not
merely close -- a rounded threshold flips a branch and moves the prediction
by a whole leaf value.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix, predict_rows
from ..obs import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.booster_model import GBDTModel
    from ..core.tree import DecisionTree

__all__ = ["FlatEnsemble"]

#: target number of (row, tree) pairs routed per chunk; keeps the per-level
#: temporaries (a handful of arrays of this length) inside the outer caches
_PAIRS_PER_CHUNK = 131072
#: most cells of a CSR input densified at once (4 MiB of float64), so a
#: model with few trees does not densify a wide input whole
_CSR_CELLS_PER_CHUNK = 1 << 19


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
        for tree in trees:
            packed = _pack_tree(tree, offset=offsets[-1])
            for key, arr in packed.items():
                if key == "depth":
                    depths.append(arr)
                else:
                    chunks[key].append(arr)
            offsets.append(offsets[-1] + packed["left"].size)

        def cat(key: str, dtype) -> np.ndarray:
            parts = chunks[key]
            return (
                np.concatenate(parts).astype(dtype)
                if parts
                else np.empty(0, dtype=dtype)
            )

        attr, step = cat("attr", np.int32), cat("step", np.int32)
        need = _width(attr, step)
        if n_features is None:
            n_features = need
        elif need > n_features:
            raise ValueError(
                f"tree tests attribute {need - 1} but n_features={n_features}"
            )
        return cls(
            tree_offset=np.asarray(offsets, dtype=np.int32),
            left=cat("left", np.int32),
            step=step,
            attr=attr,
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

    def __repr__(self) -> str:
        return (
            f"FlatEnsemble(n_trees={self.n_trees}, n_nodes={self.n_nodes}, "
            f"max_depth={self.max_depth})"
        )

    # ------------------------------------------------------------ prediction
    def predict(
        self, X: CSRMatrix | DenseMatrix | np.ndarray, *, n_trees: int | None = None
    ) -> np.ndarray:
        """Margin predictions for every row of ``X`` (``base_score`` included)
        from the first ``n_trees`` trees (all by default; clamped to
        ``[0, self.n_trees]``), each summed in boosting order.

        Dense ``nan`` cells and absent CSR entries are missing values routed
        by ``default_left``.  ``X`` must be as wide as the trees used test.
        """
        k = self.n_trees if n_trees is None else min(max(0, n_trees), self.n_trees)
        end = self.tree_offset[k]
        width = self.n_features if k == self.n_trees else _width(self.attr[:end], self.step[:end])
        rows = predict_rows(X, width)
        out = np.full(rows.shape[0], self.base_score, dtype=np.float64)
        for block, margins in self._sweep(rows, k):
            out[block] = margins[-1]
        return out

    def staged_predict(self, X: CSRMatrix | DenseMatrix | np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows)`` running margins: row ``t`` equals
        ``predict(X, n_trees=t + 1)`` bit for bit."""
        rows = predict_rows(X, self.n_features)
        out = np.empty((self.n_trees, rows.shape[0]), dtype=np.float64)
        for block, margins in self._sweep(rows, self.n_trees):
            out[:, block] = margins
        return out

    def _sweep(self, rows: CSRMatrix | np.ndarray, k: int) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(row slice, margins)`` per row chunk, where row ``j`` of
        the ``(k, rows)`` margins is ``base_score`` plus the first ``j + 1``
        trees' leaf values, added one tree at a time in boosting order
        (nothing for no rows or no trees).  A CSR input is densified one
        chunk at a time, of at most ``_CSR_CELLS_PER_CHUNK`` cells."""
        n = rows.shape[0]
        if n == 0 or k == 0:
            return
        chunk = max(1, _PAIRS_PER_CHUNK // k)
        dense = isinstance(rows, np.ndarray)
        if not dense:
            chunk = min(chunk, max(1, _CSR_CELLS_PER_CHUNK // max(rows.shape[1], 1)))
        with span("flat_predict", rows=n, trees=k):
            for lo in range(0, n, chunk):
                hi = min(n, lo + chunk)
                block = rows[lo:hi] if dense else rows.to_dense(np.nan, lo, hi).values
                margins = self._route_block(block, k)
                margins[0] += self.base_score  # == base + v0: addition commutes
                # one whole-row add per tree, in tree order (never pairwise)
                yield slice(lo, hi), np.cumsum(margins, axis=0, out=margins)

    def _route_block(self, dense: np.ndarray, k: int) -> np.ndarray:
        """``(k, rows)`` leaf values of the first ``k`` trees for one row block."""
        n, d = dense.shape
        flat_x = np.ascontiguousarray(dense).reshape(-1)
        has_nan = bool(np.isnan(flat_x).any())
        roots = self.tree_offset[:k]
        # one (tree, row) pair per slot, tree-major; all start at their root
        cur = np.repeat(roots, n)
        row_base = np.broadcast_to(np.arange(n, dtype=np.int64) * d, (k, n)).reshape(-1)
        active = None  # None means "every pair", else global slot indices
        a_cur, a_row = cur, row_base
        for _ in range(int(self.tree_depths[:k].max())):
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
        return self.value.take(cur).reshape(k, n)

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


def _width(attr: np.ndarray, step: np.ndarray) -> int:
    """Columns a run of flat nodes tests: one past its largest split
    attribute (leaves hold ``attr=0`` but test nothing)."""
    return int(attr[step == 1].max(initial=-1)) + 1


def _pack_tree(tree: "DecisionTree", *, offset: int) -> dict[str, np.ndarray]:
    """BFS-renumber one tree into the flat node encoding.

    BFS enqueues both children of a node together, so in the new numbering
    the right child always directly follows the left -- the invariant the
    arithmetic child step relies on, whatever order the source arrays used.
    The walk trusts its input: the tree API and ``DecisionTree.from_dict``
    only produce trees in which the root reaches every node exactly once.
    """
    n = tree.n_nodes
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
