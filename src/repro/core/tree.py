"""Decision-tree structure shared by every trainer.

A tree is stored as flat parallel arrays (structure-of-arrays), the layout a
GPU predictor wants: node ``i``'s children, split attribute, threshold,
missing-value default direction and leaf value are all O(1) lookups.

Split semantics (fixed across all trainers so trees are comparable):

* an instance with attribute value ``v`` goes **left iff v > threshold**
  (the sorted lists are descending, so "left" holds the larger values);
* an instance whose attribute is absent/missing follows ``default_left``
  (Section II-A: the direction is learned during training);
* thresholds are midpoints between adjacent distinct sorted values, so any
  value seen at training time routes deterministically.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix

__all__ = ["DecisionTree", "trees_equal"]

_NO_CHILD = -1

#: every per-node list with its element type, in serialization order
_FIELDS = (
    ("left", int), ("right", int), ("attr", int), ("threshold", float),
    ("default_left", bool), ("value", float), ("gain", float),
    ("n_instances", int), ("depth", int),
)


class DecisionTree:
    """A binary regression tree built level by level.

    Nodes are appended in creation order; node 0 is the root.  Internal
    nodes carry ``(attr, threshold, default_left, gain)``; leaves carry
    ``value`` (already multiplied by the learning rate).
    """

    def __init__(self) -> None:
        self.left: List[int] = []
        self.right: List[int] = []
        self.attr: List[int] = []
        self.threshold: List[float] = []
        self.default_left: List[bool] = []
        self.value: List[float] = []
        self.gain: List[float] = []
        self.n_instances: List[int] = []
        self.depth: List[int] = []

    # ------------------------------------------------------------- building
    def add_root(self, n_instances: int = 0) -> int:
        """Create the root; a tree may only have one."""
        if self.n_nodes:
            raise RuntimeError("tree already has a root")
        return self._add_node(depth=0, n_instances=n_instances)

    def _add_node(self, depth: int, n_instances: int) -> int:
        self.left.append(_NO_CHILD)
        self.right.append(_NO_CHILD)
        self.attr.append(-1)
        self.threshold.append(np.nan)
        self.default_left.append(False)
        self.value.append(0.0)
        self.gain.append(0.0)
        self.n_instances.append(int(n_instances))
        self.depth.append(int(depth))
        return self.n_nodes - 1

    def split_node(
        self,
        nid: int,
        attr: int,
        threshold: float,
        default_left: bool,
        gain: float,
        n_left: int = 0,
        n_right: int = 0,
    ) -> tuple[int, int]:
        """Turn leaf candidate ``nid`` into an internal node; returns the new
        ``(left, right)`` child ids."""
        self._check_nid(nid)
        if self.left[nid] != _NO_CHILD:
            raise RuntimeError(f"node {nid} already split")
        if attr < 0:
            raise ValueError("split attribute must be non-negative")
        lid = self._add_node(depth=self.depth[nid] + 1, n_instances=n_left)
        rid = self._add_node(depth=self.depth[nid] + 1, n_instances=n_right)
        self.left[nid] = lid
        self.right[nid] = rid
        self.attr[nid] = int(attr)
        self.threshold[nid] = float(threshold)
        self.default_left[nid] = bool(default_left)
        self.gain[nid] = float(gain)
        return lid, rid

    def set_leaf(self, nid: int, value: float) -> None:
        """Finalize ``nid`` as a leaf with prediction ``value``."""
        self._check_nid(nid)
        if self.left[nid] != _NO_CHILD:
            raise RuntimeError(f"node {nid} is internal, cannot be a leaf")
        self.value[nid] = float(value)

    def _check_nid(self, nid: int) -> None:
        if not (0 <= nid < self.n_nodes):
            raise IndexError(f"node id {nid} out of range")

    # ------------------------------------------------------------ inspection
    @property
    def n_nodes(self) -> int:
        return len(self.left)

    def is_leaf(self, nid: int) -> bool:
        """True iff ``nid`` has no children."""
        self._check_nid(nid)
        return self.left[nid] == _NO_CHILD

    @property
    def n_leaves(self) -> int:
        return sum(1 for l in self.left if l == _NO_CHILD)

    def max_depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        return max(self.depth) if self.depth else 0

    # ------------------------------------------------------------ prediction
    def predict_row(self, cols: np.ndarray, vals: np.ndarray) -> float:
        """Traverse with one sparse row (``cols`` sorted ascending)."""
        nid = 0
        while not self.is_leaf(nid):
            a = self.attr[nid]
            k = np.searchsorted(cols, a)
            if k < cols.size and cols[k] == a:
                go_left = vals[k] > self.threshold[nid]
            else:
                go_left = self.default_left[nid]
            nid = self.left[nid] if go_left else self.right[nid]
        return self.value[nid]

    def apply(self, X: CSRMatrix | DenseMatrix | np.ndarray) -> np.ndarray:
        """Leaf node id each row lands in (sklearn's ``apply``)."""
        return self._route(X)

    def predict(self, X: CSRMatrix | DenseMatrix | np.ndarray) -> np.ndarray:
        """Vectorized level-wise traversal for a whole matrix.

        Dense inputs treat ``nan`` cells as missing; every other value is a
        real observation (including 0.0 -- the dense baseline's semantics).
        """
        return np.asarray(self.value)[self._route(X)]

    def _route(self, X: CSRMatrix | DenseMatrix | np.ndarray) -> np.ndarray:
        if isinstance(X, CSRMatrix):
            dense = X.to_dense(fill=np.nan).values
        elif isinstance(X, DenseMatrix):
            dense = X.values
        else:
            dense = np.asarray(X, dtype=np.float64)
        n = dense.shape[0]
        left = np.asarray(self.left)
        right = np.asarray(self.right)
        attr = np.asarray(self.attr)
        thr = np.asarray(self.threshold)
        dleft = np.asarray(self.default_left)
        cur = np.zeros(n, dtype=np.int64)
        for _ in range(self.max_depth() + 1):
            internal = left[cur] != _NO_CHILD
            if not internal.any():
                break
            idx = np.flatnonzero(internal)
            nids = cur[idx]
            x = dense[idx, attr[nids]]
            missing = np.isnan(x)
            with np.errstate(invalid="ignore"):
                go_left = np.where(missing, dleft[nids], x > thr[nids])
            cur[idx] = np.where(go_left, left[nids], right[nids])
        return cur

    # ----------------------------------------------------------- persistence
    def to_dict(self) -> Dict[str, list]:
        """JSON-serializable structure."""
        return {name: [conv(v) for v in getattr(self, name)] for name, conv in _FIELDS}

    @classmethod
    def from_dict(cls, d: Dict[str, list]) -> "DecisionTree":
        """Rebuild a tree written by :meth:`to_dict`: the one structural check
        of every tree read from outside (saved model, registry payload,
        checkpoint).  Raises ``ValueError`` for a tree the unchecked flat
        predictor could not traverse right (the checks: ``docs/serving.md``
        section 4)."""
        t = cls()
        for name, conv in _FIELDS:
            setattr(t, name, [conv(v) for v in d[name]])
        _validate(t)
        return t

    def dump_text(self, nid: int = 0, indent: str = "") -> str:
        """Readable nested dump (root first), for debugging small trees."""
        if self.is_leaf(nid):
            return f"{indent}leaf value={self.value[nid]:.6g} n={self.n_instances[nid]}"
        head = (
            f"{indent}node a{self.attr[nid]} > {self.threshold[nid]:.6g} "
            f"(default={'L' if self.default_left[nid] else 'R'}, gain={self.gain[nid]:.6g})"
        )
        return "\n".join(
            [
                head,
                self.dump_text(self.left[nid], indent + "  "),
                self.dump_text(self.right[nid], indent + "  "),
            ]
        )


def _validate(t: DecisionTree) -> None:
    """The checks :meth:`DecisionTree.from_dict` documents."""
    n = t.n_nodes
    ragged = [name for name, _ in _FIELDS if len(getattr(t, name)) != n]
    if ragged:
        raise ValueError(f"node lists {ragged} differ in length from left ({n})")
    if n == 0:
        raise ValueError("tree has no nodes")
    left = np.asarray(t.left, dtype=np.int64)
    right = np.asarray(t.right, dtype=np.int64)
    internal = left != _NO_CHILD
    if not np.array_equal(internal, right != _NO_CHILD):
        raise ValueError("a node has one child: left and right must both be -1 on a leaf")
    parent = np.flatnonzero(internal)
    kids = np.concatenate([left[parent], right[parent]])
    if kids.size and (kids.min() < 1 or kids.max() >= n):
        raise ValueError(f"child id out of range [1, {n})")
    # one parent per non-root node leaves the root's tree plus, possibly,
    # cycles detached from it; depth rising by one along every link rules
    # the cycles out, so together they mean "reached exactly once"
    n_parents = np.bincount(kids, minlength=n)[1:]
    if (n_parents == 0).any():
        raise ValueError(f"{int((n_parents == 0).sum())} node(s) unreachable from the root")
    if (n_parents > 1).any():
        raise ValueError(f"{int((n_parents > 1).sum())} node(s) with two parents")
    depth = np.asarray(t.depth, dtype=np.int64)
    if depth[0] != 0 or (depth[kids] != np.tile(depth[parent], 2) + 1).any():
        raise ValueError(
            "stored depths do not follow the links: nodes unreachable from the "
            "root (a detached cycle) or a damaged depth list"
        )
    if (np.asarray(t.attr, dtype=np.int64)[parent] < 0).any():
        raise ValueError("an internal node splits on a negative attribute")
    thr = np.asarray(t.threshold, dtype=np.float64)[parent]
    if np.isnan(thr).any() or (thr == np.inf).any():
        raise ValueError("non-finite split threshold (NaN or +inf)")
    if not np.isfinite(np.asarray(t.value, dtype=np.float64)[~internal]).all():
        raise ValueError("non-finite leaf value")


def trees_equal(
    a: DecisionTree, b: DecisionTree, *, rtol: float = 1e-9, atol: float = 1e-8
) -> bool:
    """Structural equality with float tolerance on thresholds/values/gains.

    This is the check behind the paper's claim "we have compared the trees
    constructed by GPU-GBDT and the CPU-based XGBoost, and found that the
    trees are identical".  The absolute tolerance absorbs summation-order
    noise on effectively-zero leaves (``G ~ 0``) -- leaf values are O(0.1),
    so 1e-8 is far below anything meaningful.
    """
    if a.n_nodes != b.n_nodes:
        return False
    if a.left != b.left or a.right != b.right or a.attr != b.attr:
        return False
    if a.default_left != b.default_left or a.depth != b.depth:
        return False
    thr_a, thr_b = np.asarray(a.threshold), np.asarray(b.threshold)
    mask = ~(np.isnan(thr_a) & np.isnan(thr_b))
    if not np.allclose(thr_a[mask], thr_b[mask], rtol=rtol, atol=atol):
        return False
    if not np.allclose(a.value, b.value, rtol=rtol, atol=atol):
        return False
    return np.allclose(a.gain, b.gain, rtol=1e-6, atol=1e-9)
