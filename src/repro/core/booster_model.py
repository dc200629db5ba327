"""The trained ensemble: a list of trees plus prediction helpers."""

from __future__ import annotations

import dataclasses
import json
from typing import List

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix
from .params import GBDTParams
from .tree import DecisionTree, trees_equal

__all__ = ["GBDTModel", "models_equal", "validate_fit"]


@dataclasses.dataclass
class GBDTModel:
    """An ensemble of regression trees (leaf values include the learning
    rate, so prediction is a plain sum over trees plus the base score)."""

    trees: List[DecisionTree]
    params: GBDTParams
    base_score: float = 0.0

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    # ------------------------------------------------------------ flattening
    #: below this many (row, tree) pairs the per-tree loop wins -- the
    #: flattened sweep's setup cost is not worth amortizing
    _FLAT_MIN_PAIRS = 4096

    def _flat_signature(self) -> tuple:
        """Cheap content fingerprint guarding the cached flat ensemble.

        Catches every mutation the :class:`DecisionTree` API can make:
        ``split_node`` changes node counts, ``set_leaf`` changes the value
        sum.  Direct field surgery on a tree must call :meth:`flatten` with
        ``refresh=True``.
        """
        return (
            len(self.trees),
            sum(len(t.left) for t in self.trees),
            sum(sum(t.value) for t in self.trees),
            self.base_score,
        )

    def flatten(self, *, refresh: bool = False):
        """The ensemble as a :class:`~repro.serve.FlatEnsemble` (cached).

        The cache is invalidated automatically when trees are added or leaf
        values change; pass ``refresh=True`` after mutating a tree's arrays
        in place.
        """
        from ..serve.flat_model import FlatEnsemble

        sig = self._flat_signature()
        cached = getattr(self, "_flat_cache", None)
        if refresh or cached is None or cached[0] != sig:
            cached = (sig, FlatEnsemble.from_model(self))
            self._flat_cache = cached
        return cached[1]

    def predict(
        self,
        X: CSRMatrix | DenseMatrix | np.ndarray,
        *,
        n_trees: int | None = None,
        transform: bool = False,
    ) -> np.ndarray:
        """Predict with the first ``n_trees`` trees (all by default).

        ``transform=True`` maps margins through the loss's output transform
        (sigmoid for logistic; identity for MSE).
        """
        use = self.trees if n_trees is None else self.trees[: max(0, n_trees)]
        if isinstance(X, CSRMatrix):
            dense = X.to_dense(fill=np.nan).values
        elif isinstance(X, DenseMatrix):
            dense = X.values
        else:
            dense = np.asarray(X, dtype=np.float64)
        if (
            n_trees is None
            and len(use) >= 2
            and dense.shape[0] * len(use) >= self._FLAT_MIN_PAIRS
        ):
            # big batches route through the flattened ensemble in one
            # level-wise sweep instead of the per-tree Python loop
            out = self.flatten().predict(dense)
        else:
            out = np.full(dense.shape[0], self.base_score, dtype=np.float64)
            for tree in use:
                out += tree.predict(dense)
        if transform:
            out = self.params.loss_fn.transform(out)
        return out

    def predict_margin(self, X) -> np.ndarray:
        """Raw margins accumulated tree by tree, in boosting order.

        This is the warm-start path: the sum is built exactly the way the
        trainer's :class:`~repro.core.smartgd.GradientComputer` built
        ``yhat`` during training (one add per instance per round, in round
        order), so resuming boosting from these margins is bit-identical to
        never having stopped.  ``predict`` may instead route large batches
        through the flattened ensemble, whose different summation order is
        fine for serving but not for resuming.
        """
        if isinstance(X, CSRMatrix):
            dense = X.to_dense(fill=np.nan).values
        elif isinstance(X, DenseMatrix):
            dense = X.values
        else:
            dense = np.asarray(X, dtype=np.float64)
        out = np.full(dense.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += tree.predict(dense)
        return out

    def staged_predict(self, X) -> "np.ndarray":
        """``(n_trees, n_rows)`` matrix of cumulative predictions -- one row
        per boosting round (Fig. 10b's error-vs-budget curves)."""
        if isinstance(X, CSRMatrix):
            dense = X.to_dense(fill=np.nan).values
        elif isinstance(X, DenseMatrix):
            dense = X.values
        else:
            dense = np.asarray(X, dtype=np.float64)
        out = np.empty((self.n_trees, dense.shape[0]), dtype=np.float64)
        acc = np.full(dense.shape[0], self.base_score, dtype=np.float64)
        for t, tree in enumerate(self.trees):
            acc = acc + tree.predict(dense)
            out[t] = acc
        return out

    # ------------------------------------------------------------ persistence
    def to_json(self) -> str:
        """Serialize the trees (params are not round-tripped -- they belong
        to training, not inference)."""
        return json.dumps(
            {
                "base_score": self.base_score,
                "learning_rate": self.params.learning_rate,
                "trees": [t.to_dict() for t in self.trees],
            }
        )

    @classmethod
    def from_json(cls, text: str, params: GBDTParams | None = None) -> "GBDTModel":
        d = json.loads(text)
        return cls(
            trees=[DecisionTree.from_dict(td) for td in d["trees"]],
            params=params if params is not None else GBDTParams(),
            base_score=float(d["base_score"]),
        )

    def save(self, path) -> None:
        """Write the model to a JSON file, crash-safely.

        The payload goes to a temporary file in the destination directory,
        is fsynced, and is atomically renamed into place -- a reader (or a
        restart after a crash mid-save) sees the previous model or the new
        one, never a truncated file.
        """
        from ..ioutil import atomic_write_text

        atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path, params: GBDTParams | None = None) -> "GBDTModel":
        """Read a model written by :meth:`save`."""
        from pathlib import Path

        return cls.from_json(Path(path).read_text(encoding="utf-8"), params=params)

    def eval_history(self, X, y, metric=None) -> np.ndarray:
        """Per-boosting-round metric on ``(X, y)`` (default: RMSE).

        The budgeted-training analyses (Fig. 10b, the case studies) read
        accuracy-vs-rounds off this curve.
        """
        from ..metrics import rmse as default_metric

        metric = metric if metric is not None else default_metric
        staged = self.staged_predict(X)
        return np.array([metric(y, staged[t]) for t in range(self.n_trees)])


def models_equal(a: GBDTModel, b: GBDTModel, **tol) -> bool:
    """Tree-by-tree structural equality (the Table II 'identical trees'
    check between GPU-GBDT and the CPU reference)."""
    if a.n_trees != b.n_trees:
        return False
    return all(trees_equal(ta, tb, **tol) for ta, tb in zip(a.trees, b.trees))


def validate_fit(
    X: CSRMatrix,
    y: np.ndarray,
    params: GBDTParams,
    init_model: GBDTModel | None = None,
) -> np.ndarray:
    """The one fit-input boundary every trainer calls; returns ``y`` as float64.

    Rejects a label vector of the wrong size, non-finite labels (one NaN
    would otherwise come back as an all-NaN model), fewer than 2 rows or
    no attribute, and an ``init_model`` whose base score or learning rate
    differs from this fit's (resumed rounds would not match uninterrupted
    training) or that splits on an attribute ``X`` does not have.
    """
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    if y.size != n:
        raise ValueError(f"y has {y.size} entries for {n} rows")
    if not np.isfinite(y).all():
        raise ValueError("y contains non-finite (NaN or inf) labels")
    if n < 2:
        raise ValueError("need at least 2 training instances")
    if d < 1:
        raise ValueError("need at least 1 attribute")
    if init_model is not None:
        base = params.loss_fn.base_score(y)
        if init_model.base_score != base:
            raise ValueError(
                f"init_model.base_score={init_model.base_score!r} does not match "
                f"the loss base score {base!r}; resuming would shift every margin"
            )
        if init_model.params.learning_rate != params.learning_rate:
            raise ValueError(
                "init_model was trained with a different learning_rate; "
                "resumed rounds would not match uninterrupted training"
            )
        used = max((max(t.attr, default=-1) for t in init_model.trees), default=-1)
        if used >= d:
            raise ValueError(
                f"init_model splits on attribute {used} but X has only {d} "
                "attributes"
            )
    return y
