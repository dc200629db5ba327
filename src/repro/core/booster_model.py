"""The trained ensemble: a list of trees plus prediction helpers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import List

import numpy as np

from ..data.matrix import CSRMatrix, DenseMatrix
from .params import GBDTParams
from .tree import DecisionTree, trees_equal

__all__ = [
    "GBDTModel",
    "canonical_model_payload",
    "model_digest",
    "models_equal",
    "validate_fit",
]

#: the node lists a flat ensemble is packed from
_FLAT_FIELDS = ("left", "right", "attr", "threshold", "default_left", "value", "depth")


@dataclasses.dataclass
class GBDTModel:
    """An ensemble of regression trees (leaf values include the learning
    rate, so prediction is a plain sum over trees plus the base score).

    Every prediction goes through the cached :meth:`flatten` ensemble and
    sums each row in boosting order, base score first -- the order training
    built its predictions in, whatever batch the row arrives in.
    """

    trees: List[DecisionTree]
    params: GBDTParams
    base_score: float = 0.0

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    # ------------------------------------------------------------ flattening
    def _flat_key(self) -> tuple:
        """The base score and the live node lists the flat ensemble is
        packed from, tree by tree."""
        return (self.base_score, [getattr(t, f) for t in self.trees for f in _FLAT_FIELDS])

    def flatten(self):
        """The ensemble as a :class:`~repro.serve.FlatEnsemble`, cached until
        the base score, the tree list or any node field changes -- through
        the tree API or in place (the cache keeps copies of the node lists
        and compares them whole)."""
        from ..serve.flat_model import FlatEnsemble

        base, nodes = key = self._flat_key()
        cached = getattr(self, "_flat_cache", None)
        if cached is None or cached[0] != key:
            cached = ((base, [list(v) for v in nodes]), FlatEnsemble.from_model(self))
            self._flat_cache = cached
        return cached[1]

    def predict(
        self,
        X: CSRMatrix | DenseMatrix | np.ndarray,
        *,
        n_trees: int | None = None,
        transform: bool = False,
    ) -> np.ndarray:
        """Predict with the first ``n_trees`` trees (all by default); ``X``
        must be as wide as those trees test.

        ``transform=True`` maps margins through the loss's output transform
        (sigmoid for logistic; identity for MSE).
        """
        out = self.flatten().predict(X, n_trees=n_trees)
        if transform:
            out = self.params.loss_fn.transform(out)
        return out

    def staged_predict(self, X) -> np.ndarray:
        """``(n_trees, n_rows)`` matrix of cumulative predictions -- one row
        per boosting round (Fig. 10b's error-vs-budget curves); row ``t`` is
        ``predict(X, n_trees=t + 1)`` bit for bit."""
        return self.flatten().staged_predict(X)

    # ------------------------------------------------------------ persistence
    def to_json(self) -> str:
        """Serialize the trees, base score and learning rate (the rest of
        the params belong to training, not inference)."""
        return json.dumps(
            {
                "base_score": self.base_score,
                "learning_rate": self.params.learning_rate,
                "trees": [t.to_dict() for t in self.trees],
            }
        )

    @classmethod
    def from_json(cls, text: str, params: GBDTParams | None = None) -> "GBDTModel":
        """Rebuild a model written by :meth:`to_json`: the model-load
        boundary (``ValueError`` for text that is not a model payload -- not
        JSON, not an object, a missing key or a field of the wrong type --
        for a damaged tree, see :meth:`DecisionTree.from_dict`, or for a
        non-finite base score).  ``params=None`` keeps the stored learning
        rate; ``params`` with another one raise, since the stored leaf values
        include it."""
        d = json.loads(text)
        try:
            base_score = float(d["base_score"])
            stored_lr = d["learning_rate"]
            if params is None:
                params = GBDTParams(learning_rate=stored_lr)
            trees = [DecisionTree.from_dict(td) for td in d["trees"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"not a model payload ({type(exc).__name__}: {exc})") from exc
        if not np.isfinite(base_score):
            raise ValueError(f"non-finite base score {base_score!r}")
        if params.learning_rate != stored_lr:
            raise ValueError(
                f"params.learning_rate={params.learning_rate!r} differs from the "
                f"stored learning_rate={stored_lr!r} the leaf values include"
            )
        return cls(trees=trees, params=params, base_score=base_score)

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
        """Read a model written by :meth:`save`; damaged files raise
        ``ValueError`` as in :meth:`from_json`."""
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


def canonical_model_payload(model: GBDTModel) -> str:
    """Deterministic model JSON (sorted keys, no spaces): the form the
    serving registry stores and checkpoints carry."""
    return json.dumps(
        json.loads(model.to_json()), sort_keys=True, separators=(",", ":")
    )


def model_digest(model_or_payload: GBDTModel | str) -> str:
    """12-hex content digest of a model or of its canonical payload; the
    :class:`~repro.serve.ModelRegistry` version id of the same model."""
    payload = (
        model_or_payload
        if isinstance(model_or_payload, str)
        else canonical_model_payload(model_or_payload)
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


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
    *,
    base_score=None,
) -> np.ndarray:
    """The one fit-input boundary every trainer calls; returns ``y`` as float64.

    Rejects an ``X`` that is not a :class:`CSRMatrix` (``TypeError``; the
    facade converts through ``as_csr``), a label vector of the wrong size,
    non-finite labels (one NaN would otherwise come back as an all-NaN
    model), fewer than 2 rows or no attribute, and an ``init_model`` whose
    base score or learning rate differs from this fit's (resumed rounds
    would not match uninterrupted training) or that splits on an attribute
    ``X`` does not have.
    ``base_score(y)`` gives this fit's base score (default: the loss's; a
    row-sharded worker's is the whole training set's).
    """
    if not isinstance(X, CSRMatrix):
        raise TypeError(
            f"X must be a CSRMatrix, not {type(X).__name__}; convert it with "
            "repro.as_csr"
        )
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
        base = (base_score or params.loss_fn.base_score)(y)
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
