"""One boosting driver: Algorithm 1's round loop for every trainer family.

:class:`BoostingDriver` owns ``fit``: input validation, the ``train`` root
span, the ``setup`` phase, the :class:`~repro.core.smartgd.GradientComputer`
on the trainer's one :class:`~repro.core.workspace.WorkspaceArena`
(``self.workspace``), the warm-start replay (in the ``gradients`` phase) and
the rounds.  A round computes the gradients, draws the family's row sample,
grows one tree and routes the rows the sample left out by traversal.  So
every trainer records the same span tree -- ``train`` → ``setup`` and
``train`` → ``boost_round`` → ``gradients`` / ``find_split`` /
``split_node`` -- and the same ``train_*`` metrics.

A family supplies ``_setup(X)``, which returns its per-fit device state
(the fit drops it on return), ``_sample(round_, g, h)`` (the round's rows:
an object with a boolean ``inst_mask``) and
``_grow_tree(X, g, h, gc, sample, state)``.  Multi-GPU, out-of-core,
streaming and distributed training plug in through hooks (the round hooks
at the bottom of the class, or their family's own), never a second loop.

``init_model`` means the same for every trainer: boosting resumes from that
ensemble and appends ``params.n_trees`` trees.  Its margins are replayed in
boosting order and the round index (which keys every sampling draw)
continues from ``init_model.n_trees``, so ``fit(k)`` then
``fit(m, init_model=...)`` is bit-identical to ``fit(k + m)``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Tuple

import numpy as np

from ..data.matrix import CSRMatrix
from ..gpusim.kernel import GpuDevice
from ..obs import get_registry, span
from .booster_model import GBDTModel, validate_fit
from .params import GBDTParams
from .smartgd import GradientComputer
from .tree import DecisionTree
from .workspace import WorkspaceArena

__all__ = ["BoostingDriver", "TrainReport"]


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


class BoostingDriver:
    """The boosting round loop shared by every trainer; see module docstring."""

    #: ``backend`` attribute of the ``train`` span
    backend = "boosting"
    #: whether this trainer records the ``train_*`` metrics (a row-sharded
    #: worker leaves them to rank 0, so each round counts once)
    records_train_metrics = True

    def __init__(
        self,
        params: GBDTParams | None,
        device: GpuDevice | None,
        row_scale: float,
    ) -> None:
        self.params = params if params is not None else GBDTParams()
        self.device = device if device is not None else GpuDevice()
        self.row_scale = float(row_scale)
        #: persistent across fit calls: buffers warm up on the first tree and
        #: are reused for every level of every round thereafter
        self.workspace = WorkspaceArena()
        self.report: TrainReport | None = None

    def elapsed_seconds(self) -> float:
        """Modeled device seconds spent so far."""
        return self.device.elapsed_seconds()

    def fit(
        self, X: CSRMatrix, y: np.ndarray, *, init_model: GBDTModel | None = None
    ) -> GBDTModel:
        """Train ``params.n_trees`` new trees on ``(X, y)``, appended to
        ``init_model``'s when given; returns the whole ensemble."""
        p = self.params
        device = self.device
        y = validate_fit(X, y, p, init_model, base_score=self._base_score)
        trees: List[DecisionTree] = [] if init_model is None else list(init_model.trees)
        n_init = len(trees)
        with span(
            "train", backend=self.backend, n_trees=p.n_trees, n_rows=X.n_rows,
            n_cols=X.n_cols, warm_start_trees=n_init,
        ):
            with device.phase("setup"), span("setup"):
                state = self._setup(X)
            base = self._base_score(y)
            gc = GradientComputer(
                device, p.loss_fn, y, use_smartgd=p.use_smartgd,
                row_scale=self.row_scale, X=X, workspace=self.workspace,
            )
            # a row shard's base score is the whole training set's
            gc.yhat[:] = base
            if trees:
                with device.phase("gradients"):
                    gc.warm_start(trees)

            registry = get_registry()
            rounds_total = registry.counter("train_rounds_total", "boosting rounds completed")
            nodes_total = registry.counter("train_nodes_total", "tree nodes grown")
            leaves_total = registry.counter("train_leaves_total", "leaves finalized")
            round_seconds = registry.histogram(
                "train_round_seconds", "wall-clock seconds per boosting round"
            )
            for round_ in range(n_init, n_init + p.n_trees):
                t_round = time.perf_counter()
                self._round_start(round_)
                with span("boost_round", tree=round_, **self._round_span_attrs()):
                    with device.phase("gradients"), span("gradients"):
                        g, h = gc.compute()
                    self._share_gradients(X.n_rows)
                    sample = self._sample(round_, g, h)
                    tree = self._grow_tree(X, g, h, gc, sample, state)
                    # rows the sample left out reached no leaf: route them by
                    # traversal so the next gradients cover every row
                    if not sample.inst_mask.all():
                        gc.apply_tree_to(tree, np.flatnonzero(~sample.inst_mask))
                    gc.on_tree_finished(tree)
                trees.append(tree)
                self._round_end(round_, trees)
                if self.records_train_metrics:
                    rounds_total.inc()
                    nodes_total.inc(tree.n_nodes)
                    leaves_total.inc(tree.n_leaves)
                    round_seconds.observe(time.perf_counter() - t_round)
            self.workspace.publish_metrics()

            new = trees[n_init:]
            used_rle, ratio = self._compression(state)
            self.report = TrainReport(
                used_rle=used_rle,
                compression_ratio=ratio,
                n_nodes_total=sum(t.n_nodes for t in new),
                n_leaves_total=sum(t.n_leaves for t in new),
                tree_sizes=[t.n_nodes for t in new],
                max_depth_seen=max((t.max_depth() for t in new), default=0),
            )
        return GBDTModel(trees=trees, params=p, base_score=base)

    # ------------------------------------------------------------------ hooks
    def _compression(self, state) -> Tuple[bool, float]:
        """``(used_rle, compression_ratio)`` of the fit, for the report."""
        return False, 1.0

    # Distribution and streaming plug in below.  A single-device trainer
    # moves nothing between devices and computes every global quantity
    # locally, so each hook is a no-op or the local value.
    def _base_score(self, y: np.ndarray) -> float:
        """Model base score (global mean/odds of the full training set)."""
        return self.params.loss_fn.base_score(y)

    def _global_rows(self, n: int) -> int:
        """Total training rows across all shards."""
        return n

    def _round_start(self, round_: int) -> None:
        """Before each round (synchronization / fault-injection point)."""

    def _round_span_attrs(self) -> dict:
        """Extra attributes for each ``boost_round`` span."""
        return {}

    def _share_gradients(self, n: int) -> None:
        """After the round's gradients are computed on ``device``."""

    def _round_end(self, round_: int, trees: List[DecisionTree]) -> None:
        """After each round, with the whole ensemble so far (checkpoints)."""
