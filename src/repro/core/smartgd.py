"""SmartGD: gradients from intermediate training results (Section III-B).

Computing ``g_i, h_i`` needs the current prediction ``yhat_i``.  The naive
approach re-predicts with the trained trees -- per-instance tree traversal,
which on a GPU means thread divergence and irregular memory access.  The
paper's observation: *at the end of training a tree every instance already
sits in a leaf*, so the prediction update is just "add the weight of the
leaf the instance belongs to" -- information the trainer has for free.

:class:`GradientComputer` implements both strategies behind one interface so
the Fig. 9 ablation can flip between them:

* **SmartGD** (``use_smartgd=True``): the trainer reports each finalized
  leaf's instances and value; ``yhat`` is updated with a coalesced scatter.
* **Traversal** (``use_smartgd=False``): leaf reports are ignored; at the
  next gradient computation the finished tree is walked for every instance,
  charging the irregular traffic the paper is avoiding.

Both produce bit-identical ``yhat`` (the traversal follows the same
midpoint thresholds and default directions that routed instances during
training), which ``tests/test_smartgd.py`` asserts.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..data.matrix import CSRMatrix
from ..gpusim.kernel import GpuDevice
from ..losses import Loss
from ..obs import get_registry, span
from .tree import DecisionTree
from .workspace import WorkspaceArena

__all__ = ["GradientComputer"]


class GradientComputer:
    """Maintains ``yhat`` across boosting rounds and emits ``(g, h)``.

    Parameters
    ----------
    device:
        Simulated device to charge.
    loss:
        Loss providing ``gradients`` / ``base_score``.
    y:
        Training targets.
    use_smartgd:
        Strategy switch (see module docstring).
    row_scale:
        Full-scale rows per run row; per-instance kernel work is charged in
        full-scale units (``scale=False`` launches).
    X:
        Training matrix; only required for the traversal strategy.
    workspace:
        :class:`~repro.core.workspace.WorkspaceArena` holding the per-round
        ``(g, h)`` arrays (a private one when omitted); they are filled via
        :meth:`repro.losses.Loss.gradients_into` when the loss supports it.
        Each :meth:`compute` overwrites the arrays the previous one returned.
    """

    def __init__(
        self,
        device: GpuDevice,
        loss: Loss,
        y: np.ndarray,
        *,
        use_smartgd: bool = True,
        row_scale: float = 1.0,
        X: CSRMatrix | None = None,
        workspace: WorkspaceArena | None = None,
    ) -> None:
        self.device = device
        self.loss = loss
        self.y = np.asarray(y, dtype=np.float64)
        self.use_smartgd = use_smartgd
        self.row_scale = float(row_scale)
        self.workspace = workspace if workspace is not None else WorkspaceArena()
        self._X = X
        self._dense_nan: np.ndarray | None = None
        self.yhat = np.full(self.y.size, loss.base_score(self.y), dtype=np.float64)
        self._pending: List[DecisionTree] = []
        if not use_smartgd and X is None:
            raise ValueError("traversal gradient strategy requires X")

    @property
    def n(self) -> int:
        return self.y.size

    def _full_rows(self) -> float:
        return self.n * self.row_scale

    # ------------------------------------------------------------ warm start
    def warm_start(self, trees: List[DecisionTree]) -> None:
        """Seed ``yhat`` with an existing ensemble's margins before boosting.

        The replay adds one tree at a time in boosting order -- per instance
        the identical sequence of float additions training itself performed
        (SmartGD leaf scatters and traversal flushes both add exactly the
        leaf value of the round's tree) -- so continuing to boost from here
        is bit-identical to never having stopped.  Charged to the device as
        one batched traversal over the resumed ensemble: warm-starting is
        not free, it is just far cheaper than retraining.
        """
        if not trees:
            return
        if self._X is None:
            raise ValueError("warm_start requires X")
        if self._dense_nan is None:
            self._dense_nan = self._X.to_dense(fill=np.nan).values
        with span("warm_start_replay", trees=len(trees)):
            total_depth = 0
            for tree in trees:
                self.yhat += tree.predict(self._dense_nan)
                total_depth += max(tree.max_depth(), 1)
            rows = self._full_rows()
            self.device.launch(
                "warm_start_replay",
                elements=rows * total_depth,
                flops_per_element=4.0,
                coalesced_bytes=rows * 8 * len(trees),
                irregular_bytes=rows * total_depth * 32,
                scale=False,
            )
        get_registry().counter(
            "warm_start_trees_total", "trees replayed to seed resumed boosting"
        ).inc(len(trees))

    # ------------------------------------------------------------- reporting
    def on_leaves(self, inst_ids: np.ndarray, values: np.ndarray) -> None:
        """The trainer finalized leaves holding ``inst_ids`` with per-instance
        leaf ``values`` (learning rate already applied)."""
        inst_ids = np.asarray(inst_ids, dtype=np.int64)
        if inst_ids.size == 0:
            return
        if self.use_smartgd:
            get_registry().counter(
                "smartgd_leaf_updates_total",
                "instances whose yhat was updated from an intermediate leaf",
            ).inc(inst_ids.size)
            self.yhat[inst_ids] += values
            self.device.launch(
                "smartgd_apply_leaf_weights",
                elements=inst_ids.size * self.row_scale,
                flops_per_element=1.0,
                coalesced_bytes=inst_ids.size * self.row_scale * 12,
                irregular_bytes=inst_ids.size * self.row_scale * 8,
                scale=False,
            )
        # traversal mode recomputes from the tree later; nothing to do here

    def on_tree_finished(self, tree: DecisionTree) -> None:
        """A boosting round completed."""
        if not self.use_smartgd:
            self._pending.append(tree)

    # ----------------------------------------------------------- computation
    def _flush_traversals(self) -> None:
        if not self._pending:
            return
        with span("traversal_flush", trees=len(self._pending)):
            self._flush_traversals_inner()

    def _flush_traversals_inner(self) -> None:
        for tree in self._pending:
            if self._dense_nan is None:
                assert self._X is not None
                self._dense_nan = self._X.to_dense(fill=np.nan).values
            self.yhat += tree.predict(self._dense_nan)
            depth = max(tree.max_depth(), 1)
            rows = self._full_rows()
            # per level: fetch node record (~24 B) + attribute lookup (~8 B),
            # all data-dependent, and neighbouring threads take different
            # branches -- "tree traversal results in thread branch divergence
            # and irregular memory access" -- so a warp serializes over its
            # members' distinct paths (the divergence factor below)
            divergence = 8.0
            self.device.launch(
                "predict_by_traversal",
                elements=rows * depth,
                flops_per_element=4.0 * divergence,
                coalesced_bytes=rows * 8,
                irregular_bytes=rows * depth * 32 * divergence,
                scale=False,
            )
        self._pending.clear()

    def apply_tree_to(self, tree: DecisionTree, rows: np.ndarray) -> None:
        """Add ``tree``'s predictions to ``yhat`` for out-of-sample rows.

        Stochastic GBM: instances excluded from a round never land in a
        leaf during training, so SmartGD cannot place them -- they are
        routed by traversal instead (and charged as such).  No-op in
        traversal mode, where the whole tree is replayed anyway.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if not self.use_smartgd or rows.size == 0:
            return
        if self._X is None:
            raise ValueError("apply_tree_to requires X")
        if self._dense_nan is None:
            self._dense_nan = self._X.to_dense(fill=np.nan).values
        self.yhat[rows] += tree.predict(self._dense_nan[rows])
        depth = max(tree.max_depth(), 1)
        count = rows.size * self.row_scale
        self.device.launch(
            "predict_out_of_sample_rows",
            elements=count * depth,
            flops_per_element=4.0,
            coalesced_bytes=count * 8,
            irregular_bytes=count * depth * 32,
            scale=False,
        )

    def predictions(self) -> np.ndarray:
        """Current ensemble predictions (flushes pending traversals)."""
        self._flush_traversals()
        return self.yhat.copy()

    def compute(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(g, h)`` for the next boosting round (Eq. (1))."""
        self._flush_traversals()
        ws = self.workspace
        with span("loss_gradients", strategy="smartgd" if self.use_smartgd else "traversal"):
            g = ws.buf("grad/g", self.n, np.float64)
            h = ws.buf("grad/h", self.n, np.float64)
            if not self.loss.gradients_into(self.y, self.yhat, g, h):
                g_new, h_new = self.loss.gradients(self.y, self.yhat)
                np.copyto(g, g_new)
                np.copyto(h, h_new)
        rows = self._full_rows()
        self.device.launch(
            "compute_gradients",
            elements=rows,
            flops_per_element=4.0,
            coalesced_bytes=rows * (8 + 8 + 8 + 8),
            scale=False,
        )
        return g, h
