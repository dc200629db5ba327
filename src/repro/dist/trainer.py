"""Row-sharded data-parallel histogram training over collectives.

``DistributedHistTrainer`` shards the training rows contiguously across
``W`` workers and grows every tree with the *same* code as the
single-process :class:`~repro.approx.histogram_trainer.HistogramGBDTTrainer`
-- each worker runs a :class:`_WorkerTrainer` subclass whose distribution
hooks replace local reductions with collectives:

==================  =====================================================
hook                distributed implementation
==================  =====================================================
``_base_score``     global base computed once by the driver on full ``y``
``_bin_spec``       allgather + merge of exact weighted column sketches
                    (:mod:`repro.approx.quantile`) -- every worker derives
                    the identical global cuts
``_round_shift``    allreduce-max of the local gradient extrema
``_root_sums``      allreduce-sum of int64 root statistics
``_reduce_``        ring allreduce of the built rows of the int64 level
``histograms``      tables, written back in place; the split scan then
                    runs on *global* tables, so every worker takes the
                    identical decision with no winner broadcast (comm
                    volume is O(bins), not O(rows))
==================  =====================================================

With sibling subtraction on (the default, see
:mod:`repro.approx.histops`) the shared grow loop hands
``_reduce_histograms`` only the **smaller child** of each sibling pair (the
built rows of the level tables), so the per-level allreduce payload roughly
halves; every rank then derives the sibling row in place as ``parent -
built`` from the previous level's already-global tables.  Both operands
being global keeps the derivation exact and rank-identical -- subtraction
is inherited through the hook with no distributed-specific code.

Because gradients are fixed-point quantized (:mod:`repro.approx.fixedpoint`)
all reductions are exact and order-independent, so the W-worker model is
**byte-identical** to single-worker training for any W -- the differential
test suite asserts serialized-model equality for every W it runs.

Fault tolerance: rank 0 checkpoints the growing ensemble every
``checkpoint_every`` rounds through :class:`repro.dist.checkpoint.
CheckpointStore`.  When an injected (or real) fault kills workers, the
surviving driver restores the newest checkpoint, re-shards the rows over
the survivors, warm-starts boosting from the restored trees (bit-identical
replay), and continues -- landing on the same final model digest as an
uninterrupted run, because the grown trees are shard-count-independent.
Each ``fit`` checkpoints into a fresh ``fit-*`` directory under
``checkpoint_dir``, removed when the fit returns or raises, so a retry
only ever resumes that fit's own trees.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..approx.fixedpoint import choose_shift
from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..approx.quantile import (
    BinSpec,
    build_bins_from_sketches,
    merge_sketches,
    sketch_columns,
)
from ..core.booster_model import GBDTModel, model_digest, validate_fit
from ..core.params import GBDTParams
from ..core.tree import DecisionTree
from ..data.matrix import CSRMatrix
from ..gpusim.device import DeviceSpec, TITAN_X_PASCAL
from ..gpusim.kernel import GpuDevice
from ..obs import Tracer, get_registry, get_tracer, span
from ..obs.export import export_merged_chrome_trace
from .checkpoint import CheckpointStore
from .comms import Collective, FaultPlan, LinkSpec, WorkerFailure, run_spmd

__all__ = ["DistributedHistTrainer"]


class _WorkerTrainer(HistogramGBDTTrainer):
    """One rank's trainer: the shared grow loop + collective reduction hooks.

    Rank 0 speaks for the job: it alone checkpoints and records the
    ``train_*`` metrics, so each round counts once.
    """

    backend = "dist"

    def __init__(
        self,
        params: GBDTParams,
        coll: Collective,
        *,
        max_bins: int,
        n_global: int,
        base: float,
        n_total: int,
        store: Optional[CheckpointStore],
        checkpoint_every: int,
        row_scale: float,
        use_subtraction: bool,
    ) -> None:
        super().__init__(
            params, coll.device, max_bins=max_bins, row_scale=row_scale,
            use_subtraction=use_subtraction,
        )
        self.coll = coll
        self.records_train_metrics = coll.rank == 0
        self._n_global = int(n_global)
        self._base = float(base)
        self._n_total = int(n_total)
        self._store = store
        self._every = max(1, int(checkpoint_every))

    # ----------------------------------------------------- global reductions
    def _base_score(self, y: np.ndarray) -> float:
        return self._base

    def _global_rows(self, n: int) -> int:
        return self._n_global

    def _bin_spec(self, cols) -> BinSpec:
        local = sketch_columns(cols)
        nbytes = float(local.values.nbytes + local.counts.nbytes)
        with span("dist.sketch_merge", n_attrs=local.n_cols):
            merged = merge_sketches(self.coll.allgather(local, nbytes=nbytes))
        return build_bins_from_sketches(merged, self.max_bins)

    def _round_shift(self, g: np.ndarray, h: np.ndarray) -> int:
        local = np.array(
            [
                float(np.max(np.abs(g))) if g.size else 0.0,
                float(np.max(np.abs(h))) if h.size else 0.0,
            ]
        )
        m = self.coll.allreduce_max(local)
        return choose_shift(float(m[0]), float(m[1]), self._n_global)

    def _root_sums(self, gq: np.ndarray, hq: np.ndarray, n: int):
        totals = self.coll.allreduce_sum(
            np.array([gq.sum(), hq.sum(), n], dtype=np.int64)
        )
        return int(totals[0]), int(totals[1]), int(totals[2])

    def _reduce_histograms(self, tables, rows):
        # payload (3, len(rows), total_bins): only the built rows travel
        reduced = self.coll.allreduce_sum(np.stack([t[rows] for t in tables]))
        for t, r in zip(tables, reduced):
            t[rows] = r

    # ------------------------------------------------------------ checkpoints
    def _round_start(self, round_: int) -> None:
        self.coll.fault_point(round_)

    def _round_end(self, round_: int, trees: List[DecisionTree]) -> None:
        if self._store is not None and (
            len(trees) % self._every == 0 or len(trees) == self._n_total
        ):
            model = GBDTModel(
                trees=list(trees), params=self.params, base_score=self._base
            )
            self._store.save(model, self.params, round_=len(trees))


@dataclasses.dataclass
class _AttemptReport:
    """What happened on one fit attempt (kept for demos/tests)."""

    workers: int
    failed_ranks: List[int]
    resumed_round: int
    #: per-rank flight-recorder snapshots captured when the attempt failed
    #: (unclosed spans + last collective op; empty for clean attempts)
    flight_recorder: dict = dataclasses.field(default_factory=dict)


class DistributedHistTrainer:
    """Data-parallel histogram GBDT across ``n_workers`` row shards.

    Parameters mirror :class:`~repro.approx.histogram_trainer.
    HistogramGBDTTrainer` (depthwise growth only) plus the distribution
    knobs: per-link :class:`~repro.dist.comms.LinkSpec`, an injectable
    :class:`~repro.dist.comms.FaultPlan`, and a checkpoint directory
    enabling crash recovery.
    """

    def __init__(
        self,
        params: GBDTParams | None = None,
        n_workers: int = 2,
        *,
        max_bins: int = 64,
        spec: DeviceSpec = TITAN_X_PASCAL,
        link: LinkSpec | None = None,
        faults: FaultPlan | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 1,
        row_scale: float = 1.0,
        work_scale: float = 1.0,
        use_subtraction: bool = True,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.params = params if params is not None else GBDTParams()
        if self.params.goss_a < 1.0:
            # GOSS samples on *global* gradient order; a row-sharded draw
            # would need an extra top-k collective -- not implemented
            raise ValueError(
                "GOSS (goss_a < 1) is not supported by the distributed "
                "trainer; use the single-process HistogramGBDTTrainer"
            )
        if self.params.subsample < 1.0 or self.params.colsample_bytree < 1.0:
            raise ValueError(
                "subsample and colsample_bytree are not supported by the "
                "distributed trainer"
            )
        self.use_subtraction = use_subtraction
        self.n_workers = int(n_workers)
        self.max_bins = int(max_bins)
        self.spec = spec
        self.link = link
        self.faults = faults
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = int(checkpoint_every)
        self.row_scale = float(row_scale)
        self.work_scale = float(work_scale)
        self.devices_: List[GpuDevice] = []
        self.comm_stats_ = []
        self.attempts_: List[_AttemptReport] = []
        self.rank_tracers_: List[Tracer] = []
        self.model_: GBDTModel | None = None

    # ------------------------------------------------------------------- fit
    def fit(self, X: CSRMatrix, y: np.ndarray) -> GBDTModel:
        y = validate_fit(X, y, self.params)
        if self.checkpoint_dir is None:
            return self._fit(X, y, None)
        # a directory of this fit's own: a retry must never resume the
        # trees of another fit that shared checkpoint_dir
        root = Path(self.checkpoint_dir)
        root.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="fit-", dir=root) as directory:
            return self._fit(X, y, CheckpointStore(directory))

    def _fit(
        self, X: CSRMatrix, y: np.ndarray, store: Optional[CheckpointStore]
    ) -> GBDTModel:
        p = self.params
        n = X.shape[0]
        base = p.loss_fn.base_score(y)
        # every shard needs >= 2 rows for the local trainer's fit
        workers = max(1, min(self.n_workers, n // 2))
        faults = self.faults
        init: GBDTModel | None = None
        self.attempts_ = []

        while True:
            shards = np.array_split(np.arange(n, dtype=np.int64), workers)
            parts = [(X.select_rows(idx), y[idx]) for idx in shards]
            devices = [
                GpuDevice(self.spec, work_scale=self.work_scale)
                for _ in range(workers)
            ]
            resumed_round = 0 if init is None else init.n_trees
            # a resumed attempt appends the rounds the checkpoint lacks
            params = p.replace(n_trees=p.n_trees - resumed_round)

            def worker(coll: Collective, params=params, init=init) -> GBDTModel:
                X_local, y_local = parts[coll.rank]
                trainer = _WorkerTrainer(
                    params,
                    coll,
                    max_bins=self.max_bins,
                    n_global=n,
                    base=base,
                    n_total=p.n_trees,
                    store=store if coll.rank == 0 else None,
                    checkpoint_every=self.checkpoint_every,
                    row_scale=self.row_scale,
                    use_subtraction=self.use_subtraction,
                )
                return trainer.fit(X_local, y_local, init_model=init)

            parent = get_tracer()
            tracers = [
                Tracer(
                    enabled=parent.enabled,
                    clock=parent.clock,
                    max_spans=parent.max_spans,
                    tags={"rank": r},
                )
                for r in range(workers)
            ]
            self.rank_tracers_ = tracers

            try:
                with span(
                    "dist.fit_attempt",
                    workers=workers,
                    resumed_round=resumed_round,
                ):
                    models, colls = run_spmd(
                        workers,
                        worker,
                        devices=devices,
                        link=self.link,
                        faults=faults,
                        tracers=tracers,
                    )
                self.attempts_.append(_AttemptReport(workers, [], resumed_round))
                break
            except WorkerFailure as failure:
                survivors = workers - len(failure.failed_ranks)
                self.attempts_.append(
                    _AttemptReport(
                        workers,
                        sorted(failure.failed_ranks),
                        resumed_round,
                        flight_recorder=dict(failure.flight_recorder),
                    )
                )
                get_registry().counter(
                    "dist_worker_failures_total",
                    "workers lost during distributed training",
                ).inc(len(failure.failed_ranks))
                if survivors < 1 or len(self.attempts_) > self.n_workers:
                    raise
                init = self._restore(store)
                workers = survivors
                faults = None  # injected faults are one-shot

        self.devices_ = devices
        self.comm_stats_ = [c.stats for c in colls]
        digests = {model_digest(m) for m in models}
        if len(digests) != 1:
            raise RuntimeError(
                f"rank models diverged: {sorted(digests)}"
            )  # pragma: no cover - guarded by design
        # a resumed attempt trained with the remainder's params
        self.model_ = dataclasses.replace(models[0], params=p)
        return self.model_

    def _restore(self, store: Optional[CheckpointStore]) -> Optional[GBDTModel]:
        """The model to warm-start the retry from (None = from scratch)."""
        if store is None:
            return None
        ckpt = store.latest(params=self.params)
        if ckpt is None or ckpt.round >= self.params.n_trees:
            return None
        get_registry().counter(
            "dist_recoveries_total", "checkpoint restores after worker failure"
        ).inc()
        return ckpt.restore_model(self.params)

    # ------------------------------------------------------------- reporting
    def elapsed_seconds(self) -> float:
        """Modeled makespan: the slowest rank's device time."""
        if not self.devices_:
            return 0.0
        return max(d.elapsed_seconds() for d in self.devices_)

    def comm_bytes(self) -> float:
        """True payload bytes moved by collectives, summed over ranks."""
        return float(sum(s.bytes_total for s in self.comm_stats_))

    def comm_steps(self) -> int:
        return int(sum(s.steps_total for s in self.comm_stats_))

    def export_trace(self, path) -> int:
        """Write the last attempt's merged per-rank Chrome trace to ``path``.

        One Perfetto process per rank (pid ``RANK_PID_BASE + rank``),
        collectives aligned across ranks by lockstep sequence number, so
        ring imbalance and stragglers are visible in one timeline.  Returns
        the number of slice events written.
        """
        return export_merged_chrome_trace(path, rank_tracers=self.rank_tracers_)

    @property
    def recoveries(self) -> int:
        """Fit attempts that ended in worker failure and were retried."""
        return sum(1 for a in self.attempts_ if a.failed_ranks)
