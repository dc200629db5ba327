"""Distributed data-parallel GBDT training (row shards + collectives).

See :mod:`repro.dist.comms` for the collective layer (one rendezvous
:class:`~repro.dist.comms.Collective` charging a ring-step cost table,
fault injection), :mod:`repro.dist.trainer` for the
row-sharded histogram trainer whose W-worker models are byte-identical to
single-process training, and :mod:`repro.dist.checkpoint` for the
checkpoint store its crash recovery resumes from.
"""

from .comms import (
    Collective,
    CollectiveStats,
    FaultPlan,
    LinkSpec,
    WorkerCrash,
    WorkerFailure,
    run_spmd,
)
from .trainer import DistributedHistTrainer

__all__ = [
    "Collective",
    "CollectiveStats",
    "DistributedHistTrainer",
    "FaultPlan",
    "LinkSpec",
    "WorkerCrash",
    "WorkerFailure",
    "run_spmd",
]
