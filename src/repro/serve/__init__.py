"""Batched inference serving (the ROADMAP's "heavy traffic" direction).

Training (the paper's subject) ends with a :class:`~repro.core.booster_model.
GBDTModel`; this package is what happens *after* training, when the model
has to answer prediction requests as fast as the host allows:

``flat_model``
    :class:`FlatEnsemble` -- every tree's node arrays packed into one set of
    contiguous NumPy arrays, so a whole batch is routed through *all* trees
    with one level-wise sweep (the layout Mitchell et al. use for GPU
    prediction, applied host-side).
``batcher``
    :class:`MicroBatcher` -- one bounded, locked request queue with a
    first-request-anchored max-wait deadline, bound to a model source,
    metrics and an overload story (shed to a per-row fallback or reject).
    ``submit`` refuses rows too narrow for the active model, so one bad
    request never fails a batch.
``registry``
    :class:`ModelRegistry` -- content-addressed model versions layered on the
    ``to_json``/``from_json`` round-trip, with hot swap and rollback.
``stats``
    :class:`ServingStats` -- latency percentiles, throughput and shed/reject
    counters, JSON-safe for the regression harness.
"""

from .batcher import BatchPolicy, MicroBatcher, PendingPrediction, QueueFull
from .flat_model import FlatEnsemble
from .registry import ModelRegistry, ModelVersion
from .stats import ServingStats

__all__ = [
    "BatchPolicy",
    "FlatEnsemble",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "PendingPrediction",
    "QueueFull",
    "ServingStats",
]
