"""Batched inference serving (the ROADMAP's "heavy traffic" direction).

Training (the paper's subject) ends with a :class:`~repro.core.booster_model.
GBDTModel`; this package is what happens *after* training, when the model
has to answer prediction requests as fast as the host allows:

``flat_model``
    :class:`FlatEnsemble` -- every tree's node arrays packed into one set of
    contiguous NumPy arrays, so a whole batch is routed through *all* trees
    with one level-wise sweep (the layout Mitchell et al. use for GPU
    prediction, applied host-side).
``batch_core``
    :class:`BatchQueue` -- the transport-agnostic batching kernel: bounded
    FIFO + first-request-anchored max-wait deadline, no model/clock/thread
    policy baked in.
``batcher``
    :class:`MicroBatcher` -- the transport binding the core to a model,
    metrics, and an overload story (shed to a per-row fallback or reject).
``feature_cache``
    :class:`FeatureCache` -- version-keyed LRU prediction cache whose
    hit/miss/eviction counters land on the shared obs registry.
``registry``
    :class:`ModelRegistry` -- content-addressed model versions layered on the
    ``to_json``/``from_json`` round-trip, with hot swap and rollback.
``stats``
    :class:`ServingStats` -- latency percentiles, throughput and shed/reject
    counters, JSON-safe for the regression harness.
"""

from .batch_core import BatchQueue
from .batcher import BatchPolicy, MicroBatcher, PendingPrediction, QueueFull
from .feature_cache import FeatureCache
from .flat_model import FlatEnsemble
from .registry import ModelRegistry, ModelVersion
from .stats import ServingStats

__all__ = [
    "BatchPolicy",
    "BatchQueue",
    "FeatureCache",
    "FlatEnsemble",
    "MicroBatcher",
    "ModelRegistry",
    "ModelVersion",
    "PendingPrediction",
    "QueueFull",
    "ServingStats",
]
