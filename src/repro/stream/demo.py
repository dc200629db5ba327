"""``python -m repro stream demo``: out-of-core training walk-through.

Declares a covtype sample at a work scale where the quantized entry stream
is ~10x the modeled device memory, shows the in-memory trainer dying with
:class:`~repro.gpusim.memory.DeviceOutOfMemory` at that scale, then trains
the same trees out-of-core under a strict host-cache budget: spillable RLE
blocks, background prefetch, modeled disk IO in the ledger.  The final
``STREAM_DIGEST <hex>`` / ``INMEM_DIGEST <hex>`` lines are what CI compares
-- the streamed model must be byte-identical to the in-memory one (trees do
not depend on the work scale, which only extrapolates the cost ledger).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..core.booster_model import model_digest
from ..core.params import GBDTParams
from ..data.datasets import make_dataset
from ..gpusim.device import TITAN_X_PASCAL
from ..gpusim.kernel import GpuDevice
from ..gpusim.memory import DeviceOutOfMemory
from ..obs import MetricsRegistry, use_registry
from .prefetch import modeled_overlap
from .trainer import StreamingHistTrainer

__all__ = ["StreamDemoResult", "run_stream_demo"]

_COUNTERS = (
    "blocks_spilled_total",
    "blocks_fetched_total",
    "blocks_rematerialized_total",
    "prefetch_hits_total",
    "io_wait_seconds_total",
)


@dataclasses.dataclass
class StreamDemoResult:
    """Everything the demo prints, plus the digests CI greps for."""

    digest: str
    inmem_digest: str
    matches_inmem: bool
    oom_message: str
    peak_resident_bytes: int
    budget_bytes: int
    counters: Dict[str, float]
    overlap: Dict[str, float]
    lines: List[str]

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def run_stream_demo(
    *,
    quick: bool = False,
    trees: Optional[int] = None,
    block_rows: Optional[int] = None,
    budget_bytes: Optional[int] = None,
    depth: int = 2,
    oversubscription: float = 10.0,
    spill_dir: Optional[str] = None,
) -> StreamDemoResult:
    """Run the demo; returns the printed report and both model digests."""
    n_trees = trees if trees is not None else (3 if quick else 6)
    rows = 300 if quick else 1200
    ds = make_dataset("covtype", run_rows=rows, seed=11)
    params = GBDTParams(n_trees=n_trees, max_depth=4, seed=7)
    # one full-scale chunk must fit on the device: at 10x oversubscription
    # the block fraction of the rows has to stay well under 1/10
    block_rows = block_rows if block_rows is not None else max(12, rows // 24)
    # default budget holds a handful of blocks (>= the pinned prefetch
    # working set) but NOT the whole dataset, so spills actually happen
    budget = budget_bytes if budget_bytes is not None else (
        16 << 10 if quick else 64 << 10
    )

    # Declare the run at a scale where the full entry stream is
    # ``oversubscription`` x the modeled device memory -- the wall the
    # in-memory trainer cannot cross.
    scale = oversubscription * TITAN_X_PASCAL.global_mem_bytes / (ds.X.nnz * 8)
    lines = [
        f"out-of-core training: {rows} rows, {n_trees} trees, "
        f"entry stream declared at {oversubscription:.0f}x device memory "
        f"(work_scale {scale:.3g})",
    ]

    try:
        HistogramGBDTTrainer(params, GpuDevice(work_scale=scale)).fit(ds.X, ds.y)
        raise AssertionError(
            "in-memory trainer fit an entry stream larger than device memory"
        )
    except DeviceOutOfMemory as exc:
        oom_message = str(exc)
    lines.append(f"  in-memory trainer at this scale: OOM ({oom_message})")

    device = GpuDevice(work_scale=scale)
    registry = MetricsRegistry(max_label_sets=4096)
    with use_registry(registry):
        trainer = StreamingHistTrainer(
            params,
            device,
            block_rows=block_rows,
            cache_budget_bytes=budget,
            prefetch_depth=depth,
            spill_dir=spill_dir,
        )
        model = trainer.fit(ds.X, ds.y)
    peak = trainer.store_.peak_resident_bytes
    if peak > budget:
        raise AssertionError(
            f"block cache exceeded its budget: peak {peak} B > {budget} B"
        )

    counters: Dict[str, float] = {}
    for name in _COUNTERS:
        inst = registry.get(name)
        counters[name] = float(inst.value) if inst is not None else 0.0

    lines.append(
        f"  streaming trainer: {len(trainer._block_ids)} blocks of "
        f"{block_rows} rows, cache budget {budget} B, prefetch depth {depth}"
    )
    lines.append(
        f"  peak resident {peak} B <= budget {budget} B "
        f"({100.0 * peak / budget:.0f}% used)"
    )
    lines.append(
        "  block store: "
        f"{counters['blocks_spilled_total']:.0f} spills, "
        f"{counters['blocks_fetched_total']:.0f} fetches, "
        f"{counters['blocks_rematerialized_total']:.0f} rematerializations; "
        f"prefetch hits {counters['prefetch_hits_total']:.0f}, "
        f"io wait {counters['io_wait_seconds_total']:.3f}s"
    )

    overlap = modeled_overlap(device)
    lines.append(
        f"  modeled io {overlap['modeled_io_s']:.3f}s vs compute "
        f"{overlap['modeled_compute_s']:.3f}s: serial "
        f"{overlap['modeled_serial_s']:.3f}s -> pipelined "
        f"{overlap['modeled_overlap_s']:.3f}s "
        f"({overlap['overlap_speedup']:.2f}x)"
    )
    lines.append(f"  modeled disk traffic {device.ledger.disk_bytes / 1e9:.2f} GB")

    reference = HistogramGBDTTrainer(params).fit(ds.X, ds.y)
    matches = model.to_json() == reference.to_json()
    digest = model_digest(model)
    inmem_digest = model_digest(reference)
    lines.append(
        "  streamed model byte-identical to in-memory: "
        + ("yes" if matches else "NO -- MISMATCH")
    )
    lines.append(f"STREAM_DIGEST {digest}")
    lines.append(f"INMEM_DIGEST {inmem_digest}")

    return StreamDemoResult(
        digest=digest,
        inmem_digest=inmem_digest,
        matches_inmem=matches,
        oom_message=oom_message,
        peak_resident_bytes=peak,
        budget_bytes=budget,
        counters=counters,
        overlap=overlap,
        lines=lines,
    )
