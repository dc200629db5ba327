"""Out-of-core streaming bench: identity, cache behavior, modeled overlap.

Fits the streaming trainer over a grid of ``block_rows`` x cache budget x
RLE on/off on a fixed covtype sample, verifies each configuration's model
is byte-identical to the in-memory reference, and records per-configuration
cache-engagement counters plus the modeled io-vs-compute overlap.  Results
land in ``BENCH_stream.json`` (standard location, see
:func:`repro.bench.output.write_bench_json`) with run-store-stable metric
names so ``gpu-gbdt runs submit|gate`` can trend and regression-gate them.
Its ``invariants`` dict states what must hold on every run: each model
byte-identical, each configuration's peak residency within its cache
budget, and at least one configuration spilling; ``main`` exits 1 and the
run store refuses the run when one is false.

Run with ``python -m repro.bench.streambench [--quick]``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..core.booster_model import model_digest
from ..core.params import GBDTParams
from ..data.datasets import make_dataset
from ..gpusim.costmodel import phase_times
from ..gpusim.kernel import GpuDevice
from ..obs import MetricsRegistry, use_registry
from ..obs.runstore import failed_invariants
from ..stream import StreamingHistTrainer
from ..stream.prefetch import modeled_overlap

__all__ = ["run_stream_bench", "main"]

_COUNTERS = (
    "blocks_spilled_total",
    "blocks_fetched_total",
    "prefetch_hits_total",
    "io_wait_seconds_total",
)


def _grid(quick: bool) -> List[Dict[str, Any]]:
    # tight budgets (below the dataset's total block bytes, above the
    # pinned prefetch working set) exercise the spill/fetch path; roomy
    # ones are the everything-resident contrast
    if quick:
        return [
            {"block_rows": 32, "budget": 24 << 10, "rle": True},
            {"block_rows": 32, "budget": 36 << 10, "rle": False},
            {"block_rows": 150, "budget": 256 << 10, "rle": True},
        ]
    return [
        {"block_rows": 64, "budget": 48 << 10, "rle": True},
        {"block_rows": 64, "budget": 64 << 10, "rle": False},
        {"block_rows": 100, "budget": 64 << 10, "rle": True},
        {"block_rows": 150, "budget": 512 << 10, "rle": True},
        {"block_rows": 300, "budget": 512 << 10, "rle": True},
        {"block_rows": 300, "budget": 512 << 10, "rle": False},
    ]


def run_stream_bench(quick: bool = False) -> Dict[str, Any]:
    """Run the grid; returns the ``BENCH_stream.json`` payload."""
    rows = 300 if quick else 600
    n_trees = 2 if quick else 4
    ds = make_dataset("covtype", run_rows=rows, seed=3)
    params = GBDTParams(n_trees=n_trees, max_depth=4, seed=7)

    t0 = time.perf_counter()
    reference = HistogramGBDTTrainer(params).fit(ds.X, ds.y)
    inmem_wall_s = time.perf_counter() - t0
    ref_json = reference.to_json()
    ref_digest = model_digest(reference)

    configs: List[Dict[str, Any]] = []
    for cfg in _grid(quick):
        device = GpuDevice()
        registry = MetricsRegistry(max_label_sets=4096)
        t0 = time.perf_counter()
        with use_registry(registry):
            trainer = StreamingHistTrainer(
                params,
                device,
                block_rows=cfg["block_rows"],
                cache_budget_bytes=cfg["budget"],
                use_rle=cfg["rle"],
            )
            model = trainer.fit(ds.X, ds.y)
        wall_s = time.perf_counter() - t0
        overlap = modeled_overlap(device)
        row: Dict[str, Any] = {
            "name": (
                f"b{cfg['block_rows']}-kb{cfg['budget'] >> 10}-"
                f"rle{int(cfg['rle'])}"
            ),
            "block_rows": cfg["block_rows"],
            "cache_budget_bytes": cfg["budget"],
            "rle": cfg["rle"],
            "identical": model.to_json() == ref_json,
            "n_blocks": len(trainer._block_ids),
            "wall_s": wall_s,
            "peak_resident_bytes": trainer.store_.peak_resident_bytes,
            "blockstore_gets": trainer.store_.get_calls,
            "modeled_disk_bytes": device.ledger.disk_bytes,
        }
        for name in _COUNTERS:
            inst = registry.get(name)
            row[name] = float(inst.value) if inst is not None else 0.0
        row.update(overlap)
        configs.append(row)

    # phase split of the last configuration, for the run-store "phases" view
    phases = {
        p: t for p, t in phase_times(device.spec, device.ledger, device.disk).items()
    }
    invariants = {
        "all_identical": all(r["identical"] for r in configs),
        "some_config_spilled": any(r["blocks_spilled_total"] > 0 for r in configs),
    }
    for r in configs:
        invariants[f"peak_within_budget[{r['name']}]"] = (
            r["peak_resident_bytes"] <= r["cache_budget_bytes"]
        )

    return {
        "workload": {
            "dataset": "covtype",
            "n_rows": rows,
            "n_trees": n_trees,
            "max_depth": 4,
            "quick": quick,
        },
        "reference": {"digest": ref_digest, "inmem_wall_s": inmem_wall_s},
        "configs": configs,
        "phases": phases,
        "invariants": invariants,
    }


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="smoke-scale grid")
    args = ap.parse_args(argv)

    from .output import write_bench_json

    payload = run_stream_bench(quick=args.quick)
    path = write_bench_json("stream", payload)
    for row in payload["configs"]:
        flag = "ok " if row["identical"] else "DIFF"
        print(
            f"{flag} {row['name']:>18}: peak {row['peak_resident_bytes']:>8} B, "
            f"{row['blocks_spilled_total']:.0f} spills, "
            f"{row['blocks_fetched_total']:.0f} fetches, "
            f"{row['blockstore_gets']} gets, "
            f"overlap {row['overlap_speedup']:.2f}x, wall {row['wall_s']:.2f}s"
        )
    print(f"[wrote {path}]")
    broken = failed_invariants(payload)
    if broken:
        print(f"ERROR: invariants failed: {', '.join(broken)}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    raise SystemExit(main())
