"""``python -m repro dist demo``: distributed training walk-through.

Trains the row-sharded data-parallel trainer on a small covtype sample,
prints the per-worker modeled times and collective-traffic totals, verifies
byte-identity against the single-process histogram trainer, and (with
``--kill-worker``) runs the crash-recovery drill: kill a rank mid-training,
restore from the checkpoint, reshard to the survivors, and land on the same
model digest.  The final ``DIST_DIGEST <hex>`` line is what CI diffs
between a killed run and a clean one.
"""

from __future__ import annotations

import dataclasses
import tempfile
from typing import List, Optional

from ..approx.histogram_trainer import HistogramGBDTTrainer
from ..core.booster_model import model_digest
from ..core.params import GBDTParams
from ..data.datasets import make_dataset
from .comms import FaultPlan
from .trainer import DistributedHistTrainer

__all__ = ["DistDemoResult", "run_dist_demo"]


@dataclasses.dataclass
class DistDemoResult:
    """Everything the demo prints, plus the digest CI greps for."""

    digest: str
    workers: int
    recoveries: int
    matches_single: bool
    elapsed_s: float
    comm_bytes: float
    comm_steps: int
    lines: List[str]

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def run_dist_demo(
    *,
    quick: bool = False,
    workers: int = 4,
    trees: Optional[int] = None,
    kill_worker: Optional[int] = None,
    kill_round: Optional[int] = None,
    straggler: Optional[int] = None,
    straggler_delay_s: float = 0.01,
    ckpt_dir: Optional[str] = None,
    max_bins: int = 32,
    trace_path: Optional[str] = None,
) -> DistDemoResult:
    """Run the demo; returns the printed report and the model digest."""
    n_trees = trees if trees is not None else (4 if quick else 8)
    rows = 300 if quick else 1200
    ds = make_dataset("covtype", run_rows=rows, seed=11)
    params = GBDTParams(n_trees=n_trees, max_depth=5, seed=7)

    faults = None
    if kill_worker is not None:
        faults = FaultPlan(
            kill_rank=kill_worker,
            kill_round=kill_round if kill_round is not None else max(1, n_trees // 2),
        )
    if straggler is not None:
        base_faults = faults or FaultPlan()
        faults = dataclasses.replace(
            base_faults, straggler_rank=straggler, straggler_delay_s=straggler_delay_s
        )

    tmp = None
    if ckpt_dir is None and kill_worker is not None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-dist-demo-")
        ckpt_dir = tmp.name

    try:
        trainer = DistributedHistTrainer(
            params,
            n_workers=workers,
            max_bins=max_bins,
            faults=faults,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=1,
        )
        model = trainer.fit(ds.X, ds.y)

        reference = HistogramGBDTTrainer(params, max_bins=max_bins).fit(ds.X, ds.y)
        matches = model.to_json() == reference.to_json()
        digest = model_digest(model)

        lines = [
            f"distributed training: {workers} workers, "
            f"{rows} rows, {n_trees} trees, max_bins={max_bins}",
        ]
        for attempt in trainer.attempts_:
            if attempt.failed_ranks:
                lines.append(
                    f"  attempt with {attempt.workers} workers lost rank(s) "
                    f"{attempt.failed_ranks} -- restored checkpoint, resharded"
                )
            else:
                note = (
                    f" (resumed at round {attempt.resumed_round})"
                    if attempt.resumed_round
                    else ""
                )
                lines.append(
                    f"  trained to completion on {attempt.workers} workers{note}"
                )
        if trainer.recoveries:
            lines.append(f"  recovered from {trainer.recoveries} worker failure(s)")
        for rank, (dev, st) in enumerate(zip(trainer.devices_, trainer.comm_stats_)):
            lines.append(
                f"  worker {rank}: modeled {dev.elapsed_seconds()*1e3:8.2f} ms, "
                f"comm {st.bytes_total/1e6:7.3f} MB in {st.steps_total} steps, "
                f"wait {st.wait_s*1e3:.1f} ms"
            )
        lines.append(
            f"  makespan {trainer.elapsed_seconds()*1e3:.2f} ms modeled, "
            f"total comm {trainer.comm_bytes()/1e6:.3f} MB / {trainer.comm_steps()} steps"
        )
        lines.append(
            "  byte-identical to single-process histogram trainer: "
            + ("yes" if matches else "NO -- BUG")
        )
        for attempt in trainer.attempts_:
            for rank, flight in sorted(attempt.flight_recorder.items()):
                lines.append(
                    f"  flight recorder rank {rank}: {flight['reason']} "
                    f"(last op {flight['last_op']} seq {flight['seq']}, "
                    f"{len(flight['unclosed'])} unclosed span(s))"
                )
        if trace_path is not None:
            n_slices = trainer.export_trace(trace_path)
            lines.append(
                f"  merged per-rank trace: {n_slices} slices -> {trace_path} "
                "(open at ui.perfetto.dev)"
            )
        lines.append(f"DIST_DIGEST {digest}")

        return DistDemoResult(
            digest=digest,
            workers=workers,
            recoveries=trainer.recoveries,
            matches_single=matches,
            elapsed_s=trainer.elapsed_seconds(),
            comm_bytes=trainer.comm_bytes(),
            comm_steps=trainer.comm_steps(),
            lines=lines,
        )
    finally:
        if tmp is not None:
            tmp.cleanup()
