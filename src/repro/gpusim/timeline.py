"""Profiling views over a device's cost ledger.

The paper's Section IV-A analyses where training time goes ("the most
expensive operation is finding the best split point: ... around 95% of that
for GPU-GBDT").  These helpers reproduce that style of breakdown from the
recorded ledger.
"""

from __future__ import annotations

import dataclasses
from typing import List

from .costmodel import phase_times
from .kernel import GpuDevice

__all__ = ["PhaseSlice", "profile", "format_profile"]


@dataclasses.dataclass(frozen=True)
class PhaseSlice:
    """One phase's share of the modeled runtime."""

    phase: str
    seconds: float
    fraction: float
    launches: int


def profile(device: GpuDevice) -> List[PhaseSlice]:
    """Per-phase modeled time, ordered by first appearance."""
    times = phase_times(device.spec, device.ledger)
    total = sum(times.values()) or 1.0
    launches_by_phase: dict[str, int] = {}
    for k in device.ledger.kernels:
        launches_by_phase[k.phase] = launches_by_phase.get(k.phase, 0) + k.launches
    return [
        PhaseSlice(phase=p, seconds=s, fraction=s / total, launches=launches_by_phase.get(p, 0))
        for p, s in times.items()
    ]


def format_profile(device: GpuDevice, title: str = "device profile") -> str:
    """ASCII profile table: phase, seconds, percentage, launch count."""
    slices = profile(device)
    lines = [title, f"{'phase':<24s} {'seconds':>12s} {'share':>8s} {'launches':>9s}"]
    for sl in slices:
        lines.append(f"{sl.phase:<24s} {sl.seconds:>12.6f} {sl.fraction:>7.1%} {sl.launches:>9d}")
    total = sum(sl.seconds for sl in slices)
    lines.append(f"{'total':<24s} {total:>12.6f}")
    return "\n".join(lines)
