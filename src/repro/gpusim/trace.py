"""Chrome-trace events for a device's kernel timeline.

Lays the recorded ledger out as ``chrome://tracing`` / Perfetto-compatible
events: one row per phase, one slice per kernel launch (duration = the cost
model's time), PCIe transfers on their own row.  Handy for eyeball profiling
of a training run::

    from repro.obs.export import export_merged_chrome_trace
    export_merged_chrome_trace("train.trace.json", device=device)

which writes these events as the merged trace's device track.  Open the
file at https://ui.perfetto.dev.
"""

from __future__ import annotations

from typing import List

from .costmodel import kernel_time, transfer_time
from .kernel import GpuDevice

__all__ = ["chrome_trace_events"]


def chrome_trace_events(device: GpuDevice) -> List[dict]:
    """Ledger -> list of Chrome Trace Event Format dicts (``X`` events).

    Events are laid out back-to-back in recorded order (the cost model
    assumes no overlap), with per-phase thread ids so the viewer groups
    rows by training phase.
    """
    spec = device.spec
    events: List[dict] = []
    phase_tid: dict = {}
    t_us = 0.0
    if not device.ledger.kernels and not device.ledger.transfers:
        # an empty ledger exports as an empty (but valid) trace -- no
        # orphaned metadata rows for tracks that hold no slices
        return events
    for k in device.ledger.kernels:
        dur = kernel_time(spec, k) * 1e6
        tid = phase_tid.setdefault(k.phase, len(phase_tid) + 1)
        events.append(
            {
                "name": k.name,
                "cat": k.phase,
                "ph": "X",
                "ts": round(t_us, 3),
                "dur": round(dur, 3),
                "pid": 1,
                "tid": tid,
                "args": {
                    "elements": k.work.elements,
                    "coalesced_bytes": k.work.coalesced_bytes,
                    "irregular_bytes": k.work.irregular_bytes,
                    "blocks": k.blocks,
                    "launches": k.launches,
                },
            }
        )
        t_us += dur
    pcie_tid = len(phase_tid) + 1
    for t in device.ledger.transfers:
        dur = transfer_time(spec, t) * 1e6
        events.append(
            {
                "name": f"{t.name} ({t.direction})",
                "cat": "pcie",
                "ph": "X",
                "ts": round(t_us, 3),
                "dur": round(dur, 3),
                "pid": 1,
                "tid": pcie_tid,
                "args": {"bytes": t.nbytes},
            }
        )
        t_us += dur
    # row labels (the pcie row only exists if a transfer was recorded)
    rows = list(phase_tid.items())
    if device.ledger.transfers:
        rows.append(("pcie", pcie_tid))
    for phase, tid in rows:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": phase},
            }
        )
    return events

