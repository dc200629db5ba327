"""Customized SetKey: segments-per-block allocation (Section III-B).

Segmented reductions need a key per segment.  The naive grid uses one thread
block per segment, but the number of segments is ``#attributes x #nodes``
and explodes on high-dimensional datasets as the tree grows -- "using one
block per segment results in low efficiency, due to the overhead of
scheduling and launching a large number of GPU thread blocks".

The paper's remedy is a simple formula for how many segments each block
handles::

    segments_per_block = 1 + #segments / (#SM * C)        (C = 1000)

so the grid stays near ``#SM * C`` blocks no matter how many segments exist.
The paper reports a 10-20% end-to-end win on the high-dimensional datasets
(log1p, news20), which the Fig. 9 ablation bench reproduces.
"""

from __future__ import annotations

import dataclasses

from ..gpusim.device import DeviceSpec

__all__ = ["SetKeyPlan", "plan_segment_grid", "SETKEY_C"]

#: ``C`` in the paper's segments-per-block formula
SETKEY_C = 1000


@dataclasses.dataclass(frozen=True)
class SetKeyPlan:
    """Grid assignment for a segmented kernel."""

    n_segments: int
    segments_per_block: int
    blocks: int
    custom: bool  # True = paper's formula, False = one block per segment


def plan_segment_grid(
    spec: DeviceSpec,
    n_segments: int,
    *,
    enabled: bool = True,
    c: int = SETKEY_C,
) -> SetKeyPlan:
    """Choose the grid for a kernel over ``n_segments`` segments.

    With ``enabled=False`` this degrades to the naive one-block-per-segment
    assignment the paper ablates against.
    """
    if n_segments < 1:
        raise ValueError("n_segments must be >= 1")
    if c < 1:
        raise ValueError("C must be >= 1")
    if not enabled:
        return SetKeyPlan(
            n_segments=n_segments, segments_per_block=1, blocks=n_segments, custom=False
        )
    spb = 1 + n_segments // (spec.sm_count * c)
    blocks = -(-n_segments // spb)  # ceil
    return SetKeyPlan(
        n_segments=n_segments, segments_per_block=spb, blocks=blocks, custom=True
    )
