"""Run-Length Encoding of sorted attribute values (Section III-C).

Sorted attribute lists are full of repeated values (binary indicators,
quantized sensor readings, categorical codes), so the paper compresses each
segment's *values* with RLE: ``1.2, 1.2, 1.2, 3.4, 3.4, 3.4, 3.4`` becomes
``(1.2, 3), (3.4, 4)``.  Instance ids are not compressible (each entry names
a distinct instance) and stay in the full-length array.

Benefits reproduced here (and measured by the Fig. 9 ablation):

* memory + PCIe traffic shrink by the compression ratio;
* each run is exactly one split candidate, so the duplicated-split-point
  problem (same value, different prefix gains) disappears by construction;
* node splitting can operate on runs directly ("Directly Split RLE").

The compression *decision* follows the paper: compress when the estimated
ratio ``dimensionality / cardinality`` exceeds a user constant ``R``; a
``"measured"`` policy (actual runs/nnz) and forced on/off modes are also
provided, since the estimate is coarse.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..gpusim.primitives import check_offsets

__all__ = [
    "RunLengthColumns",
    "encode_segments",
    "decode_segments",
    "estimated_ratio",
    "measured_ratio",
    "decide_compression",
    "RLE_POLICIES",
    "PAPER_RLE_THRESHOLD",
    "MEASURED_RLE_THRESHOLD",
]

RLE_POLICIES = ("paper", "measured", "always", "never")
#: ``R`` of the paper's rule: compress when dimensionality / cardinality > R
PAPER_RLE_THRESHOLD = 1e-3
#: elements per run the ``"measured"`` policy needs before it compresses
MEASURED_RLE_THRESHOLD = 4.0


@dataclasses.dataclass
class RunLengthColumns:
    """RLE view of segmented sorted values.

    Attributes
    ----------
    run_values:
        ``(n_runs,)`` value of each run.
    run_lengths:
        ``(n_runs,)`` int64 length of each run (all >= 1).
    run_offsets:
        ``(S + 1,)`` int64 segmentation of the run arrays mirroring the
        original ``offsets`` over elements: segment ``s`` owns runs
        ``[run_offsets[s], run_offsets[s+1])``.
    run_elem_offsets:
        ``(n_runs + 1,)`` int64 segmentation of the elements by run; derived
        from ``run_lengths`` unless its producer passes it (unchecked).
    """

    run_values: np.ndarray
    run_lengths: np.ndarray
    run_offsets: np.ndarray
    run_elem_offsets: np.ndarray | None = dataclasses.field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.run_values = np.asarray(self.run_values, dtype=np.float64)
        self.run_lengths = np.asarray(self.run_lengths, dtype=np.int64)
        self.run_offsets = np.asarray(self.run_offsets, dtype=np.int64)
        if self.run_values.size != self.run_lengths.size:
            raise ValueError("run arrays must align")
        if self.run_lengths.size and self.run_lengths.min() < 1:
            raise ValueError("runs must have length >= 1")
        check_offsets(self.run_offsets, self.run_values.size)
        if self.run_elem_offsets is None:
            self.run_elem_offsets = np.concatenate(([0], np.cumsum(self.run_lengths)))

    @property
    def n_runs(self) -> int:
        return self.run_values.size

    @property
    def n_elements(self) -> int:
        return int(self.run_elem_offsets[-1])

    @property
    def compression_ratio(self) -> float:
        """elements per run -- > 1 means RLE shrinks the value array."""
        return self.n_elements / self.n_runs if self.n_runs else 1.0

    def element_offsets(self) -> np.ndarray:
        """Reconstruct the per-segment *element* offsets (S + 1 entries)."""
        return self.run_elem_offsets[self.run_offsets]

    def run_starts(self) -> np.ndarray:
        """Element index where each run begins."""
        return self.run_elem_offsets[:-1]

    @property
    def nbytes_device(self) -> int:
        """Device bytes for the compressed values: fp32 value + int32 length
        per run, plus run offsets; instance ids are accounted separately."""
        return self.n_runs * 8 + self.run_offsets.size * 8


def encode_segments(values: np.ndarray, offsets: np.ndarray) -> RunLengthColumns:
    """RLE-compress each segment of a flat sorted-values array.

    Runs never cross segment boundaries, matching Fig. 4 where each
    attribute is compressed independently.  Linear time -- the paper notes
    compression is cheap *because* the values are already sorted.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    offsets = check_offsets(offsets, n)
    if n == 0:
        return RunLengthColumns(
            run_values=np.empty(0),
            run_lengths=np.empty(0, np.int64),
            run_offsets=np.zeros(offsets.size, np.int64),
        )
    sid = np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    new_run[1:] = (values[1:] != values[:-1]) | (sid[1:] != sid[:-1])
    starts = np.flatnonzero(new_run)
    run_values = values[starts]
    run_lengths = np.diff(np.concatenate((starts, [n])))
    # number of runs beginning before each segment boundary
    run_offsets = np.searchsorted(starts, offsets, side="left")
    return RunLengthColumns(run_values=run_values, run_lengths=run_lengths, run_offsets=run_offsets)


def decode_segments(rle: RunLengthColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_segments`: ``(values, element offsets)``."""
    values = np.repeat(rle.run_values, rle.run_lengths)
    return values, rle.element_offsets()


def estimated_ratio(n_rows: int, n_cols: int) -> float:
    """The paper's compression-ratio estimate: ``dimensionality / cardinality``.

    A tall-and-narrow dataset (large n, few attributes) yields a small
    ratio, a short-and-wide one a large ratio.  The paper compresses when
    the estimate exceeds ``R``.
    """
    if n_rows <= 0:
        raise ValueError("cardinality must be positive")
    return n_cols / n_rows


def measured_ratio(values: np.ndarray, offsets: np.ndarray) -> float:
    """Actual repetition: elements per run over the sorted segments."""
    return encode_segments(values, offsets).compression_ratio


def decide_compression(
    policy: str,
    *,
    n_rows: int,
    n_cols: int,
    values: np.ndarray | None = None,
    offsets: np.ndarray | None = None,
    paper_threshold: float = PAPER_RLE_THRESHOLD,
    measured_threshold: float = MEASURED_RLE_THRESHOLD,
) -> bool:
    """Decide whether to RLE-compress under the given policy.

    ``"paper"`` uses the dimensionality/cardinality estimate with threshold
    ``R = paper_threshold``; ``"measured"`` compresses when the real sorted
    data repeats at least ``measured_threshold`` elements per run (requires
    ``values``/``offsets``); ``"always"``/``"never"`` force the choice.
    """
    if policy not in RLE_POLICIES:
        raise ValueError(f"unknown RLE policy {policy!r}; choose from {RLE_POLICIES}")
    if policy == "always":
        return True
    if policy == "never":
        return False
    if policy == "paper":
        return estimated_ratio(n_rows, n_cols) > paper_threshold
    if values is None or offsets is None:
        raise ValueError("policy 'measured' requires the sorted values and offsets")
    return measured_ratio(values, offsets) >= measured_threshold
