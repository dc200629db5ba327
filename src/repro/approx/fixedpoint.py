"""Fixed-point gradient quantization: order-independent histogram sums.

Histogram training reduces per-instance gradient pairs into per-(node,
attribute, bin) cells.  In float64 the cell value depends on the *order* of
the additions -- a monolithic scatter-add folds entries in sorted-column
order, while W row-sharded workers fold their own entries and then combine
partials over a ring.  Floating-point addition is not associative, so the
two foldings disagree in the last ulps, and a "distributed == single-worker"
claim could never be *byte*-identical.

The fix is the one production systems use for deterministic/distributed
histogram consistency (LightGBM's quantized training, SQL engines' decimal
aggregates): quantize each instance's ``(g_i, h_i)`` **once per round** onto
a fixed-point grid and accumulate *integers*.  Integer addition is exact and
associative, so every summation order -- monolithic scatter-add, stream
blocks, per-shard partials, ring-allreduce chunks -- produces the same cell values, and every
float derived from them (gains, leaf weights) is identical everywhere.

The grid is chosen per round from the global gradient magnitudes so that

* the total of ``n`` quantized values stays below ``2**50``, so every
  int64 sum, and its float64 conversion in the split scan, is exact, and
* resolution is the finest power of two that satisfies that bound, capped at
  ``2**-GRAD_SHIFT_CAP`` (~9e-13 absolute -- far below the float32 gain
  quantization that decides splits, see :mod:`repro.core.split`).

Dequantization multiplies by an exact power of two, so it introduces no
additional rounding.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GRAD_SHIFT_CAP", "choose_shift", "quantize_gradients", "inv_scale"]

#: finest fixed-point resolution ever used: 2**-40 per unit
GRAD_SHIFT_CAP = 40

#: quantized totals must stay below 2**_SAFE_SUM_BITS so sums stay exact
#: when the split scan converts them to float64
_SAFE_SUM_BITS = 50

_NON_FINITE = (
    "non-finite gradient or hessian (NaN or inf): check the labels and "
    "weights for NaN or infinite values"
)


def choose_shift(g_max: float, h_max: float, n: int, *, cap: int = GRAD_SHIFT_CAP) -> int:
    """Largest shift ``s`` (capped) such that ``n * max(|g|, h) * 2**s``
    stays below ``2**50``.

    Depends only on *global* quantities (``max`` reductions are exact and
    order-independent), so sharded workers that allreduce-max their local
    extrema compute the identical shift.

    Raises ``ValueError`` when either maximum is NaN or infinite: such
    gradients (from a NaN or infinite label) have no fixed-point image.
    """
    g_max, h_max = float(g_max), float(h_max)
    if not (math.isfinite(g_max) and math.isfinite(h_max)):
        raise ValueError(_NON_FINITE)
    m = max(g_max, h_max)
    if m <= 0.0:
        return cap
    # frexp: m * n = frac * 2**exp with frac in [0.5, 1)
    exp = math.frexp(m * max(int(n), 1))[1]
    return max(0, min(cap, _SAFE_SUM_BITS - exp))


def quantize_gradients(
    g: np.ndarray, h: np.ndarray, shift: int
) -> tuple[np.ndarray, np.ndarray]:
    """Round ``(g, h)`` to the fixed-point grid ``2**-shift`` (int64).

    Elementwise and deterministic: a worker holding any subset of the rows
    produces the identical integers for those rows.  Raises ``ValueError``
    on a NaN or infinite gradient, which no int64 can represent.
    """
    scale = float(2.0**shift)
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if not (np.isfinite(g).all() and np.isfinite(h).all()):
        raise ValueError(_NON_FINITE)
    gq = np.rint(g * scale).astype(np.int64)
    hq = np.rint(h * scale).astype(np.int64)
    return gq, hq


def inv_scale(shift: int) -> float:
    """Exact dequantization factor ``2**-shift``."""
    return float(2.0**-shift)
