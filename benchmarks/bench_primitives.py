"""Micro-benchmarks of the device primitives (real wall time).

Unlike the table/figure benches (which report *modeled* device seconds),
these measure the actual NumPy execution speed of the functional kernels --
useful for keeping the reproduction harness itself fast.
"""

import numpy as np
import pytest

from repro.gpusim import GpuDevice, TITAN_X_PASCAL
from repro.gpusim.primitives import (
    segment_sort_desc,
    segmented_argmax,
    segmented_inclusive_cumsum,
)

N = 200_000
N_SEG = 512


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(0)
    values = rng.normal(size=N)
    bounds = np.sort(rng.choice(N, size=N_SEG - 1, replace=False))
    offsets = np.concatenate(([0], bounds, [N])).astype(np.int64)
    return values, offsets


@pytest.mark.benchmark(group="primitives")
def test_segmented_cumsum_speed(benchmark, arrays):
    values, offsets = arrays
    d = GpuDevice(TITAN_X_PASCAL)
    out = benchmark(lambda: segmented_inclusive_cumsum(d, values, offsets))
    assert out.size == N


@pytest.mark.benchmark(group="primitives")
def test_segmented_argmax_speed(benchmark, arrays):
    values, offsets = arrays
    d = GpuDevice(TITAN_X_PASCAL)
    mx, am = benchmark(lambda: segmented_argmax(d, values, offsets))
    assert mx.size == N_SEG


@pytest.mark.benchmark(group="primitives")
def test_segment_sort_speed(benchmark, arrays):
    values, offsets = arrays
    d = GpuDevice(TITAN_X_PASCAL)
    payload = np.arange(N)
    sv, sp = benchmark(lambda: segment_sort_desc(d, values, payload, offsets))
    assert sv.size == N


@pytest.mark.benchmark(group="primitives")
def test_end_to_end_training_wall_time(benchmark):
    """Wall time of one real (reduced-scale) training run -- the unit of
    work every experiment repeats."""
    from repro import GBDTParams, GPUGBDTTrainer
    from repro.data import make_dataset

    ds = make_dataset("covtype", run_rows=1000)
    p = GBDTParams(n_trees=5, max_depth=5)
    model = benchmark.pedantic(
        lambda: GPUGBDTTrainer(p).fit(ds.X, ds.y), rounds=1, iterations=2
    )
    assert model.n_trees == 5
