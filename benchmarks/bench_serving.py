"""Benchmark: the inference-serving subsystem (`repro.serve`).

Serves one request stream three ways -- the legacy per-request per-tree
loop, one flattened batch sweep, and the micro-batched serving path -- and
asserts the payload's invariants (see
:meth:`repro.bench.experiments.ServingBenchResult.invariants`): batched
serving beats per-request serving by an order of magnitude while
predicting identically, charges the simulated device, and rejects nothing.
"""

import pytest

from repro.bench.experiments import run_serving_bench
from repro.obs.runstore import failed_invariants

from conftest import print_result


@pytest.mark.benchmark(group="serving")
def test_serving_bench(benchmark, quick):
    result = benchmark.pedantic(lambda: run_serving_bench(quick=quick), rounds=1, iterations=1)
    print_result(result, "Serving bench -- flattened ensemble + micro-batching", bench="serving")
    assert not failed_invariants(result.payload())
