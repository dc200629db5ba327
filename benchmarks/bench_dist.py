"""Benchmark: distributed data-parallel scaling + layout comm comparison.

Runs :mod:`repro.bench.distbench`: the W ∈ {1,2,4,8} scaling curve of the
row-sharded histogram trainer (modeled seconds, collective traffic), the
data-parallel vs attribute-parallel comm-volume table and the subtraction
comm saving, and asserts the payload's invariants (see
:meth:`repro.bench.distbench.DistBenchResult.invariants`).
``--quick-bench`` shrinks the workload and worker set.
"""

import pytest

from repro.bench.distbench import run_dist_bench
from repro.obs.runstore import failed_invariants

from conftest import print_result


@pytest.mark.benchmark(group="dist")
def test_dist(benchmark, quick):
    result = benchmark.pedantic(
        lambda: run_dist_bench(quick=quick), rounds=1, iterations=1
    )
    print_result(
        result, "Distributed training -- scaling and comm volume", bench="dist"
    )
    assert not failed_invariants(result.payload())
