"""Extended hypothesis property tests across orchestration variants:
multi-GPU, out-of-core, sampling and histogram trainers must all agree
with their references under randomized problems."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.approx import HistogramGBDTTrainer
from repro.ext.multigpu import MultiGpuGBDTTrainer
from repro.ext.outofcore import OutOfCoreGBDTTrainer
from tests.conftest import random_csr

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def problem(draw):
    seed = draw(st.integers(0, 5_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(16, 50))
    d = draw(st.integers(2, 6))
    X = random_csr(rng, n, d, density=draw(st.floats(0.4, 1.0)),
                   levels=draw(st.sampled_from([0, 3, 5])))
    y = rng.normal(size=n)
    return X, y


@given(problem(), st.integers(1, 4))
@SETTINGS
def test_multigpu_identity_property(pb, k):
    X, y = pb
    p = GBDTParams(n_trees=2, max_depth=3)
    single = GPUGBDTTrainer(p).fit(X, y)
    multi = MultiGpuGBDTTrainer(p, n_devices=k).fit(X, y)
    assert models_equal(multi, single)


@given(problem(), st.integers(1, 5))
@SETTINGS
def test_outofcore_identity_property(pb, cols_per_group):
    X, y = pb
    p = GBDTParams(n_trees=2, max_depth=3)
    single = GPUGBDTTrainer(p).fit(X, y)
    per_col = int(np.diff(X.to_csc().indptr).max()) * 8
    ooc = OutOfCoreGBDTTrainer(
        p, group_budget_bytes=per_col * cols_per_group + 1
    )
    assert models_equal(ooc.fit(X, y), single)


@given(problem(), st.floats(0.4, 1.0), st.floats(0.4, 1.0), st.integers(0, 99))
@SETTINGS
def test_sampling_identity_property(pb, subsample, colsample, seed):
    from repro.cpu.exact_greedy import ReferenceTrainer

    X, y = pb
    p = GBDTParams(
        n_trees=2, max_depth=3, subsample=subsample,
        colsample_bytree=colsample, seed=seed,
    )
    a = GPUGBDTTrainer(p).fit(X, y)
    b = ReferenceTrainer(p).fit(X, y)
    assert models_equal(a, b)


@given(problem())
@SETTINGS
def test_histogram_matches_exact_on_quantized_property(pb):
    """When bins cover every distinct value, histogram == exact partitions."""
    X, y = pb
    p = GBDTParams(n_trees=2, max_depth=3)
    exact = GPUGBDTTrainer(p).fit(X, y)
    hist = HistogramGBDTTrainer(p, max_bins=1024).fit(X, y)
    assert np.allclose(exact.predict(X), hist.predict(X), atol=1e-9)
    for a, b in zip(exact.trees, hist.trees):
        assert a.attr == b.attr
        assert a.n_instances == b.n_instances


@given(problem())
@SETTINGS
def test_histogram_instance_conservation_property(pb):
    X, y = pb
    model = HistogramGBDTTrainer(GBDTParams(n_trees=2, max_depth=4), max_bins=8).fit(X, y)
    for t in model.trees:
        for nid in range(t.n_nodes):
            if not t.is_leaf(nid):
                assert (
                    t.n_instances[nid]
                    == t.n_instances[t.left[nid]] + t.n_instances[t.right[nid]]
                )
