"""Cross-cutting hypothesis property tests on end-to-end training.

These drive the whole trainer with randomized datasets and check the
structural invariants DESIGN.md Section 5 lists.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GBDTParams, GPUGBDTTrainer, models_equal
from repro.cpu.exact_greedy import ReferenceTrainer
from repro.data import CSRMatrix
from tests.conftest import random_csr

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def training_problem(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(12, 60))
    d = draw(st.integers(1, 6))
    density = draw(st.floats(0.3, 1.0))
    levels = draw(st.sampled_from([0, 2, 3, 5]))
    X = random_csr(rng, n, d, density=density, levels=levels)
    binary = draw(st.booleans())
    if binary:
        y = (rng.random(n) > 0.5).astype(np.float64)
    else:
        y = rng.normal(size=n)
    return X, y, seed


@given(training_problem(), st.booleans())
@SETTINGS
def test_gpu_matches_reference_on_random_problems(problem, use_rle):
    """The headline invariant under random data: identical trees."""
    X, y, _ = problem
    p = GBDTParams(
        n_trees=3, max_depth=3,
        use_rle=use_rle, rle_policy="always" if use_rle else "never",
    )
    a = GPUGBDTTrainer(p).fit(X, y)
    b = ReferenceTrainer(p).fit(X, y)
    assert models_equal(a, b)


@given(training_problem())
@SETTINGS
def test_instance_counts_partition(problem):
    X, y, _ = problem
    model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4)).fit(X, y)
    for t in model.trees:
        for nid in range(t.n_nodes):
            if not t.is_leaf(nid):
                assert (
                    t.n_instances[nid]
                    == t.n_instances[t.left[nid]] + t.n_instances[t.right[nid]]
                )


@given(training_problem())
@SETTINGS
def test_training_predictions_match_tree_routing(problem):
    """SmartGD's accumulated yhat == routing every instance through every
    tree -- prediction consistency."""
    X, y, _ = problem
    trainer = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3))
    model = trainer.fit(X, y)
    direct = model.predict(X)
    per_row = np.array(
        [
            sum(t.predict_row(*X.row(i)) for t in model.trees)
            for i in range(X.n_rows)
        ]
    )
    assert np.allclose(direct, per_row, atol=1e-12)


@given(training_problem())
@SETTINGS
def test_split_gains_recorded_positive(problem):
    X, y, _ = problem
    model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4)).fit(X, y)
    for t in model.trees:
        for nid in range(t.n_nodes):
            if not t.is_leaf(nid):
                assert t.gain[nid] > 0.0


@given(training_problem())
@SETTINGS
def test_gamma_monotonically_prunes(problem):
    X, y, _ = problem
    sizes = []
    for gamma in (0.0, 0.5, 5.0):
        model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4, gamma=gamma)).fit(X, y)
        sizes.append(sum(t.n_nodes for t in model.trees))
    assert sizes[0] >= sizes[1] >= sizes[2]


@given(training_problem())
@SETTINGS
def test_constant_targets_yield_stumps(problem):
    X, _, _ = problem
    y = np.full(X.n_rows, 3.0)
    model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4)).fit(X, y)
    assert all(t.n_nodes == 1 for t in model.trees)
    # and the ensemble converges toward the constant
    pred = model.predict(X)
    assert np.all(np.abs(pred - 3.0) < 3.0)


def test_duplicate_rows_share_leaves():
    """Identical instances can never be separated by any split."""
    X = CSRMatrix.from_rows([[(0, 1.0)], [(0, 1.0)], [(0, 5.0)]], n_cols=1)
    y = np.array([0.0, 1.0, 1.0])
    model = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4)).fit(X, y)
    pred = model.predict(X)
    assert pred[0] == pred[1]


# --------------------------------------------------------------- metamorphic
# Seeded dataset fuzzer + metamorphic relations: each test below transforms
# the training problem in a way with a *provable* effect on the result and
# asserts exactly that effect.


@st.composite
def adversarial_problem(draw, quantize=True):
    """Dense problems stacked with the hot path's worst cases: fully-missing
    (NaN) column blocks, constant and duplicate columns, duplicate rows,
    single-row nodes (tiny n, deep trees) and extreme target magnitudes."""
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(6, 48))
    d = draw(st.integers(2, 7))
    dense = rng.normal(size=(n, d))
    levels = draw(st.sampled_from([0, 2, 4])) if quantize else 0
    if levels:
        dense = np.round(dense * levels) / levels  # duplicate values -> runs
    mask = rng.random((n, d)) < draw(st.floats(0.4, 1.0))
    if draw(st.booleans()):  # a fully-missing (all-NaN) column block
        mask[:, draw(st.integers(0, d - 1))] = False
    if draw(st.booleans()):  # constant column
        dense[:, draw(st.integers(0, d - 1))] = 1.5
    if d >= 2 and draw(st.booleans()):  # duplicate column (guaranteed gain tie)
        dense[:, d - 1] = dense[:, 0]
        mask[:, d - 1] = mask[:, 0]
    if n >= 8 and draw(st.booleans()):  # duplicate rows
        dense[n // 2 :] = dense[: n - n // 2]
        mask[n // 2 :] = mask[: n - n // 2]
    scale = 10.0 ** float(draw(st.integers(-3, 4)))  # extreme gradients
    y = (dense @ rng.normal(size=d) + rng.normal(scale=0.1, size=n)) * scale
    r, c = np.nonzero(mask)
    X = CSRMatrix.from_coo(r, c, dense[r, c], n_rows=n, n_cols=d)
    return X, dense, mask, y, seed


def _csr_from(dense, mask):
    r, c = np.nonzero(mask)
    return CSRMatrix.from_coo(
        r, c, dense[r, c], n_rows=dense.shape[0], n_cols=dense.shape[1]
    )


@given(adversarial_problem(quantize=False))
@SETTINGS
def test_feature_permutation_invariance(problem):
    """Relabeling features must not change predictions: the same instances
    end up in the same leaves.  Continuous values only -- quantized columns
    can tie two *different* features' gains exactly, where attr-order
    tie-breaking legitimately picks different splits.  Duplicate columns tie
    too, but either winner induces the identical partition, so predictions
    differ at most by float summation order."""
    X, dense, mask, y, seed = problem
    d = dense.shape[1]
    perm = np.random.default_rng(seed + 1).permutation(d)
    Xp = _csr_from(dense[:, perm], mask[:, perm])
    p = GBDTParams(n_trees=3, max_depth=4)
    base = GPUGBDTTrainer(p).fit(X, y).predict(X)
    permuted = GPUGBDTTrainer(p).fit(Xp, y).predict(Xp)
    scale = max(1.0, float(np.max(np.abs(base))))
    assert np.allclose(base, permuted, rtol=1e-9, atol=1e-9 * scale)


@given(adversarial_problem())
@SETTINGS
def test_instance_duplication_equals_doubled_weight(problem):
    """Training on every instance twice with doubled regularization is the
    same problem: Eq. (2) gains become (2G)^2/(2H + 2*lambda) = 2x and leaf
    weights -2G/(2H + 2*lambda) are unchanged, so (with gamma 0) trees and
    predictions agree."""
    X, dense, mask, y, _ = problem
    lam = 0.7
    p1 = GBDTParams(n_trees=2, max_depth=3, lambda_=lam, gamma=0.0)
    p2 = GBDTParams(n_trees=2, max_depth=3, lambda_=2 * lam, gamma=0.0)
    X2 = _csr_from(np.vstack([dense, dense]), np.vstack([mask, mask]))
    y2 = np.concatenate([y, y])
    single = GPUGBDTTrainer(p1).fit(X, y).predict(X)
    doubled = GPUGBDTTrainer(p2).fit(X2, y2).predict(X2)
    assert np.allclose(doubled[: y.size], doubled[y.size :], rtol=0, atol=0)
    scale = max(1.0, float(np.max(np.abs(single))))
    assert np.allclose(single, doubled[: y.size], rtol=1e-9, atol=1e-9 * scale)


@given(adversarial_problem(), st.booleans())
@SETTINGS
def test_rle_on_off_identity(problem, direct):
    """Compressed and raw attribute lists must grow byte-identical trees
    (paper Section III-C: RLE is an encoding, not an approximation)."""
    X, _, _, y, _ = problem
    on = GPUGBDTTrainer(
        GBDTParams(n_trees=2, max_depth=4, rle_policy="always", use_direct_rle=direct)
    ).fit(X, y)
    off = GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=4, rle_policy="never")).fit(X, y)
    # to_json embeds the (intentionally different) params; the *trees* and
    # base score must match exactly
    assert models_equal(on, off)


@given(adversarial_problem(), st.sampled_from([4, 16]))
@SETTINGS
def test_hist_subtraction_on_off_identity(problem, max_bins):
    """Sibling subtraction is exact int64 arithmetic, not an approximation:
    the histogram trainer must serialize byte-identical models with it on
    and off, across the adversarial layouts."""
    from repro.approx.histogram_trainer import HistogramGBDTTrainer

    X, _, _, y, _ = problem
    p = GBDTParams(n_trees=2, max_depth=4)
    on = HistogramGBDTTrainer(p, max_bins=max_bins, use_subtraction=True).fit(X, y)
    off = HistogramGBDTTrainer(p, max_bins=max_bins, use_subtraction=False).fit(X, y)
    assert on.to_json() == off.to_json()


@given(adversarial_problem())
@SETTINGS
def test_goss_off_is_exactly_full_training(problem):
    """GOSS at a=1 must take the pre-sampling code path bit-for-bit --
    consuming no randomness and touching no gradient -- whatever b is set
    to.  (Params differ, so compare trees, not serialized JSON.)"""
    from repro.approx.histogram_trainer import HistogramGBDTTrainer

    X, _, _, y, _ = problem
    base = GBDTParams(n_trees=2, max_depth=4)
    off = GBDTParams(n_trees=2, max_depth=4, goss_a=1.0, goss_b=0.7)
    a = HistogramGBDTTrainer(base, max_bins=16).fit(X, y)
    b = HistogramGBDTTrainer(off, max_bins=16).fit(X, y)
    assert models_equal(a, b)


@pytest.mark.parametrize("w", [1, 2, 4])
def test_dist_subtraction_and_goss_off_identity(w):
    """The W-sharded trainer inherits both knobs through the shared grow
    loop: subtraction on/off and GOSS-off must land on the single-process
    reference model for W in {1, 2, 4}."""
    from repro.approx.histogram_trainer import HistogramGBDTTrainer
    from repro.data import make_dataset
    from repro.dist import DistributedHistTrainer

    ds = make_dataset("covtype", run_rows=160, seed=13)
    p = GBDTParams(n_trees=3, max_depth=4, seed=7)
    reference = HistogramGBDTTrainer(
        p, max_bins=16, use_subtraction=False
    ).fit(ds.X, ds.y).to_json()
    for use_subtraction in (True, False):
        model = DistributedHistTrainer(
            p, n_workers=w, max_bins=16, use_subtraction=use_subtraction
        ).fit(ds.X, ds.y)
        assert model.to_json() == reference
    goss_off = DistributedHistTrainer(
        p.replace(goss_b=0.5), n_workers=w, max_bins=16
    ).fit(ds.X, ds.y)
    assert models_equal(goss_off, HistogramGBDTTrainer(p, max_bins=16).fit(ds.X, ds.y))


@given(adversarial_problem())
@SETTINGS
def test_predictions_within_label_hull(problem):
    """For squared loss a single tree's leaf weights are shrunk leaf means:
    every prediction lies in the hull of the labels and the 0 base score."""
    X, _, _, y, _ = problem
    model = GPUGBDTTrainer(GBDTParams(n_trees=1, max_depth=5, learning_rate=1.0)).fit(X, y)
    pred = model.predict(X)
    lo, hi = min(0.0, float(y.min())), max(0.0, float(y.max()))
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    assert np.all(pred >= lo - slack) and np.all(pred <= hi + slack)
