"""Differential tests: the flattened batch predictor vs the per-row oracle.

The serving path must be a pure re-layout, never a re-interpretation: for
every model shape we can build -- randomized structures, missing values,
``default_left`` on both branches, stumps, empty ensembles -- and every input
container (``np.ndarray``, ``DenseMatrix``, ``CSRMatrix``), the
:class:`~repro.serve.FlatEnsemble` must agree with ``predict_row`` (the
scalar oracle) and with the existing vectorized ``DecisionTree.predict``
to 1e-6.
"""

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.core.booster_model import GBDTModel
from repro.core.tree import DecisionTree
from repro.data.matrix import CSRMatrix, DenseMatrix
from repro.serve import FlatEnsemble

TOL = 1e-6


# --------------------------------------------------------------- generators
def random_tree(rng: np.random.Generator, n_features: int, max_depth: int) -> DecisionTree:
    """A random tree with splits, thresholds and default directions drawn
    fresh -- covers shapes the trainers rarely produce (unbalanced, deep,
    stumpy, default-left and default-right mixed)."""
    tree = DecisionTree()
    root = tree.add_root(n_instances=1)
    frontier = [root]
    while frontier:
        nid = frontier.pop()
        depth = tree.depth[nid]
        if depth < max_depth and rng.random() < 0.7:
            lid, rid = tree.split_node(
                nid,
                attr=int(rng.integers(0, n_features)),
                threshold=float(rng.normal()),
                default_left=bool(rng.random() < 0.5),
                gain=float(rng.random()),
            )
            frontier += [lid, rid]
        else:
            tree.set_leaf(nid, float(rng.normal()))
    return tree


def random_model(
    rng: np.random.Generator, n_trees: int, n_features: int, max_depth: int
) -> GBDTModel:
    trees = [random_tree(rng, n_features, max_depth) for _ in range(n_trees)]
    return GBDTModel(trees=trees, params=GBDTParams(), base_score=float(rng.normal()))


def random_inputs(rng: np.random.Generator, n: int, d: int, missing_rate: float):
    """The same logical rows as dense-with-nan, DenseMatrix and CSR."""
    dense = rng.normal(size=(n, d))
    dense[rng.random((n, d)) < missing_rate] = np.nan
    mask = ~np.isnan(dense)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(np.int64)
    csr = CSRMatrix(indptr, np.nonzero(mask)[1].astype(np.int64), dense[mask], n_cols=d)
    return dense, DenseMatrix(dense.copy()), csr


def oracle_predict(model: GBDTModel, dense: np.ndarray) -> np.ndarray:
    """Scalar reference: base score plus ``predict_row`` over every tree."""
    out = np.full(dense.shape[0], model.base_score)
    cols = np.arange(dense.shape[1])
    for i, row in enumerate(dense):
        present = ~np.isnan(row)
        for tree in model.trees:
            out[i] += tree.predict_row(cols[present], row[present])
    return out


def per_tree_predict(model: GBDTModel, X) -> np.ndarray:
    """The legacy vectorized path: explicit Python loop over trees."""
    if isinstance(X, CSRMatrix):
        X = X.to_dense(fill=np.nan).values
    elif isinstance(X, DenseMatrix):
        X = X.values
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += tree.predict(X)
    return out


# ------------------------------------------------------------- randomized
@pytest.mark.parametrize("seed", range(8))
def test_random_models_match_oracle_everywhere(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 12))
    model = random_model(
        rng,
        n_trees=int(rng.integers(1, 12)),
        n_features=d,
        max_depth=int(rng.integers(1, 7)),
    )
    flat = FlatEnsemble.from_model(model, n_features=d)
    dense, dm, csr = random_inputs(rng, n=int(rng.integers(1, 60)), d=d,
                                   missing_rate=float(rng.choice([0.0, 0.2, 0.6])))
    expected = oracle_predict(model, dense)
    for X in (dense, dm, csr):
        got = flat.predict(X)
        assert np.allclose(got, expected, atol=TOL, rtol=0), type(X).__name__
        assert np.allclose(got, per_tree_predict(model, X), atol=TOL, rtol=0)


@pytest.mark.parametrize("missing_rate", [0.0, 0.35, 0.95])
def test_default_direction_respected(missing_rate):
    """Both default directions appear and missing cells follow them."""
    rng = np.random.default_rng(99)
    model = random_model(rng, n_trees=8, n_features=6, max_depth=5)
    directions = {
        bool(t.default_left[n])
        for t in model.trees
        for n in range(t.n_nodes)
        if t.left[n] != -1
    }
    assert directions == {True, False}, "generator must cover both defaults"
    dense, _, csr = random_inputs(rng, n=40, d=6, missing_rate=missing_rate)
    expected = oracle_predict(model, dense)
    flat = FlatEnsemble.from_model(model, n_features=6)
    assert np.allclose(flat.predict(dense), expected, atol=TOL, rtol=0)
    assert np.allclose(flat.predict(csr), expected, atol=TOL, rtol=0)


def test_all_missing_row_routes_by_defaults_only():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_trees=5, n_features=4, max_depth=4)
    flat = FlatEnsemble.from_model(model, n_features=4)
    dense = np.full((3, 4), np.nan)
    expected = oracle_predict(model, dense)
    assert np.allclose(flat.predict(dense), expected, atol=TOL, rtol=0)
    empty_csr = CSRMatrix(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64),
                          np.empty(0), n_cols=4)
    assert np.allclose(flat.predict(empty_csr), expected, atol=TOL, rtol=0)


# ------------------------------------------------------------- edge cases
def test_empty_ensemble_is_base_score():
    flat = FlatEnsemble.from_trees([], base_score=0.75, n_features=3)
    X = np.zeros((5, 3))
    assert np.allclose(flat.predict(X), 0.75)
    assert flat.predict_one(X[0]) == pytest.approx(0.75)


def test_stump_ensemble():
    stump = DecisionTree()
    stump.add_root()
    stump.set_leaf(0, -0.5)
    flat = FlatEnsemble.from_trees([stump, stump, stump], base_score=0.1, n_features=2)
    X = np.array([[1.0, np.nan], [np.nan, np.nan]])
    assert np.allclose(flat.predict(X), 0.1 - 1.5)


def test_zero_rows():
    rng = np.random.default_rng(0)
    flat = FlatEnsemble.from_model(random_model(rng, 3, 4, 3), n_features=4)
    out = flat.predict(np.empty((0, 4)))
    assert out.shape == (0,)


def test_explicit_zero_is_a_real_value_in_csr():
    """A stored 0.0 must route by comparison, not by default direction."""
    tree = DecisionTree()
    tree.add_root()
    left, right = tree.split_node(0, attr=0, threshold=-1.0, default_left=False, gain=1.0)
    tree.set_leaf(left, 10.0)   # v > -1
    tree.set_leaf(right, 20.0)  # v <= -1 or missing (default right)
    flat = FlatEnsemble.from_trees([tree], n_features=1)
    csr = CSRMatrix.from_rows([[(0, 0.0)], []], n_cols=1)
    assert np.allclose(flat.predict(csr), [10.0, 20.0])


def test_from_dict_roundtrip_and_scrambled_node_order():
    """BFS renumbering makes flat layout independent of source node order."""
    rng = np.random.default_rng(17)
    model = random_model(rng, n_trees=4, n_features=5, max_depth=4)
    # round-trip through the JSON payload (what the registry serves)
    clone = GBDTModel.from_json(model.to_json())
    clone.base_score = model.base_score
    flat = FlatEnsemble.from_model(clone, n_features=5)
    dense, _, _ = random_inputs(rng, n=30, d=5, missing_rate=0.3)
    assert np.allclose(flat.predict(dense), oracle_predict(model, dense), atol=TOL, rtol=0)


def test_unreachable_node_rejected():
    tree = DecisionTree()
    tree.add_root()
    tree.split_node(0, attr=0, threshold=0.0, default_left=True, gain=1.0)
    orphaned = tree.to_dict()
    for key in orphaned:
        orphaned[key] = orphaned[key] + orphaned[key][-1:]  # dangling extra node
    with pytest.raises(ValueError, match="unreachable"):
        FlatEnsemble.from_trees([DecisionTree.from_dict(orphaned)])


# --------------------------------------------------------- trained models
@pytest.mark.parametrize("fixture", ["susy_small", "sparse_small"])
def test_trained_models_differential(fixture, request):
    ds = request.getfixturevalue(fixture)
    model = GPUGBDTTrainer(GBDTParams(n_trees=6, max_depth=4)).fit(ds.X, ds.y)
    flat = model.flatten()
    dense = ds.X_test.to_dense(fill=np.nan).values
    expected = oracle_predict(model, dense)
    assert np.allclose(flat.predict(ds.X_test), expected, atol=TOL, rtol=0)
    assert np.allclose(flat.predict(dense), expected, atol=TOL, rtol=0)
    assert np.allclose(
        model.predict(ds.X_test), per_tree_predict(model, ds.X_test), atol=TOL, rtol=0
    )


def test_flat_dispatch_in_model_predict_matches_loop(susy_small):
    """GBDTModel.predict's large-batch flat dispatch equals the tree loop."""
    ds = susy_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=8, max_depth=4)).fit(ds.X, ds.y)
    big = np.repeat(ds.X_test.to_dense(fill=np.nan).values, 20, axis=0)
    assert big.shape[0] * model.n_trees >= GBDTModel._FLAT_MIN_PAIRS
    assert np.allclose(model.predict(big), per_tree_predict(model, big), atol=TOL, rtol=0)


def test_flatten_cache_invalidates_on_model_growth(susy_small):
    ds = susy_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
    first = model.flatten()
    assert model.flatten() is first  # cached
    extra = GPUGBDTTrainer(GBDTParams(n_trees=1, max_depth=3)).fit(ds.X, ds.y)
    model.trees.append(extra.trees[0])
    assert model.flatten() is not first
    assert model.flatten().n_trees == 4


def test_predict_one_and_predict_row_agree(sparse_small):
    ds = sparse_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=5, max_depth=4)).fit(ds.X, ds.y)
    flat = model.flatten()
    for i in range(min(10, ds.X_test.n_rows)):
        cols, vals = ds.X_test.row(i)
        row = np.full(ds.X_test.n_cols, np.nan)
        row[cols] = vals
        expected = model.base_score + sum(t.predict_row(cols, vals) for t in model.trees)
        assert flat.predict_one(row) == pytest.approx(expected, abs=TOL)
        assert flat.predict_row(cols, vals) == pytest.approx(expected, abs=TOL)
