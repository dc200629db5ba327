"""Differential tests: the flattened batch predictor vs the per-row oracle.

The serving path must be a pure re-layout, never a re-interpretation: for
every model shape we can build -- randomized structures, missing values,
``default_left`` on both branches, stumps, empty ensembles -- and every input
container (``np.ndarray``, ``DenseMatrix``, ``CSRMatrix``), the
:class:`~repro.serve.FlatEnsemble` must give the same bits as ``predict_row``
(the scalar oracle) and as the vectorized ``DecisionTree.predict`` summed
tree by tree.  Every path sums a row in boosting order, base score first, so
the comparisons are exact, whatever batch a row arrives in.
"""

import tracemalloc

import numpy as np
import pytest

from repro import GBDTParams, GPUGBDTTrainer
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.booster_model import GBDTModel
from repro.core.tree import DecisionTree
from repro.data import make_dataset
from repro.data.matrix import CSRMatrix, DenseMatrix
from repro.serve import FlatEnsemble, flat_model
from repro.stream import StreamingHistTrainer


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
    """Vectorized per-tree reference: ``DecisionTree.predict`` added tree by
    tree in boosting order (how training accumulates its predictions)."""
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
        assert np.array_equal(got, expected), type(X).__name__
        assert np.array_equal(got, per_tree_predict(model, X))


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
    assert np.array_equal(flat.predict(dense), expected)
    assert np.array_equal(flat.predict(csr), expected)


def test_all_missing_row_routes_by_defaults_only():
    rng = np.random.default_rng(5)
    model = random_model(rng, n_trees=5, n_features=4, max_depth=4)
    flat = FlatEnsemble.from_model(model, n_features=4)
    dense = np.full((3, 4), np.nan)
    expected = oracle_predict(model, dense)
    assert np.array_equal(flat.predict(dense), expected)
    empty_csr = CSRMatrix(np.zeros(4, dtype=np.int64), np.empty(0, dtype=np.int64),
                          np.empty(0), n_cols=4)
    assert np.array_equal(flat.predict(empty_csr), expected)


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
    assert np.array_equal(flat.predict(dense), oracle_predict(model, dense))


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
    assert np.array_equal(flat.predict(ds.X_test), expected)
    assert np.array_equal(flat.predict(dense), expected)
    assert np.array_equal(model.predict(ds.X_test), per_tree_predict(model, ds.X_test))


def test_flat_dispatch_in_model_predict_matches_loop(susy_small):
    """GBDTModel.predict goes through the cached flat ensemble at every
    batch size and equals the tree loop bit for bit."""
    ds = susy_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=8, max_depth=4)).fit(ds.X, ds.y)
    big = np.repeat(ds.X_test.to_dense(fill=np.nan).values, 20, axis=0)
    for rows in (big[:1], big[:8], big):
        assert np.array_equal(model.predict(rows), model.flatten().predict(rows))
        assert np.array_equal(model.predict(rows), per_tree_predict(model, rows))


TRAINERS = {
    "exact": GPUGBDTTrainer,
    "histogram": HistogramGBDTTrainer,
    "stream": lambda p: StreamingHistTrainer(p, block_rows=64),
}


@pytest.mark.parametrize("trainer", sorted(TRAINERS))
def test_prediction_is_batch_independent(covtype_small, trainer):
    """A row gets the same bits whether it is predicted alone, in a batch of
    8 or in one batch of ``rows x trees`` well past the old 4096-pair switch
    to the flat sweep -- and those bits are the per-tree sequential sum and
    ``predict_one``'s; ``staged_predict(X)[k - 1]`` is
    ``predict(X, n_trees=k)`` for every ``k``."""
    ds = covtype_small
    model = TRAINERS[trainer](GBDTParams(n_trees=20, max_depth=4)).fit(ds.X, ds.y)
    dense = np.vstack(
        [ds.X.to_dense(fill=np.nan).values, ds.X_test.to_dense(fill=np.nan).values]
    )
    assert dense.shape[0] * model.n_trees >= 4096
    whole = model.predict(dense)
    one_by_one = np.concatenate([model.predict(row[None]) for row in dense])
    by_eight = np.concatenate(
        [model.predict(dense[i : i + 8]) for i in range(0, dense.shape[0], 8)]
    )
    assert np.array_equal(one_by_one, whole)
    assert np.array_equal(by_eight, whole)
    assert np.array_equal(whole, per_tree_predict(model, dense))
    staged = model.staged_predict(dense)
    for k in range(1, model.n_trees + 1):
        assert np.array_equal(staged[k - 1], model.predict(dense, n_trees=k))
    assert np.array_equal(staged[-1], whole)
    flat = model.flatten()
    assert np.array_equal([flat.predict_one(row) for row in dense], whole)


def test_flatten_cache_invalidates_on_model_growth(susy_small):
    ds = susy_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=3, max_depth=3)).fit(ds.X, ds.y)
    first = model.flatten()
    assert model.flatten() is first  # cached
    extra = GPUGBDTTrainer(GBDTParams(n_trees=1, max_depth=3)).fit(ds.X, ds.y)
    model.trees.append(extra.trees[0])
    assert model.flatten() is not first
    assert model.flatten().n_trees == 4


def _first_internal(tree: DecisionTree) -> int:
    return next(n for n in range(tree.n_nodes) if not tree.is_leaf(n))


def _set_threshold(tree):
    tree.threshold[_first_internal(tree)] = 1e300


def _set_attr(tree):
    n = _first_internal(tree)
    tree.attr[n] = (tree.attr[n] + 1) % 54


def _flip_default(tree):
    n = _first_internal(tree)
    tree.default_left[n] = not tree.default_left[n]


def _swap_children(tree):
    n = _first_internal(tree)
    tree.left[n], tree.right[n] = tree.right[n], tree.left[n]


@pytest.mark.parametrize("edit", [_set_threshold, _set_attr, _flip_default, _swap_children])
def test_flatten_cache_sees_in_place_node_edits(covtype_small, edit):
    """Editing a node list in place, past the tree API, is not served from
    the stale flat ensemble: the next predict is the per-tree sum."""
    ds = covtype_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=3)).fit(ds.X, ds.y)
    before = model.predict(ds.X_test)
    edit(model.trees[0])
    after = model.predict(ds.X_test)
    assert np.array_equal(after, per_tree_predict(model, ds.X_test))
    assert not np.array_equal(after, before)


def test_wide_csr_predict_densifies_one_chunk_at_a_time():
    """A CSR input is densified one row chunk at a time: 6,000 x 600 sparse
    rows (a 27.5 MiB dense block) under 128 trees (873-row chunks, 4 MiB
    each) peak at about 11 MiB, and give the per-tree sum's bits."""
    X = make_dataset("e2006", run_rows=8000, seed=3).X
    model = random_model(np.random.default_rng(3), n_trees=128, n_features=600, max_depth=4)
    flat = model.flatten()
    tracemalloc.start()
    try:
        got = flat.predict(X)
        predict_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        staged = flat.staged_predict(X)
        staged_peak = tracemalloc.get_traced_memory()[1] - staged.nbytes
    finally:
        tracemalloc.stop()
    assert predict_peak < 16 * 2**20
    assert staged_peak < 16 * 2**20
    assert np.array_equal(got, per_tree_predict(model, X))
    assert np.array_equal(staged[-1], got)


def test_wide_csr_chunks_are_capped_by_cells(monkeypatch):
    """With few trees the (row, tree) budget alone would densify all 6,000 x
    600 test rows of e2006 at once; the CSR cell cap bounds every densified
    row range, and each row still gets the bits of a one-row predict."""
    X = make_dataset("e2006", run_rows=24000, seed=1).X_test
    model = random_model(np.random.default_rng(5), n_trees=2, n_features=600, max_depth=4)
    flat = model.flatten()
    cells = []
    to_dense = CSRMatrix.to_dense

    def recording(self, fill=0.0, lo=0, hi=None):
        out = to_dense(self, fill, lo, hi)
        cells.append(out.values.size)
        return out

    monkeypatch.setattr(CSRMatrix, "to_dense", recording)
    got = flat.predict(X)
    assert X.n_rows * X.n_cols > flat_model._CSR_CELLS_PER_CHUNK
    assert len(cells) > 1 and max(cells) <= flat_model._CSR_CELLS_PER_CHUNK
    one_by_one = [flat.predict(X.select_rows(np.array([i])))[0] for i in range(X.n_rows)]
    assert np.array_equal(got, np.array(one_by_one))


def test_predict_one_and_predict_row_agree(sparse_small):
    ds = sparse_small
    model = GPUGBDTTrainer(GBDTParams(n_trees=5, max_depth=4)).fit(ds.X, ds.y)
    flat = model.flatten()
    for i in range(min(10, ds.X_test.n_rows)):
        cols, vals = ds.X_test.row(i)
        row = np.full(ds.X_test.n_cols, np.nan)
        row[cols] = vals
        expected = model.base_score
        for tree in model.trees:
            expected += tree.predict_row(cols, vals)
        assert flat.predict_one(row) == expected
        assert flat.predict(row[None])[0] == expected


def test_prefix_needs_only_its_trees_width():
    """``predict(X, n_trees=k)`` accepts an ``X`` as wide as the first ``k``
    trees test; the whole model still needs its full width."""
    def stump_on(attr, value):
        tree = DecisionTree()
        tree.add_root()
        left, right = tree.split_node(0, attr=attr, threshold=0.0, default_left=True, gain=1.0)
        tree.set_leaf(left, value)
        tree.set_leaf(right, -value)
        return tree

    model = GBDTModel(
        trees=[stump_on(0, 1.0), stump_on(4, 2.0)], params=GBDTParams(), base_score=0.5
    )
    narrow = np.array([[1.0], [-1.0]])
    assert np.array_equal(model.predict(narrow, n_trees=1), [1.5, -0.5])
    with pytest.raises(ValueError, match="input has 1 features, ensemble tests up to 5"):
        model.predict(narrow)
    with pytest.raises(ValueError, match="ensemble tests up to 5"):
        model.predict(narrow, n_trees=2)
