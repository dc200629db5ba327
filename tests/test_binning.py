"""One-pass quantile binning against per-column reference oracles.

The oracles below are the per-column loop bodies the vectorized cut rule in
:mod:`repro.approx.quantile` replaced: ``oracle_build_bins`` cuts one sorted
column at a time, ``oracle_edges_from_sketch`` cuts one column's
(distinct values, counts) sketch, and ``oracle_bins`` searches every entry
of one column against its edges.  Edges must match bit for bit (compared as
int64 views, so ``-0.0`` vs ``0.0`` or a one-ulp drift fails) and per-entry
bins exactly, on ties, mixed-sign zeros, subnormals, values near the float64
maximum (whose midpoints overflow), all-missing columns and distinct counts
on either side of ``max_bins``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GBDTParams
from repro.approx import HistogramGBDTTrainer
from repro.approx.quantile import (
    bin_column_values,
    build_bins,
    build_bins_from_sketches,
    merge_sketches,
    sketch_columns,
)
from repro.data import CSRMatrix, build_sorted_columns
from repro.obs import Tracer, use_tracer

#: midpoints of near-max values overflow on purpose; the oracles say so
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

MAX = np.finfo(np.float64).max
TINY = np.finfo(np.float64).tiny  # smallest normal
SUB = 5e-324  # smallest subnormal

#: values that stress the midpoint and guard arithmetic
SPECIAL = [
    0.0, 1.0, np.nextafter(1.0, 2.0), -1.0, 0.5,
    SUB, -SUB, 2 * SUB, TINY, -TINY, np.nextafter(TINY, 0.0),
    MAX, -MAX, np.nextafter(MAX, 0.0), -np.nextafter(MAX, 0.0),
    0.9 * MAX, -0.9 * MAX, -0.8 * MAX, -0.7 * MAX, -0.6 * MAX,
]


# ------------------------------------------------------------------ oracles
def oracle_build_bins(cols, max_bins):
    """Per-column equi-mass cuts of the sorted columns (the loop body the
    one-pass cut rule replaced)."""
    edges = []
    for j in range(cols.n_cols):
        vals, _ = cols.column(j)
        L = vals.size
        if L == 0:
            edges.append(np.empty(0))
            continue
        change = np.flatnonzero(vals[1:] != vals[:-1]) + 1
        if change.size + 1 <= max_bins:
            cut_vals = (vals[change - 1] + vals[change]) / 2.0
            guard = np.minimum(cut_vals, np.nextafter(vals[change - 1], -np.inf))
            edges.append(np.asarray(guard, dtype=np.float64))
            continue
        targets = (np.arange(1, max_bins) * L) // max_bins
        cut_pos = np.unique(np.searchsorted(change, targets, side="left").clip(0, change.size - 1))
        bpos = change[cut_pos]
        cut_vals = (vals[bpos - 1] + vals[bpos]) / 2.0
        guard = np.minimum(cut_vals, np.nextafter(vals[bpos - 1], -np.inf))
        edges.append(np.asarray(np.unique(guard)[::-1], dtype=np.float64))
    return edges


def oracle_edges_from_sketch(v, c, max_bins):
    """Cuts of one column's (distinct values descending, counts) sketch."""
    if v.size == 0:
        return np.empty(0)
    if v.size <= max_bins:
        cut_vals = (v[:-1] + v[1:]) / 2.0
        guard = np.minimum(cut_vals, np.nextafter(v[:-1], -np.inf))
        return np.asarray(guard, dtype=np.float64)
    change = np.cumsum(c[:-1])
    L = int(c.sum())
    targets = (np.arange(1, max_bins) * L) // max_bins
    cut_pos = np.unique(np.searchsorted(change, targets, side="left").clip(0, change.size - 1))
    cut_vals = (v[cut_pos] + v[cut_pos + 1]) / 2.0
    guard = np.minimum(cut_vals, np.nextafter(v[cut_pos], -np.inf))
    return np.asarray(np.unique(guard)[::-1], dtype=np.float64)


def oracle_bins(edges, cols):
    """Per-column search: an entry's bin is the number of edges >= it."""
    out = np.empty(cols.nnz, dtype=np.int32)
    for j in range(cols.n_cols):
        lo, hi = cols.col_offsets[j], cols.col_offsets[j + 1]
        e = edges[j]
        out[lo:hi] = e.size - np.searchsorted(e[::-1], cols.values[lo:hi], side="left")
    return out


def assert_edges_bitwise(actual, expected):
    assert len(actual) == len(expected)
    for j, (a, e) in enumerate(zip(actual, expected)):
        assert a.dtype == np.float64, j
        np.testing.assert_array_equal(
            np.asarray(a).view(np.int64), np.asarray(e).view(np.int64), err_msg=f"column {j}"
        )


def sorted_cols(X):
    return build_sorted_columns(X.to_csc())


def check_against_oracles(X, max_bins, shard_cuts=()):
    """Every binning path on ``X`` equals the per-column oracles."""
    cols = sorted_cols(X)
    expected = oracle_build_bins(cols, max_bins)
    spec = build_bins(cols, max_bins)
    assert_edges_bitwise(spec.edges, expected)
    ent = bin_column_values(spec, cols)
    assert ent.dtype == np.int32
    np.testing.assert_array_equal(ent, oracle_bins(expected, cols))
    # the sketch path runs the same rule, and the sketch oracle agrees
    sk = sketch_columns(cols)
    assert_edges_bitwise(build_bins_from_sketches(sk, max_bins).edges, expected)
    assert_edges_bitwise(
        [
            oracle_edges_from_sketch(sk.values[lo:hi], sk.counts[lo:hi], max_bins)
            for lo, hi in zip(sk.offsets[:-1], sk.offsets[1:])
        ],
        expected,
    )
    # sharded: merged shard sketches give the monolithic cuts, and each
    # shard's entries bin as the oracle bins them against those cuts
    rows = np.arange(X.shape[0], dtype=np.int64)
    shards = [sorted_cols(X.select_rows(part)) for part in np.split(rows, list(shard_cuts))]
    merged = build_bins_from_sketches(
        merge_sketches([sketch_columns(c) for c in shards]), max_bins
    )
    assert_edges_bitwise(merged.edges, expected)
    for c in shards:
        np.testing.assert_array_equal(bin_column_values(merged, c), oracle_bins(expected, c))


def column_matrix(columns, n_rows, rng):
    """CSR whose column ``j`` holds ``columns[j]`` in random rows; zeros get
    a random sign so ``0.0`` and ``-0.0`` mix within a column."""
    rows, cols, vals = [], [], []
    for j, v in enumerate(columns):
        v = np.asarray(v, dtype=np.float64)
        v = np.where(v == 0.0, np.where(rng.random(v.size) < 0.5, 0.0, -0.0), v)
        rows.append(rng.choice(n_rows, size=v.size, replace=False))
        cols.append(np.full(v.size, j, dtype=np.int64))
        vals.append(v)
    return CSRMatrix.from_coo(
        np.concatenate(rows).astype(np.int64), np.concatenate(cols),
        np.concatenate(vals), n_rows=n_rows, n_cols=len(columns),
    )


def with_ties(distinct, size, rng):
    """``size`` values covering every one of ``distinct`` at least once,
    the rest drawn with skewed weights so some value groups run long."""
    distinct = np.asarray(distinct, dtype=np.float64)
    weights = rng.dirichlet(np.full(distinct.size, 0.3))
    extra = distinct[rng.choice(distinct.size, size - distinct.size, p=weights)]
    return rng.permutation(np.concatenate((distinct, extra)))


# ------------------------------------------------------------ named cases
N = 40


def _case_columns(case, max_bins, rng):
    if case == "ties-and-signed-zeros":
        return [with_ties([0.0, 1.0, -1.0, 0.5], 30, rng), with_ties([0.0, SUB, -SUB], 20, rng)]
    if case == "subnormal":
        tiny = [SUB, 2 * SUB, 3 * SUB, -SUB, 0.0, TINY, np.nextafter(TINY, 0.0)]
        return [with_ties(tiny, 25, rng)]
    if case == "near-max":
        return [
            with_ties([MAX, np.nextafter(MAX, 0.0), 0.9 * MAX, 1.0], 20, rng),
            with_ties([-0.6 * MAX, -0.7 * MAX, -0.8 * MAX, -0.9 * MAX, -MAX, 1.0], 30, rng),
            rng.permutation(-MAX * np.linspace(0.5, 1.0, 36)),
        ]
    if case == "all-missing":
        return [np.empty(0), rng.normal(size=10), np.empty(0)]
    if case == "heavy-ends":
        # the smallest (largest) value holds over a third of the column, so
        # the last equi-mass targets clip to the column's last boundary
        light = rng.normal(size=max_bins + 2)
        return [
            np.concatenate((light, np.full(20, light.min() - 1.0))),
            np.concatenate((light, np.full(20, light.max() + 1.0))),
        ]
    # distinct counts on either side of max_bins, plus one free column
    k = {"below": max_bins - 1, "at": max_bins, "above": max_bins + 1}[case]
    return [with_ties(rng.normal(size=k), 30, rng), rng.normal(size=35)]


CASES = [
    "ties-and-signed-zeros", "subnormal", "near-max", "all-missing", "heavy-ends",
    "below", "at", "above",
]


@pytest.mark.parametrize("max_bins", [2, 3, 8])
@pytest.mark.parametrize("case", CASES)
def test_named_cases_match_oracles(case, max_bins):
    rng = np.random.default_rng([CASES.index(case), max_bins])
    X = column_matrix(_case_columns(case, max_bins, rng), N, rng)
    check_against_oracles(X, max_bins, shard_cuts=(7, 25))


def test_negative_overflow_tail_is_exercised():
    """The near-max column overflows its midpoints to ``-inf``: in the
    equi-mass branch the repeated ``-inf`` edge is kept once, and in the
    every-boundary branch every copy is kept -- and no entry counts it."""
    rng = np.random.default_rng(0)
    X = column_matrix(
        [
            rng.permutation(-MAX * np.linspace(0.5, 1.0, 36)),
            with_ties([-0.7 * MAX, -0.8 * MAX, -0.9 * MAX, -MAX], 10, rng),
        ],
        N, rng,
    )
    cols = sorted_cols(X)
    spec = build_bins(cols, 4)
    ent = bin_column_values(spec, cols)
    assert np.count_nonzero(spec.edges[0] == -np.inf) == 1
    assert np.count_nonzero(spec.edges[1] == -np.inf) == 3
    assert ent.max() < spec.n_bins(0) - 1
    check_against_oracles(X, 4)


# --------------------------------------------------------------------- fuzz
value = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(-3, 3).map(float),
)


@st.composite
def binning_problem(draw):
    max_bins = draw(st.sampled_from([2, 3, 4, 8]))
    n = draw(st.integers(1, N))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(0, n))
        k = draw(
            st.sampled_from([max_bins - 1, max_bins, max_bins + 1, size])
        )
        k = min(k, size)
        distinct = draw(st.lists(value, min_size=k, max_size=k, unique=True))
        columns.append((distinct, size))
    seed = draw(st.integers(0, 2**32 - 1))
    n_shards = draw(st.integers(1, 4))
    return max_bins, n, columns, seed, n_shards


@given(binning_problem())
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_fuzz_matches_oracles(problem):
    max_bins, n, columns, seed, n_shards = problem
    rng = np.random.default_rng(seed)
    X = column_matrix(
        [with_ties(d, size, rng) if size else np.empty(0) for d, size in columns], n, rng
    )
    cuts = np.sort(rng.integers(0, n + 1, n_shards - 1))
    check_against_oracles(X, max_bins, shard_cuts=cuts)


# -------------------------------------------------------------- setup span
def _fit_hist(X, y, **kw):
    HistogramGBDTTrainer(GBDTParams(n_trees=2, max_depth=3), max_bins=16, **kw).fit(X, y)


def _fit_stream(X, y):
    from repro.stream import StreamingHistTrainer

    StreamingHistTrainer(
        GBDTParams(n_trees=2, max_depth=3), max_bins=16, block_rows=64
    ).fit(X, y)


def _fit_dist(X, y):
    from repro.dist import DistributedHistTrainer

    t = DistributedHistTrainer(GBDTParams(n_trees=2, max_depth=3), n_workers=2, max_bins=16)
    t.fit(X, y)
    return t.rank_tracers_


@pytest.mark.parametrize("kind", ["hist", "lossguide", "stream", "dist"])
def test_each_fit_records_one_setup_span(kind):
    rng = np.random.default_rng(4)
    X = column_matrix([rng.normal(size=150) for _ in range(4)], 200, rng)
    y = rng.normal(size=200)
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        if kind == "hist":
            _fit_hist(X, y)
        elif kind == "lossguide":
            _fit_hist(X, y, grow_policy="lossguide", max_leaves=6)
        elif kind == "stream":
            _fit_stream(X, y)
        else:
            rank_tracers = _fit_dist(X, y)
    if kind == "dist":
        # one setup span in each worker trainer's own tracer
        assert len(rank_tracers) == 2
        for t in rank_tracers:
            assert [s.name for s in t.finished()].count("setup") == 1
    else:
        assert [s.name for s in tracer.finished()].count("setup") == 1
        assert tracer.total_time("setup") > 0
