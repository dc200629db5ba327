"""Sibling histogram subtraction: exact-identity oracle + adversarial fuzz.

The subtraction trick (build only the smaller child of each sibling pair,
derive the other as ``parent - built``) rides on one exact invariant: every
histogram cell is an int64 fixed-point sum and a node's instance set is the
disjoint union of its children's, so ``parent == left + right`` holds
bit-for-bit.  These tests pin that contract at three layers:

* kernel level -- :func:`subtract_child_histogram` against independently
  accumulated child tables, including hypothesis fuzz over node/bin counts
  and extreme int64 magnitudes;
* trainer level -- an instrumented trainer that, at every level, rebuilds
  the *derived* tables by full accumulation and asserts cell-for-cell
  equality with the subtraction path's output;
* model level -- serialized byte-identity between subtraction on/off over
  the adversarial layouts (NaN blocks, constant/duplicate columns,
  duplicate rows) the hot path is worst at, and a counter-based guard that
  fails if subtraction ever silently falls back to the full-build path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import GBDTParams
from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.approx.histops import (
    accumulate_histograms,
    plan_sibling_builds,
    subtract_child_histogram,
    subtract_enabled_default,
)
from repro.data import CSRMatrix, make_dataset
from repro.obs import MetricsRegistry, use_registry

from tests.test_properties import SETTINGS, adversarial_problem

FUZZ = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ------------------------------------------------------------- kernel level
class TestSubtractKernel:
    def test_parent_minus_child_is_sibling(self):
        rng = np.random.default_rng(0)
        left = rng.integers(-(2**40), 2**40, size=(4, 17), dtype=np.int64)
        right = rng.integers(-(2**40), 2**40, size=(4, 17), dtype=np.int64)
        cl = rng.integers(0, 50, size=(4, 17), dtype=np.int64)
        cr = rng.integers(0, 50, size=(4, 17), dtype=np.int64)
        sib = subtract_child_histogram(
            left + right, left * 2 + right * 2, cl + cr, left, left * 2, cl
        )
        np.testing.assert_array_equal(sib[0], right)
        np.testing.assert_array_equal(sib[1], right * 2)
        np.testing.assert_array_equal(sib[2], cr)

    def test_out_buffers_are_filled_and_returned(self):
        parent = np.full((2, 3), 10, dtype=np.int64)
        child = np.ones((2, 3), dtype=np.int64)
        out = tuple(np.zeros((2, 3), dtype=np.int64) for _ in range(3))
        res = subtract_child_histogram(parent, parent, parent, child, child, child, out=out)
        for got, dst in zip(res, out):
            assert got is dst
            np.testing.assert_array_equal(got, 9)

    def test_negative_count_rejected(self):
        """A child not contained in the parent must fail loudly, not
        produce garbage split statistics."""
        parent = np.zeros((1, 4), dtype=np.int64)
        child = np.ones((1, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="negative sibling count"):
            subtract_child_histogram(parent, parent, parent, child, child, child)

    @given(
        st.integers(1, 6),  # sibling pairs
        st.integers(1, 40),  # total bins
        st.integers(0, 2**49),  # magnitude bound (choose_shift's own bound)
        st.integers(0, 10_000),
    )
    @FUZZ
    def test_fuzz_exactness_at_fixed_point_extremes(self, pairs, bins, bound, seed):
        rng = np.random.default_rng(seed)
        lo, hi = -bound, bound + 1
        lgq = rng.integers(lo, hi, size=(pairs, bins), dtype=np.int64)
        rgq = rng.integers(lo, hi, size=(pairs, bins), dtype=np.int64)
        lc = rng.integers(0, 1000, size=(pairs, bins), dtype=np.int64)
        rc = rng.integers(0, 1000, size=(pairs, bins), dtype=np.int64)
        sib = subtract_child_histogram(
            lgq + rgq, rgq + lgq, lc + rc, lgq, rgq, lc
        )
        np.testing.assert_array_equal(sib[0], rgq)
        np.testing.assert_array_equal(sib[1], lgq)
        np.testing.assert_array_equal(sib[2], rc)


class TestBuildPlan:
    def test_smaller_child_built_ties_go_left(self):
        build, derive = plan_sibling_builds(np.array([5, 3, 2, 2, 1, 9]))
        np.testing.assert_array_equal(build, [1, 2, 4])
        np.testing.assert_array_equal(derive, [0, 3, 5])

    def test_pairs_partition_the_level(self):
        rng = np.random.default_rng(3)
        node_n = rng.integers(1, 100, size=12)
        build, derive = plan_sibling_builds(node_n)
        assert sorted(np.concatenate([build, derive])) == list(range(12))
        np.testing.assert_array_equal(derive, build ^ 1)
        # the built side is never the larger child
        assert np.all(node_n[build] <= node_n[derive])

    def test_odd_level_rejected(self):
        with pytest.raises(ValueError, match="even number"):
            plan_sibling_builds(np.array([1, 2, 3]))


# ----------------------------------------------------- trainer-level oracle
class _OracleTrainer(HistogramGBDTTrainer):
    """Rebuilds every level's tables by full accumulation and checks the
    subtraction path reproduced them cell-for-cell.

    The entry pass that routes a level's rows also builds the next batch's
    tables, so the reference is taken there -- from the pass's own output
    rows, over every batch local -- and checked when the batch is scored.
    """

    levels_checked = 0
    levels_subtracted = 0

    def _route_and_accumulate(
        self, gq, hq, ent_inst, ent_gbin, ent_attr, inst2local, total_bins,
        route=None, batch_of=None, build_locals=None,
    ):
        inst2local, built = super()._route_and_accumulate(
            gq, hq, ent_inst, ent_gbin, ent_attr, inst2local, total_bins,
            route=route, batch_of=batch_of, build_locals=build_locals,
        )
        if batch_of is not None:
            inst2batch = np.append(batch_of, -1)[inst2local]
            self._ref = accumulate_histograms(
                gq, hq, ent_inst, ent_gbin, inst2batch,
                int(batch_of.max()) + 1, total_bins,
            )[:3]
        return inst2local, built

    def _find_splits(
        self, built, shift, bin_offset, node_gq, node_hq, node_n,
        parent=None, depth=0,
    ):
        results, tables = super()._find_splits(
            built, shift, bin_offset, node_gq, node_hq, node_n,
            parent=parent, depth=depth,
        )
        for got, want in zip(tables, self._ref):
            np.testing.assert_array_equal(got, want)
        self._ref = None  # each scored batch needs its own pass
        self.levels_checked += 1
        if parent is not None:
            self.levels_subtracted += 1
        return results, tables


def test_every_level_matches_independent_full_build():
    ds = make_dataset("covtype", run_rows=300, seed=5)
    trainer = _OracleTrainer(
        GBDTParams(n_trees=3, max_depth=5), max_bins=16, use_subtraction=True
    )
    trainer.fit(ds.X, ds.y)
    assert trainer.levels_checked > 0
    assert trainer.levels_subtracted > 0, "subtraction never engaged"


# ------------------------------------------------------------- model level
@given(adversarial_problem(), st.sampled_from([4, 16, 64]))
@SETTINGS
def test_subtraction_on_off_byte_identity_adversarial(problem, max_bins):
    """NaN blocks, constant/duplicate columns, duplicate rows, extreme
    scales: the subtraction path must serialize byte-identically."""
    X, _, _, y, _ = problem
    p = GBDTParams(n_trees=2, max_depth=4)
    on = HistogramGBDTTrainer(p, max_bins=max_bins, use_subtraction=True).fit(X, y)
    off = HistogramGBDTTrainer(p, max_bins=max_bins, use_subtraction=False).fit(X, y)
    assert on.to_json() == off.to_json()


def test_subtraction_identity_on_susy():
    ds = make_dataset("susy", run_rows=240, seed=1)
    p = GBDTParams(n_trees=3, max_depth=5)
    on = HistogramGBDTTrainer(p, max_bins=32, use_subtraction=True).fit(ds.X, ds.y)
    off = HistogramGBDTTrainer(p, max_bins=32, use_subtraction=False).fit(ds.X, ds.y)
    assert on.to_json() == off.to_json()


def test_single_row_nodes_and_deep_trees():
    """Tiny n with deep trees: sibling pairs shrink to single rows, and the
    derived tables still come out exact."""
    X = CSRMatrix.from_rows(
        [[(0, float(v))] for v in (1, 2, 3, 4, 5, 6, 7, 8)], n_cols=1
    )
    y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
    p = GBDTParams(n_trees=2, max_depth=6)
    on = HistogramGBDTTrainer(p, max_bins=8, use_subtraction=True).fit(X, y)
    off = HistogramGBDTTrainer(p, max_bins=8, use_subtraction=False).fit(X, y)
    assert on.to_json() == off.to_json()


# ----------------------------------------------------------- engagement guard
def _fit_counting_skips(use_subtraction):
    registry = MetricsRegistry()
    with use_registry(registry):
        ds = make_dataset("covtype", run_rows=300, seed=5)
        HistogramGBDTTrainer(
            GBDTParams(n_trees=3, max_depth=5), max_bins=16,
            use_subtraction=use_subtraction,
        ).fit(ds.X, ds.y)
    c = registry.get("subtract_skipped_total")
    return 0 if c is None else c.value


def test_subtraction_actually_engages():
    """The knob must do real work: a deep multi-level fit with subtraction
    on derives many sibling tables (the counter is the witness -- if the
    implementation silently fell back to full builds, this fails)."""
    assert _fit_counting_skips(True) > 0


def test_subtraction_off_never_subtracts():
    assert _fit_counting_skips(False) == 0


def test_env_escape_hatch(monkeypatch):
    monkeypatch.setenv("REPRO_SUBTRACT", "0")
    assert subtract_enabled_default() is False
    assert HistogramGBDTTrainer(GBDTParams()).use_subtraction is False
    monkeypatch.delenv("REPRO_SUBTRACT")
    assert subtract_enabled_default() is True
    # explicit knob beats the environment
    monkeypatch.setenv("REPRO_SUBTRACT", "0")
    assert HistogramGBDTTrainer(GBDTParams(), use_subtraction=True).use_subtraction
