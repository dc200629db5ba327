"""Tests for dataset analysis and the chrome-trace exporter."""

import json

import pytest

from repro import GBDTParams, GPUGBDTTrainer, GpuDevice, TITAN_X_PASCAL
from repro.data import CSRMatrix, make_dataset
from repro.data.analysis import analyze
from repro.gpusim.trace import chrome_trace_events, export_chrome_trace


class TestAnalyze:
    def test_basic_counts(self):
        X = CSRMatrix.from_rows(
            [[(0, 1.0), (1, 1.0)], [(0, 1.0)], [(1, 2.0)]], n_cols=2
        )
        st = analyze(X)
        assert (st.n_rows, st.n_cols, st.nnz) == (3, 2, 4)
        assert st.density == pytest.approx(4 / 6)
        assert st.missing_rate == pytest.approx(2 / 6)

    def test_rle_ratio_reflects_repetition(self):
        rep = analyze(CSRMatrix.from_rows([[(0, 1.0)]] * 10, n_cols=1))
        assert rep.rle_ratio == pytest.approx(10.0)
        distinct = analyze(
            CSRMatrix.from_rows([[(0, float(i))] for i in range(10)], n_cols=1)
        )
        assert distinct.rle_ratio == pytest.approx(1.0)

    def test_binary_attr_detection(self):
        X = CSRMatrix.from_rows(
            [[(0, 1.0), (1, 0.3)], [(0, 1.0), (1, 0.7)]], n_cols=2
        )
        st = analyze(X)
        assert st.binary_attr_frac == pytest.approx(0.5)
        assert st.max_distinct_per_attr == 2

    def test_dataset_profiles_differ(self):
        cov = analyze(make_dataset("covtype", run_rows=200).X)
        susy = analyze(make_dataset("susy", run_rows=200).X)
        assert cov.rle_ratio > susy.rle_ratio
        assert susy.density > cov.density
        # RLE shrinks the device footprint only where repetition exists
        assert cov.estimated_rle_bytes < cov.estimated_sparse_bytes

    def test_format_is_readable(self):
        st = analyze(make_dataset("covtype", run_rows=100).X)
        text = st.format()
        assert "RLE ratio" in text and "shape" in text


class TestChromeTrace:
    @pytest.fixture
    def device(self, covtype_small):
        ds = covtype_small
        d = GpuDevice(TITAN_X_PASCAL)
        GPUGBDTTrainer(GBDTParams(n_trees=2, max_depth=3), d).fit(ds.X, ds.y)
        return d

    def test_events_cover_ledger(self, device):
        events = chrome_trace_events(device)
        slices = [e for e in events if e.get("ph") == "X"]
        assert len(slices) == len(device.ledger.kernels) + len(device.ledger.transfers)

    def test_durations_sum_to_modeled_time(self, device):
        events = chrome_trace_events(device)
        total_us = sum(e["dur"] for e in events if e.get("ph") == "X")
        assert total_us == pytest.approx(device.elapsed_seconds() * 1e6, rel=1e-3)

    def test_slices_are_non_overlapping_and_ordered(self, device):
        slices = [e for e in chrome_trace_events(device) if e.get("ph") == "X"]
        end = 0.0
        for e in slices:
            # 3-decimal rounding of ts/dur can misalign by up to a few ns
            assert e["ts"] >= end - 5e-3
            end = e["ts"] + e["dur"]

    def test_phase_rows_labeled(self, device):
        meta = [e for e in chrome_trace_events(device) if e.get("ph") == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"setup", "find_split", "split_node", "pcie"} <= names

    def test_export_file(self, device, tmp_path):
        path = tmp_path / "trace.json"
        n = export_chrome_trace(device, path)
        doc = json.loads(path.read_text())
        assert n > 0
        assert "traceEvents" in doc
