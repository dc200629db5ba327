"""Tests for the device ledger's chrome-trace events."""

import json

import pytest

from repro import GBDTParams, GPUGBDTTrainer, GpuDevice, TITAN_X_PASCAL
from repro.gpusim.trace import chrome_trace_events
from repro.obs.export import export_merged_chrome_trace


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
        n = export_merged_chrome_trace(path, device=device)
        doc = json.loads(path.read_text())
        assert n == len(device.ledger.kernels) + len(device.ledger.transfers)
        assert "traceEvents" in doc
