"""Tests for the profiling views (phase breakdowns, Section IV-A style)."""

import pytest

from repro.gpusim import GpuDevice, TITAN_X_PASCAL, format_profile, profile


@pytest.fixture
def busy_device() -> GpuDevice:
    d = GpuDevice(TITAN_X_PASCAL)
    with d.phase("find_split"):
        d.launch("seg_prefix_sum", elements=10**6, coalesced_bytes=1.6e7)
        d.launch("seg_prefix_sum", elements=10**6, coalesced_bytes=1.6e7)
    with d.phase("split_node"):
        d.launch("scatter", elements=10**5, irregular_bytes=1.6e6)
    d.transfer("upload", 1e6)
    return d


def test_profile_fractions_sum_to_one(busy_device):
    slices = profile(busy_device)
    assert sum(s.fraction for s in slices) == pytest.approx(1.0)


def test_profile_phase_order(busy_device):
    assert [s.phase for s in profile(busy_device)] == ["find_split", "split_node", "unphased"]


def test_profile_launch_counts(busy_device):
    slices = {s.phase: s for s in profile(busy_device)}
    assert slices["find_split"].launches == 2
    assert slices["split_node"].launches == 1


def test_format_profile_is_table(busy_device):
    text = format_profile(busy_device, title="t")
    assert text.startswith("t")
    assert "find_split" in text and "total" in text


def test_empty_device_profile():
    d = GpuDevice(TITAN_X_PASCAL)
    assert profile(d) == []
