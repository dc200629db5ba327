"""Tests for the JSONL / Prometheus / merged-Chrome-trace exporters."""

import json

from repro.gpusim.kernel import GpuDevice
from repro.gpusim.trace import chrome_trace_events
from repro.obs import (
    DEVICE_PID,
    HOST_PID,
    MetricsRegistry,
    Tracer,
    export_merged_chrome_trace,
    jsonl_lines,
    merged_chrome_trace_events,
    prometheus_text,
    write_jsonl,
    write_prometheus,
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.5
        return self.t


def small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", "completed requests", route="a").inc(3)
    reg.gauge("queue_depth", "waiting requests").set(7)
    h = reg.histogram("latency_seconds", "request wait", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.005, 0.05):
        h.observe(v)
    return reg


def small_tracer() -> Tracer:
    tr = Tracer(clock=FakeClock())
    with tr.span("outer", phase="t"):
        with tr.span("inner"):
            pass
    return tr


class TestPrometheus:
    def test_golden_output(self):
        text = prometheus_text(small_registry())
        assert text == (
            "# HELP latency_seconds request wait\n"
            "# TYPE latency_seconds histogram\n"
            'latency_seconds_bucket{le="0.001"} 1\n'
            'latency_seconds_bucket{le="0.01"} 2\n'
            'latency_seconds_bucket{le="0.1"} 3\n'
            'latency_seconds_bucket{le="+Inf"} 3\n'
            "latency_seconds_sum 0.0555\n"
            "latency_seconds_count 3\n"
            "# HELP queue_depth waiting requests\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 7\n"
            "# HELP requests_total completed requests\n"
            "# TYPE requests_total counter\n"
            'requests_total{route="a"} 3\n'
        )

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", path='a\\b"c\nd').inc()
        line = prometheus_text(reg).splitlines()[-1]
        assert line == 'c_total{path="a\\\\b\\"c\\nd"} 1'

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_write_returns_sample_count(self, tmp_path):
        path = tmp_path / "metrics.prom"
        n = write_prometheus(path, small_registry())
        # 4 bucket lines + _sum + _count, plus the gauge and the counter
        assert n == 8
        text = path.read_text()
        assert n == sum(1 for ln in text.splitlines() if ln and not ln.startswith("#"))


class TestJsonl:
    def test_lines_parse_and_order(self):
        lines = jsonl_lines(small_tracer(), small_registry())
        objs = [json.loads(ln) for ln in lines]
        kinds = [o["kind"] for o in objs]
        assert kinds == ["span", "span", "histogram", "gauge", "counter"]
        spans = [o for o in objs if o["kind"] == "span"]
        assert [s["name"] for s in spans] == ["outer", "inner"]  # start order
        assert spans[1]["parent_id"] == spans[0]["span_id"]

    def test_write_and_append(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        n1 = write_jsonl(path, registry=small_registry())
        n2 = write_jsonl(path, registry=small_registry(), append=True)
        assert n1 == n2 == 3
        assert len(path.read_text().splitlines()) == 6

    def test_empty_inputs(self):
        assert jsonl_lines(None, None) == []
        assert jsonl_lines(Tracer(), MetricsRegistry()) == []


def run_tiny_training(device: GpuDevice) -> None:
    """Charge a few kernels through the public phase/launch API."""
    with device.phase("find_split"):
        device.launch("scan", elements=1000, flops_per_element=2.0,
                      coalesced_bytes=8000)
    with device.phase("split_node"):
        device.launch("partition", elements=1000, flops_per_element=1.0,
                      coalesced_bytes=8000)


class TestMergedChromeTrace:
    def test_merged_timeline_shape(self, tmp_path):
        tracer = small_tracer()
        device = GpuDevice()
        run_tiny_training(device)

        path = tmp_path / "merged.json"
        n = export_merged_chrome_trace(path, tracer=tracer, device=device)
        doc = json.loads(path.read_text())  # valid JSON by construction
        events = doc["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert n == len(slices) == 4  # 2 host spans + 2 device kernels

        # both processes present, named, and timestamps monotonic
        assert {e["pid"] for e in slices} == {HOST_PID, DEVICE_PID}
        ts = [e["ts"] for e in slices]
        assert ts == sorted(ts)
        assert min(ts) == 0.0
        assert all(e["dur"] >= 0 for e in slices)
        proc_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "host" in proc_names[HOST_PID]
        assert "gpusim" in proc_names[DEVICE_PID]

    def test_host_only_and_device_only(self):
        host = merged_chrome_trace_events(tracer=small_tracer())
        assert {e["pid"] for e in host} == {HOST_PID}
        device = GpuDevice()
        run_tiny_training(device)
        dev = merged_chrome_trace_events(device=device)
        assert {e["pid"] for e in dev} == {DEVICE_PID}

    def test_empty_inputs_export_valid_doc(self, tmp_path):
        path = tmp_path / "empty.json"
        n = export_merged_chrome_trace(path, tracer=Tracer(), device=GpuDevice())
        assert n == 0
        assert json.loads(path.read_text()) == {
            "traceEvents": [],
            "displayTimeUnit": "ms",
        }

    def test_unclosed_span_still_exported(self):
        tr = Tracer(clock=FakeClock())
        tr.start("open_phase")
        events = merged_chrome_trace_events(tracer=tr)
        (sl,) = [e for e in events if e["ph"] == "X"]
        assert sl["name"] == "open_phase"
        assert sl["args"]["unclosed"] is True


class TestGpusimTraceErgonomics:
    def test_empty_ledger_yields_empty_valid_trace(self, tmp_path):
        device = GpuDevice()
        assert chrome_trace_events(device) == []
        path = tmp_path / "sub" / "empty.trace.json"  # parent dir is created
        n = export_merged_chrome_trace(path, device=device)
        assert n == 0
        assert json.loads(path.read_text())["traceEvents"] == []

    def test_no_pcie_row_without_transfers(self):
        device = GpuDevice()
        run_tiny_training(device)
        events = chrome_trace_events(device)
        row_names = [
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "pcie" not in row_names
        assert set(row_names) == {"find_split", "split_node"}

    def test_accepts_str_path(self, tmp_path):
        device = GpuDevice()
        run_tiny_training(device)
        n = export_merged_chrome_trace(str(tmp_path / "t.json"), device=device)
        assert n == 2
