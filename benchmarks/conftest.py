"""Shared configuration for the benchmark suite.

Run with::

    pytest benchmarks/ --benchmark-only

Each ``bench_*`` file regenerates one table or figure of the paper.  The
experiment functions are deterministic (the trainer is exact and the clock
is a cost model), so the interesting output is the printed table itself --
wall time measures how long the reproduction harness takes, which the
pytest-benchmark columns report.

``--quick-bench`` shrinks datasets for CI-speed smoke runs.

Each benchmark also emits its numeric results as a structured
``BENCH_<name>.json`` document (:mod:`repro.bench.output`), the format the
run store consumes (``python -m repro runs submit --bench <name>``), so
per-run numbers can be diffed and gated across commits without scraping the
printed tables.  Files land in the standard bench output location:
``$BENCH_METRICS_DIR`` when set, otherwise the repository root.
"""

from pathlib import Path

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--quick-bench",
        action="store_true",
        default=False,
        help="run the benchmark experiments at smoke scale",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    return request.config.getoption("--quick-bench")


def emit_bench_metrics(result, name: str) -> Path:
    """Write ``result`` as the structured ``BENCH_<name>.json`` document the
    run store consumes; returns the file path.  Results that render their
    own payload (``.payload()``) keep their phase breakdown and invariants;
    anything else goes through :func:`repro.bench.output.to_payload`."""
    import dataclasses

    from repro.bench.output import to_payload, write_bench_json

    if hasattr(result, "payload") and callable(result.payload):
        payload = result.payload()
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        payload = to_payload(dataclasses.asdict(result))
    else:
        payload = to_payload(result)
    return write_bench_json(name, payload)


def print_result(result, header: str, bench: str | None = None) -> None:
    """Echo an experiment's table under a visible banner; when ``bench`` is
    given, also emit the run's numbers as a ``BENCH_<bench>.json`` file."""
    bar = "=" * 72
    print(f"\n{bar}\n{header}\n{bar}")
    print(result.text)
    if bench is not None:
        path = emit_bench_metrics(result, bench)
        print(f"[bench metrics -> {path}]")
