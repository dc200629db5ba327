"""The benchmark's workloads and the loops that fit and serve them.

Every workload trains one model family on one of the paper's dataset
generators, then serves the fitted model one row at a time through
``MicroBatcher``.  All load comes from the calling thread; the only other
thread is the stream trainer's own prefetch thread.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import math
import time
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional

import numpy as np

from repro.approx.histogram_trainer import HistogramGBDTTrainer
from repro.core.params import GBDTParams
from repro.core.trainer import GPUGBDTTrainer
from repro.data.datasets import Dataset, make_dataset
from repro.gpusim.costmodel import kernel_time, transfer_time
from repro.gpusim.kernel import GpuDevice
from repro.obs import MetricsRegistry, Tracer, get_tracer, use_registry, use_tracer
from repro.serve.batcher import BatchPolicy, MicroBatcher, QueueFull
from repro.serve.flat_model import FlatEnsemble
from repro.stream.trainer import StreamingHistTrainer

from layers import LayerTotals, SpanRecorder

#: the open loop's batching policy: a partial batch flushes once its oldest
#: request has waited 1 ms.  Under the default 2 ms most of the latency was
#: that wait, and a predict doing its work twice moved p50 by only ~25%; at
#: 1 ms it moves p50 by ~50%.  With no wait p50 doubled, but then the
#: per-call Python cost dominates, which tracks the host's speed: p50's
#: spread over ten runs reached 0.4.  README.md has the measurements.
OPEN_POLICY = BatchPolicy(max_wait=0.001)
#: open-loop mean arrival rate as a share of the serving capacity measured
#: in the same run (closed-loop rows/s with full default-policy batches).
#: At 10% the loop measures latency, not a growing backlog, and a faster
#: predict raises the rate with the capacity, like a fixed utilization.
OPEN_LOAD = 0.1
#: the traced replay runs on a virtual clock under the default policy, so
#: its fixed rate only sets batch boundaries (about 8 rows per 2 ms batch)
REPLAY_RATE = 4000.0
REPLAY_OPEN = 4000
REPLAY_CLOSED = 4096
#: served values must match GBDTModel.predict on the same rows this closely
SERVE_TOL = 1e-9
#: stream blocks: 8 blocks of covtype rows against a budget of ~5.5, so
#: every histogram pass re-fetches spilled blocks
STREAM_BLOCK_ROWS = 750
STREAM_BUDGET_BYTES = 448 << 10
#: warm-up fit during set-up: a small slice and a tiny tree
WARM_ROWS = 256

GPUSIM_PHASES = ("setup", "gradients", "find_split", "split_node", "stream_io")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    run_rows: int
    trainer: str  # "exact" | "hist" | "stream"
    n_trees: int
    max_depth: int
    #: exact trainers: whether the RLE path must engage (None: not exact)
    uses_rle: Optional[bool]
    #: training layers whose calls must be > 0 in the traced run; all other
    #: training layers must be 0 (every workload serves, so serving layers
    #: are checked by rows instead)
    exercised: FrozenSet[str]
    why: str

    def params(self, **overrides) -> GBDTParams:
        kw = dict(n_trees=self.n_trees, max_depth=self.max_depth)
        kw.update(overrides)
        return GBDTParams(**kw)


_EXACT = frozenset(
    {
        "data.build_sorted_columns",
        # the measured RLE policy encodes once to decide, on either outcome
        "data.encode_segments",
        "core.smartgd.compute",
        "core.split.eq2_gain",
        "core.partition.partition_segments",
    }
)
_HIST = frozenset(
    {
        "data.build_sorted_columns",
        "core.smartgd.compute",
        "approx.histops.scan_histograms",
        "approx.histops.accumulate_histograms",
        "approx.histops.subtract_child_histogram",
        "approx.histops.eq2_gain",
    }
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "higgs-exact", "higgs", 8000, "exact", 4, 6, False,
            _EXACT | {"core.split.find_best_splits_sparse"},
            "dense unique values: RLE declines, the sparse exact split path does all the work",
        ),
        Workload(
            "e2006-hist", "e2006", 24000, "hist", 2, 8, None,
            _HIST | {"approx.quantile.build_bins"},
            "600 sparse columns at depth 8: the per-attribute histogram scan dominates",
        ),
        Workload(
            "covtype-stream", "covtype", 8000, "stream", 4, 6, None,
            _HIST | {"approx.quantile.merge_sketches", "stream.blockstore.get"},
            "blocks exceed the cache budget, so every level spills and re-fetches via prefetch",
        ),
        Workload(
            "covtype-serve", "covtype", 8000, "exact", 12, 6, True,
            _EXACT
            | {
                "core.split.find_best_splits_rle",
                "core.rle_split.split_runs_direct",
            },
            "repetitive values: the direct-RLE exact path, then a 12-tree model served",
        ),
    )
}


# --------------------------------------------------------------- bookkeeping
@dataclasses.dataclass
class Tally:
    """Operations attempted and failed; ``problems`` explains each failure."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    incorrect: bool = False

    def fail(self, why: str, *, wrong_output: bool = True) -> None:
        self.failed += 1
        self.incorrect |= wrong_output
        if len(self.problems) < 20:
            self.problems.append(why)

    def check(self, ok: bool, why: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(why)


@contextlib.contextmanager
def program_scope() -> Iterator[MetricsRegistry]:
    """Fresh program-side registry and tracer for one operation.

    Counters then read per operation, and the program's own spans (kept
    when ``REPRO_TRACE`` is on, the default) do not pile up across fits.
    """
    with use_registry(MetricsRegistry()) as registry, use_tracer(
        Tracer(enabled=get_tracer().enabled)
    ):
        yield registry


def make_data(wl: Workload, seed: int) -> Dataset:
    return make_dataset(wl.dataset, run_rows=wl.run_rows, seed=seed)


def make_trainer(wl: Workload, ds: Dataset, spill_dir: Path, params: GBDTParams | None = None):
    """A fresh trainer on a fresh device scaled to the dataset's full size."""
    p = params if params is not None else wl.params()
    device = GpuDevice(work_scale=ds.work_scale, seg_scale=ds.seg_scale)
    if wl.trainer == "exact":
        return GPUGBDTTrainer(p, device, row_scale=ds.row_scale)
    if wl.trainer == "hist":
        return HistogramGBDTTrainer(p, device, row_scale=ds.row_scale)
    return StreamingHistTrainer(
        p,
        device,
        row_scale=ds.row_scale,
        block_rows=STREAM_BLOCK_ROWS,
        cache_budget_bytes=STREAM_BUDGET_BYTES,
        spill_dir=spill_dir,
    )


def set_up(wl: Workload, seed: int, spill_dir: Path) -> Dataset:
    """Generate the data and warm every code path a timed operation uses."""
    ds = make_data(wl, seed)
    rows = np.arange(min(WARM_ROWS, ds.X.n_rows))
    trainer = make_trainer(wl, ds, spill_dir, wl.params(n_trees=1, max_depth=2))
    with program_scope():
        model = trainer.fit(ds.X.select_rows(rows), ds.y[rows])
        batcher = MicroBatcher(FlatEnsemble.from_model(model))
        batcher.submit(ds.X_test.to_dense(fill=np.nan).values[0], now=0.0)
        batcher.drain(now=0.0)
    return ds


# ---------------------------------------------------------------------- fits
@dataclasses.dataclass
class FitResult:
    seconds: float
    device_s: float
    model_json: str
    counters: Dict[str, float]
    #: per-layer totals of this fit (traced fits only)
    layers: Dict[str, LayerTotals]
    #: the stream trainer's block-cache high-water mark (0 off the stream)
    peak_resident_bytes: int
    #: kept for the first fit of a series only.  No trainer is kept: its
    #: workspace buffers would then add to the next fit's peak RSS.
    model: Optional[object] = None
    device: Optional[GpuDevice] = None


_STREAM_COUNTERS = ("blocks_spilled_total", "prefetch_hits_total", "io_wait_seconds_total")


def fit_once(
    wl: Workload, ds: Dataset, spill_dir: Path, tally: Tally,
    recorder: Optional[SpanRecorder] = None,
) -> Optional[FitResult]:
    """One timed ``fit()`` on a fresh trainer; failures are tallied."""
    trainer = make_trainer(wl, ds, spill_dir)
    tally.attempted += 1
    gc.collect()  # start every timed fit from the same heap state
    first_span = len(recorder.spans) if recorder else 0
    region = recorder.region("bench.fit") if recorder else contextlib.nullcontext()
    with region, program_scope() as registry:
        t0 = time.perf_counter()
        try:
            model = trainer.fit(ds.X, ds.y)
        except Exception as exc:  # counted, not raised: the run goes on
            tally.fail(f"fit raised {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - t0
        counters = {}
        for name in _STREAM_COUNTERS:
            inst = registry.get(name)
            counters[name] = float(inst.value) if inst is not None else 0.0
    if wl.uses_rle is not None and trainer.report.used_rle != wl.uses_rle:
        tally.fail(
            f"{wl.name}: RLE {'did not engage' if wl.uses_rle else 'engaged'}; "
            "the workload no longer exercises the path it was chosen for"
        )
    layers = recorder.totals(first_span) if recorder else {}
    store = getattr(trainer, "store_", None)
    return FitResult(
        seconds, device_seconds(trainer.device), model.to_json(), counters, layers,
        store.peak_resident_bytes if store is not None else 0, model, trainer.device,
    )


class FitSeries:
    """Timed fits of one dataset that must all agree with the first.

    Every fit must give the same serialized model and the same modeled
    device time.  Only the first fit keeps its model and device, so they
    do not pile up in memory.
    """

    def __init__(self, wl: Workload, ds: Dataset, spill_dir: Path, tally: Tally) -> None:
        self.wl, self.ds, self.spill_dir, self.tally = wl, ds, spill_dir, tally
        self.results: List[FitResult] = []

    def run(self, recorder: Optional[SpanRecorder] = None) -> None:
        res = fit_once(self.wl, self.ds, self.spill_dir, self.tally, recorder)
        if res is None:
            return
        if self.results:
            first = self.results[0]
            self.tally.check(
                (res.model_json, res.device_s) == (first.model_json, first.device_s),
                f"{self.wl.name}: two fits of the same data differ",
            )
            res.model = res.device = None
        self.results.append(res)

    def best_seconds(self) -> float:
        return min(r.seconds for r in self.results)


def holdout_rmse(wl: Workload, ds: Dataset, res: FitResult, tally: Tally) -> float:
    rmse = float(np.sqrt(np.mean((res.model.predict(ds.X_test) - ds.y_test) ** 2)))
    tally.check(bool(np.isfinite(rmse)), f"{wl.name}: holdout RMSE is not finite")
    return rmse


def check_streamed_model(wl: Workload, ds: Dataset, res: FitResult, tally: Tally) -> None:
    """On the stream workload, the streamed model must be byte-identical to
    an in-memory fit.  The reference fit holds the whole entry stream, so
    callers run this after reading the peak RSS."""
    if wl.trainer == "stream":
        with program_scope():
            ref = HistogramGBDTTrainer(
                wl.params(), GpuDevice(work_scale=ds.work_scale, seg_scale=ds.seg_scale),
                row_scale=ds.row_scale,
            ).fit(ds.X, ds.y)
        tally.check(
            ref.to_json() == res.model_json,
            f"{wl.name}: streamed model differs from the in-memory HistogramGBDTTrainer fit",
        )


def modeled_seconds(device: GpuDevice) -> Dict[str, List[float]]:
    """Modeled seconds of every ledger entry, grouped by phase.

    Callers sum these with ``math.fsum``: the prefetch thread appends disk
    transfers while the trainer appends its own, so the ledger's order --
    and with it a plain float sum -- changes from run to run.
    """
    parts: Dict[str, List[float]] = collections.defaultdict(list)
    for k in device.ledger.kernels:
        parts[k.phase].append(kernel_time(device.spec, k))
    for t in device.ledger.transfers:
        parts[t.phase].append(transfer_time(device.spec, t, device.disk))
    return parts


def device_seconds(device: GpuDevice) -> float:
    """Modeled seconds of the whole ledger, independent of its order."""
    return math.fsum(x for xs in modeled_seconds(device).values() for x in xs)


def gpusim_metrics(device: GpuDevice) -> Dict[str, float]:
    """Modeled seconds per phase plus launch and byte counts of one fit."""
    parts = modeled_seconds(device)
    out = {f"gpusim.{p}.model_s": math.fsum(parts.get(p, ())) for p in GPUSIM_PHASES}
    out["gpusim.other.model_s"] = math.fsum(
        x for p, xs in parts.items() if p not in GPUSIM_PHASES for x in xs
    )
    ledger = device.ledger
    out["gpusim.kernel_launches"] = ledger.n_launches
    out["gpusim.pcie_bytes"] = math.fsum(t.nbytes for t in ledger.transfers if t.channel == "pcie")
    out["gpusim.disk_bytes"] = math.fsum(t.nbytes for t in ledger.transfers if t.channel == "disk")
    return out


# ------------------------------------------------------------------- serving
class Served:
    """Checks each resolved request against the reference predictions."""

    def __init__(self, expected: np.ndarray, tally: Tally) -> None:
        self.expected = expected
        self.tally = tally
        self.completed = 0

    def submit(self, batcher: MicroBatcher, row: np.ndarray, now: Optional[float]):
        self.tally.attempted += 1
        try:
            return batcher.submit(row, now=now)
        except QueueFull:
            self.tally.fail("request rejected (QueueFull)", wrong_output=False)
            return None

    def poll(self, batcher: MicroBatcher, now: Optional[float] = None) -> None:
        try:
            batcher.poll(now)
        except Exception as exc:  # the taken batch stays unresolved and counts below
            self.tally.fail(f"flush raised {type(exc).__name__}: {exc}", wrong_output=False)

    def finish(self, handle, j: int) -> None:
        self.completed += 1
        want = self.expected[j % self.expected.size]
        if abs(handle.value - want) > SERVE_TOL:
            self.tally.fail(f"served {handle.value!r}, GBDTModel.predict gives {want!r}")
        elif handle.degraded:
            self.tally.fail("request degraded to the per-row fallback", wrong_output=False)

    def lost(self, n: int) -> None:
        for _ in range(n):
            self.tally.fail("request never resolved", wrong_output=False)


def arrivals(seed: int, window: int, n: int, rate: float) -> np.ndarray:
    """Due times, in seconds from the window's start, of ``n`` Poisson
    arrivals at ``rate`` per second -- independent users, so no arrival
    waits for a reply."""
    rng = np.random.default_rng([seed, window])
    return np.cumsum(rng.exponential(1.0, size=n)) / rate


def open_loop(flat: FlatEnsemble, rows: np.ndarray, served: Served, due: np.ndarray):
    """Submit request ``i`` at ``due[i]`` seconds after the start, on
    ``time.monotonic``, whatever the state of earlier requests.

    Returns two arrays in request order -- latency from each request's due
    time to the end of the poll that resolved it (NaN if it never
    resolved), and how late each submission ran behind its due time -- and
    the batcher's own stats.
    """
    clock = time.monotonic
    batcher = MicroBatcher(flat, policy=OPEN_POLICY, clock=clock)
    n = due.size
    pending: collections.deque = collections.deque()
    latency = np.full(n, np.nan)
    late = np.zeros(n)
    t0 = clock()
    i = 0
    while i < n or batcher.queue_depth:
        now = clock()
        while i < n and t0 + due[i] <= now:
            late[i] = now - (t0 + due[i])
            handle = served.submit(batcher, rows[i % len(rows)], now)
            if handle is not None:
                pending.append((i, handle))
            i += 1
        served.poll(batcher)
        done = clock()
        while pending and pending[0][1].done:
            j, handle = pending.popleft()
            latency[j] = done - (t0 + due[j])
            served.finish(handle, j)
    served.lost(len(pending))
    return latency, late, batcher.stats


def closed_loop(flat: FlatEnsemble, rows: np.ndarray, served: Served, duration: float) -> float:
    """One caller submitting back to back, polling after every submit, for
    ``duration`` seconds; returns completed rows per second.

    Under the default policy every batch fills to ``max_batch``, so this is
    the serving capacity the open loop's rate is a share of."""
    clock = time.monotonic
    batcher = MicroBatcher(flat, clock=clock)
    pending: collections.deque = collections.deque()
    before = served.completed
    t0 = clock()
    t_end = t0 + duration
    i = 0
    while clock() < t_end:
        handle = served.submit(batcher, rows[i % len(rows)], None)
        if handle is not None:
            pending.append((i, handle))
        i += 1
        served.poll(batcher)
        while pending and pending[0][1].done:
            j, handle = pending.popleft()
            served.finish(handle, j)
    try:
        batcher.drain()
    except Exception as exc:
        served.tally.fail(f"drain raised {type(exc).__name__}: {exc}", wrong_output=False)
    elapsed = clock() - t0
    while pending and pending[0][1].done:
        j, handle = pending.popleft()
        served.finish(handle, j)
    served.lost(len(pending))
    return (served.completed - before) / elapsed


def replay(flat: FlatEnsemble, rows: np.ndarray, served: Served, seed: int) -> int:
    """The serving load on a virtual clock, for the traced run.

    Arrivals and polls carry explicit timestamps, so batch boundaries -- and
    with them every predict call count -- repeat exactly run to run, while
    the traced layers still measure wall time.  Returns how many requests
    a batch served (not degraded, not lost): the rows ``predict`` must see.
    """
    batched = 0
    for due in (arrivals(seed, 0, REPLAY_OPEN, REPLAY_RATE), np.zeros(REPLAY_CLOSED)):
        batcher = MicroBatcher(flat, clock=lambda: 0.0)
        pending = []
        for i, now in enumerate(due.tolist()):
            handle = served.submit(batcher, rows[i % len(rows)], now)
            if handle is not None:
                pending.append((i, handle))
            served.poll(batcher, now)
        try:
            batcher.drain(now=float(due[-1]) + batcher.policy.max_wait)
        except Exception as exc:
            served.tally.fail(f"drain raised {type(exc).__name__}: {exc}", wrong_output=False)
        for j, handle in pending:
            if handle.done:
                served.finish(handle, j)
                batched += not handle.degraded
            else:
                served.lost(1)
    return batched
