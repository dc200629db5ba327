"""Per-layer timing measured from outside the program.

Each :class:`Layer` names one public function or method of the ``repro``
package.  :func:`instrument` rebinds it to a timing wrapper for the length of
a ``with`` block and restores the original afterwards.  A function must be
rebound in *every* module that imported it: ``from .split import eq2_gain``
gives ``repro.approx.histops`` its own binding, and a call through that
binding never touches ``repro.core.split.eq2_gain``.  So the wrapper replaces
each module attribute that is the original object, and a layer may claim only
some of the bindings (``approx.histops.eq2_gain`` is the binding the
histogram scan calls; ``core.split.eq2_gain`` is every other one).

Spans stay in memory in a :class:`SpanRecorder`.  A span's self time is its
duration minus the time its child spans on the same thread cover, so the
self times of one thread's nested layers add up to the wall time they span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LAYERS",
    "Layer",
    "LayerTotals",
    "SpanRecorder",
    "instrument",
]


@dataclasses.dataclass(frozen=True)
class Layer:
    """One timed entry point of the program."""

    #: metric prefix; the benchmark reports ``<metric>.calls`` and ``.s``
    metric: str
    #: module that defines the function or class
    module: str
    #: ``"function"`` or ``"Class.method"``
    attr: str
    #: time only the binding in this module (None: every binding but ``skip``)
    only: Optional[str] = None
    skip: Tuple[str, ...] = ()
    #: positional argument whose first dimension counts rows (``.rows``)
    rows_arg: Optional[int] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("data.build_sorted_columns", "repro.data.sorted_columns", "build_sorted_columns"),
    Layer("data.encode_segments", "repro.data.rle", "encode_segments"),
    Layer("core.smartgd.compute", "repro.core.smartgd", "GradientComputer.compute"),
    Layer("core.split.find_best_splits_sparse", "repro.core.split", "find_best_splits_sparse"),
    Layer("core.split.find_best_splits_rle", "repro.core.split", "find_best_splits_rle"),
    Layer("core.split.eq2_gain", "repro.core.split", "eq2_gain", skip=("repro.approx.histops",)),
    Layer("core.partition.partition_segments", "repro.core.partition", "partition_segments"),
    Layer("core.rle_split.split_runs_direct", "repro.core.rle_split", "split_runs_direct"),
    Layer("approx.quantile.build_bins", "repro.approx.quantile", "build_bins"),
    Layer("approx.quantile.merge_sketches", "repro.approx.quantile", "merge_sketches"),
    Layer("approx.histops.scan_histograms", "repro.approx.histops", "scan_histograms"),
    Layer("approx.histops.accumulate_histograms", "repro.approx.histops", "accumulate_histograms"),
    Layer(
        "approx.histops.subtract_child_histogram",
        "repro.approx.histops",
        "subtract_child_histogram",
    ),
    Layer("approx.histops.eq2_gain", "repro.core.split", "eq2_gain", only="repro.approx.histops"),
    Layer("stream.blockstore.get", "repro.stream.blockstore", "BlockStore.get"),
    Layer("serve.flat_model.from_model", "repro.serve.flat_model", "FlatEnsemble.from_model"),
    Layer("serve.flat_model.predict", "repro.serve.flat_model", "FlatEnsemble.predict", rows_arg=1),
)


@dataclasses.dataclass
class LayerTotals:
    """Calls, self seconds and rows of one layer over a slice of spans."""

    calls: int = 0
    self_s: float = 0.0
    rows: int = 0


class SpanRecorder:
    """In-memory span store with per-thread nesting.

    A span is ``(name, thread id, t_start, t_end, self seconds, rows)``.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, int, float, float, float, int]] = []
        self._local = threading.local()

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[List[List[float]], List[float], float]:
        stack = self._stack()
        frame = [0.0]  # seconds covered by child spans
        stack.append(frame)
        return stack, frame, time.perf_counter()

    def _close(self, name: str, stack, frame, t0: float, rows: int) -> None:
        t1 = time.perf_counter()
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][0] += dur
        # list.append is atomic, so the prefetch thread may record concurrently
        self.spans.append((name, threading.get_ident(), t0, t1, dur - frame[0], rows))

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A span around benchmark-side work (one fit, one serving phase)."""
        stack, frame, t0 = self._open()
        try:
            yield
        finally:
            self._close(name, stack, frame, t0, 0)

    def wrap(self, fn: Callable, name: str, rows_arg: Optional[int] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rows = 0
            if rows_arg is not None and len(args) > rows_arg:
                rows = int(getattr(args[rows_arg], "shape", (0,))[0])
            stack, frame, t0 = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, stack, frame, t0, rows)

        return timed

    def totals(self, start: int = 0) -> Dict[str, LayerTotals]:
        """Per-name totals of ``spans[start:]``."""
        out: Dict[str, LayerTotals] = {}
        for name, _, _, _, self_s, rows in self.spans[start:]:
            t = out.setdefault(name, LayerTotals())
            t.calls += 1
            t.self_s += self_s
            t.rows += rows
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (open in Perfetto)."""
        if not self.spans:
            return
        origin = min(s[2] for s in self.spans)
        tids: Dict[int, int] = {}
        events = []
        for name, ident, t0, t1, self_s, rows in self.spans:
            args = {"self_us": round(self_s * 1e6, 3)}
            if rows:
                args["rows"] = rows
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tids.setdefault(ident, len(tids)),
                    "ts": round((t0 - origin) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _resolve(layer: Layer):
    """The original object and, for methods, its owning class."""
    module = importlib.import_module(layer.module)
    if "." in layer.attr:
        cls_name, meth = layer.attr.split(".")
        cls = getattr(module, cls_name)
        return cls, cls.__dict__[meth]
    return None, getattr(module, layer.attr)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder, layers: Tuple[Layer, ...] = LAYERS) -> Iterator[None]:
    """Rebind every layer to a timing wrapper; restore all bindings on exit."""
    # resolve every original before patching anything: two layers may
    # share one function (the eq2_gain bindings)
    originals = [(layer, *_resolve(layer)) for layer in layers]
    patched: List[Tuple[object, str, object]] = []
    try:
        for layer, cls, orig in originals:
            if cls is not None:
                meth = layer.attr.split(".")[1]
                if isinstance(orig, classmethod):
                    new = classmethod(recorder.wrap(orig.__func__, layer.metric, layer.rows_arg))
                else:
                    new = recorder.wrap(orig, layer.metric, layer.rows_arg)
                patched.append((cls, meth, orig))
                setattr(cls, meth, new)
                continue
            wrapper = recorder.wrap(orig, layer.metric, layer.rows_arg)
            n_before = len(patched)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                if (layer.only is not None and mod_name != layer.only) or mod_name in layer.skip:
                    continue
                for key, value in list(vars(module).items()):
                    if value is orig:
                        patched.append((module, key, orig))
                        setattr(module, key, wrapper)
            if len(patched) == n_before:
                raise RuntimeError(f"layer {layer.metric}: no binding of {layer.attr} to time")
        yield
    finally:
        for owner, key, orig in reversed(patched):
            setattr(owner, key, orig)
