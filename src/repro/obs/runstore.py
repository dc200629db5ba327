"""Append-only benchmark run store: submit, list, diff, and gate runs.

The paper's core claim is a performance claim, but ``BENCH_<name>.json``
files are overwritten in place -- after two commits nobody can answer "did
commit X make training slower, and which phase regressed?".  This module
keeps the longitudinal record: every benchmark run is **submitted** into
``results/runs/<bench>/`` as one immutable, checksummed
:func:`repro.ioutil.seal_json` envelope of format ``repro-run-v1`` (the
payload: bench, run_id, commit, timestamp, env, phases, metrics), written
with :func:`repro.ioutil.atomic_write_text` (the checkpoint-store recipe:
readers see the old file or the new file, never a mixture, and a torn
envelope is *skipped and counted*, never trusted).  A bench name starts
with a letter or digit, so every run stays under its store's root.

On top of the store sit three queries, exposed as
``python -m repro runs {submit,list,diff,gate}``:

``diff``
    per-metric deltas between any two runs (list elements are keyed by
    their name-ish field -- ``workload``/``layout``/``workers`` -- so the
    comparison survives workload-set reordering).
``gate``
    a regression check of the newest run: against the bench's newest
    **pinned** run (``runs submit --pin``), every shared numeric leaf in
    either direction; otherwise, noise-aware, against the **median of the
    last K** prior runs in each metric's *bad* direction (see
    :meth:`RunStore.gate`).  A failure is attributed to the training phase
    (``setup``/``gradients``/``find_split``/``split_node``) whose share of
    the phase breakdown grew the most.
``history``
    the trend table behind ``python -m repro obs history`` (see
    :mod:`repro.obs.history`).

A bench payload states its own correctness claims once, as an
``"invariants": {name: bool}`` dict (models byte-identical, a saving
actually saved, ...).  The bench's CLI and its pytest wrapper fail on a
false one, and :meth:`RunStore.submit` refuses to record it, so a broken
run never becomes anyone's baseline.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import re
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..ioutil import atomic_write_text, open_json, seal_json
from .metrics_registry import get_registry

__all__ = [
    "PHASES",
    "GateReport",
    "MetricDelta",
    "RunRecord",
    "RunStore",
    "default_store_root",
    "env_fingerprint",
    "failed_invariants",
    "flatten_metrics",
    "metric_direction",
    "pinned_findings",
]

RUN_FORMAT = "repro-run-v1"

#: the trainer's phase span names, in execution order (matches the gpusim
#: device phases of :class:`repro.core.trainer.GPUGBDTTrainer`)
PHASES = ("setup", "gradients", "find_split", "split_node")

#: list elements are keyed by the first of these fields they carry, so
#: flattened metric paths stay stable when a workload set is reordered
_KEY_FIELDS = ("workload", "layout", "name", "workers", "devices")

#: a bench name is one path component that cannot leave the store
#: (``..`` and ``.`` are refused by the leading alphanumeric)
_BENCH_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")

_HIGHER_BETTER = re.compile(r"(speedup|throughput|per_s\b|per_sec|qps|rows_per)")
_LOWER_BETTER = re.compile(
    r"(_s$|_ms$|seconds$|_secs$|bytes$|_mb$|_kb$|steps$|wait|elapsed|latency)"
)


def default_store_root() -> Path:
    """``results/runs`` under the repo root (``$REPRO_RUN_STORE`` overrides)."""
    env = os.environ.get("REPRO_RUN_STORE")
    if env:
        return Path(env)
    for parent in Path(__file__).resolve().parents:
        if (parent / "pyproject.toml").is_file():
            return parent / "results" / "runs"
    return Path.cwd() / "results" / "runs"


def env_fingerprint() -> Dict[str, Any]:
    """What machine/toolchain produced a run (coarse, for run comparisons)."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


# ----------------------------------------------------------- metric algebra
def flatten_metrics(payload: Any, prefix: str = "") -> Dict[str, float]:
    """``{dotted.path: value}`` for every numeric leaf of a bench payload.

    List elements are keyed by their name-ish field (``workload``,
    ``layout``, ``workers``, ...) instead of position, so adding or
    reordering workloads does not rename every other metric.  Booleans are
    skipped (identity checks are asserted by the benches themselves, not
    trended).
    """
    out: Dict[str, float] = {}
    if isinstance(payload, bool):
        return out
    if isinstance(payload, (int, float)):
        out[prefix or "value"] = float(payload)
        return out
    if isinstance(payload, dict):
        for k in sorted(payload):
            sub = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten_metrics(payload[k], sub))
        return out
    if isinstance(payload, (list, tuple)):
        for i, item in enumerate(payload):
            label = str(i)
            if isinstance(item, dict):
                for field in _KEY_FIELDS:
                    if field in item and isinstance(item[field], (str, int)):
                        label = f"{field}={item[field]}"
                        break
            sub = f"{prefix}[{label}]" if prefix else f"[{label}]"
            out.update(flatten_metrics(item, sub))
        return out
    return out  # strings / None: not metrics


def failed_invariants(payload: Any) -> List[str]:
    """Names of the false entries of a bench payload's ``"invariants"``
    dict (empty when all hold, or when the payload declares none)."""
    declared = payload.get("invariants", {}) if isinstance(payload, dict) else {}
    return sorted(name for name, held in declared.items() if not held)


def metric_direction(key: str) -> Optional[str]:
    """``"lower"`` (up is a regression), ``"higher"``, or ``None`` (neutral:
    trended and diffed, but never gated)."""
    leaf = key.rsplit(".", 1)[-1].lower()
    if _HIGHER_BETTER.search(leaf):
        return "higher"
    if _LOWER_BETTER.search(leaf):
        return "lower"
    return None


# ------------------------------------------------------------------ records
@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One validated run loaded from the store."""

    run_id: str
    bench: str
    commit: str
    timestamp: float
    env: Dict[str, Any]
    phases: Dict[str, float]
    metrics: Dict[str, Any]
    note: str
    path: Path
    #: the bench's reference run: ``gate`` compares against it, both ways
    pinned: bool = False

    @property
    def seq(self) -> int:
        """Submission sequence number (the run-id's numeric prefix)."""
        return int(self.run_id.split("-", 1)[0])

    @property
    def short_commit(self) -> str:
        return self.commit[:10]

    def flat_metrics(self) -> Dict[str, float]:
        return flatten_metrics(self.metrics)


@dataclasses.dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two runs."""

    key: str
    old: float
    new: float
    direction: Optional[str]

    @property
    def rel(self) -> float:
        denom = max(abs(self.old), 1e-12)
        return (self.new - self.old) / denom

    @property
    def worse(self) -> bool:
        """Did the metric move in its bad direction (any amount)?"""
        if self.direction == "lower":
            return self.new > self.old
        if self.direction == "higher":
            return self.new < self.old
        return False

    def __str__(self) -> str:
        arrow = {"lower": "v good", "higher": "^ good"}.get(self.direction, "      ")
        return (
            f"{self.key}: {self.old:.6g} -> {self.new:.6g}"
            f" ({self.rel:+.1%}) [{arrow}]"
        )


@dataclasses.dataclass(frozen=True)
class GateFinding:
    """One gated metric's verdict against the baseline (rolling median,
    or a pinned run's value when ``direction`` is None: drift either way
    counts).  The ``meta.quick`` finding carries the two runs' flags."""

    key: str
    baseline: float
    value: float
    band: float
    direction: Optional[str]
    regressed: bool

    def __str__(self) -> str:
        if self.key == "meta.quick":
            return f"meta.quick: pinned {self.baseline} vs run {self.value} (scale mismatch)"
        rel = (self.value - self.baseline) / max(abs(self.baseline), 1e-12)
        better = f", {self.direction} is better" if self.direction else ""
        return (
            f"{self.key}: {self.baseline:.6g} -> {self.value:.6g} ({rel:+.1%},"
            f" band +/-{self.band:.3g}{better})"
            f" {'REGRESSED' if self.regressed else 'ok'}"
        )


def pinned_findings(
    pinned: Dict[str, float], fresh: Dict[str, float], rel_tol: float
) -> List[GateFinding]:
    """Every numeric leaf shared by two flattened payloads, failing when
    ``|new - old| > rel_tol * max(|old|, |new|)``; leaves only one side
    has are ignored (a partial rerun gates only what it recomputed)."""
    findings = []
    for key in sorted(set(pinned) & set(fresh)):
        old, new = pinned[key], fresh[key]
        band = rel_tol * max(abs(old), abs(new), 1e-12)
        findings.append(
            GateFinding(
                key=key, baseline=old, value=new, band=band, direction=None,
                regressed=abs(new - old) > band,
            )
        )
    return findings


@dataclasses.dataclass
class GateReport:
    """Verdict of one ``runs gate`` invocation."""

    bench: str
    run: Optional[RunRecord]
    baseline_runs: int
    window: int
    rel_tol: float
    abs_tol: float
    findings: List[GateFinding]
    skipped: Optional[str] = None
    #: phase the worst regression is attributed to (None when passing)
    culprit_phase: Optional[str] = None
    #: per-phase relative growth vs the baseline median (diagnostic)
    phase_growth: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: run id of the pinned reference (None: rolling-median baseline)
    pinned: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not any(f.regressed for f in self.findings)

    @property
    def regressions(self) -> List[GateFinding]:
        return [f for f in self.findings if f.regressed]

    @property
    def text(self) -> str:
        if self.skipped:
            return f"gate[{self.bench}]: SKIPPED ({self.skipped})"
        assert self.run is not None
        against = (
            f"pinned run {self.pinned} (either direction"
            if self.pinned
            else f"median of last {self.baseline_runs} (abs_tol={self.abs_tol:g}"
        )
        lines = [
            f"gate[{self.bench}]: run {self.run.run_id} vs {against},"
            f" rel_tol={self.rel_tol:.0%})"
        ]
        if self.ok and self.pinned:
            lines.append(f"  {len(self.findings)} shared metrics within band")
        else:
            lines += [f"  {f}" for f in (self.findings if self.ok else self.regressions)]
        if self.culprit_phase:
            lines.append(
                f"  culprit phase: {self.culprit_phase} "
                + ", ".join(
                    f"{p}{g:+.0%}" for p, g in self.phase_growth.items()
                )
            )
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


# -------------------------------------------------------------------- store
class RunStore:
    """Append-only store of benchmark runs under ``root/<bench>/``.

    ``clock`` and ``commit_resolver`` are injectable for deterministic
    tests.
    """

    def __init__(
        self,
        root: Path | str | None = None,
        *,
        clock: Callable[[], float] = time.time,
        commit_resolver: Callable[[], str] = _git_commit,
    ) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.clock = clock
        self.commit_resolver = commit_resolver

    # ------------------------------------------------------------ submission
    def submit(
        self,
        bench: str,
        metrics: Dict[str, Any],
        *,
        phases: Optional[Dict[str, float]] = None,
        note: str = "",
        pinned: bool = False,
    ) -> RunRecord:
        """Record one run as a new immutable envelope; returns the record.

        ``phases`` defaults to a ``"phases"`` key embedded in the metrics
        payload (the hotpath/dist benches put their span breakdown there),
        so submitting a ``BENCH_*.json`` file straight from disk keeps the
        phase attribution.  ``pinned`` marks the run as the bench's
        reference for :meth:`gate`.  A payload with a false invariant is
        refused (``ValueError``).
        """
        bench_dir = self._bench_dir(bench)
        broken = failed_invariants(metrics)
        if broken:
            raise ValueError(
                f"{bench}: refusing a run whose invariants failed: {broken}"
            )
        if phases is None:
            embedded = metrics.get("phases") if isinstance(metrics, dict) else None
            phases = dict(embedded) if isinstance(embedded, dict) else {}
        commit = self.commit_resolver()
        seq = self._next_seq(bench_dir)
        run_id = f"{seq:06d}-{commit[:10]}"
        doc = {
            "bench": bench,
            "run_id": run_id,
            "commit": commit,
            "timestamp": float(self.clock()),
            "env": env_fingerprint(),
            "phases": {str(k): float(v) for k, v in (phases or {}).items()},
            "metrics": metrics,
            "note": note,
            "pinned": pinned,
        }
        path = bench_dir / f"{run_id}.json"
        bench_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, seal_json(RUN_FORMAT, doc))
        return self._record(doc, path)

    def _bench_dir(self, bench: str) -> Path:
        """``root/<bench>``; ``ValueError`` unless ``bench`` is a valid name."""
        if not _BENCH_NAME.fullmatch(bench):
            raise ValueError(f"invalid bench name: {bench!r}")
        return self.root / bench

    @staticmethod
    def _next_seq(bench_dir: Path) -> int:
        best = 0
        for p in bench_dir.glob("*.json"):
            m = re.match(r"(\d+)-", p.name)
            if m:
                best = max(best, int(m.group(1)))
        return best + 1

    # --------------------------------------------------------------- loading
    @staticmethod
    def _record(doc: Dict[str, Any], path: Path) -> RunRecord:
        return RunRecord(
            run_id=str(doc["run_id"]),
            bench=str(doc["bench"]),
            commit=str(doc.get("commit", "unknown")),
            timestamp=float(doc.get("timestamp", 0.0)),
            env=dict(doc.get("env", {})),
            phases={str(k): float(v) for k, v in doc.get("phases", {}).items()},
            metrics=doc.get("metrics", {}),
            note=str(doc.get("note", "")),
            path=path,
            pinned=bool(doc.get("pinned", False)),
        )

    def _load(self, path: Path) -> Optional[RunRecord]:
        """One envelope, or None (counted) when torn/invalid."""
        try:
            return self._record(open_json(RUN_FORMAT, path.read_text(encoding="utf-8")), path)
        except (OSError, ValueError, KeyError, TypeError):
            get_registry().counter(
                "runstore_torn_skipped_total",
                "run envelopes skipped because torn or invalid",
            ).inc()
            return None

    def benches(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and _BENCH_NAME.fullmatch(p.name)
        )

    def runs(self, bench: str) -> List[RunRecord]:
        """Every valid run of ``bench``, oldest first (torn files skipped)."""
        out = []
        for path in sorted(self._bench_dir(bench).glob("*.json")):
            rec = self._load(path)
            if rec is not None:
                out.append(rec)
        out.sort(key=lambda r: r.seq)
        return out

    def latest(self, bench: str, k: int = 1) -> List[RunRecord]:
        """The newest ``k`` valid runs, oldest first."""
        return self.runs(bench)[-k:]

    def get(self, bench: str, run_id: str) -> RunRecord:
        """Look up one run by exact id, unique prefix, or relative index
        (``-1`` = newest, ``-2`` = one before, ...)."""
        runs = self.runs(bench)
        if re.fullmatch(r"-\d+", run_id):
            idx = int(run_id)
            if -len(runs) <= idx <= -1:
                return runs[idx]
            raise KeyError(f"{bench}: no run at index {run_id}")
        hits = [r for r in runs if r.run_id == run_id]
        if not hits:
            hits = [r for r in runs if r.run_id.startswith(run_id)]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise KeyError(f"{bench}: no run matching {run_id!r}")
        raise KeyError(
            f"{bench}: {run_id!r} is ambiguous: {[r.run_id for r in hits]}"
        )

    # ------------------------------------------------------------------ diff
    def diff(self, a: RunRecord, b: RunRecord) -> List[MetricDelta]:
        """Per-metric movement from ``a`` (old) to ``b`` (new), shared keys
        only, largest relative move first."""
        fa, fb = a.flat_metrics(), b.flat_metrics()
        deltas = [
            MetricDelta(key=k, old=fa[k], new=fb[k], direction=metric_direction(k))
            for k in sorted(set(fa) & set(fb))
            if fa[k] != fb[k]
        ]
        deltas.sort(key=lambda d: abs(d.rel), reverse=True)
        return deltas

    # ------------------------------------------------------------------ gate
    def gate(
        self,
        bench: str,
        *,
        window: int = 5,
        rel_tol: Optional[float] = None,
        abs_tol: float = 1e-4,
        min_history: int = 2,
    ) -> GateReport:
        """Check the newest run against the newest earlier pinned run, or,
        when there is none, the median of the previous ``window``.

        Against a pinned run, every shared numeric leaf must stay within
        ``rel_tol`` (default 0.05) of it, both ways (see
        :func:`pinned_findings`), unless the two runs' ``meta.quick``
        differ: then that scale mismatch is the one finding.  Against the
        rolling median, a metric fails when it moves beyond
        ``max(rel_tol * |median|, abs_tol)`` (default ``rel_tol`` 0.25: wall
        clocks are noisy) in its bad direction (see :func:`metric_direction`;
        neutral metrics never fail).  With fewer than ``min_history`` prior
        runs the rolling gate passes as skipped.
        """
        runs = self.runs(bench)
        pins = [r for r in runs[:-1] if r.pinned]
        if rel_tol is None:
            rel_tol = 0.05 if pins else 0.25
        if not runs:
            return GateReport(
                bench, None, 0, window, rel_tol, abs_tol, [],
                skipped="no runs submitted",
            )
        newest, history = runs[-1], runs[:-1][-window:]
        if pins:
            history = pins[-1:]
            old_q, new_q = (
                (r.metrics.get("meta") or {}).get("quick") for r in (history[0], newest)
            )
            # a quick and a full-scale run share leaf names, not scale
            findings = (
                [GateFinding("meta.quick", old_q, new_q, 0.0, None, True)]
                if old_q != new_q
                else pinned_findings(
                    history[0].flat_metrics(), newest.flat_metrics(), rel_tol
                )
            )
        elif len(history) < min_history:
            return GateReport(
                bench, newest, len(history), window, rel_tol, abs_tol, [],
                skipped=f"only {len(history)} prior run(s), need {min_history}",
            )
        else:
            findings = self._rolling_findings(newest, history, rel_tol, abs_tol)

        report = GateReport(
            bench, newest, len(history), window, rel_tol, abs_tol, findings,
            pinned=history[0].run_id if pins else None,
        )
        if not report.ok:
            report.phase_growth, report.culprit_phase = self._attribute_phase(
                newest, history
            )
            get_registry().counter(
                "runstore_gate_failures_total",
                "run-store gate failures",
                bench=bench,
            ).inc()
        return report

    @staticmethod
    def _rolling_findings(
        newest: RunRecord, history: List[RunRecord], rel_tol: float, abs_tol: float
    ) -> List[GateFinding]:
        """Directional metrics of ``newest`` vs the median of ``history``."""
        baselines: Dict[str, List[float]] = {}
        for r in history:
            for k, v in r.flat_metrics().items():
                baselines.setdefault(k, []).append(v)

        findings: List[GateFinding] = []
        for key, value in sorted(newest.flat_metrics().items()):
            direction = metric_direction(key)
            series = baselines.get(key)
            if direction is None or not series:
                continue
            med = statistics.median(series)
            band = max(rel_tol * abs(med), abs_tol)
            regressed = (
                value > med + band if direction == "lower" else value < med - band
            )
            findings.append(
                GateFinding(
                    key=key, baseline=med, value=value, band=band,
                    direction=direction, regressed=regressed,
                )
            )
        return findings

    @staticmethod
    def _attribute_phase(
        newest: RunRecord, history: List[RunRecord]
    ) -> Tuple[Dict[str, float], Optional[str]]:
        """Relative per-phase growth vs the baseline median, and the phase
        that grew the most (the regression's likely culprit)."""
        growth: Dict[str, float] = {}
        for phase in PHASES:
            series = [r.phases[phase] for r in history if phase in r.phases]
            if not series or phase not in newest.phases:
                continue
            med = statistics.median(series)
            growth[phase] = (newest.phases[phase] - med) / max(abs(med), 1e-12)
        culprit = max(growth, key=lambda p: growth[p]) if growth else None
        if culprit is not None and growth[culprit] <= 0:
            culprit = None  # nothing grew: the regression is outside the phases
        return growth, culprit
