"""Command-line driver: regenerate any table or figure of the paper.

Usage::

    python -m repro table2            # Table II
    python -m repro fig8a fig8b       # sensitivity studies
    python -m repro fig9              # ablation of the five optimizations
    python -m repro fig10a fig10b     # economics + budgeted accuracy
    python -m repro cases             # Section IV-E case studies
    python -m repro all               # everything
    python -m repro table2 --quick    # tiny smoke-scale run
    python -m repro obs report        # instrumented run + phase breakdown
    python -m repro obs history       # trend report over the run store
    python -m repro pipeline demo     # continual-training loop on a stream
    python -m repro dist demo         # row-sharded data-parallel training
    python -m repro stream demo       # out-of-core training past device memory
    python -m repro runs submit       # record a BENCH_*.json into the store
    python -m repro runs diff -2 -1   # per-metric deltas between two runs
    python -m repro runs gate         # rolling-baseline perf regression gate

``gpu-gbdt`` (the installed console script) is an alias for ``python -m
repro``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from .bench import experiments

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: Dict[str, Callable[[bool], object]] = {
    "table2": lambda quick: experiments.run_table2(quick),
    "fig8a": lambda quick: experiments.run_fig8a(quick),
    "fig8b": lambda quick: experiments.run_fig8b(quick),
    "fig9": lambda quick: experiments.run_fig9(quick),
    "fig10a": lambda quick: experiments.run_fig10a(quick),
    "fig10b": lambda quick: experiments.run_fig10b(quick),
    "cases": lambda quick: experiments.run_case_studies(quick),
    "devices": lambda quick: experiments.run_device_sweep(quick),
    "approx": lambda quick: experiments.run_exact_vs_approx(quick),
    "crossover": lambda quick: experiments.run_crossover(quick),
    "multigpu": lambda quick: experiments.run_multigpu_scaling(quick),
    "threads": lambda quick: experiments.run_thread_sweep(quick),
    "serve-bench": lambda quick: experiments.run_serving_bench(quick),
    "pipeline-bench": lambda quick: experiments.run_pipeline_bench(quick),
}


def _pipeline_main(argv: list[str]) -> int:
    """``gpu-gbdt pipeline demo``: run the continual-training loop, with
    optional fault-injected checkpoint kill (exit 3) and resume."""
    parser = argparse.ArgumentParser(
        prog="gpu-gbdt pipeline",
        description="Continual-training pipeline: warm-start refreshes, "
        "crash-safe checkpoints, drift-triggered retrains with rollback.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser(
        "demo", help="drive the whole loop on a simulated drifting stream"
    )
    demo.add_argument(
        "--quick", action="store_true", help="smoke-scale rows and tree count"
    )
    demo.add_argument(
        "--ckpt-dir",
        metavar="DIR",
        default=None,
        help="checkpoint directory (a fresh temp dir when omitted)",
    )
    demo.add_argument(
        "--kill-at-round",
        type=int,
        metavar="K",
        default=None,
        help="simulate a hard kill during the round-K checkpoint write (exit 3)",
    )
    demo.add_argument(
        "--resume",
        action="store_true",
        help="resume base training from the newest valid checkpoint in --ckpt-dir",
    )
    args = parser.parse_args(argv)

    from .ioutil import SimulatedCrash
    from .pipeline.demo import run_pipeline_demo

    try:
        result = run_pipeline_demo(
            quick=args.quick,
            ckpt_dir=args.ckpt_dir,
            kill_at_round=args.kill_at_round,
            resume=args.resume,
        )
    except SimulatedCrash as crash:
        print(f"[{crash}]")
        return 3
    print(result.text)
    return 0


def _dist_main(argv: list[str]) -> int:
    """``gpu-gbdt dist demo``: distributed data-parallel training, with
    optional worker-kill crash-recovery drill (prints DIST_DIGEST for CI)."""
    parser = argparse.ArgumentParser(
        prog="gpu-gbdt dist",
        description="Distributed data-parallel GBDT: row shards, ring-allreduced "
        "histograms, fault injection with checkpoint recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser(
        "demo", help="train across W workers; verify byte-identity and recovery"
    )
    demo.add_argument(
        "--quick", action="store_true", help="smoke-scale rows and tree count"
    )
    demo.add_argument("--workers", type=int, default=4, help="worker count (default 4)")
    demo.add_argument(
        "--backend",
        choices=("sim", "threaded"),
        default="sim",
        help="comms backend: modeled ring cost (sim) or real threads (threaded)",
    )
    demo.add_argument(
        "--trees", type=int, default=None, help="boosting rounds (default 8, quick 4)"
    )
    demo.add_argument(
        "--kill-worker",
        type=int,
        metavar="RANK",
        default=None,
        help="crash this rank mid-training and recover from checkpoint",
    )
    demo.add_argument(
        "--kill-round",
        type=int,
        metavar="K",
        default=None,
        help="round at which the kill fires (default: halfway)",
    )
    demo.add_argument(
        "--straggler",
        type=int,
        metavar="RANK",
        default=None,
        help="stall this rank at every round boundary",
    )
    demo.add_argument(
        "--straggler-delay",
        type=float,
        metavar="SECONDS",
        default=0.01,
        help="straggler stall per round (default 0.01s)",
    )
    demo.add_argument(
        "--ckpt-dir",
        metavar="DIR",
        default=None,
        help="checkpoint directory (a fresh temp dir when killing a worker)",
    )
    demo.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="export the merged per-rank Chrome trace (open at ui.perfetto.dev)",
    )
    args = parser.parse_args(argv)

    from .dist.demo import run_dist_demo

    result = run_dist_demo(
        quick=args.quick,
        workers=args.workers,
        backend=args.backend,
        trees=args.trees,
        kill_worker=args.kill_worker,
        kill_round=args.kill_round,
        straggler=args.straggler,
        straggler_delay_s=args.straggler_delay,
        ckpt_dir=args.ckpt_dir,
        trace_path=args.trace,
    )
    print(result.text)
    return 0 if result.matches_single else 1


def _stream_main(argv: list[str]) -> int:
    """``gpu-gbdt stream demo``: out-of-core training on a dataset ~10x the
    modeled device memory (prints STREAM_DIGEST / INMEM_DIGEST for CI)."""
    parser = argparse.ArgumentParser(
        prog="gpu-gbdt stream",
        description="Out-of-core training: spillable RLE column blocks, "
        "prefetch pipeline, byte-identical models under a host-cache budget.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    demo = sub.add_parser(
        "demo",
        help="train past the device-memory wall; verify byte-identity",
    )
    demo.add_argument(
        "--quick", action="store_true", help="smoke-scale rows and tree count"
    )
    demo.add_argument(
        "--trees", type=int, default=None, help="boosting rounds (default 6, quick 3)"
    )
    demo.add_argument(
        "--block-rows",
        type=int,
        default=None,
        help="rows per column block (default: rows/24)",
    )
    demo.add_argument(
        "--budget",
        type=int,
        metavar="BYTES",
        default=None,
        help="host block-cache budget in bytes (default 64 KiB, quick 16 KiB)",
    )
    demo.add_argument(
        "--depth", type=int, default=2, help="prefetch queue depth (default 2)"
    )
    demo.add_argument(
        "--spill-dir",
        metavar="DIR",
        default=None,
        help="block spill directory (a fresh temp dir when omitted)",
    )
    args = parser.parse_args(argv)

    from .stream.demo import run_stream_demo

    result = run_stream_demo(
        quick=args.quick,
        trees=args.trees,
        block_rows=args.block_rows,
        budget_bytes=args.budget,
        depth=args.depth,
        spill_dir=args.spill_dir,
    )
    print(result.text)
    return 0 if result.matches_inmem else 1


def _obs_main(argv: list[str]) -> int:
    """``gpu-gbdt obs report``: run an instrumented training and print the
    wall-vs-modeled phase breakdown, optionally exporting trace/metrics."""
    parser = argparse.ArgumentParser(
        prog="gpu-gbdt obs",
        description="Observability tooling: trace an instrumented training run.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser(
        "report", help="train with tracing on and print the phase/metric breakdown"
    )
    report.add_argument(
        "--quick", action="store_true", help="smoke-scale rows and tree count"
    )
    report.add_argument("--dataset", default="covtype", help="dataset name (default covtype)")
    report.add_argument(
        "--trees", type=int, default=None, help="boosting rounds (default 20, quick 5)"
    )
    report.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="export the merged host+device Chrome trace (open at ui.perfetto.dev)",
    )
    report.add_argument(
        "--jsonl", metavar="FILE", default=None, help="export spans + metrics as JSONL"
    )
    report.add_argument(
        "--prom",
        metavar="FILE",
        default=None,
        help="export metrics in Prometheus text format",
    )
    history = sub.add_parser(
        "history", help="trend report over the benchmark run store"
    )
    history.add_argument(
        "--store", metavar="DIR", default=None, help="run-store root (default results/runs)"
    )
    history.add_argument(
        "--bench", action="append", default=None, help="bench name(s) (default: all)"
    )
    history.add_argument(
        "--window", type=int, default=20, help="runs shown per bench (default 20)"
    )
    history.add_argument(
        "--all", action="store_true", help="include non-directional metrics"
    )
    history.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="also write a self-contained HTML report with sparklines",
    )
    args = parser.parse_args(argv)

    if args.command == "history":
        from pathlib import Path

        from .obs.history import build_history
        from .obs.runstore import RunStore

        store = RunStore(args.store)
        rep = build_history(
            store, args.bench, window=args.window, all_metrics=args.all
        )
        print(rep.text)
        if args.html:
            out = Path(args.html)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(rep.html(), encoding="utf-8")
            print(f"[html report -> {out}]")
        return 0

    from .obs.report import run_obs_report

    rep = run_obs_report(
        quick=args.quick,
        dataset=args.dataset,
        n_trees=args.trees,
        trace_path=args.trace,
        jsonl_path=args.jsonl,
        prom_path=args.prom,
    )
    print(rep.text)
    return 0


def _runs_main(argv: list[str]) -> int:
    """``gpu-gbdt runs {submit,list,diff,gate}``: the benchmark run store."""
    import json
    import os
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="gpu-gbdt runs",
        description="Append-only benchmark run store: submit BENCH_*.json "
        "results, list/diff runs across commits, gate against a rolling baseline.",
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None, help="run-store root (default results/runs)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="record a benchmark result file")
    p_submit.add_argument(
        "--bench", default="hotpath", help="bench name (default hotpath)"
    )
    p_submit.add_argument(
        "--file",
        metavar="JSON",
        default=None,
        help="result payload (default: BENCH_<bench>.json at the standard location)",
    )
    p_submit.add_argument("--note", default="", help="free-form annotation")

    p_list = sub.add_parser("list", help="list submitted runs")
    p_list.add_argument("--bench", default=None, help="bench name (default: all)")
    p_list.add_argument("-n", type=int, default=10, help="newest N runs (default 10)")

    p_diff = sub.add_parser("diff", help="per-metric deltas between two runs")
    p_diff.add_argument("old", nargs="?", default="-2", help="run id or index (default -2)")
    p_diff.add_argument("new", nargs="?", default="-1", help="run id or index (default -1)")
    p_diff.add_argument("--bench", default="hotpath", help="bench name (default hotpath)")
    p_diff.add_argument(
        "--all", action="store_true", help="show unchanged-direction metrics too"
    )

    p_gate = sub.add_parser(
        "gate", help="regression-check the newest run vs the rolling baseline"
    )
    p_gate.add_argument("--bench", default="hotpath", help="bench name (default hotpath)")
    p_gate.add_argument("--window", type=int, default=5, help="baseline run count")
    p_gate.add_argument(
        "--rel-tol", type=float, default=0.25, help="relative tolerance (default 0.25)"
    )
    p_gate.add_argument(
        "--abs-tol", type=float, default=1e-4, help="absolute tolerance floor"
    )
    args = parser.parse_args(argv)

    from .obs.runstore import RunStore

    store = RunStore(args.store)

    if args.command == "submit":
        if args.file is not None:
            path = Path(args.file)
        else:
            from .bench.output import bench_output_path

            path = bench_output_path(args.bench)
        if not path.is_file():
            print(f"ERROR: no result file at {path} -- run the bench first")
            return 2
        payload = json.loads(path.read_text(encoding="utf-8"))
        rec = store.submit(args.bench, payload, note=args.note)
        print(f"[submitted {args.bench} run {rec.run_id} -> {rec.path}]")
        return 0

    if args.command == "list":
        benches = [args.bench] if args.bench else store.benches()
        if not benches:
            print("run store is empty")
            return 0
        for bench in benches:
            runs = store.latest(bench, args.n)
            print(f"bench: {bench} ({len(store.runs(bench))} total)")
            for r in runs:
                import datetime

                when = datetime.datetime.fromtimestamp(
                    r.timestamp, datetime.timezone.utc
                ).strftime("%Y-%m-%d %H:%M")
                note = f"  # {r.note}" if r.note else ""
                print(f"  {r.run_id}  {when}  commit {r.short_commit}{note}")
        return 0

    if args.command == "diff":
        old = store.get(args.bench, args.old)
        new = store.get(args.bench, args.new)
        deltas = store.diff(old, new)
        print(f"diff[{args.bench}]: {old.run_id} -> {new.run_id}")
        shown = 0
        for d in deltas:
            if d.direction is None and not args.all:
                continue
            print(f"  {d}")
            shown += 1
        if not shown:
            print("  (no directional metrics moved)")
        return 0

    # gate
    if os.environ.get("REPRO_SKIP_PERF") == "1":
        print(f"gate[{args.bench}]: SKIPPED (REPRO_SKIP_PERF=1)")
        return 0
    report = store.gate(
        args.bench,
        window=args.window,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
    )
    print(report.text)
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    if argv and argv[0] == "pipeline":
        return _pipeline_main(argv[1:])
    if argv and argv[0] == "dist":
        return _dist_main(argv[1:])
    if argv and argv[0] == "runs":
        return _runs_main(argv[1:])
    if argv and argv[0] == "stream":
        return _stream_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="gpu-gbdt",
        description="Regenerate the tables and figures of 'Efficient Gradient "
        "Boosted Decision Tree Training on GPUs' (IPDPS 2018) on the simulated substrate.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which artifacts to regenerate",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke-scale datasets and tree counts"
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also append the regenerated tables to this file",
    )
    parser.add_argument(
        "--save",
        metavar="JSON",
        default=None,
        help="save the numeric results as a JSON document (regression tracking)",
    )
    parser.add_argument(
        "--compare",
        metavar="JSON",
        default=None,
        help="compare the numeric results against a previously saved document",
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=0.05,
        help="relative drift tolerance for --compare (default 0.05)",
    )
    args = parser.parse_args(argv)

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    seen = []
    chunks = []
    results = {}
    for name in names:
        if name in seen:
            continue
        seen.append(name)
        t0 = time.time()
        result = EXPERIMENTS[name](args.quick)
        dt = time.time() - t0
        print()
        print(result.text)
        print(f"[{name} regenerated in {dt:.1f}s wall]")
        chunks.append(result.text)
        results[name] = result
    if args.out:
        from pathlib import Path

        with Path(args.out).open("a", encoding="utf-8") as fh:
            fh.write("\n\n".join(chunks) + "\n")
        print(f"[appended {len(chunks)} experiment(s) to {args.out}]")
    if args.save:
        from .bench.regress import save_results

        save_results(args.save, results, meta={"quick": args.quick})
        print(f"[saved numeric results to {args.save}]")
    if args.compare:
        from .bench.regress import compare_results, load_results, to_payload

        old_doc = load_results(args.compare)
        new_doc = {"experiments": {k: to_payload(v) for k, v in results.items()}}
        drifts = compare_results(old_doc, new_doc, rtol=args.rtol)
        if drifts:
            print(f"[{len(drifts)} drift(s) vs {args.compare}]")
            for d in drifts:
                print(f"  {d}")
            return 1
        print(f"[no drift beyond rtol={args.rtol} vs {args.compare}]")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess test
    sys.exit(main())
