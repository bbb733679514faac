#!/usr/bin/env python3
"""Benchmark for the ``seaweed`` library: four workloads, timed from outside.

Run one workload (each in a fresh process, so set-up time and peak memory
belong to it alone):

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics. Their times are drift-corrected
seconds: each stretch of time is divided by the time of a fixed reference
computation measured next to it every 50 ms and scaled by that computation's
nominal 5 ms (see ``harness.SpeedProbe``), which cancels the drift in speed of
a shared machine. The raw seconds are printed and kept in the result file too.
``--trace 1`` first runs untraced, then wraps the library's layers and prints
per-layer calls, self times (raw seconds) and search counters per pass, plus
the tracing overhead. ``--workload all`` runs the four
workloads one after another, each in its own child process. ``--compare A B``
compares two directories of result files.

Every run writes a result file (metrics, machine record, run counts) to
``perfbench/results/`` or ``--results``; a traced run also writes its spans
there as JSON lines. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Tests of the harness: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import compare  # noqa: E402
import harness  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_goldens  # noqa: E402

SETUP_REPEATS = 5


def _setup(workload, seed: int, goldens: dict, probe: harness.SpeedProbe):
    """Import, draw the inputs and run one untimed warm-up task, five times.

    Returns the set-up times (drift-corrected, raw), the last import and task
    list, and the warm-up verdicts."""
    times, oks = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        sw = harness.import_seaweed()
        tasks = workload.make_tasks(sw, seed)
        _, ok, error = harness.attempt(lambda t: workload.run(sw, t, goldens), workload.warmup(sw))
        times.append(probe.split(t0, time.perf_counter())[::-1])
        oks.append(ok)
        _report_errors([error] if error else [])
    return times, sw, tasks, oks


def _report_errors(errors: list[str]) -> None:
    for text in errors[:3]:
        print(text, file=sys.stderr)


def run_workload(args: argparse.Namespace) -> int:
    if not os.path.exists(os.path.join(ROOT, "src", "seaweed", "__init__.py")):
        print(f"perfbench: no seaweed sources under {ROOT}/src", file=sys.stderr)
        return 2
    cleared = {k: os.environ.pop(k, None) for k in harness.LIBRARY_ENV}
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = WORKLOADS[args.workload]
    goldens = load_goldens()

    budget = args.seconds / 2 if args.trace else args.seconds
    with harness.SpeedProbe() as probe:
        setup_times, sw, tasks, oks = _setup(workload, args.seed, goldens, probe)
        # The drawn inputs live as long as the run; keep the collector from
        # walking them during the tasks.
        gc.collect()
        gc.freeze()
        run_task = lambda task: workload.run(sw, task, goldens)  # noqa: E731
        plain = harness.run_passes(tasks, run_task, probe, budget)
        if args.trace:
            tracer = Tracer()
            probe.on_mark = tracer.exclude
            tracer.install()
            try:
                traced = harness.run_passes(
                    tasks, run_task, probe, budget, on_task=lambda i: setattr(tracer, "task", i)
                )
            finally:
                tracer.restore()
                probe.on_mark = None
    for p in plain:
        oks += p.ok
        _report_errors(p.errors)
    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tasks": len(tasks),
        "setup_s_runs": setup_times,
        "pass_s": [p.wall_s for p in plain],
        "raw_pass_s": [p.raw_wall_s for p in plain],
        "reference_s": statistics.median(b - a for a, b in probe.marks),
    }

    if args.trace:
        reference = plain[0].digests
        for p in traced:
            # tracing must not change a single output byte
            oks += [ok and d == r for ok, d, r in zip(p.ok, p.digests, reference)]
            _report_errors(p.errors)
        wall_plain = statistics.median(p.wall_s for p in plain)
        wall_traced = statistics.median(p.wall_s for p in traced)
        metrics = tracer.per_layer(len(traced))
        metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1, "fraction")
        record["traced_pass_s"] = [p.wall_s for p in traced]
        record["spans"] = {"recorded": tracer.span_count, "written": len(tracer.spans)}
    else:
        latencies = [x for p in plain for x in p.latencies_s]
        raw = [x for p in plain for x in p.raw_latencies_s]
        metrics = {
            "setup_s": (statistics.median(s for s, _ in setup_times), "s"),
            "wall_s": (statistics.median(record["pass_s"]), "s"),
            "task_p50_ms": (harness.percentile(latencies, 0.5) * 1e3, "ms"),
            "task_p90_ms": (harness.percentile(latencies, 0.9) * 1e3, "ms"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
        record["task_samples"] = len(latencies)
        record["raw"] = {
            "setup_s": statistics.median(r for _, r in setup_times),
            "wall_s": statistics.median(record["raw_pass_s"]),
            "task_p50_ms": harness.percentile(raw, 0.5) * 1e3,
            "task_p90_ms": harness.percentile(raw, 0.9) * 1e3,
        }

    attempted, failed = len(oks), oks.count(False)
    record.update(
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        environment=harness.environment(sw, ROOT, args.seed, cleared),
        metrics={k: {"value": v, "unit": u} for k, v, u in _rows(metrics)},
    )
    os.makedirs(args.results, exist_ok=True)
    stem = os.path.join(
        args.results, f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    )
    if args.trace:
        tracer.write_spans(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, value, unit in _rows(metrics):
        print(f"{workload.name}  {name} = {value:.6g} {unit}")
    for name, value in record.get("raw", {}).items():
        print(f"{workload.name}  {name} = {value:.6g} (raw, not drift-corrected)")
    print(f"{workload.name}  error_rate = {failed}/{attempted}")
    print(json.dumps(_result(failed == 0, attempted, failed, record["metrics"])))
    return 0


def _rows(metrics: dict[str, tuple[float, str]]):
    return [(k, v, u) for k, (v, u) in metrics.items()]


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, one after another."""
    merged: dict = {}
    attempted = failed = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--results", args.results],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(_result(failed == 0, attempted, failed, merged)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=os.path.join(HERE, "results"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
