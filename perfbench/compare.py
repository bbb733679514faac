"""Compare two sets of untraced result files, one row per workload and metric.

Each side's median and quartiles come from its runs; the bound is the one
``BENCHMARK.json`` fixes for the metric. A row is *unresolved* when either
side's quartile spread, over its median, exceeds the bound. Sets from
different machines, Python versions or kernel backends are refused.
"""
from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from harness import relative_spread

MACHINE_KEYS = ("cpu_model", "nproc", "python", "backend", "fast_importable")


def load(directory: str) -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("trace") == 0:
            runs.append(data)
    return runs


def _machines(runs: list[dict]) -> set[tuple]:
    return {tuple(r["environment"][k] for k in MACHINE_KEYS) for r in runs}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    if max(relative_spread(base), relative_spread(new)) > bound:
        return "unresolved"
    change = statistics.median(new) / statistics.median(base) - 1
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within bound"


def main(base_dir: str, new_dir: str, benchmark_path: str) -> int:
    with open(benchmark_path, encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    base, new = load(base_dir), load(new_dir)
    if not base or not new:
        print("compare: each directory needs at least one untraced result", file=sys.stderr)
        return 2
    machines = _machines(base) | _machines(new)
    if len(machines) != 1:
        print(
            f"compare: refused, runs differ in {', '.join(MACHINE_KEYS)}: {sorted(machines)}",
            file=sys.stderr,
        )
        return 2
    header = ("workload", "metric", "unit", "runs", "base q1/median/q3",
              "new q1/median/q3", "change", "bound", "verdict")
    print("  ".join(header))
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in base if r["workload"] == workload]
            b = [r["metrics"][m["name"]]["value"] for r in new if r["workload"] == workload]
            qa, qb = _quartiles(a), _quartiles(b)
            print("  ".join((
                workload, m["name"], m["unit"], f"{len(a)}/{len(b)}",
                "/".join(f"{x:.4g}" for x in qa),
                "/".join(f"{x:.4g}" for x in qb),
                f"{qb[1] / qa[1] - 1:+.1%}",
                f"{m['bound']:.0%}",
                verdict(a, b, m["bound"], m["better"]),
            )))
    return 0
