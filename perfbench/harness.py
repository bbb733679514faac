"""Timing loop, statistics and the machine record behind ``run.py``.

Load is closed-loop: one client in one process sends the next task when the
previous one has returned. A pass runs every task of the workload once.
"""
from __future__ import annotations

import bisect
import gc
import hashlib
import importlib
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Any, Callable

# Environment variables the library reads; they are cleared before import so
# an outside value cannot change the work, and their old values are recorded.
LIBRARY_ENV = ("SEAWEED_SEED", "SEAWEED_PURE")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    values at or below it (q in (0, 1])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def relative_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def import_seaweed() -> ModuleType:
    """Import ``seaweed`` and its CLI from scratch, dropping loaded copies."""
    for name in [m for m in sys.modules if m == "seaweed" or m.startswith("seaweed.")]:
        del sys.modules[name]
    sw = importlib.import_module("seaweed")
    importlib.import_module("seaweed.cli")
    return sw


def _reference_work() -> None:
    """Fixed computation that times the machine's current speed: a
    fraction-free elimination on big integers and a sum of Fractions, the
    work the library does most. It does not touch the library. (A plain
    bytecode loop tracked the drift of the library's work worse.)"""
    a = [row[:] for row in _REFERENCE_MATRIX]
    prev = 1
    for k in range(len(a) - 1):
        rowk, pv = a[k], a[k][k]
        for rowi in a[k + 1 :]:
            f = rowi[k]
            for j in range(k + 1, len(a)):
                rowi[j] = (rowi[j] * pv - f * rowk[j]) // prev
        prev = pv
    q = Fraction(0)
    for i in range(1, 400):
        q += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1)


_rng = random.Random(0)
_REFERENCE_MATRIX = [[_rng.randint(-10**6, 10**6) for _ in range(18)] for _ in range(18)]


# Nominal duration of one reference computation; drift-corrected times are
# reference units scaled by it, so they read as seconds on a machine that runs
# the reference in this time (a shared 2 GHz Intel Xeon takes 4.5-5.5 ms).
NOMINAL_REFERENCE_S = 0.005

# Time between probes: short enough to follow the drift, long enough that
# the probes take about a tenth of the run.
PROBE_PERIOD_S = 0.05


class SpeedProbe:
    """Times the reference work every ``PROBE_PERIOD_S`` from a timer signal.

    A shared machine's speed drifts by tens of percent within seconds, and
    the library's work drifts much as the reference does. A stretch of time
    divided by the reference time measured around its end cancels most of
    that drift; ``split`` scales the result by ``NOMINAL_REFERENCE_S``
    (drift-corrected seconds). The probe's own time
    is left out of both raw and corrected figures. Signals reach the main
    thread between bytecodes, so the probe runs in the one process and thread
    that runs the tasks.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end) of each reference
        self.on_mark: Callable[[float], None] | None = None
        self._previous: Any = None

    def _measure(self, *_: object) -> None:
        t0 = time.perf_counter()
        _reference_work()
        t1 = time.perf_counter()
        self.marks.append((t0, t1))
        if self.on_mark is not None:
            self.on_mark(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._measure()
        self._previous = signal.signal(signal.SIGALRM, self._measure)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _reference_s(self, i: int) -> float:
        """Median reference time of probes i-1, i and i+1, damping the jitter
        of single probes while keeping up with drift."""
        return statistics.median(m1 - m0 for m0, m1 in self.marks[max(0, i - 1) : i + 2])

    def split(self, start: float, end: float) -> tuple[float, float]:
        """Raw and drift-corrected seconds spent on [start, end] outside the probe.

        Each stretch between probes is divided by the reference time around
        the probe that ends it, and the last stretch by that around the
        latest probe."""
        i = bisect.bisect_left(self.marks, (start,))
        seconds = units = 0.0
        t = start
        while i < len(self.marks) and self.marks[i][0] < end:
            m0, m1 = self.marks[i]
            seconds += m0 - t
            units += (m0 - t) / self._reference_s(i)
            t = m1
            i += 1
        seconds += end - t
        units += (end - t) / self._reference_s(i - 1)
        return seconds, units * NOMINAL_REFERENCE_S


def attempt(run_task: Callable[[Any], tuple[str, bool]], task: Any) -> tuple[str, bool, str]:
    """Output, verdict and traceback of one task; raising counts as failing."""
    try:
        output, ok = run_task(task)
    except Exception:  # any exception is a failed task; the run goes on
        return "", False, traceback.format_exc()
    return output, bool(ok), ""


@dataclass
class PassResult:
    """Times are drift-corrected seconds; the raw ones are kept beside them."""

    wall_s: float
    raw_wall_s: float
    latencies_s: list[float]
    raw_latencies_s: list[float]
    digests: list[str]
    ok: list[bool]
    errors: list[str]


def run_pass(
    tasks: list,
    run_task: Callable[[Any], tuple[str, bool]],
    probe: SpeedProbe,
    on_task: Callable[[int], None] | None = None,
) -> PassResult:
    """Run every task once; a task that raises or fails a check counts as failed."""
    gc.collect()
    bounds: list[tuple[float, float]] = []
    digests: list[str] = []
    oks: list[bool] = []
    errors: list[str] = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if on_task is not None:
            on_task(i)
        t0 = time.perf_counter()
        output, ok, error = attempt(run_task, task)
        bounds.append((t0, time.perf_counter()))
        digests.append(hashlib.sha256(output.encode("utf-8")).hexdigest())
        oks.append(ok)
        if error:
            errors.append(error)
    wall = probe.split(start, time.perf_counter())
    latencies = [probe.split(a, b) for a, b in bounds]
    return PassResult(
        wall[1], wall[0], [c for _, c in latencies], [r for r, _ in latencies],
        digests, oks, errors,
    )


def run_passes(
    tasks: list,
    run_task: Callable[[Any], tuple[str, bool]],
    probe: SpeedProbe,
    seconds: float,
    on_task: Callable[[int], None] | None = None,
) -> list[PassResult]:
    """At least one pass; another only while it is expected to end in time."""
    results: list[PassResult] = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(tasks, run_task, probe, on_task))
        elapsed = time.perf_counter() - start
        if elapsed + results[-1].raw_wall_s > seconds:
            return results


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(sw: ModuleType, root: str, seed: int, cleared: dict) -> dict:
    """What a comparison must hold equal, plus where the numbers came from."""
    try:
        importlib.import_module("seaweed._kernels._fast")
        fast = True
    except ImportError:
        fast = False
    return {
        "backend": sw.BACKEND,
        "fast_importable": fast,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "cleared_env": cleared,
    }
