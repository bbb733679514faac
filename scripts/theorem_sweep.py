#!/usr/bin/env python3
"""An exhaustive record of the paper's theorem: every index-one seaweed is
contact, checked certificate by certificate for all specs of size N.

For each N the script runs

    python3 -m seaweed enumerate N --index-filter 1 --csv --jobs 2

which synthesizes and verifies a contact certificate for every index-one
spec, and records the row count, the verification failures the command
reports, the sha256 of its CSV output and the wall time, with the machine,
the Python version and the commit. The CSV is the same for any ``--jobs``,
so the digests hold on any machine; the wall times belong to the machine
named in the record.

    python3 scripts/theorem_sweep.py    # N = 7, 10, 11, 12 into THEOREM.json

``tests/test_cli.py`` recomputes N = 7 and checks its digest against the
committed ``THEOREM.json``.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "THEOREM.json")
DEFAULT_NS = (7, 10, 11, 12)
JOBS = 2
COMMAND = f"python3 -m seaweed enumerate N --index-filter 1 --csv --jobs {JOBS}"


def sweep(n: int) -> dict:
    """Run the census of index-one specs of size n and summarize its output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "seaweed", "enumerate", str(n),
           "--index-filter", "1", "--csv", "--jobs", str(JOBS)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, env=env, check=False)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {done.returncode}: {done.stderr.decode()}")
    failures = re.search(rb"verification failures: (\d+)", done.stderr)
    if failures is None:
        raise RuntimeError(f"no failure count in the stderr of {' '.join(cmd[1:])}")
    return {
        "n": n,
        "rows": done.stdout.count(b"\n") - 1,  # less the header
        "failures": int(failures.group(1)),
        "sha256": hashlib.sha256(done.stdout).hexdigest(),
        "wall_s": round(wall, 2),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD, marked "+dirty" when src/ differs from it; "unknown" outside git."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain", "--", "src") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    runs = []
    for n in DEFAULT_NS:
        runs.append(sweep(n))
        print(json.dumps(runs[-1]), file=sys.stderr)
    record = {
        "command": COMMAND,
        "commit": _commit(),
        "machine": {"cpu_model": _cpu_model(), "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "runs": runs,
    }
    with open(RECORD, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    return 1 if any(r["failures"] for r in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
