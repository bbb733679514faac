#!/usr/bin/env python3
"""Compare the pure-Python and compiled elimination kernels.

Times det_int, rank_int and rank_mod on random dense integer matrices, and
on random skew-symmetric ones of the same sizes with entries in +-10^6 (the
shape of the index oracle's Kirillov matrices, which the pure rank kernels
eliminate with 2 x 2 pivots). Prints one row per input, operation and size,
with the speedup of the compiled backend over the pure one. Results are
checked for agreement as they are timed. If the compiled module is not built,
only the pure column appears.

Usage:
    python3 benchmarks/bench_kernels.py [--sizes 16,24,32,48] [--repeats 5]
"""
import argparse
import random
import time

from seaweed._kernels import pure

try:
    from seaweed._kernels import _fast
except ImportError:
    _fast = None

MOD_PRIME = 2**31 - 1
SKEW_BOUND = 10**6


def random_matrix(rng: random.Random, size: int, bound: int) -> list[list[int]]:
    return [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]


def random_skew(rng: random.Random, size: int, bound: int) -> list[list[int]]:
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            rows[i][j] = rng.randint(-bound, bound)
            rows[j][i] = -rows[i][j]
    return rows


def best_ms(fn, args, repeats: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, (time.perf_counter() - t0) * 1000)
    return best, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,24,32,48",
                    help="comma-separated matrix sizes")
    ap.add_argument("--repeats", type=int, default=5,
                    help="take the best of this many runs")
    ap.add_argument("--bound", type=int, default=99,
                    help="dense entries drawn uniformly from [-bound, bound]")
    ap.add_argument("--seed", type=int, default=1729)
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rng = random.Random(args.seed)
    ops = [
        ("det_int", lambda mod, m: (mod.det_int, (m,))),
        ("rank_int", lambda mod, m: (mod.rank_int, (m,))),
        ("rank_mod", lambda mod, m: (mod.rank_mod, (m, MOD_PRIME))),
    ]

    if _fast is None:
        print("compiled backend not built; timing pure only")
        header = f"{'input':<6} {'op':<10} {'n':>4} {'pure ms':>10}"
    else:
        header = (
            f"{'input':<6} {'op':<10} {'n':>4} {'pure ms':>10} {'compiled ms':>12} "
            f"{'speedup':>8}"
        )
    print(header)
    print("-" * len(header))

    for size in sizes:
        inputs = [
            ("dense", random_matrix(rng, size, args.bound)),
            ("skew", random_skew(rng, size, SKEW_BOUND)),
        ]
        for kind, matrix in inputs:
            for name, pick in ops:
                fn, fargs = pick(pure, matrix)
                pure_ms, pure_res = best_ms(fn, fargs, args.repeats)
                if _fast is None:
                    print(f"{kind:<6} {name:<10} {size:>4} {pure_ms:>10.3f}")
                    continue
                fn, fargs = pick(_fast, matrix)
                fast_ms, fast_res = best_ms(fn, fargs, args.repeats)
                if pure_res != fast_res:
                    raise SystemExit(
                        f"backend disagreement for {name} on {kind} n={size}: "
                        f"{pure_res!r} != {fast_res!r}"
                    )
                print(
                    f"{kind:<6} {name:<10} {size:>4} {pure_ms:>10.3f} {fast_ms:>12.3f} "
                    f"{pure_ms / fast_ms:>7.1f}x"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
