"""Command line front end.

Subcommands:

  index      compute the index of a seaweed (meander count, gcd formula,
             or randomized rank oracle)
  meander    render the meander as ascii, svg, tikz or json
  contact    synthesize a contact one-form certificate for an index-one spec
  verify     re-check a certificate file from scratch
  enumerate  census of all composition pairs for a given n
  oracle     randomized-rank index, optionally cross-checking the bordered
             determinant against the exterior-algebra volume coefficient

Exit codes: 0 success, 1 verification/check failure, 2 bad input or an
``--out`` file that cannot be written, 3 method not applicable to the spec,
4 spec is not index one, 5 a contact construction failed that its proof says
cannot fail.
``contact``, ``oracle`` and ``index --method oracle`` exit 2 before building
anything for a spec of dimension above ``contact.MAX_VERIFY_DIM``, and
``index`` and ``meander`` for a spec on more than MAX_VERIFY_DIM + 1 vertices.
``oracle --lemma1`` prints the raw max |det - wedge|, but its exit code follows
(k!)^2 det = wedge^2, since det has degree 2k+2 in phi and wedge degree k+1.
``verify`` exits 2 on any file ``ContactCertificate.from_json`` refuses, an
over-limit one included. No command reads an environment variable.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .contact import (
    MAX_VERIFY_DIM,
    ContactCertificate,
    NotIndexOneError,
    TheoremViolationError,
    synthesize_contact,
    verify_certificate,
)
from .liealg import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    WEDGE_DIM_CAP,
    CoeffForm,
    bhat_det,
    index_randomized,
    squared_identity_holds,
    wedge_volume_coefficient,
)
from .meander import build_meander, components, counts, index_from_counts, orient, render
from .meander import index_gcd_2part, index_gcd_3part
from .standard_form import Composition, SeaweedSpec, compositions
from .standard_form import materialize, seaweed_dim


def _parse_spec(text: str) -> SeaweedSpec:
    try:
        return SeaweedSpec.parse(text)
    except ValueError as exc:
        print(f"seaweed: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _check_size(spec: SeaweedSpec, matrices: bool) -> None:
    """Exit 2 before building anything for a spec above MAX_VERIFY_DIM, the
    dimension limit that verification also applies. Matrices are limited by
    the spec's dimension; a meander, whose cost is linear in n, by n - 1, the
    least dimension of a seaweed on n vertices."""
    if matrices:
        size = seaweed_dim(spec)
        has, limit, what = f"dimension {size}", MAX_VERIFY_DIM, "its matrices"
    else:
        size = spec.n
        has, limit, what = f"{size} vertices", MAX_VERIFY_DIM + 1, "its meander"
    if size > limit:
        print(
            f"seaweed: {spec.text()} has {has}, above the limit {limit} for building {what}",
            file=sys.stderr,
        )
        raise SystemExit(2)


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or to the file out; exit 2 if out cannot be written."""
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"seaweed: cannot write {out}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_index(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.spec)
    _check_size(spec, matrices=args.method == "oracle")
    rep = components(build_meander(spec))
    if args.method == "meander":
        idx = rep.index
    elif args.method == "gcd":
        parts = spec.top.parts
        if len(spec.bottom.parts) != 1 or len(parts) > 3:
            print(
                "seaweed: gcd method needs at most 3 top parts over a one-part bottom",
                file=sys.stderr,
            )
            return 3
        if len(parts) == 1:
            idx = parts[0] - 1  # sl(n) has rank n - 1
        else:
            idx = (index_gcd_2part if len(parts) == 2 else index_gcd_3part)(*parts)
    else:
        idx = index_randomized(materialize(spec), trials=DEFAULT_TRIALS, seed=args.seed)
    if args.json:
        data = {
            "spec": spec.text(),
            "index": idx,
            "method": args.method,
            "components": [
                {"kind": c.kind, "vertices": list(c.vertices)} for c in rep.components
            ],
        }
        print(json.dumps(data, indent=2))
    else:
        print(f"index {idx}")
    return 0


def cmd_meander(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.spec)
    _check_size(spec, matrices=False)
    m = build_meander(spec)
    _emit(render(orient(m) if args.directed else m, args.format), args.out)
    return 0


def cmd_contact(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.spec)
    _check_size(spec, matrices=True)
    try:
        cert = synthesize_contact(spec)
    except NotIndexOneError as exc:
        tag = " (Frobenius)" if exc.index == 0 else ""
        print(f"seaweed: {spec.text()} has index {exc.index}{tag}, not 1", file=sys.stderr)
        return 4
    except TheoremViolationError as exc:
        print(f"seaweed: {exc}", file=sys.stderr)
        return 5
    payload = cert.to_json() + "\n"
    if args.out is not None:
        _emit(payload, args.out)
    if args.json:
        sys.stdout.write(payload)
    else:
        print(f"case: {cert.case}")
        print(f"form: {cert.form}")
        if cert.k is not None:
            print(f"k: {cert.k}")
        print(f"det: {cert.det_value}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = ContactCertificate.from_json(fh.read())
    except (OSError, ValueError, TypeError) as exc:
        print(f"seaweed: cannot read certificate: {exc}", file=sys.stderr)
        return 2
    if not verify_certificate(cert):
        print("verification FAILED", file=sys.stderr)
        return 1
    # recomputed honestly inside verify_certificate; equal to the stored value
    print(f"verified: det {cert.det_value}")
    return 0


@functools.lru_cache(maxsize=None)
def _composition_table(n: int) -> tuple[tuple[str, Composition], ...]:
    """The 2^(n-1) compositions of n with their texts, in text order ("10" <
    "1|9"), built once per process: census tasks name them by position, and
    every row shares the objects and so their cached arcs and triangles."""
    return tuple(sorted((c.text(), c) for c in map(Composition, compositions(n))))


def _census_rows(task: tuple[int, int, bool, int | None]) -> list[tuple[str, ...]]:
    """The census rows of one top composition over every bottom, in
    ``_composition_table`` order, from (n, top position, classify, index
    filter). A row whose index fails the filter is dropped before any string
    is built; dim, index, cycles and paths come from counts alone, and only an
    index-one row that is classified or verified synthesizes."""
    n, t, classify, index_filter = task
    table = _composition_table(n)
    top_text, top = table[t]
    rows = []
    for bottom_text, bottom in table:
        spec = SeaweedSpec(top, bottom)
        C, P = counts(build_meander(spec))
        idx = index_from_counts(C, P)
        if index_filter is not None and idx != index_filter:
            continue
        row = (top_text, bottom_text, str(seaweed_dim(spec)), str(idx), str(C), str(P))
        case = ""
        verified = ""
        if idx == 1 and (classify or index_filter == 1):
            cert = synthesize_contact(spec)
            case = cert.case
            if index_filter == 1:
                verified = "yes" if verify_certificate(cert) else "NO"
        if classify:
            row += (case,)
        if index_filter == 1:
            row += (verified,)
        rows.append(row)
    return rows


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    """Census rows in (top, bottom) text order, one task per top composition.
    CSV rows are written one top's batch at a time as the batches come in, so
    a row that raises leaves the earlier tops' rows on stdout; the table
    collects every batch for the column widths.

    A task names its top by position in ``_composition_table``, so a pooled
    task pickles a few ints and each worker builds the table once; the worker
    drops the rows that fail ``--index-filter`` and sends back the rest of
    the top's rows together. ``--jobs`` must be at least 1; at most as many
    workers start as there are usable CPUs, and one worker runs in process.
    The output is the same for any worker count."""
    n = args.n
    if not 1 <= n <= 12:
        print("seaweed: n must be between 1 and 12", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"seaweed: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 2
    workers = min(args.jobs, _usable_cpus())
    tasks = [
        (n, t, args.classify, args.index_filter) for t in range(len(_composition_table(n)))
    ]
    header = ["top", "bottom", "dim", "index", "cycles", "paths"]
    if args.classify:
        header.append("case")
    if args.index_filter == 1:
        header.append("verified")
    failures = 0

    def counted(batches):
        nonlocal failures
        for batch in batches:
            if args.index_filter == 1:
                failures += sum(r[-1] != "yes" for r in batch)
            yield batch

    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        batches = counted(pool.map(_census_rows, tasks) if pool else map(_census_rows, tasks))
        if args.csv:
            writer = csv.writer(sys.stdout)
            writer.writerow(header)
            for batch in batches:
                writer.writerows(batch)
        else:
            table = list(itertools.chain.from_iterable(batches))
            widths = [max(map(len, column)) for column in zip(header, *table)]
            print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            for r in table:
                print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    if args.index_filter == 1:
        print(f"verification failures: {failures}", file=sys.stderr)
        if failures:
            return 1
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.trials < 1:
        print(f"seaweed: --trials must be at least 1, got {args.trials}", file=sys.stderr)
        return 2
    spec = _parse_spec(args.spec)
    _check_size(spec, matrices=True)
    L = materialize(spec)
    idx = index_randomized(L, trials=args.trials, seed=args.seed)
    print(f"index {idx}")
    if not args.lemma1:
        return 0
    if L.dim % 2 == 0 or L.dim > WEDGE_DIM_CAP:
        print(
            f"seaweed: volume-form check needs odd dimension <= {WEDGE_DIM_CAP}, "
            f"got {L.dim}",
            file=sys.stderr,
        )
        return 3
    rng = random.Random(args.seed)
    worst = Fraction(0)
    squared_ok = True
    for _ in range(args.trials):
        phi = CoeffForm.from_values([rng.randint(-9, 9) for _ in range(L.dim)])
        d = bhat_det(L, phi)
        w = wedge_volume_coefficient(L, phi)
        worst = max(worst, abs(d - w))
        if not squared_identity_holds(L.dim, d, w):
            squared_ok = False
    print(f"volume-form check: max |det - wedge| = {worst} over {args.trials} samples")
    print(
        "squared identity (k!)^2 det = wedge^2: "
        + ("held for all samples" if squared_ok else "VIOLATED")
    )
    return 0 if squared_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seaweed",
        description="Type-A seaweed Lie algebras: index, meanders, contact forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("index", help="compute the index of a seaweed")
    p.add_argument("spec", help='seaweed spec, e.g. "2|6 / 8"')
    p.add_argument(
        "--method",
        choices=["meander", "gcd", "oracle"],
        default="meander",
        help="meander components (default), closed gcd formula, or rank oracle",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="oracle seed")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("meander", help="render the meander")
    p.add_argument("spec")
    p.add_argument(
        "--format", choices=["ascii", "svg", "tikz", "json"], default="ascii"
    )
    p.add_argument("--directed", action="store_true", help="orient the arcs")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(func=cmd_meander)

    p = sub.add_parser("contact", help="synthesize a contact form certificate")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true", help="print the certificate JSON")
    p.add_argument("--out", default=None, help="also write the certificate JSON here")
    p.set_defaults(func=cmd_contact)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="census of all composition pairs")
    p.add_argument("n", type=int)
    p.add_argument(
        "--index-filter",
        type=int,
        default=None,
        dest="index_filter",
        help="only rows with this index; 1 also verifies certificates",
    )
    p.add_argument(
        "--classify", action="store_true", help="add the contact case column"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel workers, each computing the rows of one top composition "
        "at a time",
    )
    p.add_argument("--csv", action="store_true", help="CSV instead of a table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="randomized-rank index oracle")
    p.add_argument("spec")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument(
        "--lemma1",
        action="store_true",
        help="also compare the bordered determinant against the exterior-algebra "
        "volume coefficient and report the largest discrepancy",
    )
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
