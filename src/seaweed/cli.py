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

Exit codes: 0 success, 1 verification/check failure, 2 bad input, 3 method
not applicable to the spec, 4 spec is not index one, 5 synthesis failure.
``oracle --lemma1`` prints the raw max |det - wedge|, but its exit code follows
(k!)^2 det = wedge^2, since det has degree 2k+2 in phi and wedge degree k+1.
The SEAWEED_SEED environment variable overrides the default oracle seed;
an explicit --seed flag overrides both.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import factorial

from .contact import (
    DEFAULT_K_MAX,
    ContactCertificate,
    NotIndexOneError,
    SynthesisError,
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
    wedge_volume_coefficient,
)
from .meander import build_meander, components, orient, render
from .meander import index_gcd_2part, index_gcd_3part
from .standard_form import SeaweedSpec, compositions, materialize, seaweed_dim


def _resolve_seed(args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("SEAWEED_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            print(f"seaweed: SEAWEED_SEED={env!r} is not an integer", file=sys.stderr)
            raise SystemExit(2)
    return DEFAULT_SEED


def _parse_spec(text: str) -> SeaweedSpec:
    try:
        return SeaweedSpec.parse(text)
    except ValueError as exc:
        print(f"seaweed: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_index(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.spec)
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
        idx = index_randomized(
            materialize(spec), trials=DEFAULT_TRIALS, seed=_resolve_seed(args)
        )
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
    m = build_meander(spec)
    _emit(render(orient(m) if args.directed else m, args.format), args.out)
    return 0


def cmd_contact(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.spec)
    try:
        cert = synthesize_contact(spec, k_max=args.k_max)
    except NotIndexOneError as exc:
        tag = " (Frobenius)" if exc.index == 0 else ""
        print(f"seaweed: {spec.text()} has index {exc.index}{tag}, not 1", file=sys.stderr)
        return 4
    except SynthesisError as exc:
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
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"seaweed: cannot read certificate: {exc}", file=sys.stderr)
        return 2
    if not verify_certificate(cert):
        print("verification FAILED", file=sys.stderr)
        return 1
    # recomputed honestly inside verify_certificate; equal to the stored value
    print(f"verified: det {cert.det_value}")
    return 0


def _census_row(task: tuple[str, bool, int | None]) -> tuple[str, ...]:
    text, classify, index_filter = task
    spec = SeaweedSpec.parse(text)
    rep = components(build_meander(spec))
    idx = rep.index
    row = [
        spec.top.text(),
        spec.bottom.text(),
        str(seaweed_dim(spec)),
        str(idx),
        str(rep.C),
        str(rep.P),
    ]
    case = ""
    verified = ""
    if idx == 1 and (classify or index_filter == 1):
        cert = synthesize_contact(spec)
        case = cert.case
        if index_filter == 1:
            verified = "yes" if verify_certificate(cert) else "NO"
    if classify:
        row.append(case)
    if index_filter == 1:
        row.append(verified)
    return tuple(row)


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if not 1 <= n <= 12:
        print("seaweed: n must be between 1 and 12", file=sys.stderr)
        return 2
    tasks = []
    for top in compositions(n):
        for bottom in compositions(n):
            text = f"{'|'.join(map(str, top))} / {'|'.join(map(str, bottom))}"
            tasks.append((text, args.classify, args.index_filter))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_census_row, tasks, chunksize=64))
    else:
        rows = [_census_row(t) for t in tasks]
    if args.index_filter is not None:
        rows = [r for r in rows if r[3] == str(args.index_filter)]
    rows.sort()

    header = ["top", "bottom", "dim", "index", "cycles", "paths"]
    if args.classify:
        header.append("case")
    if args.index_filter == 1:
        header.append("verified")
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        widths = [
            max(len(header[c]), max((len(r[c]) for r in rows), default=0))
            for c in range(len(header))
        ]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip())
    if args.index_filter == 1:
        failures = sum(1 for r in rows if r[-1] != "yes")
        print(f"verification failures: {failures}", file=sys.stderr)
        if failures:
            return 1
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = _parse_spec(args.spec)
    L = materialize(spec)
    seed = _resolve_seed(args)
    idx = index_randomized(L, trials=args.trials, seed=seed)
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
    rng = random.Random(seed)
    k = (L.dim - 1) // 2
    worst = Fraction(0)
    squared_ok = True
    for _ in range(args.trials):
        phi = CoeffForm.from_values([rng.randint(-9, 9) for _ in range(L.dim)])
        d = bhat_det(L, phi)
        w = wedge_volume_coefficient(L, phi)
        worst = max(worst, abs(d - w))
        if Fraction(factorial(k)) ** 2 * d != w**2:
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
    p.add_argument("--seed", type=int, default=None, help="oracle seed")
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
    p.add_argument(
        "--k-max",
        type=int,
        default=DEFAULT_K_MAX,
        dest="k_max",
        help="bound for the center-weight search in the one-cycle case",
    )
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
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--csv", action="store_true", help="CSV instead of a table")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", help="randomized-rank index oracle")
    p.add_argument("spec")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=None)
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
