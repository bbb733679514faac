"""Synthesis of contact one-forms for index-one seaweeds, with receipts.

An index-one seaweed's meander is exactly two paths or exactly one cycle, and
each shape has its own construction. Two paths: perturb the regular form (one
dual unit per directed meander edge) by a partial-sum diagonal functional,
chosen so the distinguished diagonal element H is not annihilated. One cycle:
the regular form itself. Its proof deletes the outermost arc of an end block
of size >= 4, which splits the algebra into a Frobenius seaweed plus a
Heisenberg subalgebra; that arc's edge is the Heisenberg center, so the form
is the Frobenius part's regular form plus the center's dual with weight
k = 1. Neither construction searches: each computes one bordered
determinant, which its proof shows is nonzero (see ``case1_contact`` and
``case2_contact``).

Every certificate is self-contained: spec, basis, dual matrix and determinant
are enough for an independent re-verification, so nothing here needs to be
trusted. This is the one module that knows the certificate's format: its
JSON, labels and fractions included, and its size limits.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from . import _kernels
from .liealg import (
    CoeffForm,
    LieAlgebra,
    _bordered_det,
    _wedge_coefficient,
    bhat_det,
    squared_identity_holds,
)
from .meander import Meander, build_meander, components, counts, index_from_counts, orient
from .standard_form import (
    BasisLabel,
    Composition,
    CustomDiagonal,
    DiagDiff,
    MatrixUnit,
    SeaweedSpec,
    check_basis,
    seaweed_dim,
    standard_basis,
)

__all__ = [
    "MAX_VERIFY_DIM",
    "MAX_FORM_ENTRIES_PER_VERTEX",
    "OneForm",
    "ContactCertificate",
    "NotIndexOneError",
    "WrongCaseError",
    "TheoremViolationError",
    "regular_form_from_meander",
    "case1_contact",
    "case2_contact",
    "synthesize_contact",
    "verify_certificate",
    "frobenius_plus_contact_combine",
    "label_to_json",
    "label_from_json",
    "fraction_from_json",
]

# Largest seaweed dimension, and so basis length, a certificate may have.
# ContactCertificate.from_json checks both before it parses any label, and
# verify_certificate before it builds any basis or matrix. The library's own
# certificates stay far below it: enumerate's n <= 12 means dim <= 143, and
# the largest spec the tests and benchmarks verify, 2|18 / 20, has dim 363.
MAX_VERIFY_DIM = 1024

# Most dual-matrix entries a certificate may have, per vertex of the spec: a
# form may have at most MAX_FORM_ENTRIES_PER_VERTEX * n entries. The
# dimension bound alone does not bound the time, since a dense dual matrix
# makes B_phi dense. The library's own forms have at most 2n - 1 entries, one
# per meander edge plus at most n - 1 diagonal duals (1.5n at most for
# n <= 8). from_json checks it before it parses any entry.
MAX_FORM_ENTRIES_PER_VERTEX = 2


class NotIndexOneError(ValueError):
    """Synthesis was asked for a seaweed whose index is not one."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


class WrongCaseError(ValueError):
    """The meander shape does not match the requested construction case."""


class TheoremViolationError(RuntimeError):
    """A step the construction guarantees cannot fail did fail. The
    constructions search nothing, so this is the one way they fail.

    Raising this means a bug somewhere, not bad input: the construction
    proves the relevant determinant or kernel condition always holds.
    """


# ---------------------------------------------------------------------------
# one-forms as dual matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneForm:
    """phi(M) = sum W_ij M_ij for a sparse rational matrix W.

    Entries are ((i, j), coefficient) pairs, 1-based, sorted, zero-free.
    A checked seaweed basis evaluates it by trace pairing
    (``SeaweedBasis.scaled_form``); dual_matrix_to_coeffs gives its
    coordinates against a basis for a ``LieAlgebra``.
    """

    n: int
    entries: tuple[tuple[tuple[int, int], Fraction], ...]

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for (i, j), c in self.entries:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"entry ({i},{j}) outside 1..{self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate entry ({i},{j})")
            if c == 0:
                raise ValueError(f"explicit zero entry at ({i},{j})")
            seen.add((i, j))

    @classmethod
    def from_terms(
        cls,
        n: int,
        terms: Mapping[tuple[int, int], Fraction] | Iterable,
    ) -> "OneForm":
        """Build from a mapping or ((i, j), c) iterable; duplicates add up."""
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in items:
            key = (int(i), int(j))
            value = Fraction(c)
            acc[key] = acc[key] + value if key in acc else value
        ent = tuple(sorted((pos, c) for pos, c in acc.items() if c != 0))
        return cls(n, ent)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.entries)

    def plus(self, other: "OneForm") -> "OneForm":
        if other.n != self.n:
            raise ValueError("size mismatch")
        return OneForm.from_terms(self.n, list(self.entries) + list(other.entries))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for (i, j), c in self.entries:
            unit = f"e({i},{j})*"
            if c == 1:
                parts.append(unit)
            elif c == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{c} {unit}")
        return " + ".join(parts)


@dataclass(frozen=True)
class ContactCertificate:
    """Everything needed to re-check that ``form`` is contact on ``spec``.

    ``case`` is "TwoPaths", "OneCycle" or "SL2"; ``auxiliary`` records
    case-specific construction data (H and the diagonal index, or the removed
    edge and Heisenberg generators) purely for inspection.
    """

    spec: SeaweedSpec
    case: str
    basis: tuple[BasisLabel, ...]
    form: OneForm
    det_value: Fraction
    auxiliary: dict = field(default_factory=dict)

    @property
    def k(self) -> Fraction | None:
        """The center weight: 1 for OneCycle, the one weight ``case2_contact``
        needs, and None for the cases without a center."""
        return Fraction(1) if self.case == "OneCycle" else None

    def to_json(self) -> str:
        """The certificate as indented JSON, byte for byte what
        ``json.dumps(data, indent=2)`` writes for the object with the fields
        below. The layout is fixed, so it is written directly; a unit's or
        h(i)'s text comes from ``_label_text``'s bounded cache."""
        basis = ",\n    ".join(map(_label_text, self.basis))
        duals = ",\n    ".join(f'"{i},{j}": "{c}"' for (i, j), c in self.form.entries)
        k = "null" if self.k is None else f'"{self.k}"'
        auxiliary = json.dumps(self.auxiliary, indent=2).replace("\n", "\n  ")
        return (
            "{\n"
            f'  "spec": {json.dumps(self.spec.text())},\n'
            f'  "case": {json.dumps(self.case)},\n'
            f'  "basis": {_json_items("[", basis, "]")},\n'
            f'  "dual_matrix": {_json_items("{", duals, "}")},\n'
            f'  "k": {k},\n'
            f'  "det": "{self.det_value}",\n'
            f'  "auxiliary": {auxiliary}\n'
            "}"
        )

    @classmethod
    def from_json(cls, text: str) -> "ContactCertificate":
        """Read what ``to_json`` writes, so a certificate that reads writes
        back its own bytes. It raises ValueError on anything else: JSON too
        deep to read, a missing field, a key repeated in any object, a field
        of another JSON type, a case, key, fraction or zero entry that
        ``to_json`` never writes, a k other than the case's ("1" for
        OneCycle, null otherwise), and, before any label or entry is parsed,
        an over-limit certificate (``_over_limit_reasons`` of the raw
        counts)."""
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("the JSON nests too deeply to read") from None
        _check_json_type("certificate", data, dict)
        spec = SeaweedSpec.parse(_json_field(data, "spec", str))
        labels = _json_field(data, "basis", list)
        duals = _json_field(data, "dual_matrix", dict)
        if reasons := "; ".join(_over_limit_reasons(spec, len(labels), len(duals))):
            raise ValueError(reasons)
        case = _json_field(data, "case", str)
        if case not in ("TwoPaths", "OneCycle", "SL2"):
            raise ValueError(f"field 'case' must be TwoPaths, OneCycle or SL2, not {case!r}")
        terms = []
        for key, val in duals.items():
            what = f"dual_matrix entry {key!r}"
            _check_json_type(what, val, str)
            ij = _DUAL_MATRIX_KEY.fullmatch(key)
            if ij is None:
                raise ValueError(f"dual_matrix key {key!r} must be two decimal ints 'i,j'")
            terms.append(((int(ij[1]), int(ij[2])), fraction_from_json(val, what)))
        k = _json_field(data, "k")
        want = "1" if case == "OneCycle" else None
        if k != want:
            raise ValueError(
                f"field 'k' must be {json.dumps(want)} for a {case} certificate, "
                f"not {json.dumps(k)}"
            )
        return cls(
            spec=spec,
            case=case,
            basis=tuple(map(label_from_json, labels)),
            # one spelling per position, so the keys are distinct; OneForm
            # refuses a zero or out-of-range entry
            form=OneForm(spec.n, tuple(sorted(terms))),
            det_value=fraction_from_json(_json_field(data, "det", str), "field 'det'"),
            auxiliary=_json_field(data, "auxiliary", dict),
        )


def _json_items(open_: str, items: str, close: str) -> str:
    """A JSON array or object at depth 1 of ``to_json``'s indent-2 layout,
    from its items already joined at depth 2."""
    return f"{open_}\n    {items}\n  {close}" if items else open_ + close


@lru_cache(maxsize=4096, typed=True)
def _simple_label_text(kind: type, *fields: int) -> str:
    """``_label_text`` of the unit or h(i) ``kind(*fields)``."""
    return json.dumps(label_to_json(kind(*fields)), indent=2).replace("\n", "\n    ")


def _label_text(label: BasisLabel) -> str:
    """A basis label's JSON text at depth 2 of ``to_json``'s layout. Units and
    h(i) come from a cache bounded at 4,096 labels, which holds every one
    with indices up to 64. It is keyed on the label's ints and their exact
    types, so a bool, which equals an int but is written true or false, gets
    its own text. A custom diagonal is written each time."""
    kind = type(label)
    if kind is MatrixUnit:
        return _simple_label_text(kind, label.i, label.j)
    if kind is DiagDiff:
        return _simple_label_text(kind, label.i)
    return json.dumps(label_to_json(label), indent=2).replace("\n", "\n    ")


# a dual-matrix key as ``to_json`` writes it: two positive ASCII decimal ints
# with no leading zeros, so each position has one spelling
_DUAL_MATRIX_KEY = re.compile(r"([1-9][0-9]*),([1-9][0-9]*)")

_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string"}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, refusing a repeated key, whose last
    value ``json.loads`` would keep."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return data


def _check_json_type(what: str, value: object, kind: type) -> None:
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_JSON_TYPE_NAMES[kind]}, not {type(value).__name__}")


def _json_field(data: dict, key: str, kind: type = object):
    """data[key], which must be present and a JSON value of the given kind."""
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]
    _check_json_type(f"field {key!r}", value, kind)
    return value


def label_to_json(label: BasisLabel) -> dict:
    if isinstance(label, MatrixUnit):
        return {"unit": [label.i, label.j]}
    if isinstance(label, DiagDiff):
        return {"diagdiff": label.i}
    return {"diag": {"name": label.name, "entries": [str(x) for x in label.entries]}}


def label_from_json(data: dict) -> BasisLabel:
    """The label of ``label_to_json``'s object. An object without exactly one
    key, or a field of another JSON type, raises ``ValueError``; the int
    checks are on the exact type, so a bool is no int, and a custom
    diagonal's entries must be fractions as ``str(Fraction)`` writes them."""
    if not isinstance(data, dict):
        raise ValueError(f"a basis label must be a JSON object, not {type(data).__name__}")
    if len(data) != 1:
        raise ValueError(f"a basis label must hold exactly one key, not {data!r}")
    if "unit" in data:
        unit = data["unit"]
        if not (type(unit) is list and list(map(type, unit)) == [int, int]):
            raise ValueError(f"a unit label must be a list of two ints, not {unit!r}")
        return MatrixUnit(*unit)
    if "diagdiff" in data:
        i = data["diagdiff"]
        if type(i) is not int:
            raise ValueError(f"a diagdiff label must be an int, not {i!r}")
        return DiagDiff(i)
    if "diag" in data:
        diag = data["diag"] if isinstance(data["diag"], dict) else {}
        name, entries = diag.get("name"), diag.get("entries")
        if not (
            isinstance(name, str)
            and isinstance(entries, list)
            and all(isinstance(x, str) for x in entries)
        ):
            raise ValueError(
                "a diag label must hold a string name and a list of string entries, "
                f"not {data['diag']!r}"
            )
        what = f"an entry of diag label {name!r}"
        return CustomDiagonal(name, tuple(fraction_from_json(x, what) for x in entries))
    raise ValueError(f"unrecognized basis label {data!r}")


# a fraction as str(Fraction) writes it: a decimal int, or p/q in lowest
# terms with q >= 2; ASCII digits, no leading zeros, no sign on 0
_FRACTION = re.compile(r"(0|-?[1-9][0-9]*)(?:/([2-9]|[1-9][0-9]+))?")


def fraction_from_json(text: str, what: str) -> Fraction:
    """The Fraction whose ``str`` is ``text``. Any other spelling of a
    number, such as "1.0", "2/4", "-0" or "1/0", raises ``ValueError``
    naming ``what``, so a certificate that reads also re-serializes to its
    own bytes. The regex also guards the input: ``Fraction("1e10000000")``
    spends seconds building 10^(10^7) before a check that ``str`` gives
    ``text`` back could refuse it; the regex refuses it in microseconds."""
    m = _FRACTION.fullmatch(text)
    if m is not None:
        if m[2] is None:
            return Fraction(int(m[1]))
        value = Fraction(int(m[1]), int(m[2]))
        if value.denominator == int(m[2]):  # lowest terms, which refuses 0/q too
            return value
    raise ValueError(
        f"{what} must be a fraction as str(Fraction) writes it, such as '-3/4', not {text!r}"
    )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def regular_form_from_meander(spec: SeaweedSpec) -> OneForm:
    """One dual unit per directed meander edge: 1 at (i, j) for each v_i -> v_j."""
    return _regular_form(build_meander(spec))


def _regular_form(m: Meander) -> OneForm:
    """``regular_form_from_meander`` of the spec whose meander is m."""
    return OneForm.from_terms(m.n, [(e, Fraction(1)) for e in orient(m).edges()])


def _drop(rows: list[list[int]], h: int) -> list[list[int]]:
    """The square matrix without its row and column h."""
    return [row[:h] + row[h + 1 :] for r, row in enumerate(rows) if r != h]


def case1_contact(spec: SeaweedSpec) -> ContactCertificate:
    """Contact form for a two-path meander.

    H weights the first path's vertices by the second path's size and vice
    versa (negated), replacing h(1) in the basis. The regular form kills
    exactly the line through H, so adding a diagonal functional that sees H
    makes the bordered determinant (phi(H))^2 * det phi(C') nonzero. The
    functional is the sum of the first i diagonal duals, for the first
    admissibility gap i (not both (i,i+1) and (i+1,i) admissible) with
    phi(H) = H_1 + ... + H_i != 0.

    No later gap can succeed where this one fails. At a gap, no pair e(a,b),
    e(b,a) of the seaweed straddles i (a <= i < b): if both were admissible,
    a and b would share a top block and a bottom block, so (i, i+1) and
    (i+1, i) would be admissible too. The functional pairs only with
    [e(a,b), e(b,a)] = e(a,a) - e(b,b) for such a pair, so it adds nothing
    to B_phi, which stays the regular form's. The kernel guard checks that
    H's row and column of that B_phi are zero, so det Bhat = phi(H)^2 det C',
    where C' is the guard's nonzero minor.
    """
    meander = build_meander(spec)
    rep = components(meander)
    if rep.C != 0 or rep.P != 2:
        raise WrongCaseError(
            f"{spec.text()}: {rep.C} cycles + {rep.P} paths, need exactly two paths"
        )
    # index 1, so the dimension is odd: dim - 1 is the rank of a skew form
    n = spec.n
    p1, p2 = rep.paths  # ordered by smallest vertex, so p1 contains vertex 1
    in_p1 = set(p1.vertices)
    hvals = [len(p2.vertices) if v in in_p1 else -len(p1.vertices) for v in range(1, n + 1)]
    H = CustomDiagonal("H", tuple(Fraction(x) for x in hvals))
    basis = tuple(
        H if isinstance(b, DiagDiff) and b.i == 1 else b for b in standard_basis(spec)
    )
    checked = check_basis(spec, basis)

    fbar = _regular_form(meander)
    # ker B_phi = span(H) iff H's column (hence row: B_phi is skew) is 0 and det C' != 0
    h = basis.index(H)
    _, sB, _ = checked.scaled_form(fbar.as_dict())
    if any(row[h] for row in sB) or _kernels.det_int(_drop(sB, h)) == 0:
        raise TheoremViolationError(
            f"regular form of {spec.text()} does not kill exactly the H line"
        )

    # the checked basis holds every admissible unit
    units = checked.units
    gaps = [i for i in range(1, n) if (i, i + 1) not in units or (i + 1, i) not in units]
    i = next((i for i in gaps if sum(hvals[:i])), None)
    if i is None:
        raise TheoremViolationError(f"{spec.text()} has no admissibility gap with phi(H) != 0")
    phi_H = sum(hvals[:i])
    form = fbar.plus(OneForm.from_terms(n, [((k, k), Fraction(1)) for k in range(1, i + 1)]))
    dval = bhat_det(checked, form.as_dict())
    if dval == 0:
        raise TheoremViolationError(f"the determinant at gap {i} of {spec.text()} is 0")
    aux = {
        "H": [str(x) for x in hvals],
        "diag_index": i,
        "paths": [list(p1.vertices), list(p2.vertices)],
        "phi_H": str(phi_H),
        "det_c_prime": str(dval / phi_H**2),
    }
    return ContactCertificate(
        spec=spec, case="TwoPaths", basis=basis, form=form, det_value=dval, auxiliary=aux
    )


def case2_contact(spec: SeaweedSpec) -> ContactCertificate:
    """Contact form for a single-cycle meander: the regular form of g itself.

    For n = 2 the seaweed is sl(2) up to center, and its regular form is
    e(1,2)* + e(2,1)*. Otherwise some end block p..q of the top or bottom
    composition has size >= 4; cutting it to 1|q-p-1|1 deletes its outermost
    arc and leaves a Frobenius seaweed g'. The deleted directions span a
    Heisenberg subalgebra whose center c is the cut arc's own directed edge:
    q -> p, the unit (q, p), for a top block and p -> q, (p, q), for a
    bottom block. g's meander is g''s plus that arc, so the regular form of
    g is phi' + c*, with phi' the regular form of g': the center weight is
    k = 1. g', the Heisenberg units and c are recorded in ``auxiliary``.

    The paper shows phi' + k c* is contact for some k, and then k = 1 is
    too. g' is Frobenius, so its meander is a single path, and there is a
    diagonal t with t_i / t_j = a on every directed edge i -> j of that
    path. The cut arc is outermost on its side, so a counterclockwise walk
    of g's cycle runs it forward. A forward arc turns the walk's tangent by
    +pi and a backward arc by -pi, and the total turn is 2 pi, so the rest
    of the cycle has one more forward arc than backward arcs. Therefore
    Ad(t) sends phi' + k c* to a (phi' + k a^-2 c*), and it acts on Bhat as
    a congruence. So f(k) = det Bhat(phi' + k c*) satisfies
    f(a^-2 k) = rho(a) f(k) for every a, which leaves f = c k^m: if f(1) = 0,
    then f is 0 for every k.
    """
    meander = build_meander(spec)
    C, P = counts(meander)
    if C != 1 or P != 0:
        raise WrongCaseError(f"{spec.text()}: {C} cycles + {P} paths, need exactly one cycle")
    checked = check_basis(spec)
    basis = checked.labels
    form = _regular_form(meander)
    dval = bhat_det(checked, form.as_dict())
    if dval == 0:
        raise TheoremViolationError(f"the determinant of the regular form of {spec.text()} is 0")
    if spec.n == 2:
        return ContactCertificate(spec=spec, case="SL2", basis=basis, form=form, det_value=dval)

    # the first end block of size >= 4: top first, then bottom, each side's
    # first block before its last
    ends = [
        (side, comp, b)
        for side, comp in (("top", spec.top), ("bottom", spec.bottom))
        for b in (0, len(comp.parts) - 1)
        if comp.parts[b] >= 4
    ]
    if not ends:
        raise TheoremViolationError(
            f"single-cycle meander of {spec.text()} has no end part of size >= 4"
        )
    side, comp, b = ends[0]
    p, q = comp.blocks()[b]
    cut = Composition(comp.parts[:b] + (1, q - p - 1, 1) + comp.parts[b + 1 :])
    gprime = SeaweedSpec(cut, spec.bottom) if side == "top" else SeaweedSpec(spec.top, cut)
    if index_from_counts(*counts(build_meander(gprime))) != 0:
        raise TheoremViolationError(
            f"residual seaweed {gprime.text()} of {spec.text()} is not Frobenius"
        )
    # the removed arc's Heisenberg generators, then its center, as units of
    # a top block; a bottom block holds their transposes
    heisenberg = [(i, p) for i in range(p + 1, q + 1)] + [(q, j) for j in range(p + 1, q)]
    heisenberg.append((q, p))
    if side == "bottom":
        heisenberg = [(j, i) for i, j in heisenberg]
    *gens, center = heisenberg
    aux = {
        "removed_edge": [p, q],
        "side": side,
        "g_prime": gprime.text(),
        "heisenberg": [list(g) for g in gens],
        "center": list(center),
    }
    return ContactCertificate(
        spec=spec, case="OneCycle", basis=basis, form=form, det_value=dval, auxiliary=aux
    )


def synthesize_contact(spec: SeaweedSpec) -> ContactCertificate:
    """Dispatch on the meander shape. Raises ``NotIndexOneError`` unless the
    index is one, and ``TheoremViolationError`` only on a bug (see the cases)."""
    C, P = counts(build_meander(spec))
    idx = index_from_counts(C, P)
    if idx != 1:
        raise NotIndexOneError(f"{spec.text()} has index {idx}, not 1", idx)
    if P == 2:
        return case1_contact(spec)
    return case2_contact(spec)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def _over_limit_reasons(spec: SeaweedSpec, labels: int, entries: int) -> Iterator[str]:
    """Why a certificate on ``spec`` with this many basis labels and
    dual-matrix entries is too large to verify, one text per limit it
    exceeds. The one place the limits are compared; it builds nothing."""
    dim = seaweed_dim(spec)
    if dim > MAX_VERIFY_DIM:
        yield f"{spec.text()} has dimension {dim}, above the verification limit {MAX_VERIFY_DIM}"
    if labels > MAX_VERIFY_DIM:
        yield f"the basis has {labels} labels, above the verification limit {MAX_VERIFY_DIM}"
    limit = MAX_FORM_ENTRIES_PER_VERTEX * spec.n
    if entries > limit:
        yield (
            f"the form has {entries} dual-matrix entries, "
            f"above the verification limit {limit} for n = {spec.n}"
        )


def verify_certificate(cert: ContactCertificate) -> bool:
    """Re-derive the determinant from the certificate's own data.

    A certificate over a size limit (``_over_limit_reasons``) is rejected
    before anything is built, and so is one whose case does not fit its
    meander: TwoPaths for two paths, for one cycle SL2 at n = 2 and OneCycle
    otherwise. Then the basis must pass ``check_basis``
    (a full basis of that seaweed), and the form, read as the dual matrix W,
    is evaluated by trace pairing: B_phi(X, Y) = sum W_ij [X, Y]_ij from the
    gl(n) bracket rules, with no structure table. The bordered determinant
    of that one evaluation must be nonzero and equal the stored value.
    TwoPaths certificates additionally must satisfy the factorization
    det = (phi(H))^2 * det phi(C') with C' the Kirillov matrix minus H's row
    and column. Small algebras (dim <= 11) are cross-checked against the
    exterior-algebra volume coefficient, which determines the determinant up
    to the square relation (k!)^2 det = wedge^2. Any mismatch or malformed
    field returns False rather than raising.
    """
    try:
        if any(_over_limit_reasons(cert.spec, len(cert.basis), len(cert.form.entries))):
            return False
        one_cycle = "SL2" if cert.spec.n == 2 else "OneCycle"
        if {(0, 2): "TwoPaths", (1, 0): one_cycle}.get(counts(build_meander(cert.spec))) != cert.case:
            return False
        checked = check_basis(cert.spec, cert.basis)
        # one evaluation serves the determinant, the TwoPaths minor and the
        # wedge; in an even dimension the bordered matrix is odd-sized skew,
        # so det is 0
        sphi, sB, s = checked.scaled_form(cert.form.as_dict())
        dval = _bordered_det(sphi, sB, s)
        if dval == 0 or dval != cert.det_value:
            return False
        if cert.case == "TwoPaths":
            hpos = [i for i, b in enumerate(cert.basis) if isinstance(b, CustomDiagonal)]
            if len(hpos) != 1:
                return False
            h = hpos[0]
            # (s phi(H))^2 det(s C') = s^(d+1) phi(H)^2 det C'
            minor = _kernels.det_int(_drop(sB, h))
            if Fraction(sphi[h] ** 2 * minor, s ** (checked.dim + 1)) != dval:
                return False
        if checked.dim <= 11:
            wedge = _wedge_coefficient(sphi, sB, s)
            if not squared_identity_holds(checked.dim, dval, wedge):
                return False
        return True
    except Exception:
        return False


# ---------------------------------------------------------------------------
# direct-sum behaviour
# ---------------------------------------------------------------------------

def frobenius_plus_contact_combine(
    L: LieAlgebra,
    part1: Iterable[int],
    phi1: CoeffForm,
    part2: Iterable[int],
    phi2: CoeffForm,
    k_samples: Sequence[Fraction | int],
) -> list[tuple[Fraction, bool]]:
    """Contact verdicts for phi1 + k*phi2 over an algebra split in two.

    part1 and part2 are disjoint basis-index sets covering all of L, each
    closed under the bracket (the cross brackets may land anywhere); phi1
    and phi2 must be supported on their own parts. Returns one (k, verdict)
    pair per sample, where the verdict is nonvanishing of the bordered
    determinant of phi1 + k*phi2 on L.
    """
    s1, s2 = frozenset(part1), frozenset(part2)
    if s1 & s2 or (s1 | s2) != set(range(L.dim)):
        raise ValueError("parts must partition the basis indices 0..dim-1")
    for phi, part, which in ((phi1, s1, "first"), (phi2, s2, "second")):
        if len(phi) != L.dim:
            raise ValueError(f"{which} form length != dim")
        support = {i for i, c in enumerate(phi.coefficients) if c != 0}
        if not support <= part:
            raise ValueError(f"{which} form has support outside its part")
    for part, which in ((s1, "first"), (s2, "second")):
        for (i, j), vec in L.table.items():
            if i in part and j in part and any(k not in part for k, _ in vec):
                raise ValueError(f"{which} part is not closed under the bracket")

    out = []
    for kv in k_samples:
        kf = Fraction(kv)
        out.append((kf, bhat_det(L, phi1.plus(phi2.scale(kf))) != 0))
    return out
