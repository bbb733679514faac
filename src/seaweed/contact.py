"""Synthesis of contact one-forms for index-one seaweeds, with receipts.

An index-one seaweed's meander is exactly two paths or exactly one cycle, and
each shape has its own construction. Two paths: perturb the regular form (one
dual unit per directed meander edge) by a partial-sum diagonal functional,
chosen so the distinguished diagonal element H is not annihilated. One cycle:
delete the outermost arc of an end block of size >= 4, which splits the
algebra into a Frobenius seaweed plus a Heisenberg subalgebra, then restore
the center direction with a weight k.

Every certificate is self-contained: spec, basis, dual matrix and determinant
are enough for an independent re-verification, so nothing here needs to be
trusted.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence

from .exact import RatMatrix, det, kernel_basis
from .liealg import (
    CoeffForm,
    LieAlgebra,
    ParityError,
    bhat_det,
    kirillov_matrix,
    wedge_volume_coefficient,
)
from .meander import build_meander, components, orient
from .meander import index as meander_index
from .standard_form import (
    BasisLabel,
    Composition,
    CustomDiagonal,
    DiagDiff,
    MatrixUnit,
    SeaweedSpec,
    admissible,
    dual_matrix_to_coeffs,
    label_from_json,
    label_to_json,
    materialize,
    seaweed_dim,
    standard_basis,
)

__all__ = [
    "DEFAULT_K_MAX",
    "OneForm",
    "ContactCertificate",
    "NotIndexOneError",
    "WrongCaseError",
    "SynthesisError",
    "TheoremViolationError",
    "regular_form_from_meander",
    "case1_contact",
    "case2_contact",
    "synthesize_contact",
    "verify_certificate",
    "frobenius_plus_contact_combine",
]

DEFAULT_K_MAX = 64


class NotIndexOneError(ValueError):
    """Synthesis was asked for a seaweed whose index is not one."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


class WrongCaseError(ValueError):
    """The meander shape does not match the requested construction case."""


class SynthesisError(RuntimeError):
    """A bounded search inside a construction came up empty.

    ``samples`` holds the (parameter, determinant) pairs that were tried.
    """

    def __init__(self, message: str, samples: Iterable[tuple] = ()) -> None:
        super().__init__(message)
        self.samples = tuple(samples)


class TheoremViolationError(SynthesisError):
    """A step the construction guarantees cannot fail did fail.

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
    Evaluation against a concrete basis goes through dual_matrix_to_coeffs.
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
            acc[key] = acc.get(key, Fraction(0)) + Fraction(c)
        ent = tuple(sorted((pos, c) for pos, c in acc.items() if c != 0))
        return cls(n, ent)

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.entries)

    def plus(self, other: "OneForm") -> "OneForm":
        if other.n != self.n:
            raise ValueError("size mismatch")
        return OneForm.from_terms(self.n, list(self.entries) + list(other.entries))

    def scale(self, c: Fraction | int) -> "OneForm":
        return OneForm.from_terms(self.n, [(pos, Fraction(c) * v) for pos, v in self.entries])

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

    ``case`` is "TwoPaths", "OneCycle" or "SL2"; ``k`` is the center weight
    for OneCycle and None otherwise; ``auxiliary`` records case-specific
    construction data (H and the diagonal index, or the removed edge and
    Heisenberg generators) purely for inspection.
    """

    spec: SeaweedSpec
    case: str
    basis: tuple[BasisLabel, ...]
    form: OneForm
    k: Fraction | None
    det_value: Fraction
    auxiliary: dict = field(default_factory=dict)

    def to_json(self) -> str:
        data = {
            "spec": self.spec.text(),
            "case": self.case,
            "basis": [label_to_json(b) for b in self.basis],
            "dual_matrix": {f"{i},{j}": str(c) for (i, j), c in self.form.entries},
            "k": None if self.k is None else str(self.k),
            "det": str(self.det_value),
            "auxiliary": self.auxiliary,
        }
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str | dict) -> "ContactCertificate":
        data = json.loads(text) if isinstance(text, str) else text
        spec = SeaweedSpec.parse(data["spec"])
        terms = []
        for key, val in data["dual_matrix"].items():
            i, j = (int(part) for part in key.split(","))
            terms.append(((i, j), Fraction(val)))
        k = data.get("k")
        return cls(
            spec=spec,
            case=data["case"],
            basis=tuple(label_from_json(b) for b in data["basis"]),
            form=OneForm.from_terms(spec.n, terms),
            k=None if k is None else Fraction(k),
            det_value=Fraction(data["det"]),
            auxiliary=data.get("auxiliary", {}),
        )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def regular_form_from_meander(spec: SeaweedSpec) -> OneForm:
    """One dual unit per directed meander edge: 1 at (i, j) for each v_i -> v_j."""
    dm = orient(build_meander(spec))
    return OneForm.from_terms(spec.n, [(e, Fraction(1)) for e in dm.edges()])


def _partial_diag_dual(n: int, i: int) -> OneForm:
    """Sum of the first i diagonal duals, the dual-matrix reading of h(i)*."""
    return OneForm.from_terms(n, [((k, k), Fraction(1)) for k in range(1, i + 1)])


def case1_contact(spec: SeaweedSpec) -> ContactCertificate:
    """Contact form for a two-path meander.

    H weights the first path's vertices by the second path's size and vice
    versa (negated), replacing h(1) in the basis. The regular form kills
    exactly the line through H, so adding a diagonal functional that sees H
    makes the bordered determinant (phi(H))^2 * det phi(C') nonzero. The
    diagonal index i must sit at an admissibility gap (not both (i,i+1) and
    (i+1,i) present, so the functional is not a coboundary there); among
    those we take the smallest i with phi(H) != 0 and nonzero determinant,
    which always exists in practice though only existence of a gap is
    guaranteed.
    """
    rep = components(build_meander(spec))
    if rep.C != 0 or rep.P != 2:
        raise WrongCaseError(
            f"{spec.text()}: {rep.C} cycles + {rep.P} paths, need exactly two paths"
        )
    if seaweed_dim(spec) % 2 == 0:
        raise ParityError(f"{spec.text()} has even dimension {seaweed_dim(spec)}")
    n = spec.n
    p1, p2 = rep.paths  # ordered by smallest vertex, so p1 contains vertex 1
    in_p1 = set(p1.vertices)
    hvals = [len(p2.vertices) if v in in_p1 else -len(p1.vertices) for v in range(1, n + 1)]
    H = CustomDiagonal("H", tuple(Fraction(x) for x in hvals))
    basis = tuple(
        H if isinstance(b, DiagDiff) and b.i == 1 else b for b in standard_basis(spec)
    )
    L = materialize(spec, basis)

    fbar = regular_form_from_meander(spec)
    fbar_coeffs = dual_matrix_to_coeffs(spec, basis, fbar.as_dict())
    ker = kernel_basis(kirillov_matrix(L, fbar_coeffs))
    if len(ker) != 1 or ker[0][0] == 0 or any(x != 0 for x in ker[0][1:]):
        raise TheoremViolationError(
            f"regular form of {spec.text()} does not kill exactly the H line"
        )

    samples = []
    for i in range(1, n):
        if admissible(spec, i, i + 1) and admissible(spec, i + 1, i):
            continue
        phi_H = sum(hvals[:i])
        if phi_H == 0:
            continue
        form = fbar.plus(_partial_diag_dual(n, i))
        coeffs = dual_matrix_to_coeffs(spec, basis, form.as_dict())
        dval = bhat_det(L, coeffs)
        if dval != 0:
            aux = {
                "H": [str(x) for x in hvals],
                "diag_index": i,
                "paths": [list(p1.vertices), list(p2.vertices)],
                "phi_H": str(phi_H),
                "det_c_prime": str(dval / phi_H**2),
            }
            return ContactCertificate(
                spec=spec,
                case="TwoPaths",
                basis=basis,
                form=form,
                k=None,
                det_value=dval,
                auxiliary=aux,
            )
        samples.append((i, dval))
    raise TheoremViolationError(
        f"no admissibility-gap index gives a nonzero determinant for {spec.text()}",
        samples=samples,
    )


def case2_contact(spec: SeaweedSpec, k_max: int = DEFAULT_K_MAX) -> ContactCertificate:
    """Contact form for a single-cycle meander.

    For n = 2 the seaweed is sl(2) up to center and e(1,2)* + e(2,1)* works
    outright. Otherwise some end part of the top or bottom composition has
    size >= 4; deleting its outermost arc turns the block 's' into 1|s-2|1
    and the resulting seaweed g' is Frobenius. The deleted directions span a
    Heisenberg subalgebra whose center unit is the deleted arc's own matrix
    position; the form is g''s regular form plus k times that center dual,
    for the smallest k in 1..k_max that makes the bordered determinant
    nonzero (k = 1 in every case seen).
    """
    rep = components(build_meander(spec))
    if rep.C != 1 or rep.P != 0:
        raise WrongCaseError(
            f"{spec.text()}: {rep.C} cycles + {rep.P} paths, need exactly one cycle"
        )
    n = spec.n
    basis = tuple(standard_basis(spec))
    L = materialize(spec, basis)

    if n == 2:
        form = OneForm.from_terms(2, [((1, 2), Fraction(1)), ((2, 1), Fraction(1))])
        dval = bhat_det(L, dual_matrix_to_coeffs(spec, basis, form.as_dict()))
        if dval == 0:
            raise TheoremViolationError("e(1,2)* + e(2,1)* failed on 2 / 2")
        return ContactCertificate(
            spec=spec, case="SL2", basis=basis, form=form, k=None, det_value=dval
        )

    tparts, bparts = spec.top.parts, spec.bottom.parts
    order = [("top", 0), ("top", len(tparts) - 1), ("bottom", 0), ("bottom", len(bparts) - 1)]
    chosen = None
    for side, pi in order:
        parts = tparts if side == "top" else bparts
        if parts[pi] >= 4:
            chosen = (side, pi, parts)
            break
    if chosen is None:
        raise TheoremViolationError(
            f"single-cycle meander of {spec.text()} has no end part of size >= 4"
        )
    side, pi, parts = chosen
    s = parts[pi]
    p = 1 + sum(parts[:pi])
    q = p + s - 1
    new_parts = parts[:pi] + (1, s - 2, 1) + parts[pi + 1 :]
    if side == "top":
        gprime = SeaweedSpec(Composition(new_parts), spec.bottom)
        gens = [MatrixUnit(i, p) for i in range(p + 1, q + 1)]
        gens += [MatrixUnit(q, j) for j in range(p + 1, q)]
        center = MatrixUnit(q, p)
    else:
        gprime = SeaweedSpec(spec.top, Composition(new_parts))
        gens = [MatrixUnit(p, j) for j in range(p + 1, q + 1)]
        gens += [MatrixUnit(i, q) for i in range(p + 1, q)]
        center = MatrixUnit(p, q)
    if meander_index(gprime) != 0:
        raise TheoremViolationError(
            f"residual seaweed {gprime.text()} of {spec.text()} is not Frobenius"
        )

    fbar = regular_form_from_meander(gprime)
    samples = []
    for k in range(1, k_max + 1):
        form = fbar.plus(
            OneForm.from_terms(n, [((center.i, center.j), Fraction(k))])
        )
        dval = bhat_det(L, dual_matrix_to_coeffs(spec, basis, form.as_dict()))
        if dval != 0:
            aux = {
                "removed_edge": [p, q],
                "side": side,
                "g_prime": gprime.text(),
                "heisenberg": [[g.i, g.j] for g in gens],
                "center": [center.i, center.j],
            }
            return ContactCertificate(
                spec=spec,
                case="OneCycle",
                basis=basis,
                form=form,
                k=Fraction(k),
                det_value=dval,
                auxiliary=aux,
            )
        samples.append((k, dval))
    raise SynthesisError(
        f"no center weight in 1..{k_max} works for {spec.text()}", samples=samples
    )


def synthesize_contact(spec: SeaweedSpec, k_max: int = DEFAULT_K_MAX) -> ContactCertificate:
    """Dispatch on the meander shape; only index-one seaweeds are accepted."""
    rep = components(build_meander(spec))
    if rep.index != 1:
        raise NotIndexOneError(f"{spec.text()} has index {rep.index}, not 1", rep.index)
    if rep.P == 2:
        return case1_contact(spec)
    return case2_contact(spec, k_max)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_certificate(cert: ContactCertificate) -> bool:
    """Re-derive the determinant from the certificate's own data.

    Rebuilds the algebra from spec and basis, re-evaluates the form, and
    recomputes the bordered determinant; it must be nonzero and equal the
    stored value. TwoPaths certificates additionally must satisfy the
    factorization det = (phi(H))^2 * det phi(C') with C' the Kirillov matrix
    minus H's row and column. Small algebras (dim <= 11) are cross-checked
    against the exterior-algebra volume coefficient, which determines the
    determinant up to the square relation (k!)^2 det = wedge^2. Any mismatch
    or malformed field returns False rather than raising.
    """
    try:
        spec = cert.spec
        L = materialize(spec, cert.basis)
        coeffs = dual_matrix_to_coeffs(spec, cert.basis, cert.form.as_dict())
        dval = bhat_det(L, coeffs)
        if dval == 0 or dval != cert.det_value:
            return False
        if cert.case == "TwoPaths":
            hpos = [i for i, b in enumerate(cert.basis) if isinstance(b, CustomDiagonal)]
            if len(hpos) != 1:
                return False
            h = hpos[0]
            phi_H = coeffs.coefficients[h]
            B = kirillov_matrix(L, coeffs)
            keep = [r for r in range(L.dim) if r != h]
            sub = RatMatrix.from_rows([[B.at(r, c) for c in keep] for r in keep])
            if phi_H**2 * det(sub) != dval:
                return False
        if L.dim <= 11:
            kk = (L.dim - 1) // 2
            wedge = wedge_volume_coefficient(L, coeffs)
            if Fraction(factorial(kk)) ** 2 * dval != wedge**2:
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
        for (i, j, vec) in L.pairs():
            if i in part and j in part and any(k not in part for k, _ in vec):
                raise ValueError(f"{which} part is not closed under the bracket")

    out = []
    for kv in k_samples:
        kf = Fraction(kv)
        out.append((kf, bhat_det(L, phi1.plus(phi2.scale(kf))) != 0))
    return out
