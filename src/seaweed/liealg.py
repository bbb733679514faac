"""Finite-dimensional Lie algebras over Q by structure constants.

Hosts the Kirillov form B_phi(x, y) = phi([x, y]), the randomized index oracle,
the det[Bhat_phi] contact test, and an independent exterior-algebra oracle that
expands phi ^ (dphi)^k literally. Algebras are immutable once built; all
randomized operations take explicit seeds and are reproducible.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterator, Sequence

from . import _kernels
from .exact import RatMatrix, _clear_denominators, det as _det  # noqa: F401 (perfbench reads _det)

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 25
SAMPLE_BOUND = 10**6
WEDGE_DIM_CAP = 15

# Fixed prime for the certified modular shortcut in the index oracle.
# rank mod p never exceeds the rational rank, and kernel dimension never drops
# below dim mod 2 (skew rank is even), so when the two bounds meet the exact
# kernel dimension is known without bignum elimination. 2^24 - 3 is the
# largest prime p with (p-1) + 2^16 (p-1)^2 < 2^64, so the packed mod-p rank
# holds each entry in one 64-bit slot up to 2^16 columns. A d x d list at
# d = 2^16 holds 2^32 entries, 32 GiB of pointers, so no buildable B_phi is
# larger.
_PRIME = 16777213


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class ParityError(ValueError):
    """An operation that only makes sense in odd dimension got an even one."""


@dataclass(frozen=True)
class CoeffForm:
    """A one-form phi given by its coordinates in the dual basis E_1*..E_d*."""

    coefficients: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: Sequence[Fraction | int]) -> "CoeffForm":
        return cls(tuple(Fraction(v) for v in values))

    @classmethod
    def zero(cls, dim: int) -> "CoeffForm":
        return cls((Fraction(0),) * dim)

    def __len__(self) -> int:
        return len(self.coefficients)

    def scale(self, c: Fraction | int) -> "CoeffForm":
        c = Fraction(c)
        return CoeffForm(tuple(c * x for x in self.coefficients))

    def plus(self, other: "CoeffForm") -> "CoeffForm":
        if len(other) != len(self):
            raise ValueError("length mismatch")
        return CoeffForm(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def to_json(self) -> dict:
        return {"coefficients": [str(x) for x in self.coefficients]}

    @classmethod
    def from_json(cls, data: dict) -> "CoeffForm":
        return cls(tuple(Fraction(s) for s in data["coefficients"]))


SparseVec = tuple[tuple[int, Fraction], ...]
# the structure constants in integers, sparsely: (i, j) -> [(k, c), ...]
IntTable = dict[tuple[int, int], list[tuple[int, int]]]


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant presentation: table[(i, j)] with i < j holds the
    coefficient vector of [E_i, E_j], sparsely. Antisymmetry is implicit."""

    dim: int
    basis_labels: tuple[str, ...]
    table: tuple[tuple[int, int, SparseVec], ...]

    def __post_init__(self) -> None:
        if len(self.basis_labels) != self.dim:
            raise ValueError("label count != dim")
        pair_map: dict[tuple[int, int], SparseVec] = {}
        for i, j, vec in self.table:
            if not (0 <= i < j < self.dim):
                raise ValueError(f"bad table pair ({i}, {j})")
            if (i, j) in pair_map:
                raise ValueError(f"duplicate table pair ({i}, {j})")
            pair_map[(i, j)] = vec
        object.__setattr__(self, "_pairs", pair_map)
        object.__setattr__(self, "_int_cache", None)

    @classmethod
    def from_table(
        cls,
        dim: int,
        basis_labels: Sequence[str],
        brackets: dict[tuple[int, int], dict[int, Fraction | int]],
    ) -> "LieAlgebra":
        rows = []
        for (i, j), vec in sorted(brackets.items()):
            sv = tuple((k, Fraction(c)) for k, c in sorted(vec.items()) if c)
            if sv:
                rows.append((i, j, sv))
        return cls(dim, tuple(basis_labels), tuple(rows))

    def bracket_coeffs(self, i: int, j: int) -> SparseVec:
        """Sparse coefficient vector of [E_i, E_j] (any i, j; sign handled)."""
        if i == j:
            return ()
        if i < j:
            return self._pairs.get((i, j), ())  # type: ignore[attr-defined]
        vec = self._pairs.get((j, i), ())  # type: ignore[attr-defined]
        return tuple((k, -c) for k, c in vec)

    def pairs(self) -> Iterator[tuple[int, int, SparseVec]]:
        yield from self.table

    def _integer_table(self) -> tuple[int, IntTable]:
        """Structure constants with denominators cleared by one global factor."""
        cached = self._int_cache  # type: ignore[attr-defined]
        if cached is not None:
            return cached
        ints, den = _clear_denominators(c for _, _, vec in self.table for _, c in vec)
        it = iter(ints)
        table = {(i, j): [(k, next(it)) for k, _ in vec] for i, j, vec in self.table}
        object.__setattr__(self, "_int_cache", (den, table))
        return den, table

    def scaled_form(self, phi: CoeffForm) -> tuple[list[int], list[list[int]], int]:
        """(s * phi, s * B_phi, s) in integers, where s is the table's global
        denominator times the lcm of phi's denominators."""
        if len(phi) != self.dim:
            raise ValueError("form length != dim")
        phi_ints, phi_den = _clear_denominators(phi.coefficients)
        den, _ = self._integer_table()
        return [den * v for v in phi_ints], _kirillov_int_rows(self, phi_ints), den * phi_den

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": list(self.basis_labels),
            "structure": [
                [i, j, [[k, str(c)] for k, c in vec]] for i, j, vec in self.table
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "LieAlgebra":
        table = tuple(
            (i, j, tuple((k, Fraction(s)) for k, s in vec))
            for i, j, vec in data["structure"]
        )
        return cls(data["dim"], tuple(data["labels"]), table)


@dataclass(frozen=True)
class ContactWitness:
    form: CoeffForm


@dataclass(frozen=True)
class ProbablyNotContact:
    trials: int


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def bracket(
    L: LieAlgebra, x: Sequence[Fraction | int], y: Sequence[Fraction | int]
) -> list[Fraction]:
    """[x, y] for coefficient vectors x, y, by bilinear extension."""
    if len(x) != L.dim or len(y) != L.dim:
        raise ValueError("vector length != dim")
    out = [Fraction(0)] * L.dim
    xs = [(i, Fraction(v)) for i, v in enumerate(x) if v]
    ys = [(j, Fraction(v)) for j, v in enumerate(y) if v]
    for i, xv in xs:
        for j, yv in ys:
            if i == j:
                continue
            f = xv * yv
            for k, c in L.bracket_coeffs(i, j):
                out[k] += f * c
    return out


def jacobi_check(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples (i < j < k) violating the Jacobi identity.

    Empty result means the table is a genuine Lie algebra. The sum
    [[Ei,Ej],Ek] + [[Ej,Ek],Ei] + [[Ek,Ei],Ej] is accumulated sparsely.
    """
    bad: list[tuple[int, int, int]] = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            cij = L.bracket_coeffs(i, j)
            for k in range(j + 1, L.dim):
                acc: dict[int, Fraction] = {}
                for trip in (
                    (cij, k),
                    (L.bracket_coeffs(j, k), i),
                    (L.bracket_coeffs(k, i), j),
                ):
                    vec, other = trip
                    for m, c in vec:
                        for t, c2 in L.bracket_coeffs(m, other):
                            acc[t] = acc.get(t, Fraction(0)) + c * c2
                if any(v != 0 for v in acc.values()):
                    bad.append((i, j, k))
    return bad


def kirillov_matrix(L: LieAlgebra, phi: CoeffForm) -> RatMatrix:
    """The skew matrix [B_phi] with (i, j) entry phi([E_i, E_j]), read off
    the integer evaluation bhat_det uses with its scale divided back out."""
    _, rows, s = L.scaled_form(phi)
    return RatMatrix.from_rows([Fraction(v, s) for v in row] for row in rows)


def _kirillov_int_rows(
    L: LieAlgebra, phi_ints: Sequence[int], table: IntTable | None = None
) -> list[list[int]]:
    """Rows of den * B_phi for integer phi, den the table's denominator: the
    one place phi([E_i, E_j]) is evaluated. The scale leaves the rank alone.
    ``table`` defaults to L's integer table; the index oracle passes it
    relabelled by an elimination order."""
    if table is None:
        _, table = L._integer_table()
    d = L.dim
    rows = [[0] * d for _ in range(d)]
    for (i, j), vec in table.items():
        v = 0
        for k, c in vec:
            v += c * phi_ints[k]
        if v:
            rows[i][j] = v
            rows[j][i] = -v
    return rows


def index_randomized(
    L: LieAlgebra, trials: int = DEFAULT_TRIALS, seed: int | None = None
) -> int:
    """min over sampled phi of dim ker(B_phi).

    Coefficients are uniform integers in [-10^6, 10^6]. Regular forms are
    dense, so this equals the true index except with negligible probability;
    it is always an upper bound. Per trial, the kernel dimension is computed
    exactly: a mod-p rank that meets the parity floor pins it without bignum
    work, otherwise the exact rank runs. Both eliminate the skew B_phi with
    2 x 2 pivots (``seaweed._kernels.pure``): the exact rank fraction-free on
    lists, its entries Pfaffian minors; the mod-p rank on rows packed one
    per integer, each row update one multiply-add, reducing only the two
    pivot rows of a step.
    The prime ``_PRIME`` = 2^24 - 3 is the largest that keeps every packed
    slot one 64-bit word for matrices up to 2^16 columns, past any B_phi
    that fits in memory as a dense list. It decides only which trials settle
    mod p; every other trial runs the exact rank, so the answer does not
    depend on it.
    The first trial that misses the floor mod p builds a fill-reducing
    elimination order from the structure table's pattern
    (``_kernels.skew_order``) and rebuilds its rows in that order; every
    later trial draws its rows in the order, so both kernels run on it. A
    trial that settles first never pays for the order. Moving index i to
    row and column pos[i] gives P B_phi P^T for a permutation matrix P, a
    congruence, which keeps each trial's rank over Q and mod p, and with
    them every settle-or-fallback decision and the answer.
    Once any trial hits the floor no later trial can lower the min, so the
    loop returns early with the same value a full run would produce.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    d = L.dim
    if d == 0:
        return 0
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    floor = d % 2
    best: int | None = None
    ordered = None
    for _ in range(trials):
        phi = [rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND) for _ in range(d)]
        rows = _kirillov_int_rows(L, phi, ordered)
        kd = d - _kernels.rank_mod(rows, _PRIME)
        if kd != floor:
            if ordered is None:
                # index i moves to row and column pos[i]
                _, table = L._integer_table()
                pos = _kernels.skew_order(d, table)
                ordered = {(pos[i], pos[j]): vec for (i, j), vec in table.items()}
                rows = _kirillov_int_rows(L, phi, ordered)
            kd = d - _kernels.rank_int(rows)
        if best is None or kd < best:
            best = kd
        if best == floor:
            break
    assert best is not None
    return best


def bhat_det(L, phi) -> Fraction:
    """det of the bordered matrix [[0, phi^T], [-phi, B_phi]].

    Defined for odd-dimensional algebras (the matrix is even-sized skew, so
    the determinant is a perfect square and vanishes exactly when phi fails
    to be a contact form). It is assembled once, in integers, as s times
    the bordered matrix, whose determinant is s^(d+1) times the answer.
    That integer matrix is skew too, so ``_kernels.det_int`` returns its
    determinant as Pf^2, the Pfaffian from a sparse elimination that peels
    rows with one nonzero and otherwise takes fraction-free 2 x 2 steps.
    Only input that is not skew, such as the minor of custom diagonals'
    h-coordinates that ``check_basis`` takes, runs the kernels' one dense
    Bareiss loop.

    Either presentation of an algebra works: a ``LieAlgebra`` with phi as a
    ``CoeffForm`` (its structure table contracted with phi), or a checked
    seaweed basis (``standard_form.check_basis``) with phi as a dual matrix
    {(i, j): W_ij} (B_phi by trace pairing, with no table). Each has ``dim``
    and ``scaled_form(phi)``, the integer evaluation (s*phi, s*B_phi, s).
    This is the one bordered-determinant entry of both contact searches.
    """
    if L.dim % 2 == 0:
        raise ParityError(f"bhat_det needs odd dimension, got {L.dim}")
    return _bordered_det(*L.scaled_form(phi))


def _bordered_det(sphi: Sequence[int], sB: Sequence[Sequence[int]], s: int) -> Fraction:
    """bhat_det from a one-form's integer evaluation (s*phi, s*B_phi, s)."""
    d = len(sphi)
    rows = [[0, *sphi]]
    for i in range(d):
        rows.append([-sphi[i], *sB[i]])
    return Fraction(_kernels.det_int(rows), s ** (d + 1))


def wedge_volume_coefficient(L: LieAlgebra, phi: CoeffForm) -> Fraction:
    """Coefficient of E_1*^...^E_d* in phi ^ (dphi)^k, d = 2k+1.

    Direct exterior-algebra expansion over bitmask multivectors, with the sign
    convention dphi(E_i, E_j) = -phi([E_i, E_j]). Multilinearity lets the whole
    computation run on integers: it reads s * phi and s * B_phi, the same
    integer evaluation bhat_det uses, and divides s^(k+1) back out at the end
    (``_wedge_coefficient``). The result is (-1)^k k! Pf(Bhat_phi), hence
    (k!)^2 bhat_det(L, phi) = wedge^2 (see squared_identity_holds).
    """
    return _wedge_coefficient(*L.scaled_form(phi))


def _wedge_coefficient(sphi: Sequence[int], sB: Sequence[Sequence[int]], scale: int) -> Fraction:
    """wedge_volume_coefficient from a one-form's integer evaluation
    (s*phi, s*B_phi, s), whichever presentation produced it."""
    d = len(sphi)
    if d % 2 == 0:
        raise ParityError(f"wedge oracle needs odd dimension, got {d}")
    if d > WEDGE_DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the exterior-algebra cap {WEDGE_DIM_CAP}")
    k = (d - 1) // 2

    two: dict[int, int] = {}
    for i in range(d):
        for j in range(i + 1, d):
            if sB[i][j]:
                two[(1 << i) | (1 << j)] = -sB[i][j]

    cur: dict[int, int] = {0: 1}
    for _ in range(k):
        nxt: dict[int, int] = {}
        for m1, c1 in cur.items():
            for m2, c2 in two.items():
                if m1 & m2:
                    continue
                # sign of merging the two ascending index sets: count the
                # inversions (x in m1, y in m2) with x > y
                s = 0
                mm = m2
                while mm:
                    low = mm & -mm
                    s += (m1 >> low.bit_length()).bit_count()
                    mm ^= low
                key = m1 | m2
                val = -c1 * c2 if s & 1 else c1 * c2
                nxt[key] = nxt.get(key, 0) + val
        cur = {m: v for m, v in nxt.items() if v}

    full = (1 << d) - 1
    total = 0
    for i in range(d):
        if not sphi[i]:
            continue
        rest = full ^ (1 << i)
        c = cur.get(rest)
        if not c:
            continue
        below = (rest & ((1 << i) - 1)).bit_count()
        total += -sphi[i] * c if below & 1 else sphi[i] * c
    return Fraction(total, scale ** (k + 1))


def squared_identity_holds(dim: int, det: Fraction, wedge: Fraction) -> bool:
    """(k!)^2 det == wedge^2, dim = 2k + 1: how bhat_det and the wedge at one
    phi must agree, as det = Pf(Bhat_phi)^2 and wedge = (-1)^k k! Pf(Bhat_phi).
    Degrees match (2k+2 in phi on both sides), and det, wedge vanish together.
    """
    k = (dim - 1) // 2
    return factorial(k) ** 2 * det == wedge**2


def contact_search_randomized(
    L: LieAlgebra,
    trials: int,
    seed: int | None = None,
    bound: int = SAMPLE_BOUND,
) -> ContactWitness | ProbablyNotContact:
    """Hunt for a contact form by sampling integer one-forms.

    det[Bhat_phi] is a polynomial in the coefficients of phi; if it is not
    identically zero a random point misses its zero set with high probability,
    so a witness normally appears on the first trial. The negative verdict is
    explicitly probabilistic.
    """
    if L.dim % 2 == 0:
        raise ParityError(f"contact search needs odd dimension, got {L.dim}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    for _ in range(trials):
        form = CoeffForm.from_values([rng.randint(-bound, bound) for _ in range(L.dim)])
        if bhat_det(L, form) != 0:
            return ContactWitness(form)
    return ProbablyNotContact(trials)
