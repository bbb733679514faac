"""Type-A seaweed algebras in standard form.

A seaweed is cut out of sl(n) by two compositions of n: the top composition
owns the lower triangle (block-diagonal lower part), the bottom composition
owns the upper triangle. Each composition builds its per-vertex block table
and its checked meander arcs (an ``Arcs`` side with its partner list) once.
This module knows which matrix locations are admissible (``admissible`` is
the one place that rule is written), builds the standard basis (diagonal
differences first, then the admissible units in row-major order), checks
that a given basis is a full one (``check_basis``), evaluates one-forms
given as dual matrices on such a basis by trace pairing, and materializes the
result as a ``LieAlgebra`` with exact structure constants. It reads and
writes no JSON: the certificate's codec is in ``contact``.

Indices are 1-based throughout, matching the e_{i,j} notation in printed
output; positions into a basis list are plain 0-based Python indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence, Union

from . import _kernels
from .exact import RatMatrix, _clear_denominators, inverse
from .liealg import CoeffForm, LieAlgebra

__all__ = [
    "Arcs",
    "Composition",
    "SeaweedSpec",
    "MatrixUnit",
    "DiagDiff",
    "CustomDiagonal",
    "BasisLabel",
    "SpanError",
    "admissible",
    "standard_basis",
    "seaweed_dim",
    "SeaweedBasis",
    "check_basis",
    "materialize",
    "dual_matrix_to_coeffs",
    "label_str",
    "compositions",
    "spec_pairs",
]


class SpanError(ValueError):
    """A bracket left the span of the given basis, or the basis cannot span."""


# ---------------------------------------------------------------------------
# compositions and specs
# ---------------------------------------------------------------------------

class Arcs(tuple):
    """One side of a meander on vertices 1..n: a tuple of arcs (u, v),
    checked once when it is built.

    The 2 * len(arcs) endpoints must be distinct and in [1, n]: no u == v and
    no vertex on two arcs; a rejected side names its first bad edge.
    ``partners[v]`` is v's partner on this side for v in 0..n, 0 for none.
    An ``Arcs`` equals, hashes and prints as the plain tuple of its arcs. It
    cannot be changed, since a ``Meander`` keeps an ``Arcs`` for its n
    without checking it again.
    """

    n: int
    partners: tuple[int, ...]

    def __new__(cls, n: int, arcs: Iterable[tuple[int, int]]) -> "Arcs":
        self = super().__new__(cls, arcs)
        partners = [0] * (n + 1)
        for (u, v) in self:
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
            if partners[u] or partners[v]:
                raise ValueError(f"vertex reused on one side at ({u}, {v})")
            partners[u] = v
            partners[v] = u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "partners", tuple(partners))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r}: Arcs is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Arcs is immutable")

    def __reduce__(self) -> tuple:
        # tuple's default pickling would call Arcs.__new__ without n
        return Arcs, (self.n, tuple(self))


@dataclass(frozen=True)
class Composition:
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("empty composition")
        if not all(isinstance(p, int) and not isinstance(p, bool) for p in self.parts):
            raise ValueError(f"parts must be ints: {self.parts!r}")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    @cached_property
    def triangle(self) -> int:
        """sum p(p-1)/2 over the parts: the block-triangle units this side
        contributes to a seaweed's dimension."""
        return sum(p * (p - 1) // 2 for p in self.parts)

    def blocks(self) -> list[tuple[int, int]]:
        """Consecutive (first, last) vertex ranges, 1-based inclusive."""
        out = []
        start = 1
        for p in self.parts:
            out.append((start, start + p - 1))
            start += p
        return out

    @cached_property
    def arcs(self) -> Arcs:
        """The meander arcs of this side: each block pairs its outermost
        vertices and works inward, (first, last), (first+1, last-1), ..., so
        an odd block leaves its middle vertex bare. Built and checked at most
        once per object, as ``Arcs`` for ``self.n`` (eq, hash and repr still
        see only ``parts``)."""
        arcs = []
        for lo, hi in self.blocks():
            while lo < hi:
                arcs.append((lo, hi))
                lo += 1
                hi -= 1
        return Arcs(self.n, arcs)

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """The per-vertex block table: ``owner[v]`` is the index of the block
        holding vertex v for v in 1..n (``owner[0]`` is -1). Built at most
        once per object and, like ``arcs``, outside eq, hash and repr; only
        ``admissible`` compares its entries."""
        return (-1,) + tuple(b for b, p in enumerate(self.parts) for _ in range(p))

    def text(self) -> str:
        return "|".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        parts = []
        for piece in text.split("|"):
            piece = piece.strip()
            if not (piece.isascii() and piece.isdigit()):
                raise ValueError(f"bad composition part {piece!r} in {text!r}")
            parts.append(int(piece))
        return cls(tuple(parts))


@dataclass(frozen=True)
class SeaweedSpec:
    top: Composition
    bottom: Composition

    def __post_init__(self) -> None:
        if self.top.n != self.bottom.n:
            raise ValueError(
                f"compositions sum to {self.top.n} and {self.bottom.n}"
            )

    @property
    def n(self) -> int:
        return self.top.n

    def text(self) -> str:
        return f"{self.top.text()} / {self.bottom.text()}"

    @classmethod
    def parse(cls, text: str) -> "SeaweedSpec":
        """Parse "a1|a2|...|am / b1|...|bt" (whitespace anywhere is fine)."""
        halves = text.split("/")
        if len(halves) != 2:
            raise ValueError(f"expected one '/' in {text!r}")
        return cls(Composition.parse(halves[0]), Composition.parse(halves[1]))

    def swapped(self) -> "SeaweedSpec":
        return SeaweedSpec(self.bottom, self.top)


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) ordered compositions of n, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def spec_pairs(n: int) -> Iterator[SeaweedSpec]:
    """All 4^(n-1) seaweed specs of size n, in deterministic order. The specs
    share one Composition per composition, so its cached arcs serve them all."""
    tops = [Composition(t) for t in compositions(n)]
    for t in tops:
        for b in tops:
            yield SeaweedSpec(t, b)


# ---------------------------------------------------------------------------
# basis labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixUnit:
    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("matrix unit must be off-diagonal")


@dataclass(frozen=True)
class DiagDiff:
    """e_{i,i} - e_{i+1,i+1}."""

    i: int


@dataclass(frozen=True)
class CustomDiagonal:
    name: str
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if sum(self.entries, Fraction(0)) != 0:
            raise ValueError(f"custom diagonal {self.name!r} has nonzero trace")


BasisLabel = Union[MatrixUnit, DiagDiff, CustomDiagonal]


def label_str(label: BasisLabel) -> str:
    if isinstance(label, MatrixUnit):
        return f"e({label.i},{label.j})"
    if isinstance(label, DiagDiff):
        return f"h({label.i})"
    return label.name


# ---------------------------------------------------------------------------
# admissibility and the standard basis
# ---------------------------------------------------------------------------

def admissible(spec: SeaweedSpec, i: int, j: int) -> bool:
    """Whether location (i, j) can be nonzero in the seaweed.

    Diagonal always; strictly lower iff i and j share a top block; strictly
    upper iff they share a bottom block. This is the one place the rule is
    written: ``standard_basis`` and ``check_basis`` ask it.
    """
    owner = spec.top.owner if i > j else spec.bottom.owner
    if not (0 < i < len(owner) and 0 < j < len(owner)):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{spec.n}")
    return owner[i] == owner[j]


def standard_basis(spec: SeaweedSpec) -> list[BasisLabel]:
    """Diagonal differences h(1)..h(n-1), then the units ``admissible``
    accepts, row-major."""
    n = spec.n
    labels: list[BasisLabel] = [DiagDiff(i) for i in range(1, n)]
    vertices = range(1, n + 1)
    labels += [
        MatrixUnit(i, j) for i in vertices for j in vertices if i != j and admissible(spec, i, j)
    ]
    return labels


def seaweed_dim(spec: SeaweedSpec) -> int:
    """(n-1) + sum a_i(a_i-1)/2 + sum b_j(b_j-1)/2: the traceless diagonal
    plus each side's cached ``Composition.triangle``."""
    return spec.n - 1 + spec.top.triangle + spec.bottom.triangle


# ---------------------------------------------------------------------------
# checked bases
# ---------------------------------------------------------------------------

def _diagonal(label: BasisLabel, n: int) -> Sequence[Fraction | int] | None:
    """A diagonal label's n entries, or None for a unit, after its range check."""
    if isinstance(label, MatrixUnit):
        if not (1 <= label.i <= n and 1 <= label.j <= n):
            raise ValueError(f"unit {label} out of range for n={n}")
        return None
    if isinstance(label, DiagDiff):
        if not (1 <= label.i <= n - 1):
            raise ValueError(f"diagonal difference {label} out of range for n={n}")
        return [0] * (label.i - 1) + [1, -1] + [0] * (n - 1 - label.i)
    if len(label.entries) != n:
        raise ValueError(f"custom diagonal {label.name!r} has wrong length")
    return label.entries


def _h_coordinates(entries: Sequence[Fraction | int]) -> list[Fraction | int]:
    """A traceless diagonal in h(1)..h(n-1): its partial sums."""
    return list(accumulate(entries))[:-1]


@dataclass(frozen=True, eq=False)
class SeaweedBasis:
    """A full basis of a seaweed, checked by ``check_basis``.

    ``units`` maps each unit's (i, j) to its position; ``diagonals`` holds
    (position, entries) of each diagonal label, the entries scaled to integers
    by the common denominator ``diagonal_den``. It evaluates one-forms given
    as dual matrices, the trace-form reading of gl(n)* that Dergachev and
    Kirillov use for seaweeds (2000), without a structure table.
    """

    spec: SeaweedSpec
    labels: tuple[BasisLabel, ...]
    units: Mapping[tuple[int, int], int]
    diagonals: tuple[tuple[int, tuple[int, ...]], ...]
    diagonal_den: int

    @property
    def dim(self) -> int:
        return len(self.labels)

    def scaled_form(
        self, entries: Mapping[tuple[int, int], Fraction | int]
    ) -> tuple[list[int], list[list[int]], int]:
        """(s * phi, s * B_phi, s) in integers for phi(M) = sum W_ij M_ij,
        W given by its ``entries`` (absent ones are 0); s is W's denominator lcm times
        ``diagonal_den``. The values are read through their ``numerator`` and
        ``denominator``, which ``Fraction`` and ``int`` both have.

        B_phi(X, Y) = phi([X, Y]) comes from the gl(n) bracket rules alone:
        [e(a,b), e(b,c)] = e(a,c), so W_ac reaches every such pair of units
        (for c = a, [e(a,b), e(b,a)] = e(a,a) - e(b,b) gets W_aa here and
        -W_bb from the pair (e(b,a), e(a,b))); [D, e(a,c)] = (D_a - D_c) e(a,c);
        two diagonals commute. The work is O(nnz(W) * n) besides the rows.
        """
        n = self.spec.n
        for (i, j) in entries:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"dual matrix entry ({i},{j}) out of range 1..{n}")
        w_ints, w_den = _clear_denominators(entries.values())
        d_den = self.diagonal_den
        units = self.units
        d = self.dim
        sphi = [0] * d
        rows = [[0] * d for _ in range(d)]
        for (a, c), w in zip(entries, w_ints):
            if a == c:
                for pos, ent in self.diagonals:
                    sphi[pos] += ent[a - 1] * w
            elif (a, c) in units:
                z = units[(a, c)]
                sphi[z] = d_den * w
                for pos, ent in self.diagonals:
                    v = (ent[a - 1] - ent[c - 1]) * w
                    rows[pos][z] += v
                    rows[z][pos] -= v
            v = d_den * w
            for b in range(1, n + 1):
                x = units.get((a, b))
                if x is not None:
                    y = units.get((b, c))
                    if y is not None:
                        rows[x][y] += v
                        rows[y][x] -= v
        return sphi, rows, w_den * d_den


def check_basis(
    spec: SeaweedSpec, basis: Sequence[BasisLabel] | None = None
) -> SeaweedBasis:
    """The given (or standard) basis of the seaweed, checked to be a full one.

    It needs seaweed_dim(spec) labels, every unit admissible (``admissible``
    reads each side's cached block table) and listed once, and diagonal
    labels that form a basis of the traceless diagonals.
    h(i) has h-coordinates e_i, so that holds exactly when the h(i) are
    distinct and the custom diagonals' h-coordinates, restricted to the
    coordinates no h(i) covers, have a nonzero determinant; for the standard
    basis no determinant runs. Anything else raises SpanError; a label out
    of range for n raises ValueError.
    """
    n = spec.n
    labels = tuple(standard_basis(spec) if basis is None else basis)
    entries = [_diagonal(lab, n) for lab in labels]
    dim = len(labels)
    if dim != seaweed_dim(spec):
        raise SpanError(
            f"basis has {dim} labels, {spec.text()} has dimension {seaweed_dim(spec)}"
        )

    units: dict[tuple[int, int], int] = {}
    diag_pos: list[int] = []
    for pos, lab in enumerate(labels):
        if isinstance(lab, MatrixUnit):
            key = (lab.i, lab.j)
            if not admissible(spec, *key):
                raise SpanError(f"unit {label_str(lab)} is not admissible for {spec.text()}")
            if key in units:
                raise SpanError(f"duplicate unit {label_str(lab)}")
            units[key] = pos
        else:
            diag_pos.append(pos)

    diag_ints, diag_den = _clear_denominators(x for pos in diag_pos for x in entries[pos])
    diagonals = tuple(
        (pos, tuple(diag_ints[r * n : (r + 1) * n])) for r, pos in enumerate(diag_pos)
    )
    covered = {labels[pos].i for pos in diag_pos if isinstance(labels[pos], DiagDiff)}
    customs = [
        _h_coordinates(ent) for pos, ent in diagonals if not isinstance(labels[pos], DiagDiff)
    ]
    free = [k for k in range(n - 1) if k + 1 not in covered]
    # the common scale leaves the minor's determinant zero or nonzero
    if (
        len(diag_pos) != n - 1
        or len(covered) + len(customs) != n - 1
        or customs and not _kernels.det_int([[hc[k] for k in free] for hc in customs])
    ):
        raise SpanError(
            f"the {len(diag_pos)} diagonal labels are not a basis of the traceless diagonals"
        )
    return SeaweedBasis(spec, labels, units, diagonals, diag_den)


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def materialize(
    spec: SeaweedSpec, basis: Sequence[BasisLabel] | None = None
) -> LieAlgebra:
    """Structure constants of the seaweed in the given (or standard) basis.

    The basis passes ``check_basis`` first, so anything but a full basis of
    the seaweed raises SpanError. Every bracket then follows from three
    gl(n) rules, with no matrix products:

    - [e(a,b), e(b,c)] = e(a,c) for a != c;
    - [e(a,b), e(b,a)] = e(a,a) - e(b,b) = h(a) + ... + h(b-1) for a < b;
    - [D, e(i,j)] = (D_i - D_j) e(i,j) for a diagonal D.

    h(k) reaches the diagonal labels through the inverse of their own
    h-coordinate matrix (the identity for the standard basis); a diagonal's
    h-coordinates are its partial sums.
    """
    n = spec.n
    checked = check_basis(spec, basis)
    dim = checked.dim
    unit_pos = checked.units
    diag_pos = [pos for pos, _ in checked.diagonals]
    diagonals = {pos: _diagonal(checked.labels[pos], n) for pos in diag_pos}

    # column c holds the h-coordinates of the c-th diagonal label; check_basis
    # made sure they form a basis, so the inverse exists
    cols = [_h_coordinates(diagonals[pos]) for pos in diag_pos]
    inv = inverse(RatMatrix.from_rows(zip(*cols)))
    # h(k) in the diagonal labels: column k of the inverse, without its zeros
    h_in_labels = [
        [(pos, inv.at(r, k)) for r, pos in enumerate(diag_pos) if inv.at(r, k)]
        for k in range(n - 1)
    ]

    brackets: dict[tuple[int, int], dict[int, Fraction | int]] = {}

    def add(x: int, y: int, z: int, c: Fraction | int) -> None:
        """[E_x, E_y] gains c E_z."""
        if x > y:
            x, y, c = y, x, -c
        vec = brackets.setdefault((x, y), {})
        vec[z] = vec.get(z, 0) + c

    leaving: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for (b, c), y in unit_pos.items():
        leaving[b].append((c, y))
    for (a, b), x in unit_pos.items():
        for pos in diag_pos:
            d = diagonals[pos]
            if d[a - 1] != d[b - 1]:
                add(pos, x, x, d[a - 1] - d[b - 1])
        for c, y in leaving[b]:
            if c != a:
                # admissible units are closed under the bracket, and the
                # count check means every one of them is listed
                add(x, y, unit_pos[(a, c)], 1)
            elif a < b:
                for k in range(a - 1, b - 1):
                    for pos, coef in h_in_labels[k]:
                        add(x, y, pos, coef)

    return LieAlgebra.from_table(dim, [label_str(lab) for lab in checked.labels], brackets)


# ---------------------------------------------------------------------------
# one-form evaluation
# ---------------------------------------------------------------------------

def dual_matrix_to_coeffs(
    spec: SeaweedSpec,
    basis: Sequence[BasisLabel],
    entries: Mapping[tuple[int, int], Fraction],
) -> CoeffForm:
    """Coordinates of phi(M) = sum W_ij M_ij against the given basis.

    A unit picks its own W entry; a diagonal label, read through
    ``_diagonal`` (so one out of range for n raises ValueError), takes the
    weighted sum of the diagonal W entries.
    """
    n = spec.n
    for (i, j) in entries:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"dual matrix entry ({i},{j}) out of range 1..{n}")

    def w(i: int, j: int) -> Fraction:
        return Fraction(entries.get((i, j), 0))

    def coefficient(lab: BasisLabel) -> Fraction:
        diagonal = _diagonal(lab, n)
        if diagonal is None:
            return w(lab.i, lab.j)
        return sum((v * w(k, k) for k, v in enumerate(diagonal, start=1) if v), Fraction(0))

    return CoeffForm(tuple(map(coefficient, basis)))
