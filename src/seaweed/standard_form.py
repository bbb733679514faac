"""Type-A seaweed algebras in standard form.

A seaweed is cut out of sl(n) by two compositions of n: the top composition
owns the lower triangle (block-diagonal lower part), the bottom composition
owns the upper triangle. This module knows which matrix locations are
admissible, builds the standard basis (diagonal differences first, then the
admissible units in row-major order), and materializes the result as a
``LieAlgebra`` with exact structure constants.

Indices are 1-based throughout, matching the e_{i,j} notation in printed
output; positions into a basis list are plain 0-based Python indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from .exact import RatMatrix, inverse
from .liealg import CoeffForm, LieAlgebra

__all__ = [
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
    "materialize",
    "dual_matrix_to_coeffs",
    "label_str",
    "label_to_json",
    "label_from_json",
    "compositions",
    "spec_pairs",
]


class SpanError(ValueError):
    """A bracket left the span of the given basis, or the basis cannot span."""


# ---------------------------------------------------------------------------
# compositions and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Composition:
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("empty composition")
        if any(p < 1 for p in self.parts):
            raise ValueError(f"parts must be positive: {self.parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def blocks(self) -> list[tuple[int, int]]:
        """Consecutive (first, last) vertex ranges, 1-based inclusive."""
        out = []
        start = 1
        for p in self.parts:
            out.append((start, start + p - 1))
            start += p
        return out

    def block_of(self) -> dict[int, int]:
        """vertex -> index of the block containing it."""
        owner = {}
        for b, (lo, hi) in enumerate(self.blocks()):
            for v in range(lo, hi + 1):
                owner[v] = b
        return owner

    def text(self) -> str:
        return "|".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text: str) -> "Composition":
        parts = []
        for piece in text.split("|"):
            piece = piece.strip()
            if not piece.isdigit():
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "top": list(self.top.parts),
            "bottom": list(self.bottom.parts),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SeaweedSpec":
        spec = cls(
            Composition(tuple(data["top"])), Composition(tuple(data["bottom"]))
        )
        if "n" in data and data["n"] != spec.n:
            raise ValueError("inconsistent n in spec JSON")
        return spec


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) ordered compositions of n, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def spec_pairs(n: int) -> Iterator[SeaweedSpec]:
    """All 4^(n-1) seaweed specs of size n, in deterministic order."""
    tops = list(compositions(n))
    for t in tops:
        for b in tops:
            yield SeaweedSpec(Composition(t), Composition(b))


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


def label_to_json(label: BasisLabel) -> dict:
    if isinstance(label, MatrixUnit):
        return {"unit": [label.i, label.j]}
    if isinstance(label, DiagDiff):
        return {"diagdiff": label.i}
    return {"diag": {"name": label.name, "entries": [str(x) for x in label.entries]}}


def label_from_json(data: dict) -> BasisLabel:
    if "unit" in data:
        i, j = data["unit"]
        return MatrixUnit(i, j)
    if "diagdiff" in data:
        return DiagDiff(data["diagdiff"])
    if "diag" in data:
        return CustomDiagonal(
            data["diag"]["name"],
            tuple(Fraction(s) for s in data["diag"]["entries"]),
        )
    raise ValueError(f"unrecognized basis label {data!r}")


# ---------------------------------------------------------------------------
# admissibility and the standard basis
# ---------------------------------------------------------------------------

def admissible(spec: SeaweedSpec, i: int, j: int) -> bool:
    """Whether location (i, j) can be nonzero in the seaweed.

    Diagonal always; strictly lower iff i and j share a top block; strictly
    upper iff they share a bottom block.
    """
    n = spec.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"indices ({i}, {j}) out of range 1..{n}")
    if i == j:
        return True
    if i > j:
        owner = spec.top.block_of()
    else:
        owner = spec.bottom.block_of()
    return owner[i] == owner[j]


def standard_basis(spec: SeaweedSpec) -> list[BasisLabel]:
    """Diagonal differences h(1)..h(n-1), then admissible units row-major."""
    n = spec.n
    labels: list[BasisLabel] = [DiagDiff(i) for i in range(1, n)]
    top_owner = spec.top.block_of()
    bottom_owner = spec.bottom.block_of()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i > j and top_owner[i] == top_owner[j]:
                labels.append(MatrixUnit(i, j))
            elif i < j and bottom_owner[i] == bottom_owner[j]:
                labels.append(MatrixUnit(i, j))
    return labels


def seaweed_dim(spec: SeaweedSpec) -> int:
    """(n-1) + sum a_i(a_i-1)/2 + sum b_j(b_j-1)/2."""
    n = spec.n
    tri = sum(p * (p - 1) // 2 for p in spec.top.parts)
    tri += sum(p * (p - 1) // 2 for p in spec.bottom.parts)
    return n - 1 + tri


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def _label_matrix(label: BasisLabel, n: int) -> dict[tuple[int, int], Fraction]:
    if isinstance(label, MatrixUnit):
        if not (1 <= label.i <= n and 1 <= label.j <= n):
            raise ValueError(f"unit {label} out of range for n={n}")
        return {(label.i, label.j): Fraction(1)}
    if isinstance(label, DiagDiff):
        if not (1 <= label.i <= n - 1):
            raise ValueError(f"diagonal difference {label} out of range for n={n}")
        return {(label.i, label.i): Fraction(1), (label.i + 1, label.i + 1): Fraction(-1)}
    if len(label.entries) != n:
        raise ValueError(f"custom diagonal {label.name!r} has wrong length")
    return {(k, k): v for k, v in enumerate(label.entries, start=1) if v != 0}


def _commutator(
    X: Mapping[tuple[int, int], Fraction], Y: Mapping[tuple[int, int], Fraction]
) -> dict[tuple[int, int], Fraction]:
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), v in X.items():
        for (c, d), w in Y.items():
            if b == c:
                acc[(a, d)] = acc.get((a, d), Fraction(0)) + v * w
            if d == a:
                acc[(c, b)] = acc.get((c, b), Fraction(0)) - v * w
    return {k: v for k, v in acc.items() if v != 0}


def _h_coords(diag: Mapping[int, Fraction], n: int) -> list[Fraction]:
    """Coordinates of a traceless diagonal in h(1)..h(n-1): its partial sums."""
    out = []
    s = Fraction(0)
    for k in range(1, n):
        s += diag.get(k, 0)
        out.append(s)
    return out


def materialize(
    spec: SeaweedSpec, basis: Sequence[BasisLabel] | None = None
) -> LieAlgebra:
    """Structure constants of the seaweed in the given (or standard) basis.

    A given basis must be a full basis of the seaweed: seaweed_dim(spec)
    labels, every unit admissible and listed once, and diagonal labels that
    form a basis of the traceless diagonals. Anything else raises SpanError.
    Off-diagonal bracket components then land on unit labels, and diagonal
    components go through their h(1)..h(n-1) coordinates and the inverse of
    the diagonal labels' own h-coordinate matrix (the identity for the
    standard basis).
    """
    n = spec.n
    labels = list(standard_basis(spec) if basis is None else basis)
    mats = [_label_matrix(lab, n) for lab in labels]
    dim = len(labels)
    if dim != seaweed_dim(spec):
        raise SpanError(
            f"basis has {dim} labels, {spec.text()} has dimension {seaweed_dim(spec)}"
        )

    unit_pos: dict[tuple[int, int], int] = {}
    diag_pos: list[int] = []
    for pos, lab in enumerate(labels):
        if isinstance(lab, MatrixUnit):
            if not admissible(spec, lab.i, lab.j):
                raise SpanError(f"unit {label_str(lab)} is not admissible for {spec.text()}")
            if (lab.i, lab.j) in unit_pos:
                raise SpanError(f"duplicate unit {label_str(lab)}")
            unit_pos[(lab.i, lab.j)] = pos
        else:
            diag_pos.append(pos)

    # column c holds the h-coordinates of the c-th diagonal label; its inverse
    # exists exactly when the diagonal labels form a basis
    cols = [_h_coords({a: v for (a, _), v in mats[pos].items()}, n) for pos in diag_pos]
    inv = None if len(diag_pos) != n - 1 else inverse(
        RatMatrix(n - 1, n - 1, tuple(x for row in zip(*cols) for x in row))
    )
    if inv is None:
        raise SpanError(
            f"the {len(diag_pos)} diagonal labels are not a basis of the traceless diagonals"
        )
    # h(k) in the diagonal labels: column k of the inverse, without its zeros
    h_in_labels = [
        [(pos, inv.at(r, k)) for r, pos in enumerate(diag_pos) if inv.at(r, k)]
        for k in range(n - 1)
    ]

    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for x in range(dim):
        for y in range(x + 1, dim):
            com = _commutator(mats[x], mats[y])
            if not com:
                continue
            vec: dict[int, Fraction] = {}
            diag: dict[int, Fraction] = {}
            for (a, b), v in com.items():
                if a == b:
                    diag[a] = v
                else:
                    vec[unit_pos[(a, b)]] = v
            if diag:
                for k, s in enumerate(_h_coords(diag, n)):
                    if s:
                        for pos, c in h_in_labels[k]:
                            vec[pos] = vec.get(pos, 0) + s * c
            if vec:
                brackets[(x, y)] = vec

    return LieAlgebra.from_table(dim, [label_str(lab) for lab in labels], brackets)


# ---------------------------------------------------------------------------
# one-form evaluation
# ---------------------------------------------------------------------------

def dual_matrix_to_coeffs(
    spec: SeaweedSpec,
    basis: Sequence[BasisLabel],
    entries: Mapping[tuple[int, int], Fraction],
) -> CoeffForm:
    """Coordinates of phi(M) = sum W_ij M_ij against the given basis.

    A unit picks its own W entry; a diagonal difference picks W_ii - W_(i+1)(i+1);
    a custom diagonal takes the weighted sum of diagonal W entries.
    """
    n = spec.n
    for (i, j) in entries:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"dual matrix entry ({i},{j}) out of range 1..{n}")

    def w(i: int, j: int) -> Fraction:
        return Fraction(entries.get((i, j), 0))

    coeffs = []
    for lab in basis:
        if isinstance(lab, MatrixUnit):
            coeffs.append(w(lab.i, lab.j))
        elif isinstance(lab, DiagDiff):
            coeffs.append(w(lab.i, lab.i) - w(lab.i + 1, lab.i + 1))
        else:
            coeffs.append(
                sum((v * w(k, k) for k, v in enumerate(lab.entries, start=1)),
                    Fraction(0))
            )
    return CoeffForm(tuple(coeffs))
