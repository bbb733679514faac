"""Exact rational linear algebra on matrices of Fractions.

Determinant, rank, inverse and kernel over Q, exact at every step. The heavy
lifting happens on integer matrices (each row scaled by its denominator lcm,
which changes neither rank nor kernel and scales det by a known factor) inside
``seaweed._kernels``. ``RatMatrix`` stores every entry, but ``det``
eliminates on the nonzeros only (``_kernels.det_int`` is sparse fraction-free
Bareiss with Markowitz pivots), so a sparse determinant costs far less than a
dense one of the same size. ``rank`` of a skew-symmetric matrix without
denominators runs the 2 x 2-pivot skew elimination behind
``_kernels.rank_int``; any other rank, and inverse and kernel, run dense
Bareiss.
``_clear_denominators`` is the one place in the package that turns Fractions
into integers and a common denominator. Within the library ``RatMatrix``
serves only ``materialize``'s inverse, which the index oracle and the other
structure-table users reach: the integer Kirillov and bordered matrices of
``liealg``, and the contact searches and certificate verification, which
evaluate B_phi by trace pairing on a checked basis, never pass through it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from . import _kernels


@dataclass(frozen=True)
class RatMatrix:
    """Dense row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows} x {self.cols}"
            )

    @classmethod
    def from_rows(cls, data: Iterable[Sequence[Fraction | int]]) -> "RatMatrix":
        rows = [list(row) for row in data]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(Fraction(x) for row in rows for x in row)
        return cls(n, m, flat)

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_skew_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.at(i, j) == -self.at(j, i)
            for i in range(self.rows)
            for j in range(i, self.cols)
        )


def _clear_denominators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(den * values, den), with den the lcm of the values' denominators."""
    vals = list(values)
    den = 1
    for x in vals:
        den = lcm(den, x.denominator)
    return [x.numerator * (den // x.denominator) for x in vals], den


def _integer_rows(m: RatMatrix) -> tuple[list[list[int]], int]:
    """Clear denominators row by row; returns (int rows, det scale factor)."""
    out: list[list[int]] = []
    scale = 1
    for i in range(m.rows):
        ints, den = _clear_denominators(m.row(i))
        out.append(ints)
        scale *= den
    return out, scale


def det(m: RatMatrix) -> Fraction:
    """Exact determinant. Raises ValueError on non-square input."""
    if not m.is_square():
        raise ValueError(f"determinant of non-square matrix {m.rows} x {m.cols}")
    rows, scale = _integer_rows(m)
    return Fraction(_kernels.det_int(rows), scale)


def rank(m: RatMatrix) -> int:
    """Exact rank over Q."""
    if m.rows == 0 or m.cols == 0:
        return 0
    rows, _ = _integer_rows(m)
    return _kernels.rank_int(rows)


def inverse(m: RatMatrix) -> RatMatrix | None:
    """Exact inverse of a square matrix; None when it is singular.

    The integer echelon form of [m | I] has its pivots in the first n columns
    exactly when m is invertible. Back substitution skips zero entries, so a
    sparse m such as the identity costs little.
    """
    if not m.is_square():
        raise ValueError(f"inverse of non-square matrix {m.rows} x {m.cols}")
    n = m.rows
    aug = []  # [m | I] with each row's denominators cleared
    for i in range(n):
        ints, den = _clear_denominators(m.row(i))
        aug.append(ints + [den if j == i else 0 for j in range(n)])
    ech, pivots = _kernels.echelon_int(aug)
    if pivots != list(range(n)):
        return None
    # column k of m^-1 is the top half of the kernel vector whose I-part is -e_k
    cols = [_kernel_vector(ech, pivots, 2 * n, n + k, -1) for k in range(n)]
    return RatMatrix(n, n, tuple(cols[k][r] for r in range(n) for k in range(n)))


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {x : m x = 0}.

    One vector per free column of the echelon form, normalized to primitive
    integer entries with positive leading sign, in free-column order. The
    length is always cols - rank(m).
    """
    ech, pivots = _kernels.echelon_int(_integer_rows(m)[0])
    return [
        _normalize(_kernel_vector(ech, pivots, m.cols, free, 1))
        for free in range(m.cols)
        if free not in pivots
    ]


def _kernel_vector(
    ech: list[list[int]], pivots: list[int], width: int, free: int, value: int
) -> list[Fraction]:
    """x with ech x = 0, x[free] = value and x zero on every other free column,
    by back substitution that reads only the nonzero entries found so far."""
    x = [Fraction(0)] * width
    x[free] = Fraction(value)
    nonzero = [free]  # every index here lies right of the pivot being solved
    for pc, row in reversed(list(zip(pivots, ech))):
        if pc < free:
            s = sum(row[j] * x[j] for j in nonzero if row[j])
            if s:
                x[pc] = -s / row[pc]
                nonzero.append(pc)
    return x


def _normalize(vec: list[Fraction]) -> tuple[Fraction, ...]:
    ints, _ = _clear_denominators(vec)
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    lead = next((v for v in ints if v != 0), 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)
