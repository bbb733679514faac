"""Exact rational linear algebra on small dense matrices.

Determinant, rank, inverse and kernel over Q, exact at every step. The heavy
lifting happens on integer matrices (each row scaled by its denominator lcm,
which changes neither rank nor kernel and scales det by a known factor) inside
the ``_kernels`` backend. ``_clear_denominators`` is the one place in the
package that turns Fractions into integers and a common denominator; the
integer Kirillov and bordered matrices of ``liealg`` use it too and never
pass through ``RatMatrix``.
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
    zero, one = Fraction(0), Fraction(1)
    aug = RatMatrix(n, 2 * n, tuple(
        x for i in range(n) for x in (*m.row(i), *(one if j == i else zero for j in range(n)))
    ))
    ech, pivots = _kernels.echelon_int(_integer_rows(aug)[0])
    if pivots != list(range(n)):
        return None
    inv = [[zero] * n for _ in range(n)]
    for r in range(n - 1, -1, -1):
        row = ech[r]
        for k in range(n):
            s = row[n + k] - sum(
                row[j] * inv[j][k] for j in range(r + 1, n) if row[j] and inv[j][k]
            )
            if s:
                inv[r][k] = Fraction(s, row[r])
    return RatMatrix(n, n, tuple(x for row in inv for x in row))


def kernel_basis(m: RatMatrix) -> list[tuple[Fraction, ...]]:
    """Basis of the right null space {x : m x = 0}.

    One vector per free column of the echelon form, normalized to primitive
    integer entries with positive leading sign, in free-column order. The
    length is always cols - rank(m).
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        ech: list[list[int]] = []
        pivots: list[int] = []
    else:
        rows, _ = _integer_rows(m)
        ech, pivots = _kernels.echelon_int(rows)
    pivot_set = set(pivots)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        x = [Fraction(0)] * m.cols
        x[free] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            if pc > free:
                continue
            s = sum((Fraction(ech[r][j]) * x[j] for j in range(pc + 1, m.cols)),
                    Fraction(0))
            x[pc] = -s / ech[r][pc]
        basis.append(_normalize(x))
    return basis


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
