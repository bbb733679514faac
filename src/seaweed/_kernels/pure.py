"""Pure-Python integer elimination kernels.

The hot loops behind determinant, rank, and kernel computations. The tests
check each kernel against ``Fraction`` elimination and cofactor references.
Everything here works on plain ``list[list[int]]`` and never mutates its
arguments.

The elimination scheme is fraction-free (Bareiss): the update

    a[i][j] <- (a[i][j] * pivot - a[i][k] * a[k][j]) // prev_pivot

keeps every intermediate entry an exact k x k minor of the input, so the
division is exact and entries stay integers of bounded size instead of
exploding into rationals. ``echelon_int`` runs it densely, column by column,
and so does ``rank_int`` on a matrix that is not skew-symmetric.

The index oracle ranks Kirillov matrices, which are skew-symmetric.
``rank_int`` and ``rank_mod`` first check that exactly (square, zero
diagonal, a[i][j] == -a[j][i]) and then run ``_skew_rank``, an elimination
with 2 x 2 pivots that keeps the Schur complement skew, so only the strict
lower triangle is stored and updated:

- the last live index pivots. If its row is zero, the index lies in the
  kernel and is dropped;
- otherwise the pivot is a = a[n-1][s], the last nonzero of that row, with
  P = a[n-1][.] and Q = a[s][.]. Every other pair k, l becomes

      a[k][l] <- (a * a[k][l] + Q[k] * P[l] - P[k] * Q[l]) // prev

  and prev <- a. Each entry is then, up to sign, the Pfaffian of the
  principal minor on the pivot indices plus {k, l} (Galbiati & Maffioli
  1994; Rote 2001), and the division is exact by the Pfaffian form of
  Sylvester's identity, Pf(S) Pf(S+ijkl) = Pf(S+ij) Pf(S+kl)
  - Pf(S+ik) Pf(S+jl) + Pf(S+il) Pf(S+jk). A Pfaffian has half the bits of
  the determinant of the same minor. A row with P[k] = Q[k] = 0 still gets
  the a // prev scale;
- mod p the step is a[k][l] + (Q[k] / a) P[l] - (P[k] / a) Q[l], and a row
  with P[k] = Q[k] = 0 is left as it is;
- the rank is twice the number of pivots.

Every update must act on rows and columns alike. Scaling a stored triangle
row on its own (say, row k by a, or by 1/a mod p) scales half of row k and
half of column k, which is no congruence, and gives wrong ranks.

``rank_mod`` ranks a matrix A that is not skew as the skew matrix
[[0, -A^T], [A, 0]], whose rank is 2 rank A, so one elimination serves both.

``det_int`` runs the Bareiss recurrence on sparse rows, because the library's
determinants are of bordered matrices with about two nonzeros per row:

- each row is a dict ``{col: value}`` of its nonzeros, and a column -> rows
  index means a step touches only the rows that hold the pivot column;
- the pivot minimizes the Markowitz cost (row nnz - 1) * (col nnz - 1)
  (Markowitz 1957), and a zero-cost pivot is taken at once. Bareiss stays
  exact under this complete pivoting, since it is Bareiss on P A Q;
- a row without an entry in the pivot column would only be scaled by
  pivot / prev_pivot. Those factors telescope, so the row keeps a stamp, the
  pivot it was last exact at, and its true entries are stored * prev // stamp;
  it is rescaled once, when a later step touches it;
- det A = sign(row pivot order) * sign(column pivot order) * last pivot, and
  a row emptied by elimination means det A = 0.
"""
from __future__ import annotations

from operator import add


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1).

    Sparse Bareiss with Markowitz pivots and lazy row scaling (module
    docstring).
    """
    n = len(rows)
    live = {i: {c: x for c, x in enumerate(row) if x} for i, row in enumerate(rows)}
    stamp = dict.fromkeys(live, 1)
    where: dict[int, set[int]] = {c: set() for c in range(n)}
    for i, row in live.items():
        if not row:
            return 0
        for c in row:
            where[c].add(i)
    row_order: list[int] = []
    col_order: list[int] = []
    prev = 1
    while live:
        best = None
        for i, row in live.items():
            rn = len(row) - 1
            for c in row:
                cost = rn * (len(where[c]) - 1)
                if best is None or cost < best[0]:
                    best = (cost, i, c)
                    if not cost:
                        break
            if not best[0]:
                break
        _, r, k = best
        # a stored row times prev // stamp is its current Bareiss row
        piv = live.pop(r)
        t = stamp[r]
        if t != prev:
            piv = {c: x * prev // t for c, x in piv.items()}
        pv = piv.pop(k)
        for c in piv:
            where[c].discard(r)
        for i in where.pop(k) - {r}:
            row = live[i]
            f = row.pop(k)
            t = stamp[i]
            if t == prev:
                row = {c: x * pv for c, x in row.items()}
            else:
                f = f * prev // t
                row = {c: x * prev // t * pv for c, x in row.items()}
            for c, x in piv.items():
                y = row.get(c)
                if y is None:
                    row[c] = -f * x
                    where[c].add(i)
                else:
                    y -= f * x
                    if y:
                        row[c] = y
                    else:
                        del row[c]
                        where[c].discard(i)
            if not row:
                return 0
            live[i] = {c: x // prev for c, x in row.items()}
            stamp[i] = pv
        row_order.append(r)
        col_order.append(k)
        prev = pv
    return _parity(row_order) * _parity(col_order) * prev


def _parity(order: list[int]) -> int:
    """Sign of the permutation k -> order[k]."""
    sign = 1
    seen = [False] * len(order)
    for k in range(len(order)):
        j = k
        while not seen[j]:
            seen[j] = True
            j = order[j]
            if not seen[j]:
                sign = -sign
    return sign


def echelon_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form and the list of pivot columns.

    Column skipping preserves the exact-division property: a skipped column is
    zero below the current row from that point on, so the elimination is the
    Bareiss recurrence on the surviving column submatrix.
    """
    a = [row[:] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(m):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        rowr = a[r]
        pv = rowr[c]
        for i in range(r + 1, n):
            rowi = a[i]
            f = rowi[c]
            for j in range(c + 1, m):
                rowi[j] = (rowi[j] * pv - f * rowr[j]) // prev
            rowi[c] = 0
        prev = pv
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a, pivots


def rank_int(rows: list[list[int]]) -> int:
    """Exact rank over the rationals of an integer matrix.

    A skew-symmetric input takes the 2 x 2-pivot Pfaffian elimination
    (module docstring); any other goes through ``echelon_int``.
    """
    if _is_skew(rows):
        return _skew_rank([row[:k] for k, row in enumerate(rows)], None)
    return len(echelon_int(rows)[1])


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of the matrix reduced mod the prime p.

    Always a lower bound for the rational rank: a pivot chain mod p exhibits a
    minor that is nonzero mod p, hence nonzero over Q. Callers exploit this for
    certified early answers (see the index oracle). A matrix A that is not
    skew-symmetric is ranked as the skew [[0, -A^T], [A, 0]], of rank 2 rank A.
    """
    if _is_skew(rows):
        return _skew_rank([[x % p for x in row[:k]] for k, row in enumerate(rows)], p)
    m = len(rows[0]) if rows else 0
    lower = [[0] * c for c in range(m)]
    lower += [[x % p for x in row] + [0] * i for i, row in enumerate(rows)]
    return _skew_rank(lower, p) // 2


def _is_skew(rows: list[list[int]]) -> bool:
    """Whether rows is square with a zero diagonal and a[i][j] == -a[j][i]."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    for row, col in zip(rows, zip(*rows)):
        if any(map(add, row, col)):
            return False
    return True


def _skew_rank(lower: list[list[int]], p: int | None) -> int:
    """Rank of a skew-symmetric matrix given by its strict lower triangle.

    ``lower[k]`` holds a[k][:k]; the lists are consumed. Over Z when p is None
    (fraction-free, entries are Pfaffian minors), otherwise mod p with entries
    already reduced.
    """
    prev = 1
    pivots = 0
    while lower:
        last = lower.pop()
        s = next((c for c in range(len(last) - 1, -1, -1) if last[c]), None)
        if s is None:
            # a zero row: its index lies in the kernel
            continue
        # pivot on the pair (n-1, s), a = a[n-1][s]; P = a[n-1][.] and
        # Q = a[s][.] over the other live indices 0..s-1, s+1..n-2
        a = last[s]
        P = last[:s] + last[s + 1 :]
        Q = lower[s] + [-lower[k][s] for k in range(s + 1, len(lower))]
        if p is not None:
            # residues in [-p/2, p/2]: for p < 2^31 the factors of the
            # products below fit in one CPython digit, which multiplies fastest
            h = p // 2
            inv = pow(a, -1, p)
            Q = [(x + h) % p - h for x in Q]
            P = [(x * inv + h) % p - h for x in P]
        rest = []
        for k, row in enumerate(lower):
            if k == s:
                continue
            if k > s:
                row = row[:s] + row[s + 1 :]
            # row covers the live indices below k, the first len(row) of P
            # and Q; index k itself comes next
            pk = P[len(row)]
            qk = Q[len(row)]
            if p is None:
                if pk or qk:
                    row = [(a * x + qk * y - pk * z) // prev for x, y, z in zip(row, P, Q)]
                elif a != prev:
                    row = [x * a // prev for x in row]
            elif pk or qk:
                row = [(x + qk * y - pk * z) % p for x, y, z in zip(row, P, Q)]
            rest.append(row)
        lower = rest
        prev = a
        pivots += 1
    return 2 * pivots
