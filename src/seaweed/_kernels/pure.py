"""Pure-Python integer elimination kernels.

Reference implementation of the hot loops behind determinant, rank, and kernel
computations. The compiled twin in ``_fast.pyx`` mirrors these signatures
exactly; this module is the fallback (and the ground truth the backend parity
tests compare against). Everything here works on plain ``list[list[int]]`` and
never mutates its arguments.

The elimination scheme is fraction-free (Bareiss): the update

    a[i][j] <- (a[i][j] * pivot - a[i][k] * a[k][j]) // prev_pivot

keeps every intermediate entry an exact k x k minor of the input, so the
division is exact and entries stay integers of bounded size instead of
exploding into rationals. ``echelon_int`` and ``rank_int`` run it densely,
column by column.

``det_int`` runs the same recurrence on sparse rows, because the library's
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

BACKEND = "pure"


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
    """Exact rank over the rationals of an integer matrix."""
    if not rows:
        return 0
    return len(echelon_int(rows)[1])


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank of the matrix reduced mod the prime p.

    Always a lower bound for the rational rank: a pivot chain mod p exhibits a
    minor that is nonzero mod p, hence nonzero over Q. Callers exploit this for
    certified early answers (see the index oracle).
    """
    a = [[x % p for x in row] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, n) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        rowr = a[r]
        inv = pow(rowr[c], p - 2, p)
        for i in range(r + 1, n):
            f = a[i][c]
            if f:
                f = f * inv % p
                rowi = a[i]
                for j in range(c, m):
                    rowi[j] = (rowi[j] - f * rowr[j]) % p
        r += 1
        if r == n:
            break
    return r
