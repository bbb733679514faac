"""Pure-Python integer elimination kernels.

The hot loops behind determinant, rank, and kernel computations. The tests
check each kernel against ``Fraction`` elimination and cofactor references.
Everything here works on plain ``list[list[int]]`` and never mutates its
arguments.

The elimination scheme is fraction-free (Bareiss 1968): the update

    a[i][j] <- (a[i][j] * pivot - a[i][k] * a[k][j]) // prev_pivot

keeps every intermediate entry an exact k x k minor of the input, so the
division is exact and entries stay integers of bounded size instead of
exploding into rationals. One dense loop, ``_bareiss``, runs it column by
column with row swaps and tracks their sign. It serves ``echelon_int``,
``rank_int`` on a matrix that is not skew-symmetric, and ``det_int`` on one
that is not skew: a square matrix with n pivots has det = sign * a[n-1][n-1],
its last pivot, and any other has det 0.

The index oracle ranks Kirillov matrices, which are skew-symmetric.
``rank_int`` and ``rank_mod`` first check that exactly (square, zero
diagonal, a[i][j] == -a[j][i]) and then eliminate with 2 x 2 pivots, which
keep the Schur complement skew. A step on the pair (i, j), a = a[i][j] != 0,
removes rows and columns i and j and sends every other pair k, l to

    a[k][l] + (a[k][i] a[j][l] - a[k][j] a[i][l]) / a.

The rank is twice the number of pivots.

``rank_int`` runs ``_skew_rank`` over Z on the strict lower triangle, stored
as lists:

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
  the determinant of the same minor. A row pays only the products whose
  factor P[k] or Q[k] is nonzero, and one with P[k] = Q[k] = 0 still gets
  the a // prev scale. Column s is deleted from each row in place.

It stays on lists because its entries are minors of unbounded size: no
fixed slot width holds them.

Every update must act on rows and columns alike. Scaling a stored triangle
row on its own (say, row k by a) scales half of row k and half of column k,
which is no congruence, and gives wrong ranks.

``rank_mod`` raises ``ValueError`` on input that is not skew; its one
caller, the index oracle, sends only Kirillov matrices. Each full row of the
matrix mod p is one Python int, with one 64-bit word per column holding a
nonnegative residue, and a row update is one big-integer multiply-add (the
packing with delayed reduction of Dumas, Fousse & Salvy 2011 and
FFLAS-FFPACK, Dumas, Giorgi & Pernet 2008):

- the pivot row i is the last live index. It is unpacked and reduced to
  residues in [0, p), which finds j, its last nonzero column below i, or
  shows it zero (then i lies in the kernel and is dropped). Row j is
  reduced the same way, and both are repacked as R_i and R_j;
- every other live row k with a[k][i] or a[k][j] nonzero becomes

      row_k + c_j R_j + c_i R_i,  c_j = a[k][i] / a, c_i = -a[k][j] / a,

  with c_j and c_i taken in [0, p). By skewness a[k][i] = -a[i][k] and
  a[k][j] = -a[j][k], so the coefficients come from the two reduced pivot
  rows, and no other row is ever reduced: an update costs no Python work
  per entry;
- the bound: a slot starts below p, and a step adds at most 2 (p-1)^2 to
  it. There are at most n/2 steps, so a slot stays below
  (p-1) + n (p-1)^2. ``rank_mod`` raises ``ValueError`` unless that is
  below 2^64, so no slot carries into its neighbour, and each slot stays
  congruent mod p to its entry. The index oracle's p = 2^24 - 3 is the
  largest prime that fits up to n = 2^16;
- a row never updated keeps the residues it started with, so it is not
  unpacked when it pivots. Columns at or above the pivot index are dead
  (zero mod p in every live row), so a pivot row is read and repacked only
  below it.

``det_int`` starts on sparse rows, because the library's determinants are
of bordered matrices with about two nonzeros per row. Each row becomes a dict
``{col: value}`` of its nonzeros once, and the skewness check runs on those
dicts in O(nnz): every stored a[i][c] needs a[c][i] == -a[i][c], which also
rules out a nonzero diagonal entry. Input that is not skew goes to
``_bareiss``; in the library that is ``check_basis``'s minor of custom
diagonals' h-coordinates (none for the standard basis) and ``exact.det``
of a matrix that is not skew.

A skew-symmetric input (the bordered matrices [[0, phi^T], [-phi, B_phi]]
and the TwoPaths minors C') has det 0 at odd size and Pf^2 at even size.
``_sparse_pfaffian`` computes Pf on full dict rows, both halves of the
matrix, so the rows that hold a column are that column's own keys:

- a leaf, a row i with exactly one nonzero a[i][j], is peeled: expansion
  along row i gives Pf = +-a[i][j] Pf(A without rows and columns i, j), and
  no other row is updated. Peels come first; three in four pivots of the
  contact determinants are peels;
- when no leaf is left, one fraction-free 2 x 2 step (the recurrence of
  ``_skew_rank`` below, on the whole row) pivots on a pair (i, j) with i a
  row of least degree and j its lightest neighbour;
- a row that holds neither column i nor column j would only be scaled by
  a / prev. Those factors telescope, so the row keeps a stamp, the prev it
  was last exact at, and its true entries are stored * prev // stamp; it is
  rescaled once, when a later step touches it or it is peeled;
- exactness: after steps on the pairs of S, each stored entry is
  +-Pf(A[S + {k, l}]) and prev = +-Pf(A[S]); the matrix they stand for is
  the stored one over prev. A peel removes indices without adding them to
  S, so the entries left stay such minors. A step contributes a / prev and
  a leaf a'[i][j] / prev, the values at that moment; the step factors
  telescope, so

      Pf A = +-(last prev) * prod(a'_leaf) / prod(prev at each leaf),

  and that one final division is exact because Pf A is an integer. The
  sign is not tracked, since only Pf^2 is used.
"""
from __future__ import annotations

from itertools import compress, repeat
from operator import add, mod, or_
from struct import Struct


def det_int(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (empty matrix -> 1).

    A skew-symmetric input is 0 at odd size and Pf^2 at even size, the
    Pfaffian from the leaf-peeled sparse elimination; any other input runs
    the dense Bareiss loop, det = swap sign * last pivot (module docstring).
    """
    n = len(rows)
    live = {i: dict(compress(enumerate(row), row)) for i, row in enumerate(rows)}
    if _is_skew_rows(live):
        return 0 if n % 2 else _sparse_pfaffian(live) ** 2
    a, pivots, sign = _bareiss(rows)
    return sign * a[-1][-1] if len(pivots) == n else 0


def _is_skew_rows(live: dict[int, dict[int, int]]) -> bool:
    """Whether the dict rows of a square matrix are skew-symmetric: every
    stored a[i][c] has a[c][i] == -a[i][c], which also rules out a nonzero
    diagonal entry."""
    for i, row in live.items():
        for c, x in row.items():
            if live[c].get(i) != -x:
                return False
    return True


def _sparse_pfaffian(live: dict[int, dict[int, int]]) -> int:
    """Pfaffian, up to sign, of the even-sized skew matrix whose full dict
    rows are ``live``; the rows are consumed.

    Leaf peels and fraction-free 2 x 2 steps with lazy row stamps (module
    docstring).
    """
    if not all(live.values()):
        return 0
    stamp = dict.fromkeys(live, 1)
    leaves = [i for i, row in live.items() if len(row) == 1]
    prev = 1
    num = den = 1
    while live:
        if leaves:
            i = leaves.pop()
            row = live.get(i)
            if row is None or len(row) != 1:
                continue
            # a leaf: Pf = +-a[i][j] Pf(A without i and j), nothing updated
            del live[i]
            ((j, x),) = row.items()
            num *= x * prev // stamp[i]
            den *= prev
            for c in live.pop(j):
                if c != i:
                    rc = live[c]
                    del rc[j]
                    if len(rc) < 2:
                        if not rc:
                            return 0
                        leaves.append(c)
            continue
        # no leaf: a 2 x 2 step on (i, j), i of least degree and j its
        # lightest neighbour
        i = min(live, key=lambda k: len(live[k]))
        P = live.pop(i)
        j = min(P, key=lambda k: len(live[k]))
        Q = live.pop(j)
        t = stamp[i]
        if t != prev:
            P = {c: x * prev // t for c, x in P.items()}
        t = stamp[j]
        if t != prev:
            Q = {c: x * prev // t for c, x in Q.items()}
        a = P.pop(j)
        del Q[i]
        for k in P.keys() | Q.keys():
            old = live[k]
            t = stamp[k]
            pk = old.pop(i, 0)
            qk = old.pop(j, 0)
            if t == prev:
                new = {c: x * a for c, x in old.items()}
            else:
                pk = pk * prev // t
                qk = qk * prev // t
                new = {c: x * prev // t * a for c, x in old.items()}
            # a'[k][l] = (a a[k][l] + a[k][i] a[j][l] - a[k][j] a[i][l]) / prev
            if pk:
                for c, y in Q.items():
                    new[c] = new.get(c, 0) + pk * y
            if qk:
                for c, y in P.items():
                    new[c] = new.get(c, 0) - qk * y
            new = {c: x // prev for c, x in new.items() if x and c != k}
            if len(new) < 2:
                if not new:
                    return 0
                leaves.append(k)
            live[k] = new
            stamp[k] = a
        prev = a
    return prev * num // den


def echelon_int(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form and the list of pivot columns."""
    a, pivots, _ = _bareiss(rows)
    return a, pivots


def _bareiss(rows: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """(echelon form, pivot columns, sign of the row swaps) of the dense
    Bareiss elimination.

    Column skipping preserves the exact-division property: a skipped column is
    zero below the current row from that point on, so the elimination is the
    Bareiss recurrence on the surviving column submatrix.
    """
    a = [row[:] for row in rows]
    n = len(a)
    m = len(a[0]) if n else 0
    pivots: list[int] = []
    sign = 1
    r = 0
    prev = 1
    for c in range(m):
        piv = next((i for i in range(r, n) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pv = a[r][c]
        tail = a[r][c + 1 :]
        for i in range(r + 1, n):
            rowi = a[i]
            f = rowi[c]
            if f:
                rowi[c + 1 :] = [(x * pv - f * y) // prev for x, y in zip(rowi[c + 1 :], tail)]
                rowi[c] = 0
            elif pv != prev:
                # the update with f = 0 only scales the row
                rowi[c + 1 :] = [x * pv // prev for x in rowi[c + 1 :]]
        prev = pv
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a, pivots, sign


def rank_int(rows: list[list[int]]) -> int:
    """Exact rank over the rationals of an integer matrix.

    A skew-symmetric input takes the 2 x 2-pivot Pfaffian elimination
    (module docstring); any other goes through ``echelon_int``.
    """
    if _is_skew(rows):
        return _skew_rank([row[:k] for k, row in enumerate(rows)])
    return len(echelon_int(rows)[1])


def _is_skew(rows: list[list[int]]) -> bool:
    """Whether rows is square with a zero diagonal and a[i][j] == -a[j][i]."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    for row, col in zip(rows, zip(*rows)):
        if any(map(add, row, col)):
            return False
    return True


def _skew_rank(lower: list[list[int]]) -> int:
    """Exact rank of a skew-symmetric matrix given by its strict lower triangle.

    ``lower[k]`` holds a[k][:k]; the lists are consumed. The elimination is
    fraction-free, and its entries are Pfaffian minors (module docstring).
    """
    prev = 1
    pivots = 0
    while lower:
        last = lower.pop()
        s = len(last) - 1
        while s >= 0 and not last[s]:
            s -= 1
        if s < 0:
            # a zero row: its index lies in the kernel
            continue
        # pivot on the pair (n-1, s), a = a[n-1][s]; P = a[n-1][.] and
        # Q = a[s][.] over the other live indices 0..s-1, s+1..n-2
        a = last[s]
        del last[s]
        P = last
        Q = lower.pop(s) + [-row[s] for row in lower[s:]]
        for k, row in enumerate(lower):
            if k >= s:
                del row[s]
            # row covers the live indices below k, the first len(row) of P
            # and Q; index k itself comes next
            pk = P[len(row)]
            qk = Q[len(row)]
            # the update of the module docstring, with only the products
            # whose factor P[k] or Q[k] is nonzero
            if pk:
                if qk:
                    lower[k] = [(a * x + qk * y - pk * z) // prev for x, y, z in zip(row, P, Q)]
                else:
                    lower[k] = [(a * x - pk * z) // prev for x, z in zip(row, Q)]
            elif qk:
                lower[k] = [(a * x + qk * y) // prev for x, y in zip(row, P)]
            elif a != prev:
                lower[k] = [x * a // prev for x in row]
        prev = a
        pivots += 1
    return 2 * pivots


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank mod the prime p of a skew-symmetric integer matrix.

    Always a lower bound for the rational rank: a pivot chain mod p exhibits a
    minor that is nonzero mod p, hence nonzero over Q. Callers exploit this for
    certified early answers (see the index oracle). The elimination runs on
    rows packed one 64-bit word per slot (module docstring). Raises
    ``ValueError`` on a matrix that is not skew-symmetric, and on n rows with
    (p-1) + n (p-1)^2 >= 2^64, where a slot could outgrow its word.
    """
    n = len(rows)
    if (p - 1) + n * (p - 1) ** 2 >= 1 << 64:
        raise ValueError(f"rank_mod: {n} rows mod {p} can overflow a 64-bit slot")
    if not _is_skew(rows):
        raise ValueError("rank_mod: the matrix is not skew-symmetric")
    # res[k] holds the residues of row k in [0, p) until row k is first updated
    res: list[list[int] | None] = [list(map(mod, row, repeat(p))) for row in rows]
    row_struct = Struct(f"<{n}Q")
    write, read, size = row_struct.pack, row_struct.unpack, row_struct.size
    zeros = [0] * n

    def pack(vals: list[int]) -> int:
        return int.from_bytes(write(*vals, *zeros[len(vals) :]), "little")

    def residues(row: int, count: int) -> list[int]:
        # the first count slots of row, reduced mod p
        return list(map(mod, read(row.to_bytes(size, "little"))[:count], repeat(p)))

    packed: list[int | None] = [pack(r) for r in res]
    pivots = 0
    for i in range(n - 1, -1, -1):
        Ri = packed[i]
        if Ri is None:
            # consumed as the partner j of an earlier pivot
            continue
        ri = res[i]
        if ri is None:
            ri = residues(Ri, i)
        j = max(compress(range(i), ri), default=None)
        if j is None:
            # a zero row: its index lies in the kernel
            continue
        Rj = packed[j]
        packed[j] = None
        rj = res[j]
        if rj is None:
            rj = residues(Rj, i)
            Rj = pack(rj)
        if res[i] is None:
            Ri = pack(ri)
        inv = pow(ri[j], -1, p)
        ninv = p - inv
        ri[j] = 0
        for k in compress(range(i), map(or_, ri, rj)):
            packed[k] += ri[k] * ninv % p * Rj + rj[k] * inv % p * Ri
            res[k] = None
        pivots += 1
    return 2 * pivots
