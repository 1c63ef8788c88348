"""Exact integer linear algebra: Hermite and Smith normal forms, and
one fraction-free (Bareiss) elimination for rank, determinant and
rational solutions.

Matrices are lists of rows of Python ints.  All transforms returned are
unimodular, so every identity below holds exactly over ZZ.  The Smith
form pivots on the smallest entry, which keeps its transforms small.  It
keeps only D and a log of its elementary operations; the transforms, or
just the rows and columns a caller reads, are replayed from the log.
The Smith form also gives kernels over GF(p) (kernel_mod_p), so the
library's linear algebra is this Smith form and the Bareiss pass; the
Hermite form serves only the brute-force oracles.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .rings import xgcd

Matrix = List[List[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if not A:
        return []
    n, k = len(A), len(A[0])
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                row = out[i]
                for j in range(m):
                    row[j] += a * Bt[j]
    return out


def mat_vec(A: Matrix, v: List[int]) -> List[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def _swap_cols(A, i, j):
    for row in A:
        row[i], row[j] = row[j], row[i]


def _addmul_col(A, dst, src, c):
    if c:
        for row in A:
            row[dst] += c * row[src]


def hermite_normal_form(A: Matrix) -> Tuple[Matrix, Matrix]:
    """Column-style HNF: returns (H, V) with A·V = H, V unimodular.

    H is in column echelon form: pivots positive, zero entries above each
    pivot, entries to the left of a pivot in its row reduced into
    [0, pivot); zero columns pushed to the far right.
    """
    if not A:
        return [], []
    n, m = len(A), len(A[0])
    H = [row[:] for row in A]
    V = identity(m)
    col = 0
    for row_i in range(n):
        if col >= m:
            break
        # clear row_i across columns col..m-1 down to a single pivot
        pivot = None
        for j in range(col, m):
            if H[row_i][j]:
                pivot = j
                break
        if pivot is None:
            continue
        for j in range(pivot + 1, m):
            if not H[row_i][j]:
                continue
            a, b = H[row_i][pivot], H[row_i][j]
            # unimodular 2-column transform sending (a, b) -> (g, 0)
            g, x, y = xgcd(a, b)
            _combine_cols((H, V), pivot, j, x, y, -(b // g), a // g)
        if pivot != col:
            _swap_cols(H, pivot, col)
            _swap_cols(V, pivot, col)
        if H[row_i][col] < 0:
            for M in (H, V):
                for row in M:
                    row[col] = -row[col]
        # reduce entries to the LEFT of the pivot in this row
        p = H[row_i][col]
        for j in range(col):
            q = H[row_i][j] // p
            if q:
                _addmul_col(H, j, col, -q)
                _addmul_col(V, j, col, -q)
        col += 1
    return H, V


def _combine_cols(mats, i, j, a, b, c, d):
    """(col_i, col_j) <- (a·col_i + b·col_j, c·col_i + d·col_j) in each
    matrix of mats."""
    for M in mats:
        for row in M:
            x, y = row[i], row[j]
            row[i] = a * x + b * y
            row[j] = c * x + d * y


def kernel_basis(A: Matrix) -> Matrix:
    """Columns spanning {x : A·x = 0}, returned as an m×r matrix in HNF."""
    if not A or not A[0]:
        m = len(A[0]) if A else 0
        return identity(m)
    H, V = hermite_normal_form(A)
    m = len(A[0])
    ker_cols = [j for j in range(m) if all(H[i][j] == 0 for i in range(len(A)))]
    if not ker_cols:
        return [[] for _ in range(m)]
    K = [[V[i][j] for j in ker_cols] for i in range(m)]
    KH, _ = hermite_normal_form(K)
    return KH


Op = Tuple[int, int, int]
SmithLog = Tuple[List[Op], List[Op]]


def smith_normal_form(A: Matrix) -> Tuple[Matrix, SmithLog]:
    """Returns (D, (row_ops, col_ops)) with U·A·V = D diagonal,
    d_1 | d_2 | ..., d_i >= 0, where U is the product of the row
    operations and V of the column operations, in the order logged.

    Euclidean elimination (Cohen, Alg. 2.4.14) by swaps and adding a
    multiple of one row or column to another.  The pivot is the smallest
    nonzero |entry| of the trailing block, so a remainder left in its row
    or column is a strictly smaller next pivot.  Only D is kept: an op
    (i, j, c) on rows or columns swaps lines i and j if c = 0, negates
    line i if i = j, and else adds c times line j to line i.
    smith_transforms, transform_rows and inverse_columns replay the log.

    Rows t and below are zero left of column t, so a row operation runs
    over the nonzero entries of its source row from column t on; a column
    operation changes only the rows with a nonzero entry in column t.
    """
    n = len(A)
    m = len(A[0]) if A else 0
    D = [row[:] for row in A]
    row_ops: List[Op] = []
    col_ops: List[Op] = []

    def add_row(dst, src, c, support):
        row, add = D[dst], D[src]
        for j in support:
            row[j] += c * add[j]
        row_ops.append((dst, src, c))

    t = 0
    while t < min(n, m):
        # smallest nonzero |entry|, the first on a tie; the row of the
        # first unit ends the scan
        best = 0
        for i in range(t, n):
            a = min(map(abs, filter(None, D[i][t:])), default=0)
            if a and (not best or a < best):
                i0, best = i, a
                if a == 1:
                    break
        if not best:
            break
        j0 = [*map(abs, D[i0])].index(best, t)
        if i0 != t:
            D[t], D[i0] = D[i0], D[t]
            row_ops.append((t, i0, 0))
        if j0 != t:
            for row in D[t:]:
                row[t], row[j0] = row[j0], row[t]
            col_ops.append((t, j0, 0))
        # reduce column t, then row t, by floor division
        Dt = D[t]
        p = Dt[t]
        support = [j for j in range(t, m) if Dt[j]]
        for i in [i for i in range(t + 1, n) if D[i][t]]:
            add_row(i, t, -(D[i][t] // p), support)
        live = [row for row in D[t:] if row[t]]
        for j in support[1:]:
            q = Dt[j] // p
            if q:
                for row in live:
                    row[j] -= q * row[t]
                col_ops.append((j, t, -q))
        if len(live) > 1 or any(Dt[t + 1:]):
            continue  # a remainder is the next, smaller pivot
        # make the pivot divide the rest of the block (a unit does)
        bad = abs(p) > 1 and next((i for i in range(t + 1, n)
                                   if any(x % p for x in D[i][t + 1:])), 0)
        if bad:
            add_row(t, bad, 1, range(t + 1, m))    # D[bad][t] = 0
            continue
        if p < 0:
            Dt[t] = -p
            row_ops.append((t, t, -1))
        t += 1
    return D, (row_ops, col_ops)


def _replay(ops: List[Op], lines: List[int], size: int,
            inverse: bool) -> Matrix:
    """The unit vectors e_k, k in lines, of length size, run backwards
    through ops.  An add op (i, j, c) sets v[j] += c·v[i], which gives
    rows of U from row ops and columns of V from column ops; with inverse
    it sets v[i] -= c·v[j], which gives columns of U^-1 from row ops."""
    vecs = [[0] * size for _ in lines]
    for v, k in zip(vecs, lines):
        v[k] = 1
    for i, j, c in reversed(ops):
        if not c:
            for v in vecs:
                v[i], v[j] = v[j], v[i]
        elif i == j:
            for v in vecs:
                v[i] = -v[i]
        elif inverse:
            for v in vecs:
                v[i] -= c * v[j]
        else:
            for v in vecs:
                v[j] += c * v[i]
    return vecs


def transform_rows(log: SmithLog, lines: List[int], n: int) -> Matrix:
    """Rows s in lines of the n x n row transform U of a Smith form."""
    return _replay(log[0], lines, n, False)


def inverse_columns(log: SmithLog, lines: List[int], n: int) -> Matrix:
    """Columns t in lines of U^-1 for the n x n row transform U of a Smith
    form, each as a list."""
    return _replay(log[0], lines, n, True)


def smith_transforms(D: Matrix, log: SmithLog
                     ) -> Tuple[Matrix, Matrix, Matrix]:
    """All of (U, V, U_inv) for the Smith form D = U·A·V and its log."""
    n = len(D)
    m = len(D[0]) if D else 0
    V_cols = _replay(log[1], list(range(m)), m, False)
    U_inv_cols = inverse_columns(log, list(range(n)), n)
    return (transform_rows(log, list(range(n)), n),
            [list(r) for r in zip(*V_cols)],
            [list(r) for r in zip(*U_inv_cols)])


def kernel_mod_p(A: Matrix, p: int) -> Matrix:
    """A basis of {v : A·v = 0 mod p} for the integer matrix A with at
    least one row and the prime p, each vector with entries in [0, p).

    U and V of the Smith form U·A·V = D are unimodular, so invertible mod
    p, and the kernel is V·ker(D mod p): the columns t of V with t past
    the last row of D or p | d_t, which are independent mod p.
    """
    D, log = smith_normal_form(A)
    m = len(A[0])
    free = [t for t in range(m) if t >= len(D) or D[t][t] % p == 0]
    return [[x % p for x in v] for v in _replay(log[1], free, m, False)]


def invariant_factors(A: Matrix) -> List[int]:
    """Nonzero diagonal entries of the Smith form (d_1 | d_2 | ...)."""
    D = smith_normal_form(A)[0]
    out = []
    for t in range(min(len(D), len(D[0]) if D else 0)):
        if D[t][t]:
            out.append(D[t][t])
    return out


def inverse_unimodular(U: Matrix) -> Matrix:
    """Inverse of a unimodular integer matrix (exact, via SNF transforms)."""
    n = len(U)
    D, log = smith_normal_form(U)
    for t in range(n):
        if D[t][t] != 1:
            raise ValueError("matrix is not unimodular")
    P, Q, _ = smith_transforms(D, log)
    # P·U·Q = I  =>  U^{-1} = Q·P
    return mat_mul(Q, P)


def solve_integer_matrix(A: Matrix, Y: Matrix) -> Optional[Matrix]:
    """An integer X with A·X = Y, or None if some column of Y is not in the
    column lattice of A.  All columns are solved against one Smith form."""
    if not A:
        return []
    n, m = len(A), len(A[0])
    k = len(Y[0])
    D, log = smith_normal_form(A)
    U, V, _ = smith_transforms(D, log)
    W = mat_mul(U, Y)
    Z = [[0] * k for _ in range(m)]
    for i in range(n):
        d = D[i][i] if i < m else 0
        if d:
            if any(w % d for w in W[i]):
                return None
            Z[i] = [w // d for w in W[i]]
        elif any(W[i]):
            return None
    return mat_mul(V, Z)


def solve_integer(A: Matrix, v: List[int]) -> Optional[List[int]]:
    """An integer solution x of A·x = v, or None if none exists."""
    X = solve_integer_matrix(A, [[x] for x in v])
    return None if X is None else [row[0] for row in X]


def _bareiss(A: Matrix) -> Tuple[List[int], int]:
    """Fraction-free (Bareiss) forward elimination of the nonempty
    integer matrix A, in place: the pivot columns in order, and the sign
    of the row permutation.  Row r ends as the r-th pivot row: from its
    pivot column on, it is a multiple of that row of an echelon form of
    A.  When A is square of full rank, its determinant is the sign times
    the last pivot.

    After k pivots each entry left below and right of them is, up to sign,
    a (k+1)-minor of A, so dividing each update by the previous pivot is
    exact (Sylvester's identity) and all arithmetic stays in ZZ.  Entries
    in the pivot column and left of it are never read again, so each
    update touches only the columns right of the pivot.
    """
    rows, cols = len(A), len(A[0])
    pivots: List[int] = []
    prev, sign = 1, 1
    for c in range(cols):
        rank = len(pivots)
        piv = next((r for r in range(rank, rows) if A[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            A[rank], A[piv] = A[piv], A[rank]
            sign = -sign
        p, top = A[rank][c], A[rank][c + 1:]
        for r in range(rank + 1, rows):
            row = A[r]
            a = row[c]
            row[c + 1:] = [(p * x - a * y) // prev
                           for x, y in zip(row[c + 1:], top)]
        prev = p
        pivots.append(c)
    return pivots, sign


def rank_det(M: Matrix) -> Tuple[int, int]:
    """Rank over QQ and determinant of an integer matrix, by one Bareiss
    pass.  The determinant is 0 unless M is square of full rank (1 for the
    empty matrix)."""
    if not M:
        return 0, 1
    A = [list(row) for row in M]
    pivots, sign = _bareiss(A)
    rank = len(pivots)
    return rank, (sign * A[-1][-1] if rank == len(A) == len(A[0]) else 0)


def solve_rational(A: Matrix, n: int) -> Optional[List[List[Fraction]]]:
    """For the n x (n + k) integer matrix A = [M | B], n >= 1, the k
    columns of the solution X over QQ of M X = B, each a list of n
    Fractions; None when M is singular.

    One Bareiss pass over all of A leaves M upper triangular with last
    pivot d = +-det M.  By Cramer's rule d x is integral for each solution
    column x, so the back-substitution for y = d x divides exactly and
    stays in ZZ; each entry becomes a Fraction only at the end.
    """
    A = [list(row) for row in A]
    pivots, _ = _bareiss(A)
    if pivots[:n] != list(range(n)):
        return None
    d = A[n - 1][n - 1]
    out = []
    for k in range(n, len(A[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = A[i]
            y[i] = (d * row[k] - sum(a * b for a, b in
                                     zip(row[i + 1:n], y[i + 1:]))) // row[i]
        out.append([Fraction(v, d) for v in y])
    return out
