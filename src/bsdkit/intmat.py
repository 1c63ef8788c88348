"""Exact integer linear algebra: Hermite and Smith normal forms, and
one fraction-free (Bareiss) elimination for rank, determinant and
rational solutions.

Matrices are lists of rows of Python ints.  All transforms returned are
unimodular, so every identity below holds exactly over ZZ.  The Smith
form pivots on the smallest entry, which keeps its transforms small.
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


def smith_normal_form(A: Matrix) -> Tuple[Matrix, Matrix, Matrix, Matrix]:
    """Returns (D, U, V, U_inv) with U·A·V = D diagonal, d_1 | d_2 | ...,
    d_i >= 0, and U·U_inv = I.

    Euclidean elimination (Cohen, Alg. 2.4.14) by swaps and adding a
    multiple of one row or column to another.  The pivot is the smallest
    nonzero |entry| of the trailing block, so a remainder left in its row
    or column is a strictly smaller next pivot.  U_inv is kept as the
    elimination runs: the inverse of each row operation on U is applied
    to the columns of U_inv.
    """
    n = len(A)
    m = len(A[0]) if A else 0
    D = [row[:] for row in A]
    U, U_inv, V = identity(n), identity(n), identity(m)

    def add_row(dst, src, c):
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]
        _addmul_col(U_inv, src, dst, -c)

    t = 0
    while t < min(n, m):
        # smallest nonzero |entry|, the first on a tie; the row of the
        # first unit ends the scan
        best = 0
        for i in range(t, n):
            for j in range(t, m):
                a = abs(D[i][j])
                if a and (not best or a < best):
                    i0, j0, best = i, j, a
            if best == 1:
                break
        if not best:
            break
        if i0 != t:
            D[t], D[i0] = D[i0], D[t]
            U[t], U[i0] = U[i0], U[t]
            _swap_cols(U_inv, t, i0)
        if j0 != t:
            _swap_cols(D, t, j0)
            _swap_cols(V, t, j0)
        # reduce column t, then row t, by floor division
        p = D[t][t]
        for i in range(t + 1, n):
            if D[i][t]:
                add_row(i, t, -(D[i][t] // p))
        for j in range(t + 1, m):
            q = D[t][j] // p
            if q:
                _addmul_col(D, j, t, -q)
                _addmul_col(V, j, t, -q)
        if any(D[i][t] for i in range(t + 1, n)) or any(D[t][t + 1:]):
            continue  # a remainder is the next, smaller pivot
        # make the pivot divide the rest of the block (a unit does)
        bad = abs(p) > 1 and next((i for i in range(t + 1, n)
                                   if any(x % p for x in D[i][t + 1:])), 0)
        if bad:
            add_row(t, bad, 1)
            continue
        if p < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
            for row in U_inv:
                row[t] = -row[t]
        t += 1
    return D, U, V, U_inv


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
    D, P, Q, _ = smith_normal_form(U)
    for t in range(n):
        if D[t][t] != 1:
            raise ValueError("matrix is not unimodular")
    # P·U·Q = I  =>  U^{-1} = Q·P
    return mat_mul(Q, P)


def solve_integer_matrix(A: Matrix, Y: Matrix) -> Optional[Matrix]:
    """An integer X with A·X = Y, or None if some column of Y is not in the
    column lattice of A.  All columns are solved against one Smith form."""
    if not A:
        return []
    n, m = len(A), len(A[0])
    k = len(Y[0])
    D, U, V, _ = smith_normal_form(A)
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
