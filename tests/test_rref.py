"""Kernels over GF(p) from the Smith form (intmat.kernel_mod_p) against
brute force, and the tests' Gauss-Jordan oracle (conftest.mat_rref) over
GF(p), GF(p^k) and QQ against sympy."""

import itertools
import random
from fractions import Fraction

import pytest

from bsdkit.intmat import kernel_mod_p
from bsdkit.periods import _nonzero_span
from bsdkit.rings import QQ, CoefficientRing, up
from conftest import mat_rref


def random_matrix(rng, elements, min_rows=0):
    rows, cols = rng.randint(min_rows, 4), rng.randint(1, 4)
    return [[rng.choice(elements) for _ in range(cols)]
            for _ in range(rows)], cols


def apply(R, rows, v):
    out = []
    for row in rows:
        acc = R.zero()
        for a, x in zip(row, v):
            acc = R.add(acc, R.mul(a, x))
        out.append(acc)
    return out


def span(R, basis, elements, ncols):
    out = set()
    for coeffs in itertools.product(elements, repeat=len(basis)):
        v = [R.zero()] * ncols
        for c, b in zip(coeffs, basis):
            v = [R.add(x, R.mul(c, y)) for x, y in zip(v, b)]
        out.add(tuple(v))
    return out


def field_elements(R):
    if R.kind == "GF":
        return list(range(R.p))
    return [R.coerce(c) for c in itertools.product(range(R.p), repeat=R.k)]


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (5, 1), (7, 1)],
                         ids=lambda q: f"GF({q[0]}^{q[1]})")
def test_kernel_is_the_solution_set(q):
    R = CoefficientRing.GF(*q)
    p = R.p
    elements = field_elements(R)
    rng = random.Random(f"kernel {q}")
    for _ in range(30):
        rows, ncols = random_matrix(rng, elements, min_rows=1)
        zero = [R.zero()] * len(rows)
        solutions = {v for v in itertools.product(elements, repeat=ncols)
                     if apply(R, rows, v) == zero}
        # the Smith form runs over ZZ: lifts other than [0, p) give the
        # same kernel
        for A in (rows, [[x + p * rng.randint(-3, 3) for x in row]
                         for row in rows]):
            basis = kernel_mod_p(A, p)
            assert all(0 <= x < p for v in basis for x in v)
            assert span(R, basis, elements, ncols) == solutions
            assert len(solutions) == len(elements) ** len(basis)


def test_kernel_of_empty_matrix():
    assert kernel_mod_p([[]], 3) == []
    assert kernel_mod_p([[0, 0]], 3) == [[1, 0], [0, 1]]
    assert mat_rref(CoefficientRing.GF(3), []) == ([], [])


def test_kernel_order_differs_from_rref():
    # ker (0 0 1) mod 2 is one plane from both eliminations, but RREF
    # gives e1, e2 (1 at each free column in turn) and the Smith form,
    # whose first pivot is column 3, gives the columns e2, e1 of V; step 6
    # then lists the plane's nonzero vectors in another order
    F = CoefficientRing.GF(2)
    assert mat_rref(F, [[0, 0, 1]]) == ([[0, 0, 1]], [2])
    rref_basis = [[1, 0, 0], [0, 1, 0]]
    smith_basis = kernel_mod_p([[0, 0, 1]], 2)
    assert smith_basis == [[0, 1, 0], [1, 0, 0]]
    assert span(F, smith_basis, [0, 1], 3) == span(F, rref_basis, [0, 1], 3)
    assert _nonzero_span(smith_basis, 2, 3) != _nonzero_span(rref_basis, 2, 3)


def test_rref_shape():
    # pivots are 1, the rest of each pivot column is 0, zero rows dropped
    red, pivots = mat_rref(QQ, [[0, 2, 4, 1], [0, 1, 2, 0], [0, 3, 6, 1]])
    assert pivots == [1, 3]
    assert red == [[0, 1, 2, 0], [0, 0, 0, 1]]


def test_rref_over_gf4():
    F = CoefficientRing.GF(2, 2)
    g = up(F.prime_field, (0, 1))          # the generator of GF(4)
    red, pivots = mat_rref(F, [[g, F.one()], [F.one(), F.inv(g)]])
    assert (red, pivots) == ([[F.one(), F.inv(g)]], [0])


def test_rref_matches_sympy_over_qq():
    sympy = pytest.importorskip("sympy")
    rng = random.Random("rref QQ")
    for _ in range(40):
        rows, _ = random_matrix(
            rng, [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)])
        if not rows:
            continue
        red, pivots = mat_rref(QQ, rows)
        M, want = sympy.Matrix(rows).rref()
        assert pivots == list(want)
        assert red == [[Fraction(int(x.p), int(x.q)) for x in M.row(i)]
                       for i in range(len(want))]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_sympy_over_gf(p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    F = CoefficientRing.GF(p)
    rng = random.Random(f"rref GF({p})")
    for _ in range(40):
        rows, _ = random_matrix(rng, range(p))
        if not rows:
            continue
        red, pivots = mat_rref(F, rows)
        M, want = DomainMatrix.from_list(rows, GF(p)).rref()
        assert pivots == list(want)
        assert red == [[int(x) % p for x in row]
                       for row in M.to_list()[:len(want)]]
