"""rings matrix layer: Gauss-Jordan reduced row echelon form and kernels
over GF(p), GF(p^k) and QQ, against brute force and sympy."""

import itertools
import random
from fractions import Fraction

import pytest

from bsdkit.rings import QQ, CoefficientRing, mat_kernel, mat_rref, up


def random_matrix(rng, elements):
    rows, cols = rng.randint(0, 4), rng.randint(1, 4)
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


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (5, 1), (2, 2)],
                         ids=lambda q: f"GF({q[0]}^{q[1]})")
def test_kernel_is_the_solution_set(q):
    R = CoefficientRing.GF(*q)
    elements = field_elements(R)
    rng = random.Random(f"kernel {q}")
    for _ in range(30):
        rows, ncols = random_matrix(rng, elements)
        zero = [R.zero()] * len(rows)
        solutions = {v for v in itertools.product(elements, repeat=ncols)
                     if apply(R, rows, v) == zero}
        basis = mat_kernel(R, rows, ncols)
        assert span(R, basis, elements, ncols) == solutions
        assert len(solutions) == len(elements) ** len(basis)


def test_kernel_of_empty_matrix():
    F = CoefficientRing.GF(3)
    assert mat_kernel(F, [], 2) == [[1, 0], [0, 1]]
    assert mat_rref(F, []) == ([], [])


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
