"""rings: the dense univariate-polynomial layer over GF(p), GF(p^k) and QQ."""

import itertools
import random
from fractions import Fraction

import pytest

from bsdkit.rings import (QQ, CoefficientRing, up, up_add, up_divmod, up_gcd,
                          up_is_irreducible, up_is_squarefree, up_mod, up_mul)

RINGS = {
    "GF(5)": CoefficientRing.GF(5),
    "GF(2^2)": CoefficientRing.GF(2, 2),
    "GF(3^3)": CoefficientRing.GF(3, 3),
    "QQ": QQ,
}


def random_element(R, rng):
    if R.kind == "QQ":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if R.kind == "GF":
        return rng.randrange(R.p)
    return R.coerce(tuple(rng.randrange(R.p) for _ in range(R.k)))


def random_poly(R, rng, degree):
    lead = random_element(R, rng) or R.one()
    return up(R, [random_element(R, rng) for _ in range(degree)] + [lead])


def elements(R):
    """Every element of the finite field R."""
    if R.kind == "GF":
        return list(range(R.p))
    return [R.coerce(c) for c in itertools.product(range(R.p), repeat=R.k)]


def degree(a):
    return len(a) - 1


@pytest.mark.parametrize("name", sorted(RINGS))
def test_division_gcd_and_composition(name):
    R = RINGS[name]
    rng = random.Random(name)
    for _ in range(15):
        b = random_poly(R, rng, rng.randint(0, 4))
        a = random_poly(R, rng, rng.randint(0, 7))
        q, r = up_divmod(R, a, b)
        assert up_add(R, up_mul(R, q, b), r) == a
        assert degree(r) < degree(b)
        # a common factor shows up in the gcd
        c = random_poly(R, rng, rng.randint(1, 2))
        g = up_gcd(R, up_mul(R, a, c), up_mul(R, b, c))
        assert g and g[-1] == R.one()
        assert not up_mod(R, up_mul(R, a, c), g)
        assert not up_mod(R, up_mul(R, b, c), g)
        assert not up_mod(R, g, c)


def test_qq_never_yields_floats():
    a = up(QQ, (1, 0, 1))
    b = up(QQ, (0, 3))
    q, r = up_divmod(QQ, a, b)
    assert all(isinstance(c, Fraction) for c in q + r)
    assert isinstance(QQ.inv(3), Fraction) and QQ.inv(3) == Fraction(1, 3)
    g = up_gcd(QQ, (0, 2), (0, 0, 6))
    assert g == (0, 1) and all(isinstance(c, Fraction) for c in g)


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p,k,max_n", [(2, 1, 6), (3, 1, 4), (2, 2, 3)])
def test_irreducible_count_matches_necklace_formula(p, k, max_n):
    R = CoefficientRing.GF(p, k)
    q = p ** k
    elems = elements(R)
    for n in range(1, max_n + 1):
        expected = sum(mobius(d) * q ** (n // d)
                       for d in range(1, n + 1) if n % d == 0) // n
        found = sum(up_is_irreducible(R, c + (R.one(),))
                    for c in itertools.product(elems, repeat=n))
        assert found == expected, (q, n)


def test_squarefree():
    F = CoefficientRing.GF(3)
    assert up_is_squarefree(F, up(F, (1, 1, 1, 1)))        # (x+1)(x^2+1)
    assert not up_is_squarefree(F, up(F, (1, 2, 1)))       # (x+1)^2
    assert not up_is_squarefree(F, up(F, (1, 0, 0, 1)))    # (x+1)^3, f' = 0
    assert up_is_squarefree(QQ, up(QQ, (-1, 0, 1)))
    assert not up_is_squarefree(QQ, up_mul(QQ, up(QQ, (1, 1)),
                                           up(QQ, (1, 1))))
