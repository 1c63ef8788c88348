"""rings: the dense univariate-polynomial layer over ZZ, ZZ/2^3, GF(5),
GF(2^2), GF(3^3) and QQ."""

import itertools
import random
from fractions import Fraction

import pytest

from bsdkit import rings
from bsdkit.rings import (QQ, ZZ, CoefficientRing, RingError, up, up_add,
                          up_divmod, up_gcd, up_is_irreducible,
                          up_is_squarefree, up_mod, up_mul, up_powmod)

RINGS = {
    "ZZ": ZZ,
    "ZZ/2^3": CoefficientRing.Zmod(2, 3),
    "GF(5)": CoefficientRing.GF(5),
    "GF(2^2)": CoefficientRing.GF(2, 2),
    "GF(3^3)": CoefficientRing.GF(3, 3),
    "QQ": QQ,
}


def random_element(R, rng):
    if R.kind == "ZZ":
        return rng.randint(-9, 9)
    if R.kind == "QQ":
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if R.kind in ("Zmod", "GF"):
        return rng.randrange(R.m or R.p)
    return R.coerce(tuple(rng.randrange(R.p) for _ in range(R.k)))


def random_poly(R, rng, degree):
    """A polynomial of the given degree whose leading coefficient is a unit
    (1 over ZZ)."""
    lead = random_element(R, rng)
    if not R.is_unit(lead) or R.kind == "ZZ":
        lead = R.one()
    return up(R, [random_element(R, rng) for _ in range(degree)] + [lead])


def elements(R):
    """Every element of the finite field R."""
    if R.kind == "GF":
        return list(range(R.p))
    return [R.coerce(c) for c in itertools.product(range(R.p), repeat=R.k)]


def degree(a):
    return len(a) - 1


def assert_reduced(R, *polys):
    """Over ZZ/p^e and GF(p) every coefficient is a plain int in [0, m)."""
    if R.kind in ("Zmod", "GF"):
        m = R.m or R.p
        for f in polys:
            assert all(type(c) is int and 0 <= c < m for c in f), (R, f)


@pytest.mark.parametrize("name", sorted(RINGS))
def test_division_gcd_and_composition(name):
    R = RINGS[name]
    rng = random.Random(name)
    for _ in range(15):
        b = random_poly(R, rng, rng.randint(0, 4))
        a = random_poly(R, rng, rng.randint(0, 7))
        q, r = up_divmod(R, a, b)
        qb = up_mul(R, q, b)
        assert up_add(R, qb, r) == a
        assert degree(r) < degree(b)
        assert up_mod(R, a, b) == r
        assert_reduced(R, q, r, qb)
        if not R.is_field():
            continue
        # a common factor shows up in the gcd
        c = random_poly(R, rng, rng.randint(1, 2))
        g = up_gcd(R, up_mul(R, a, c), up_mul(R, b, c))
        assert g and g[-1] == R.one()
        assert not up_mod(R, up_mul(R, a, c), g)
        assert not up_mod(R, up_mul(R, b, c), g)
        assert not up_mod(R, g, c)


@pytest.mark.parametrize("R", [ZZ, CoefficientRing.Zmod(2, 3)],
                         ids=["ZZ", "ZZ/2^3"])
def test_non_unit_lead_refused(R):
    a, b = up(R, (1, 2, 3)), up(R, (1, 2))
    with pytest.raises(RingError):
        up_divmod(R, a, b)
    with pytest.raises(RingError):
        up_mod(R, a, b)


def test_number_rings_make_no_ring_calls(monkeypatch):
    # over ZZ, GF(p), ZZ/p^e and QQ the layer computes on plain numbers;
    # only GF(p^k) elements go through the ring's add/sub/mul
    rings = [ZZ, CoefficientRing.GF(7), CoefficientRing.Zmod(2, 3), QQ,
             CoefficientRing.GF(2, 2)]

    def calls(R):
        a = up(R, (3, 1, 4, 1, 5, 9, 2))
        b = up(R, (2, 7, 1, 1))
        return (up_mul(R, a, b), up_divmod(R, a, b), up_mod(R, a, b),
                up_powmod(R, a, 11, b))

    expected = [calls(R) for R in rings]
    for name in ("add", "sub", "mul"):
        def guarded(self, x, y, generic=getattr(CoefficientRing, name),
                    name=name):
            if self.kind != "GFext":
                raise AssertionError(f"CoefficientRing.{name} over {self!r}")
            return generic(self, x, y)
        monkeypatch.setattr(CoefficientRing, name, guarded)
    assert [calls(R) for R in rings] == expected


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


def smallest_factor_degree(R, f):
    """Degree of the smallest irreducible factor of the monic f, by trial
    division by every monic polynomial of degree <= n/2; None when f is
    irreducible."""
    n = degree(f)
    for d in range(1, n // 2 + 1):
        for c in itertools.product(elements(R), repeat=d):
            if not up_mod(R, f, c + (R.one(),)):
                return d
    return None


def draw_monic(R, rng, n, lowest):
    """A random monic f of degree n with no irreducible factor of degree
    below `lowest`, and the degree of its smallest factor (None when f is
    irreducible)."""
    while True:
        f = up(R, [random_element(R, rng) for _ in range(n)] + [R.one()])
        d = smallest_factor_degree(R, f)
        if d is None or d >= lowest:
            return f, d


def ben_or_cases(R, rng):
    """(f, d) with f monic of degree n <= 8 and d the degree of its
    smallest irreducible factor (None when f is irreducible): a product
    for each d <= n/2, the square of an irreducible of each degree up to
    4, and an irreducible of each degree up to 8."""
    def irreducible(n):
        return draw_monic(R, rng, n, n // 2 + 1)[0]

    cases = [(irreducible(n), None) for n in range(1, 9)]
    cases += [(up_mul(R, g, g), degree(g))
              for g in map(irreducible, range(1, 5))]
    for n in range(2, 9):
        for d in range(1, n // 2 + 1):
            h, _ = draw_monic(R, rng, n - d, d)
            cases.append((up_mul(R, irreducible(d), h), d))
    return cases


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_ben_or_matches_trial_division(monkeypatch, p, k):
    # Ben-Or stops at the rung of f's smallest factor, and an irreducible
    # f takes floor(n/2) rungs, each one up_powmod call
    R = CoefficientRing.GF(p, k)
    rungs = []
    powmod = rings.up_powmod
    monkeypatch.setattr(rings, "up_powmod",
                        lambda *args: rungs.append(1) or powmod(*args))
    for f, d in ben_or_cases(R, random.Random("ben-or")):
        assert smallest_factor_degree(R, f) == d, f
        rungs.clear()
        assert up_is_irreducible(R, f) == (d is None), f
        assert len(rungs) == (degree(f) // 2 if d is None else d), f


def test_squarefree():
    F = CoefficientRing.GF(3)
    assert up_is_squarefree(F, up(F, (1, 1, 1, 1)))        # (x+1)(x^2+1)
    assert not up_is_squarefree(F, up(F, (1, 2, 1)))       # (x+1)^2
    assert not up_is_squarefree(F, up(F, (1, 0, 0, 1)))    # (x+1)^3, f' = 0
    assert up_is_squarefree(QQ, up(QQ, (-1, 0, 1)))
    assert not up_is_squarefree(QQ, up_mul(QQ, up(QQ, (1, 1)),
                                           up(QQ, (1, 1))))
