"""polyring module: rings, polynomials, parsing, derivatives, gcd."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdkit.poly import (GREVLEX, ParseError, Polynomial, PolynomialError,
                         exact_divide, parse_polynomial, poly_gcd)
from bsdkit.rings import (ZZ, CoefficientRing, RingError, is_prime,
                          up_is_irreducible)

from conftest import P, alarm, const


# ---------------------------------------------------------------------------
# parse_polynomial

class TestParse:
    def test_paper_curve_equation(self):
        # "y^2 = x^2 - 2x - 2" rearranged; 4 terms
        f = P("y^2 - x^2 + 2*x + 2")
        assert len(f.terms) == 4
        assert f.terms[(0, 2)] == 1
        assert f.terms[(2, 0)] == -1
        assert f.terms[(1, 0)] == 2
        assert f.terms[(0, 0)] == 2

    def test_zero(self):
        assert P("0").is_zero()
        assert P("0").terms == {}

    def test_modular_reduction(self, z4):
        f = P("2*x + 2", z4)
        assert f.terms == {(1, 0): 2, (0, 0): 2}
        assert P("4*x + 4", z4).is_zero()

    def test_round_trip(self):
        for text in ("y^2 - x^2 + 2*x + 2", "x*y + 3", "x^5 - 1"):
            f = P(text)
            assert P(f.to_string()) == f

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as ei:
            P("x + + y")
        assert ei.value.position is not None

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            P("x + w")

    def test_exponent_overflow(self):
        with pytest.raises(ParseError):
            P("x^70000")


# ---------------------------------------------------------------------------
# arithmetic

class TestArith:
    def test_binomial(self):
        assert P("x + y") * P("x + y") == P("x^2 + 2*x*y + y^2")

    def test_zero_divisors_mod4(self, z4):
        assert (P("2*x + 2", z4) * P("2*y + 2", z4)).is_zero()

    def test_i2_generator(self):
        # (x+y)^2 + (y^2 - x^2 + 2x + 2) = 2y^2 + 2xy + 2x + 2
        got = P("x + y") ** 2 + P("y^2 - x^2 + 2*x + 2")
        assert got == P("2*y^2 + 2*x*y + 2*x + 2")

    def test_ring_mismatch(self, z4):
        with pytest.raises(PolynomialError):
            P("x") + P("x", z4)


# ---------------------------------------------------------------------------
# derivatives

class TestDerivative:
    def test_basic(self):
        assert P("y^2 - x^2 + 2*x + 2").derivative("x") == P("-2*x + 2")

    def test_characteristic_kill(self, f3):
        f = P("x^3", f3)
        assert f.derivative("x").is_zero()

    def test_missing_variable_is_zero(self):
        f = parse_polynomial("x*z - 2", ZZ, ("x", "y", "z"), GREVLEX)
        assert f.derivative("y").is_zero()

    def test_unknown_variable(self):
        with pytest.raises(PolynomialError):
            P("x").derivative("w")


# ---------------------------------------------------------------------------
# gcd

class TestGcd:
    def test_difference_of_squares(self):
        assert poly_gcd(P("x^2 - y^2"), P("x - y")) == P("x - y")

    def test_zero_case(self):
        assert poly_gcd(P("-2*x - 2"), P("0")) == P("2*x + 2")

    def test_content_times_primitive(self):
        g = poly_gcd(P("2*x + 2"), P("4*x^2 - 4"))
        assert g == P("2*x + 2")
        assert exact_divide(P("4*x^2 - 4"), g) is not None

    def test_gcd_divides_both(self):
        a, b = P("x^2*y - y"), P("x^2 - 2*x + 1")
        g = poly_gcd(a, b)
        assert exact_divide(a, g) is not None
        assert exact_divide(b, g) is not None


# ---------------------------------------------------------------------------
# change of coefficients

class TestChangeRing:
    def test_to_zmod_kills_multiples(self, z4):
        assert P("4*y + 4").change_ring(z4).is_zero()

    def test_to_gf2(self, f2):
        assert P("x + 5").change_ring(f2) == P("x + 1", f2)

    def test_zmod_shrink(self, z4, z8):
        assert P("2*x + 3", z8).change_ring(z4) == P("2*x + 3", z4)

    def test_no_canonical_map(self, z4):
        with pytest.raises((PolynomialError, RingError)):
            P("x", z4).change_ring(ZZ)


# ---------------------------------------------------------------------------
# property tests

RINGS = [ZZ, CoefficientRing.Zmod(2, 3), CoefficientRing.GF(5),
         CoefficientRing.GF(2, 2)]


def poly_strategy(ring, variables=("x", "y")):
    n = len(variables)
    exp = st.tuples(*[st.integers(0, 3)] * n)
    if ring.kind == "GFext":
        coeff = st.lists(st.integers(0, ring.p - 1), min_size=0,
                         max_size=ring.k).map(tuple)
    else:
        coeff = st.integers(-7, 7)
    term = st.tuples(exp, coeff)
    return st.lists(term, max_size=5).map(
        lambda items: Polynomial.from_terms(
            ring, variables,
            [(e, ring.coerce(c)) for e, c in items],
            GREVLEX))


@pytest.mark.parametrize("ring", RINGS, ids=[r.kind for r in RINGS])
def test_ring_axioms(ring):
    @settings(max_examples=60, deadline=None)
    @given(poly_strategy(ring), poly_strategy(ring), poly_strategy(ring))
    def inner(a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    inner()


@settings(max_examples=60, deadline=None)
@given(poly_strategy(ZZ), poly_strategy(ZZ))
def test_product_rule(a, b):
    left = (a * b).derivative("x")
    right = a * b.derivative("x") + b * a.derivative("x")
    assert left == right


@settings(max_examples=60, deadline=None)
@given(poly_strategy(ZZ), poly_strategy(ZZ))
def test_change_ring_is_homomorphism(a, b):
    t = CoefficientRing.Zmod(3, 2)
    assert (a + b).change_ring(t) == a.change_ring(t) + b.change_ring(t)
    assert (a * b).change_ring(t) == a.change_ring(t) * b.change_ring(t)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(ZZ), poly_strategy(ZZ), poly_strategy(ZZ))
def test_gcd_scaling(a, b, c):
    if a.is_zero() and b.is_zero():
        return
    g = poly_gcd(a, b)
    assert exact_divide(a, g) is not None or a.is_zero()
    assert exact_divide(b, g) is not None or b.is_zero()
    if not c.is_zero():
        gc = poly_gcd(a * c, b * c)
        # gcd(ac, bc) = gcd(a,b) * c up to normalization
        assert exact_divide(gc, g) is not None
        assert exact_divide(gc, poly_gcd(c, gc)) is not None


@settings(max_examples=60, deadline=None)
@given(poly_strategy(ZZ))
def test_print_parse_round_trip(f):
    assert parse_polynomial(f.to_string(), ZZ, f.variables, GREVLEX) == f


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97}
    for n in range(2, 100):
        assert is_prime(n) == (n in primes or all(n % d for d in
                                                  range(2, n)))


def test_is_prime_rejects_strong_pseudoprimes_to_small_bases():
    # strong pseudoprimes to the prime bases 2..37 and 2..41 respectively
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)
    for e in (61, 89, 127):
        assert is_prime(2 ** e - 1)


def test_finite_field_modulus_checked():
    with pytest.raises(RingError):
        CoefficientRing.GF(2, 2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2


def test_field_degree_capped_before_modulus_search(monkeypatch):
    from bsdkit import rings

    def search(p, k):
        raise AssertionError("modulus search ran past the cap")

    monkeypatch.setattr(rings, "find_irreducible", search)
    with pytest.raises(RingError, match="exceeds the cap 64"):
        CoefficientRing.GF(2, rings.MAX_FIELD_DEGREE + 1)
    with pytest.raises(RingError, match="exceeds the cap 64"):
        CoefficientRing.GF(3, 65, modulus=(1,) * 66)
    # k * bit_length(p) above MAX_FIELD_BITS: 5 * 64 and 20 * 32
    with pytest.raises(RingError, match="320 exceeds the cap 256"):
        CoefficientRing.GF(17, 64)
    with pytest.raises(RingError, match="640 exceeds the cap 256"):
        CoefficientRing.GF(1000003, 32, modulus=(1,) * 33)


@pytest.mark.parametrize("p, k", [(13, 64), (2 ** 127 - 1, 2)])
def test_field_size_cap_admits_its_bound(p, k):
    # 4 * 64 = 256 and 127 * 2 = 254 bits
    R = CoefficientRing.GF(p, k)
    assert R.k == k and len(R.modulus) == k + 1


def first_irreducible_by_full_scan(p, k):
    # the scan without the binomial skip: every candidate from x^k on
    F = CoefficientRing.GF(p)
    for c in itertools.product(range(p), repeat=k):
        f = tuple(reversed(c)) + (1,)
        if up_is_irreducible(F, f):
            return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_binomial_skip_matches_capelli_and_full_scan(p):
    from bsdkit.rings import _binomials_reducible, find_irreducible
    F = CoefficientRing.GF(p)
    for k in range(2, 9):
        irreducible = [c for c in range(p)
                       if up_is_irreducible(F, (c,) + (0,) * (k - 1) + (1,))]
        assert _binomials_reducible(p, k) == (not irreducible), (p, k)
        if p ** k <= 5000:
            assert find_irreducible(p, k) == \
                first_irreducible_by_full_scan(p, k), (p, k)


@pytest.mark.parametrize("p,k,modulus", [
    (521, 3, (7, 1, 0, 1)),         # 3 does not divide 520
    (523, 4, (1, 1, 0, 0, 1)),      # 523 = 3 mod 4
    (1009, 3, (2, 0, 0, 1)),        # a binomial: 3 divides 1008
    (1000003, 4, (1, 1, 0, 0, 1)),  # 1000003 = 3 mod 4
])
def test_modulus_search_for_large_p(p, k, modulus):
    # the moduli of the full scan; the first two skip all p binomials
    with alarm(10):
        R = CoefficientRing.GF(p, k)
    assert R.modulus == modulus
    if p < 2000:
        assert first_irreducible_by_full_scan(p, k) == modulus
    assert R.mul(R.inv((5, 7)), (5, 7)) == R.one()


def test_modulus_search_capped(monkeypatch):
    # GF(23^7) tests 104 candidates; an explicit modulus skips the search
    from bsdkit import rings
    monkeypatch.setattr(rings, "MAX_MODULUS_CANDIDATES", 103)
    with pytest.raises(RingError, match="first 103 candidates tested"):
        CoefficientRing.GF(23, 7)
    monkeypatch.setattr(rings, "MAX_MODULUS_CANDIDATES", 104)
    modulus = CoefficientRing.GF(23, 7).modulus
    monkeypatch.setattr(rings, "MAX_MODULUS_CANDIDATES", 0)
    R = CoefficientRing.GF(23, 7, modulus=modulus)
    assert R.modulus == modulus
