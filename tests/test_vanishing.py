"""vanishing module: Algorithm 3, truncation, modified chain."""

import random

import pytest

from bsdkit.groebner import Ideal, ideal_contained_in
from bsdkit.poly import GREVLEX, Polynomial, parse_polynomial
from bsdkit.rings import ZZ, CoefficientRing
from bsdkit.vanishing import (ComponentLocus, FunctionVanishesOnCurve,
                              VanishingError, _direct_chain,
                              multiplicity_of_component,
                              rational_function_order, vanishing_order,
                              vanishing_order_truncated)

from conftest import P, const, sect31_locus


class TestVanishingOrder:
    @pytest.mark.parametrize("mode", ["direct", "modified"])
    def test_paper_order_of_two(self, mode):
        res = vanishing_order(const(2), sect31_locus(), mode=mode)
        assert res.order == 2 and res.exact

    def test_unit_has_order_zero(self):
        res = vanishing_order(const(1), sect31_locus())
        assert res.order == 0 and res.exact

    @pytest.mark.parametrize("mode", ["direct", "modified"])
    def test_cube_has_order_three(self, mode):
        f = P("x + y") ** 3
        res = vanishing_order(f, sect31_locus(), mode=mode)
        assert res.order == 3 and res.exact

    def test_f_in_J_rejected(self):
        with pytest.raises(FunctionVanishesOnCurve):
            vanishing_order(P("y^2 - x^2 + 2*x + 2"), sect31_locus())

    def test_zero_rejected(self):
        with pytest.raises(FunctionVanishesOnCurve):
            vanishing_order(P("0"), sect31_locus())

    def test_unknown_mode(self):
        with pytest.raises(VanishingError):
            vanishing_order(const(2), sect31_locus(), mode="fast")

    def test_budget_at_least(self):
        res = vanishing_order(const(2), sect31_locus(), budget=1)
        assert res.order == 1 and not res.exact


class TestLocus:
    def test_generator_not_in_I_rejected(self):
        J = Ideal([P("x^2 + 3")])
        I = Ideal([P("x + y"), const(2)])
        with pytest.raises(VanishingError):
            ComponentLocus(J, I, 2)

    def test_p_not_in_I_rejected(self):
        J = Ideal([P("x*y")])
        I = Ideal([P("x"), P("y")])
        with pytest.raises(VanishingError):
            ComponentLocus(J, I, 2)


class TestTruncation:
    def test_at_threshold_reports_at_least(self):
        # order is 2 >= r=2, so AtLeast(2)
        res = vanishing_order_truncated(const(2), sect31_locus(), r=2, m=1)
        assert res.order == 2 and not res.exact

    def test_below_threshold_exact(self):
        res = vanishing_order_truncated(const(2), sect31_locus(), r=3, m=1)
        assert res.order == 2 and res.exact

    def test_unit(self):
        res = vanishing_order_truncated(const(1), sect31_locus(), r=1, m=1)
        assert res.order == 0 and res.exact

    def test_zero_in_truncated_ring_reports_at_least(self):
        # 4 = 0 in ZZ/2^2 (e = 3 // 2 + 1) and ord(4) = 2 * 2 >= 3
        res = vanishing_order_truncated(const(4), sect31_locus(), r=3, m=2)
        assert res.order == 3 and not res.exact

    def test_in_truncated_curve_reports_at_least(self):
        # f - (y^2 - x^2 + 2x + 2) = 4 lies in J over ZZ/4 but not over ZZ
        f = P("y^2 - x^2 + 2*x + 6")
        res = vanishing_order_truncated(f, sect31_locus(), r=3, m=2)
        assert res.order == 3 and not res.exact

    def test_zero_over_zz_still_raises(self):
        with pytest.raises(FunctionVanishesOnCurve):
            vanishing_order_truncated(const(0), sect31_locus(), r=3, m=2)

    def test_requires_zz(self):
        ring = CoefficientRing.Zmod(2, 4)
        with pytest.raises(VanishingError):
            vanishing_order_truncated(const(2, ring), sect31_locus(ring),
                                      r=2, m=1)


class TestMultiplicity:
    def test_paper_multiplicity_two(self):
        assert multiplicity_of_component(sect31_locus()) == 2

    def test_smooth_fibre_reduced(self):
        vs = ("x", "y")
        J = Ideal([parse_polynomial("y^2 - x^3 - x - 1", ZZ, vs, GREVLEX)])
        I = Ideal([parse_polynomial("y^2 - x^3 - x - 1", ZZ, vs, GREVLEX),
                   Polynomial.constant(ZZ, vs, 5, GREVLEX)])
        assert multiplicity_of_component(ComponentLocus(J, I, 5)) == 1

    def test_xz_minus_two(self):
        vs = ("x", "z")
        J = Ideal([parse_polynomial("x*z - 2", ZZ, vs, GREVLEX)])
        I = Ideal([parse_polynomial("x", ZZ, vs, GREVLEX),
                   Polynomial.constant(ZZ, vs, 2, GREVLEX)])
        assert multiplicity_of_component(ComponentLocus(J, I, 2)) == 1


class TestRationalOrder:
    def test_paper(self):
        assert rational_function_order(const(2), const(1),
                                       sect31_locus()) == 2

    def test_equal_inputs(self):
        f = P("x + y + 1")
        assert rational_function_order(f, f, sect31_locus()) == 0

    def test_antisymmetry(self):
        assert rational_function_order(const(1), const(2),
                                       sect31_locus()) == -2

    def test_factor_lists(self):
        f = P("x + y") ** 2
        got = rational_function_order(
            f, const(1), sect31_locus(),
            f_factors=[P("x + y"), P("x + y")])
        assert got == 2


# ---------------------------------------------------------------------------
# properties

def random_locus(rng, ring=ZZ):
    """Small random loci of the sect-3.1 shape: I = (x+y, p), J in I."""
    p = rng.choice([2, 3, 5])
    vs = ("x", "y")
    x_plus_y = parse_polynomial("x + y", ring, vs, GREVLEX)
    pc = Polynomial.constant(ring, vs, p, GREVLEX)
    # J = u*(x+y)^a * something + p^b * something, guaranteed inside I
    a = rng.randint(1, 2)
    b = rng.randint(1, 2)
    extra = parse_polynomial(
        rng.choice(["x", "y", "x + 1", "y - 1", "x*y + 1"]), ring, vs,
        GREVLEX)
    g1 = (x_plus_y ** a) * extra
    g2 = pc ** b
    J = Ideal([g1 + g2])
    I = Ideal([x_plus_y, pc])
    return ComponentLocus(J, I, p)


def test_mode_equivalence_random():
    rng = random.Random(3)
    count = 0
    while count < 20:
        loc = random_locus(rng)
        f = (parse_polynomial("x + y", ZZ, ("x", "y"), GREVLEX)
             ** rng.randint(0, 2)).scale(loc.p ** rng.randint(0, 1))
        try:
            d = vanishing_order(f, loc, mode="direct", budget=10)
            m = vanishing_order(f, loc, mode="modified", budget=10)
        except FunctionVanishesOnCurve:
            continue
        assert (d.order, d.exact) == (m.order, m.exact)
        count += 1


def test_additivity_of_orders():
    rng = random.Random(5)
    loc = sect31_locus()
    fs = [const(2), P("x + y"), P("x + y + 1"), P("x + 1")]
    for _ in range(8):
        f, g = rng.choice(fs), rng.choice(fs)
        of = vanishing_order(f, loc).order
        og = vanishing_order(g, loc).order
        assert vanishing_order(f * g, loc).order == of + og


def test_direct_chain_descends():
    loc = sect31_locus()
    chain = _direct_chain(loc)
    prev = next(chain)
    for _ in range(4):
        cur = next(chain)
        assert ideal_contained_in(cur, prev)
        prev = cur
