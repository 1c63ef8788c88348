"""Shared fixtures/helpers for the bsdkit test suite."""

import os

import pytest

from bsdkit.groebner import Ideal
from bsdkit.poly import GREVLEX, Polynomial, parse_polynomial
from bsdkit.rings import ZZ, CoefficientRing
from bsdkit.vanishing import ComponentLocus

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def P(text, ring=ZZ, variables=("x", "y"), order=GREVLEX):
    return parse_polynomial(text, ring, variables, order)


def const(c, ring=ZZ, variables=("x", "y"), order=GREVLEX):
    return Polynomial.constant(ring, variables, c, order)


def sect31_locus(ring=ZZ):
    """The worked example: J=(y^2-x^2+2x+2), I=(x+y,2) at p=2."""
    J = Ideal([P("y^2 - x^2 + 2*x + 2", ring)])
    I = Ideal([P("x + y", ring), const(2, ring)])
    return ComponentLocus(J, I, 2)


def criterion2_locus():
    """The criterion-2 workload: J = (y^100 - x^100 + 2x + 2, xz - 2),
    I = (x + y, z, 2) over ZZ/2^18, grevlex."""
    R = CoefficientRing.Zmod(2, 18)
    vs = ("x", "y", "z")
    J = Ideal([parse_polynomial("y^100 - x^100 + 2*x + 2", R, vs, GREVLEX),
               parse_polynomial("x*z - 2", R, vs, GREVLEX)])
    I = Ideal([parse_polynomial("x + y", R, vs, GREVLEX),
               parse_polynomial("z", R, vs, GREVLEX),
               Polynomial.constant(R, vs, 2, GREVLEX)])
    return ComponentLocus(J, I, 2)


@pytest.fixture
def zz():
    return ZZ


@pytest.fixture
def z4():
    return CoefficientRing.Zmod(2, 2)


@pytest.fixture
def z8():
    return CoefficientRing.Zmod(2, 3)


@pytest.fixture
def f2():
    return CoefficientRing.GF(2)


@pytest.fixture
def f3():
    return CoefficientRing.GF(3)
