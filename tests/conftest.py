"""Shared fixtures/helpers for the bsdkit test suite."""

import contextlib
import os
import random
import signal

import pytest

from bsdkit.compgroup import (Component, OrbitCluster, SpecialFibre,
                              assemble_fibre, expand_orbit)
from bsdkit.groebner import Ideal, ideal_membership
from bsdkit.poly import GREVLEX, MonomialOrder, Polynomial, parse_polynomial
from bsdkit.rings import ZZ, CoefficientRing
from bsdkit.vanishing import ComponentLocus

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


@contextlib.contextmanager
def alarm(seconds):
    """Turn a hang into a failure; the caps, not this, keep a test fast."""
    def hang(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


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


def with_variables(g, variables, order):
    """g re-expressed in ``variables``, a list that contains its own."""
    idx = [variables.index(v) for v in g.variables]
    terms = {}
    for e, c in g.terms.items():
        e2 = [0] * len(variables)
        for i, x in zip(idx, e):
            e2[i] = x
        terms[tuple(e2)] = c
    return Polynomial(g.ring, variables, terms, order)


def intersection_by_elimination(I, f, max_degree=None):
    """Generators of I ∩ (f) by elimination: the t-free elements of a
    strong basis of t*I + (1 - t)*f under lex with the tag t first."""
    lex = MonomialOrder.lex()
    tag = "t"
    while tag in I.variables:
        tag += "_"
    vs = (tag,) + I.variables
    t = Polynomial.variable(I.ring, vs, tag, lex)
    gens = [t * with_variables(g, vs, lex) for g in I.groebner_basis()]
    gens.append((Polynomial.constant(I.ring, vs, 1, lex) - t)
                * with_variables(f, vs, lex))
    E = Ideal(gens, order=lex).groebner_basis(max_degree=max_degree)
    return [Polynomial(I.ring, I.variables,
                       {e[1:]: c for e, c in g.terms.items()}, I.order)
            for g in E if not any(e[0] for e in g.terms)]


def assert_is_quotient(Q, I, f, max_degree=None):
    """Q = (I : f), checked without division: f*Q lies in I, I ∩ (f) (from
    the elimination, which max_degree caps) lies in f*Q, and Q holds the
    annihilator p^(e-v) of f over ZZ/p^e; together f*Q = I ∩ (f) and
    Q = (I : f)."""
    ring = I.ring
    products = [g * f for g in Q.generators]
    assert all(ideal_membership(h, I) for h in products)
    products = [h for h in products if not h.is_zero()]
    fQ = (Ideal(products, order=I.order) if products
          else Ideal.zero_ideal(ring, I.variables, I.order))
    for h in intersection_by_elimination(I, f, max_degree):
        assert ideal_membership(h, fQ)
    v = min(ring.unit_val(c)[0] for c in f.terms.values())
    if v > 0:
        ann = Polynomial.constant(ring, I.variables,
                                  ring.p ** (ring.e - v), I.order)
        assert ideal_membership(ann, Q)


def _cycle(n, p=7, rot=0):
    comps = [Component(f"C{i}", 1) for i in range(n)]
    if n == 1:
        M = [[0]]
    elif n == 2:
        M = [[-2, 2], [2, -2]]
    else:
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            M[i][i] = -2
            M[i][(i + 1) % n] += 1
            M[(i + 1) % n][i] += 1
    frob = {f"C{i}": f"C{(i + rot) % n}" for i in range(n)}
    return SpecialFibre(p, comps, M, frob)


def criterion4_corpus():
    """The criterion-4 fibres: every cycle with n <= 5 and every rotation,
    the star, a multiplicity-2 pair and a doubled edge."""
    out = []
    for n in range(1, 6):
        for rot in range(n):
            out.append(_cycle(n, rot=rot))
    out.append(SpecialFibre(
        3,
        [Component("C", 1), Component("A1", 1), Component("A2", 1),
         Component("A3", 1)],
        [[-3, 1, 1, 1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]],
        {"C": "C", "A1": "A2", "A2": "A3", "A3": "A1"}))
    out.append(SpecialFibre(
        2, [Component("A", 2), Component("B", 1)],
        [[-1, 2], [2, -4]], {"A": "A", "B": "B"}))
    # a larger cyclic group: cycle with a doubled edge
    out.append(SpecialFibre(
        5, [Component("A", 1), Component("B", 1)],
        [[-4, 4], [4, -4]], {"A": "A", "B": "B"}))
    return out


def _random_cluster_fibre(rng):
    m = rng.randint(1, 4)
    # single cluster component with a single ambient link
    link = rng.randint(1, 2)
    cluster = OrbitCluster(
        base_field_exponent=1, copies=m,
        components=[Component("D", 1)],
        internal_intersections=[[-m * link]],
        internal_permutation={"D": "D"},
        ambient_links={"D": {"E": link}})
    frag = expand_orbit(cluster, {"E": "E"})
    # row of D#i: -m*link + link*mult(E) = 0 needs mult(E) = m; row E:
    # -link*m + m*link = 0
    amb = Component("E", m)
    return assemble_fibre(7, [amb], [[-link]], {"E": "E"}, frag)


def _relabel(F, rng):
    n = len(F.components)
    perm = list(range(n))
    rng.shuffle(perm)
    comps = [F.components[perm[i]] for i in range(n)]
    M = [[F.intersections[perm[i]][perm[j]] for j in range(n)]
         for i in range(n)]
    frob = {c.id: F.frobenius[c.id] for c in comps}
    return SpecialFibre(F.p, comps, M, frob)


def criterion5_fibres():
    """The criterion-5 fibres: 25 expanded clusters (m <= 4 copies cycled
    by Frobenius, an ambient component of multiplicity m) drawn with
    random.Random(21), each with three relabelings."""
    rng = random.Random(21)
    out = []
    for _ in range(25):
        F = _random_cluster_fibre(rng)
        out.append((F, [_relabel(F, rng) for _ in range(3)]))
    return out


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
