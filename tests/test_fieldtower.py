"""fieldtower module: inert towers, subfield registry, discriminant
descent, resultants, compositions over ZZ."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

import bsdkit.fieldtower as fieldtower
import bsdkit.intmat as intmat
from bsdkit.fieldtower import (FieldTower, FieldTowerError, _compose_mod,
                               _TowerAlgebra, discriminant, extend_inert,
                               is_inert, minimal_polynomial,
                               optimise_discriminant, resultant,
                               subfield_property_check)
from bsdkit.intmat import rank_det
from bsdkit.rings import (QQ, ZZ, CoefficientRing, up, up_add,
                          up_is_irreducible, up_mod, up_mul, up_scale, up_sub)
from conftest import alarm, mat_rref

uq = partial(up, QQ)


def uq_compose_mod(a, b, mod):
    """a(b) mod `mod` by Horner over Fractions: the oracle of _compose_mod."""
    acc = ()
    for c in reversed(a):
        acc = up_mod(QQ, up_add(QQ, up_mul(QQ, acc, b), (c,)), mod)
    return acc


# ---------------------------------------------------------------------------
# minimal polynomials in QQ[x, y]/(x^2 - 2, y^2 - 3) = QQ(sqrt 2, sqrt 3)

class TestMinimalPolynomial:
    alg = _TowerAlgebra((-2, 0, 1), [(-3,), (), (1,)])

    def test_primitive_element(self):
        theta = self.alg.add(self.alg.x_elem(), self.alg.y_elem())
        # theta^3 = 11x + 9y, so x = (theta^3 - 9 theta)/2
        assert minimal_polynomial(self.alg, theta) == (
            (1, 0, -10, 0, 1), uq((0, Fraction(-9, 2), 0, Fraction(1, 2))),
            uq((0, Fraction(11, 2), 0, Fraction(-1, 2))))

    def test_singular_system(self):
        # x has degree 2: 1, x, x^2, x^3 are dependent
        assert minimal_polynomial(self.alg, self.alg.x_elem()) is None


def _fraction_mul(f1, H, a, b):
    """a * b in QQ[x, y]/(f1, H) with Fraction coefficients."""
    ell = len(H) - 1
    conv = [()] * (2 * ell - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            conv[i + j] = up_add(QQ, conv[i + j], up_mul(QQ, u, v))
    for d in range(2 * ell - 2, ell - 1, -1):
        c, conv[d] = conv[d], ()
        for j in range(ell):
            conv[d - ell + j] = up_sub(QQ, conv[d - ell + j],
                                       up_mul(QQ, c, H[j]))
    return [up_mod(QQ, c, f1) for c in conv[:ell]]


def fraction_minimal_polynomial(alg, theta):
    """The oracle of minimal_polynomial: the powers of theta multiplied
    over QQ, and one Gauss-Jordan elimination of [M | theta^N, x, y] by
    mat_rref over QQ."""
    f1, H = uq(alg.f1), [uq(c) for c in alg.H]
    N, n, ell = alg.dim, alg.n, alg.ell

    def coords(a):
        out = [Fraction(0)] * N
        for j, c in enumerate(a):
            for i, v in enumerate(c):
                out[j * n + i] = v
        return out

    theta = [uq(c) for c in theta]
    cur = [uq((1,))] + [()] * (ell - 1)
    cols = []
    for _ in range(N):
        cols.append(coords(cur))
        cur = _fraction_mul(f1, H, cur, theta)
    x = [up_mod(QQ, uq((0, 1)), f1)] + [()] * (ell - 1)
    y = [(), uq((1,))] + [()] * (ell - 2)
    cols += [coords(cur), coords(x), coords(y)]
    red, pivots = mat_rref(QQ, [list(row) for row in zip(*cols)])
    if pivots[:N] != list(range(N)):
        return None
    a, cx, cy = ([row[N + j] for row in red] for j in range(3))
    g = uq([-v for v in a] + [1])
    if len(g) != N + 1 or any(c.denominator != 1 for c in g):
        return None
    return tuple(c.numerator for c in g), uq(cx), uq(cy)


def _random_inert(rng, p, n):
    """A monic integer f of degree n, irreducible mod p, with random
    multiples of p on top of its residue."""
    F = CoefficientRing.GF(p)
    while True:
        fbar = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        if up_is_irreducible(F, fbar):
            return tuple(c + p * rng.randint(-3, 3) for c in fbar[:-1]) + (1,)


def _shifted_y(alg, s, c):
    """theta = y + s x^c, the candidates of FieldTower.node_for."""
    t = alg.zero()
    t[0] = (1,)
    for _ in range(c):
        t = alg.mul(t, alg.x_elem())
    return alg.add(alg.y_elem(), alg.scale(t, s))


def test_minimal_polynomial_matches_fraction_route():
    rng = random.Random(41)
    kinds = Counter()
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        n, ell = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2), (4, 2),
                             (2, 5), (3, 3), (4, 3)))
        f1 = _random_inert(rng, p, n)
        kind = rng.choice(("chain", "compositum"))
        if kind == "chain":
            # H over ZZ[x], monic in y
            H = [tuple(rng.randint(-4, 4) for _ in range(n))
                 for _ in range(ell)] + [(1,)]
        else:
            H = [(c,) for c in _random_inert(rng, p, ell)]
        alg = _TowerAlgebra(f1, H)
        thetas = {"y": alg.y_elem(), "x": alg.x_elem(),
                  "shift": _shifted_y(alg, rng.choice((1, -1, 2, -3)),
                                      rng.randint(1, 3)),
                  "random": [tuple(rng.randint(-3, 3) for _ in range(n))
                             for _ in range(ell)]}
        for name, theta in thetas.items():
            got = minimal_polynomial(alg, theta)
            assert got == fraction_minimal_polynomial(alg, theta), \
                (f1, H, name)
            kinds[kind, name, got is not None] += 1
            if name == "x" or (kind == "compositum" and name == "y"
                               and n > 1):
                # x has degree at most n, and y over QQ at most ell
                assert got is None
            if got is not None:
                g, wx, wy = got
                assert all(isinstance(c, Fraction) for c in wx + wy)
    assert kinds["chain", "y", True] >= 30, kinds
    assert kinds["compositum", "shift", True] >= 30, kinds
    assert kinds["chain", "x", False] >= 30, kinds


def test_minimal_polynomial_matches_sympy():
    # coprime degrees, so QQ(x, y) has degree n * ell and the
    # minimal polynomial of y + s x^c does not depend on the roots taken
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("X")
    rng = random.Random(43)
    checked = 0
    for p in (2, 3, 5):
        for n, ell in ((2, 3), (3, 2), (4, 3), (3, 4), (2, 5)):
            f1, f2 = _random_inert(rng, p, n), _random_inert(rng, p, ell)
            alg = _TowerAlgebra(f1, [(c,) for c in f2])
            s, c = rng.choice((1, -1, 2)), rng.randint(1, 2)
            got = minimal_polynomial(alg, _shifted_y(alg, s, c))
            if got is None:
                continue
            roots = [sympy.CRootOf(sum(v * X ** i for i, v in enumerate(f)),
                                   0) for f in (f1, f2)]
            expected = sympy.Poly(sympy.minimal_polynomial(
                roots[1] + s * roots[0] ** c, X), X)
            assert got[0] == tuple(reversed(expected.all_coeffs())), \
                (f1, f2, s, c)
            checked += 1
    assert checked >= 12


# ---------------------------------------------------------------------------
# is_inert

class TestIsInert:
    def test_x2_x_1_mod2(self):
        assert is_inert((1, 1, 1), 2)

    def test_x2_minus_1_mod3_splits(self):
        assert not is_inert((-1, 0, 1), 3)

    def test_paper_quartic(self):
        # K = QQ[a]/(a^4+a+1) with 2 inert
        assert is_inert((1, 1, 0, 0, 1), 2)

    def test_non_monic_rejected(self):
        with pytest.raises(FieldTowerError):
            is_inert((1, 2), 2)

    def test_non_squarefree_rejected(self):
        with pytest.raises(FieldTowerError):
            is_inert((1, 2, 1), 2)  # (x+1)^2


# ---------------------------------------------------------------------------
# resultant / discriminant

class TestResultant:
    def test_linear_pair(self):
        # Res(x - 2, x - 3) = (2 - 3)
        assert resultant((-2, 1), (-3, 1)) == -1
        assert resultant((-3, 1), (-2, 1)) == 1

    def test_trailing_zeros_do_not_count(self):
        # Res(1, x - 2) = 1; (1, 0) is the constant 1, not 1 + 0 x
        assert resultant((1, 0), (-2, 1)) == 1
        assert resultant((-2, 1, 0), (-3, 1)) == resultant((-2, 1),
                                                           (-3, 1)) == -1

    def test_constant_zero_and_common_factor(self):
        assert resultant((3,), (1, 2, 1)) == 9           # c^deg
        assert resultant((1, 2, 1), (3,)) == 9
        assert resultant((), (1, 1)) == resultant((0, 0), (1, 1)) == 0
        assert resultant((-1, 0, 1), (1, 1)) == 0        # x + 1 divides

    def test_discriminant_quadratic(self):
        # disc(x^2+bx+c) = b^2-4c
        assert discriminant((1, 1, 1)) == -3
        assert discriminant((-1, 0, 1)) == 4

    def test_discriminant_cubic(self):
        # disc(x^3+px+q) = -4p^3-27q^2
        assert discriminant((1, 1, 0, 1)) == -4 - 27

    def test_discriminant_of_linear_and_repeated_root(self):
        assert discriminant((5, 1)) == 1
        assert discriminant((1, 2, 1)) == 0           # (x+1)^2
        assert discriminant((0, 0, -1, 0, 1)) == 0    # x^2 (x^2 - 1)


def _random_monic(rng, n, bits):
    return tuple(rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)) + (1,)


def _sylvester_resultant(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix: the oracle of
    `resultant`, on the degrees of the trimmed f and g."""
    f = up(ZZ, f)
    g = up(ZZ, g)
    if not f or not g:
        return 0
    n, m = len(f) - 1, len(g) - 1
    S = [[0] * (n + m) for _ in range(n + m)]
    for i in range(m):
        for j, c in enumerate(reversed(f)):
            S[i][i + j] = c
    for i in range(n):
        for j, c in enumerate(reversed(g)):
            S[m + i][i + j] = c
    return rank_det(S)[1]


def _sylvester_discriminant(f):
    n = len(f) - 1
    fp = tuple(i * f[i] for i in range(1, n + 1))
    return (-1) ** (n * (n - 1) // 2) * _sylvester_resultant(f, fp)


def test_discriminant_matches_sylvester():
    # a 512-bit Sylvester determinant of degree 24 alone takes about 3 s
    rng = random.Random(2024)
    cases = [(n, (1, 5, 64, 512 if n <= 12 else 128)[n % 4])
             for n in range(1, 25)]
    for n, bits in cases + [(24, 512)]:
        f = _random_monic(rng, n, bits)
        assert discriminant(f) == _sylvester_discriminant(f), (n, bits)


def _random_poly(rng, degree, bits):
    """Degree -1 is the zero polynomial, given as () or as zeros."""
    if degree < 0:
        return rng.choice(((), (0,), (0, 0)))
    c = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(degree)]
    return tuple(c) + (rng.choice((-1, 1)) * rng.randint(1, 2 ** bits),)


def test_resultant_matches_sylvester_on_random_pairs():
    rng = random.Random(13)
    kinds = Counter()
    for _ in range(2400):
        bits = rng.randint(1, 40)
        f = _random_poly(rng, rng.randint(-1, 9), bits)
        g = _random_poly(rng, rng.randint(-1, 9), bits)
        if rng.random() < 0.3:
            h = _random_poly(rng, rng.randint(1, 3), bits)
            f, g = up_mul(ZZ, f, h), up_mul(ZZ, g, h)
            kinds["common factor"] += 1
        if rng.random() < 0.2:
            f += (0,) * rng.randint(1, 2)      # trailing zeros
        df, dg = len(up(ZZ, f)) - 1, len(up(ZZ, g)) - 1
        kinds["zero" if min(df, dg) < 0 else
              "constant" if min(df, dg) == 0 else
              "odd x odd" if df % 2 and dg % 2 else "other"] += 1
        r = _sylvester_resultant(f, g)
        assert resultant(f, g) == r, (f, g)
        assert resultant(g, f) == (-1) ** (max(df, 0) * max(dg, 0)) * r
    assert min(kinds.values()) >= 100, kinds


def _criterion9_field():
    """The degree-12 field of criterion 9: QQ, then ell = 2, 3, 2 at p = 2."""
    tower = FieldTower(2, seed=1)
    K = tower.base_node()
    for ell in (2, 3, 2):
        K = extend_inert(K, ell, 2)
    return K


def _criterion9_polynomials():
    K = _criterion9_field()
    polys = [node.defining_poly for node, _ in K.registry().values()]
    polys.append(optimise_discriminant(K.defining_poly, 2, iterations=60,
                                       seed=2).poly)
    return polys


def test_discriminant_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    polys = _criterion9_polynomials()
    assert sorted(len(f) - 1 for f in polys) == [1, 2, 3, 4, 6, 12, 12]
    for f in polys:
        expr = sum(c * x ** i for i, c in enumerate(f))
        assert discriminant(f) == sympy.discriminant(expr, x), f


@pytest.mark.parametrize("n", [1, 2, 7, 24])
def test_discriminant_calls_no_determinant(monkeypatch, n):
    def refuse(M):
        raise AssertionError("discriminant took a determinant")

    f = _random_monic(random.Random(n), n, 16)
    expected = _sylvester_discriminant(f)
    assert not hasattr(fieldtower, "rank_det")
    monkeypatch.setattr(intmat, "rank_det", refuse)
    assert discriminant(f) == expected


# ---------------------------------------------------------------------------
# compositions a(b) mod g over ZZ on cleared denominators

def _random_rational_poly(rng, degree):
    dens = (1, 2, -3, 7, -2 ** 61 + 1, 10 ** 30 + 7)
    return uq([Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens))
               for _ in range(degree + 1)])


def test_compose_mod_matches_fraction_horner():
    rng = random.Random(7)
    for _ in range(300):
        g = _random_monic(rng, rng.randint(1, 8), rng.choice((2, 40)))
        a = _random_rational_poly(rng, rng.randint(-1, 9))
        b = _random_rational_poly(rng, rng.randint(-1, len(g) + 3))
        assert _compose_mod(a, b, g) == uq_compose_mod(a, b, uq(g)), \
            (a, b, g)


@pytest.mark.parametrize("a, b", [
    ((), ()),
    ((), (Fraction(1, 3), 2)),
    ((Fraction(-5, 4),), ()),
    ((Fraction(-5, 4),), (7, Fraction(1, 9))),
    ((1, Fraction(2, -3)), ()),
    # deg b >= deg g
    ((Fraction(1, 2), 0, 3), (0, 0, 0, Fraction(1, -6), 5)),
    ((0, 0, 1), (Fraction(3, 10 ** 40), 0, 1, Fraction(-1, 7))),
], ids=["a=b=0", "a=0", "const,b=0", "const", "b=0", "deg b>deg g",
        "large den"])
def test_compose_mod_edges(a, b):
    g = (1, -1, 0, 1)                        # x^3 - x + 1
    a, b = uq(a), uq(b)
    got = _compose_mod(a, b, g)
    assert got == uq_compose_mod(a, b, uq(g))
    assert all(isinstance(c, Fraction) for c in got)


@pytest.mark.parametrize("g", [(1, 2), (1, 0, -1), (Fraction(1, 2), 1), ()],
                         ids=["lead 2", "lead -1", "half", "zero"])
def test_compose_mod_needs_monic_integer_modulus(g):
    with pytest.raises(FieldTowerError):
        _compose_mod(uq((1, 2)), uq((0, 1)), g)


# ---------------------------------------------------------------------------
# extend_inert

class TestExtendInert:
    def test_quadratic_over_q_forced_residue(self):
        tower = FieldTower(2, seed=1)
        L = extend_inert(tower.base_node(), 2, 2)
        assert L.degree == 2
        # residue field F_4 is forced: poly = x^2+x+1 mod 2
        assert tuple(c % 2 for c in L.defining_poly) == (1, 1, 1)
        assert is_inert(L.defining_poly, 2)

    def test_degree6_registry(self):
        tower = FieldTower(2, seed=1)
        K3 = extend_inert(tower.base_node(), 3, 2)
        L = extend_inert(K3, 2, 2)
        assert L.degree == 6
        ok, missing = subfield_property_check(L)
        assert ok, missing
        reg = L.registry()
        assert sorted(reg) == [1, 2, 3, 6]
        for d, (node, witness) in reg.items():
            assert node.degree == d
            assert is_inert(node.defining_poly, 2)

    def test_repeated_ell2(self):
        tower = FieldTower(2, seed=1)
        K2 = extend_inert(tower.base_node(), 2, 2)
        K4 = extend_inert(K2, 2, 2)
        assert K4.degree == 4
        reg = K4.registry()
        assert 2 in reg and reg[2][0].degree == 2

    def test_degree_multiplicativity(self):
        tower = FieldTower(3, seed=5)
        K = extend_inert(tower.base_node(), 2, 3)
        L = extend_inert(K, 2, 3)
        assert (K.degree, L.degree) == (2, 4)

    def test_embedding_witness_verified(self):
        tower = FieldTower(2, seed=1)
        K = extend_inert(extend_inert(tower.base_node(), 2, 2), 3, 2)
        gmod = uq(K.defining_poly)
        for d, (node, w) in K.registry().items():
            # sub poly evaluated at the witness is 0 mod defining poly
            assert not uq_compose_mod(uq(node.defining_poly), w, gmod)

    @pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 4)])
    def test_random_irreducible_draws_from_all_elements(self, p, k):
        # drawing an index matches rng.choice over the list of all p^k
        # elements in itertools.product order
        R = CoefficientRing.GF(p, k)
        elements = [R.coerce(c)
                    for c in itertools.product(range(p), repeat=k)]
        for seed in range(20):
            rng = random.Random(seed)
            while True:
                f = tuple(rng.choice(elements) for _ in range(3))
                f += (R.one(),)
                if up_is_irreducible(R, f):
                    break
            assert fieldtower._random_irreducible(
                R, 3, random.Random(seed)) == f

    def test_large_residue_field(self):
        # the 2-chain to degree 8 draws over GF(101^4), 104,060,401
        # elements, without listing them
        with alarm(30):
            node = FieldTower(101, seed=1).base_node()
            for _ in range(3):
                node = extend_inert(node, 2, 101)
        assert node.degree == 8
        assert is_inert(node.defining_poly, 101)

    def test_nonprime_ell_rejected(self):
        tower = FieldTower(2)
        with pytest.raises(FieldTowerError):
            extend_inert(tower.base_node(), 4, 2)

    def test_degree_cap(self):
        tower = FieldTower(2, seed=1, degree_cap=3)
        K = extend_inert(tower.base_node(), 2, 2)
        with pytest.raises(FieldTowerError):
            extend_inert(K, 2, 2)


# ---------------------------------------------------------------------------
# optimise_discriminant

class TestDescent:
    def test_zero_iterations_identity(self):
        res = optimise_discriminant((1, 1, 1), 2, iterations=0)
        assert res.poly == (1, 1, 1)

    def test_huge_perturbation_recovers(self):
        f = (1 + 2 * 10 ** 6, 1, 1)
        res = optimise_discriminant(f, 2, iterations=400, seed=3)
        assert abs(discriminant(res.poly)) <= abs(discriminant(f))
        assert tuple(c % 2 for c in res.poly) == (1, 1, 1)

    def test_monotone_trace(self):
        res = optimise_discriminant((1 + 2 * 10 ** 6, 1, 1), 2,
                                    iterations=300, seed=4)
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))

    def test_inertness_preserved(self):
        res = optimise_discriminant((5, 3, 0, 0, 1), 2, iterations=100,
                                    seed=1)
        assert is_inert(res.poly, 2)

    def test_reducible_mod_p_rejected(self):
        with pytest.raises(FieldTowerError):
            optimise_discriminant((-1, 0, 1), 3, iterations=1)

    def test_descent_matches_sylvester_oracle(self, monkeypatch):
        f = _criterion9_field().defining_poly
        assert len(f) == 13
        fast = optimise_discriminant(f, 2, iterations=60, seed=2)
        assert fast.trace[-1] < fast.trace[0]
        monkeypatch.setattr(fieldtower, "discriminant",
                            _sylvester_discriminant)
        assert optimise_discriminant(f, 2, iterations=60, seed=2) == fast


# ---------------------------------------------------------------------------
# subfield_property_check edge cases

def test_base_field_trivial():
    tower = FieldTower(2)
    ok, missing = subfield_property_check(tower.base_node())
    assert ok and not missing


def test_missing_registry_detected():
    tower = FieldTower(2, seed=1)
    K4 = extend_inert(extend_inert(tower.base_node(), 2, 2), 2, 2)
    K4.registry()
    broken = dict(K4.subfield_registry)
    del broken[2]
    K4.subfield_registry = broken
    ok, missing = subfield_property_check(K4)
    assert not ok and missing == [2]


def test_wrong_witness_fails_the_registry_check(monkeypatch):
    tower = FieldTower(2, seed=1)
    K2 = extend_inert(tower.base_node(), 2, 2)
    # sub's generator sent to 1, not a root of sub's defining polynomial
    monkeypatch.setattr(FieldTower, "embed",
                        lambda self, sub, node: uq((1,)) if sub.degree > 1
                        else ())
    with pytest.raises(FieldTowerError, match="failed verification"):
        extend_inert(K2, 3, 2)


def test_wrong_witness_detected():
    tower = FieldTower(2, seed=1)
    K6 = extend_inert(extend_inert(tower.base_node(), 2, 2), 3, 2)
    reg = dict(K6.registry())
    sub, w = reg[3]
    reg[3] = (sub, up_add(QQ, w, uq((1,))))
    K6.subfield_registry = reg
    assert subfield_property_check(K6) == (False, [3])
