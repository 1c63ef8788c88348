"""groebner module: strong GB over fields, ZZ, ZZ/p^e; ideal operations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsdkit.groebner as gb_module
from bsdkit.groebner import (BudgetExceededError, GroebnerError, Ideal,
                             ideal_contained_in, ideal_membership,
                             ideal_quotient, ideal_sum, ideal_sum_product,
                             normal_form)
from bsdkit.poly import (GREVLEX, MonomialOrder, Polynomial, exp_div,
                         exp_divides, exp_mul, parse_polynomial)
from bsdkit.rings import ZZ, CoefficientRing, xgcd

from conftest import P, assert_is_quotient, const


def ideals_equal(A: Ideal, B: Ideal) -> bool:
    return ideal_contained_in(A, B) and ideal_contained_in(B, A)


def sect31_I(ring=ZZ):
    return Ideal([P("x + y", ring), const(2, ring)])


def sect31_J(ring=ZZ):
    return Ideal([P("y^2 - x^2 + 2*x + 2", ring)])


def sect31_I2(ring=ZZ):
    I = sect31_I(ring)
    return ideal_sum_product(I, I, sect31_J(ring))


def sect31_I3(ring=ZZ):
    I = sect31_I(ring)
    return ideal_sum_product(sect31_I2(ring), I, sect31_J(ring))


# ---------------------------------------------------------------------------
# groebner_basis

class TestGroebnerBasis:
    def test_i2_paper_generators(self):
        # I2 = I^2 + J equals (x^2+y^2+2, 2x+2, 2y+2, 4) by mutual
        # membership
        listed = Ideal([P("x^2 + y^2 + 2"), P("2*x + 2"), P("2*y + 2"),
                        const(4)])
        assert ideals_equal(sect31_I2(), listed)

    def test_unit_ideal(self):
        gb = Ideal([P("1"), P("x + y")]).groebner_basis()
        assert len(gb) == 1 and gb[0].is_constant()

    def test_strong_gb_mod8(self, z8):
        I = Ideal([P("2*x + 2", z8), P("2*y + 2", z8), const(4, z8)])
        assert ideal_membership(const(4, z8), I)
        assert not ideal_membership(const(2, z8), I)

    def test_zz_needs_g_polynomials(self):
        # classic strong-GB example: (2x, 3x) contains x
        I = Ideal([P("2*x"), P("3*x")])
        assert ideal_membership(P("x"), I)

    def test_budget_error_distinct(self):
        I = Ideal([P("x^3*y - 1"), P("x*y^3 - x - 1"),
                   P("x^2 + y^2 - 3")])
        with pytest.raises(BudgetExceededError):
            I.groebner_basis(max_pairs=1)

    @pytest.mark.parametrize("texts", [("x - y^5", "x"), ("x", "x - y^5")])
    def test_degree_cap_on_reduced_generator(self, texts):
        # under lex x leads both, and reducing either by the other leaves
        # y^5, of degree above the cap
        ring = CoefficientRing.GF(3)
        gens = [P(t, ring, order=MonomialOrder.lex()) for t in texts]
        with pytest.raises(BudgetExceededError):
            Ideal(gens).groebner_basis(max_degree=4)

    def test_tail_reduced_in_one_pass(self):
        # the tail y of x^2 + y reduces by y + 1
        gens = [P("x^2 + y"), P("y + 1")]
        assert Ideal(gens).groebner_basis() == [P("x^2 - 1"), P("y + 1")]

    def test_deterministic(self):
        gens = [P("x^2 - y"), P("2*y^2 - x"), P("3*x*y - 2")]
        a = Ideal(gens).groebner_basis()
        b = Ideal(gens).groebner_basis()
        assert a == b


# ---------------------------------------------------------------------------
# normal_form / membership

class TestNormalForm:
    def test_generator_reduces_to_zero(self):
        assert normal_form(P("x + y"), sect31_I()).is_zero()

    def test_two_not_in_i2(self):
        # "Even though 2 does not lie in I2"
        assert normal_form(const(2), sect31_I2()) == const(2)

    def test_zero_ideal(self):
        Z = Ideal.zero_ideal(ZZ, ("x", "y"))
        f = P("x^2 + 3")
        assert normal_form(f, Z) == f

    def test_two_in_I(self):
        assert ideal_membership(const(2), sect31_I())

    def test_i3_quotient_generators_in_I(self):
        Q = ideal_quotient(sect31_I3(), const(2))
        I = sect31_I()
        assert all(ideal_membership(g, I) for g in Q.generators)


# ---------------------------------------------------------------------------
# sum/product

class TestSumProduct:
    def test_i2_construction(self):
        got = sect31_I2()
        by_hand = Ideal([P("x + y") * P("x + y"),
                         P("x + y").scale(2), const(4),
                         P("y^2 - x^2 + 2*x + 2")])
        assert ideals_equal(got, by_hand)

    def test_multiply_by_unit_ideal(self):
        A = sect31_I()
        got = ideal_sum_product(A, Ideal([P("1")]),
                                Ideal.zero_ideal(ZZ, ("x", "y")))
        assert ideals_equal(got, A)

    def test_xy_plus_z(self):
        vs = ("x", "y", "z")
        px = parse_polynomial("x", ZZ, vs, GREVLEX)
        py = parse_polynomial("y", ZZ, vs, GREVLEX)
        pz = parse_polynomial("z", ZZ, vs, GREVLEX)
        got = ideal_sum_product(Ideal([px]), Ideal([py]), Ideal([pz]))
        want = Ideal([px * py, pz])
        assert ideals_equal(got, want)


# ---------------------------------------------------------------------------
# quotient

class TestQuotient:
    def test_paper_i2_quotient(self):
        # (I2 : (2)) = (x+1, y+1, 2)
        Q = ideal_quotient(sect31_I2(), const(2))
        listed = Ideal([P("x + 1"), P("y + 1"), const(2)])
        assert ideals_equal(Q, listed)

    def test_paper_i3_quotient(self):
        Q = ideal_quotient(sect31_I3(), const(2))
        listed = Ideal([P("x^2 + y^2 + 2"), P("x*y + x + y^2 + y"),
                        P("2*x + 2"), P("2*y + 2"), const(4)])
        assert ideals_equal(Q, listed)

    def test_quotient_by_one(self):
        I = sect31_I2()
        assert ideals_equal(ideal_quotient(I, const(1)), I)

    def test_quotient_by_zero_rejected(self):
        with pytest.raises(GroebnerError):
            ideal_quotient(sect31_I(), P("0"))


# ---------------------------------------------------------------------------
# containment

class TestContainment:
    def test_i2_quotient_not_in_I(self):
        Q = ideal_quotient(sect31_I2(), const(2))
        assert not ideal_contained_in(Q, sect31_I())

    def test_i3_quotient_in_I(self):
        Q = ideal_quotient(sect31_I3(), const(2))
        assert ideal_contained_in(Q, sect31_I())

    def test_zero_ideal_contained_everywhere(self):
        Z = Ideal.zero_ideal(ZZ, ("x", "y"))
        assert ideal_contained_in(Z, sect31_I())


# ---------------------------------------------------------------------------
# property tests

SMALL_RINGS = [CoefficientRing.GF(3), CoefficientRing.Zmod(2, 2)]


def small_poly(ring, rng, nvars=2, max_deg=2, max_terms=3):
    items = []
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = ring.coerce(rng.randint(-4, 4))
        items.append((e, c))
    vs = ("x", "y", "z")[:nvars]
    return Polynomial.from_terms(ring, vs, items, GREVLEX)


@pytest.mark.parametrize("ring", SMALL_RINGS,
                         ids=[r.kind for r in SMALL_RINGS])
def test_gb_correctness_random(ring):
    import random
    rng = random.Random(7)
    for _ in range(25):
        gens = [small_poly(ring, rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(gens)
        gb = I.groebner_basis()
        # every input generator reduces to zero
        for g in gens:
            assert ideal_membership(g, I)
        # normal form idempotence
        f = small_poly(ring, rng)
        nf = normal_form(f, I)
        assert normal_form(nf, I) == nf


ORACLE_RINGS = {"ZZ": ZZ, "Zmod8": CoefficientRing.Zmod(2, 3),
                "Zmod27": CoefficientRing.Zmod(3, 3),
                "Zmod32": CoefficientRing.Zmod(2, 5),
                "GF3": CoefficientRing.GF(3), "GF5": CoefficientRing.GF(5),
                "GF4": CoefficientRing.GF(2, 2)}


def random_ideals(ring, rng, count, size=(1, 3)):
    """``count`` lists of nonzero small polynomials in two or three
    variables, of a length drawn from ``size``."""
    out = []
    while len(out) < count:
        nvars = rng.randint(2, 3)
        polys = [small_poly(ring, rng, nvars) for _ in range(size[1])]
        polys = [g for g in polys if not g.is_zero()][:rng.randint(*size)]
        if len(polys) >= size[0]:
            out.append(polys)
    return out


def test_quotient_soundness_random():
    # (I : f) on every ring kind against the elimination oracle.  The lex
    # elimination passes degree 12 on one case over ZZ and one over GF(3),
    # and takes seconds there; those cases are not checked
    import random
    lex = MonomialOrder.lex()
    for name, ring in ORACLE_RINGS.items():
        rng = random.Random(29)
        checked = 0
        for polys in random_ideals(ring, rng, 35, size=(2, 4)):
            *gens, f = polys
            I = Ideal(gens, order=lex if rng.random() < 0.25 else GREVLEX)
            Q = ideal_quotient(I, f)
            assert len(set(Q.generators)) == len(Q.generators)
            n = len(I.groebner_basis())
            assert not any(ideal_membership(g, I) for g in Q.generators[n:])
            try:
                assert_is_quotient(Q, I, f, max_degree=12)
            except BudgetExceededError:
                continue
            checked += 1
        assert checked >= 34, name


def test_quotient_divides_under_ideal_order():
    # over ZZ/8 the quotient has several generators; f is given in lex
    # while I is grevlex, and the run must take f into I's order
    ring = CoefficientRing.Zmod(2, 3)
    I = Ideal([P("x^2 + 2*y", ring), P("x*y + 2", ring), const(4, ring)])
    f = P("2*x + y^2 + 2", ring, order=MonomialOrder.lex())
    Q = ideal_quotient(I, f)
    assert len(Q.generators) > 1
    for g in Q.generators:
        assert ideal_membership(g * f, I)
    Q_same = ideal_quotient(I, f.with_order(I.order))
    assert ideals_equal(Q, Q_same)
    assert Q.groebner_basis() == Q_same.groebner_basis()


@pytest.mark.parametrize("ring", [ZZ, CoefficientRing.Zmod(2, 3)],
                         ids=["ZZ", "Zmod8"])
def test_quotient_keeps_syzygy_zero_before_reduction(ring):
    # 2z and z give the S-polynomial 2z - 2*z = 0 before any reduction;
    # its cofactor -2 is what (J : z) = (2, xz - y) adds to J
    vs = ("x", "y", "z")
    J = Ideal([P("2*z", ring, vs), P("x*z - y", ring, vs)])
    Q = ideal_quotient(J, P("z", ring, vs))
    assert ideals_equal(Q, Ideal([const(2, ring, vs), P("x*z - y", ring, vs)]))


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_sums_and_products_match_generators(name):
    # A*B + C and A + B against the ideals of their generators, multiplied
    # out by hand and completed under lex: mutual containment
    import random
    ring = ORACLE_RINGS[name]
    rng = random.Random(31)
    lex = MonomialOrder.lex()
    for polys in random_ideals(ring, rng, 20, size=(3, 5)):
        A = Ideal(polys[:1])
        B = Ideal(polys[1:-1])
        C = Ideal(polys[-1:])
        products = [a * b for a in A.generators for b in B.generators]
        by_hand = [g.with_order(lex) for g in products + list(C.generators)
                   if not g.is_zero()]
        for got, want in ((ideal_sum_product(A, B, C), by_hand),
                          (ideal_sum_product(A.interreduced(),
                                             B.interreduced(), C), by_hand),
                          (ideal_sum(A, B),
                           [g.with_order(lex) for g in polys[:-1]])):
            assert ideals_equal(got, Ideal(want, order=lex))


def test_packed_monomials_follow_order():
    import random
    rng = random.Random(3)
    for order in (MonomialOrder.grevlex(), MonomialOrder.lex()):
        for nvars in range(1, 5):
            pk = gb_module._Packing.of(order, nvars)
            exps = [tuple(rng.randint(0, 5) for _ in range(nvars))
                    for _ in range(25)]
            for a, b in itertools.product(exps, exps):
                pa, pb = pk.pack(a), pk.pack(b)
                assert pk.unpack(pa) == a
                assert (pa > pb) == (order.sort_key(a) < order.sort_key(b))
                assert pk.pack(exp_mul(a, b)) == pa + pb
                assert (not (pb - pa) & pk.guards) == exp_divides(a, b)
            # a field grown into its guard bit is refused, not misread
            with pytest.raises(BudgetExceededError):
                pk.unpack(pk.pack((1 << 31,) * nvars))


@pytest.mark.parametrize("ring", SMALL_RINGS + [ZZ],
                         ids=[r.kind for r in SMALL_RINGS + [ZZ]])
def test_reducer_preference_does_not_change_results(ring, monkeypatch):
    # the reduced basis and normal forms are unique, so the choice among
    # several divisors of a term only changes the work done
    import random
    rng = random.Random(5)
    cases = []
    for _ in range(15):
        gens = [g for g in (small_poly(ring, rng) for _ in range(3))
                if not g.is_zero()]
        if gens:
            cases.append((gens, small_poly(ring, rng)))

    def results():
        out = []
        for gens, f in cases:
            I = Ideal(gens)
            out.append((I.groebner_basis(), normal_form(f, I)))
        return out

    preferred = results()
    monkeypatch.setattr(gb_module, "_rank",
                        lambda ring, g: (-len(g.terms),))
    assert results() == preferred


REDUNDANT_RINGS = SMALL_RINGS + [ZZ, CoefficientRing.Zmod(3, 3)]


@pytest.mark.parametrize("ring", REDUNDANT_RINGS,
                         ids=["GF3", "Zmod4", "ZZ", "Zmod27"])
@pytest.mark.parametrize("order", [GREVLEX, MonomialOrder.lex()],
                         ids=["grevlex", "lex"])
def test_redundant_generators_give_same_basis(ring, order):
    # the generators are inter-reduced before any pair is queued, and
    # the reduced basis of an ideal does not depend on its generators
    import random
    rng = random.Random(23)
    compared = 0
    for _ in range(40):
        gens = [g for g in (small_poly(ring, rng) for _ in range(3))
                if not g.is_zero()]
        if len(gens) < 2:
            continue
        g0, g1 = gens[0], gens[1]
        padded = gens + gens + [g0 * g1, g0 + g1, g0.scale(2)]
        rng.shuffle(padded)
        want = Ideal(gens, order=order).groebner_basis()
        assert Ideal(padded, order=order).groebner_basis() == want
        compared += 1
    assert compared >= 25


@pytest.mark.parametrize("p", [2, 3, 5])
def test_reduced_bases_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    import random
    rng = random.Random(19 + p)
    ring = CoefficientRing.GF(p)
    orders = {"grevlex": GREVLEX, "lex": MonomialOrder.lex()}

    def canonical(pairs):
        return sorted((tuple(e), int(c) % p) for e, c in pairs)

    compared = 0   # ideals with more than one basis element
    while compared < 25:
        nvars = rng.randint(2, 3)
        gens = [g for g in (small_poly(ring, rng, nvars, 3, 4)
                            for _ in range(rng.randint(2, nvars)))
                if not g.is_zero()]
        if not gens:
            continue
        xs = sympy.symbols(gens[0].variables)
        exprs = [sum(c * sympy.prod([x ** k for x, k in zip(xs, e)])
                     for e, c in g.terms.items()) for g in gens]
        for name, order in orders.items():
            got = sorted(canonical(g.terms.items())
                         for g in Ideal(gens, order=order).groebner_basis())
            # sympy prints residues mod p in (-p/2, p/2]
            want = sorted(canonical(sympy.Poly(h, *xs).terms())
                          for h in sympy.groebner(exprs, *xs, modulus=p,
                                                  order=name).exprs)
            assert got == want
        compared += len(got) > 1


def test_quotient_completeness_small():
    # brute force {g : g*f in I} subset of (I : f), deg <= 2, over GF(3),
    # GF(4), ZZ/4 (f with unit and with non-unit content) and ZZ, there
    # with coefficients in {-1, 0, 1}
    vs = ("x", "y")
    exps = [(i, j) for i in range(3) for j in range(3) if i + j <= 2]
    GF4 = CoefficientRing.GF(2, 2)
    for ring, gens, f, coeff_range in [
            (CoefficientRing.GF(3), ("x^2 + y", "x*y"), "x", range(3)),
            (GF4, ("x^2 + y", "x*y"), "x",
             [(), (1,), (0, 1), (1, 1)]),
            (CoefficientRing.Zmod(2, 2), ("x^2 + 2*y", "x*y + 2", "2*x"),
             "x + 2*y", range(4)),
            (CoefficientRing.Zmod(2, 2), ("x^2 + y", "x*y", "2*y"), "2*x",
             range(4)),
            (ZZ, ("x^2 + y", "x*y", "2*y"), "2*x", (-1, 0, 1))]:
        I = Ideal([P(g, ring) for g in gens])
        f = P(f, ring)
        Q = ideal_quotient(I, f)
        found = 0
        for coeffs in itertools.product(coeff_range, repeat=len(exps)):
            g = Polynomial.from_terms(ring, vs, list(zip(exps, coeffs)),
                                      GREVLEX)
            if g.is_zero():
                continue
            if ideal_membership(g * f, I):
                found += 1
                assert ideal_membership(g, Q)
        assert found


def test_homomorphic_consistency():
    # membership over ZZ/p^e agrees with reducing the ZZ answer when the
    # element's order is < e
    ring = CoefficientRing.Zmod(2, 4)
    I_zz = sect31_I2()
    I_mod = Ideal([g.change_ring(ring) for g in I_zz.generators])
    for text in ("x + y", "2*x + 2", "x^2 + y^2 + 2", "4", "x", "2"):
        f = P(text)
        assert ideal_membership(f, I_zz) == \
            ideal_membership(f.change_ring(ring), I_mod)


def test_interreduced_same_ideal():
    I = sect31_I2()
    K = I.interreduced()
    assert ideals_equal(I, K)
    assert list(K.generators) == list(I.groebner_basis())


KNOWN_RINGS = [CoefficientRing.GF(3), CoefficientRing.Zmod(2, 2),
               CoefficientRing.Zmod(2, 3), ZZ]


@pytest.mark.parametrize("ring", KNOWN_RINGS,
                         ids=["GF3", "Zmod4", "Zmod8", "ZZ"])
def test_known_start_matches_full_completion(ring):
    # a reduced basis put first is a strong basis, so completing from it
    # gives the same reduced basis as completing every pair
    import random
    rng = random.Random(13)
    order = GREVLEX
    compared = 0
    for _ in range(20):
        first = [g for g in (small_poly(ring, rng)
                             for _ in range(2)) if not g.is_zero()]
        more = [g for g in (small_poly(ring, rng)
                            for _ in range(2)) if not g.is_zero()]
        if not first or not more:
            continue
        I = Ideal(first)
        gb = I.groebner_basis()

        def reduced(gens, base=None):
            G = gb_module._buchberger(gens, ring, order, base=base)
            return [g.terms for g in
                    gb_module._reduced_basis(ring, order, G)]

        assert reduced(more, I._index()) == reduced(gb + more)
        compared += 1
    assert compared >= 10


# ---------------------------------------------------------------------------
# one reducer index per ideal

INDEX_RINGS = [ZZ, CoefficientRing.Zmod(2, 3), CoefficientRing.GF(3)]


@pytest.mark.parametrize("ring", INDEX_RINGS, ids=["ZZ", "Zmod8", "GF3"])
def test_child_index_matches_flat_index(ring):
    # a child over a base lists the divisors of m, in the same order, as
    # one flat index of the base's entries and the child's additions;
    # lookups between additions exercise the merge into cached lists
    import random
    rng = random.Random(41)
    pk = gb_module._Packing.of(GREVLEX, 3)
    monomials = [pk.pack(e) for e in itertools.product(range(4), repeat=3)]
    for _ in range(12):
        polys = [small_poly(ring, rng, 3, max_deg=3) for _ in range(9)]
        entries = [gb_module._normalize(ring, pk, pk.pack_dict(g.terms))
                   for g in polys if not g.is_zero()]
        k = rng.randint(0, len(entries))
        base = gb_module._Reducers(ring, pk, entries[:k])
        flat = gb_module._Reducers(ring, pk, entries[:k])
        child = gb_module._Reducers(ring, pk, base=base)
        for g in entries[k:]:
            for m in rng.sample(monomials, 6):
                assert child.divisors(m) == flat.divisors(m)
            child.add(g)
            flat.add(g)
        # a second child meets the base's cache warmed by the first
        other = gb_module._Reducers(ring, pk, entries[k:], base=base)
        assert len(child) == len(other) == len(flat) == len(entries)
        for m in monomials:
            assert child.divisors(m) == other.divisors(m) == flat.divisors(m)


@pytest.mark.parametrize("ring", INDEX_RINGS, ids=["ZZ", "Zmod8", "GF3"])
def test_cofactors_through_index_match_flat_rebuild(ring):
    # a run from the ideal's kept index, cold and then warm, reports the
    # same cofactors in the same order as one from a fresh flat index
    import random
    rng = random.Random(43)
    compared = 0
    for polys in random_ideals(ring, rng, 15, size=(2, 4)):
        *gens, f = polys
        I = Ideal(gens)
        I.groebner_basis()
        runs = []
        for _ in range(2):
            runs.append([])
            gb_module._syzygy_cofactors(I, f, runs[-1].append)
        fresh = gb_module._Reducers(ring, I._packing(), I._entries)
        runs.append([])
        gb_module._buchberger([f], ring, I.order, base=fresh,
                              sink=runs[-1].append)
        assert runs[0] == runs[1] == runs[2]
        compared += bool(runs[0])
    assert compared >= 5


def test_index_lives_and_dies_with_its_ideal():
    # the index is kept on the ideal and nowhere else; a sum drops the
    # ideal it started from once its own basis is built
    import gc
    import weakref
    A = Ideal([P("x^2 + y"), P("x*y + 1")]).interreduced()
    normal_form(P("x^3 + y^3"), A)
    ideal_quotient(A, P("x + 1"))
    assert A._index() is A._index()
    S = ideal_sum(A, Ideal([P("y^2 - 1")]))
    S.groebner_basis()
    assert S._base is None
    refs = [weakref.ref(A), weakref.ref(A._index()), weakref.ref(S._index())]
    del A
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
    assert refs[2]() is S._index()
    del S
    gc.collect()
    assert refs[2]() is None


def test_sum_from_index_matches_flat_sum():
    # A + B completed from A's index gives the basis of the flat sum
    import random
    for name, ring in ORACLE_RINGS.items():
        rng = random.Random(47)
        for polys in random_ideals(ring, rng, 8, size=(2, 4)):
            A = Ideal(polys[:-1]).interreduced()
            B = Ideal(polys[-1:])
            S = ideal_sum(A, B)
            assert S._base is A
            flat = Ideal(list(A.generators) + list(B.generators))
            assert S.groebner_basis() == flat.groebner_basis(), name


def pair_polynomials(f, g):
    """The S-polynomial of f and g, and over ZZ their G-polynomial too,
    built from the leading terms alone."""
    ring = f.ring
    (ef, cf), (eg, cg) = f.leading_term(), g.leading_term()
    lcm = tuple(map(max, ef, eg))

    def combine(a, b):
        return (Polynomial.from_terms(ring, f.variables,
                                      [(exp_div(lcm, ef), a)], f.order) * f
                + Polynomial.from_terms(ring, g.variables,
                                        [(exp_div(lcm, eg), b)], g.order) * g)

    if ring.kind == "ZZ":
        d, u, v = xgcd(cf, cg)
        return [combine(cg // d, -(cf // d)), combine(u, v)]
    (vf, uf), (vg, ug) = ring.unit_val(cf), ring.unit_val(cg)
    top = max(vf, vg)
    return [combine(ring.mul(ring.coerce(ring.p ** (top - vf)), ring.inv(uf)),
                    ring.neg(ring.mul(ring.coerce(ring.p ** (top - vg)),
                                      ring.inv(ug))))]


@pytest.mark.parametrize("name", ORACLE_RINGS)
def test_reduced_basis_is_strong(name):
    # Buchberger's criterion checked on the output, trusting no pair that
    # the completion pruned: every input, every S-polynomial of two basis
    # elements, every G-polynomial over ZZ and every annihilator
    # p^(e-v) * g over ZZ/p^e has normal form 0 against the reduced basis.
    # The bases come from plain runs in both orders and from sums
    # completed from an inter-reduced ideal's index.  The sums over ZZ run
    # in grevlex only: one lex sum here swells its coefficients to
    # millions of bits, where the flat run of the same generators takes
    # milliseconds
    import random
    ring = ORACLE_RINGS[name]
    rng = random.Random(53)
    lex = MonomialOrder.lex()
    cases = []
    for n, polys in enumerate(random_ideals(ring, rng, 16, size=(3, 6))):
        order = lex if n % 2 else GREVLEX
        polys = [g.with_order(order) for g in polys]
        cases.append((polys, Ideal(polys, order=order)))
        k = rng.randint(1, len(polys) - 1)
        if ring.kind == "ZZ" and order == lex:
            continue
        A = Ideal(polys[:k], order=order).interreduced()
        S = ideal_sum(A, Ideal(polys[k:], order=order))
        assert S._base is A
        cases.append((polys, S))
    for polys, I in cases:
        gb = I.groebner_basis()
        must_vanish = list(polys)
        for f, g in itertools.combinations(gb, 2):
            must_vanish.extend(pair_polynomials(f, g))
        if ring.kind == "Zmod":
            for g in gb:
                v, _ = ring.unit_val(g.leading_coefficient())
                must_vanish.append(g.scale(ring.p ** (ring.e - v)))
        for h in must_vanish:
            assert normal_form(h, I).is_zero(), (name, polys, h)


@pytest.mark.parametrize("ring", KNOWN_RINGS,
                         ids=["GF3", "Zmod4", "Zmod8", "ZZ"])
def test_quotient_of_lex_ideal(ring):
    # the quotient runs in I's own order, so a lex-ordered I starts from
    # its lex basis (x - y^2 leads with x under lex, with y^2 under
    # grevlex); both orders give one ideal
    import random
    rng = random.Random(17)
    lex = MonomialOrder.lex()
    cases = [([P("x - y^2", ring), P("y^3 + x", ring)], P("x", ring)),
             ([P("x - y^2", ring), P("y^3 - 1", ring)], P("x + 1", ring))]
    for _ in range(10):
        cases.append(([small_poly(ring, rng, max_deg=3) for _ in range(3)],
                      small_poly(ring, rng)))
    for gens, f in cases:
        gens = [g for g in gens if not g.is_zero()]
        if not gens or f.is_zero():
            continue
        Q = ideal_quotient(Ideal(gens), f)
        Q_lex = ideal_quotient(Ideal(gens, order=lex), f)
        assert Q_lex.order == lex
        assert ideals_equal(Q, Q_lex)
