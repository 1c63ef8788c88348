"""vanishing module: Algorithm 3, truncation, modified chain."""

import functools
import json
import random
from fractions import Fraction

import pytest

from bsdkit import groebner, vanishing
from bsdkit.groebner import (BudgetExceededError, Ideal, ideal_contained_in,
                             ideal_membership, ideal_quotient,
                             ideal_sum_product)
from bsdkit.cli import main
from bsdkit.modelfile import component_locus, load_model, parse_prime_model
from bsdkit.periods import BigPeriodMatrix, period_pipeline
from bsdkit.poly import GREVLEX, Polynomial, parse_polynomial
from bsdkit.rings import ZZ, CoefficientRing
from bsdkit.vanishing import (ComponentLocus, FunctionVanishesOnCurve,
                              VanishingError, _chain_step,
                              multiplicity_of_component,
                              rational_function_order, vanishing_order,
                              vanishing_order_truncated)

from conftest import (P, assert_is_quotient, const, criterion2_locus,
                      fixture_path, sect31_locus)


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


def c2_locus(k):
    """D0 = V(x + y, z, 2) on y^k - x^k + 2x + 2 = 0, xz = 2 over ZZ."""
    vs = ("x", "y", "z")
    J = Ideal([parse_polynomial(f"y^{k} - x^{k} + 2*x + 2", ZZ, vs, GREVLEX),
               parse_polynomial("x*z - 2", ZZ, vs, GREVLEX)])
    I = Ideal([parse_polynomial(g, ZZ, vs, GREVLEX)
               for g in ("x + y", "z", "2")])
    return ComponentLocus(J, I, 2)


def doubling_multiplicity(locus, budget=64):
    """ord(p) truncated over ZZ/p^(r+1), r = 1, 2, 4, ... until exact."""
    p_const = Polynomial.constant(ZZ, locus.I.variables, locus.p,
                                  locus.I.order)
    r = 1
    while r <= budget:
        res = vanishing_order_truncated(p_const, locus, r=r, m=1)
        if res.exact:
            return res.order
        r *= 2
    raise VanishingError("budget hit")


MULTIPLICITY_LOCI = {"sect31": sect31_locus, **{
    f"c2_k{k}": functools.partial(c2_locus, k)
    for k in (2, 3, 4, 6, 8, 10, 12)}}


@pytest.mark.parametrize("name", MULTIPLICITY_LOCI)
def test_multiplicity_is_one_order_query(name):
    make = MULTIPLICITY_LOCI[name]
    m = doubling_multiplicity(make())
    loc = make()
    assert multiplicity_of_component(loc) == m
    # the query's chain stays on the locus's kept truncation for later
    # queries, and the ZZ locus builds none
    (kept,) = loc._truncated.values()
    assert len(kept._chains["modified"]) == m + 1 and not loc._chains
    assert multiplicity_of_component(
        loc.change_ring(CoefficientRing.Zmod(2, 2))) == m


def test_multiplicity_asks_p_twice(monkeypatch):
    # the first ask over ZZ/2^3 (cap e - 1 = 2) is not exact; the
    # multiplicity then computed on that ring (budget 64) is the order of
    # p itself, so no third ask (cap e*m - 1 = 11) repeats it
    budgets = []
    order = vanishing.vanishing_order

    def recorded(f, locus, mode="modified",
                 budget=vanishing.DEFAULT_ORDER_BUDGET):
        budgets.append(budget)
        return order(f, locus, mode, budget)

    monkeypatch.setattr(vanishing, "vanishing_order", recorded)
    assert multiplicity_of_component(c2_locus(28)) == 4
    assert budgets == [2, 64]


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
        assert rational_function_order(f, const(1), sect31_locus()) == 2


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
    steps = [_chain_step(loc, "direct", n) for n in range(1, 6)]
    for prev, cur in zip(steps, steps[1:]):
        assert ideal_contained_in(cur, prev)


# ---------------------------------------------------------------------------
# the chain steps a locus keeps

def fresh(locus):
    """The same component with no chain step built yet."""
    return ComponentLocus(locus.J, locus.I, locus.p)


def count_calls(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


RINGS = {"ZZ": lambda p: ZZ, "Zmod": lambda p: CoefficientRing.Zmod(p, 3),
         "GF": CoefficientRing.GF}


@pytest.mark.parametrize("mode", ["direct", "modified"])
@pytest.mark.parametrize("kind", sorted(RINGS))
def test_warm_locus_answers_like_fresh(kind, mode):
    rng = random.Random(11)
    for _ in range(3):
        loc = random_locus(rng)
        loc = loc.change_ring(RINGS[kind](loc.p))
        vs = loc.I.variables
        x_plus_y = parse_polynomial("x + y", loc.ring, vs, GREVLEX)
        fs = []
        for _ in range(4):
            unit = parse_polynomial(rng.choice(["1", "x + 1", "y - 1"]),
                                    loc.ring, vs, GREVLEX)
            f = (x_plus_y ** rng.randint(0, 3) * unit).scale(
                loc.p ** rng.randint(0, 2))
            fs.append(f)
        want = {}
        for f in fs:
            try:
                want[str(f)] = vanishing_order(f, fresh(loc), mode, budget=8)
            except FunctionVanishesOnCurve:
                continue
        asked = sorted((f for f in fs if str(f) in want),
                       key=lambda f: want[str(f)].order)
        for order in (asked[::-1], asked):
            warm = fresh(loc)
            for f in order:
                assert vanishing_order(f, warm, mode, budget=8) == want[str(f)]


@pytest.mark.parametrize("mode", ["direct", "modified"])
def test_lower_order_query_builds_no_step(monkeypatch, mode):
    steps = count_calls(monkeypatch, vanishing, "ideal_sum_product")
    loc = sect31_locus()
    assert vanishing_order(P("x + y") ** 3, loc, mode).order == 3
    assert len(steps) == 3              # I_2, I_3 and I_4
    for f in (P("x + y") ** 3, P("x + y") ** 2, const(2), const(1)):
        vanishing_order(f, loc, mode)
    assert len(steps) == 3
    assert vanishing_order(P("x + y") ** 4, loc, mode).order == 4
    assert len(steps) == 4


def c2_z_model(k):
    """The criterion-2 patch with D0 = V(x + y, z, 2) of multiplicity 2
    (k = 2 mod 4) and the z-scaled genus-2 basis z*(1, x)."""
    return {
        "p": 2, "genus": 2,
        "patches": [{"id": "U", "variables": ["x", "y", "z"],
                     "equations": [f"y^{k} - x^{k} + 2*x + 2", "x*z - 2"]}],
        "special_fibre": {
            "components": [{"id": "D0", "patch": "U",
                            "prime_ideal": ["x + y", "z", "2"],
                            "multiplicity": 2}],
            "intersections": [[0]], "frobenius": {"D0": "D0"}},
        "charts": [{
            "component": "D0", "generator_numerator": "1",
            "generator_denominator": "1",
            "sample_points": [
                {"field_degree": 1, "coords": {"x": 0, "y": 0, "z": 0}},
                {"field_degree": 1, "coords": {"x": 1, "y": 1, "z": 0}}]}],
        "differentials": [{"patch": "U", "numerator": n, "denominator": "1",
                           "base": "dx"} for n in ("z", "z*x")],
    }


C2_Z_MATRIX = BigPeriodMatrix(2, [[2.0 + 0j, 0j], [0j, 2.0 + 0j],
                                  [1.0 + 2j, 0.5 + 4j],
                                  [0.25 + 6j, 1.5 + 8j]])


def test_period_run_builds_each_step_once(monkeypatch):
    steps = count_calls(monkeypatch, vanishing, "ideal_sum_product")
    queries = count_calls(monkeypatch, vanishing, "vanishing_order")
    model, diffs = parse_prime_model(c2_z_model(2))
    res = period_pipeline(C2_Z_MATRIX, [(model, diffs)], m_real=2)
    assert res.W == Fraction(1, 4)
    # the orders come from the one truncation of the ZZ locus
    locus = model.charts[0].locus
    (truncated,) = locus._truncated.values()
    chain = truncated._chains["modified"]
    assert not locus._chains
    assert len(steps) == len(chain) - 1 > 0
    assert len(queries) > len(chain)


def test_period_run_builds_no_chain_over_zz(monkeypatch):
    # over ZZ only the locus's own ideals get a basis: its checks, and the
    # membership test of an f that vanishes on the truncated curve; every
    # chain step and filter run is over ZZ/p^e
    model, diffs = parse_prime_model(c2_z_model(2))
    locus = model.charts[0].locus
    runs = []
    buchberger = groebner._buchberger

    def recorded(gens, ring, *args, sink=None, **kwargs):
        runs.append((ring.kind, tuple(gens), sink is not None))
        return buchberger(gens, ring, *args, sink=sink, **kwargs)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    period_pipeline(C2_Z_MATRIX, [(model, diffs)], m_real=2)
    own = (locus.J.generators, locus.I.generators)
    assert all(gens in own and not filtered
               for kind, gens, filtered in runs if kind == "ZZ")
    assert any(kind == "Zmod" and filtered for kind, _, filtered in runs)


@pytest.mark.parametrize("mode, cap, value",
                         [("modified", "DEFAULT_MAX_PAIRS", 6),
                          ("direct", "DEFAULT_MAX_PAIRS", 40)],
                         ids=["modified-pairs-6", "direct-40"])
def test_budget_error_keeps_built_steps(monkeypatch, mode, cap, value):
    # modified: the pair cap is hit in the basis of I_4's J_n, with three
    # steps built (no degree cap above 1 trips: the quotients run in the
    # locus's own variables); direct: building a step runs no Buchberger,
    # so the pair cap is hit in I_7's quotient test
    f = const(16)
    loc = sect31_locus()
    monkeypatch.setattr(groebner, cap, value)
    with pytest.raises(BudgetExceededError):
        vanishing_order(f, loc, mode, budget=12)
    built = len(loc._chains[mode])
    assert 1 < built < 9
    monkeypatch.undo()
    want = vanishing_order(f, sect31_locus(), mode, budget=12)
    assert want == vanishing.VanishingOrder(8, exact=True)
    assert vanishing_order(f, loc, mode, budget=12) == want
    assert len(loc._chains[mode]) == 9


def test_chain_cache_ignored_by_equality():
    warm = sect31_locus()
    cold = fresh(warm)
    vanishing_order(P("x + y") ** 2, warm)
    assert warm._chains and not cold._chains
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert not warm.change_ring(CoefficientRing.Zmod(2, 3))._chains


# ---------------------------------------------------------------------------
# exact orders over ZZ from the truncation, against the chain over ZZ

ORACLE_LOCI = {"sect31": sect31_locus, **{
    f"c2_k{k}": functools.partial(c2_locus, k) for k in (6, 10, 12, 14, 28)}}


def zz_poly(text, locus):
    return parse_polynomial(text, ZZ, locus.I.variables, GREVLEX)


@pytest.mark.parametrize("name", ORACLE_LOCI)
def test_truncated_orders_match_zz_chain(name):
    make = ORACLE_LOCI[name]
    loc, oracle = make(), make()
    one = zz_poly("1", loc)
    z = "z" in loc.I.variables
    rng = random.Random(41)
    for _ in range(4):
        a = rng.randint(0, 2)
        b = rng.randint(0, 2 - a) if z else 0
        c = rng.randint(0, 3)
        f = zz_poly(f"2^{a} * {'z' if z else '1'}^{b} * (x + y)^{c}", loc)
        want = vanishing_order(f, oracle)
        assert want.exact
        assert rational_function_order(f, one, loc) == want.order
    # 8 is 0 over ZZ/2^3, the first ring: its order 3m comes from the
    # p-content; g + 8 for g in J lies in J over ZZ/2^3 but not over ZZ,
    # and its order 3m > 3m - 2 makes e double
    g = loc.J.generators[-1]
    for f in (zz_poly("8", loc), g + zz_poly("8", loc)):
        assert rational_function_order(f, one, loc) == \
            vanishing_order(f, oracle).order
    assert list(loc._truncated) == [6]
    with pytest.raises(FunctionVanishesOnCurve):
        rational_function_order(g, one, loc)
    assert not loc._chains


def test_truncated_order_budget_matches_zz_chain():
    # orders from 64 on hit the budget, as the chain over ZZ does
    loc, oracle = sect31_locus(), sect31_locus()
    below, at = P("x + y").scale(2 ** 31), const(2 ** 32)
    assert vanishing_order(below, oracle) == vanishing.VanishingOrder(63, True)
    assert not vanishing_order(at, oracle).exact
    assert rational_function_order(below, const(1), loc) == 63
    with pytest.raises(VanishingError, match="^budget hit$"):
        rational_function_order(at, const(1), loc)


def test_p_content_budget_hit_builds_m_plus_one_steps(monkeypatch):
    # 2^17 is 0 over ZZ/2^3: the multiplicity m = 4 computed there splits
    # off 17*m >= 64 with no longer chain; a step past m + 1 fails at once
    # instead of building the 64-step chain
    m, steps = 4, []
    product = vanishing.ideal_sum_product

    def counted(*args):
        steps.append(args)
        assert len(steps) <= m + 1, "chain built past step m + 1"
        return product(*args)

    monkeypatch.setattr(vanishing, "ideal_sum_product", counted)
    loc = c2_locus(28)
    with pytest.raises(VanishingError, match="^budget hit$"):
        rational_function_order(zz_poly("2^17", loc), zz_poly("1", loc), loc)
    assert loc._orders[zz_poly("2", loc)] == m


@pytest.mark.parametrize("name", ["sect31", "genus2_p2"])
def test_p_content_orders_match_zz_chain(name):
    if name == "sect31":
        make = sect31_locus
    else:
        doc = load_model(fixture_path("genus2_p2.json"))
        make = functools.partial(component_locus, doc, "D0")
    loc = make()
    m = multiplicity_of_component(loc)
    assert loc._orders[zz_poly(str(loc.p), loc)] == m
    for a in range(4):
        for u in ("1", "x + y", "x + 1", "y"):
            f = zz_poly(f"{loc.p}^{a} * ({u})", loc)
            want = vanishing_order(f, make())
            assert want.exact
            assert rational_function_order(f, zz_poly("1", loc), loc) == \
                want.order
    assert not loc._chains


# ---------------------------------------------------------------------------
# f = p^a * x^alpha * u: the orders of its factors, added up


def split_functions(loc, rng, count):
    """Random unit * p^a * x^alpha * (x + y)^c with a unit constant prime to
    p; a + (the exponent of z) <= 2 keeps the oracle's chain short."""
    for _ in range(count):
        a = rng.randint(0, 2)
        mono = [f"{v}^{rng.randint(0, 2 - a if v == 'z' else 2)}"
                for v in loc.I.variables]
        unit = rng.choice([1, -1, 3, -5, 7])
        yield zz_poly(f"{unit} * {loc.p}^{a} * {' * '.join(mono)}"
                      f" * (x + y)^{rng.randint(0, 2)}", loc)


@pytest.mark.parametrize("name", ORACLE_LOCI)
def test_split_orders_match_zz_chain(name):
    make = ORACLE_LOCI[name]
    loc, oracle = make(), make()
    one = zz_poly("1", loc)
    m = multiplicity_of_component(oracle)
    rng = random.Random(45)
    for f in split_functions(loc, rng, 5):
        want = vanishing_order(f, oracle)
        assert want.exact
        n = want.order
        assert rational_function_order(f, one, loc) == n
        for r in (n - 1, n, n + 1):
            if r >= 1:
                assert vanishing_order_truncated(f, make(), r, m) == \
                    vanishing.VanishingOrder(min(n, r), r > n)
    # u in J: f lies in J over ZZ, on the warm locus (m known, f splits)
    # and on a fresh one
    g = loc.J.generators[-1]
    f = zz_poly(f"-3 * {loc.p} * x^2", loc) * g
    for ask in (lambda: rational_function_order(f, one, loc),
                lambda: vanishing_order_truncated(f, make(), 5, m)):
        with pytest.raises(FunctionVanishesOnCurve):
            ask()
    assert not loc._chains


def c2_model_file(tmp_path, k, m):
    """The criterion-2 model of ``c2_z_model`` with D0 declared of
    multiplicity m."""
    doc = c2_z_model(k)
    doc["special_fibre"]["components"][0]["multiplicity"] = m
    path = tmp_path / f"c2_k{k}_m{m}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("k, m, f, r, answer, built", [
    (100, 4, "z^3", 70, {"order": 12, "exact": True}, 4),
    (8, 8, "4", 9, {"order": 9, "exact": False}, 0),
], ids=["z-cubed-k100", "truncation-fault"])
def test_truncated_cli_steps(monkeypatch, capsys, tmp_path, k, m, f, r,
                             answer, built):
    # ord(z) = 4 needs I_2..I_5; 4 is 0 over ZZ/2^2 and asks no chain
    steps = count_calls(monkeypatch, vanishing, "ideal_sum_product")
    assert main(["vanishing-order", c2_model_file(tmp_path, k, m),
                 "--component", "D0", "--function", f,
                 "--truncate", str(r)]) == 0
    assert json.loads(capsys.readouterr().out) == answer
    assert len(steps) == built


def test_factors_share_one_truncation(monkeypatch):
    # 2 * z^3 * (x + y)^4 on k = 100: orders 4 + 3*4 + 4, each factor over
    # the one ring ZZ/2^18 that r = 70 picks, to the depth of the largest
    steps = count_calls(monkeypatch, vanishing, "ideal_sum_product")
    rings = count_calls(monkeypatch, ComponentLocus, "change_ring")
    loc = c2_locus(100)
    f = zz_poly("2 * z^3 * (x + y)^4", loc)
    res = vanishing_order_truncated(f, loc, r=70, m=4)
    assert res == vanishing.VanishingOrder(20, True)
    assert list(loc._truncated) == [18] and len(rings) == 1
    assert len(steps) == 4


@pytest.mark.parametrize("f, r", [("2*z", 9), ("z^2", 13),
                                  ("2*z*(x + y)", 9), ("3*z^2", 9)])
def test_over_declared_m_product_answers_the_oracle(capsys, tmp_path, f, r):
    # k = 10 has m = 2; declared as 8, --truncate r runs over ZZ/2^2 or
    # ZZ/2^3, too small a ring for the whole product but not for each
    # factor (orders 2 and 1)
    assert main(["vanishing-order", c2_model_file(tmp_path, 10, 8),
                 "--component", "D0", "--function", f,
                 "--truncate", str(r)]) == 0
    oracle = c2_locus(10)
    want = vanishing_order(zz_poly(f, oracle), oracle, budget=r)
    assert json.loads(capsys.readouterr().out) == {"order": want.order,
                                                   "exact": want.exact}


def test_no_chain_over_zz_in_production(monkeypatch, capsys, tmp_path):
    chain_step = vanishing._chain_step

    def refuse_zz(locus, mode, n):
        assert locus.ring.kind != "ZZ", "a chain step over ZZ"
        return chain_step(locus, mode, n)

    monkeypatch.setattr(vanishing, "_chain_step", refuse_zz)
    k10 = tmp_path / "c2_k10.json"
    k10.write_text(json.dumps(c2_z_model(10)))
    sect31 = fixture_path("sect31.json")
    for path, f, flags, order, exact in (
            (sect31, "2", (), 2, True), (sect31, "(x + y)^3", (), 3, True),
            (k10, "2", (), 2, True), (k10, "2*z*(x + y)", (), 5, True),
            (k10, "z^5", (), 10, True), (k10, "z^5", ("--budget", "8"), 8,
                                         False)):
        assert main(["vanishing-order", str(path), "--component", "D0",
                     "--function", f, *flags]) == 0
        assert json.loads(capsys.readouterr().out) == {"order": order,
                                                       "exact": exact}
    assert main(["period", fixture_path("genus2_p2.json"), "--matrix-file",
                 fixture_path("matrix_g2.json")]) == 0
    assert json.loads(capsys.readouterr().out)["W"] == {"2": "1"}
    # a chart with no declared multiplicity computes it
    model, _ = parse_prime_model(c2_z_model(10))
    model.charts[0].multiplicity = None
    assert model.charts[0].get_multiplicity() == 2


def test_truncation_keeps_one_ring(monkeypatch):
    steps = count_calls(monkeypatch, vanishing, "ideal_sum_product")
    loc = sect31_locus()
    f = P("x + y") ** 3
    want = vanishing_order_truncated(f, loc, r=5, m=2)     # over ZZ/2^3
    assert want == vanishing.VanishingOrder(3, True)
    built = len(steps)
    assert vanishing_order_truncated(f, loc, r=4, m=2) == want
    assert len(steps) == built and list(loc._truncated) == [3]
    assert vanishing_order_truncated(f, loc, r=7, m=2) == want
    assert list(loc._truncated) == [4]


# ---------------------------------------------------------------------------
# the criterion-2 chain: its gate, and the work a known basis saves


def test_criterion2_chain_sizes_to_step_18():
    loc = criterion2_locus()
    sizes = [len(_chain_step(loc, "modified", n).groebner_basis())
             for n in range(1, 19)]
    assert sizes == [3, 3, 3, 3, 8, 8, 8, 8, 13, 13, 13, 13,
                     19, 19, 20, 19, 30, 30]


def test_criterion2_chain_work_to_step_12(monkeypatch):
    # machine-independent counts of the chain's work: the inter-reduced
    # generators, the Gebauer-Moller criteria on every pair of a run
    # (inputs against each other and against a base included), the
    # filter's stop at its first witness and the sum J_n + extra completed
    # from J_n's index keep the reductions (the filter's membership tests
    # against I's index among them) at 1,709; each step's basis and each
    # filter test is one Buchberger run
    reductions = count_calls(monkeypatch, groebner, "_reduce")
    memberships = count_calls(monkeypatch, vanishing, "_reduce")
    runs = count_calls(monkeypatch, groebner, "_buchberger")
    loc = criterion2_locus()
    for n in range(1, 13):
        _chain_step(loc, "modified", n).groebner_basis()
    assert len(reductions) + len(memberships) == 1709
    assert len(runs) == 104


def test_known_basis_saves_reductions(monkeypatch):
    # one quotient of the modified step's filter: J_n's reduced basis G
    # enters the run as a strong basis, so no pair inside it is queued;
    # the cofactors reported differ, the quotient does not
    loc = criterion2_locus()
    In = _chain_step(loc, "modified", 5)
    Jn = ideal_sum_product(In.interreduced(), loc.I, loc.J).interreduced()
    x = In.groebner_basis()[-1]
    buchberger = groebner._buchberger

    def quotient(known_start):
        if not known_start:
            monkeypatch.setattr(
                groebner, "_buchberger",
                lambda gens, *args, base=None, **kw: buchberger(
                    Jn.groebner_basis() + list(gens), *args, **kw))
        reductions = count_calls(monkeypatch, groebner, "_reduce")
        Q = groebner.ideal_quotient(Jn, x)
        monkeypatch.undo()
        return Q, len(reductions)

    Q, known_count = quotient(True)
    Q_full, full_count = quotient(False)
    assert ideal_contained_in(Q, Q_full) and ideal_contained_in(Q_full, Q)
    assert known_count < full_count


# ---------------------------------------------------------------------------
# the quotient filter against the elimination oracle


def check_filter_calls(calls):
    # each quotient is the elimination's, and the filter, which stops at
    # its first witness, answers as the whole quotient does
    for In, f, I in calls:
        Q = ideal_quotient(In, f)
        assert len(set(Q.generators)) == len(Q.generators)
        # Q is In's reduced basis, then the kept cofactors: none in In
        n = len(In.groebner_basis())
        assert not any(ideal_membership(g, In) for g in Q.generators[n:])
        assert_is_quotient(Q, In, f)
        assert vanishing._quotient_outside(In, f, I) == \
            (not ideal_contained_in(Q, I))


def test_criterion2_quotients_match_elimination(monkeypatch):
    # the 83 quotients of the chain to step 12; by step 18 the lex
    # elimination passes the degree cap
    calls = count_calls(monkeypatch, vanishing, "_quotient_outside")
    _chain_step(criterion2_locus(), "modified", 12)
    monkeypatch.undo()
    assert len(calls) == 83
    check_filter_calls(calls)


@pytest.mark.parametrize("mode", ["direct", "modified"])
@pytest.mark.parametrize("e", [None, 3, 6], ids=["ZZ", "Zmod8", "Zmod64"])
def test_sect31_quotients_match_elimination(monkeypatch, mode, e):
    ring = ZZ if e is None else CoefficientRing.Zmod(2, e)
    loc = sect31_locus(ring)
    calls = count_calls(monkeypatch, vanishing, "_quotient_outside")
    for text in ("2", "x + y", "(x + y)^3", "2*x + 2", "x^2 + y^2 + 2"):
        vanishing_order(P(text, ring), loc, mode, budget=6)
    monkeypatch.undo()
    assert len(calls) > 10
    check_filter_calls(calls)


@pytest.mark.parametrize("kind", sorted(RINGS))
def test_random_filter_matches_quotient(kind):
    rng = random.Random(37)
    checked = 0
    for _ in range(6):
        loc = random_locus(rng)
        loc = loc.change_ring(RINGS[kind](loc.p))
        vs = loc.I.variables
        for n in (1, 2, 3):
            In = _chain_step(loc, "modified", n)
            for text in ("x + y", "x - 1", "x*y + y", str(loc.p)):
                f = parse_polynomial(text, loc.ring, vs, GREVLEX)
                if f.is_zero():
                    continue
                check_filter_calls([(In, f, loc.I)])
                checked += 1
    assert checked >= 50
