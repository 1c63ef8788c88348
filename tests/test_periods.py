"""periods module: covolumes, lattice generator, differential conversion,
vanishing subspace, Neron basis adjustment, final assembly."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from bsdkit import periods, vanishing
from bsdkit.modelfile import load_model, parse_prime_model
from bsdkit.periods import (BigPeriodMatrix, DifferentialRep, PeriodError,
                            RepeatedPrimeError, convert_differential, covolumes,
                            differential_order_on_component,
                            lattice_generator, neron_basis_adjust,
                            period_pipeline, real_period, vanishing_subspace)
from bsdkit.poly import GREVLEX, Polynomial, parse_polynomial
from bsdkit.rings import ZZ

from conftest import fixture_path


def genus2_model():
    doc = load_model(fixture_path("genus2_p2.json"))
    return parse_prime_model(doc)


# ---------------------------------------------------------------------------
# covolumes


def leibniz_det(A):
    det = 0
    for perm in itertools.permutations(range(len(A))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= A[i][j]
        det += term
    return det


class TestCovolumes:
    def test_real_imaginary_rows(self):
        M = BigPeriodMatrix(1, [[1 + 0j], [1j]])
        vals = dict(covolumes(M))
        assert vals[(0,)] == pytest.approx(2.0)
        assert vals[(1,)] == pytest.approx(0.0)

    def test_one_by_one(self):
        a, b, c, d = 1.5, 2.0, -0.75, 3.0
        M = BigPeriodMatrix(1, [[complex(a, b)], [complex(c, d)]])
        vals = dict(covolumes(M))
        assert vals[(0,)] == pytest.approx(2 * abs(a))
        assert vals[(1,)] == pytest.approx(2 * abs(c))

    def test_g2_against_permanent_expansion(self):
        rng = random.Random(9)
        rows = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(2)] for _ in range(4)]
        M = BigPeriodMatrix(2, rows)
        for subset, val in covolumes(M):
            i, j = subset
            # direct 2x2 determinant of 2*Re(entries)
            a = 2 * rows[i][0].real
            b = 2 * rows[i][1].real
            c = 2 * rows[j][0].real
            d = 2 * rows[j][1].real
            assert val == pytest.approx(abs(a * d - b * c), abs=1e-12)

    def test_exact_determinant_rounded_once(self):
        # decimal entries are not dyadic, so elimination in floating point
        # rounds at every step; the covolume is the exact determinant of
        # the parsed doubles, rounded once
        rng = random.Random(17)
        for g in (2, 3):
            for _ in range(20):
                rows = [[complex(float(f"{rng.uniform(-9, 9):.3f}"), 1.0)
                         for _ in range(g)] for _ in range(2 * g)]
                for I, val in covolumes(BigPeriodMatrix(g, rows)):
                    A = [[2 * Fraction(rows[i][j].real) for j in range(g)]
                         for i in I]
                    assert val == abs(float(leibniz_det(A)))

    def test_overflow_is_a_period_error(self):
        M = BigPeriodMatrix(1, [[1.5e308 + 0j], [1.0 + 0j]])
        with pytest.raises(PeriodError, match="float range"):
            covolumes(M)

    def test_conjugation_invariance(self):
        rng = random.Random(10)
        rows = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                 for _ in range(2)] for _ in range(4)]
        M1 = BigPeriodMatrix(2, rows)
        M2 = BigPeriodMatrix(2, [[z.conjugate() for z in r] for r in rows])
        for (s1, v1), (s2, v2) in zip(covolumes(M1), covolumes(M2)):
            assert s1 == s2 and v1 == pytest.approx(v2)

    def test_wrong_row_count(self):
        with pytest.raises(PeriodError):
            BigPeriodMatrix(2, [[1 + 0j, 0j]])


# ---------------------------------------------------------------------------
# lattice_generator

class TestLatticeGenerator:
    def test_coprime_integers(self):
        g = lattice_generator([2.0, 3.0])
        assert g.value == pytest.approx(1.0)

    def test_gcd_two(self):
        g = lattice_generator([4.0, 6.0, 10.0])
        assert g.value == pytest.approx(2.0)

    def test_single_generator(self):
        g = lattice_generator([math.pi, 2 * math.pi])
        assert g.value == pytest.approx(math.pi)

    def test_witness_is_integer_combination(self):
        vals = [4.0, 6.0, 10.0]
        g = lattice_generator(vals)
        assert abs(sum(n * v for n, v in zip(g.witness, vals))) == \
            pytest.approx(g.value)

    def test_divides_every_value(self):
        vals = [1.75, 5.25, 8.75]
        g = lattice_generator(vals)
        for v in vals:
            assert abs(v / g.value - round(v / g.value)) < 1e-9

    def test_zero_covolumes_dropped(self):
        g = lattice_generator([0.0, 3.0, 6.0])
        assert g.value == pytest.approx(3.0)

    def test_non_discrete_detected(self):
        with pytest.raises(PeriodError):
            lattice_generator([1.0, math.sqrt(2)])

    def test_random_hidden_generator(self):
        rng = random.Random(3)
        for _ in range(20):
            base = rng.uniform(0.5, 2.0)
            vals = [base * rng.randint(1, 12) for _ in range(4)]
            g = lattice_generator(vals)
            # result is base times the gcd of the multipliers
            mult = round(g.value / base)
            assert g.value == pytest.approx(base * mult)
            for v in vals:
                r = v / g.value
                assert abs(r - round(r)) < 1e-9


# ---------------------------------------------------------------------------
# convert_differential

def pxyz(text):
    return parse_polynomial(text, ZZ, ("x", "y", "z"), GREVLEX)


class TestConvertDifferential:
    def test_linear_change(self):
        a, b = convert_differential(pxyz("y - x"), pxyz("z - x"))
        assert a == pxyz("-1") and b == pxyz("1")

    def test_semicubical(self):
        a, b = convert_differential(pxyz("y^2 - x^3"), pxyz("z - 1"))
        assert a == pxyz("-3*x^2") and b == pxyz("2*y")

    def test_quintic(self):
        # the identity adj(M)*N = [[F,D,0],[G,0,D]] is checked inside
        a, b = convert_differential(pxyz("y^2 - x^5 - x - 1"),
                                    pxyz("x*z - 2"))
        assert a == pxyz("-5*x^4 - 1") and b == pxyz("2*y")

    def test_degenerate_rejected(self):
        with pytest.raises(PeriodError):
            convert_differential(pxyz("x"), pxyz("x + 1"))

    def test_random_pairs_coprime(self):
        from bsdkit.poly import poly_gcd
        rng = random.Random(1)
        done = 0
        while done < 20:
            f = random_poly(rng)
            g = random_poly(rng)
            try:
                a, b = convert_differential(f, g)
            except PeriodError:
                continue
            gcd = poly_gcd(a, b)
            assert gcd.total_degree() == 0
            done += 1


def random_poly(rng, max_deg=3):
    items = []
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, max_deg) for _ in range(3))
        if sum(e) > max_deg:
            continue
        items.append((e, rng.randint(-3, 3)))
    return Polynomial.from_terms(ZZ, ("x", "y", "z"), items, GREVLEX)


# ---------------------------------------------------------------------------
# orders of differentials on components

class TestDifferentialOrder:
    def test_generator_itself(self):
        model, diffs = genus2_model()
        chart = model.charts[0]
        d = DifferentialRep("U", chart.generator_numerator,
                            chart.generator_denominator)
        assert differential_order_on_component(d, chart) == 0

    def test_p_times_generator(self):
        model, diffs = genus2_model()
        chart = model.charts[0]
        d = DifferentialRep("U", chart.generator_numerator.scale(2),
                            chart.generator_denominator)
        assert differential_order_on_component(d, chart) == \
            chart.get_multiplicity()

    def test_generator_over_p(self):
        model, diffs = genus2_model()
        chart = model.charts[0]
        d = DifferentialRep("U", chart.generator_numerator,
                            chart.generator_denominator.scale(2))
        assert differential_order_on_component(d, chart) == \
            -chart.get_multiplicity()

    def test_repeated_query_runs_no_quotient_test(self, monkeypatch):
        model, diffs = genus2_model()
        chart = model.charts[0]
        tests = []
        cofactors = vanishing._syzygy_cofactors

        def counted(*args):
            tests.append(args)
            return cofactors(*args)

        monkeypatch.setattr(vanishing, "_syzygy_cofactors", counted)
        w = diffs[1].scaled_by_p(2)
        first = differential_order_on_component(w, chart)
        asked = len(tests)
        assert first == 1 and asked > 0
        again = w.scaled_by_p(2).divided_by_p(2)     # equal, not the same
        assert again is not w
        assert differential_order_on_component(again, chart) == first
        assert len(tests) == asked


# ---------------------------------------------------------------------------
# vanishing subspace

class TestVanishingSubspace:
    def test_nonvanishing_single(self):
        model, diffs = genus2_model()
        V = vanishing_subspace(model.charts, diffs[:1])
        assert V == []

    def test_duplicate_differentials(self):
        model, diffs = genus2_model()
        w = diffs[0]
        V = vanishing_subspace(model.charts, [w, w])
        # difference of identical differentials vanishes: (1, p-1)
        assert any(v == [1, 1] for v in V)  # p = 2: (1, 1)

    def test_full_fixture_kernel_trivial(self):
        model, diffs = genus2_model()
        assert vanishing_subspace(model.charts, diffs) == []

    def test_strict_containment_case(self):
        # numerator x^2 + x vanishes at both F_2 sample points (x=0,1)
        # but not on the whole fibre: V is strictly larger than the true
        # vanishing set, demonstrating why the full check is needed
        model, diffs = genus2_model()
        w2 = DifferentialRep("U", pxy("x^2 + x"), pxy("1"))
        V = vanishing_subspace(model.charts, [diffs[0], w2])
        assert any(v[1] % 2 == 1 for v in V)  # e2 (or e1+e2) is in V
        # ... but the full check rejects it: x^2+x has order 0 on D0
        chart = model.charts[0]
        assert differential_order_on_component(w2, chart) == 0


def pxy(text):
    return parse_polynomial(text, ZZ, ("x", "y"), GREVLEX)


# ---------------------------------------------------------------------------
# neron_basis_adjust

class TestAdjust:
    def test_neron_ready(self):
        model, diffs = genus2_model()
        res = neron_basis_adjust(model, diffs)
        assert res.a == 0 and res.b == 0 and res.W_p == 1

    def test_scaled_basis_divides_back(self):
        model, diffs = genus2_model()
        scaled = [w.scaled_by_p(2) for w in diffs]
        res = neron_basis_adjust(model, scaled)
        assert res.W_p == Fraction(1, 4)  # p^-g = 2^-2

    def test_divided_basis_multiplies_back(self):
        model, diffs = genus2_model()
        divided = [w.divided_by_p(2) for w in diffs]
        res = neron_basis_adjust(model, divided)
        assert res.W_p == 4  # p^g

    def test_wrong_count(self):
        model, diffs = genus2_model()
        with pytest.raises(PeriodError):
            neron_basis_adjust(model, diffs[:1])

    def test_without_sample_points_every_vector_is_a_candidate(
            self, monkeypatch):
        model, diffs = genus2_model()
        scaled = [w.scaled_by_p(2) for w in diffs]
        want = neron_basis_adjust(model, scaled).W_p

        def no_subspace(charts, diffs):
            raise PeriodError("all sample points are killed")

        spans = []
        nonzero_span = periods._nonzero_span

        def record(basis, p, g):
            spans.append(nonzero_span(basis, p, g))
            return spans[-1]

        monkeypatch.setattr(periods, "vanishing_subspace", no_subspace)
        monkeypatch.setattr(periods, "_nonzero_span", record)
        model, _ = genus2_model()
        assert neron_basis_adjust(model, scaled).W_p == want == Fraction(1, 4)
        every = [list(v) for v in itertools.product(range(2), repeat=2)
                 if any(v)]
        assert spans and all(s == every for s in spans)

    @pytest.mark.parametrize("change", ["scaled_by_p", "divided_by_p"])
    def test_step_5_asks_each_order_once(self, monkeypatch, change):
        # step 5 asks for the orders of a differential on each component
        # once: only the differential step 6 replaced is asked again
        model, diffs = genus2_model()
        combinations, asked = [], []
        combination = periods._combination
        order = periods.differential_order_on_component

        def record_combination(*args):
            combinations.append(combination(*args))
            return combinations[-1]

        def record_order(w, chart):
            # a step-6 candidate is a combination; step 5 asks the others
            if not any(w is c for c in combinations):
                asked.append((str(w.numerator), str(w.denominator),
                              chart.component_id))
            return order(w, chart)

        monkeypatch.setattr(periods, "_combination", record_combination)
        monkeypatch.setattr(periods, "differential_order_on_component",
                            record_order)
        res = neron_basis_adjust(model, [getattr(w, change)(2)
                                         for w in diffs])
        assert res.a + res.b == 2
        assert asked and len(asked) == len(set(asked))


# ---------------------------------------------------------------------------
# final assembly

class TestRealPeriod:
    def test_simple(self):
        assert real_period(1.0, Fraction(1), 2) == pytest.approx(2.0)

    def test_half(self):
        assert real_period(3.5, Fraction(1, 2), 1) == pytest.approx(1.75)

    def test_validation(self):
        with pytest.raises(PeriodError):
            real_period(0.0, Fraction(1), 1)

    def test_pipeline_invariance(self):
        model, diffs = genus2_model()
        rows = [[1.0 + 0j, 0j], [0j, 1.0 + 0j],
                [0.5 + 1j, 0.25 + 2j], [0.125 + 3j, 0.75 + 4j]]
        M = BigPeriodMatrix(2, rows)
        base = period_pipeline(M, [(model, diffs)], m_real=2)
        # scale differentials by p and the matrix columns by p: same omega
        scaled_diffs = [w.scaled_by_p(2) for w in diffs]
        M2 = BigPeriodMatrix(2, [[2 * z for z in r] for r in rows])
        scaled = period_pipeline(M2, [(model, scaled_diffs)], m_real=2)
        assert scaled.omega == pytest.approx(base.omega, rel=1e-9)
        assert scaled.W == base.W / 4
        assert scaled.P == pytest.approx(base.P * 4)

    def test_pipeline_rejects_repeated_prime(self):
        model, diffs = genus2_model()
        M = BigPeriodMatrix(2, [[1.0 + 0j, 0j], [0j, 1.0 + 0j],
                                [0.5 + 1j, 0.25 + 2j], [0.125 + 3j, 0.75 + 4j]])
        with pytest.raises(RepeatedPrimeError, match="p = 2"):
            period_pipeline(M, [(model, diffs)] * 2, m_real=2)
