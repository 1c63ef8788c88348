"""compgroup module: component groups, Tamagawa numbers, orbit expansion,
and the exact integer matrix layer (intmat)."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsdkit.compgroup as compgroup
import bsdkit.intmat as intmat
from bsdkit.cli import main
from bsdkit.compgroup import (Component, FibreError, OrbitCluster,
                              SpecialFibre, _kernel_coordinates,
                              assemble_fibre,
                              brute_force_component_group, component_group,
                              expand_orbit, fixed_point_count,
                              tamagawa_number, validate_fibre)
from bsdkit.intmat import (hermite_normal_form, identity, invariant_factors,
                           inverse_columns, inverse_unimodular, kernel_basis,
                           mat_mul, rank_det, smith_normal_form,
                           smith_transforms, solve_integer,
                           solve_integer_matrix, solve_rational,
                           transform_rows)
from bsdkit.modelfile import load_model, parse_fibre
from bsdkit.rings import QQ

from conftest import (criterion4_corpus, criterion5_fibres, fixture_path,
                      mat_rref)


def cycle_fibre(n, p=7, rot=0, mults=None):
    mults = mults or [1] * n
    comps = [Component(f"C{i}", mults[i]) for i in range(n)]
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = -2
        M[i][(i + 1) % n] += 1
        M[(i + 1) % n][i] += 1
    if n == 1:
        M = [[0]]
    if n == 2:
        M = [[-2, 2], [2, -2]]
    frob = {f"C{i}": f"C{(i + rot) % n}" for i in range(n)}
    return SpecialFibre(p, comps, M, frob)


STAR = SpecialFibre(
    3,
    [Component("C", 1), Component("A1", 1), Component("A2", 1),
     Component("A3", 1)],
    [[-3, 1, 1, 1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]],
    {"C": "C", "A1": "A2", "A2": "A3", "A3": "A1"})

MULT2 = SpecialFibre(
    2, [Component("A", 2), Component("B", 1)],
    [[-1, 2], [2, -4]], {"A": "A", "B": "B"})

# two disjoint 3-cycles: every structural check holds, rank M = 4 != 5
TWO_TRIANGLES = SpecialFibre(
    7, [Component(f"{a}{i}", 1) for a in "AB" for i in range(3)],
    [[0 if (i < 3) != (j < 3) else -2 if i == j else 1 for j in range(6)]
     for i in range(6)],
    {f"{a}{i}": f"{a}{i}" for a in "AB" for i in range(3)})
DISCONNECTED = "intersection graph is disconnected (matrix rank 4 != 5)"


# ---------------------------------------------------------------------------
# validate_fibre

class TestValidate:
    def test_single_component(self):
        F = SpecialFibre(5, [Component("C", 1)], [[0]], {"C": "C"})
        assert validate_fibre(F) == []

    def test_two_components(self):
        assert validate_fibre(cycle_fibre(2)) == []

    def test_asymmetric_matrix_named(self):
        F = SpecialFibre(2, [Component("A", 1), Component("B", 1)],
                         [[-2, 2], [1, -2]], {"A": "A", "B": "B"})
        diags = validate_fibre(F)
        assert diags and any("A" in d and "B" in d for d in diags)

    def test_row_sum_violation(self):
        F = SpecialFibre(2, [Component("A", 1), Component("B", 1)],
                         [[-2, 1], [1, -2]], {"A": "A", "B": "B"})
        assert validate_fibre(F)

    def test_frobenius_must_preserve_multiplicity(self):
        F = SpecialFibre(2, [Component("A", 2), Component("B", 1)],
                         [[-1, 2], [2, -4]], {"A": "B", "B": "A"})
        assert validate_fibre(F)

    def test_failed_checks_word_every_pair_in_order(self):
        def fibre(mults, M, frob):
            ids = "ABCD"[:len(mults)]
            return SpecialFibre(3, [Component(c, k)
                                    for c, k in zip(ids, mults)],
                                M, dict(zip(ids, frob)))

        def no_frob(pair):
            return f"frobenius does not preserve the intersection " \
                f"number of ({pair[0]}, {pair[1]})"

        assert validate_fibre(fibre(
            [1, 2, 1], [[-2, 1, 0], [2, -1, 1], [0, 2, -2]], "BAC")) == [
            "intersection matrix asymmetric at pair (A, B): 1 != 2",
            "intersection matrix asymmetric at pair (B, C): 1 != 2",
            "weighted row sum for component B is 1, not 0",
            "weighted row sum for component C is 2, not 0",
            "frobenius does not preserve the multiplicity of A",
            "frobenius does not preserve the multiplicity of B"] + [
            no_frob(pair) for pair in
            ("AA", "AB", "AC", "BA", "BB", "BC", "CA", "CB")]
        assert validate_fibre(fibre(
            [1, 1, 1, 1], [[-2, 1, 1, 0], [1, -2, 0, 1], [1, 0, -2, 1],
                           [0, 1, 1, -2]], "BCAD")) == [
            no_frob(pair) for pair in
            ("AB", "AD", "BA", "BC", "CB", "CD", "DA", "DC")]
        assert validate_fibre(fibre([1, 1], [[-1, 2], [1, -1]], "AA")) == [
            "intersection matrix asymmetric at pair (A, B): 2 != 1",
            "weighted row sum for component A is 1, not 0",
            "frobenius is not a permutation of the component ids"]
        assert validate_fibre(fibre([2], [[3]], "A")) == [
            "weighted row sum for component A is 6, not 0"]
        assert validate_fibre(fibre([], [], "")) == []


# ---------------------------------------------------------------------------
# component_group / tamagawa_number

class TestComponentGroup:
    def test_cycle5_is_z5(self):
        G = component_group(cycle_fibre(5))
        assert G.invariant_factors == [5]

    def test_single_component_trivial(self):
        F = SpecialFibre(5, [Component("C", 1)], [[0]], {"C": "C"})
        G = component_group(F)
        assert G.invariant_factors == []
        assert tamagawa_number(F) == 1

    def test_two_components_z2(self):
        G = component_group(cycle_fibre(2))
        assert G.invariant_factors == [2]

    @pytest.mark.parametrize("compute", [component_group,
                                         brute_force_component_group])
    def test_disconnected_fibre_refused(self, compute):
        with pytest.raises(FibreError) as info:
            compute(TWO_TRIANGLES)
        assert str(info.value) == DISCONNECTED

    def test_validate_fibre_is_structural_only(self):
        assert validate_fibre(TWO_TRIANGLES) == []

    @pytest.mark.parametrize("name", ["cycle5.json", "star4.json",
                                      "mult2.json"])
    def test_no_second_elimination(self, monkeypatch, capsys, name):
        # rank M = n - 1 comes from the Smith form component_group takes;
        # only the brute-force oracle runs its own rank_det
        def refuse(M):
            raise AssertionError("rank_det on the production path")

        monkeypatch.setattr(intmat, "rank_det", refuse)
        monkeypatch.setattr(compgroup, "rank_det", refuse)
        F = parse_fibre(load_model(fixture_path(name)))
        G = component_group(F)
        assert tamagawa_number(F) == fixed_point_count(G)
        assert main(["tamagawa", fixture_path(name)]) == 0
        assert json.loads(capsys.readouterr().out)["invariant_factors"] \
            == G.invariant_factors

    def test_cycle5_identity_frobenius(self):
        assert tamagawa_number(cycle_fibre(5)) == 5

    def test_cycle5_rotation(self):
        got = tamagawa_number(cycle_fibre(5, rot=1))
        oracle = brute_force_component_group(cycle_fibre(5, rot=1))
        assert got == oracle.fixed_point_count

    def test_star_oracle(self):
        got = tamagawa_number(STAR)
        oracle = brute_force_component_group(STAR)
        assert got == oracle.fixed_point_count
        assert component_group(STAR).invariant_factors == \
            oracle.invariant_factors

    def test_multiplicity_two_config(self):
        # the criterion-5 clusters join multiplicities above 1 to a
        # Frobenius that cycles the copies
        fibres = [MULT2]
        for F, relabelings in criterion5_fibres():
            fibres += [F] + relabelings
        for F in fibres:
            G = component_group(F)
            oracle = brute_force_component_group(F)
            assert G.invariant_factors == oracle.invariant_factors, F
            assert tamagawa_number(F) == oracle.fixed_point_count, F

    def test_cycle_family_against_oracle(self):
        for n in range(1, 13):
            for rot in range(n):
                F = cycle_fibre(n, rot=rot)
                oracle = brute_force_component_group(F)
                assert tamagawa_number(F) == oracle.fixed_point_count, \
                    (n, rot)
                assert component_group(F).invariant_factors == \
                    oracle.invariant_factors

    def test_cp_divides_group_order(self):
        for F in (cycle_fibre(6, rot=2), STAR, MULT2):
            G = component_group(F)
            assert G.order % tamagawa_number(F) == 0

    def test_cp_equals_order_for_identity_frobenius(self):
        for n in (3, 4, 7):
            F = cycle_fibre(n)
            assert tamagawa_number(F) == component_group(F).order

    def test_relabeling_invariance(self):
        rng = random.Random(2)
        F = cycle_fibre(6, rot=2)
        n = len(F.components)
        perm = list(range(n))
        rng.shuffle(perm)
        comps = [F.components[perm[i]] for i in range(n)]
        M = [[F.intersections[perm[i]][perm[j]] for j in range(n)]
             for i in range(n)]
        frob = {F.components[perm[i]].id:
                F.frobenius[F.components[perm[i]].id] for i in range(n)}
        G = SpecialFibre(F.p, comps, M, frob)
        assert tamagawa_number(G) == tamagawa_number(F)
        assert component_group(G).invariant_factors == \
            component_group(F).invariant_factors


# ---------------------------------------------------------------------------
# shuffled component orders: the cost and the answer must not depend on them

def theta_edges(a, b, c):
    """Components 0 and 1 joined by chains of a, b and c edges."""
    edges, chains, nxt = [], [], 2
    for length in (a, b, c):
        path = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        chains.append(path)
        edges.extend(zip(path, path[1:]))
    return nxt, edges, chains


def graph_fibre(n, edges, sigma, perm):
    """Dual-graph fibre, vertex v becoming component perm[v], Frobenius
    v -> sigma[v]."""
    M = [[0] * n for _ in range(n)]
    for u, v in edges:
        M[perm[u]][perm[v]] += 1
        M[perm[v]][perm[u]] += 1
    for i in range(n):
        M[i][i] = -sum(M[i][j] for j in range(n) if j != i)
    comps = [Component(f"C{i}", 1) for i in range(n)]
    frob = {f"C{perm[v]}": f"C{perm[sigma[v]]}" for v in range(n)}
    return SpecialFibre(7, comps, M, frob)


def shuffled(n, seed):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def graph_family():
    """(n, edges, sigma, spanning-tree count) for cycles and theta graphs
    with trivial, reflected and swapped Frobenius."""
    for n in (5, 8, 12):
        edges = [(i, (i + 1) % n) for i in range(n)]
        yield n, edges, list(range(n)), n
        yield n, edges, [(-i) % n for i in range(n)], n
    for a, b, c in ((2, 2, 3), (3, 3, 2), (4, 4, 3), (3, 5, 4)):
        n, edges, chains = theta_edges(a, b, c)
        trees = a * b + b * c + c * a
        yield n, edges, list(range(n)), trees
        if a == b:
            sigma = list(range(n))
            for u, v in zip(chains[0][1:-1], chains[1][1:-1]):
                sigma[u], sigma[v] = v, u
            yield n, edges, sigma, trees


def test_shuffled_orders_match_oracle():
    for n, edges, sigma, trees in graph_family():
        for seed in range(3):
            F = graph_fibre(n, edges, sigma, shuffled(n, seed))
            G = component_group(F)
            oracle = brute_force_component_group(F)
            assert G.order == trees, (n, edges, seed)
            assert G.invariant_factors == oracle.invariant_factors
            assert fixed_point_count(G) == oracle.fixed_point_count


def test_component_group_factors_each_matrix_once(monkeypatch):
    # one Smith form, of the intersection matrix itself, and no Hermite
    # form, kernel or lattice solve; of its transforms only the torsion
    # rows of U and columns of U^-1 are replayed, never all of U, U^-1
    # or V
    calls, replayed = [], []

    def counting(name, fn):
        def wrapper(*args):
            calls.append((name, args[0]))
            return fn(*args)
        return wrapper

    def replaying(fn):
        def wrapper(log, lines, n):
            replayed.append((fn.__name__, len(lines)))
            return fn(log, lines, n)
        return wrapper

    def refuse(*args):
        raise AssertionError("all Smith transforms built")

    for fn in (smith_normal_form, hermite_normal_form, kernel_basis,
               solve_integer_matrix):
        wrapped = counting(fn.__name__, fn)
        for module in ("bsdkit.intmat", "bsdkit.compgroup"):
            monkeypatch.setattr(f"{module}.{fn.__name__}", wrapped)
    for module in ("bsdkit.intmat", "bsdkit.compgroup"):
        monkeypatch.setattr(f"{module}.smith_transforms", refuse,
                            raising=False)
    for fn in (transform_rows, inverse_columns):
        monkeypatch.setattr(f"bsdkit.compgroup.{fn.__name__}",
                            replaying(fn))
    n, edges, _ = theta_edges(6, 6, 5)
    for F in [cycle_fibre(k, rot=1) for k in (2, 5, 12, 30)] + \
            [graph_fibre(n, edges, list(range(n)), shuffled(n, 0))]:
        calls.clear()
        replayed.clear()
        k = len(component_group(F).invariant_factors)
        assert calls == [("smith_normal_form", F.intersections)], calls
        assert sorted(replayed) == [("inverse_columns", k),
                                    ("transform_rows", k)], replayed


def full_snf(A):
    """D, U, V and U_inv of the production Smith form, the transforms
    from the full replay of its log."""
    D, log = smith_normal_form(A)
    return (D, *smith_transforms(D, log))


def test_targeted_replay_matches_full_replay():
    # every kind of logged operation: row and column swaps (the smallest
    # entry off the diagonal), a negative pivot, and the row add that
    # makes the pivot divide the block (diag(2, 3))
    rng = random.Random(11)
    mats = [[[2, 0], [0, 3]], [[0, 5], [-3, 0]], [[-4, 6], [6, 9]],
            [[4, 0, 6], [0, 6, 0], [10, 0, 15]]]
    mats += [[[rng.randint(-20, 20) for _ in range(5)] for _ in range(4)]
             for _ in range(20)]
    kinds = set()
    for A in mats:
        n = len(A)
        D, log = smith_normal_form(A)
        U, V, U_inv = smith_transforms(D, log)
        assert mat_mul(mat_mul(U, A), V) == D
        for ops, name in zip(log, "RC"):
            kinds |= {name + ("swap" if not c else "neg" if i == j else
                              "add") for i, j, c in ops}
        kinds |= {"divides" for i, j, c in log[0] if i < j and c == 1}
        for lines in ([], [0], [n - 1, 0], list(range(n))):
            assert transform_rows(log, lines, n) == [U[s] for s in lines]
            assert inverse_columns(log, lines, n) == \
                [[row[t] for row in U_inv] for t in lines]
    assert kinds == {"Rswap", "Radd", "Rneg", "Cswap", "Cadd", "divides"}
    D, log = smith_normal_form([[2, 0], [0, 3]])
    assert D == [[1, 0], [0, 6]] and (0, 1, 1) in log[0]


def test_snf_inverse_on_shuffled_theta():
    n, edges, _ = theta_edges(24, 24, 2)
    F = graph_fibre(n, edges, list(range(n)), shuffled(n, 0))
    sigma = [F.index(F.frobenius[c.id]) for c in F.components]
    _, C, _ = _kernel_coordinates(F, sigma)
    for A in (C, F.intersections):
        D, U, V, U_inv = full_snf(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert mat_mul(U, U_inv) == identity(len(A))
    G = component_group(F)
    assert G.invariant_factors == [2, 336]
    assert fixed_point_count(G) == 24 * 24 + 2 * 24 * 2


def test_snf_transforms_stay_small_on_shuffled_theta():
    # in this order a pivot on the first nonzero entry, not the smallest,
    # gives U, U_inv and V of thousands of bits
    n, edges, _ = theta_edges(18, 20, 12)
    A = graph_fibre(n, edges, list(range(n)), shuffled(n, 81)).intersections
    D, U, V, U_inv = full_snf(A)
    assert mat_mul(mat_mul(U, A), V) == D
    assert mat_mul(U, U_inv) == identity(n)
    for M in (U, U_inv, V):
        assert all(-2 ** 63 <= x < 2 ** 63 for row in M for x in row)


def in_image(M, v):
    return solve_integer_matrix(M, [[x] for x in v]) is not None


def test_generators_have_the_stated_orders_and_action():
    """Each generator g_t lies in ker beta-bar, has order d_t in coker M,
    and P·g_t - sum_s action[s][t]·g_s lies in im M."""
    fibres = criterion4_corpus()
    for F, relabelings in criterion5_fibres():
        fibres += [F] + relabelings
    for n, edges, sigma, _ in graph_family():
        fibres += [graph_fibre(n, edges, sigma, shuffled(n, seed))
                   for seed in range(3)]
    for F in fibres:
        G = component_group(F)
        M, m, n = F.intersections, F.multiplicities, len(F.components)
        sigma = [F.index(F.frobenius[c.id]) for c in F.components]
        gens = G.generators
        for t, (g, d) in enumerate(zip(gens, G.invariant_factors)):
            assert len(g) == n and sum(a * x for a, x in zip(m, g)) == 0
            assert in_image(M, [d * x for x in g]), (F, t)
            for k in range(1, d):
                if d % k == 0:
                    assert not in_image(M, [k * x for x in g]), (F, t, k)
            image = [0] * n
            for i in range(n):
                image[sigma[i]] = g[i]
            for s, h in enumerate(gens):
                a = G.action_matrix[s][t]
                image = [x - a * y for x, y in zip(image, h)]
            assert in_image(M, image), (F, t)


def test_snf_inverse_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        A = [[rng.randint(-30, 30) for _ in range(m)] for _ in range(n)]
        D, U, V, U_inv = full_snf(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert mat_mul(U, U_inv) == identity(n)


def test_snf_matches_sympy_invariant_factors():
    # an independent Smith form: sympy's invariant factors, zeros included,
    # against the diagonal of D and against invariant_factors; low-rank
    # matrices come from products of thin random factors
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_if
    rng = random.Random(53)
    for _ in range(60):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            A = [[rng.randint(-40, 40) for _ in range(m)] for _ in range(n)]
        else:
            r = rng.randint(1, min(n, m))
            B = [[rng.randint(-6, 6) for _ in range(r)] for _ in range(n)]
            C = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(r)]
            A = mat_mul(B, C)
        expected = [abs(int(d)) for d in
                    sympy_if(sympy.Matrix(A), domain=sympy.ZZ)]
        D = smith_normal_form(A)[0]
        assert [D[t][t] for t in range(min(n, m))] == expected, A
        assert invariant_factors(A) == [d for d in expected if d], A


def _fraction_rank(M):
    A = [[Fraction(x) for x in row] for row in M]
    rank, rows, cols = 0, len(A), len(A[0])
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(rows):
            if r != rank and A[r][c]:
                f = A[r][c] / A[rank][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[rank])]
        rank += 1
    return rank


def test_rational_rank_matches_fraction_elimination():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        if rng.random() < 0.5:
            A = [[rng.randint(-50, 50) for _ in range(m)] for _ in range(n)]
        else:
            # a product through k < min(n, m) is rank-deficient
            k = rng.randint(1, max(1, min(n, m) - 1))
            L = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)]
            R = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
            A = mat_mul(L, R)
        assert rank_det(A)[0] == _fraction_rank(A), A
    n, edges, _ = theta_edges(5, 5, 4)
    M = graph_fibre(n, edges, list(range(n)), shuffled(n, 1)).intersections
    assert rank_det(M)[0] == _fraction_rank(M) == n - 1


def _fraction_det(M):
    A = [[Fraction(x) for x in row] for row in M]
    n, det = len(A), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def test_rank_det_determinant_matches_fraction_elimination():
    rng = random.Random(12)
    assert rank_det([]) == (0, 1)
    for _ in range(60):
        n = rng.randint(1, 8)
        A = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # a row twice another makes A singular
            i, j = rng.sample(range(n), 2)
            A[i] = [2 * x for x in A[j]]
        assert rank_det(A)[1] == _fraction_det(A), A
    # zero leading entries force row swaps
    A = [[0, 0, 3], [0, 2, 1], [5, 1, 1]]
    assert rank_det(A) == (3, _fraction_det(A)) == (3, -30)
    # a non-square matrix has no determinant
    assert rank_det([[1, 2, 3], [4, 5, 6]]) == (2, 0)


def test_solve_rational_matches_gauss_jordan():
    # [M | B] against mat_rref over QQ: a pivot in each of M's columns
    # exactly when the solve answers, and then the same solution columns
    rng = random.Random(19)
    singular = 0
    for _ in range(150):
        n, k = rng.randint(1, 9), rng.randint(0, 3)
        bits = rng.choice((3, 12, 64))
        A = [[rng.randint(-2 ** bits, 2 ** bits) for _ in range(n + k)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            # a column of M combined from two others, or a zero column
            i, j, c = rng.choice([(i, j, c) for i in range(n)
                                  for j in range(n) for c in range(n)
                                  if len({i, j, c}) == 3] or [(0, 0, 1)])
            for row in A:
                row[c] = 0 if i == j else 3 * row[i] - row[j]
        if rng.random() < 0.2:
            A[rng.randrange(n)][0] = 0         # zero leads force swaps
        red, pivots = mat_rref(QQ, A)
        got = solve_rational(A, n)
        if pivots[:n] != list(range(n)):
            assert got is None, A
            singular += 1
            continue
        assert got == [[row[n + j] for row in red] for j in range(k)], A
        assert all(isinstance(v, Fraction) for col in got for v in col)
    assert 30 <= singular <= 120, singular
    assert solve_rational([[0, 0, 1], [0, 1, 2]], 2) is None
    assert solve_rational([[0, 2, 1], [3, 1, 0]], 2) == [
        [Fraction(-1, 6), Fraction(1, 2)]]


# ---------------------------------------------------------------------------
# orbit expansion

def simple_cluster(m, link_val=1):
    return OrbitCluster(
        base_field_exponent=1, copies=m,
        components=[Component("D", 1)],
        internal_intersections=[[-2]],
        internal_permutation={"D": "D"},
        ambient_links={"D": {"E": link_val}})


class TestExpandOrbit:
    def test_m1_identity(self):
        frag = expand_orbit(simple_cluster(1), {"E": "E"})
        assert [c.id for c in frag.components] == ["D#0"]
        assert frag.intersections[("D#0", "D#0")] == -2
        assert frag.frobenius == {"D#0": "D#0"}
        assert frag.ambient_links == {"D#0": {"E": 1}}

    def test_m2_swap(self):
        frag = expand_orbit(simple_cluster(2), {"E": "E"})
        assert {c.id for c in frag.components} == {"D#0", "D#1"}
        assert frag.frobenius == {"D#0": "D#1", "D#1": "D#0"}
        # no inter-copy intersection recorded
        assert ("D#0", "D#1") not in frag.intersections
        assert frag.ambient_links["D#0"] == {"E": 1}
        assert frag.ambient_links["D#1"] == {"E": 1}

    def test_incompatible_ambient_order(self):
        cluster = simple_cluster(2)
        # ambient Frobenius swaps E and E2 but only E is linked: the
        # link is not equivariant under sigma^2... use an order-3 cycle
        amb = {"E": "E2", "E2": "E3", "E3": "E"}
        with pytest.raises(FibreError, match="incompatible"):
            expand_orbit(cluster, amb)

    def test_m3_total_frobenius_order(self):
        frag = expand_orbit(simple_cluster(3), {"E": "E"})
        # Frobenius should cycle D#0 -> D#1 -> D#2 -> D#0
        e = "D#0"
        seen = []
        for _ in range(3):
            seen.append(e)
            e = frag.frobenius[e]
        assert e == "D#0" and len(set(seen)) == 3

    def test_assembled_fibre_validates(self):
        frag = expand_orbit(simple_cluster(2), {"E": "E"})
        # ambient E needs multiplicity 2 to balance two links of value 1,
        # self-intersection -1 so that row sums vanish:
        # row E: 2*(-1) + 1 + 1 = 0; row D#i: -2*1 + 2*1 = 0
        F = assemble_fibre(2, [Component("E", 2)], [[-1]], {"E": "E"}, frag)
        assert validate_fibre(F) == []


# ---------------------------------------------------------------------------
# intmat property tests

mat_strategy = st.integers(1, 6).flatmap(lambda m: st.lists(
    st.lists(st.integers(-60, 60), min_size=m, max_size=m),
    min_size=1, max_size=6))


def _det(M):
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        inv = 1 / A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] * inv
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det


def is_column_hnf(H):
    """Each nonzero column's first nonzero entry (its pivot) is positive
    and lies below the previous column's pivot, zero columns come last,
    and the entries left of a pivot in its row lie in [0, pivot)."""
    last_row, zero_seen = -1, False
    for c in range(len(H[0])):
        rows = [r for r in range(len(H)) if H[r][c]]
        if not rows:
            zero_seen = True
            continue
        r = rows[0]
        if zero_seen or r <= last_row or H[r][c] <= 0:
            return False
        if not all(0 <= H[r][j] < H[r][c] for j in range(c)):
            return False
        last_row = r
    return True


@settings(max_examples=80, deadline=None)
@given(mat_strategy)
def test_hnf_properties(A):
    H, V = hermite_normal_form(A)
    assert mat_mul(A, V) == H
    assert abs(_det(V)) == 1
    assert is_column_hnf(H)


def test_hnf_check_rejects_other_column_forms():
    H, _ = hermite_normal_form([[2, 3, 5], [7, 11, 13], [1, 4, 9]])
    assert H == [[1, 0, 0], [0, 1, 0], [12, 5, 29]]
    assert is_column_hnf(H)
    # unimodular column transforms of H that leave the echelon form
    for V in ([[0, 1, 0], [1, 0, 0], [0, 0, 1]],     # pivots out of order
              [[1, 0, 0], [0, 1, 0], [1, 0, 1]],     # 41 left of pivot 29
              [[1, 0, 0], [0, -1, 0], [0, 0, 1]]):   # negative pivot
        assert not is_column_hnf(mat_mul(H, V))
    H, _ = hermite_normal_form([[1, 2], [2, 4]])
    assert H == [[1, 0], [2, 0]] and is_column_hnf(H)
    assert not is_column_hnf(mat_mul(H, [[0, 1], [1, 0]]))  # zero col first


def check_snf_contract(A):
    """The Smith form contract on A; returns the diagonal of D."""
    D, U, V, U_inv = full_snf(A)
    n, m = len(A), len(A[0]) if A else 0
    assert mat_mul(mat_mul(U, A), V) == D
    assert mat_mul(U, U_inv) == identity(n)
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1
    assert all(len(row) == m for row in D) and len(D) == n
    diag = [D[i][i] for i in range(min(n, m))]
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    for i in range(n):
        for j in range(m):
            if i != j:
                assert D[i][j] == 0
    return diag


@settings(max_examples=80, deadline=None)
@given(mat_strategy)
def test_snf_properties(A):
    check_snf_contract(A)


def test_snf_edge_shapes():
    u, v = [2, -4, 6], [3, 0, -9, 6]
    for A, diag, factors in (
            ([], [], []),
            ([[], []], [], []),
            ([[0, 0, 0], [0, 0, 0]], [0, 0], []),
            ([[-3]], [3], [3]),
            ([[4], [6], [-10]], [2], [2]),
            ([[a * b for b in v] for a in u], [6, 0, 0], [6])):
        assert check_snf_contract(A) == diag, A
        assert invariant_factors(A) == factors, A


@settings(max_examples=60, deadline=None)
@given(mat_strategy)
def test_kernel_basis_annihilates(A):
    K = kernel_basis(A)
    if K and K[0]:
        prod = mat_mul(A, K)
        assert all(all(x == 0 for x in row) for row in prod)


def test_invariant_factors_example():
    assert invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert invariant_factors([[4, 0], [0, 2]]) == [2, 4]


def test_inverse_unimodular():
    U = [[1, 2], [1, 3]]
    assert mat_mul(U, inverse_unimodular(U)) == identity(2)
    _, P, _, P_inv = full_snf(U)
    assert mat_mul(P, P_inv) == identity(2)


def test_solve_integer():
    A = [[2, 0], [0, 3]]
    assert solve_integer(A, [4, 9]) == [2, 3]
    assert solve_integer(A, [1, 0]) is None


def test_solve_integer_matrix():
    A = [[2, 0], [0, 3], [0, 0]]
    assert solve_integer_matrix(A, [[4, 2], [9, -3], [0, 0]]) == \
        [[2, 1], [3, -1]]
    # one column outside the lattice fails the whole solve
    assert solve_integer_matrix(A, [[4, 1], [9, 0], [0, 0]]) is None
    assert solve_integer_matrix(A, [[4, 2], [9, 3], [0, 1]]) is None
