"""Component group and Tamagawa number from combinatorial fibre data.

The special fibre of a regular model is given as components with
multiplicities, a symmetric intersection matrix M and a Frobenius
permutation.  The component group of the Jacobian's Neron model is
ker(beta-bar)/im(alpha-bar): the integer kernel of the multiplicity
vector m modulo the column lattice of M.  As M·m = 0 and rank M = n - 1
on a connected fibre, it is the torsion subgroup of coker M (Lorenzini,
"Arithmetical graphs", Math. Ann. 285, 1989).  The Tamagawa number c_p
counts Frobenius-fixed elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter, mul
from typing import Dict, List, Sequence, Tuple

from .intmat import (hermite_normal_form, invariant_factors,
                     inverse_columns, kernel_basis, mat_vec, rank_det,
                     smith_normal_form, solve_integer_matrix, transform_rows)
from .rings import factorize

ORACLE_CAP = 10 ** 4     # largest group brute_force_component_group lists


class FibreError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    id: str
    multiplicity: int


@dataclass
class SpecialFibre:
    p: int
    components: List[Component]
    intersections: List[List[int]]   # indexed like components
    frobenius: Dict[str, str]        # component id -> component id

    def index(self, cid: str) -> int:
        for i, c in enumerate(self.components):
            if c.id == cid:
                return i
        raise FibreError(f"unknown component id {cid!r}")

    @property
    def multiplicities(self) -> List[int]:
        return [c.multiplicity for c in self.components]


@dataclass
class FinAbGroupWithAction:
    invariant_factors: List[int]     # d_1 | d_2 | ..., each >= 2
    generators: List[List[int]]      # g_t of order d_t in coker M, as
    #                                  vectors in component coordinates
    action_matrix: List[List[int]]   # column t: Frobenius image of g_t

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def validate_fibre(F: SpecialFibre) -> List[str]:
    """The structural SpecialFibre invariants, as failure messages."""
    return _structure(F)[0]


def _structure(F: SpecialFibre) -> Tuple[List[str], List[int]]:
    """validate_fibre's messages and the Frobenius permutation sigma
    (P·e_i = e_sigma(i)) from one id -> index map, [] if not reached."""
    out: List[str] = []
    n = len(F.components)
    ids = [c.id for c in F.components]
    pos = {cid: i for i, cid in enumerate(ids)}
    if len(pos) != n:
        out.append("duplicate component ids")
        return out, []
    for c in F.components:
        if c.multiplicity < 1:
            out.append(f"component {c.id}: multiplicity "
                       f"{c.multiplicity} is not positive")
    M = F.intersections
    if len(M) != n or any(len(row) != n for row in M):
        out.append(f"intersection matrix is not {n}x{n}")
        return out, []
    # each check is one pass per row; the pairs are looked at only to
    # word the messages of a failed check
    if [list(col) for col in zip(*M)] != M:
        for i in range(n):
            for j in range(i + 1, n):
                if M[i][j] != M[j][i]:
                    out.append(f"intersection matrix asymmetric at pair "
                               f"({ids[i]}, {ids[j]}): "
                               f"{M[i][j]} != {M[j][i]}")
    m = F.multiplicities
    for cid, row in zip(ids, M):
        s = sum(map(mul, m, row))
        if s != 0:
            out.append(f"weighted row sum for component {cid} "
                       f"is {s}, not 0")
    if set(F.frobenius.keys()) != pos.keys() or \
            set(F.frobenius.values()) != pos.keys():
        out.append("frobenius is not a permutation of the component ids")
        return out, []
    sigma = [pos[F.frobenius[cid]] for cid in ids]
    for i in range(n):
        if m[sigma[i]] != m[i]:
            out.append(f"frobenius does not preserve the multiplicity "
                       f"of {ids[i]}")
    # M[sigma(i)][sigma(j)] = M[i][j]; for n <= 1, where itemgetter
    # gives no tuple, it holds anyway
    permute = itemgetter(*sigma) if n > 1 else list
    if any(list(permute(M[k])) != row for k, row in zip(sigma, M)):
        for i in range(n):
            for j in range(n):
                if M[sigma[i]][sigma[j]] != M[i][j]:
                    out.append(f"frobenius does not preserve the "
                               f"intersection number of "
                               f"({ids[i]}, {ids[j]})")
    return out, sigma


def _require_connected(rank: int, n: int):
    if n and rank != n - 1:
        raise FibreError(f"intersection graph is disconnected "
                         f"(matrix rank {rank} != {n - 1})")


def component_group(F: SpecialFibre) -> FinAbGroupWithAction:
    """The torsion of coker M from one Smith form U·M·V = D: coordinate t
    of U·x is cyclic of order d_t, so the generators are the columns of
    U^-1 with d_t > 1 (t < n - 1; d_{n-1} = 0 is the free part) and the
    Frobenius P·e_i = e_sigma(i) acts on them as U·P·U^-1.  Only those
    rows of U and columns of U^-1 are replayed from the elimination's
    log.  The same D gives rank M, checked here to be n - 1 (a connected
    fibre)."""
    diags, sigma = _structure(F)
    if diags:
        raise FibreError("; ".join(diags))
    n = len(F.components)
    D, log = smith_normal_form(F.intersections)
    _require_connected(sum(1 for t in range(n) if D[t][t]), n)
    torsion = [t for t in range(n - 1) if D[t][t] > 1]
    generators = inverse_columns(log, torsion, n)
    # (U·P·U^-1)[s][t] = sum_i U[s][sigma(i)]·U^-1[i][t]
    action = [[sum(map(mul, [u[k] for k in sigma], g)) % D[s][s]
               for g in generators]
              for s, u in zip(torsion, transform_rows(log, torsion, n))]
    return FinAbGroupWithAction([D[t][t] for t in torsion], generators,
                                action)


def tamagawa_number(F: SpecialFibre) -> int:
    G = component_group(F)
    return fixed_point_count(G)


def fixed_point_count(G: FinAbGroupWithAction) -> int:
    """|ker(action - 1)| on ⊕ ZZ/d_i, via the Smith form of the stacked
    relation matrix [A - I | diag(d)]."""
    t = len(G.invariant_factors)
    A = G.action_matrix
    stacked = [[A[i][j] - (1 if i == j else 0) for j in range(t)]
               + [G.invariant_factors[i] if j == i else 0 for j in range(t)]
               for i in range(t)]
    # [A-I | diag(d)] has full row rank (it contains diag(d)), so the
    # kernel count equals the product of its t invariant factors
    return prod(invariant_factors(stacked))


# ---------------------------------------------------------------------------
# brute-force oracle


def _kernel_coordinates(F: SpecialFibre, sigma: List[int]):
    """Kernel basis B of the multiplicity vector, the relation matrix C
    with B·C = intersection matrix (columns of C are im alpha-bar in
    kernel coordinates) and the Frobenius A on kernel coordinates, with
    B·A = P·B (sigma as from _structure).  Both are solved together
    against one Smith form of B."""
    n = len(F.components)
    B = kernel_basis([F.multiplicities])          # n x (n-1)
    PB: List[List[int]] = [[]] * n
    for i in range(n):
        PB[sigma[i]] = B[i]
    M = F.intersections
    X = solve_integer_matrix(B, [M[i] + PB[i] for i in range(n)])
    if X is None:
        if solve_integer_matrix(B, M) is None:
            raise FibreError("intersection column is not in ker beta-bar "
                             "(weighted row sums nonzero?)")
        raise FibreError("frobenius does not preserve ker beta-bar")
    C = [row[:n] for row in X]
    A = [row[n:] for row in X]
    return B, C, A


@dataclass
class GroupTable:
    order: int
    invariant_factors: List[int]
    fixed_point_count: int
    elements: List[Tuple[int, ...]]   # canonical coset representatives


def _invariants_from_counts(order: int, kill_count) -> List[int]:
    """Invariant factors of a finite abelian group from the counts
    c(k) = #{x : k·x = 0} (kill_count is that function)."""
    primes = factorize(order)
    per_prime: Dict[int, List[int]] = {}
    max_len = 0
    for q in primes:
        exps = []
        prev = 1
        j = 1
        while True:
            c = kill_count(q ** j)
            if c == prev:
                break
            s = 0
            ratio = c // prev
            while ratio > 1:
                ratio //= q
                s += 1
            exps.append(s)       # number of cyclic q-factors of order >= q^j
            prev = c
            j += 1
        # i-th largest factor exponent = #{j : exps[j] >= i}
        count = exps[0] if exps else 0
        factors = [sum(1 for s in exps if s >= i)
                   for i in range(1, count + 1)]
        per_prime[q] = sorted(factors)   # ascending
        max_len = max(max_len, len(factors))
    inv = []
    for i in range(max_len):
        d = 1
        for q, factors in per_prime.items():
            pad = [0] * (max_len - len(factors)) + factors
            d *= q ** pad[i]
        if d > 1:
            inv.append(d)
    return inv


def brute_force_component_group(F: SpecialFibre) -> GroupTable:
    """Enumerates ker beta-bar modulo im alpha-bar by coset hashing."""
    diags, sigma = _structure(F)
    if diags:
        raise FibreError("; ".join(diags))
    n = len(F.components)
    _require_connected(rank_det(F.intersections)[0], n)
    if n == 1:
        return GroupTable(1, [], 1, [()])
    B, C, A = _kernel_coordinates(F, sigma)
    r = len(C)
    H, _ = hermite_normal_form(C)     # r x n, first r columns triangular
    piv = [H[i][i] for i in range(r)]
    order = prod(piv)
    if order > ORACLE_CAP:
        raise FibreError(f"group order {order} exceeds cap {ORACLE_CAP}")

    def reduce(x: Sequence[int]) -> Tuple[int, ...]:
        y = list(x)
        for i in range(r):
            q = y[i] // piv[i]
            if q:
                for k in range(i, r):
                    y[k] -= q * H[k][i]
        return tuple(y)

    # enumerate canonical representatives
    elements: List[Tuple[int, ...]] = []
    idx = [0] * r
    while True:
        elements.append(reduce(idx))
        i = 0
        while i < r and idx[i] == piv[i] - 1:
            idx[i] = 0
            i += 1
        if i == r:
            break
        idx[i] += 1
    elements = sorted(set(elements))
    if len(elements) != order:
        raise FibreError("coset enumeration inconsistent with determinant")

    fixed = sum(1 for x in elements
                if reduce(mat_vec(A, list(x))) == x)

    def kill_count(k: int) -> int:
        return sum(1 for x in elements
                   if all(v == 0 for v in reduce([k * v for v in x])))

    inv = _invariants_from_counts(order, kill_count)
    return GroupTable(order, inv, fixed, elements)


# ---------------------------------------------------------------------------
# orbit expansion (copies of a cluster defined over an extension field)


@dataclass
class OrbitCluster:
    base_field_exponent: int                  # ell
    copies: int                               # m
    components: List[Component]               # copy-0 components
    internal_intersections: List[List[int]]
    internal_permutation: Dict[str, str]      # action of Frob^m on copy 0
    ambient_links: Dict[str, Dict[str, int]]  # copy-0 id -> ambient id -> num

    def index(self, cid: str) -> int:
        for i, c in enumerate(self.components):
            if c.id == cid:
                return i
        raise FibreError(f"unknown cluster component id {cid!r}")


@dataclass
class FibreFragment:
    components: List[Component]
    intersections: Dict[Tuple[str, str], int]   # canonical (sorted) pairs
    frobenius: Dict[str, str]
    ambient_links: Dict[str, Dict[str, int]]


def _validate_cluster(cluster: OrbitCluster):
    n = len(cluster.components)
    M = cluster.internal_intersections
    if len(M) != n or any(len(row) != n for row in M):
        raise FibreError("internal intersection matrix has wrong shape")
    for i in range(n):
        for j in range(n):
            if M[i][j] != M[j][i]:
                raise FibreError("internal intersection matrix asymmetric")
    ids = {c.id for c in cluster.components}
    if set(cluster.internal_permutation.keys()) != ids or \
            set(cluster.internal_permutation.values()) != ids:
        raise FibreError("internal permutation is not a permutation")
    sigma = [cluster.index(cluster.internal_permutation[c.id])
             for c in cluster.components]
    for i in range(n):
        if cluster.components[sigma[i]].multiplicity != \
                cluster.components[i].multiplicity:
            raise FibreError("internal permutation changes a multiplicity")
        for j in range(n):
            if M[sigma[i]][sigma[j]] != M[i][j]:
                raise FibreError("internal permutation does not preserve "
                                 "the intersection matrix")


def copy_id(cid: str, i: int) -> str:
    return f"{cid}#{i}"


def expand_orbit(cluster: OrbitCluster,
                 ambient_frobenius: Dict[str, str]) -> FibreFragment:
    """m copies of the cluster with the Frobenius cycling through them.

    Copy i maps identically onto copy i+1 for i < m-1; copy m-1 maps onto
    copy 0 via the internal permutation.  Distinct copies do not
    intersect; copy-i-to-ambient numbers are <D_0, sigma_ambient^{-i}(E)>.
    """
    _validate_cluster(cluster)
    m = cluster.copies
    if m < 1:
        raise FibreError("copies must be >= 1")
    amb_inv = {v: k for k, v in ambient_frobenius.items()}
    if len(amb_inv) != len(ambient_frobenius):
        raise FibreError("ambient frobenius is not a permutation")

    def amb_power(e: str, k: int) -> str:
        # sigma_ambient^{-k}(e)
        for _ in range(k):
            if e not in amb_inv:
                raise FibreError(f"ambient id {e!r} missing from the "
                                 "ambient frobenius")
            e = amb_inv[e]
        return e

    def amb_fwd(e: str, k: int) -> str:
        for _ in range(k):
            e = ambient_frobenius[e]
        return e

    # equivariance of the links under Frob^m: <pi(D), sigma^m(E)> = <D, E>;
    # a violation means the ambient permutation order is incompatible with m
    pi = cluster.internal_permutation
    for d, links in cluster.ambient_links.items():
        pd = pi[d]
        plinks = cluster.ambient_links.get(pd, {})
        for e, v in links.items():
            if e not in ambient_frobenius:
                raise FibreError(f"ambient id {e!r} missing from the "
                                 "ambient frobenius")
            if plinks.get(amb_fwd(e, m), 0) != v:
                raise FibreError(
                    f"ambient permutation order incompatible with {m} "
                    f"copies: link <{d}, {e}> = {v} is not matched by "
                    f"<{pd}, sigma^{m}({e})>")

    comps: List[Component] = []
    inter: Dict[Tuple[str, str], int] = {}
    frob: Dict[str, str] = {}
    links: Dict[str, Dict[str, int]] = {}
    n = len(cluster.components)
    for i in range(m):
        for c in cluster.components:
            comps.append(Component(copy_id(c.id, i), c.multiplicity))
        for a in range(n):
            for b in range(a, n):
                v = cluster.internal_intersections[a][b]
                if v or a == b:
                    key = tuple(sorted((
                        copy_id(cluster.components[a].id, i),
                        copy_id(cluster.components[b].id, i))))
                    inter[key] = v
        for c in cluster.components:
            if i < m - 1:
                frob[copy_id(c.id, i)] = copy_id(c.id, i + 1)
            else:
                frob[copy_id(c.id, i)] = copy_id(pi[c.id], 0)
        for d, lk in cluster.ambient_links.items():
            row = {}
            for e, v in lk.items():
                if v:
                    row[amb_power(e, i)] = row.get(amb_power(e, i), 0) + v
            if row:
                links[copy_id(d, i)] = row
    return FibreFragment(comps, inter, frob, links)


def assemble_fibre(p: int,
                   ambient_components: List[Component],
                   ambient_intersections: List[List[int]],
                   ambient_frobenius: Dict[str, str],
                   fragment: FibreFragment) -> SpecialFibre:
    """Merge an expanded fragment into the ambient data to a full fibre."""
    comps = list(ambient_components) + list(fragment.components)
    ids = [c.id for c in comps]
    pos = {cid: k for k, cid in enumerate(ids)}
    n = len(comps)
    M = [[0] * n for _ in range(n)]
    na = len(ambient_components)
    for i in range(na):
        for j in range(na):
            M[i][j] = ambient_intersections[i][j]
    for (a, b), v in fragment.intersections.items():
        i, j = pos[a], pos[b]
        M[i][j] = v
        M[j][i] = v
    for d, lk in fragment.ambient_links.items():
        for e, v in lk.items():
            i, j = pos[d], pos[e]
            M[i][j] = v
            M[j][i] = v
    frob = dict(ambient_frobenius)
    frob.update(fragment.frobenius)
    return SpecialFibre(p, comps, M, frob)
