"""Number-field towers with the subfield property and p inert.

A tower is grown one prime ell at a time: the ell-chain QQ = F_0 c F_1 c
F_2 c ... (degree ell^a at level a) is extended by lifting an irreducible
degree-ell polynomial over the residue field of the top chain level, and
product fields for several primes are built as composita of chain levels.
Every constructed field carries p inert (its defining polynomial stays
irreducible mod p) and a registry of subfields, one per divisor of the
degree, with embedding witnesses.

Polynomials here are univariate, encoded as tuples of coefficients in
ascending degree: ints for ZZ-level data, Fractions for QQ-level
embeddings.  Their arithmetic is the univariate layer of `rings`, which
computes on these plain numbers directly.
The primitive-element candidates are algebraic integers, so their
algebra stays over ZZ and Fractions enter their minimal polynomials only
through the witnesses of one fraction-free solve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .intmat import solve_rational
from .rings import (QQ, ZZ, CoefficientRing, factorize, find_irreducible,
                    is_prime, up, up_add, up_is_irreducible,
                    up_is_squarefree, up_mod, up_mul, up_scale, up_sub,
                    up_trim)

DEGREE_CAP = 24
SEARCH_BUDGET = 200        # random lifts tried per new chain level
IRREDUCIBLE_TRIES = 2000   # random draws per irreducible over GF(p^k)


class FieldTowerError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer resultants and discriminants


def _prem(A: Sequence[int], B: Sequence[int]) -> Tuple[int, ...]:
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) A mod B over ZZ, for
    deg A >= deg B >= 1: one scaling by lc(B) per degree of A from the
    top down to deg B, whether or not that coefficient is zero."""
    d, b = len(B) - 1, B[-1]
    R = list(A)
    while len(R) > d:
        c, k = R.pop(), len(R) - d
        R = [b * x for x in R]
        for i in range(d):
            R[k + i] -= c * B[i]
    return up_trim(ZZ, R)


def resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) of integer univariate polynomials by the subresultant PRS
    (Collins 1967; Cohen, Alg. 3.3.7, without the content split): each
    step is one pseudo-remainder and one exact division, O(n^2) big-int
    operations in all.  Trailing zero coefficients do not count towards
    the degree; Res(0, g) = 0 and Res(f, c) = c^deg f for a constant c."""
    A, B = up_trim(ZZ, f), up_trim(ZZ, g)
    if not A or not B:
        return 0
    s = 1
    if len(A) < len(B):
        # Res(f, g) = (-1)^(deg f deg g) Res(g, f)
        if (len(A) - 1) % 2 and (len(B) - 1) % 2:
            s = -1
        A, B = B, A
    if len(B) == 1:
        return B[0] ** (len(A) - 1)    # Res(A, c) = c^deg A
    lc = h = 1
    while len(B) > 1:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 and db % 2:
            s = -s
        R = _prem(A, B)
        if not R:
            return 0                  # common factor of positive degree
        q = lc * h ** delta
        A, B = B, [c // q for c in R]
        lc = A[-1]
        h = lc ** delta * h // h ** delta       # lc^delta / h^(delta - 1)
    da = len(A) - 1
    return s * B[0] ** da // h ** (da - 1)


def discriminant(f: Sequence[int]) -> int:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic integer f of
    degree n >= 1."""
    f = tuple(f)
    n = len(f) - 1
    if n < 1:
        raise FieldTowerError("discriminant needs degree >= 1")
    if f[-1] != 1:
        raise FieldTowerError("discriminant implemented for monic f")
    r = resultant(f, [i * f[i] for i in range(1, n + 1)])
    return -r if (n * (n - 1) // 2) % 2 else r


def _compose_mod(a, b, g) -> Tuple[Fraction, ...]:
    """a(b) mod g for QQ-polynomials a, b and a monic integer g, over ZZ:
    with a = A/da and b = B/db, Horner gives acc = sum A_i B^i db^(n-i)
    mod g (n = deg a), and a(b) mod g = acc / (da db^n)."""
    if not g or g[-1] != 1 or any(c.denominator != 1 for c in g):
        raise FieldTowerError("composition needs a monic integer modulus")
    g = tuple(c.numerator for c in g)
    da = lcm(*(c.denominator for c in a))
    db = lcm(*(c.denominator for c in b))
    A = [c.numerator * (da // c.denominator) for c in a]
    B = up_mod(ZZ, [c.numerator * (db // c.denominator) for c in b], g)
    acc, scale = (), 1
    for c in reversed(A):
        acc = up_mod(ZZ, up_add(ZZ, up_mul(ZZ, acc, B), (c * scale,)), g)
        scale *= db
    den = da * db ** max(len(A) - 1, 0)
    return tuple(Fraction(c, den) for c in acc)


# ---------------------------------------------------------------------------
# the quotient algebra ZZ[x, y]/(f1(x), H(x, y)) and minimal polynomials


class _TowerAlgebra:
    """ZZ[x, y]/(f1(x), H(x, y)) with f1 monic of degree n over ZZ and H
    monic in y of degree ell with coefficients in ZZ[x].  Elements are
    lists over the y-degree of ZZ[x]-polynomials (reduced mod f1); both
    reductions are by monic polynomials, so products stay integral."""

    def __init__(self, f1: Sequence[int], H: Sequence[Sequence[int]]):
        self.f1 = up(ZZ, f1)
        self.n = len(self.f1) - 1
        self.H = [up(ZZ, c) for c in H]       # H[j] = coefficient of y^j
        if self.H[-1] != (1,):
            raise FieldTowerError("H must be monic in y")
        self.ell = len(self.H) - 1
        self.dim = self.n * self.ell

    def zero(self):
        return [()] * self.ell

    def x_elem(self):
        e = self.zero()
        e[0] = up_mod(ZZ, (0, 1), self.f1)
        return e

    def y_elem(self):
        e = self.zero()
        e[1] = (1,)
        return e

    def add(self, a, b):
        return [up_add(ZZ, x, y) for x, y in zip(a, b)]

    def scale(self, a, c):
        return [up_scale(ZZ, x, c) for x in a]

    def mul(self, a, b):
        # convolve in y
        conv = [() for _ in range(2 * self.ell - 1)]
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] = up_add(ZZ, conv[i + j], up_mul(ZZ, x, y))
        # reduce y-degrees >= ell using y^ell = -sum H[j] y^j
        for d in range(2 * self.ell - 2, self.ell - 1, -1):
            c = conv[d]
            if not c:
                continue
            conv[d] = ()
            for j in range(self.ell):
                conv[d - self.ell + j] = up_sub(
                    ZZ, conv[d - self.ell + j], up_mul(ZZ, c, self.H[j]))
        return [up_mod(ZZ, c, self.f1) for c in conv[:self.ell]]

    def coords(self, a) -> List[int]:
        out = [0] * self.dim
        for j, c in enumerate(a):
            for i, v in enumerate(c):
                out[j * self.n + i] = v
        return out


def minimal_polynomial(alg: _TowerAlgebra, theta
                       ) -> Optional[Tuple[Tuple[int, ...],
                                           Tuple[Fraction, ...],
                                           Tuple[Fraction, ...]]]:
    """Minimal polynomial of theta in the algebra, with witnesses.

    Returns (g, wx, wy) where g is the degree-dim integer minimal
    polynomial and wx, wy express x and y as QQ-polynomials in theta; or
    None when theta is not a primitive element (its powers up to dim - 1
    are dependent, or g is not integral).
    """
    N = alg.dim
    cur = alg.zero()
    cur[0] = (1,)
    cols = []
    for _ in range(N):
        cols.append(alg.coords(cur))
        cur = alg.mul(cur, theta)
    cols += [alg.coords(cur), alg.coords(alg.x_elem()),
             alg.coords(alg.y_elem())]      # theta^N, x, y
    # [M | theta^N, x, y] with the powers of theta as the columns of M
    sol = solve_rational(list(zip(*cols)), N)
    if sol is None:
        return None
    a, cx, cy = sol
    # g(T) = T^N - sum a_k T^k
    g = up(QQ, [-v for v in a] + [1])
    if len(g) != N + 1 or any(c.denominator != 1 for c in g):
        return None
    return tuple(c.numerator for c in g), up_trim(QQ, cx), up_trim(QQ, cy)


# ---------------------------------------------------------------------------
# towers


@dataclass
class ChainLevel:
    poly: Tuple[int, ...]                 # absolute, degree ell^a
    embed_prev: Tuple[Fraction, ...]      # previous level's generator here


@dataclass
class NumberFieldNode:
    tower: "FieldTower"
    degree: int
    defining_poly: Tuple[int, ...]
    levels: Dict[int, int]                       # prime -> chain exponent
    gen_images: Dict[int, Tuple[Fraction, ...]]  # top chain gen -> image
    # how embed builds the primitive element: (ell, level, s, c_pow) per
    # chain, theta = y + s * x^c_pow after the first
    recipe: List[Tuple[int, int, int, int]]
    subfield_registry: Dict[int, Tuple["NumberFieldNode",
                                       Tuple[Fraction, ...]]] = \
        field(default_factory=dict)

    def registry(self) -> Dict[int, Tuple["NumberFieldNode",
                                          Tuple[Fraction, ...]]]:
        if not self.subfield_registry:
            self.tower._build_registry(self)
        return self.subfield_registry


def _divisors(n: int) -> List[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def is_inert(f, p: int) -> bool:
    """Whether p is inert in QQ[x]/(f): f irreducible mod p."""
    fi = tuple(map(int, f))
    if not fi or fi[-1] != 1:
        raise FieldTowerError("f must be monic")
    F = CoefficientRing.GF(p)
    fbar = up(F, fi)
    if len(fbar) != len(fi):
        raise FieldTowerError("f is not monic modulo p")
    if not up_is_squarefree(F, fbar):
        raise FieldTowerError(f"f is not squarefree modulo {p}")
    return up_is_irreducible(F, fbar)


def _random_irreducible(R: CoefficientRing, degree: int, rng: random.Random):
    """Monic irreducible of the given degree over GF(p^k) = R, k >= 2, with
    coefficients drawn uniformly from R: each is the element of index
    rng.randrange(p^k) in the order of itertools.product(range(p),
    repeat=k), found by its base-p digits instead of a list of all p^k."""
    p, k = R.p, R.k

    def draw():
        i, digits = rng.randrange(p ** k), []
        for _ in range(k):
            i, d = divmod(i, p)
            digits.append(d)
        return R.coerce(tuple(reversed(digits)))

    for _ in range(IRREDUCIBLE_TRIES):
        f = tuple(draw() for _ in range(degree)) + (R.one(),)
        if up_is_irreducible(R, f):
            return f
    raise FieldTowerError("budget exhausted searching for an irreducible "
                          f"degree-{degree} polynomial")


class FieldTower:
    """Per-prime chains of inert fields over QQ, with composita cached."""

    def __init__(self, p: int, seed: int = 0, degree_cap: int = DEGREE_CAP):
        if not is_prime(p):
            raise FieldTowerError(f"{p} is not prime")
        self.p = p
        self.residue_field = CoefficientRing.GF(p)
        self.rng = random.Random(seed)
        self.degree_cap = degree_cap
        self.chains: Dict[int, List[ChainLevel]] = {}
        self._node_cache: Dict[Tuple[Tuple[int, int], ...],
                               NumberFieldNode] = {}

    # -- base field

    def base_node(self) -> NumberFieldNode:
        return self.node_for({})

    # -- chain growth

    def _grow_chain(self, ell: int):
        chain = self.chains.setdefault(ell, [])
        e = len(chain)
        new_degree = ell ** (e + 1)
        if new_degree > self.degree_cap:
            raise FieldTowerError(
                f"degree {new_degree} exceeds the cap {self.degree_cap}")
        p = self.p
        if e == 0:
            g = tuple(find_irreducible(p, ell))     # lift of the residue poly
            chain.append(ChainLevel(g, ()))
            return
        base = chain[-1].poly
        R = CoefficientRing.GF(p, len(base) - 1, modulus=base)
        tries = 0
        while True:
            tries += 1
            if tries > SEARCH_BUDGET:
                raise FieldTowerError("budget exhausted extending the "
                                      f"{ell}-chain")
            hbar = _random_irreducible(R, ell, self.rng)
            # lift: each GF(p^k) coefficient is a ZZ[x]-polynomial
            H = [tuple(int(v) for v in c) or (0,) for c in hbar]
            alg = _TowerAlgebra(base, H)
            res = minimal_polynomial(alg, alg.y_elem())
            if res is None:
                continue
            g, wx, wy = res
            if not self._inert(g):
                continue
            chain.append(ChainLevel(tuple(g), wx))
            return

    def _inert(self, g) -> bool:
        """Whether g stays irreducible of the same degree mod p (so also
        squarefree mod p: finite fields are perfect)."""
        gbar = up(self.residue_field, g)
        return len(gbar) == len(g) and \
            up_is_irreducible(self.residue_field, gbar)

    # -- composita

    def node_for(self, levels: Dict[int, int]) -> NumberFieldNode:
        levels = {ell: a for ell, a in sorted(levels.items()) if a > 0}
        key = tuple(sorted(levels.items()))
        if key in self._node_cache:
            return self._node_cache[key]
        for ell, a in levels.items():
            while len(self.chains.get(ell, [])) < a:
                self._grow_chain(ell)
        if not levels:
            node = NumberFieldNode(self, 1, (0, 1), {}, {}, [])
            self._node_cache[key] = node
            return node
        primes = sorted(levels)
        ell0 = primes[0]
        cur_poly = self.chains[ell0][levels[ell0] - 1].poly
        gen_images: Dict[int, Tuple[Fraction, ...]] = {ell0: up(QQ, (0, 1))}
        recipe: List[Tuple[int, int, int, int]] = [(ell0, levels[ell0], 0, 1)]
        degree = len(cur_poly) - 1
        for ell in primes[1:]:
            f2 = self.chains[ell][levels[ell] - 1]
            H = [(c,) for c in f2.poly]
            alg = _TowerAlgebra(cur_poly, H)
            found = None
            for (s, c_pow) in _shift_candidates():
                # theta = y + s * x^c_pow
                xp = alg.x_elem()
                acc = alg.y_elem()
                if s:
                    t = alg.zero()
                    t[0] = (1,)
                    for _ in range(c_pow):
                        t = alg.mul(t, xp)
                    acc = alg.add(acc, alg.scale(t, s))
                res = minimal_polynomial(alg, acc)
                if res is None:
                    continue
                g, wx, wy = res
                if not self._inert(g):
                    continue
                found = (g, wx, wy, s, c_pow)
                break
            if found is None:
                raise FieldTowerError(
                    "no primitive element found for the compositum "
                    f"(budget {SEARCH_BUDGET})")
            g, wx, wy, s, c_pow = found
            gen_images = {l: _compose_mod(img, wx, g)
                          for l, img in gen_images.items()}
            gen_images[ell] = wy
            recipe.append((ell, levels[ell], s, c_pow))
            cur_poly = g
            degree = len(cur_poly) - 1
        node = NumberFieldNode(self, degree, cur_poly, dict(levels),
                               gen_images, recipe)
        self._node_cache[key] = node
        return node

    # -- chain-generator images inside a node

    def _chain_gen_image(self, node: NumberFieldNode, ell: int,
                         level: int) -> Tuple[Fraction, ...]:
        """Image of the level-`level` generator of the ell-chain in node."""
        a = node.levels.get(ell, 0)
        if level > a:
            raise FieldTowerError("chain level not contained in the node")
        img = node.gen_images[ell]              # level-a generator
        for b in range(a - 1, level - 1, -1):
            img = _compose_mod(self.chains[ell][b].embed_prev, img,
                               node.defining_poly)
        return img

    def embed(self, sub: NumberFieldNode, node: NumberFieldNode
              ) -> Tuple[Fraction, ...]:
        """Witness w with sub.defining_poly(w) = 0 mod node.defining_poly,
        sending sub's primitive element to its image in node."""
        if not sub.recipe:
            return ()        # QQ: generator 0
        (ell, lev, _, _), *rest = sub.recipe
        img = self._chain_gen_image(node, ell, lev)
        for (ell, lev, s, c_pow) in rest:
            # y + s * x^c_pow, with x the image built so far
            shift = _compose_mod((0,) * c_pow + (s,), img,
                                 node.defining_poly)
            img = up_add(QQ, self._chain_gen_image(node, ell, lev), shift)
        return img

    # -- registry

    def _build_registry(self, node: NumberFieldNode):
        """The one exact check of every embedding witness: for each
        divisor d of the degree, the subfield of degree d and a witness w
        with sub.defining_poly(w) = 0 mod node.defining_poly, else
        FieldTowerError."""
        reg: Dict[int, Tuple[NumberFieldNode, Tuple[Fraction, ...]]] = {}
        for d in _divisors(node.degree):
            # d | prod ell^a has only those ell, each to at most a
            sub = self.node_for(factorize(d))
            w = self.embed(sub, node)
            if _compose_mod(sub.defining_poly, w, node.defining_poly):
                raise FieldTowerError(
                    f"embedding witness for degree {d} failed verification")
            reg[d] = (sub, w)
        node.subfield_registry = reg


def _shift_candidates():
    out = []
    s_values = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    for c_pow in (1, 2, 3):
        for s in s_values:
            if c_pow > 1 and s == 0:
                continue
            out.append((s, c_pow))
    return out


def extend_inert(K: NumberFieldNode, ell: int, p: int) -> NumberFieldNode:
    """Degree-ell extension L of K with p inert and the subfield property
    (new chain level for ell, then the compositum with K's other parts)."""
    if not is_prime(ell):
        raise FieldTowerError(f"{ell} is not prime")
    tower = K.tower
    if tower.p != p:
        raise FieldTowerError(f"tower is built at p = {tower.p}, not {p}")
    if K.degree * ell > tower.degree_cap:
        raise FieldTowerError(
            f"degree {K.degree * ell} exceeds the cap {tower.degree_cap}")
    levels = dict(K.levels)
    levels[ell] = levels.get(ell, 0) + 1
    L = tower.node_for(levels)
    L.registry()
    return L


def subfield_property_check(K: NumberFieldNode
                            ) -> Tuple[bool, List[int]]:
    """Library audit: re-verifies that the registry holds a subfield of
    degree d with an exact embedding witness for every divisor d of the
    degree.  `_build_registry` has already checked each witness, so the
    CLI does not call this."""
    missing: List[int] = []
    reg = K.registry()
    for d in _divisors(K.degree):
        entry = reg.get(d)
        if entry is None:
            missing.append(d)
            continue
        sub, w = entry
        if sub.degree != d or \
                _compose_mod(sub.defining_poly, w, K.defining_poly):
            missing.append(d)
    return (not missing), missing


@dataclass
class DiscriminantDescent:
    poly: Tuple[int, ...]
    trace: List[int]          # |disc| after each accepted state


def optimise_discriminant(f, p: int, iterations: int = 200,
                          seed: int = 0) -> DiscriminantDescent:
    """Greedy descent: repeatedly add/subtract p times a random monomial,
    keeping the change only when |disc| does not grow."""
    fi = tuple(map(int, f))
    if not fi or fi[-1] != 1:
        raise FieldTowerError("f must be monic")
    if not is_inert(fi, p):
        raise FieldTowerError(f"f must be irreducible mod {p}")
    rng = random.Random(seed)
    n = len(fi) - 1
    cur = list(fi)
    best = abs(discriminant(cur))
    trace = [best]
    for _ in range(iterations):
        i = rng.randrange(n)
        delta = p if rng.random() < 0.5 else -p
        cand = cur[:]
        cand[i] += delta
        d = abs(discriminant(cand))
        if d != 0 and d <= best:
            cur = cand
            best = d
        trace.append(best)
    return DiscriminantDescent(tuple(cur), trace)
