"""Buchberger-style Groebner bases over fields, ZZ and ZZ/p^e.

Over ZZ the completion uses S- and G-polynomials; over the chain rings
ZZ/p^e leading coefficients are normalized to powers of p and annihilator
polynomials p^(e-k) * f are adjoined instead of G-polynomials.  Reduction
is Euclidean on coefficients (remainder in [0, lc)), so membership of f
in an ideal is equivalent to normal form 0 against a strong basis.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (GREVLEX, MonomialOrder, Polynomial, exp_div, exp_divides,
                   exp_lcm, exp_mul, exact_divide)
from .rings import CoefficientRing, xgcd

DEFAULT_MAX_PAIRS = 10 ** 6
DEFAULT_MAX_DEGREE = 400
REDUCED_BASIS_MAX_PASSES = 100   # tail-reduction passes of _reduced_basis


class GroebnerError(Exception):
    pass


class UnsupportedRingError(GroebnerError):
    pass


class BudgetExceededError(GroebnerError):
    """Resource cap hit; distinct from any mathematical failure."""


def _check_ring(ring: CoefficientRing):
    if ring.kind not in ("ZZ", "Zmod", "GF", "GFext"):
        raise UnsupportedRingError(f"no Groebner bases over {ring!r}")


# ---------------------------------------------------------------------------
# basis entries


class _Entry:
    __slots__ = ("terms", "lm", "lc", "cof", "packed")

    def __init__(self, terms, lm, lc, cof=None):
        self.terms = terms   # full dict, including the leading term
        self.lm = lm
        self.lc = lc
        self.cof = cof       # optional cofactor dict (expression in f)
        self.packed = None   # (packing, lm, terms, cof), see _packed_entry


def _leading(terms: dict, key):
    lm = min(terms, key=key)
    return lm, terms[lm]


def _normalize(ring, terms: dict, cof: Optional[dict], key):
    """Scale so the leading coefficient is monic / positive / a power of p."""
    lm, lc = _leading(terms, key)
    if ring.is_field():
        u = ring.inv(lc)
    elif ring.kind == "ZZ":
        u = 1 if lc > 0 else -1
    else:
        _, unit = ring.unit_val(lc)
        u = pow(unit, -1, ring.m)
    if u != ring.one():
        terms = {e: ring.mul(c, u) for e, c in terms.items()}
        if cof is not None:
            cof = {e: ring.mul(c, u) for e, c in cof.items()}
    return _Entry(terms, lm, terms[lm], cof)


# ---------------------------------------------------------------------------
# packed monomials


_FIELD = 32   # bits per packed field; the top one is a guard


def _weight_rows(order: MonomialOrder, nvars: int) -> List[List[int]]:
    """Linear forms whose lexicographic comparison is the monomial order."""

    def grevlex(lo, hi):
        # equal degree: the smaller exponent of the last variable wins,
        # i.e. the larger partial sum e_lo + ... + e_(k-1)
        return [[1 if lo <= i < k else 0 for i in range(nvars)]
                for k in range(hi, lo, -1)]

    if order.kind == "grevlex":
        return grevlex(0, nvars)
    if order.kind == "lex":
        return [[1 if i == k else 0 for i in range(nvars)]
                for k in range(nvars)]
    return grevlex(0, order.split) + grevlex(order.split, nvars)


class _Packing:
    """Exponent vectors packed into one int that orders like ``order``.

    Fields, most significant first: the order's weight rows, then the raw
    exponents.  Every field is linear in the exponents, so a monomial
    product is an int add, comparing ints compares monomials, and a
    divides b iff b - a sets no field's guard bit (Monagan & Pearce).
    Polynomials keep exponents below ``MAX_EXPONENT``, so a field
    reaches its guard bit only if a reduction grows far past that;
    ``unpack`` then raises instead of misreading it.
    """

    _cache: Dict[Tuple[MonomialOrder, int], "_Packing"] = {}

    def __init__(self, order: MonomialOrder, nvars: int):
        rows = _weight_rows(order, nvars) + [
            [1 if i == k else 0 for i in range(nvars)] for k in range(nvars)]
        top = len(rows) - 1
        self.nvars = nvars
        self.cols = [sum(row[i] << (_FIELD * (top - r))
                         for r, row in enumerate(rows))
                     for i in range(nvars)]
        self.guards = sum(1 << (_FIELD * r + _FIELD - 1)
                          for r in range(len(rows)))

    @staticmethod
    def of(order: MonomialOrder, nvars: int) -> "_Packing":
        pk = _Packing._cache.get((order, nvars))
        if pk is None:
            pk = _Packing._cache[(order, nvars)] = _Packing(order, nvars)
        return pk

    def pack(self, e) -> int:
        return sum(x * c for x, c in zip(e, self.cols))

    def unpack(self, m: int) -> Tuple[int, ...]:
        if m & self.guards:
            raise BudgetExceededError("exponent overflows its packed field")
        low = (1 << _FIELD) - 1
        n = self.nvars
        return tuple((m >> (_FIELD * (n - 1 - i))) & low for i in range(n))

    def pack_dict(self, terms: dict) -> dict:
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}

    def unpack_dict(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}


def _packed_entry(g: _Entry, pk: _Packing):
    """(packing, lm, [(monomial, coeff)], cofactor pairs) of g, cached."""
    data = g.packed
    if data is None or data[0] is not pk:
        pack = pk.pack
        cof = (None if g.cof is None
               else [(pack(e), c) for e, c in g.cof.items()])
        data = (pk, pack(g.lm), [(pack(e), c) for e, c in g.terms.items()],
                cof)
        g.packed = data
    return data


# ---------------------------------------------------------------------------
# reduction


def _rank(ring, g: _Entry):
    """Reducer preference: the leading coefficient that cancels most of a
    term (lowest p-valuation, smallest over ZZ) first, then fewest terms.

    Against a strong basis the normal form does not depend on which
    divisor is used; the preferred one saves most of the work.
    """
    if ring.kind == "Zmod":
        return (ring.unit_val(g.lc)[0], len(g.terms))
    if ring.kind == "ZZ":
        return (g.lc, len(g.terms))
    return (0, len(g.terms))


class _Reducers:
    """Basis entries in packed form, with their divisors cached per monomial.

    ``divisors(m)`` lists (rank, (lc, inverse of lc or None, lm, terms,
    cofactor terms)) for the entries whose leading monomial divides m,
    preferred reducer first.  Entries added later, as Buchberger's
    completion does, are merged into a cached list when it is next
    looked up.
    """

    def __init__(self, ring, pk: _Packing, entries: Sequence[_Entry] = ()):
        self.ring = ring
        self.pk = pk
        self.added: List[Tuple] = []
        self._cache: Dict[int, Tuple[int, list]] = {}
        for g in entries:
            self.add(g)

    def add(self, g: _Entry):
        _, lm, terms, cof = _packed_entry(g, self.pk)
        inv = self.ring.inv(g.lc) if self.ring.is_field() else None
        self.added.append(((_rank(self.ring, g), len(self.added)),
                           (g.lc, inv, lm, terms, cof)))

    def divisors(self, m: int) -> list:
        start, found = self._cache.get(m, (0, []))
        if start < len(self.added):
            guards = self.pk.guards
            new = [item for item in self.added[start:]
                   if not (m - item[1][2]) & guards]
            if new:
                found = sorted(found + new)
            self._cache[m] = (len(self.added), found)
        return found


def _reduce(ring, order: MonomialOrder, work_terms: dict, basis,
            cof: Optional[dict] = None, basis_cofs: bool = False):
    """Normal form of work_terms against basis (destructive on a copy).

    ``basis`` is a sequence of entries or a :class:`_Reducers` built
    under ``order``.  If ``cof`` is given, it is updated so that input =
    output + (sum of basis multiples expressed through the entries'
    cofactors).
    """
    if not work_terms:
        return {}
    if not isinstance(basis, _Reducers):
        nvars = len(next(iter(work_terms)))
        basis = _Reducers(ring, _Packing.of(order, nvars), basis)
    pk = basis.pk
    divisors = basis.divisors
    work = pk.pack_dict(work_terms)
    track = cof is not None and basis_cofs
    pcof = pk.pack_dict(cof) if track else None
    out: Dict[int, object] = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    seen = set(work)
    is_field = ring.is_field()
    is_zmod = ring.kind == "Zmod"
    mod = ring.m if is_zmod else None
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        e = -pop(heap)
        c = work.get(e)
        if c is None or e in out:
            continue
        while True:
            for _, (lc, inv, lm, terms, gcof) in divisors(e):
                if is_field:
                    q = ring.mul(c, inv)
                    break
                q = c // lc
                if q:
                    break
            else:
                break
            delta = e - lm
            if is_zmod:
                for ge, gc in terms:
                    te = ge + delta
                    cur = work.get(te)
                    nc = ((cur if cur is not None else 0) - q * gc) % mod
                    if nc:
                        work[te] = nc
                        if te not in seen:
                            seen.add(te)
                            push(heap, -te)
                    elif cur is not None:
                        del work[te]
            else:
                for ge, gc in terms:
                    te = ge + delta
                    d = ring.mul(q, gc)
                    cur = work.get(te)
                    nc = ring.sub(cur, d) if cur is not None else ring.neg(d)
                    if ring.is_zero(nc):
                        work.pop(te, None)
                    else:
                        work[te] = nc
                        if te not in seen:
                            seen.add(te)
                            push(heap, -te)
            if track:
                # maintain: current value = cof * f  (so subtract q * cof_g)
                for ce, cc in gcof:
                    te = ce + delta
                    d = ring.mul(q, cc)
                    cur = pcof.get(te)
                    nc = ring.sub(cur, d) if cur is not None else ring.neg(d)
                    if ring.is_zero(nc):
                        pcof.pop(te, None)
                    else:
                        pcof[te] = nc
            c = work.get(e)
            if c is None:
                break
        if c is not None:
            out[e] = c
            del work[e]
    if track:
        cof.clear()
        cof.update(pk.unpack_dict(pcof))
    return pk.unpack_dict(out)


# ---------------------------------------------------------------------------
# Buchberger completion


def _scale_shift(ring, terms, c, delta):
    out = {}
    for e, x in terms.items():
        y = ring.mul(x, c)
        if not ring.is_zero(y):
            out[exp_mul(e, delta)] = y
    return out


def _add_into(ring, acc, terms, sign=1):
    for e, c in terms.items():
        if sign < 0:
            c = ring.neg(c)
        cur = acc.get(e)
        nc = ring.add(cur, c) if cur is not None else c
        if ring.is_zero(nc):
            acc.pop(e, None)
        else:
            acc[e] = nc
    return acc


def _buchberger(gens: Sequence[Polynomial], ring, order,
                max_pairs=None, max_degree=None, track=False,
                known=0) -> List[_Entry]:
    """A strong basis of (gens) under ``order``, as unreduced entries.

    ``known`` says that ``gens[:known]`` is already a strong basis under
    ``order``: their S-polynomials, G-polynomials and annihilators have
    standard representations (Norton & Salagean 2001), so no pair inside
    that block and no annihilator of it is queued.  Pairs against the
    later generators are completed as usual.
    """
    _check_ring(ring)
    max_pairs = max_pairs or DEFAULT_MAX_PAIRS
    max_degree = max_degree or DEFAULT_MAX_DEGREE
    key = order.sort_key
    is_field = ring.is_field()
    is_zz = ring.kind == "ZZ"
    is_chain = ring.kind == "Zmod"

    G: List[_Entry] = []
    nvars = None
    n_known = 0   # entries of G that come from gens[:known]
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        n_known += i < known
        nvars = len(g.variables)
        cof = {(0,) * nvars: ring.one()} if track else None
        if track and len(gens) != 1:
            raise GroebnerError("cofactor tracking is for principal ideals")
        G.append(_normalize(ring, dict(g.terms), cof, key))
    R = _Reducers(ring, _Packing.of(order, nvars or 0), G)

    pairs: List[Tuple] = []   # heap of (degree, key(lcm), i, j)
    alive: set = set()        # surviving (i, j) pairs
    pair_T: Dict[Tuple[int, int], Tuple] = {}  # (i, j) -> (v, lcm monomial)
    ann_queue: List[int] = []

    def lead_val(entry) -> int:
        if is_chain:
            return ring.unit_val(entry.lc)[0]
        return 0

    vals: List[int] = []

    def pair_term(i, j):
        return (max(vals[i], vals[j]), exp_lcm(G[i].lm, G[j].lm))

    def push_pair(i, j):
        v, L = pair_term(i, j)
        alive.add((i, j))
        pair_T[(i, j)] = (v, L)
        heapq.heappush(pairs, (sum(L), key(L), i, j))

    # Gebauer-Moller update: leading terms include the p-valuation of the
    # leading coefficient, so term divisibility is (v_k <= v, lm_k | L).
    # Valid for fields (v = 0 throughout) and for the chain rings ZZ/p^e;
    # over ZZ pairs also carry G-polynomials, so no elimination is done.
    use_gm = is_field or is_chain

    def push_elem(entry) -> int:
        idx = len(G)
        G.append(entry)
        R.add(entry)
        vals.append(lead_val(entry))
        if use_gm:
            vn, lmn = vals[idx], entry.lm
            # drop old pairs whose lcm-term is properly covered by idx
            for (i, j) in list(alive):
                vij, Lij = pair_T[(i, j)]
                if vn <= vij and exp_divides(lmn, Lij):
                    Tin = pair_term(i, idx)
                    Tjn = pair_term(j, idx)
                    if Tin != (vij, Lij) and Tjn != (vij, Lij):
                        alive.discard((i, j))
                        del pair_T[(i, j)]
            # new pairs (i, idx), pruned by the M/F/B criteria
            cand = []
            for i in range(idx):
                cand.append((i,) + pair_term(i, idx))
            keep: List[Tuple] = []
            for (i, v, L) in cand:
                dominated = False
                for (j, w, M) in cand:
                    if j == i:
                        continue
                    if w <= v and exp_divides(M, L) and (w, M) != (v, L):
                        dominated = True
                        break
                if not dominated:
                    keep.append((i, v, L))
            seen_T = set()
            for (i, v, L) in keep:
                if (v, L) in seen_T:
                    continue
                seen_T.add((v, L))
                # product criterion: unit leads and coprime monomials
                if vals[i] == 0 and vn == 0 and \
                        L == exp_mul(G[i].lm, lmn):
                    continue
                push_pair(i, idx)
        else:
            for i in range(idx):
                push_pair(i, idx)
        if is_chain:
            if vals[idx] > 0:
                ann_queue.append(idx)
        return idx

    n0 = len(G)
    vals = [lead_val(G[i]) for i in range(n0)]
    for i in range(n0):
        for j in range(max(i + 1, n_known), n0):
            push_pair(i, j)
    if is_chain:
        for i in range(n_known, n0):
            if vals[i] > 0:
                ann_queue.append(i)

    processed = 0

    def consider(terms, cof):
        nonlocal processed
        if not terms:
            return
        red_cof = dict(cof) if track else None
        nf = _reduce(ring, order, terms, R, red_cof, basis_cofs=track)
        if not nf:
            return
        if max(sum(e) for e in nf) > max_degree:
            raise BudgetExceededError(
                f"total degree exceeds cap {max_degree}")
        push_elem(_normalize(ring, nf, red_cof, key))

    while pairs or ann_queue:
        if ann_queue:
            i = ann_queue.pop()
            v, _ = ring.unit_val(G[i].lc)
            a = ring.coerce(ring.p ** (ring.e - v))
            terms = _scale_shift(ring, G[i].terms, a, (0,) * nvars)
            cof = (_scale_shift(ring, G[i].cof, a, (0,) * nvars)
                   if track else None)
            consider(terms, cof)
            continue
        _, _, i, j = heapq.heappop(pairs)
        if (i, j) not in alive:
            continue
        alive.discard((i, j))
        pair_T.pop((i, j), None)
        processed += 1
        if processed > max_pairs:
            raise BudgetExceededError(f"pair count exceeds cap {max_pairs}")
        f, g = G[i], G[j]
        L = exp_lcm(f.lm, g.lm)
        if is_field and L == exp_mul(f.lm, g.lm):
            continue  # product criterion (fields only)
        df, dg = exp_div(L, f.lm), exp_div(L, g.lm)
        if is_field:
            cf, cg = ring.one(), ring.one()
        elif is_zz:
            l = f.lc * g.lc // math.gcd(f.lc, g.lc)
            cf, cg = l // f.lc, l // g.lc
        else:
            vf, _ = ring.unit_val(f.lc)
            vg, _ = ring.unit_val(g.lc)
            v = max(vf, vg)
            cf = ring.coerce(ring.p ** (v - vf))
            cg = ring.coerce(ring.p ** (v - vg))
        s = _scale_shift(ring, f.terms, cf, df)
        _add_into(ring, s, _scale_shift(ring, g.terms, cg, dg), sign=-1)
        scof = None
        if track:
            scof = _scale_shift(ring, f.cof, cf, df)
            _add_into(ring, scof, _scale_shift(ring, g.cof, cg, dg), sign=-1)
        consider(s, scof)
        if is_zz and f.lc % g.lc != 0 and g.lc % f.lc != 0:
            _, u, v = xgcd(f.lc, g.lc)
            t = _scale_shift(ring, f.terms, u, df)
            _add_into(ring, t, _scale_shift(ring, g.terms, v, dg))
            tcof = None
            if track:
                tcof = _scale_shift(ring, f.cof, u, df)
                _add_into(ring, tcof, _scale_shift(ring, g.cof, v, dg))
            consider(t, tcof)
    return G


def _term_divides(ring, lt_a, lt_b) -> bool:
    """Whether lt_a divides lt_b as a term (monomial and coefficient)."""
    (ea, ca), (eb, cb) = lt_a, lt_b
    return exp_divides(ea, eb) and ring.divides(ca, cb)


def _reduced_basis(ring, order: MonomialOrder, G: List[_Entry],
                   track=False) -> List[_Entry]:
    key = order.sort_key
    # drop entries whose leading term is term-divisible by another's
    kept: List[_Entry] = []
    order_idx = sorted(range(len(G)), key=lambda i: (key(G[i].lm), i))
    removed = [False] * len(G)
    for i in order_idx:
        for j in order_idx:
            if i == j or removed[j]:
                continue
            if _term_divides(ring, (G[j].lm, G[j].lc), (G[i].lm, G[i].lc)):
                if G[j].lm == G[i].lm and G[j].lc == G[i].lc and j > i:
                    continue  # identical leading terms: keep the earlier one
                removed[i] = True
                break
    kept = [G[i] for i in order_idx if not removed[i]]
    # tail-reduce each against the others until stable
    changed = True
    passes = 0
    while changed:
        if passes == REDUCED_BASIS_MAX_PASSES:
            raise BudgetExceededError(
                f"_reduced_basis: tail reduction not stable after "
                f"{passes} passes")
        changed = False
        passes += 1
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            cof = dict(kept[i].cof) if track else None
            # reduce only the tail so the leading term is preserved;
            # minimality already guarantees the lead is irreducible
            nf = _reduce(ring, order, kept[i].terms, others, cof,
                         basis_cofs=track)
            if nf != kept[i].terms:
                changed = True
                if not nf:
                    kept = kept[:i] + kept[i + 1:]
                    break
                # cofactor update direction: entry = nf means
                # original = nf + sum(multiples); keep cof consistent
                if track:
                    kept[i] = _normalize(ring, nf, cof, key)
                else:
                    kept[i] = _normalize(ring, nf, None, key)
    kept.sort(key=lambda en: key(en.lm))
    return kept


# ---------------------------------------------------------------------------
# public interface


class Ideal:
    """A finitely generated ideal with a cached reduced (strong) basis."""

    def __init__(self, generators: Sequence[Polynomial],
                 order: Optional[MonomialOrder] = None):
        generators = list(generators)
        if not generators:
            raise GroebnerError("need at least one polynomial to fix the "
                                "ring; use Ideal.zero_ideal for (0)")
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            self.ring = generators[0].ring
            self.variables = generators[0].variables
            self.order = order or generators[0].order
            self.generators = ()
            self._gb = ()
            return
        ring = gens[0].ring
        variables = gens[0].variables
        for g in gens:
            if g.ring != ring or g.variables != variables:
                raise GroebnerError("generators disagree on ring/variables")
        self.ring = ring
        self.variables = variables
        self.order = order or gens[0].order
        self.generators = tuple(g.with_order(self.order) for g in gens)
        self._gb: Optional[Tuple[Polynomial, ...]] = None

    @staticmethod
    def zero_ideal(ring, variables, order=GREVLEX) -> "Ideal":
        ideal = Ideal.__new__(Ideal)
        ideal.ring = ring
        ideal.variables = tuple(variables)
        ideal.order = order
        ideal.generators = ()
        ideal._gb = ()
        return ideal

    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self, max_pairs=None, max_degree=None):
        if self._gb is None:
            entries = _buchberger(self.generators, self.ring, self.order,
                                  max_pairs, max_degree)
            entries = _reduced_basis(self.ring, self.order, entries)
            self._gb = tuple(
                Polynomial(self.ring, self.variables, dict(e.terms),
                           self.order)
                for e in entries)
        return list(self._gb)

    def interreduced(self, max_pairs=None, max_degree=None) -> "Ideal":
        """The same ideal, but generated by its reduced strong basis.

        Useful before products/sums so generator counts stay bounded by
        the basis size instead of multiplying up.
        """
        gb = self.groebner_basis(max_pairs, max_degree)
        if not gb:
            return self
        K = Ideal(gb, order=self.order)
        K._gb = self._gb
        return K

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        more = ", ..." if len(self.generators) > 6 else ""
        return f"Ideal({gens}{more})"


def groebner_basis(I: Ideal, max_pairs=None, max_degree=None):
    return I.groebner_basis(max_pairs, max_degree)


def normal_form(f: Polynomial, I: Ideal, max_pairs=None,
                max_degree=None) -> Polynomial:
    if I.is_zero():
        return f
    gb = I.groebner_basis(max_pairs, max_degree)
    key = I.order.sort_key
    entries = []
    for g in gb:
        lm, lc = _leading(g.terms, key)
        entries.append(_Entry(dict(g.terms), lm, lc))
    nf = _reduce(I.ring, I.order, dict(f.with_order(I.order).terms),
                 entries)
    return Polynomial(I.ring, I.variables, nf, I.order)


def ideal_membership(f: Polynomial, I: Ideal, **kw) -> bool:
    return normal_form(f, I, **kw).is_zero()


def ideal_sum_product(A: Ideal, B: Ideal, C: Ideal) -> Ideal:
    """The ideal A*B + C."""
    gens = [a * b for a in A.generators for b in B.generators]
    gens.extend(C.generators)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return Ideal.zero_ideal(A.ring, A.variables, A.order)
    return Ideal(gens, order=A.order)


def ideal_sum(A: Ideal, B: Ideal) -> Ideal:
    gens = list(A.generators) + list(B.generators)
    if not gens:
        return Ideal.zero_ideal(A.ring, A.variables, A.order)
    return Ideal(gens, order=A.order)


def _fresh_tag(variables) -> str:
    tag = "t_elim"
    while tag in variables:
        tag += "_"
    return tag


def ideal_quotient(I: Ideal, f: Polynomial, max_pairs=None,
                   max_degree=None) -> Ideal:
    """(I : (f)) via tag-variable intersection with (f)."""
    if f.is_zero():
        raise GroebnerError("quotient by the zero polynomial")
    _check_ring(I.ring)
    ring = I.ring
    if I.is_zero():
        gens_out: List[Polynomial] = []
    else:
        tag = _fresh_tag(I.variables)
        ext_vars = (tag,) + I.variables
        elim = MonomialOrder.block(1)
        t = Polynomial.variable(ring, ext_vars, tag, elim)
        one = Polynomial.constant(ring, ext_vars, 1, elim)
        # start from the reduced basis: fewer, smaller generators, and
        # the basis is cached on I across repeated quotients
        base = I.groebner_basis(max_pairs, max_degree)
        gens = [t * g.extend_variables(ext_vars, elim) for g in base]
        gens.append((one - t) * f.extend_variables(ext_vars, elim))
        # t*G is a strong basis under elim only if elim restricted to
        # I's variables is I's order
        known = len(base) if I.order == GREVLEX else 0
        G = _buchberger(gens, ring, elim, max_pairs, max_degree,
                        known=known)
        # the t-free entries (t is variable 0) are a strong basis of
        # I ∩ (f): in an elimination order nothing with t reduces them
        G = _reduced_basis(ring, elim, [g for g in G if not g.lm[0]])
        inter = [Polynomial(ring, I.variables,
                            {e[1:]: c for e, c in g.terms.items()}, I.order)
                 for g in G]
        f_basis = None
        if inter and ring.kind == "Zmod":
            # one cofactor-tracked reduced basis of (f), shared by every h
            f_basis = _buchberger([f], ring, I.order, max_pairs, max_degree,
                                  track=True)
            f_basis = _reduced_basis(ring, I.order, f_basis, track=True)
        gens_out = [_divide_exact(h, f, f_basis) for h in inter]
    if ring.kind == "Zmod":
        # the annihilator of f: f = p^v * (unit-content part)
        v = min(ring.unit_val(c)[0] for c in f.terms.values())
        if v > 0:
            gens_out.append(Polynomial.constant(ring, I.variables,
                                                ring.p ** (ring.e - v),
                                                I.order))
    gens_out = [g for g in gens_out if not g.is_zero()]
    if not gens_out:
        return Ideal.zero_ideal(ring, I.variables, I.order)
    return Ideal(gens_out, order=I.order)


def _divide_exact(h: Polynomial, f: Polynomial,
                  f_basis: Optional[List[_Entry]]) -> Polynomial:
    """h / f for h in (f).

    Over ZZ/p^e, ``f_basis`` is the reduced strong basis of (f) under
    h's monomial order, with cofactors tracked in terms of f (built once
    by the caller); h is reduced against it and the quotient read off
    the cofactors.  Over other rings ``f_basis`` is unused and h is
    divided by f directly.
    """
    ring = h.ring
    if ring.kind != "Zmod":
        q = exact_divide(h, f)
        if q is None:
            raise GroebnerError("intersection element not divisible; "
                                "internal error in quotient computation")
        return q
    cof: Dict[Tuple[int, ...], object] = {}
    nf = _reduce(ring, h.order, dict(h.terms), f_basis, cof,
                 basis_cofs=True)
    if nf:
        raise GroebnerError("intersection element not in (f); "
                            "internal error in quotient computation")
    # h reduced to 0, so 0 = h + cof * f, i.e. h = (-cof) * f
    quot = {e: ring.neg(c) for e, c in cof.items()}
    return Polynomial(ring, h.variables, quot, h.order)


def ideal_contained_in(A: Ideal, B: Ideal, **kw) -> bool:
    return all(ideal_membership(g, B, **kw) for g in A.generators)
