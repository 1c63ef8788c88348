"""Buchberger-style strong Groebner bases over ZZ and valuation rings.

There are two coefficient policies.  Over ZZ the completion uses S- and
G-polynomials.  Every other ring is a chain ring ZZ/p^e, with a field
GF(p) or GF(p^k) as the case e = 1, where every nonzero element is a unit
of valuation 0: leading coefficients are normalized to powers of p (1
over a field), S-polynomials are scaled by powers of p, and annihilator
polynomials p^(e-v) * f are adjoined where the lead's valuation v is
above 0, which never happens over a field.  Reduction is Euclidean on
coefficients (remainder in [0, lc)), so membership of f in an ideal is
equivalent to normal form 0 against a strong basis.  ZZ, ZZ/p^e and
GF(p) reduce on plain ints; only the tuple coefficients of GF(p^k) go
through the ring's methods.
Before any pair is queued the generators are inter-reduced, smallest
leading monomial first, and those that reduce to zero are dropped: the
reduced strong basis is unique (Norton & Salagean 2001), so this changes
the work, not the result.  Every entry of a run, the kept generators and
the elements the completion adds alike, goes through one Gebauer-Moller
pair update (Gebauer & Moller 1988); over the chain rings its criteria
prune the pairs among the generators and against a known basis too, and
over ZZ every pair is queued.
An ideal quotient (I : f) is one Buchberger run in I's own variables:
I's reduced basis completed with f, reporting the f-cofactor of every
syzygy it meets (Moller 1988); no tag variable and no division.
An ideal keeps one reducer index over its packed reduced basis, for as
long as the ideal lives: normal forms reduce against it, and a run that
starts from that basis (a quotient, or a sum with an inter-reduced
ideal) indexes only its own entries on top of it.
Inside this module a monomial is one packed int (``_Packing``): a
polynomial is packed where it enters and unpacked where it leaves.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import GREVLEX, MonomialOrder, Polynomial
from .rings import CoefficientRing, xgcd

DEFAULT_MAX_PAIRS = 10 ** 6
DEFAULT_MAX_DEGREE = 400


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
# packed monomials


_FIELD = 32   # bits per packed field; the top one is a guard


def _weight_rows(order: MonomialOrder, nvars: int) -> List[List[int]]:
    """Linear forms whose lexicographic comparison is the monomial order."""
    if order.kind == "lex":
        return [[1 if i == k else 0 for i in range(nvars)]
                for k in range(nvars)]
    # grevlex at equal degree: the smaller exponent of the last variable
    # wins, i.e. the larger partial sum e_0 + ... + e_(k-1)
    return [[1 if i < k else 0 for i in range(nvars)]
            for k in range(nvars, 0, -1)]


class _Packing:
    """Exponent vectors packed into one int that orders like ``order``.

    Fields, most significant first: the order's weight rows, the raw
    exponents, then the total degree (``m & low``), which never decides a
    comparison.  Every field is linear in the exponents, so a monomial
    product is an int add, comparing ints compares monomials, and a
    divides b iff b - a sets no field's guard bit (Monagan & Pearce).
    Polynomials keep exponents below ``MAX_EXPONENT`` and bases keep the
    degree below the cap, so a field reaches its guard bit only if a
    reduction grows far past that; ``unpack`` then raises instead of
    misreading it.
    """

    _cache: Dict[Tuple[MonomialOrder, int], "_Packing"] = {}

    def __init__(self, order: MonomialOrder, nvars: int):
        rows = _weight_rows(order, nvars) + [
            [1 if i == k else 0 for i in range(nvars)]
            for k in range(nvars)] + [[1] * nvars]
        top = len(rows) - 1
        self.nvars = nvars
        self.cols = [sum(row[i] << (_FIELD * (top - r))
                         for r, row in enumerate(rows))
                     for i in range(nvars)]
        self.guards = sum(1 << (_FIELD * r + _FIELD - 1)
                          for r in range(len(rows)))
        self.low = (1 << _FIELD) - 1

    @staticmethod
    def of(order: MonomialOrder, nvars: int) -> "_Packing":
        pk = _Packing._cache.get((order, nvars))
        if pk is None:
            pk = _Packing._cache[(order, nvars)] = _Packing(order, nvars)
        return pk

    def pack(self, e) -> int:
        return sum(map(operator.mul, e, self.cols))

    def unpack(self, m: int) -> Tuple[int, ...]:
        if m & self.guards:
            raise BudgetExceededError("exponent overflows its packed field")
        low = self.low
        n = self.nvars
        return tuple((m >> (_FIELD * (n - i))) & low for i in range(n))

    def pack_dict(self, terms: dict) -> dict:
        pack = self.pack
        return {pack(e): c for e, c in terms.items()}

    def unpack_dict(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}


# ---------------------------------------------------------------------------
# basis entries


class _Entry:
    """A basis element on packed monomials: ``terms`` and the cofactor
    ``cof`` map packed monomials to coefficients, ``lm`` is the largest
    of ``terms`` and ``exp`` its exponent tuple."""

    __slots__ = ("terms", "lm", "lc", "cof", "exp")

    def __init__(self, terms, lm, lc, cof, exp):
        self.terms = terms   # full dict, including the leading term
        self.lm = lm
        self.lc = lc
        self.cof = cof       # optional cofactor dict (see _buchberger)
        self.exp = exp


def _normalize(ring, pk: _Packing, terms: dict, cof: Optional[dict] = None):
    """Scale so the leading coefficient is positive over ZZ and a power of
    p elsewhere (1 over a field)."""
    lm = max(terms)
    lc = terms[lm]
    if ring.kind == "ZZ":
        u = 1 if lc > 0 else -1
    else:
        u = ring.inv(ring.unit_val(lc)[1])
    if u != ring.one():
        terms = {e: ring.mul(c, u) for e, c in terms.items()}
        if cof is not None:
            cof = {e: ring.mul(c, u) for e, c in cof.items()}
    return _Entry(terms, lm, terms[lm], cof, pk.unpack(lm))


# ---------------------------------------------------------------------------
# reduction


def _rank(ring, g: _Entry):
    """Reducer preference: the leading coefficient that cancels most of a
    term (smallest over ZZ, lowest p-valuation elsewhere) first, then
    fewest terms.

    Against a strong basis the normal form does not depend on which
    divisor is used; the preferred one saves most of the work.
    """
    lead = g.lc if ring.kind == "ZZ" else ring.unit_val(g.lc)[0]
    return (lead, len(g.terms))


class _Reducers:
    """Basis entries with their divisors cached per monomial.

    ``divisors(m)`` lists (rank, (lc, lm, terms, cofactor terms)) for the
    entries whose leading monomial divides m, preferred reducer first.
    Entries added later, as Buchberger's completion does, are merged into
    a cached list when it is next looked up.

    A child over a ``base`` index starts from the base's list for m and
    scans only its own additions, numbered on from the base's entries, so
    the preference order is that of one flat index.  The base must not
    grow while a child is in use.  An ``Ideal`` keeps one index over its
    reduced basis: normal forms against the ideal reduce against it, and
    every run that starts from that basis is a child of it, so the
    divisors of a monomial are found once per ideal.
    """

    def __init__(self, ring, pk: _Packing, entries: Sequence[_Entry] = (),
                 base: Optional["_Reducers"] = None):
        self.ring = ring
        self.pk = pk
        self.base = base
        self.offset = len(base) if base is not None else 0
        self.entries: List[_Entry] = []   # this index's own additions
        self.added: List[Tuple] = []
        self._cache: Dict[int, Tuple[int, list]] = {}
        for g in entries:
            self.add(g)

    def __len__(self):
        return self.offset + len(self.added)

    def add(self, g: _Entry):
        self.added.append(((_rank(self.ring, g), len(self)),
                           (g.lc, g.lm, g.terms, g.cof)))
        self.entries.append(g)

    def divisors(self, m: int) -> list:
        hit = self._cache.get(m)
        if hit is not None:
            start, found = hit
        else:
            start = 0
            found = self.base.divisors(m) if self.base is not None else []
        if start < len(self.added):
            guards = self.pk.guards
            new = [item for item in self.added[start:]
                   if not (m - item[1][1]) & guards]
            if new:
                found = sorted(found + new)
            self._cache[m] = (len(self.added), found)
        return found


def _reduce(ring, work_terms: dict, basis: _Reducers,
            cof: Optional[dict] = None) -> dict:
    """Normal form of the packed work_terms against basis.

    If ``cof`` is given, each step subtracts q * x^d times the reducer's
    cofactor from it in place, as it does from the work terms.
    """
    divisors = basis.divisors
    work = dict(work_terms)
    out: Dict[int, object] = {}
    heap = [-m for m in work]
    heapq.heapify(heap)
    seen = set(work)
    one = ring.one()
    ints = ring.kind != "GFext"   # ZZ, ZZ/p^e and GF(p): plain ints
    mod = ring.m or ring.p        # None over ZZ
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        e = -pop(heap)
        c = work.get(e)
        if c is None or e in out:
            continue
        while True:
            for _, (lc, lm, terms, gcof) in divisors(e):
                # a lead of 1 (every lead over a field) divides any c
                q = c if lc == one else c // lc
                if q:
                    break
            else:
                break
            delta = e - lm
            if ints:
                for ge, gc in terms.items():
                    te = ge + delta
                    cur = work.get(te)
                    nc = (cur or 0) - q * gc
                    if mod:
                        nc %= mod
                    if nc:
                        work[te] = nc
                        if te not in seen:
                            seen.add(te)
                            push(heap, -te)
                    elif cur is not None:
                        del work[te]
            else:
                for ge, gc in terms.items():
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
            if cof is not None and gcof:
                _shift_add(ring, ((gcof, ring.neg(q), delta),), cof)
            c = work.get(e)
            if c is None:
                break
        if c is not None:
            out[e] = c
            del work[e]
    return out


# ---------------------------------------------------------------------------
# Buchberger completion


def _shift_add(ring, parts, out=None) -> dict:
    """Add c * x^d * terms over (terms, c, d) in parts to ``out`` (a new
    dict by default) and return it; plain ints except over GF(p^k)."""
    out = {} if out is None else out
    get = out.get
    ints = ring.kind != "GFext"
    mod = ring.m or ring.p        # None over ZZ
    for terms, c, d in parts:
        for e, x in terms.items():
            e += d
            if ints:
                y = get(e, 0) + x * c
                if mod:
                    y %= mod
            else:
                y = ring.add(get(e, ()), ring.mul(x, c))
            if y:
                out[e] = y
            else:
                out.pop(e, None)
    return out


def _buchberger(gens: Sequence[Polynomial], ring, order,
                max_pairs=None, max_degree=None,
                base: Optional[_Reducers] = None,
                sink=None) -> List[_Entry]:
    """A strong basis of (gens) plus the ``base`` entries under ``order``,
    as unreduced entries.  The gens are nonzero: ``Ideal`` drops zeros and
    ``_syzygy_cofactors`` refuses f = 0.

    ``base`` is the index of a basis that is already strong under
    ``order`` (an ``Ideal``'s reduced basis): its S-polynomials,
    G-polynomials and annihilators have standard representations (Norton
    & Salagean 2001), so no pair inside it and no annihilator of it is
    queued, and its entries are neither packed nor indexed again.  The
    generators are inter-reduced against it first, then completed as
    usual; the run's index is a child of ``base``.

    With a ``sink``, the last generator is x and the rest, ``base``
    included, generate J.  Each entry h carries its x-cofactor c_h, with
    h = c_h * x mod J (none on J's generators, 1 on x), and ``sink`` gets
    the packed x-cofactor of every combination that is zero before or
    after reduction.  These and J generate (J : x): the syzygies of the
    leading terms lift to those of the basis (Moller 1988), and a lift's
    x-cofactor is one reported here or lies in J.  The Koszul syzygy
    h_j*h_i - h_i*h_j of a pair the product criterion skips has
    x-cofactor h_j*c_i - h_i*c_j = (h_j - c_j*x)*c_i - (h_i - c_i*x)*c_j,
    which is in J.  The other pairs the Gebauer-Moller criteria drop,
    the generators' and x's included, have lead syzygies generated by
    those of the kept pairs and the Koszul ones.  A pair inside ``base``
    is never queued: its lift involves ``base`` entries alone, with
    x-cofactor 0.  A sink that raises ends the run.
    """
    _check_ring(ring)
    max_pairs = max_pairs or DEFAULT_MAX_PAIRS
    max_degree = max_degree or DEFAULT_MAX_DEGREE
    is_zz = ring.kind == "ZZ"
    track = sink is not None
    pk = base.pk if base is not None else \
        _Packing.of(order, len(gens[0].variables) if gens else 0)
    pack, guards, low = pk.pack, pk.guards, pk.low

    def check_degree(terms):
        if max(m & low for m in terms) > max_degree:
            raise BudgetExceededError(
                f"total degree exceeds cap {max_degree}")

    def report(cof):
        if cof:
            sink(cof)

    pairs: List[Tuple] = []   # heap of (degree, -lcm, i, j)
    # the surviving pairs: (i, j) -> (v, lcm monomial)
    pair_T: Dict[Tuple[int, int], Tuple] = {}
    ann_queue: List[int] = []

    def lead_val(entry) -> int:
        # the p-valuation of the lead: 0 over a field, taken as 0 over ZZ
        return 0 if is_zz else ring.unit_val(entry.lc)[0]

    G: List[_Entry] = list(base.entries) if base is not None else []
    vals: List[int] = [lead_val(g) for g in G]
    R = _Reducers(ring, pk, base=base)

    def pair_term(i, j):
        return (max(vals[i], vals[j]), pack(map(max, G[i].exp, G[j].exp)))

    def push_pair(i, j, T):
        pair_T[(i, j)] = T
        L = T[1]
        heapq.heappush(pairs, (L & low, -L, i, j))

    # Gebauer-Moller update of every entry after the base: leading terms
    # include the p-valuation of the leading coefficient, so term
    # divisibility is (v_k <= v, lm_k | L).  Valid for the chain rings,
    # fields included (v = 0 throughout), as the base's own pairs count
    # as treated; over ZZ pairs also carry G-polynomials, so none is
    # eliminated.
    def push_elem(entry):
        idx = len(G)
        G.append(entry)
        R.add(entry)
        vals.append(lead_val(entry))
        new_T = [pair_term(i, idx) for i in range(idx)]
        if not is_zz:
            vn, lmn = vals[idx], entry.lm
            # drop old pairs whose lcm-term is properly covered by idx
            for (i, j), T in list(pair_T.items()):
                if vn <= T[0] and not (T[1] - lmn) & guards \
                        and new_T[i] != T and new_T[j] != T:
                    del pair_T[(i, j)]
            # new pairs (i, idx), pruned by the M/F/B criteria: keep the
            # first of each term that no other term properly covers.  A
            # proper cover has a lower degree, or the same monomial and a
            # lower valuation, so it sorts first; covering is transitive,
            # so testing against the terms kept so far is enough, and a
            # repeat is caught as covering itself
            minimal: List[Tuple[int, int]] = []
            for _, v, L, i in sorted((L & low, v, L, i)
                                     for i, (v, L) in enumerate(new_T)):
                if any(w <= v and not (L - M) & guards for w, M in minimal):
                    continue
                minimal.append((v, L))
                # product criterion: unit leads and coprime monomials
                if vals[i] == 0 and vn == 0 and L == G[i].lm + lmn:
                    continue
                push_pair(i, idx, (v, L))
        else:
            for i in range(idx):
                push_pair(i, idx, new_T[i])
        if vals[idx] > 0:
            ann_queue.append(idx)

    later = []
    for i, g in enumerate(gens):
        # 0 packs the monomial 1
        cof = ({0: ring.one()} if i == len(gens) - 1 else {}) \
            if track else None
        later.append(_normalize(ring, pk, pk.pack_dict(g.terms), cof))
    # inter-reduce the generators, smallest lead first, against the base
    # and those already kept: the ideal is the same, so is its reduced
    # basis, and redundant generators (most of a product's) queue no pairs
    later.sort(key=operator.attrgetter("lm"))
    for g in later:
        cof = dict(g.cof) if track else None
        nf = _reduce(ring, g.terms, R, cof) if len(R) else g.terms
        if not nf:
            report(cof)
            continue
        if nf != g.terms:
            check_degree(nf)
            g = _normalize(ring, pk, nf, cof)
        push_elem(g)

    processed = 0

    def consider(parts, cof_parts):
        terms = _shift_add(ring, parts)
        # a base entry carries no cofactor: it counts as 0
        cof = _shift_add(ring, [c for c in cof_parts if c[0]]) \
            if track else None
        nf = _reduce(ring, terms, R, cof) if terms else terms
        if not nf:
            report(cof)
            return
        check_degree(nf)
        push_elem(_normalize(ring, pk, nf, cof))

    while pairs or ann_queue:
        if ann_queue:
            k = ann_queue.pop()
            f = G[k]
            a = ring.coerce(ring.p ** (ring.e - vals[k]))
            consider([(f.terms, a, 0)], [(f.cof, a, 0)])
            continue
        _, L, i, j = heapq.heappop(pairs)
        if pair_T.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > max_pairs:
            raise BudgetExceededError(f"pair count exceeds cap {max_pairs}")
        f, g = G[i], G[j]
        L = -L
        df, dg = L - f.lm, L - g.lm
        if is_zz:
            l = f.lc * g.lc // math.gcd(f.lc, g.lc)
            cf, cg = l // f.lc, l // g.lc
        else:
            v = max(vals[i], vals[j])
            cf = ring.coerce(ring.p ** (v - vals[i]))
            cg = ring.coerce(ring.p ** (v - vals[j]))
        cg = ring.neg(cg)
        consider([(f.terms, cf, df), (g.terms, cg, dg)],
                 [(f.cof, cf, df), (g.cof, cg, dg)])
        if is_zz and f.lc % g.lc != 0 and g.lc % f.lc != 0:
            _, u, v = xgcd(f.lc, g.lc)
            consider([(f.terms, u, df), (g.terms, v, dg)],
                     [(f.cof, u, df), (g.cof, v, dg)])
    return G


def _reduced_basis(ring, order: MonomialOrder,
                   G: List[_Entry]) -> List[_Entry]:
    if not G:
        return []
    pk = _Packing.of(order, len(G[0].exp))
    guards = pk.guards
    # drop entries whose leading term is term-divisible by another's
    order_idx = sorted(range(len(G)), key=lambda i: (-G[i].lm, i))
    removed = [False] * len(G)
    for i in order_idx:
        for j in order_idx:
            if i == j or removed[j]:
                continue
            if not (G[i].lm - G[j].lm) & guards \
                    and ring.divides(G[j].lc, G[i].lc):
                if G[j].lm == G[i].lm and G[j].lc == G[i].lc and j > i:
                    continue  # identical leading terms: keep the earlier one
                removed[i] = True
                break
    kept = [G[i] for i in order_idx if not removed[i]]
    # tail-reduce each, once, against one index of all kept entries: a
    # tail term lies below the entry's own leading monomial, which then
    # divides none of the terms the reduction meets, so this is the
    # normal form against the others, the unique one against the strong
    # basis, and a second pass would change nothing.  Minimality keeps
    # each lead irreducible.
    index = _Reducers(ring, pk, kept)
    for i, g in enumerate(kept):
        tail = {m: c for m, c in g.terms.items() if m != g.lm}
        nf = _reduce(ring, tail, index) if tail else tail
        if nf != tail:
            kept[i] = _normalize(ring, pk, {g.lm: g.lc, **nf})
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
            self._gb = self._entries = ()
            self._base = self._reducers = None
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
        self._entries: Tuple[_Entry, ...] = ()   # _gb on packed monomials
        # an ideal generated by its reduced basis and leading the
        # generators (see ideal_sum), held until this basis is built
        self._base: Optional[Ideal] = None
        self._reducers: Optional[_Reducers] = None   # see _index

    @staticmethod
    def zero_ideal(ring, variables, order=GREVLEX) -> "Ideal":
        return Ideal([Polynomial.zero(ring, variables, order)], order)

    def is_zero(self) -> bool:
        return not self.generators

    def groebner_basis(self, max_pairs=None, max_degree=None):
        if self._gb is None:
            A = self._base
            if A is None:
                entries = _buchberger(self.generators, self.ring, self.order,
                                      max_pairs, max_degree)
            else:
                entries = _buchberger(self.generators[len(A.generators):],
                                      self.ring, self.order, max_pairs,
                                      max_degree, base=A._index())
                self._base = None
            self._entries = tuple(
                _reduced_basis(self.ring, self.order, entries))
            pk = self._packing()
            self._gb = tuple(
                Polynomial(self.ring, self.variables,
                           pk.unpack_dict(e.terms), self.order)
                for e in self._entries)
        return list(self._gb)

    def _packing(self) -> _Packing:
        return _Packing.of(self.order, len(self.variables))

    def _index(self) -> _Reducers:
        """The reducer index over the reduced basis, built on first use
        and kept, with its divisor cache, for the ideal's lifetime."""
        if self._reducers is None:
            if self._gb is None:
                self.groebner_basis()
            self._reducers = _Reducers(self.ring, self._packing(),
                                       self._entries)
        return self._reducers

    def interreduced(self) -> "Ideal":
        """The same ideal, but generated by its reduced strong basis.

        Useful before products/sums so generator counts stay bounded by
        the basis size instead of multiplying up.
        """
        gb = self.groebner_basis()
        if not gb:
            return self
        K = Ideal(gb, order=self.order)
        K.generators = K._gb = self._gb
        K._entries, K._reducers = self._entries, self._reducers
        return K

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators[:6])
        more = ", ..." if len(self.generators) > 6 else ""
        return f"Ideal({gens}{more})"


def normal_form(f: Polynomial, I: Ideal) -> Polynomial:
    if I.is_zero():
        return f
    pk = I._packing()
    nf = _reduce(I.ring, pk.pack_dict(f.terms), I._index())
    return Polynomial(I.ring, I.variables, pk.unpack_dict(nf), I.order)


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    return normal_form(f, I).is_zero()


def ideal_sum_product(A: Ideal, B: Ideal, C: Ideal) -> Ideal:
    """The ideal A*B + C."""
    gens = [a * b for a in A.generators for b in B.generators]
    gens.extend(C.generators)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return Ideal.zero_ideal(A.ring, A.variables, A.order)
    return Ideal(gens, order=A.order)


def ideal_sum(A: Ideal, B: Ideal) -> Ideal:
    """A + B.  When A is generated by its reduced basis (``interreduced``),
    the sum's basis is completed from A's index: A's entries are a strong
    basis, so only B's generators are reduced and paired."""
    gens = list(A.generators) + list(B.generators)
    if not gens:
        return Ideal.zero_ideal(A.ring, A.variables, A.order)
    S = Ideal(gens, order=A.order)
    if A.generators and A.generators is A._gb:
        S._base = A
    return S


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """(I : (f)): I's reduced basis and the f-cofactors of the syzygies
    that one run completing it with f meets (see ``_buchberger``), each
    once and only when it lies outside I (I is inside the quotient).
    Over ZZ/p^e these hold the annihilator p^(e-v) of f, v the p-valuation
    of its content, since p^(e-v) * f = 0 is a syzygy too."""
    gens = I.groebner_basis()
    pk, index = I._packing(), I._index()
    seen = set()

    def keep(cof):
        key = frozenset(cof.items())
        if key not in seen:
            seen.add(key)
            if _reduce(I.ring, cof, index):
                gens.append(Polynomial(I.ring, I.variables,
                                       pk.unpack_dict(cof), I.order))

    _syzygy_cofactors(I, f, keep)
    if not gens:
        return Ideal.zero_ideal(I.ring, I.variables, I.order)
    return Ideal(gens, order=I.order)


def _syzygy_cofactors(I: Ideal, f: Polynomial, sink):
    """Call ``sink`` on the packed cofactor of each syzygy that one
    Buchberger run meets, completing I's reduced basis with f from I's
    index, in I's variables and order."""
    if f.is_zero():
        raise GroebnerError("quotient by the zero polynomial")
    if f.ring != I.ring or f.variables != I.variables:
        raise GroebnerError("f and I disagree on ring/variables")
    _buchberger([f], I.ring, I.order, base=I._index(), sink=sink)


def ideal_contained_in(A: Ideal, B: Ideal) -> bool:
    return all(ideal_membership(g, B) for g in A.generators)
