"""Order of vanishing of functions on components of a special fibre.

The order of f along the component V(I) of the curve V(J) is the largest
n with f in I^n localized at I; it is detected through the criterion
"(I^n + J : (f)) is not contained in I".  Two chain constructions are
available: the direct chain I_n = I_{n-1} * I + J, and a modified chain
that re-adds those Groebner basis elements of the previous step that
already vanish to higher order, which keeps the bases much smaller.

A chain depends only on the component, not on f, so each locus keeps its
chains and builds each step once: every later order query on the same
locus walks the steps already built and extends the chain only past them.

Every order on a locus over ZZ comes from ``_truncated_order``: its chains
run on one kept truncation of the locus to ZZ/p^e, where the Groebner work
stays small.  By the truncation proposition an order n computed there is
exact when n <= e*m - 2, m the multiplicity; m is computed on the same ring
and kept, and e doubles until the answer is exact or reaches the threshold.
The chain over ZZ itself (``vanishing_order`` on a ZZ locus) serves only as
the tests' oracle.  Each exact order (``_exact_order``) is kept on the
locus, so a repeated query runs no quotient test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional

from .groebner import (Ideal, _reduce, _syzygy_cofactors,
                       ideal_membership, ideal_sum, ideal_sum_product)
from .poly import Polynomial
from .rings import CoefficientRing

DEFAULT_ORDER_BUDGET = 64
# e of the first truncation ZZ/p^e of a ZZ locus: its exact range e*m - 2
# covers order 2m, so 2*z at m = 4 (order 8) needs no second ring
TRUNCATION_START = 3


class VanishingError(ValueError):
    pass


class FunctionVanishesOnCurve(VanishingError):
    """f lies in J: the order along a component is undefined/infinite."""

    def __init__(self, message="f vanishes identically on the curve V(J)"):
        super().__init__(message)


@dataclass(frozen=True)
class ComponentLocus:
    """A component V(I) of the special fibre of the curve V(J) at p."""
    J: Ideal
    I: Ideal
    p: int
    # mode -> [I_1, I_2, ...]: the chain steps built so far, extended on
    # demand by _chain_step; ignored by equality and hashing
    _chains: Dict[str, List[Ideal]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # f -> its exact order: each f asked through _exact_order, and p once
    # a truncation has computed the multiplicity
    _orders: Dict[Polynomial, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # e -> this locus over ZZ/p^e with its chains; one e at a time
    _truncated: Dict[int, "ComponentLocus"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.J.ring != self.I.ring or self.J.variables != self.I.variables:
            raise VanishingError("I and J must share ring and variables")
        for g in self.J.generators:
            if not ideal_membership(g, self.I):
                raise VanishingError(f"generator {g} of J is not in I")
        p_const = _p_const(self)
        if not p_const.is_zero() and not ideal_membership(p_const, self.I):
            raise VanishingError(f"{self.p} is not in I")
        # I must be prime and O_{V(J),I} regular; both are the caller's
        # obligation (only cheap sanity checks are run here)

    @property
    def ring(self) -> CoefficientRing:
        return self.I.ring

    def change_ring(self, target: CoefficientRing) -> "ComponentLocus":
        J = Ideal([g.change_ring(target) for g in self.J.generators]
                  or [Polynomial.zero(target, self.I.variables, self.I.order)],
                  order=self.J.order)
        I = Ideal([g.change_ring(target) for g in self.I.generators],
                  order=self.I.order)
        return ComponentLocus(J, I, self.p)

    def truncated(self, e: int) -> "ComponentLocus":
        """This locus over ZZ/p^e, kept with its chains until another e is
        asked for."""
        kept = self._truncated.get(e)
        if kept is None:
            self._truncated.clear()
            kept = self._truncated[e] = self.change_ring(
                CoefficientRing.Zmod(self.p, e))
        return kept


@dataclass
class VanishingOrder:
    order: int
    exact: bool   # False when the budget was hit ("at least" semantics)


class _Witness(Exception):
    """An element of (In : (f)) outside I."""


def _quotient_outside(In: Ideal, f: Polynomial, I: Ideal) -> bool:
    """Whether (In : (f)) is NOT contained in I, for In inside I.

    The quotient is generated by In and the syzygy cofactors of one
    Buchberger run (see ``groebner.ideal_quotient``).  Only a cofactor
    can leave I: each comes packed and is reduced against I's index, the
    run stops at the first that does not reduce to 0, and no quotient is
    built.
    """
    assert In._packing() is I._packing()
    ring, index = I.ring, I._index()

    def test(cof):
        if _reduce(ring, cof, index):
            raise _Witness

    try:
        _syzygy_cofactors(In, f, test)
    except _Witness:
        return True
    return False


def _direct_step(locus: ComponentLocus, In: Ideal) -> Ideal:
    # interreduce first: keeps the generator count at the basis size
    # instead of multiplying up step over step
    return ideal_sum_product(In.interreduced(), locus.I, locus.J)


def _modified_step(locus: ComponentLocus, In_mod: Ideal) -> Ideal:
    """I_{n+1}^modified = J_{n+1} + the elements of I_n^modified's basis
    that still vanish to order n + 1."""
    I, J = locus.I, locus.J
    Jn = ideal_sum_product(In_mod.interreduced(), I, J).interreduced()
    extra = [x for x in In_mod.groebner_basis()
             if _quotient_outside(Jn, x, I)]
    return ideal_sum(Jn, Ideal(extra, order=I.order)) if extra else Jn


_STEPS = {"direct": _direct_step, "modified": _modified_step}


def _chain_step(locus: ComponentLocus, mode: str, n: int) -> Ideal:
    """I_n (n >= 1) of the locus's chain, built at most once per locus.

    A step is appended only once it is computed, so an error raised while
    building it leaves the steps before it cached and the next query
    retries it.
    """
    chain = locus._chains.setdefault(mode, [locus.I])
    while len(chain) < n:
        chain.append(_STEPS[mode](locus, chain[-1]))
    return chain[n - 1]


def vanishing_order(f: Polynomial, locus: ComponentLocus,
                    mode: str = "modified",
                    budget: int = DEFAULT_ORDER_BUDGET) -> VanishingOrder:
    """Largest n <= budget with f in I^n localized along the component."""
    if mode not in _STEPS:
        raise VanishingError(f"unknown mode {mode!r}")
    if f.is_zero() or (not locus.J.is_zero()
                       and ideal_membership(f, locus.J)):
        raise FunctionVanishesOnCurve()
    for n in range(1, budget + 1):
        if not _quotient_outside(_chain_step(locus, mode, n), f, locus.I):
            return VanishingOrder(n - 1, exact=True)
    return VanishingOrder(budget, exact=False)


def vanishing_order_truncated(f: Polynomial, locus: ComponentLocus,
                              r: int, m: int,
                              mode: str = "modified") -> VanishingOrder:
    """ord_D(f) if below the threshold r, else (r, exact=False), from
    ZZ/p^(floor(r/m)+1) on: ``_truncated_order`` with m taken as given.

    A smaller m than the true multiplicity only costs a bigger ring; a
    larger one can give a wrong answer.
    """
    if r < 1:
        raise VanishingError("threshold r must be >= 1")
    if m < 1:
        raise VanishingError("multiplicity m must be >= 1")
    if locus.ring.kind != "ZZ":
        raise VanishingError("truncated computation starts from ZZ data")
    return _truncated_order(f, locus, r, mode, e=r // m + 1, m=m)


def _p_const(locus: ComponentLocus) -> Polynomial:
    return Polynomial.constant(locus.ring, locus.I.variables, locus.p,
                               locus.I.order)


def multiplicity_of_component(locus: ComponentLocus) -> int:
    """Order of vanishing of the constant p: the fibre multiplicity, an
    ``_exact_order`` kept on the locus."""
    return _exact_order(_p_const(locus), locus)


def _truncated_order(f: Polynomial, locus: ComponentLocus,
                     budget: int = DEFAULT_ORDER_BUDGET,
                     mode: str = "modified", e: Optional[int] = None,
                     m: Optional[int] = None) -> VanishingOrder:
    """ord_D(f) on a ZZ locus if below budget, else (budget, exact=False),
    from chains over ZZ/p^e (``truncated``); e starts at the one given, or
    at TRUNCATION_START or the kept ring, and doubles until e*m - 1 reaches
    the budget.

    An answer n over ZZ/p^e is exact when n <= e*m - 2, so each ring is
    asked with budget min(e*m - 1, budget).  Without a given m the first
    ask takes m = 1; if it is not exact, the true m is computed on that
    ring as the order of p (exact for e >= 2) and kept as
    ``locus._orders[p]``.  Only that m splits off the p-content:
    ord(p^a * u) = a*m + ord(u).  An f that is 0 or in J over ZZ/p^e has
    order >= e*m unless it lies in J over ZZ.
    """
    if f.is_zero():
        raise FunctionVanishesOnCurve()
    p_const, p = _p_const(locus), locus.p
    a, c = 0, gcd(*f.terms.values())
    while c % p == 0:
        a, c = a + 1, c // p
    e = e or max([TRUNCATION_START, *locus._truncated])
    while True:
        known = locus._orders.get(p_const)
        if a and known:
            if a * known < budget:
                u = Polynomial(f.ring, f.variables, {
                    x: y // p ** a for x, y in f.terms.items()}, f.order)
                res = _truncated_order(u, locus, budget - a * known, mode,
                                       e, m)
                return VanishingOrder(a * known + res.order, res.exact)
            if ideal_membership(f, locus.J):
                raise FunctionVanishesOnCurve()
            return VanishingOrder(budget, exact=False)
        T = locus.truncated(e)
        cap = min(e * (m or known or 1) - 1, budget)
        try:
            res = vanishing_order(f.change_ring(T.ring), T, mode, cap)
        except FunctionVanishesOnCurve:
            if ideal_membership(f, locus.J):
                raise
            res = None
        if res is not None and res.exact:
            return res
        if cap == budget:
            return VanishingOrder(budget, exact=False)
        if not (m or known):
            known = locus._orders[p_const] = multiplicity_of_component(T)
            if known > 1 or a:      # a larger cap, or the p-content splits
                continue
        e *= 2


def _exact_order(f: Polynomial, locus: ComponentLocus) -> int:
    """ord_D(f), kept on the locus; over ZZ from ``_truncated_order``."""
    order = locus._orders.get(f)
    if order is None:
        res = (_truncated_order(f, locus) if locus.ring.kind == "ZZ"
               else vanishing_order(f, locus))
        if not res.exact:
            raise VanishingError("budget hit")
        order = locus._orders[f] = res.order
    return order


def rational_function_order(f, g, locus: ComponentLocus) -> int:
    """ord(f) - ord(g), each an ``_exact_order``: over ZZ no chain runs on
    the locus itself, only on its truncation to ZZ/p^e."""
    return _exact_order(f, locus) - _exact_order(g, locus)
