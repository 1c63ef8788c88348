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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List

from .groebner import (Ideal, ideal_membership, ideal_quotient, ideal_sum,
                       ideal_sum_product)
from .poly import Polynomial
from .rings import CoefficientRing

DEFAULT_ORDER_BUDGET = 64


class VanishingError(ValueError):
    pass


class FunctionVanishesOnCurve(VanishingError):
    """f lies in J: the order along a component is undefined/infinite."""


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

    def __post_init__(self):
        if self.J.ring != self.I.ring or self.J.variables != self.I.variables:
            raise VanishingError("I and J must share ring and variables")
        for g in self.J.generators:
            if not ideal_membership(g, self.I):
                raise VanishingError(f"generator {g} of J is not in I")
        p_const = Polynomial.constant(self.I.ring, self.I.variables, self.p,
                                      self.I.order)
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


@dataclass
class VanishingOrder:
    order: int
    exact: bool   # False when the budget was hit ("at least" semantics)

    def __int__(self):
        return self.order


def _quotient_outside(In: Ideal, f: Polynomial, I: Ideal) -> bool:
    """Whether (In : (f)) is NOT contained in I (early exit on witness)."""
    Q = ideal_quotient(In, f)
    for g in Q.generators:
        if not ideal_membership(g, I):
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


def _direct_chain(locus: ComponentLocus):
    """I_n = I_{n-1} * I + J; yields I_1, I_2, ..."""
    for n in count(1):
        yield _chain_step(locus, "direct", n)


def _modified_chain(locus: ComponentLocus):
    """J_n / I_n^modified chain; yields I_n^modified at each step."""
    for n in count(1):
        yield _chain_step(locus, "modified", n)


def vanishing_order(f: Polynomial, locus: ComponentLocus,
                    mode: str = "modified",
                    budget: int = DEFAULT_ORDER_BUDGET) -> VanishingOrder:
    """Largest n <= budget with f in I^n localized along the component."""
    if mode not in _STEPS:
        raise VanishingError(f"unknown mode {mode!r}")
    if f.is_zero() or (not locus.J.is_zero()
                       and ideal_membership(f, locus.J)):
        raise FunctionVanishesOnCurve(
            "f vanishes identically on the curve V(J)")
    for n in range(1, budget + 1):
        if not _quotient_outside(_chain_step(locus, mode, n), f, locus.I):
            return VanishingOrder(n - 1, exact=True)
    return VanishingOrder(budget, exact=False)


def vanishing_order_truncated(f: Polynomial, locus: ComponentLocus,
                              r: int, m: int,
                              mode: str = "modified") -> VanishingOrder:
    """Run the chain over ZZ/p^(floor(r/m)+1)ZZ.

    A result < r is exact; otherwise only "order >= r" is known.  That
    includes a nonzero f that is 0 or lies in J over ZZ/p^e: then
    ord_D(f) >= e*m > r.
    """
    if r < 1:
        raise VanishingError("threshold r must be >= 1")
    if m < 1:
        raise VanishingError("multiplicity m must be >= 1")
    if locus.ring.kind != "ZZ":
        raise VanishingError("truncated computation starts from ZZ data")
    if f.is_zero():
        raise FunctionVanishesOnCurve(
            "f vanishes identically on the curve V(J)")
    e = r // m + 1
    target = CoefficientRing.Zmod(locus.p, e)
    try:
        res = vanishing_order(f.change_ring(target),
                              locus.change_ring(target), mode=mode, budget=r)
    except FunctionVanishesOnCurve:
        return VanishingOrder(r, exact=False)
    if res.exact and res.order < r:
        return res
    return VanishingOrder(r, exact=False)


def multiplicity_of_component(locus: ComponentLocus,
                              mode: str = "modified",
                              budget: int = DEFAULT_ORDER_BUDGET) -> int:
    """Order of vanishing of the constant p: the fibre multiplicity.

    One order query on the locus itself, so over ZZ its chain serves the
    later queries too.  Over ZZ/p^e with e >= 2 the answer m is exact by
    the truncation proposition, since m < e*m.
    """
    p_const = Polynomial.constant(locus.ring, locus.I.variables, locus.p,
                                  locus.I.order)
    res = vanishing_order(p_const, locus, mode=mode, budget=budget)
    if not res.exact:
        raise VanishingError("budget hit while computing multiplicity")
    return res.order


def rational_function_order(f, g, locus: ComponentLocus,
                            mode: str = "modified",
                            budget: int = DEFAULT_ORDER_BUDGET) -> int:
    """ord(f) - ord(g)."""

    def order(poly):
        res = vanishing_order(poly, locus, mode=mode, budget=budget)
        if not res.exact:
            raise VanishingError("budget hit")
        return res.order

    return order(f) - order(g)
