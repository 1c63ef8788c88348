"""Real-period pipeline: covolumes, lattice generator, differential
conversion, and the per-prime Neron basis adjustment.

The big period matrix, the number of real components, and the local
generator d of the relative dualizing sheaf on each component are inputs;
this module computes P_I = |det(M_I + conj(M_I))| over all row subsets,
the real lattice generator P, the per-prime correction W_p = p^(a-b) from
the pole/vanishing adjustment loops, and Omega = m_real * W * P.

Each P_I is the exact determinant of the doubled real parts (an integer
determinant over a power-of-two scale), rounded once to a float.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .intmat import kernel_mod_p, rank_det
from .poly import Polynomial, poly_gcd, exact_divide
from .rings import CoefficientRing
from .vanishing import (ComponentLocus, FunctionVanishesOnCurve,
                        multiplicity_of_component, rational_function_order)

DEFAULT_TOL = 1e-9
EUCLID_STEPS = 256     # real-Euclid steps per input in lattice_generator


class PeriodError(ValueError):
    pass


class RepeatedPrimeError(ValueError):
    """Two models for one prime: W would count W_p twice."""


# ---------------------------------------------------------------------------
# covolumes and the real lattice generator (Algorithm steps 2-3)


@dataclass
class BigPeriodMatrix:
    genus: int
    entries: List[List[complex]]     # 2g rows, g columns

    def __post_init__(self):
        g = self.genus
        if len(self.entries) != 2 * g or any(len(r) != g for r in self.entries):
            raise PeriodError(f"period matrix must be {2 * g}x{g}")
        for row in self.entries:
            for z in row:
                z = complex(z)
                if not (abs(z.real) < float("inf")
                        and abs(z.imag) < float("inf")):
                    raise PeriodError("period matrix entries must be finite")


def covolumes(M: BigPeriodMatrix) -> List[Tuple[Tuple[int, ...], float]]:
    """P_I = |det(rows_I(M) + conj rows_I(M))| over all C(2g, g) subsets,
    computed exactly from the entries and rounded once."""
    g = M.genus
    out = []
    for I in itertools.combinations(range(2 * g), g):
        # rows + their conjugates = twice the real parts; each row is
        # cleared of denominators, and scale collects the factors
        rows, scale = [], 1
        for i in I:
            row = [2 * Fraction(complex(z).real) for z in M.entries[i]]
            d = math.lcm(*(x.denominator for x in row))
            rows.append([int(x * d) for x in row])
            scale *= d
        try:
            out.append((I, abs(rank_det(rows)[1]) / scale))
        except OverflowError:
            raise PeriodError(
                f"covolume P_{I} exceeds the float range") from None
    return out


@dataclass
class LatticeGenerator:
    value: float
    witness: List[int]     # value = |sum_i witness_i * input_i|


def lattice_generator(values: Sequence[float], tol: float = DEFAULT_TOL
                      ) -> LatticeGenerator:
    """Generator of the discrete subgroup of RR spanned by the values.

    Iterated real Euclid with a tolerance floor; keeps an integer witness
    expressing the output as a combination of the inputs.
    """
    values = [float(v) for v in values]
    vmax = max(abs(v) for v in values) if values else 0.0
    floor = tol * vmax
    kept = [(v, i) for i, v in enumerate(values) if abs(v) > floor]
    if not kept:
        raise PeriodError("all covolumes vanish (degenerate input)")
    n = len(values)

    def unit(i):
        w = [0] * n
        w[i] = 1
        return w

    g, gw = abs(kept[0][0]), unit(kept[0][1])
    if kept[0][0] < 0:
        gw = [-x for x in gw]
    for v, i in kept[1:]:
        a, aw = g, gw
        b, bw = abs(v), unit(i)
        if v < 0:
            bw = [-x for x in bw]
        steps = 0
        while b > floor:
            steps += 1
            if steps > EUCLID_STEPS:
                raise PeriodError(
                    "values do not generate a discrete subgroup of RR "
                    "(euclid fails to stabilize)")
            q = round(a / b)
            r = a - q * b
            new_w = [x - q * y for x, y in zip(aw, bw)]
            if r < 0:
                r = -r
                new_w = [-x for x in new_w]
            a, b = b, r
            aw, bw = bw, new_w
        g, gw = a, aw
    # post-conditions
    for v in values:
        if abs(v) <= floor:
            continue
        ratio = v / g
        if abs(ratio - round(ratio)) > tol * max(1.0, abs(ratio)):
            raise PeriodError(
                f"generator {g} does not divide input {v} within tolerance")
    check = sum(w * v for w, v in zip(gw, values))
    if abs(abs(check) - g) > tol * max(1.0, g):
        raise PeriodError("witness combination drifted beyond tolerance")
    return LatticeGenerator(g, gw)


# ---------------------------------------------------------------------------
# differential conversion (adjugate trick)


def convert_differential(f: Polynomial, g: Polynomial
                         ) -> Tuple[Polynomial, Polynomial]:
    """For a curve f = g = 0 in 3-space with coordinates (x, y, z):
    returns coprime (a, b) with a*dx + b*dy = 0 along the curve.

    M = [[f_y, f_z], [g_y, g_z]]; multiplying the relation
    N*(dx,dy,dz)^T = 0 (N the Jacobian of (f, g)) by adj(M) yields rows
    (F, D, 0) and (G, 0, D) with D = det M; then (a, b) = (F, D)/gcd(D, F).
    """
    if f.variables != g.variables or len(f.variables) != 3:
        raise PeriodError("expected two polynomials in three shared "
                          "variables")
    if f.ring != g.ring:
        raise PeriodError("polynomials must share a coefficient ring")
    x, y, z = f.variables
    fx, fy, fz = (f.derivative(v) for v in (x, y, z))
    gx, gy, gz = (g.derivative(v) for v in (x, y, z))
    D = fy * gz - fz * gy
    F = gz * fx - fz * gx
    G = fy * gx - gy * fx
    # symbolic identity check: adj(M)*N == [[F, D, 0], [G, 0, D]]
    adjM = [[gz, -fz], [-gy, fy]]
    N = [[fx, fy, fz], [gx, gy, gz]]
    zero = Polynomial.zero(f.ring, f.variables, f.order)
    expected = [[F, D, zero], [G, zero, D]]
    for i in range(2):
        for j in range(3):
            prod = adjM[i][0] * N[0][j] + adjM[i][1] * N[1][j]
            if prod != expected[i][j]:
                raise PeriodError("adjugate identity failed (internal)")
    if D.is_zero():
        raise PeriodError("det M = 0: the curve violates the generic "
                          "full-rank precondition")
    if F.is_zero():
        # gcd(D, 0) = D: the reduced pair is (0, 1)
        return F, Polynomial.constant(f.ring, f.variables, 1, f.order)
    h = poly_gcd(D, F)
    a = exact_divide(F, h)
    b = exact_divide(D, h)
    if a is None or b is None:
        raise PeriodError("gcd division failed (internal)")
    return a, b


# ---------------------------------------------------------------------------
# differentials on the special fibre


@dataclass
class DifferentialRep:
    """omega = (numerator/denominator) dx on the patch of the charts, in
    its variables; a chart's local generator d = (d_num/d_den) dx turns
    it into a function times d on that chart's component."""
    numerator: Polynomial
    denominator: Polynomial

    def scaled_by_p(self, p: int) -> "DifferentialRep":
        """Multiply by p on the exact ZZ-level representation."""
        den = self.denominator
        q = _divide_content(den, p)
        if q is not None:
            return DifferentialRep(self.numerator, q)
        return DifferentialRep(self.numerator.scale(p), den)

    def divided_by_p(self, p: int) -> "DifferentialRep":
        num = self.numerator
        q = _divide_content(num, p)
        if q is not None:
            return DifferentialRep(q, self.denominator)
        return DifferentialRep(num, self.denominator.scale(p))


def _divide_content(f: Polynomial, p: int) -> Optional[Polynomial]:
    """f / p when every coefficient of f is divisible by p (over ZZ)."""
    if f.ring.kind != "ZZ":
        raise PeriodError("differential adjustment needs ZZ coefficients")
    if f.is_zero() or any(c % p for c in f.terms.values()):
        return None
    return Polynomial.from_terms(f.ring, f.variables,
                                 [(e, c // p) for e, c in f.terms.items()],
                                 f.order)


@dataclass
class SamplePoint:
    coords: Dict[str, object]        # var -> element of GF(p^k)
    field: CoefficientRing           # GF(p) or GF(p^k)


@dataclass
class ComponentChart:
    component_id: str
    locus: ComponentLocus
    generator_numerator: Polynomial      # d = (d_num/d_den) * dx
    generator_denominator: Polynomial
    sample_points: List[SamplePoint] = field(default_factory=list)
    multiplicity: Optional[int] = None   # computed from the locus if None

    def __post_init__(self):
        for pt in self.sample_points:
            self.validate_point(pt)

    def validate_point(self, pt: SamplePoint):
        for gens in (self.locus.J.generators, self.locus.I.generators):
            for g in gens:
                gk = g.change_ring(pt.field)
                if not pt.field.is_zero(gk.evaluate(pt.coords)):
                    raise PeriodError(
                        f"sample point {pt.coords} does not lie on the "
                        f"component {self.component_id}")

    def get_multiplicity(self) -> int:
        if self.multiplicity is None:
            self.multiplicity = multiplicity_of_component(self.locus)
        return self.multiplicity


def differential_order_on_component(w: DifferentialRep,
                                    chart: ComponentChart) -> int:
    """ord_D(f_j * d_den) - ord_D(h_j * d_num); negative means a pole."""
    num = w.numerator * chart.generator_denominator
    den = w.denominator * chart.generator_numerator
    try:
        return rational_function_order(num, den, chart.locus)
    except FunctionVanishesOnCurve:
        raise PeriodError(
            "differential numerator lies in the patch ideal "
            "(identically zero on the patch)")


# ---------------------------------------------------------------------------
# vanishing subspace from sample points (linear-algebra shortcut)


def vanishing_subspace(charts: Sequence[ComponentChart],
                       diffs: Sequence[DifferentialRep]) -> List[List[int]]:
    """A basis of a subspace V of GF(p)^g containing every (c_j) whose
    combination Sum c_j omega_j vanishes on the whole fibre (containment
    only): the kernel mod p of the values at the sample points, from one
    Smith form (intmat.kernel_mod_p).

    Uses only sample points where no denominator vanishes; raises when no
    such point survives.
    """
    if not diffs:
        raise PeriodError("no differentials given")
    p = charts[0].locus.p
    rows: List[List[int]] = []
    for chart in charts:
        for pt in chart.sample_points:
            K = pt.field
            # omega_j = (f_j/h_j) d; its reduction at P uses h_j(P)
            hs = [(w.denominator * chart.generator_numerator
                   ).change_ring(K).evaluate(pt.coords) for w in diffs]
            if any(K.is_zero(h) for h in hs):
                continue
            cols = []
            for w, h in zip(diffs, hs):
                f = (w.numerator * chart.generator_denominator
                     ).change_ring(K)
                v = K.mul(f.evaluate(pt.coords), K.inv(h))
                # v as its k coordinates over GF(p), one row per coordinate
                v = tuple(v) if K.kind == "GFext" else (v,)
                cols.append(v + (0,) * (K.k - len(v)))
            rows.extend(map(list, zip(*cols)))
    if not rows:
        raise PeriodError("all sample points are killed by denominators; "
                          "fall back to the full per-component check")
    return kernel_mod_p(rows, p)


# ---------------------------------------------------------------------------
# Neron basis adjustment (steps 5-7)


@dataclass
class PrimeModel:
    p: int
    genus: int
    charts: List[ComponentChart]


@dataclass
class AdjustResult:
    diffs: List[DifferentialRep]
    a: int
    b: int
    W_p: Fraction


def _combination(diffs: Sequence[DifferentialRep],
                 coeffs: Sequence[int]) -> DifferentialRep:
    """Sum c_j * omega_j over the product of the denominators, exactly
    over ZZ: omega_j's cofactor is the product of the other ones."""
    f = diffs[0].numerator
    dens = [w.denominator for w in diffs]
    num = Polynomial.zero(f.ring, f.variables, f.order)
    for j, (c, w) in enumerate(zip(coeffs, diffs)):
        if c:
            num = num + math.prod((d for i, d in enumerate(dens) if i != j),
                                  start=w.numerator.scale(c))
    return DifferentialRep(num, math.prod(dens[1:], start=dens[0]))


def neron_basis_adjust(model: PrimeModel,
                       diffs: Sequence[DifferentialRep]) -> AdjustResult:
    """Pole-clearing / vanishing-division loops; W_p = p^(a-b).

    Step 5: while omega_j has a pole on some component, replace it by
    p*omega_j; every omega_j is cleared once at the start, and after that
    only the one step 6 replaced.  Step 6: while a nonzero combination
    Sum c_j omega_j vanishes on the whole fibre (order >= component
    multiplicity everywhere, i.e. divisible by p), replace the
    smallest-index omega_j with c_j != 0 by (1/p) Sum c_j omega_j.
    """
    p = model.p
    g = model.genus
    if len(diffs) != g:
        raise PeriodError(f"expected {g} differentials, got {len(diffs)}")
    work = list(diffs)
    max_mult = max((c.get_multiplicity() for c in model.charts), default=1)
    cap = max(4 * g * max_mult, 8)
    a = b = 0

    def clear_poles(j: int):
        # step 5 for omega_j; it runs after each step that raises a or b,
        # so it checks the cap on a + b first
        nonlocal a
        while True:
            if a + b > cap:
                raise PeriodError(
                    "adjustment loop exceeded its termination cap")
            # a list, not a generator: every component's order is asked,
            # so one that raises always does
            if not any([differential_order_on_component(work[j], c) < 0
                        for c in model.charts]):
                return
            work[j] = work[j].scaled_by_p(p)
            a += 1

    for j in range(g):
        clear_poles(j)
    while True:
        # step 6: divide out a vanishing combination
        try:
            basis = vanishing_subspace(model.charts, work)
        except PeriodError:
            basis = [[int(i == j) for j in range(g)] for i in range(g)]
        for c in _nonzero_span(basis, p, g):
            comb = _combination(work, c)
            if comb.numerator.is_zero():
                continue
            try:
                if all(differential_order_on_component(comb, chart)
                       >= chart.get_multiplicity()
                       for chart in model.charts):
                    break
            except PeriodError:
                continue
        else:
            return AdjustResult(work, a, b, Fraction(p) ** (a - b))
        j = next(i for i in range(g) if c[i])
        work[j] = comb.divided_by_p(p)
        b += 1
        clear_poles(j)


def _nonzero_span(basis: List[List[int]], p: int, g: int) -> List[List[int]]:
    """All nonzero vectors in the span of the basis over GF(p), each once:
    the basis is independent."""
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = [0] * g
        for c, vec in zip(coeffs, basis):
            if c:
                v = [(x + c * y) % p for x, y in zip(v, vec)]
        if any(v):
            out.append(v)
    return out


# ---------------------------------------------------------------------------
# final assembly


@dataclass
class PeriodResult:
    covolumes: List[Tuple[Tuple[int, ...], float]]
    P: float
    witness: List[int]
    per_prime: Dict[int, AdjustResult]
    W: Fraction
    m_real: int
    omega: float


def real_period(P: float, W: Fraction, m_real: int) -> float:
    if P <= 0 or m_real < 1 or W <= 0:
        raise PeriodError("real period needs P > 0, W > 0, m_real >= 1")
    return m_real * float(W) * P


def period_pipeline(matrix: BigPeriodMatrix,
                    models: Iterable[Tuple[PrimeModel,
                                           Sequence[DifferentialRep]]],
                    m_real: int,
                    tol: float = DEFAULT_TOL) -> PeriodResult:
    """Covolumes, lattice generator P, W = prod W_p and Omega.

    models yields (model, differentials) pairs, one per prime.  It is read
    once, after P is found, so a caller may load the models lazily.
    """
    covs = covolumes(matrix)
    gen = lattice_generator([v for _, v in covs], tol=tol)
    per_prime: Dict[int, AdjustResult] = {}
    W = Fraction(1)
    for model, diffs in models:
        if model.p in per_prime:
            raise RepeatedPrimeError(f"two models for p = {model.p}")
        res = neron_basis_adjust(model, diffs)
        per_prime[model.p] = res
        W *= res.W_p
    omega = real_period(gen.value, W, m_real)
    return PeriodResult(covs, gen.value, gen.witness, per_prime, W,
                        m_real, omega)
