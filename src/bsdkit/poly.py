"""Sparse multivariate polynomials over the rings in :mod:`bsdkit.rings`.

Terms are stored as a dict mapping exponent tuples to nonzero ring
elements.  Polynomials are immutable; all operations return new objects.
"""

from __future__ import annotations

from operator import add as _op_add
from typing import Dict, List, Optional, Sequence, Tuple

from .rings import CoefficientRing, up_gcd

MAX_EXPONENT = 1 << 16


class PolynomialError(ValueError):
    pass


class ParseError(PolynomialError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# monomial orders


class MonomialOrder:
    """Grevlex or lex.

    ``sort_key(exp)`` produces a key whose ascending sort lists monomials
    in *descending* order.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        assert kind in ("grevlex", "lex")
        self.kind = kind

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder("grevlex")

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    def sort_key(self, e: Tuple[int, ...]):
        if self.kind == "grevlex":
            return (-sum(e), e[::-1])
        return tuple(-x for x in e)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return self.kind


GREVLEX = MonomialOrder.grevlex()


def exp_mul(a, b):
    return tuple(map(_op_add, a, b))


def exp_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def exp_div(b, a):
    return tuple(y - x for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    __slots__ = ("ring", "variables", "terms", "order", "_sorted")

    def __init__(self, ring: CoefficientRing, variables: Sequence[str],
                 terms: Dict[Tuple[int, ...], object],
                 order: MonomialOrder = GREVLEX):
        self.ring = ring
        self.variables = tuple(variables)
        self.terms = terms
        self.order = order
        self._sorted = None

    @staticmethod
    def from_terms(ring, variables, items, order=GREVLEX) -> "Polynomial":
        """Build from (exponent, coefficient) pairs, accumulating duplicates
        and dropping zeros."""
        nvars = len(variables)
        terms: Dict[Tuple[int, ...], object] = {}
        for e, c in items:
            e = tuple(e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise PolynomialError(f"bad exponent vector {e}")
            if any(x > MAX_EXPONENT for x in e):
                raise PolynomialError(f"exponent overflow in {e}")
            c = ring.coerce(c)
            if e in terms:
                c = ring.add(terms[e], c)
            if ring.is_zero(c):
                terms.pop(e, None)
            else:
                terms[e] = c
        return Polynomial(ring, variables, terms, order)

    @staticmethod
    def zero(ring, variables, order=GREVLEX) -> "Polynomial":
        return Polynomial(ring, tuple(variables), {}, order)

    @staticmethod
    def constant(ring, variables, c, order=GREVLEX) -> "Polynomial":
        return Polynomial.from_terms(ring, variables,
                                     [((0,) * len(variables), c)], order)

    @staticmethod
    def variable(ring, variables, name, order=GREVLEX) -> "Polynomial":
        variables = tuple(variables)
        if name not in variables:
            raise PolynomialError(f"unknown variable {name!r}")
        e = tuple(1 if v == name else 0 for v in variables)
        return Polynomial.from_terms(ring, variables, [(e, 1)], order)

    # -- basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return self.ring.zero()
        return self.terms[(0,) * len(self.variables)]

    def sorted_terms(self):
        if self._sorted is None:
            key = self.order.sort_key
            self._sorted = sorted(self.terms.items(), key=lambda t: key(t[0]))
        return self._sorted

    def leading_term(self):
        if not self.terms:
            raise PolynomialError("zero polynomial has no leading term")
        return self.sorted_terms()[0]

    def leading_coefficient(self):
        return self.leading_term()[1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        if var not in self.variables:
            raise PolynomialError(f"unknown variable {var!r}")
        i = self.variables.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def _check_compat(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise PolynomialError("coefficient ring mismatch")
        if self.variables != other.variables:
            raise PolynomialError("variable list mismatch")

    # -- arithmetic

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        ring = self.ring
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                s = ring.add(terms[e], c)
                if ring.is_zero(s):
                    del terms[e]
                else:
                    terms[e] = s
            else:
                terms[e] = c
        return Polynomial(ring, self.variables, terms, self.order)

    def __neg__(self) -> "Polynomial":
        ring = self.ring
        return Polynomial(ring, self.variables,
                          {e: ring.neg(c) for e, c in self.terms.items()},
                          self.order)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compat(other)
        ring = self.ring
        terms: Dict[Tuple[int, ...], object] = {}
        small, big = ((self.terms, other.terms)
                      if len(self.terms) <= len(other.terms)
                      else (other.terms, self.terms))
        for e1, c1 in small.items():
            for e2, c2 in big.items():
                e = exp_mul(e1, e2)
                c = ring.mul(c1, c2)
                if e in terms:
                    c = ring.add(terms[e], c)
                if ring.is_zero(c):
                    terms.pop(e, None)
                else:
                    terms[e] = c
        for e in terms:
            if any(x > MAX_EXPONENT for x in e):
                raise PolynomialError(f"exponent overflow in {e}")
        return Polynomial(ring, self.variables, terms, self.order)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise PolynomialError("negative exponent")
        result = Polynomial.constant(self.ring, self.variables, 1, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        ring = self.ring
        c = ring.coerce(c)
        terms = {}
        for e, x in self.terms.items():
            y = ring.mul(x, c)
            if not ring.is_zero(y):
                terms[e] = y
        return Polynomial(ring, self.variables, terms, self.order)

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ring == other.ring
                and self.variables == other.variables
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, self.variables,
                     frozenset(self.terms.items())))

    # -- calculus

    def derivative(self, var: str) -> "Polynomial":
        if var not in self.variables:
            raise PolynomialError(f"unknown variable {var!r}")
        i = self.variables.index(var)
        ring = self.ring
        items = []
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            c2 = ring.mul_int(c, e[i])
            if ring.is_zero(c2):
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            items.append((e2, c2))
        return Polynomial.from_terms(ring, self.variables, items, self.order)

    # -- ring/variable changes

    def change_ring(self, target: CoefficientRing) -> "Polynomial":
        """Map coefficients through the canonical map to ``target``."""
        src = self.ring
        if src == target:
            return self
        ok = False
        if src.kind == "ZZ" and target.kind in ("Zmod", "GF", "GFext"):
            ok = True
        elif (src.kind == "Zmod" and target.kind in ("Zmod", "GF")
              and src.p == target.p and (target.e or 1) <= src.e):
            ok = True
        elif src.kind == "GF" and target.kind in ("GF", "GFext") and src.p == target.p:
            ok = True
        if not ok:
            raise PolynomialError(f"no canonical map {src!r} -> {target!r}")
        return Polynomial.from_terms(target, self.variables,
                                     self.terms.items(), self.order)

    def with_order(self, order: MonomialOrder) -> "Polynomial":
        return Polynomial(self.ring, self.variables, dict(self.terms), order)

    def evaluate(self, point):
        """Evaluate at a point given as {var: ring element}."""
        ring = self.ring
        vals = [ring.coerce(point[v]) for v in self.variables]
        acc = ring.zero()
        for e, c in self.terms.items():
            t = c
            for x, n in zip(vals, e):
                for _ in range(n):
                    t = ring.mul(t, x)
            acc = ring.add(acc, t)
        return acc

    # -- printing

    def __repr__(self):
        return self.to_string()

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        ring = self.ring
        chunks = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                (v if n == 1 else f"{v}^{n}")
                for v, n in zip(self.variables, e) if n)
            crep = ring.element_repr(c)
            neg = False
            if ring.kind == "ZZ" and c < 0:
                neg = True
                crep = str(-c)
            if mono and crep == "1":
                body = mono
            elif mono:
                body = f"{crep}*{mono}"
            else:
                body = crep
            if not chunks:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)


# ---------------------------------------------------------------------------
# parsing


class _Parser:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := base ('^' uint)?;
    base := int | ident | '(' expr ')'."""

    def __init__(self, text, ring, variables, order):
        self.text = text
        self.pos = 0
        self.ring = ring
        self.variables = tuple(variables)
        self.order = order

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Polynomial:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return p

    def expr(self) -> Polynomial:
        sign = 1
        while self.peek() and self.peek() in "+-":
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() and self.peek() in "+-":
            op = self.peek()
            self.pos += 1
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Polynomial:
        p = self.factor()
        while self.peek() == "*":
            self.pos += 1
            p = p * self.factor()
        return p

    def factor(self) -> Polynomial:
        p = self.base()
        if self.peek() == "^":
            self.pos += 1
            n = self.uint()
            if n > MAX_EXPONENT:
                self.error("exponent overflow")
            p = p ** n
        return p

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def base(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            self.expect(")")
            return p
        if ch.isdigit():
            return Polynomial.constant(self.ring, self.variables, self.uint(),
                                       self.order)
        if ch == "-":
            self.pos += 1
            p = self.base()
            return -p
        if ch.isalpha():
            start = self.pos
            while (self.pos < len(self.text)
                   and (self.text[self.pos].isalnum()
                        or self.text[self.pos] == "_")):
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in self.variables:
                self.pos = start
                self.error(f"unknown variable {name!r}")
            return Polynomial.variable(self.ring, self.variables, name,
                                       self.order)
        self.error("expected integer, variable or '('")


def parse_polynomial(text: str, ring: CoefficientRing,
                     variables: Sequence[str],
                     order: MonomialOrder = GREVLEX) -> Polynomial:
    return _Parser(text, ring, variables, order).parse()


# ---------------------------------------------------------------------------
# gcd (primitive subresultant PRS, recursing through the variables)


def _used_vars(f: Polynomial, g: Polynomial) -> List[int]:
    used = set()
    for p in (f, g):
        for e in p.terms:
            used.update(i for i, x in enumerate(e) if x)
    return sorted(used)


def _univariate_view(f: Polynomial, i: int) -> Dict[int, Polynomial]:
    """Coefficients of f as a polynomial in variable i."""
    out: Dict[int, Dict] = {}
    for e, c in f.terms.items():
        d = e[i]
        e2 = e[:i] + (0,) + e[i + 1:]
        out.setdefault(d, {})[e2] = c
    return {d: Polynomial(f.ring, f.variables, t, f.order)
            for d, t in out.items()}


def _from_view(view: Dict[int, Polynomial], i: int, model: Polynomial):
    terms = {}
    for d, coeff in view.items():
        for e, c in coeff.terms.items():
            terms[e[:i] + (d,) + e[i + 1:]] = c
    return Polynomial(model.ring, model.variables, terms, model.order)


def exact_divide(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """f / g if g divides f exactly, else None.  Works over ZZ and fields."""
    f._check_compat(g)
    if g.is_zero():
        raise PolynomialError("division by zero")
    ring = f.ring
    q = Polynomial.zero(ring, f.variables, f.order)
    r = f
    ge, gc = g.leading_term()
    while not r.is_zero():
        re, rc = r.leading_term()
        if not exp_divides(ge, re) or not ring.divides(gc, rc):
            return None
        c = ring.exact_div(rc, gc)
        t = Polynomial.from_terms(ring, f.variables, [(exp_div(re, ge), c)],
                                  f.order)
        q = q + t
        r = r - t * g
    return q


def _content_in(f: Polynomial, i: int) -> Polynomial:
    """gcd of the coefficients of f viewed as a polynomial in variable i."""
    view = _univariate_view(f, i)
    acc = None
    for d in sorted(view):
        acc = view[d] if acc is None else poly_gcd(acc, view[d])
        if acc.is_constant() and acc.ring.is_unit(acc.constant_value()):
            break
    return _normalize_gcd(acc)


def _normalize_gcd(g: Polynomial) -> Polynomial:
    ring = g.ring
    if g.is_zero():
        return g
    if ring.is_field():
        return g.scale(ring.inv(g.leading_coefficient()))
    if g.leading_coefficient() < 0:
        return -g
    return g


# GF(2^61 - 1), a Mersenne prime field, for gcd triviality probes
_PROBE_FIELD = CoefficientRing.GF((1 << 61) - 1)


def _probe_eval(f: Polynomial, i: int, vals: Dict[int, int], q: int):
    """Image of f mod q with variables != i evaluated; None if the
    leading x_i-degree drops (unlucky evaluation)."""
    coeffs: Dict[int, int] = {}
    for e, c in f.terms.items():
        v = c % q
        for j, x in vals.items():
            if e[j]:
                v = v * pow(x, e[j], q) % q
        d = e[i]
        coeffs[d] = (coeffs.get(d, 0) + v) % q
    deg = f.degree_in(f.variables[i])
    if coeffs.get(deg, 0) == 0:
        return None
    out = [0] * (deg + 1)
    for d, v in coeffs.items():
        out[d] = v
    return tuple(out)


def _gcd_probe_trivial(f: Polynomial, g: Polynomial,
                       used: List[int]) -> bool:
    """Certify that gcd(f, g) is constant.

    For each used variable, the image of the gcd under evaluating the
    other variables (mod a large prime) divides the gcd of the images;
    so if some image pair with preserved leading degrees has a degree-0
    gcd, the true gcd has degree 0 in that variable.
    """
    import random as _random

    F = _PROBE_FIELD
    rng = _random.Random(0x5eed)
    for i in used:
        proven = False
        for _ in range(4):
            vals = {j: rng.randrange(1, 1 << 30) for j in used if j != i}
            uf = _probe_eval(f, i, vals, F.p)
            ug = _probe_eval(g, i, vals, F.p)
            if uf is None or ug is None:
                continue
            if len(up_gcd(F, uf, ug)) == 1:
                proven = True
                break
        if not proven:
            return False
    return True


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """gcd over ZZ or over a field (primitive PRS on the last used variable,
    recursive content gcd); normalized monic / positive-leading."""
    f._check_compat(g)
    ring = f.ring
    if ring.kind == "Zmod":
        raise PolynomialError("gcd over ZZ/p^e is not supported")
    if f.is_zero():
        return _normalize_gcd(g)
    if g.is_zero():
        return _normalize_gcd(f)
    used = _used_vars(f, g)
    if used and ring.kind == "ZZ" and _gcd_probe_trivial(f, g, used):
        import math
        c = 0
        for x in list(f.terms.values()) + list(g.terms.values()):
            c = math.gcd(c, x)
        return Polynomial.constant(ring, f.variables, c, f.order)
    if not used:
        if ring.is_field():
            return Polynomial.constant(ring, f.variables, 1, f.order)
        import math
        return Polynomial.constant(
            ring, f.variables,
            math.gcd(f.constant_value(), g.constant_value()), f.order)
    i = used[-1]
    var = f.variables[i]

    def prim(p):
        cont = _content_in(p, i)
        return cont, exact_divide(p, cont)

    cf, pf = prim(f)
    cg, pg = prim(g)
    cont_gcd = poly_gcd(cf, cg)

    a, b = pf, pg
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while True:
        if b.degree_in(var) == 0:
            # primitive parts are coprime in the main variable
            pp = Polynomial.constant(ring, f.variables, 1, f.order)
            break
        r = _pseudo_rem(a, b, i)
        if r.is_zero():
            _, pp = prim(b)
            break
        _, r = prim(r)
        a, b = b, r
    return _normalize_gcd(cont_gcd * pp)


def _pseudo_rem(a: Polynomial, b: Polynomial, i: int) -> Polynomial:
    """Pseudo-remainder of a by b with respect to variable index i."""
    va = _univariate_view(a, i)
    vb = _univariate_view(b, i)
    da, db = max(va), max(vb)
    lcb = vb[db]
    r = va
    while r and max(r) >= db:
        dr = max(r)
        lcr = r[dr]
        # r = lcb * r - lcr * x^(dr-db) * b
        new = {}
        for d, p in r.items():
            new[d] = p * lcb
        for d, p in vb.items():
            t = p * lcr
            dd = d + dr - db
            new[dd] = new.get(dd, Polynomial.zero(a.ring, a.variables,
                                                  a.order)) - t
        r = {d: p for d, p in new.items() if not p.is_zero()}
    return _from_view(r, i, a) if r else Polynomial.zero(a.ring, a.variables,
                                                         a.order)
