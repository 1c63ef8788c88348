"""Coefficient rings: ZZ, QQ, ZZ/p^e, GF(p) and GF(p^k), and dense
univariate polynomials over any of them.

Elements are plain Python ints for ZZ, ZZ/p^e and GF(p), Fractions for
QQ, and tuples of ints (coefficients of the generator polynomial, low
degree first) for GF(p^k).  Rings are immutable and hashable; all element
operations are pure functions on the ring object.  QQ serves the
univariate layer only (number-field towers); the Groebner code rejects
it.

The univariate layer computes on plain numbers over ZZ, QQ, ZZ/p^e and
GF(p), reducing by the integer modulus once per output coefficient;
GF(p^k) is the one ring whose coefficients go through the ring's
operations, which in turn run the layer over GF(p).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple


class RingError(ValueError):
    pass


# the largest k of GF(p^k): finding and testing a degree-k modulus grows
# steeply with k (0.11 s for GF(2^64), 3.0 s for GF(2^96) on a 2-core
# x86-64 VM)
MAX_FIELD_DEGREE = 64

# the most candidates find_irreducible tests before it gives up, a bound
# on the count of tests, not on the cost of one; about three times the
# largest count measured, 1,338 for GF(37^23) (over all primes p < 200
# with k <= 13 or k in {17, 19, 23}, 27 primes of 3 to 7 digits with
# k <= 8, and p <= 3 with k <= 64; next are GF(37^19) 1,337, GF(181^13)
# 919 and GF(97^19) 900)
MAX_MODULUS_CANDIDATES = 4096

# the largest k * bit_length(p) of GF(p^k) with k >= 2, a bound on the cost
# of one modulus test, which makes about k^2 * k * bit_length(p) coefficient
# products.  On a 2-core x86-64 VM one test at 256 takes at most 0.15 s
# (GF(13^64)) and the slowest search measured at 256, GF(11^64), 26 s;
# GF(1000003^32) (640) took 9 s.  Every field counted above is at most 192.
MAX_FIELD_BITS = 256


# ---------------------------------------------------------------------------
# primality


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MORE_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# Sorenson & Webster (2015): bases 2..41 are a deterministic witness set
# below this bound
_DETERMINISTIC_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin with prime bases.

    Exact below 3,317,044,064,679,887,385,961,981 (bases 2..41).  At and
    above that bound n must also pass the bases 43..97; composites that
    are strong pseudoprimes to every such fixed base exist (Arnault 1995),
    so there True means "strong probable prime", not a proof.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _SMALL_PRIMES
    if n >= _DETERMINISTIC_BELOW:
        bases += _MORE_BASES
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> Dict[int, int]:
    """Prime -> exponent for n >= 1, by trial division."""
    out: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """g, x, y with x*a + y*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# dense univariate polynomials over a ring R: tuples of elements of R, low
# degree first, with no trailing zeros.  Zero is the only falsy element of
# every ring kind, so `if c` tests c != 0.  Division needs a unit as the
# divisor's leading coefficient.  Each function picks its path once per
# call, not per coefficient (module docstring).


def up(R, coeffs):
    """The polynomial with the given coefficients, coerced into R."""
    return up_trim(R, [R.coerce(c) for c in coeffs])


def up_trim(R, c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _reduced(R, c):
    """up_trim of the list c, each entry first reduced by R's integer
    modulus: p^e over ZZ/p^e, p over GF(p), none over ZZ, QQ and GF(p^k)."""
    m = None if R.kind == "GFext" else R.m or R.p
    return up_trim(R, [x % m for x in c] if m else c)


def up_add(R, a, b):
    if len(a) < len(b):
        a, b = b, a
    add = R.add if R.kind == "GFext" else operator.add
    out = list(a)
    for i, y in enumerate(b):
        out[i] = add(out[i], y)
    return _reduced(R, out)


def up_sub(R, a, b):
    sub = R.sub if R.kind == "GFext" else operator.sub
    out = list(a) + [R.zero()] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = sub(out[i], y)
    return _reduced(R, out)


def up_scale(R, a, c):
    mul = R.mul if R.kind == "GFext" else operator.mul
    return _reduced(R, [mul(c, x) for x in a])


def up_mul(R, a, b):
    if not a or not b:
        return ()
    out = [R.zero()] * (len(a) + len(b) - 1)
    if R.kind == "GFext":
        add, mul = R.add, R.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] = add(out[j], mul(x, y))
    else:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
    return _reduced(R, out)


def _divide(R, a, b, q):
    """The remainder of a by b (deg < deg b), by long division of the list
    a in place; when q is a list, q[d] receives the quotient's coefficient
    of x^d."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    n = len(b) - 1
    inv = R.inv(b[-1])
    low = b[:n]
    # the leading term of a cancels exactly; it is popped, not updated
    if R.kind == "GFext":
        sub, mul = R.sub, R.mul
        while len(a) > n:
            c = a.pop()
            if not c:
                continue
            c = mul(c, inv)
            if q is not None:
                q[len(a) - n] = c
            for i, y in enumerate(low, len(a) - n):
                a[i] = sub(a[i], mul(c, y))
    else:
        # entries of a are reduced when they become a quotient coefficient
        # or the remainder, not after each update
        m = R.m or R.p
        while len(a) > n:
            c = a.pop() * inv
            if m:
                c %= m
            if not c:
                continue
            if q is not None:
                q[len(a) - n] = c
            for i, y in enumerate(low, len(a) - n):
                a[i] -= c * y
    return _reduced(R, a)


def up_divmod(R, a, b):
    """(q, r) with a = q*b + r and deg r < deg b."""
    q = [R.zero()] * max(0, len(a) - len(b) + 1)
    r = _divide(R, list(a), b, q)
    return up_trim(R, q), r


def up_mod(R, a, b):
    """The remainder of a by b; the quotient is not built."""
    return _divide(R, list(a), b, None)


def up_gcd(R, a, b):
    """Monic gcd over a field (the zero polynomial if a = b = 0)."""
    while b:
        a, b = b, up_mod(R, a, b)
    if a:
        a = up_scale(R, a, R.inv(a[-1]))
    return a


def up_powmod(R, a, n: int, mod):
    result = (R.one(),)
    a = up_mod(R, a, mod)
    while n:
        if n & 1:
            result = up_mod(R, up_mul(R, result, a), mod)
        n >>= 1
        if n:
            a = up_mod(R, up_mul(R, a, a), mod)
    return result


def up_is_squarefree(R, f) -> bool:
    deriv = up_trim(R, [R.mul_int(f[i], i) for i in range(1, len(f))])
    return bool(deriv) and up_gcd(R, f, deriv) == (R.one(),)


def up_is_irreducible(R, f) -> bool:
    """Irreducibility over the finite field R with q = p^k elements, by
    Ben-Or's test (Ben-Or 1981; Gao and Panario, "Tests and constructions
    of irreducible polynomials over finite fields", 1997): f of degree n
    is irreducible iff gcd(x^(q^d) - x, f) = 1 for d = 1..n/2.  A
    reducible f, squares included, has an irreducible factor of degree
    d <= n/2, which divides the gcd at rung d, so the test stops there.
    Each rung x^(q^d) mod f is one q-th power of the one before."""
    n = len(f) - 1
    if n <= 0:
        return False
    q = R.p ** (R.k or 1)
    x = (R.zero(), R.one())
    one = (R.one(),)
    h = x                               # h = x^(q^d) mod f at rung d
    for _ in range(n // 2):
        h = up_powmod(R, h, q, f)
        if up_gcd(R, up_sub(R, h, x), f) != one:
            return False
    return True


def _binomials_reducible(p: int, k: int) -> bool:
    """True when no x^k + c is irreducible over GF(p), k >= 2.  By Capelli
    (Lidl-Niederreiter, Thm 3.75) x^k - a irreducible needs every prime
    r | k to divide ord(a), hence p - 1, and p = 1 mod 4 when 4 | k."""
    return (any((p - 1) % r for r in factorize(k))
            or (k % 4 == 0 and p % 4 == 3))


def find_irreducible(p: int, k: int) -> Tuple[int, ...]:
    """First monic irreducible of degree k over GF(p), scanning coefficient
    vectors (c_0, ..., c_{k-1}) in ascending lexicographic order, c_0
    fastest.  The p binomials x^k + c come first; they are skipped when
    all of them are reducible, so the result is the same.  RingError when
    none is among the first MAX_MODULUS_CANDIDATES tested."""
    if k == 1:
        return (0, 1)
    F = CoefficientRing.GF(p)
    coeffs = [0] * k
    if _binomials_reducible(p, k):
        coeffs[1] = 1
    for _ in range(MAX_MODULUS_CANDIDATES):
        f = tuple(coeffs) + (1,)
        if up_is_irreducible(F, f):
            return f
        i = 0
        while i < k and coeffs[i] == p - 1:
            coeffs[i] = 0
            i += 1
        if i == k:
            break
        coeffs[i] += 1
    raise RingError(f"GF({p}^{k}): no irreducible modulus among the first "
                    f"{MAX_MODULUS_CANDIDATES} candidates tested (the cap)")


# ---------------------------------------------------------------------------
# rings


class CoefficientRing:
    """One of ZZ, QQ, ZZ/p^e, GF(p), GF(p^k).

    kind is "ZZ", "QQ", "Zmod", "GF" or "GFext".  A GF(p^k) ring keeps its
    prime field GF(p) as prime_field.
    """

    __slots__ = ("kind", "p", "e", "k", "modulus", "m", "prime_field")

    def __init__(self, kind, p=None, e=None, k=None, modulus=None):
        self.kind = kind
        self.p = p
        self.e = e
        self.k = k
        self.modulus = modulus
        self.m = p ** e if kind == "Zmod" else None
        self.prime_field = (CoefficientRing("GF", p=p, e=1, k=1)
                            if kind == "GFext" else None)

    # -- constructors

    @staticmethod
    def ZZ() -> "CoefficientRing":
        return CoefficientRing("ZZ")

    @staticmethod
    def QQ() -> "CoefficientRing":
        return CoefficientRing("QQ")

    @staticmethod
    def Zmod(p: int, e: int) -> "CoefficientRing":
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        if e < 1:
            raise RingError("exponent must be >= 1")
        if e == 1:
            return CoefficientRing.GF(p)
        return CoefficientRing("Zmod", p=p, e=e)

    @staticmethod
    def GF(p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise RingError(f"{p} is not prime")
        if k > MAX_FIELD_DEGREE:
            raise RingError(f"GF({p}^{k}): degree {k} exceeds the cap "
                            f"{MAX_FIELD_DEGREE}")
        F = CoefficientRing("GF", p=p, e=1, k=1)
        if k == 1:
            return F
        if k * p.bit_length() > MAX_FIELD_BITS:
            raise RingError(f"GF({p}^{k}): size k*bits(p) = "
                            f"{k * p.bit_length()} exceeds the cap "
                            f"{MAX_FIELD_BITS}")
        if modulus is None:
            modulus = find_irreducible(p, k)
        modulus = up(F, modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise RingError("modulus must be monic of degree k")
        if not up_is_irreducible(F, modulus):
            raise RingError("modulus is not irreducible over GF(p)")
        return CoefficientRing("GFext", p=p, e=1, k=k, modulus=modulus)

    # -- structure

    def is_field(self) -> bool:
        return self.kind in ("QQ", "GF", "GFext")

    def __eq__(self, other):
        return (isinstance(other, CoefficientRing)
                and self.kind == other.kind and self.p == other.p
                and self.e == other.e and self.k == other.k
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.p, self.e, self.k, self.modulus))

    def __repr__(self):
        if self.kind in ("ZZ", "QQ"):
            return self.kind
        if self.kind == "Zmod":
            return f"ZZ/{self.p}^{self.e}"
        if self.kind == "GF":
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    # -- element operations

    def coerce(self, x):
        if self.kind == "ZZ":
            return int(x)
        if self.kind == "QQ":
            return Fraction(x)
        if self.kind in ("Zmod", "GF"):
            mod = self.m if self.kind == "Zmod" else self.p
            return int(x) % mod
        return up(self.prime_field, x if isinstance(x, tuple) else (x,))

    def zero(self):
        if self.kind == "QQ":
            return Fraction(0)
        return () if self.kind == "GFext" else 0

    def one(self):
        if self.kind == "QQ":
            return Fraction(1)
        return (1,) if self.kind == "GFext" else 1

    def is_zero(self, a) -> bool:
        return not a

    def add(self, a, b):
        if self.kind == "ZZ" or self.kind == "QQ":
            return a + b
        if self.kind == "GFext":
            return up_add(self.prime_field, a, b)
        return (a + b) % (self.m or self.p)

    def sub(self, a, b):
        if self.kind == "ZZ" or self.kind == "QQ":
            return a - b
        if self.kind == "GFext":
            return up_sub(self.prime_field, a, b)
        return (a - b) % (self.m or self.p)

    def neg(self, a):
        if self.kind == "ZZ" or self.kind == "QQ":
            return -a
        if self.kind == "GFext":
            return up_sub(self.prime_field, (), a)
        return (-a) % (self.m or self.p)

    def mul(self, a, b):
        if self.kind == "ZZ" or self.kind == "QQ":
            return a * b
        if self.kind == "GFext":
            F = self.prime_field
            return up_mod(F, up_mul(F, a, b), self.modulus)
        return (a * b) % (self.m or self.p)

    def mul_int(self, a, n: int):
        return self.mul(a, self.coerce(n))

    def is_unit(self, a) -> bool:
        if self.is_zero(a):
            return False
        if self.kind == "ZZ":
            return a in (1, -1)
        if self.kind == "Zmod":
            return a % self.p != 0
        return True

    def inv(self, a):
        if not self.is_unit(a):
            raise RingError(f"{a!r} is not a unit in {self!r}")
        if self.kind == "ZZ":
            return a
        if self.kind == "QQ":
            return Fraction(1) / a      # a Fraction also when a is an int
        if self.kind in ("Zmod", "GF"):
            return pow(a, -1, self.m or self.p)
        # extended euclid in GF(p)[t]
        F = self.prime_field
        r0, r1 = self.modulus, a
        s0, s1 = (), (1,)
        while r1:
            q, r = up_divmod(F, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, up_sub(F, s0, up_mul(F, q, s1))
        return up_mod(F, up_scale(F, s0, F.inv(r0[-1])), self.modulus)

    def unit_val(self, a):
        """Split a nonzero element as unit * p^v (ZZ: sign * |a|, v unused).

        Returns (v, u) with a = u * p^v for chain rings; for ZZ returns
        (0, sign); for fields (0, a).
        """
        if self.is_zero(a):
            raise RingError("zero has no unit part")
        if self.kind == "ZZ":
            return 0, (1 if a > 0 else -1)
        if self.kind == "Zmod":
            v = 0
            b = a
            while b % self.p == 0:
                b //= self.p
                v += 1
            return v, b % self.m
        return 0, a

    def divides(self, a, b) -> bool:
        """Whether a divides b exactly (a nonzero)."""
        if self.is_field():
            return not self.is_zero(a)
        if self.kind == "ZZ":
            return b % a == 0
        va, _ = self.unit_val(a)
        if self.is_zero(b):
            return True
        vb, _ = self.unit_val(b)
        return va <= vb

    def exact_div(self, b, a):
        """b / a, assuming divides(a, b)."""
        if self.is_field():
            return self.mul(b, self.inv(a))
        if self.kind == "ZZ":
            q, r = divmod(b, a)
            if r:
                raise RingError(f"{a} does not divide {b}")
            return q
        va, ua = self.unit_val(a)
        if self.is_zero(b):
            return 0
        return (b // self.p ** va) * pow(ua, -1, self.m) % self.m

    def element_repr(self, a) -> str:
        if self.kind != "GFext":
            return str(a)
        if not a:
            return "0"
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*g" if c != 1 else "g")
            else:
                parts.append(f"{c}*g^{i}" if c != 1 else f"g^{i}")
        return "(" + " + ".join(parts) + ")"


ZZ = CoefficientRing.ZZ()
QQ = CoefficientRing.QQ()
