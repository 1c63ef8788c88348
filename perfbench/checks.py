"""Checkers for the CLI outputs, on arithmetic of the benchmark's own.

Nothing here calls bsdkit.  Each checker takes the parsed JSON output of one
job and the job's expectation, and returns a list of problems (empty when the
output is right).  The closed forms and their derivations are in README.md.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, prod

# primes for the modular discriminant comparison (all > 2^60)
CHECK_PRIMES = (2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1)
REL_TOL = 1e-9


def v2(k):
    """Exponent of 2 in k > 0."""
    n = 0
    while k % 2 == 0:
        k //= 2
        n += 1
    return n


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# vanishing orders


def expected_order(expect):
    """ord_D(2^a z^b (x+y)^c) = (a+b)*2^v2(k) + c; truncated at r."""
    m = 2 ** v2(expect["k"])
    order = (expect["a"] + expect["b"]) * m + expect["c"]
    r = expect["r"]
    if order < r:
        return {"order": order, "exact": True}
    return {"order": r, "exact": False}


def check_vanishing(out, expect):
    want = expected_order(expect)
    if out != want:
        return [f"expected {want}, got {out}"]
    return []


# ---------------------------------------------------------------------------
# periods


def _det2(rows):
    (a, b), (c, d) = rows
    return a * d - b * c


def exact_covolumes(matrix_doc):
    """P_I = |det(2 Re rows_I)| for the 2g x g matrix, g = 2, exactly."""
    g = matrix_doc["genus"]
    if g != 2:
        raise ValueError("the reference covolumes are written for genus 2")
    re = [[2 * Fraction(x) for x, _ in row]
          for row in matrix_doc["period_matrix"]]
    return [(list(I), abs(_det2([re[i] for i in I])))
            for I in itertools.combinations(range(2 * g), g)]


def rational_generator(values):
    """Positive generator of the subgroup of QQ spanned by the values."""
    nonzero = [Fraction(v) for v in values if v]
    den = 1
    for v in nonzero:
        den = den * v.denominator // gcd(den, v.denominator)
    num = 0
    for v in nonzero:
        num = gcd(num, int(v * den))
    return Fraction(num, den)


def check_period(out, expect, base_matrix):
    """W_p closed form, P_I and P scaled by 2^(g t), Omega unchanged."""
    problems = []
    g = expect["genus"]
    t = expect["t"]
    if out.get("W") != expect["W"]:
        problems.append(f"W: expected {expect['W']}, got {out.get('W')}")
    W = prod((Fraction(w) for w in expect["W"].values()), start=Fraction(1))
    if out.get("W_total") != str(W):
        problems.append(f"W_total: expected {W}, got {out.get('W_total')}")
    m_real = base_matrix["real_components"]
    if out.get("m_real") != m_real:
        problems.append(f"m_real: expected {m_real}")
    scale = Fraction(2) ** (g * t)
    covs = [(I, v * scale) for I, v in exact_covolumes(base_matrix)]
    got = out.get("P_I", [])
    if [c["rows"] for c in got] != [I for I, _ in covs]:
        problems.append("P_I: wrong row subsets")
    else:
        for c, (I, v) in zip(got, covs):
            if not _close(float(c["value"]), float(v)):
                problems.append(f"P_I{I}: expected {float(v)}, "
                                f"got {c['value']}")
    P = rational_generator([v for _, v in covs])
    if not _close(float(out.get("P", "nan")), float(P)):
        problems.append(f"P: expected {float(P)}, got {out.get('P')}")
    w = out.get("witness", [])
    if len(w) != len(covs) or \
            abs(sum(wi * v for wi, (_, v) in zip(w, covs))) != P:
        problems.append("witness does not combine the P_I to P")
    omega_base = m_real * rational_generator(
        [v for _, v in exact_covolumes(base_matrix)])
    if not _close(float(out.get("omega", "nan")), float(omega_base)):
        problems.append(f"omega: expected {float(omega_base)} (the "
                        f"unscaled basis), got {out.get('omega')}")
    return problems


# ---------------------------------------------------------------------------
# component groups


def spanning_tree_group(expect):
    """|Phi| and its invariant factors from the dual graph.

    I_n: ZZ/n.  Theta graph with chains a, b, c: order ab + bc + ca (the
    spanning-tree count) and invariant factors (e, N/e), e = gcd(a, b, c).
    """
    if expect["shape"] == "cycle":
        n = expect["params"][0]
        return n, [n]
    a, b, c = expect["params"]
    N = a * b + b * c + c * a
    e = gcd(gcd(a, b), c)
    return N, ([e, N // e] if e > 1 else [N])


def check_tamagawa(out, expect):
    problems = []
    order, factors = spanning_tree_group(expect)
    if out.get("invariant_factors") != factors:
        problems.append(f"invariant factors: expected {factors}, got "
                        f"{out.get('invariant_factors')}")
    want_cp = order if expect["frob"] == "trivial" else expect.get("c_p")
    if want_cp is None:
        problems.append("no reference c_p for a non-trivial Frobenius")
    elif out.get("c_p") != want_cp:
        problems.append(f"c_p: expected {want_cp}, got {out.get('c_p')}")
    return problems


# ---------------------------------------------------------------------------
# univariate polynomials (coefficient lists, lowest degree first)


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mod_monic_int(a, f):
    """a mod f over ZZ for monic f."""
    a = list(a)
    n = len(f) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            for j in range(n + 1):
                a[i - n + j] -= c * f[j]
    return _trim(a[:n])


def _mul_int(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def witness_vanishes(g, w, f):
    """Whether g(w) = 0 in QQ[x]/(f), for monic integer f.

    With w = W/D (W integral), evaluates sum g_i W^i D^(deg g - i) modulo
    f in ZZ[x] by Horner's rule; it is zero exactly when g(w) is.
    """
    D = 1
    for c in w:
        D = D * c.denominator // gcd(D, c.denominator)
    W = _trim([int(c * D) for c in w])
    d = len(g) - 1
    acc = [g[d]]
    for i in range(d - 1, -1, -1):
        acc = _mod_monic_int(_mul_int(acc, W), f)
        if not acc:
            acc = [0]
        acc[0] += g[i] * D ** (d - i)
        acc = _trim(acc)
    return not acc


def _fp(a, p):
    return _trim([c % p for c in a])


def _fp_divmod(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _trim(q), _trim(a[:len(b) - 1])


def _fp_mulmod(a, b, f, p):
    return _fp_divmod(_fp(_mul_int(a, b), p), f, p)[1]


def _fp_gcd(a, b, p):
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _fp_frobenius_powers(f, p, upto):
    """[x^(p^i) mod f for i = 0..upto] over GF(p)."""
    x = _fp_divmod([0, 1], f, p)[1]
    out = [x]
    cur = x
    for _ in range(upto):
        r, base, e = [1], cur, p
        while e:
            if e & 1:
                r = _fp_mulmod(r, base, f, p)
            base = _fp_mulmod(base, base, f, p)
            e >>= 1
        cur = r
        out.append(cur)
    return out


def irreducible_mod_p(f, p):
    """Rabin's test for f over GF(p); f must stay of full degree mod p."""
    fb = _fp(f, p)
    n = len(f) - 1
    if len(fb) != n + 1 or n < 1:
        return False
    if n == 1:
        return True
    pw = _fp_frobenius_powers(fb, p, n)
    x = _fp_divmod([0, 1], fb, p)[1]
    if pw[n] != x:
        return False
    for q in prime_factors(n):
        h = pw[n // q]
        diff = _fp([a - b for a, b in itertools.zip_longest(
            h, x, fillvalue=0)], p)
        if len(_fp_gcd(fb, diff, p)) != 1:
            return False
    return True


def _fp_resultant(a, b, p):
    a, b = _fp(a, p), _fp(b, p)
    res = 1
    while True:
        if not a or not b:
            return 0
        da, db = len(a) - 1, len(b) - 1
        if db == 0:
            return res * pow(b[0], da, p) % p
        r = _fp_divmod(a, b, p)[1]
        if not r:
            return 0
        sign = -1 if (da * db) % 2 else 1
        res = res * sign * pow(b[-1], da - (len(r) - 1), p) % p
        a, b = b, r


def discriminant_residues(f):
    """disc(f) mod each CHECK_PRIME, for monic integer f."""
    n = len(f) - 1
    df = [i * c for i, c in enumerate(f)][1:]
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return [sign * _fp_resultant(f, df, q) % q for q in CHECK_PRIMES]


def abs_disc_matches(value, f):
    """Whether |disc(f)| = value, compared modulo the CHECK_PRIMES."""
    res = discriminant_residues(f)
    return any(all((s * value - r) % q == 0
                   for r, q in zip(res, CHECK_PRIMES)) for s in (1, -1))


def check_tower(out, expect):
    problems = []
    p = expect["p"]
    n = prod(expect["ells"])
    if out.get("degree") != n:
        return [f"degree: expected {n}, got {out.get('degree')}"]
    f = out.get("defining_poly", [])
    if len(f) != n + 1 or f[-1] != 1:
        return ["defining polynomial is not monic of the tower degree"]
    if not irreducible_mod_p(f, p):
        problems.append(f"defining polynomial is reducible mod {p}")
    reg = out.get("registry", {})
    if sorted(reg, key=int) != [str(d) for d in divisors(n)]:
        problems.append(f"registry keys {sorted(reg, key=int)} are not "
                        f"the divisors of {n}")
    for key, entry in reg.items():
        g = entry["defining_poly"]
        if len(g) != int(key) + 1 or g[-1] != 1:
            problems.append(f"subfield {key}: not monic of degree {key}")
            continue
        if not irreducible_mod_p(g, p):
            problems.append(f"subfield {key}: reducible mod {p}")
        w = [Fraction(c) for c in entry["embedding"]]
        if not witness_vanishes(g, w, f):
            problems.append(f"subfield {key}: embedding witness fails")
    if expect["iters"]:
        h = out.get("optimised_poly", [])
        if len(h) != n + 1 or h[-1] != 1 or \
                any((a - b) % p for a, b in zip(h, f)):
            problems.append("descent result is not congruent to the "
                            f"defining polynomial mod {p}")
        before = int(out.get("disc_before", "0"))
        after = int(out.get("disc_after", "0"))
        if not abs_disc_matches(before, f):
            problems.append("disc_before is not |disc| of the defining "
                            "polynomial")
        if not abs_disc_matches(after, h):
            problems.append("disc_after is not |disc| of the result")
        if not 0 < after <= before:
            problems.append(f"descent is not non-increasing: {before} -> "
                            f"{after}")
    return problems


def check_output(kind, stdout, expect, base_matrix=None):
    """Problems with one job's stdout (one JSON document)."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    if kind == "vanishing":
        return check_vanishing(out, expect)
    if kind == "period":
        return check_period(out, expect, base_matrix)
    if kind == "tamagawa":
        return check_tamagawa(out, expect)
    if kind == "tower":
        return check_tower(out, expect)
    raise ValueError(f"unknown checker {kind!r}")
