"""Seeded job lists for the four workloads.

A job is one CLI command run in-process through ``bsdkit.cli.main``.  Each
workload is a fixed list of job classes; the seed draws the inputs of each
class (which k, which factorisation of f, which chain lengths, which tower
seed), never the classes themselves, so every seed runs the same make-up.
Each job carries what its checker needs: a closed form or the data for an
independent computation, never a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from checks import v2

WORKLOADS = ("vanishing_deep", "period_adjust", "tamagawa_fibres", "tower")

FIXTURES = os.path.join("tests", "fixtures")
G2_MODEL = os.path.join(FIXTURES, "genus2_p2.json")
G2_MATRIX = os.path.join(FIXTURES, "matrix_g2.json")


class Job:
    """One CLI invocation: argv, the input files it needs, and its check."""

    def __init__(self, cls, argv, kind, expect, files=None):
        self.cls = cls            # job class name, the same for every seed
        self.argv = argv
        self.kind = kind          # which checker reads the output
        self.expect = expect
        self.files = files or {}  # relative path -> JSON document
        self.repeat = 1           # runs per round

    def describe(self):
        return f"{self.cls}: bsdkit {' '.join(self.argv)}"


# ---------------------------------------------------------------------------
# the criterion-2 family: y^k - x^k + 2x + 2 = 0, xz = 2 over ZZ at p = 2


def c2_model(k, differentials=None):
    """Patch (x, y, z) of the criterion-2 family with D0 = V(x + y, z, 2).

    D0 has multiplicity 2^v2(k).  With
    ``differentials`` the file also carries the genus-2 chart of D0 (local
    generator 1, the two GF(2)-points of D0) for the period pipeline.
    """
    doc = {
        "p": 2,
        "genus": 2,
        "patches": [{"id": "U", "variables": ["x", "y", "z"],
                     "equations": [f"y^{k} - x^{k} + 2*x + 2",
                                   "x*z - 2"]}],
        "special_fibre": {
            "components": [{"id": "D0", "patch": "U",
                            "prime_ideal": ["x + y", "z", "2"],
                            "multiplicity": 2 ** v2(k)}],
            "intersections": [[0]],
            "frobenius": {"D0": "D0"},
        },
    }
    if differentials is not None:
        doc["charts"] = [{
            "component": "D0",
            "generator_numerator": "1",
            "generator_denominator": "1",
            "sample_points": [
                {"field_degree": 1, "coords": {"x": 0, "y": 0, "z": 0}},
                {"field_degree": 1, "coords": {"x": 1, "y": 1, "z": 0}},
            ],
        }]
        doc["differentials"] = [
            {"patch": "U", "numerator": num, "denominator": den,
             "base": "dx"} for num, den in differentials]
    return doc


def _power(base, e):
    return "" if e == 0 else base if e == 1 else f"{base}^{e}"


def _draw_function(rng, m, order, c_choices):
    """(a, b, c) with (a + b)*m + c = order, c drawn from c_choices."""
    c = rng.choice([c for c in c_choices if (order - c) % m == 0
                    and order >= c])
    ab = (order - c) // m
    a = rng.randint(0, ab)
    return a, ab - a, c


def _vanishing_job(rng, cls, k, order, ring_exp, c_choices):
    """ord_D(f) = order, run over ZZ/2^ring_exp via --truncate r."""
    m = 2 ** v2(k)
    a, b, c = _draw_function(rng, m, order, c_choices)
    # --truncate r runs over ZZ/2^(floor(r/m)+1); results below r are exact
    r_lo = max((ring_exp - 1) * m, order + 1)
    r_hi = ring_exp * m - 1
    if r_lo > r_hi:
        raise ValueError(f"{cls}: no threshold reaches ZZ/2^{ring_exp}")
    r = rng.randint(r_lo, r_hi)
    factors = [f for f in (_power("2", a), _power("z", b),
                           _power("(x + y)", c)) if f]
    rng.shuffle(factors)
    path = os.path.join("{work}", f"c2_k{k}.json")
    argv = ["vanishing-order", path, "--component", "D0",
            "--function", "*".join(factors), "--truncate", str(r)]
    expect = {"k": k, "a": a, "b": b, "c": c, "r": r}
    return Job(cls, argv, "vanishing", expect,
               {f"c2_k{k}.json": c2_model(k)})


def _smallest_ring(order, m):
    # the least threshold with an exact answer is r = order + 1
    return (order + 1) // m + 1


def vanishing_deep(rng):
    jobs = []
    # the paper's criterion 2: k = 100 over ZZ/2^18, 13 chain steps
    jobs.append(_vanishing_job(rng, "k100_o12_ring18", 100, 12, 18,
                               (0, 4)))
    # k = 100, the same order on the smallest ring truncation allows
    # c = 8 ran about 20% longer than c = 0 or 4 on this ring
    jobs.append(_vanishing_job(rng, "k100_o12_small", 100, 12,
                               _smallest_ring(12, 4), (0, 4)))
    # k is fixed per class, the seed draws f and r: k sets the cost (0.45
    # to 0.85 reference s across k for one class), the draw of f hardly
    # moves it, and a drawn k moved the workload's totals from run to run
    # multiplicity 4 (k = 4 mod 8), order 10, smallest ring
    jobs.append(_vanishing_job(rng, "m4_o10_small", 52, 10,
                               _smallest_ring(10, 4), (2, 6)))
    # multiplicity 8 (k = 8 mod 16), order 16, smallest ring
    jobs.append(_vanishing_job(rng, "m8_o16_small", 24, 16,
                               _smallest_ring(16, 8), (0, 8)))
    # multiplicity 2 (k = 2 mod 4), order 8, smallest ring
    jobs.append(_vanishing_job(rng, "m2_o8_small", 22, 8,
                               _smallest_ring(8, 2), (0, 2)))
    # fixed input, not drawn: f = 4 on the k = 8 model is 0 in the ring
    # ZZ/2^2 that --truncate 9 selects, and ord_D(4) = 16 >= 9
    jobs.append(Job("truncation_fault",
                    ["vanishing-order", os.path.join("{work}", "c2_k8.json"),
                     "--component", "D0", "--function", "4",
                     "--truncate", "9"],
                    "vanishing", {"k": 8, "a": 2, "b": 0, "c": 0, "r": 9},
                    {"c2_k8.json": c2_model(8)}))
    return jobs


# ---------------------------------------------------------------------------
# period adjustment


def _scaled_matrix(matrix_doc, t):
    """The period matrix with every entry times 2^t (exact: dyadic)."""
    scale = Fraction(2) ** t
    out = dict(matrix_doc)
    out["period_matrix"] = [
        [[repr(float(Fraction(re) * scale)), repr(float(Fraction(im) * scale))]
         for re, im in row] for row in matrix_doc["period_matrix"]]
    return out


def _period_job(rng, cls, k, family, s, matrix_doc):
    """Basis family applied to (1, x); the matrix scaled to match.

    family "up": 2^s*(1, x), W_2 = 2^(-2s); "down": 2^(-s)*(1, x),
    W_2 = 2^(2s); "z": z^s*(1, x), W_2 = 2^(-2s).  The matrix is scaled
    by 2^t with W_2 = 2^(-2t), so Omega is that of (1, x).
    """
    basis = [("1", "1"), ("x", "1")]
    rng.shuffle(basis)
    if family == "up":
        diffs = [(f"{2 ** s}*{n}", d) for n, d in basis]
        t = s
    elif family == "down":
        diffs = [(n, f"{2 ** s}") for n, d in basis]
        t = -s
    elif family == "z":
        zs = "z" if s == 1 else f"z^{s}"
        diffs = [(f"{zs}*{n}", d) for n, d in basis]
        t = s
    else:
        diffs = basis
        t = 0
    name = f"pm_{cls}.json"
    mname = f"mx_{cls}.json"
    argv = ["period", os.path.join("{work}", name),
            "--matrix-file", os.path.join("{work}", mname)]
    expect = {"W": {"2": str(Fraction(2) ** (-2 * t))}, "t": t, "genus": 2}
    return Job(cls, argv, "period", expect,
               {name: c2_model(k, differentials=diffs),
                mname: _scaled_matrix(matrix_doc, t)})


def period_adjust(rng, root="."):
    with open(os.path.join(root, G2_MATRIX)) as fh:
        matrix_doc = json.load(fh)
    jobs = [Job("fixture_genus2_p2",
                ["period", os.path.join(root, G2_MODEL),
                 "--matrix-file", os.path.join(root, G2_MATRIX)],
                "period", {"W": {"2": "1"}, "t": 0, "genus": 2})]
    # k is fixed, the seed draws the order of the basis: z_basis, most of a
    # round, runs 10-15% longer at k = 44 than at k = 12-28, and a drawn k
    # moved the workload's totals from run to run
    # k = 4 mod 8 (multiplicity 4)
    for cls, family, s in (("unit_basis", "one", 0), ("scaled_up", "up", 1),
                           ("scaled_down", "down", 2), ("z_basis", "z", 1)):
        jobs.append(_period_job(rng, cls, 28, family, s, matrix_doc))
    # multiplicity 2
    jobs.append(_period_job(rng, "m2_scaled_up", 14, "up", 1, matrix_doc))
    return jobs


# ---------------------------------------------------------------------------
# Tamagawa numbers of fibres with multiplicity-one components


def cycle_edges(n):
    """I_n: n components in a cycle."""
    return [(i, (i + 1) % n) for i in range(n)]


def theta_edges(a, b, c):
    """Components 0 and 1 joined by chains of a, b and c edges."""
    edges, nxt = [], 2
    chains = []
    for length in (a, b, c):
        path = [0] + list(range(nxt, nxt + length - 1)) + [1]
        nxt += length - 1
        chains.append(path)
        edges.extend(zip(path, path[1:]))
    return nxt, edges, chains


def _fibre_doc(n, edges, sigma, p):
    """Intersection matrix of the dual graph, components in graph order.

    The order stays fixed: the cost of the Smith form depends on it by up
    to 50x, so a shuffled order would swamp every other difference between
    runs.
    """
    M = [[0] * n for _ in range(n)]
    for u, v in edges:
        M[u][v] += 1
        M[v][u] += 1
    for i in range(n):
        M[i][i] = -sum(M[i][j] for j in range(n) if j != i)
    ids = [f"C{i}" for i in range(n)]
    return {"p": p, "special_fibre": {
        "components": [{"id": cid, "multiplicity": 1} for cid in ids],
        "intersections": M,
        "frobenius": {ids[i]: ids[sigma[i]] for i in range(n)}}}


def _tamagawa_job(rng, cls, shape, params, frob):
    if shape == "cycle":
        n = params[0]
        edges = cycle_edges(n)
        if frob == "reflect":
            sigma = [(-i) % n for i in range(n)]
        else:
            sigma = list(range(n))
    else:
        a, b, c = params
        n, edges, chains = theta_edges(a, b, c)
        sigma = list(range(n))
        if frob == "swap":
            # a == b: exchange the interior components of the first two
            for u, v in zip(chains[0][1:-1], chains[1][1:-1]):
                sigma[u], sigma[v] = v, u
    p = rng.choice([3, 5, 7, 11])
    name = f"fibre_{cls}.json"
    expect = {"shape": shape, "params": list(params), "frob": frob}
    return Job(cls, ["tamagawa", os.path.join("{work}", name)],
               "tamagawa", expect,
               {name: _fibre_doc(n, edges, sigma, p)})


def _theta_params(rng, n, equal_pair=False):
    """a, b, c >= 2 with a + b + c - 1 = n components."""
    while True:
        a = rng.randint(2, n // 2)
        b = a if equal_pair else rng.randint(2, n // 2)
        c = n + 1 - a - b
        if c >= 2:
            return a, b, c


# The number of components is fixed per class, the seed draws the shape of a
# theta graph and p: the Smith-form cost grows fast with the size, and sizes
# drawn from 46-50 and 24-28 moved the workload's totals from run to run.
SIZES = {"small": 8, "medium": 26, "large": 48}


def tamagawa_fibres(rng):
    jobs = []
    for cls, n in SIZES.items():
        jobs.append(_tamagawa_job(rng, f"cycle_{cls}", "cycle", (n,),
                                  "trivial"))
        jobs.append(_tamagawa_job(rng, f"theta_{cls}", "theta",
                                  _theta_params(rng, n), "trivial"))
    for cls in ("medium", "large"):
        jobs.append(_tamagawa_job(rng, f"cycle_reflect_{cls}", "cycle",
                                  (SIZES[cls],), "reflect"))
    for cls in ("medium", "large"):
        jobs.append(_tamagawa_job(rng, f"theta_swap_{cls}", "theta",
                                  _theta_params(rng, SIZES[cls],
                                                equal_pair=True), "swap"))
    return jobs


# ---------------------------------------------------------------------------
# inert towers


def _tower_job(rng, cls, ells, p, iters):
    seed = rng.randint(0, 10 ** 6)
    argv = ["extend-field", "--ell", ",".join(map(str, ells)),
            "--p", str(p), "--seed", str(seed), "--iters", str(iters)]
    return Job(cls, argv, "tower", {"ells": list(ells), "p": p,
                                    "iters": iters})


def tower(rng):
    jobs = []
    for p in (2, 3, 5):
        for i in range(2):
            ells = [2, 2, 3]
            rng.shuffle(ells)
            jobs.append(_tower_job(rng, f"deg12_p{p}_{i}", ells, p, 50))
        jobs.append(_tower_job(rng, f"deg18_p{p}", rng.choice(
            [[2, 3, 3], [3, 2, 3], [3, 3, 2]]), p, 50))
    for p in (3, 5):
        jobs.append(_tower_job(rng, f"deg20_p{p}", rng.choice(
            [[2, 2, 5], [2, 5, 2], [5, 2, 2]]), p, 50))
    # a degree-24 tower costs 1.8-3.9 s at p = 3 and 0.9-1.3 reference s at
    # p = 2 depending on the tower seed alone, so these keep the CLI's
    # default seed in every run
    for p in (2, 3):
        jobs.append(Job(f"deg24_p{p}_seed0",
                        ["extend-field", "--ell", "2,2,2,3", "--p", str(p),
                         "--iters", "50"],
                        "tower", {"ells": [2, 2, 2, 3], "p": p, "iters": 50}))
    return jobs


# Classes of 0.02-0.05 s jobs run LIGHT_REPEAT times per round: with one
# run per round, two or three samples of a job that short set its median,
# and it weighs as much as any other job in job_geomean_s.
LIGHT = {"truncation_fault", "fixture_genus2_p2", "unit_basis",
         "cycle_small", "theta_small"}
LIGHT_REPEAT = 5


def make_jobs(workload, seed, root="."):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "vanishing_deep":
        jobs = vanishing_deep(rng)
    elif workload == "period_adjust":
        jobs = period_adjust(rng, root)
    elif workload == "tamagawa_fibres":
        jobs = tamagawa_fibres(rng)
    elif workload == "tower":
        jobs = tower(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for job in jobs:
        if job.cls in LIGHT:
            job.repeat = LIGHT_REPEAT
    return jobs


def write_inputs(jobs, work):
    """Write every generated input under work and fill in the argv paths."""
    os.makedirs(work, exist_ok=True)
    for job in jobs:
        for name, doc in job.files.items():
            with open(os.path.join(work, name), "w") as fh:
                json.dump(doc, fh)
        job.argv = [a.replace("{work}", work) for a in job.argv]
