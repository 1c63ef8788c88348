"""Command-line front end.

Commands: tamagawa, vanishing-order, period, gb, extend-field.
Exit codes: 0 success (stdout is exactly one JSON document), 2 malformed
input (schema/parse/reference errors), 3 mathematical validation failure.
Diagnostics go to stderr.  BSDKIT_GB_BUDGET (an integer >= 1) overrides
the Groebner pair budget for one main() call.  The argument parser is
built once per process, on the first main() call, and holds no state
between calls: each parse_args makes a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import groebner
from .compgroup import FibreError, component_group, fixed_point_count
from .fieldtower import (FieldTower, FieldTowerError, extend_inert,
                         optimise_discriminant)
from .groebner import GroebnerError, Ideal
from .modelfile import (ModelMathError, SchemaError, component_locus,
                        load_matrix_file, load_model, parse_fibre,
                        parse_prime_model, parse_period_matrix)
from .periods import (DEFAULT_TOL, PeriodError, RepeatedPrimeError,
                      period_pipeline)
from .poly import MonomialOrder, ParseError, parse_polynomial
from .rings import CoefficientRing, RingError, ZZ, is_prime
from .vanishing import (VanishingError, _truncated_order,
                        vanishing_order_truncated)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_MATH = 3


class CliSchemaError(ValueError):
    pass


def _emit(obj) -> int:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _apply_gb_budget():
    """Set the pair budget from BSDKIT_GB_BUDGET; main() restores it."""
    raw = os.environ.get("BSDKIT_GB_BUDGET")
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            raise CliSchemaError(
                f"BSDKIT_GB_BUDGET must be an integer, got {raw!r}")
        if budget < 1:
            raise CliSchemaError(
                f"BSDKIT_GB_BUDGET must be at least 1, got {budget}")
        groebner.DEFAULT_MAX_PAIRS = budget


# ---------------------------------------------------------------------------
# commands


def cmd_tamagawa(args) -> int:
    doc = load_model(args.model)
    if args.p is not None and args.p != doc["p"]:
        raise CliSchemaError(f"--p {args.p} does not match the model file "
                             f"(p = {doc['p']})")
    G = component_group(parse_fibre(doc))
    return _emit({"c_p": fixed_point_count(G),
                  "invariant_factors": G.invariant_factors})


def cmd_vanishing_order(args) -> int:
    for flag, value in (("--budget", args.budget),
                        ("--truncate", args.truncate)):
        if value is not None and value < 1:
            raise CliSchemaError(f"{flag} must be at least 1, got {value}")
    doc = load_model(args.model)
    locus = component_locus(doc, args.component)
    try:
        f = parse_polynomial(args.function, ZZ, locus.I.variables)
    except ParseError as exc:
        raise CliSchemaError(f"cannot parse --function: {exc}")
    if args.truncate is not None:
        m = next(c["multiplicity"] for c in doc["special_fibre"]["components"]
                 if c["id"] == args.component)
        res = vanishing_order_truncated(f, locus, r=args.truncate, m=m,
                                        mode=args.mode)
    else:
        res = _truncated_order(f, locus, args.budget, args.mode)
    return _emit({"order": res.order, "exact": res.exact})


def cmd_period(args) -> int:
    if not 0 <= args.tol < 1:          # false for nan too
        raise CliSchemaError(f"--tol must be a finite number with "
                             f"0 <= tol < 1, got {args.tol!r}")
    matrix_doc = load_matrix_file(args.matrix_file)
    matrix = parse_period_matrix(matrix_doc)
    # read by period_pipeline after it finds the lattice generator
    models = (parse_prime_model(load_model(path)) for path in args.models)
    res = period_pipeline(matrix, models, matrix_doc["real_components"],
                          tol=args.tol)
    return _emit({
        "P_I": [{"rows": list(I), "value": repr(v)}
                for I, v in res.covolumes],
        "P": repr(res.P),
        "witness": res.witness,
        "W": {str(p): str(r.W_p) for p, r in res.per_prime.items()},
        "W_total": str(res.W),
        "m_real": res.m_real,
        "omega": repr(res.omega),
        "precision": repr(args.tol),
    })


def _integer_root(m: int, e: int) -> int:
    """The largest r with r**e <= m, for m >= 1 (Newton from above)."""
    r = 1 << -(-m.bit_length() // e)
    while True:
        s = ((e - 1) * r + m // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _parse_ring(spec: str) -> CoefficientRing:
    s = spec.strip().replace(" ", "")

    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise CliSchemaError(f"ring spec {spec!r}: {text!r} is not "
                                 "an integer") from None

    if s in ("ZZ", "Z"):
        return ZZ
    if s.startswith("Z/"):
        body = s[2:]
        if "^" in body:
            p_str, e_str = body.split("^", 1)
            p, e = number(p_str), number(e_str)
        else:
            m = number(body)
            roots = ((_integer_root(m, e), e)
                     for e in range(1, max(m, 0).bit_length() + 1))
            p, e = next(((r, e) for r, e in roots
                         if r ** e == m and is_prime(r)), (None, None))
            if p is None:
                raise CliSchemaError(
                    f"ring spec {spec!r} is not a prime power")
        return CoefficientRing.Zmod(p, e)
    if s.startswith("GF(") and s.endswith(")"):
        body = s[3:-1]
        if "^" in body:
            p_str, k_str = body.split("^", 1)
            return CoefficientRing.GF(number(p_str), number(k_str))
        return CoefficientRing.GF(number(body))
    raise CliSchemaError(f"unknown ring spec {spec!r} "
                         "(use ZZ, Z/p^e, or GF(p^k))")


def cmd_gb(args) -> int:
    try:
        ring = _parse_ring(args.ring)
    except RingError as exc:
        raise CliSchemaError(str(exc))
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not variables:
        raise CliSchemaError("--vars must name at least one variable")
    if args.order == "grevlex":
        order = MonomialOrder.grevlex()
    elif args.order == "lex":
        order = MonomialOrder.lex()
    else:
        raise CliSchemaError(f"unknown order {args.order!r}")
    gens = []
    for text in args.generators:
        try:
            gens.append(parse_polynomial(text, ring, variables, order))
        except ParseError as exc:
            raise CliSchemaError(f"cannot parse generator {text!r}: {exc}")
    if not gens:
        raise CliSchemaError("at least one generator is required")
    basis = Ideal(gens, order=order).groebner_basis()
    return _emit({"basis": [str(g) for g in basis],
                  "size": len(basis)})


def cmd_extend_field(args) -> int:
    if args.iters < 0:
        raise CliSchemaError(f"--iters must be at least 0, got {args.iters}")
    try:
        ells = [int(x) for x in args.ell.split(",") if x.strip()]
    except ValueError:
        raise CliSchemaError(f"--ell must list integers, got "
                             f"{args.ell!r}") from None
    if not ells:
        raise CliSchemaError("--ell must list at least one prime")
    tower = FieldTower(args.p, seed=args.seed)
    node = tower.base_node()
    for ell in ells:
        node = extend_inert(node, ell, args.p)
    registry = {}
    for d, (sub, w) in sorted(node.registry().items()):
        registry[str(d)] = {
            "defining_poly": list(sub.defining_poly),
            "embedding": [str(c) for c in w],
        }
    out = {
        "degree": node.degree,
        "defining_poly": list(node.defining_poly),
        "registry": registry,
    }
    if args.iters:
        descent = optimise_discriminant(node.defining_poly, args.p,
                                        iterations=args.iters,
                                        seed=args.seed)
        out["optimised_poly"] = list(descent.poly)
        out["disc_before"] = str(descent.trace[0])
        out["disc_after"] = str(descent.trace[-1])
    return _emit(out)


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bsdkit",
        description="Tamagawa numbers and real periods from "
                    "combinatorial regular-model data")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tamagawa", help="component group and c_p")
    t.add_argument("model", help="model JSON file")
    t.add_argument("--p", type=int, default=None,
                   help="expected prime (checked against the file)")
    t.set_defaults(func=cmd_tamagawa)

    v = sub.add_parser("vanishing-order",
                       help="order of vanishing on a fibre component",
                       description="An f in the curve's ideal J exits 3.")
    v.add_argument("model")
    v.add_argument("--component", required=True)
    v.add_argument("--function", required=True)
    v.add_argument("--mode", choices=["direct", "modified"],
                   default="modified")
    v.add_argument("--truncate", type=int, default=None, metavar="R",
                   help="threshold as --budget, from Z/p^(floor(R/m)+1) "
                        "with the file's m (too large an m can be wrong)")
    v.add_argument("--budget", type=int, default=64,
                   help="threshold: an order below it is exact, else it is "
                        "printed with exact false; m computed over Z/p^e")
    v.set_defaults(func=cmd_vanishing_order)

    p = sub.add_parser("period", help="real period pipeline")
    p.add_argument("models", nargs="+",
                   help="per-prime model JSON files")
    p.add_argument("--matrix-file", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_period)

    g = sub.add_parser("gb", help="reduced (strong) Groebner basis")
    g.add_argument("generators", nargs="+")
    g.add_argument("--ring", default="ZZ",
                   help="ZZ, Z/p^e, or GF(p^k)")
    g.add_argument("--order", default="grevlex",
                   choices=["grevlex", "lex"])
    g.add_argument("--vars", required=True,
                   help="comma-separated variable names")
    g.set_defaults(func=cmd_gb)

    e = sub.add_parser("extend-field",
                       help="inert tower with the subfield property")
    e.add_argument("--ell", required=True,
                   help="comma-separated primes, applied in order")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--iters", type=int, default=0,
                   help="discriminant descent iterations")
    e.set_defaults(func=cmd_extend_field)
    return ap


SCHEMA_ERRORS = (SchemaError, CliSchemaError, ParseError, RepeatedPrimeError)
MATH_ERRORS = (ModelMathError, FibreError, VanishingError, GroebnerError,
               PeriodError, FieldTowerError, RingError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    max_pairs = groebner.DEFAULT_MAX_PAIRS
    try:
        _apply_gb_budget()
        return args.func(args)
    except SCHEMA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    finally:
        # the override holds for this call only
        groebner.DEFAULT_MAX_PAIRS = max_pairs


if __name__ == "__main__":
    sys.exit(main())
