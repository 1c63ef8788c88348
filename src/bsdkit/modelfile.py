"""JSON model files: shape checks and conversion to domain objects.

One file describes one prime's regular-model data: patches with their
equations, the combinatorial special fibre, per-component charts with
sample points, the differential basis, and optionally the period matrix
and the number of real components.  Reals and complexes are carried as
decimal strings to keep files implementation-independent.

Each file kind has one shape literal (``MODEL_SHAPE``, ``MATRIX_SHAPE``),
and loading checks the document against it with the standard library only:
the first value off its shape raises ``SchemaError`` naming its JSON path,
e.g. ``model file F.special_fibre.components[3].multiplicity must be an
integer >= 1``.  The parsers then check cross-references between blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .compgroup import Component, SpecialFibre
from .groebner import Ideal
from .periods import (BigPeriodMatrix, ComponentChart, DifferentialRep,
                      PrimeModel, SamplePoint)
from .poly import ParseError, Polynomial, parse_polynomial
from .rings import ZZ, CoefficientRing
from .vanishing import ComponentLocus, VanishingError


class SchemaError(ValueError):
    """Malformed input file: wrong shape, unknown reference, parse error."""


class ModelMathError(ValueError):
    """Well-formed input that fails a mathematical validation."""


# A shape is what the check below accepts:
#   str, int            a JSON string, integer (never a bool or a float)
#   n (an int)          an integer >= n
#   {"a", "b"}          one of these strings
#   [s], [s, lo, hi]    a list of s, with lo..hi items if given
#   (s, [t])            s, or a list of t if the value is a list
#   {str: s}            an object mapping any key to s
#   {"k": s, "o?": t}   an object with key k, optional key o, no other keys
_PERIOD_MATRIX = [[[str, 2, 2]]]

MODEL_SHAPE = {
    "p": 2,
    "genus?": 1,
    "patches?": [{"id": str, "variables": [str, 1], "equations": [str]}],
    "special_fibre": {
        "components": [{"id": str, "patch?": str, "prime_ideal?": [str],
                        "multiplicity": 1}, 1],
        "intersections": [[int]],
        "frobenius": {str: str},
    },
    "charts?": [{
        "component": str,
        "generator_numerator": str,
        "generator_denominator": str,
        "sample_points?": [{"field_degree?": 1, "modulus?": [int],
                            "coords": {str: (int, [int])}}],
    }],
    "differentials?": [{"patch": str, "numerator": str, "denominator": str,
                        "base?": {"dx", "dy", "dz"}}],
    "period_matrix?": _PERIOD_MATRIX,
    "real_components?": 1,
}

MATRIX_SHAPE = {"genus": 1, "period_matrix": _PERIOD_MATRIX,
                "real_components": 1}


def _check(value, shape, where: str) -> None:
    """SchemaError naming the JSON path of the first value off its shape."""
    if isinstance(shape, tuple):
        shape = shape[type(value) is list]
    if shape is str:
        if type(value) is not str:
            raise SchemaError(f"{where} must be a string")
    elif shape is int or type(shape) is int:
        if type(value) is not int or shape is not int and value < shape:
            bound = "" if shape is int else f" >= {shape}"
            raise SchemaError(f"{where} must be an integer{bound}")
    elif isinstance(shape, set):
        if type(value) is not str or value not in shape:
            raise SchemaError(f"{where} must be one of "
                              f"{', '.join(sorted(shape))}")
    elif isinstance(shape, list):
        item, lo, hi = (shape + [None, None])[:3]
        if type(value) is not list:
            raise SchemaError(f"{where} must be a list")
        if len(value) < (lo or 0) or hi is not None and len(value) > hi:
            length = f">= {lo}" if hi is None else (
                lo if lo == hi else f"{lo}..{hi}")
            raise SchemaError(f"{where} must have length {length}")
        if item in (int, str) and all(type(x) is item for x in value):
            return                      # the common case, without paths
        for i, x in enumerate(value):
            _check(x, item, f"{where}[{i}]")
    elif type(value) is not dict:
        raise SchemaError(f"{where} must be an object")
    elif str in shape:
        for key, x in value.items():
            _check(x, shape[str], f"{where}.{key}")
    else:
        keys = {k.rstrip("?"): k for k in shape}
        for key in value:
            if key not in keys:
                raise SchemaError(f"{where}.{key} is not a known key")
        for key, k in keys.items():
            if key in value:
                _check(value[key], shape[k], f"{where}.{key}")
            elif k == key:
                raise SchemaError(f"{where}.{key} is missing")


def _load(path: str, kind: str, shape) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read {kind} file {path}: {exc}")
    _check(doc, shape, f"{kind} file {path}")
    return doc


def _check_coordinates(doc: dict, where: str) -> None:
    """Each sample-point coordinate fits its field GF(p^k): an integer,
    or for k > 1 a list of at most k coefficients."""
    for i, chart in enumerate(doc.get("charts", [])):
        for j, pt in enumerate(chart.get("sample_points", [])):
            k = pt.get("field_degree", 1)
            for v, raw in pt["coords"].items():
                if type(raw) is list and (k == 1 or len(raw) > k):
                    need = "be an integer" if k == 1 else f"have length <= {k}"
                    raise SchemaError(
                        f"{where}.charts[{i}].sample_points[{j}].coords.{v} "
                        f"must {need} (field_degree {k})")


def load_model(path: str) -> dict:
    doc = _load(path, "model", MODEL_SHAPE)
    _check_coordinates(doc, f"model file {path}")
    return doc


def load_matrix_file(path: str) -> dict:
    return _load(path, "matrix", MATRIX_SHAPE)


@dataclass
class Patch:
    id: str
    variables: Tuple[str, ...]
    equations: List[Polynomial]


def _parse_poly(text: str, variables, where: str) -> Polynomial:
    try:
        return parse_polynomial(text, ZZ, tuple(variables))
    except ParseError as exc:
        raise SchemaError(f"{where}: cannot parse {text!r}: {exc}")


def parse_patches(doc: dict) -> Dict[str, Patch]:
    out: Dict[str, Patch] = {}
    for block in doc.get("patches", []):
        pid = block["id"]
        if pid in out:
            raise SchemaError(f"duplicate patch id {pid!r}")
        variables = tuple(block["variables"])
        if len(set(variables)) != len(variables):
            raise SchemaError(f"patch {pid!r} repeats a variable")
        eqs = [_parse_poly(e, variables, f"patch {pid!r}")
               for e in block["equations"]]
        out[pid] = Patch(pid, variables, eqs)
    return out


def parse_fibre(doc: dict) -> SpecialFibre:
    blk = doc["special_fibre"]
    comps = [Component(c["id"], c["multiplicity"])
             for c in blk["components"]]
    n = len(comps)
    M = blk["intersections"]
    if len(M) != n or any(len(row) != n for row in M):
        raise SchemaError(f"intersection matrix must be {n}x{n}")
    frob = dict(blk["frobenius"])
    ids = {c.id for c in comps}
    if set(frob.keys()) - ids or set(frob.values()) - ids:
        raise SchemaError("frobenius references an unknown component id")
    return SpecialFibre(doc["p"], comps, [list(row) for row in M], frob)


def component_locus(doc: dict, component_id: str,
                    patches: Optional[Dict[str, Patch]] = None
                    ) -> ComponentLocus:
    if patches is None:
        patches = parse_patches(doc)
    blk = doc["special_fibre"]
    comp = next((c for c in blk["components"] if c["id"] == component_id),
                None)
    if comp is None:
        raise SchemaError(f"unknown component id {component_id!r}")
    patch_id = comp.get("patch")
    if patch_id is None or patch_id not in patches:
        raise SchemaError(f"component {component_id!r} references missing "
                          f"patch {patch_id!r}")
    patch = patches[patch_id]
    gens = comp.get("prime_ideal")
    if not gens:
        raise SchemaError(f"component {component_id!r} has no prime_ideal")
    I = Ideal([_parse_poly(g, patch.variables,
                           f"component {component_id!r}") for g in gens])
    if not patch.equations:
        raise SchemaError(f"patch {patch_id!r} has no equations")
    J = Ideal(list(patch.equations))
    try:
        return ComponentLocus(J, I, doc["p"])
    except VanishingError as exc:
        raise ModelMathError(str(exc))


def _point_field(p: int, spec: dict) -> CoefficientRing:
    k = spec.get("field_degree", 1)
    modulus = spec.get("modulus")
    return CoefficientRing.GF(p, k, modulus=modulus)


def parse_prime_model(doc: dict) -> Tuple[PrimeModel,
                                          List[DifferentialRep]]:
    """Charts + differentials for the period pipeline at this prime."""
    if "genus" not in doc:
        raise SchemaError("period pipeline needs a genus field")
    patches = parse_patches(doc)
    fibre = parse_fibre(doc)
    chart_blocks = doc.get("charts", [])
    covered = {c["component"] for c in chart_blocks}
    for comp in fibre.components:
        if comp.id not in covered:
            raise SchemaError(f"missing chart for component {comp.id!r}")
    blk = doc["special_fibre"]
    mult = {c["id"]: c["multiplicity"] for c in blk["components"]}
    patch_of = {c["id"]: c.get("patch") for c in blk["components"]}
    charts: List[ComponentChart] = []
    for c in chart_blocks:
        cid = c["component"]
        if cid not in mult:
            raise SchemaError(f"chart references unknown component {cid!r}")
        locus = component_locus(doc, cid, patches)
        patch = patches[patch_of[cid]]
        num = _parse_poly(c["generator_numerator"], patch.variables,
                          f"chart {cid!r}")
        den = _parse_poly(c["generator_denominator"], patch.variables,
                          f"chart {cid!r}")
        points = []
        for pt in c.get("sample_points", []):
            K = _point_field(doc["p"], pt)
            coords = {}
            for v in patch.variables:
                if v not in pt["coords"]:
                    raise SchemaError(f"sample point in chart {cid!r} "
                                      f"misses variable {v!r}")
                raw = pt["coords"][v]
                coords[v] = K.coerce(tuple(raw)
                                     if isinstance(raw, list) else raw)
            points.append(SamplePoint(coords, K))
        try:
            charts.append(ComponentChart(cid, locus, num, den, points,
                                         multiplicity=mult[cid]))
        except ValueError as exc:
            raise ModelMathError(str(exc))
    # every order is taken on the charts' patch against their dx, so a
    # differential must be written there, on dx
    charted = {patch_of[c["component"]] for c in chart_blocks}
    diffs: List[DifferentialRep] = []
    for d in doc.get("differentials", []):
        pid = d["patch"]
        if pid not in patches:
            raise SchemaError(f"differential references missing patch "
                              f"{pid!r}")
        if charted != {pid}:
            raise SchemaError(
                f"differential on patch {pid!r}, but the charted components "
                f"are on {', '.join(map(repr, sorted(charted)))}")
        if d.get("base", "dx") != "dx":
            raise SchemaError(f"differential base {d['base']!r}: the charts' "
                              "local generators are on dx")
        patch = patches[pid]
        diffs.append(DifferentialRep(
            _parse_poly(d["numerator"], patch.variables, "differential"),
            _parse_poly(d["denominator"], patch.variables, "differential")))
    if len(diffs) != doc["genus"]:
        raise SchemaError(f"expected {doc['genus']} differentials, "
                          f"got {len(diffs)}")
    return PrimeModel(doc["p"], doc["genus"], charts), diffs


def parse_period_matrix(doc: dict) -> BigPeriodMatrix:
    if "period_matrix" not in doc or "genus" not in doc:
        raise SchemaError("matrix file needs genus and period_matrix")
    g = doc["genus"]
    rows = doc["period_matrix"]
    try:
        entries = [[complex(float(re), float(im)) for re, im in row]
                   for row in rows]
    except ValueError as exc:
        raise SchemaError(f"bad period matrix entry: {exc}")
    if len(entries) != 2 * g or any(len(r) != g for r in entries):
        raise SchemaError(f"period matrix must be {2 * g}x{g}")
    return BigPeriodMatrix(g, entries)
