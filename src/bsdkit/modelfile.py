"""JSON model files: schema validation and conversion to domain objects.

One file describes one prime's regular-model data: patches with their
equations, the combinatorial special fibre, per-component charts with
sample points, the differential basis, and optionally the period matrix
and the number of real components.  Reals and complexes are carried as
decimal strings to keep files implementation-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

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


_POINT_SCHEMA = {
    "type": "object",
    "properties": {
        "field_degree": {"type": "integer", "minimum": 1},
        "modulus": {"type": "array", "items": {"type": "integer"}},
        "coords": {
            "type": "object",
            "additionalProperties": {
                "anyOf": [{"type": "integer"},
                          {"type": "array", "items": {"type": "integer"}}]
            },
        },
    },
    "required": ["coords"],
    "additionalProperties": False,
}

MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "p": {"type": "integer", "minimum": 2},
        "genus": {"type": "integer", "minimum": 1},
        "patches": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "id": {"type": "string"},
                    "variables": {"type": "array",
                                  "items": {"type": "string"},
                                  "minItems": 1},
                    "equations": {"type": "array",
                                  "items": {"type": "string"}},
                },
                "required": ["id", "variables", "equations"],
                "additionalProperties": False,
            },
        },
        "special_fibre": {
            "type": "object",
            "properties": {
                "components": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "properties": {
                            "id": {"type": "string"},
                            "patch": {"type": "string"},
                            "prime_ideal": {"type": "array",
                                            "items": {"type": "string"}},
                            "multiplicity": {"type": "integer",
                                             "minimum": 1},
                        },
                        "required": ["id", "multiplicity"],
                        "additionalProperties": False,
                    },
                },
                "intersections": {
                    "type": "array",
                    "items": {"type": "array",
                              "items": {"type": "integer"}},
                },
                "frobenius": {
                    "type": "object",
                    "additionalProperties": {"type": "string"},
                },
            },
            "required": ["components", "intersections", "frobenius"],
            "additionalProperties": False,
        },
        "charts": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "component": {"type": "string"},
                    "generator_numerator": {"type": "string"},
                    "generator_denominator": {"type": "string"},
                    "sample_points": {"type": "array",
                                      "items": _POINT_SCHEMA},
                },
                "required": ["component", "generator_numerator",
                             "generator_denominator"],
                "additionalProperties": False,
            },
        },
        "differentials": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "patch": {"type": "string"},
                    "numerator": {"type": "string"},
                    "denominator": {"type": "string"},
                    "base": {"type": "string",
                             "enum": ["dx", "dy", "dz"]},
                },
                "required": ["patch", "numerator", "denominator"],
                "additionalProperties": False,
            },
        },
        "period_matrix": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "string"},
                    "minItems": 2,
                    "maxItems": 2,
                },
            },
        },
        "real_components": {"type": "integer", "minimum": 1},
    },
    "required": ["p", "special_fibre"],
    "additionalProperties": False,
}


# validators built once: jsonschema.validate checks the schema against its
# metaschema again on every call, at many times the cost of the validation
_MODEL_VALIDATOR = validator_for(MODEL_SCHEMA)(MODEL_SCHEMA)


def _validate(validator, doc, kind: str, path: str):
    """SchemaError with the message jsonschema.validate would give."""
    error = best_match(validator.iter_errors(doc))
    if error is not None:
        raise SchemaError(f"{kind} file {path} fails schema validation: "
                          f"{error.message}")


def load_model(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read model file {path}: {exc}")
    _validate(_MODEL_VALIDATOR, doc, "model", path)
    return doc


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
    diffs: List[DifferentialRep] = []
    for d in doc.get("differentials", []):
        pid = d["patch"]
        if pid not in patches:
            raise SchemaError(f"differential references missing patch "
                              f"{pid!r}")
        patch = patches[pid]
        diffs.append(DifferentialRep(
            pid,
            _parse_poly(d["numerator"], patch.variables, "differential"),
            _parse_poly(d["denominator"], patch.variables, "differential"),
            d.get("base", "dx")))
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


MATRIX_SCHEMA = {
    "type": "object",
    "properties": {
        "genus": {"type": "integer", "minimum": 1},
        "period_matrix": MODEL_SCHEMA["properties"]["period_matrix"],
        "real_components": {"type": "integer", "minimum": 1},
    },
    "required": ["genus", "period_matrix", "real_components"],
    "additionalProperties": False,
}


_MATRIX_VALIDATOR = validator_for(MATRIX_SCHEMA)(MATRIX_SCHEMA)


def load_matrix_file(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read matrix file {path}: {exc}")
    _validate(_MATRIX_VALIDATOR, doc, "matrix", path)
    return doc
