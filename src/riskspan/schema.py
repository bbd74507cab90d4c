"""JSON schemas for spaces, bodies, risk functions, markets, and reports.

Rationals cross the boundary as strings "p/q" or integers, never floats;
reports are rendered canonically (sorted keys, fixed separators) so that
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .bodies import AbsolutelyConvexBody
from .errors import ValidationError
from .market import MarketTree, market_tree_from_rows
from .measure import FiniteProbabilitySpace, Measure, RandomVariable
from .rational import format_rational, parse_rational
from .risk import PolyhedralRiskFunction


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"input {path} is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer above the digit limit
        raise ValidationError(f"invalid JSON in {path}: {exc}") from None
    except RecursionError:
        raise ValidationError(f"JSON in {path} is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"top-level JSON object required in {path}")
    return doc


def _field(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise ValidationError(f"missing field {key!r} in {where}")
    value = doc[key]
    # JSON true/false load as bool, which subclasses int; no field is a flag
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValidationError(f"field {key!r} in {where} must be {kind.__name__}")
    return value


def space_from_json(doc: dict) -> FiniteProbabilitySpace:
    atoms = _field(doc, "atoms", list, "space")
    weights = _field(doc, "weights", list, "space")
    if not all(isinstance(a, str) for a in atoms):
        raise ValidationError("atom labels must be strings")
    return FiniteProbabilitySpace(tuple(atoms), tuple(parse_rational(w) for w in weights))


def rv_from_json(space: FiniteProbabilitySpace, values: object) -> RandomVariable:
    if not isinstance(values, list):
        raise ValidationError("a random variable must be a list of rationals")
    return RandomVariable.of(space, values)


def rv_to_json(rv: RandomVariable) -> list[str]:
    return [format_rational(v) for v in rv.values]


def measure_to_json(measure: Measure) -> list[str]:
    return [format_rational(w) for w in measure.weights]


def body_from_json(doc: dict) -> AbsolutelyConvexBody:
    space = space_from_json(_field(doc, "space", dict, "body document"))
    generators = _field(doc, "generators", list, "body document")
    return AbsolutelyConvexBody(
        space, tuple(rv_from_json(space, row) for row in generators)
    )


def risk_from_json(doc: dict) -> PolyhedralRiskFunction:
    space = space_from_json(_field(doc, "space", dict, "risk document"))
    body_doc = _field(doc, "body", dict, "risk document")
    generators = _field(body_doc, "generators", list, "risk body")
    body = AbsolutelyConvexBody(
        space, tuple(rv_from_json(space, row) for row in generators)
    )
    scenarios = []
    for entry in _field(doc, "scenarios", list, "risk document"):
        if not isinstance(entry, dict):
            raise ValidationError("each scenario must be an object")
        g = rv_from_json(space, _field(entry, "g", list, "scenario"))
        if "alpha" not in entry:
            raise ValidationError("missing field 'alpha' in scenario")
        scenarios.append((g, parse_rational(entry["alpha"])))
    return PolyhedralRiskFunction(body, tuple(scenarios))


def market_from_json(doc: dict) -> MarketTree:
    node_rows = []
    for entry in _field(doc, "nodes", list, "market document"):
        if not isinstance(entry, dict):
            raise ValidationError("each market node must be an object")
        node_id = _field(entry, "id", str, "market node")
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ValidationError("node parent must be a string or null")
        time = _field(entry, "time", int, "market node")
        prices = _field(entry, "prices", list, "market node")
        node_rows.append((node_id, parent, time, prices))
    weights = _field(doc, "leaf_weights", dict, "market document")
    return market_tree_from_rows(node_rows, weights)


def fatou_from_json(doc: dict):
    phi = risk_from_json(_field(doc, "risk", dict, "fatou document"))
    space = phi.space
    sequence = [
        rv_from_json(space, row)
        for row in _field(doc, "sequence", list, "fatou document")
    ]
    limit = rv_from_json(space, _field(doc, "limit", list, "fatou document"))
    if "bound" not in doc:
        raise ValidationError("missing field 'bound' in fatou document")
    bound = parse_rational(doc["bound"])
    return phi, sequence, limit, bound


def parse_point(space: FiniteProbabilitySpace, text: str) -> RandomVariable:
    """Parse a --point literal: comma-separated rationals in atom order."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != space.size:
        raise ValidationError(
            f"point needs {space.size} coordinates (one per atom), got {len(parts)}"
        )
    return RandomVariable(space, tuple(parse_rational(p) for p in parts))


def canonical_json(payload: dict) -> str:
    """Deterministic rendering: sorted keys, fixed separators, newline end."""
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def hedge_to_json(hedge: dict[str, tuple[Fraction, ...]]) -> dict[str, list[str]]:
    return {nid: [format_rational(h) for h in holding] for nid, holding in sorted(hedge.items())}


def vertices_to_json(vertices) -> list[list[str]]:
    return [[format_rational(c) for c in vertex] for vertex in vertices]
