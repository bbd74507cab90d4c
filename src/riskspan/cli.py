"""Batch front end: one analysis command per invocation, exact reports.

Exit codes: 0 success, 2 validation error (bad schema or literals),
3 precondition failure (for example a non-viable market), 4 unreadable
input file, 5 certificate failure (an LP answer failed exact
re-verification; a defect, not an input error).  Machine reports are
canonical JSON and byte-identical across runs on identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from typing import Optional, Sequence

from . import bodies, market, risk, schema
from .errors import CertificateError, PreconditionError, ValidationError
from .rational import format_extended, format_rational

DEFAULT_MAX_ATOMS = 12

COMMANDS = (
    "set-gauge",
    "set-polar",
    "set-solid-hull",
    "set-solid-check",
    "risk-eval",
    "risk-conjugate",
    "risk-extend",
    "risk-fatou",
    "market-emm",
    "market-complete",
    "market-witness",
    "market-attainable",
    "market-ball",
)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``main`` call, not at import, and reused after."""
    parser = argparse.ArgumentParser(
        prog="riskspan",
        description="Exact analyses of convex bodies, risk functions, and finite markets.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="path to the JSON input document")
    parser.add_argument("--point", help="comma-separated rationals, one per atom")
    parser.add_argument("--mode", choices=("full", "monotone"), default="full")
    parser.add_argument("--format", choices=("human", "json"), default="json")
    parser.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_MAX_ATOMS,
        help="safety cap on the atom count (default 12)",
    )
    return parser


def _check_cap(space, cap: int) -> None:
    if space.size > cap:
        raise PreconditionError(
            f"space has {space.size} atoms, above the --max-atoms cap {cap}"
        )


def _need_point(args, space):
    if args.point is None:
        raise ValidationError(f"{args.command} requires --point")
    return schema.parse_point(space, args.point)


def _run_set_command(args, doc) -> dict:
    body = schema.body_from_json(doc)
    _check_cap(body.space, args.max_atoms)
    if args.command == "set-gauge":
        point = _need_point(args, body.space)
        return {"gauge": format_extended(bodies.gauge(body, point))}
    if args.command == "set-polar":
        point = _need_point(args, body.space)
        return {"polar_gauge": format_rational(bodies.polar_gauge(body, point))}
    if args.command == "set-solid-hull":
        point = _need_point(args, body.space)
        inside, witness = bodies.solid_hull_member(body, point)
        return {
            "member": inside,
            "witness": schema.rv_to_json(witness) if witness is not None else None,
        }
    inside, counterexample = bodies.solid_check(body)
    return {
        "solid": inside,
        "counterexample": (
            schema.rv_to_json(counterexample) if counterexample is not None else None
        ),
    }


def _run_risk_command(args, doc) -> dict:
    if args.command == "risk-fatou":
        phi, sequence, limit, bound = schema.fatou_from_json(doc)
        _check_cap(phi.space, args.max_atoms)
        passes = risk.fatou_probe(
            lambda f: risk.evaluate(phi, f), phi.body, sequence, limit, bound
        )
        return {"passes": passes, "bound": format_rational(bound)}
    phi = schema.risk_from_json(doc)
    _check_cap(phi.space, args.max_atoms)
    point = _need_point(args, phi.space)
    if args.command == "risk-eval":
        return {"value": format_extended(risk.evaluate(phi, point))}
    if args.command == "risk-conjugate":
        return {"value": format_extended(risk.conjugate(phi, point))}
    value = risk.extend(phi, point, args.mode)
    in_hull, _witness = bodies.solid_hull_member(phi.body, point)
    return {
        "value": format_extended(value),
        "mode": args.mode,
        "in_solid_hull": in_hull,
    }


def _run_market_command(args, doc) -> dict:
    tree = schema.market_from_json(doc)
    _check_cap(tree.space, args.max_atoms)
    if args.command == "market-emm":
        emm = market.emm_set(tree)
        slack, sample = market.viability_certificate(tree)
        vertices = emm.vertices()
        if not vertices:
            raise PreconditionError("empty martingale measure set")
        return {
            "atoms": list(tree.space.atoms),
            "viable": slack > 0,
            "sample_measure": schema.measure_to_json(sample) if sample is not None else None,
            "is_singleton": len(vertices) == 1,
            "vertices": schema.vertices_to_json(vertices),
        }
    if args.command == "market-complete":
        witness = market.nonsolidity_witness(tree)
        return {"complete": witness is None}
    if args.command == "market-witness":
        witness = market.nonsolidity_witness(tree)
        if witness is None:
            return {"witness": None}
        return {
            "witness": {
                "event": list(witness.event),
                "indicator": schema.rv_to_json(witness.indicator),
                "q_min": format_rational(witness.q_min),
                "q_max": format_rational(witness.q_max),
                "measure_min": schema.measure_to_json(witness.measure_min),
                "measure_max": schema.measure_to_json(witness.measure_max),
            }
        }
    if args.command == "market-attainable":
        point = _need_point(args, tree.space)
        ok, detail = market.attainable(tree, point)
        if not ok:
            return {"attainable": False, "initial_capital": None, "hedge": None}
        initial, hedge = detail
        return {
            "attainable": True,
            "initial_capital": format_rational(initial),
            "hedge": schema.hedge_to_json(hedge),
        }
    ball = market.attainable_ball(tree)
    return {
        "atoms": list(tree.space.atoms),
        "generators": [schema.rv_to_json(g) for g in ball.generators],
    }


def run(args) -> dict:
    if args.max_atoms < 0:
        raise ValidationError(f"--max-atoms must be nonnegative, got {args.max_atoms}")
    doc = schema.load_document(args.input)
    if args.command.startswith("set-"):
        result = _run_set_command(args, doc)
    elif args.command.startswith("risk-"):
        result = _run_risk_command(args, doc)
    else:
        result = _run_market_command(args, doc)
    return {
        "command": args.command,
        "input": args.input,
        "options": {"mode": args.mode, "point": args.point, "max_atoms": args.max_atoms},
        "status": "ok",
        "result": result,
    }


def _render_human(payload: dict, prefix: str = "") -> list[str]:
    lines: list[str] = []
    for key in sorted(payload):
        value = payload[key]
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_render_human(value, prefix=f"{label}."))
        else:
            lines.append(f"{label}: {value}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 4
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 5
    if args.format == "json":
        sys.stdout.write(schema.canonical_json(report))
    else:
        for line in _render_human(report):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
