"""The four workloads: instance shapes, the timed op bundle, and its checks.

A workload is a round of op slots.  ``build(rng, work)`` makes one round's
inputs through the public constructors (set-up work; the CLI workload also
writes its JSON documents under ``work``), ``op(instance)`` is the timed
analysis bundle, and ``check(instance, result)`` returns the list of failed
checks, computed apart from the program by ``oracle`` or from properties
the method must have.  Every op calls riskspan through module attributes
looked up at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import riskspan as rs
import riskspan.cli  # noqa: F401  (loads rs.cli for the CLI workload)

import instances as gen
import oracle

F0 = Fraction(0)
F1 = Fraction(1)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, str], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]


def _vals(x) -> list[Fraction]:
    return list(x.values)


def _vals_m(measure) -> list[Fraction]:
    return list(measure.weights)


# ---------------------------------------------------------------------------
# body_lp: one op = every body analysis on one 4-atom, 4-generator body.
# LPs per op: 2 gauges + 2 bipolar + 1 (member, first pattern)
#             + 2^4 (non-member, every pattern) + 2 (solid check) = 23.

BODY_ATOMS = 4
BODY_GENERATORS = 4


def body_build(rng: random.Random, _work: str) -> list:
    return [gen.body_instance(rng, BODY_ATOMS, BODY_GENERATORS) for _ in range(BODY_SLOTS)]


def body_op(inst: gen.BodyInstance) -> dict:
    body = inst.parts.body
    return {
        "gauge_span": rs.gauge(body, inst.span_x),
        "gauge_off": rs.gauge(body, inst.off_x),
        "polar": rs.polar_gauge(body, inst.dual_g),
        "bipolar_in": rs.bipolar_member(body, inst.member_f),
        "bipolar_out": rs.bipolar_member(body, inst.outside_h),
        "hull_in": rs.solid_hull_member(body, inst.member_f),
        "hull_out": rs.solid_hull_member(body, inst.outside_h),
        "solid": rs.solid_check(body),
    }


def check_solid_counterexample(gens, counterexample) -> list[str]:
    bad = []
    if not any(all(abs(c) == abs(v) for c, v in zip(counterexample, g)) for g in gens):
        bad.append("solid-check counterexample is not a sign flip of a generator")
    if not oracle.brute_gauge(gens, counterexample) > 1:
        bad.append("solid-check counterexample lies in K")
    return bad


def check_hull_member(gens, point, witness) -> list[str]:
    bad = []
    if witness is None or not oracle.dominates(witness, point):
        bad.append("solid-hull witness does not dominate the point")
    elif not oracle.brute_gauge(gens, witness) <= 1:
        bad.append("solid-hull witness lies outside K")
    return bad


def body_check(inst: gen.BodyInstance, res: dict) -> list[str]:
    gens = inst.parts.generators
    mu = list(inst.parts.body.space.weights)
    bad = []
    if res["gauge_span"] != oracle.brute_gauge(gens, _vals(inst.span_x)):
        bad.append("gauge differs from the brute-force gauge")
    if res["gauge_off"] is not rs.INF or oracle.in_span(gens, _vals(inst.off_x)):
        bad.append("gauge off the span is not +inf")
    if res["polar"] != oracle.polar_gauge(mu, gens, _vals(inst.dual_g)):
        bad.append("polar gauge differs from the generator maximum")
    inside, witness = res["hull_in"]
    if not inside or not res["bipolar_in"]:
        bad.append("shrunken point of K rejected by the solid hull or the bipolar")
    else:
        bad += check_hull_member(gens, _vals(inst.member_f), _vals(witness))
    h = _vals(inst.outside_h)
    if not oracle.sup_norm(h) > max(oracle.sup_norm(g) for g in gens):
        bad.append("non-member instance does not exceed every generator")
    if res["hull_out"] != (False, None) or res["bipolar_out"]:
        bad.append("point beyond every generator accepted")
    solid, counterexample = res["solid"]
    if solid or counterexample is None:
        bad.append("non-solid body reported solid")
    else:
        bad += check_solid_counterexample(gens, _vals(counterexample))
    return bad


# ---------------------------------------------------------------------------
# market_tree: one op = every market analysis on one viable tree.  A round
# has ten slots in three cost classes: two cheap 3-leaf trees, six middle
# ones (five 4-branch one-asset trees and one 4-branch two-asset tree) and
# two dear 4-leaf complete trees.  The median op then falls near the centre
# of the five same-shape trees, whose op times spread least of the middle
# shapes (see README.md).

MARKET_SHAPES = (
    (1, (3,)),  # incomplete, one asset, one trinomial period
    (2, (3,)),  # complete, two assets, one trinomial period
    (1, (4,)),  # incomplete, one asset, one four-branch period
    (1, (4,)),
    (1, (4,)),
    (1, (4,)),
    (1, (4,)),
    (2, (4,)),  # incomplete, two assets, one four-branch period
    (1, (2, 2)),  # complete, one asset, two binomial periods
    (2, (2, 2)),  # complete, two assets, two binomial periods
)


def market_build(rng: random.Random, _work: str) -> list:
    return [gen.tree_instance(rng, assets, branching) for assets, branching in MARKET_SHAPES]


def market_op(inst: gen.TreeInstance) -> dict:
    tree = inst.tree
    slack, sample = rs.viability_certificate(tree)
    emm = rs.emm_set(tree)
    return {
        "slack": slack,
        "sample": sample,
        "singleton": emm.is_singleton(),
        "witness": rs.nonsolidity_witness(tree),
        "claim": rs.attainable(tree, inst.claim),
        "second": rs.attainable(tree, inst.second_claim),
        "ball": rs.attainable_ball(tree),
        "vertices": emm.vertices(),
    }


def check_replication(spec: oracle.TreeSpec, claim, detail, capital=None) -> list[str]:
    initial, hedge = detail
    bad = []
    if capital is not None and initial != capital:
        bad.append("replication capital differs from the built capital")
    if spec.forward(initial, hedge) != list(claim):
        bad.append("hedge does not reproduce the claim")
    return bad


def check_witness(inst_spec: oracle.TreeSpec, event, indicator, q_min, q_max, m_min, m_max):
    bad = []
    leaves = inst_spec.leaves
    if list(indicator) != [F1 if leaf in event else F0 for leaf in leaves]:
        bad.append("witness indicator does not match its event")
    if not q_min < q_max:
        bad.append("witness bounds do not split")
    for q, bound in ((m_min, q_min), (m_max, q_max)):
        if not inst_spec.is_martingale_measure(q):
            bad.append("witness measure is not a martingale probability")
        elif sum((w for w, x in zip(q, indicator) if x), F0) != bound:
            bad.append("witness measure does not attain its bound")
    return bad


def check_ball(spec: oracle.TreeSpec, generators) -> list[str]:
    gains = spec.gains()
    for g in generators:
        if oracle.sup_norm(g) != 1:
            return ["ball generator sup-norm is not 1"]
        if not oracle.in_span(gains, g):
            return ["ball generator is not attainable"]
    return []


def market_check(inst: gen.TreeInstance, res: dict) -> list[str]:
    spec = inst.spec
    bad = []
    if not res["slack"] > 0 or not spec.is_martingale_measure(_vals_m(res["sample"]), strict=True):
        bad.append("viability certificate is not an equivalent martingale measure")
    vertices = res["vertices"]
    if not all(spec.is_martingale_measure(list(v)) for v in vertices):
        bad.append("an EMM vertex is not a martingale probability")
    if res["singleton"] != inst.complete or (len(vertices) == 1) != inst.complete:
        bad.append("EMM set size disagrees with completeness")
    witness = res["witness"]
    if (witness is None) != inst.complete:
        bad.append("witness presence disagrees with completeness")
    elif witness is not None:
        bad += check_witness(
            spec, witness.event, _vals(witness.indicator), witness.q_min, witness.q_max,
            _vals_m(witness.measure_min), _vals_m(witness.measure_max),
        )
    ok, detail = res["claim"]
    if not ok:
        bad.append("replicable claim reported unattainable")
    else:
        bad += check_replication(spec, _vals(inst.claim), detail, inst.claim_capital)
    ok, detail = res["second"]
    if ok != inst.second_attainable or ok == (not inst.complete):
        bad.append("second claim attainability is wrong")
    elif ok:
        bad += check_replication(spec, _vals(inst.second_claim), detail)
    bad += check_ball(spec, [_vals(g) for g in res["ball"].generators])
    return bad


# ---------------------------------------------------------------------------
# risk_desk: one op = one round of desk queries on one risk function over a
# 4-atom body.  LPs per op: 2 fresh conjugates + 3 conjugates behind the
# first dual_rep_evaluate (the rest are cache hits) + 2 x 3 extends
# + 3 monotone certificates + 8 Fatou gauges = 22.

RISK_SHAPE = dict(n=4, m=3, scenario_count=3, dual_count=2, span_count=2, sequence_length=8)


def risk_build(rng: random.Random, _work: str) -> list:
    return [gen.risk_instance(rng, **RISK_SHAPE) for _ in range(RISK_SLOTS)]


def risk_op(inst: gen.RiskInstance) -> dict:
    phi = inst.phi
    scenario_points = [g for g, _alpha in phi.scenarios]
    points = inst.span_points
    return {
        "values": [rs.evaluate(phi, f) for f in points],
        "off": rs.evaluate(phi, inst.off_point),
        "conj_fresh": [rs.conjugate(phi, g) for g in inst.duals],
        "dual_rep": [rs.dual_rep_evaluate(phi, f, scenario_points) for f in points],
        "conj_scen": [rs.conjugate(phi, g) for g in scenario_points],
        "full": [rs.extend(phi, f, "full") for f in points],
        "mono": [rs.extend(phi, f, "monotone") for f in points],
        "off_full": rs.extend(phi, inst.off_point, "full"),
        "off_mono": rs.extend(phi, inst.off_point, "monotone"),
        "certifiable": rs.monotone_certifiable(phi),
        "fatou": rs.fatou_probe(
            lambda f: rs.evaluate(phi, f), phi.body, inst.sequence, inst.limit, inst.bound
        ),
    }


def risk_value(inst: gen.RiskInstance, f: list[Fraction]) -> Fraction:
    mu = list(inst.phi.space.weights)
    return max(oracle.weighted_pairing(mu, f, g) - a for g, a in inst.scenarios)


def fatou_expected(inst: gen.RiskInstance) -> bool:
    seq = [_vals(f) for f in inst.sequence]
    tail_len = min(len(seq), max((len(seq) + 1) // 2, 8))
    proxy = min(risk_value(inst, f) for f in seq[len(seq) - tail_len:])
    return risk_value(inst, _vals(inst.limit)) <= proxy


def risk_check(inst: gen.RiskInstance, res: dict) -> list[str]:
    mu = list(inst.phi.space.weights)
    gens = inst.parts.generators
    points = [_vals(f) for f in inst.span_points]
    expected = [risk_value(inst, f) for f in points]
    bad = []
    if res["values"] != expected:
        bad.append("evaluate differs from max_j(pairing - alpha_j)")
    if res["off"] is not rs.INF or oracle.in_span(gens, _vals(inst.off_point)):
        bad.append("evaluate off the span is not +inf")
    if res["dual_rep"] != expected:
        bad.append("dual_rep_evaluate with the scenarios differs from evaluate")
    if any(c > a for c, (_g, a) in zip(res["conj_scen"], inst.scenarios)):
        bad.append("conjugate at a scenario exceeds its penalty")
    if any(c is rs.INF or c > b for c, b in zip(res["conj_fresh"], inst.dual_bounds)):
        bad.append("conjugate at a scenario mixture exceeds the mixed penalty")
    duals = [_vals(g) for g in inst.duals] + [g for g, _a in inst.scenarios]
    for f, value in zip(points, expected):
        for g, c in zip(duals, res["conj_fresh"] + res["conj_scen"]):
            if value + c < oracle.weighted_pairing(mu, f, g):
                bad.append("Fenchel-Young inequality fails")
    if res["full"] != expected or res["mono"] != expected:
        bad.append("an extension differs from evaluate on the span")
    if not res["off_mono"] <= res["off_full"]:
        bad.append("monotone extension exceeds the full extension")
    if not res["certifiable"]:
        bad.append("monotone-certifiable function reported uncertifiable")
    if res["fatou"] != fatou_expected(inst):
        bad.append("fatou_probe disagrees with the tail-minimum rule")
    return bad


# ---------------------------------------------------------------------------
# cli_batch: one op = the 13 CLI commands once each, in process, on fresh
# 2-4-atom documents.

def _r(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _lit(values) -> str:
    return ",".join(_r(v) for v in values)


def _space_doc(space) -> dict:
    return {"atoms": list(space.atoms), "weights": [_r(w) for w in space.weights]}


def _risk_doc(inst: gen.RiskInstance) -> dict:
    return {
        "space": _space_doc(inst.phi.space),
        "body": {"generators": [[_r(x) for x in g] for g in inst.parts.generators]},
        "scenarios": [{"g": [_r(x) for x in g], "alpha": _r(a)} for g, a in inst.scenarios],
    }


def _market_doc(inst: gen.TreeInstance) -> dict:
    return {
        "nodes": [
            {"id": n.node_id, "parent": n.parent, "time": n.time, "prices": [_r(p) for p in n.prices]}
            for n in inst.tree.nodes
        ],
        "leaf_weights": {a: _r(w) for a, w in zip(inst.tree.space.atoms, inst.tree.space.weights)},
    }


@dataclass
class CliInstance:
    body: gen.BodyInstance
    risk: gen.RiskInstance
    incomplete: gen.TreeInstance
    complete: gen.TreeInstance
    argvs: list[list[str]]


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def cli_instance(rng: random.Random, work: str, slot: int) -> CliInstance:
    body = gen.body_instance(rng, 4, 4)
    risk = gen.risk_instance(
        rng, n=3, m=2, scenario_count=2, dual_count=1, span_count=1, sequence_length=8
    )
    incomplete = gen.tree_instance(rng, 1, (3,))
    complete = gen.tree_instance(rng, 1, (2, 2))
    stem = os.path.join(work, f"slot{slot}")
    body_path = _write(f"{stem}-body.json", {
        "space": _space_doc(body.parts.body.space),
        "generators": [[_r(x) for x in g] for g in body.parts.generators],
    })
    risk_path = _write(f"{stem}-risk.json", _risk_doc(risk))
    fatou_path = _write(f"{stem}-fatou.json", {
        "risk": _risk_doc(risk),
        "sequence": [[_r(x) for x in f.values] for f in risk.sequence],
        "limit": [_r(x) for x in risk.limit.values],
        "bound": _r(risk.bound),
    })
    inc_path = _write(f"{stem}-incomplete.json", _market_doc(incomplete))
    com_path = _write(f"{stem}-complete.json", _market_doc(complete))

    def point(rv) -> str:
        return "--point=" + _lit(rv.values)

    argvs = [
        ["set-gauge", "--input", body_path, point(body.span_x)],
        ["set-polar", "--input", body_path, point(body.dual_g)],
        ["set-solid-hull", "--input", body_path, point(body.member_f)],
        ["set-solid-check", "--input", body_path],
        ["risk-eval", "--input", risk_path, point(risk.span_points[0])],
        ["risk-conjugate", "--input", risk_path, point(risk.duals[0])],
        ["risk-extend", "--input", risk_path, point(risk.limit), "--mode", "monotone"],
        ["risk-fatou", "--input", fatou_path],
        ["market-emm", "--input", inc_path],
        ["market-complete", "--input", com_path],
        ["market-witness", "--input", inc_path],
        ["market-attainable", "--input", com_path, point(complete.claim)],
        ["market-ball", "--input", inc_path],
    ]
    return CliInstance(body, risk, incomplete, complete, argvs)


def cli_build(rng: random.Random, work: str) -> list:
    return [cli_instance(rng, work, slot) for slot in range(CLI_SLOTS)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = rs.cli.main(argv)
    return code, out.getvalue()


def cli_op(inst: CliInstance) -> list[tuple[int, str]]:
    return [run_cli(argv) for argv in inst.argvs]


def _fracs(texts) -> list[Fraction]:
    return [oracle.parse_fraction(t) for t in texts]


def _ext(text: str):
    return oracle.INF if text == "inf" else oracle.parse_fraction(text)


def cli_result_checks(inst: CliInstance, results: dict) -> list[str]:
    body, risk = inst.body, inst.risk
    gens = body.parts.generators
    mu = list(body.parts.body.space.weights)
    bad = []
    r = results["set-gauge"]
    if _ext(r["gauge"]) != oracle.brute_gauge(gens, _vals(body.span_x)):
        bad.append("set-gauge differs from the brute-force gauge")
    r = results["set-polar"]
    if _ext(r["polar_gauge"]) != oracle.polar_gauge(mu, gens, _vals(body.dual_g)):
        bad.append("set-polar differs from the generator maximum")
    r = results["set-solid-hull"]
    if not r["member"] or r["witness"] is None:
        bad.append("set-solid-hull rejects a shrunken point of K")
    else:
        bad += check_hull_member(gens, _vals(body.member_f), _fracs(r["witness"]))
    r = results["set-solid-check"]
    if r["solid"] or r["counterexample"] is None:
        bad.append("set-solid-check reports a non-solid body solid")
    else:
        bad += check_solid_counterexample(gens, _fracs(r["counterexample"]))
    if _ext(results["risk-eval"]["value"]) != risk_value(risk, _vals(risk.span_points[0])):
        bad.append("risk-eval differs from max_j(pairing - alpha_j)")
    conj = _ext(results["risk-conjugate"]["value"])
    f0 = _vals(risk.span_points[0])
    rmu = list(risk.phi.space.weights)
    if conj > risk.dual_bounds[0] or (
        risk_value(risk, f0) + conj < oracle.weighted_pairing(rmu, f0, _vals(risk.duals[0]))
    ):
        bad.append("risk-conjugate breaks its mixture bound or Fenchel-Young")
    r = results["risk-extend"]
    if _ext(r["value"]) != risk_value(risk, _vals(risk.limit)) or not r["in_solid_hull"]:
        bad.append("risk-extend (monotone) differs from evaluate on the span")
    if results["risk-fatou"]["passes"] != fatou_expected(risk):
        bad.append("risk-fatou disagrees with the tail-minimum rule")
    bad += _cli_market_checks(inst, results)
    return bad


def _cli_market_checks(inst: CliInstance, results: dict) -> list[str]:
    spec = inst.incomplete.spec
    bad = []
    r = results["market-emm"]
    vertices = [_fracs(v) for v in r["vertices"] or []]
    if (
        not r["viable"]
        or r["is_singleton"]
        or len(vertices) < 2
        or not spec.is_martingale_measure(_fracs(r["sample_measure"]), strict=True)
        or not all(spec.is_martingale_measure(v) for v in vertices)
    ):
        bad.append("market-emm report is wrong for an incomplete tree")
    if results["market-complete"]["complete"] is not True:
        bad.append("market-complete rejects a complete tree")
    w = results["market-witness"]["witness"]
    if w is None:
        bad.append("market-witness finds no witness in an incomplete tree")
    else:
        bad += check_witness(
            spec, w["event"], _fracs(w["indicator"]), _ext(w["q_min"]), _ext(w["q_max"]),
            _fracs(w["measure_min"]), _fracs(w["measure_max"]),
        )
    r = results["market-attainable"]
    if not r["attainable"]:
        bad.append("market-attainable rejects a replicable claim")
    else:
        hedge = {nid: _fracs(h) for nid, h in r["hedge"].items()}
        detail = (_ext(r["initial_capital"]), hedge)
        bad += check_replication(
            inst.complete.spec, _vals(inst.complete.claim), detail, inst.complete.claim_capital
        )
    bad += check_ball(spec, [_fracs(g) for g in results["market-ball"]["generators"]])
    return bad


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def cli_check(inst: CliInstance, outputs: list[tuple[int, str]]) -> list[str]:
    bad = []
    results = {}
    for argv, (code, text) in zip(inst.argvs, outputs):
        if code != 0:
            return [f"{argv[0]} exited {code}"]
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return [f"{argv[0]} printed no JSON"]
        if canonical(report) != text:
            bad.append(f"{argv[0]} report is not canonical JSON")
        if run_cli(argv) != (code, text):
            bad.append(f"{argv[0]} report is not byte-identical when repeated")
        results[argv[0]] = report["result"]
    return bad + cli_result_checks(inst, results)


# ---------------------------------------------------------------------------

BODY_SLOTS = 4
RISK_SLOTS = 4
CLI_SLOTS = 2

WORKLOADS = {
    w.name: w
    for w in (
        Workload("body_lp", body_build, body_op, body_check),
        Workload("market_tree", market_build, market_op, market_check),
        Workload("risk_desk", risk_build, risk_op, risk_check),
        Workload("cli_batch", cli_build, cli_op, cli_check),
    )
}
