"""Seeded instance generators for the four workloads.

Each generator draws small exact rationals from a ``random.Random`` and
builds the program's objects through riskspan's public constructors.  The
shapes are chosen so that every LP count in an op is fixed by the shape
alone (see README.md), which is what makes ``lps_per_op`` repeat exactly
for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from riskspan import (
    AbsolutelyConvexBody,
    FiniteProbabilitySpace,
    MarketNode,
    MarketTree,
    PolyhedralRiskFunction,
    RandomVariable,
)

import oracle

F0 = Fraction(0)
F1 = Fraction(1)


def frac(rng: random.Random, lo: int, hi: int, dens: tuple[int, ...] = (1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def nonzero_frac(rng: random.Random, bound: int, dens: tuple[int, ...] = (1, 2, 3)) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.choice(dens))


def weights(rng: random.Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 5) for _ in range(n)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def space(rng: random.Random, n: int) -> FiniteProbabilitySpace:
    return FiniteProbabilitySpace(tuple(f"w{i}" for i in range(n)), tuple(weights(rng, n)))


def rv(sp: FiniteProbabilitySpace, values) -> RandomVariable:
    return RandomVariable(sp, tuple(values))


def combine(coeffs, vectors) -> list[Fraction]:
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), F0) for i in range(len(vectors[0]))]


# ---------------------------------------------------------------------------
# bodies


@dataclass
class BodyParts:
    """A body whose first generator is a positive envelope of all the others.

    ``envelope`` (generator 0) bounds every generator coordinatewise, and
    on the first and last atom every other generator stays within half of
    it.  All generators satisfy x[1] = beta . x, so span(K) is a proper
    subspace.  Consequences used by the op bundles:

    * every point of the solid hull is dominated by the envelope, so
      ``solid_hull_member`` accepts a member on its first sign pattern;
    * the envelope with its last coordinate negated has gauge >= 2 (the
      functional e_0/a_0 - e_last/a_last separates it), so ``solid_check``
      stops at its second candidate;
    * a point beyond the envelope on every atom fails all 2^n patterns.
    """

    body: AbsolutelyConvexBody
    generators: list[list[Fraction]]
    beta: list[Fraction]

    @property
    def envelope(self) -> list[Fraction]:
        return self.generators[0]


def envelope_body(rng: random.Random, sp: FiniteProbabilitySpace, m: int) -> BodyParts:
    n = sp.size
    beta = [F0] * n
    beta[0] = Fraction(rng.randint(1, 3), 4)
    beta[2] = Fraction(rng.randint(1, 3), 4)
    a = [Fraction(rng.randint(4, 9), rng.choice((1, 2))) for _ in range(n)]
    a[1] = sum((b * x for b, x in zip(beta, a)), F0)
    gens = [a]
    while len(gens) < m:
        v = []
        for i in range(n):
            half = i in (0, n - 1)
            v.append(a[i] * Fraction(rng.randint(-3, 3), 6 if half else 3))
        v[1] = sum((b * x for b, x in zip(beta, v)), F0)
        if any(v) and v not in gens:
            gens.append(v)
    body = AbsolutelyConvexBody(sp, tuple(rv(sp, g) for g in gens))
    return BodyParts(body, gens, beta)


def span_point(rng: random.Random, parts: BodyParts) -> list[Fraction]:
    while True:
        point = combine([frac(rng, -3, 3) for _ in parts.generators], parts.generators)
        if any(point):
            return point


def off_span_point(rng: random.Random, parts: BodyParts) -> list[Fraction]:
    point = span_point(rng, parts)
    point[1] += nonzero_frac(rng, 3)
    return point


def shrunken_member(rng: random.Random, parts: BodyParts) -> list[Fraction]:
    """t * k with k in K, so a point of K dominated by the envelope."""
    c0 = Fraction(rng.randint(1, 5), 6)
    rest = [frac(rng, -3, 3) for _ in parts.generators[1:]]
    total = sum((abs(c) for c in rest), F0)
    if total == 0:
        rest, total = [F1] + [F0] * (len(rest) - 1), F1
    coeffs = [c0] + [(1 - c0) * c / total for c in rest]
    t = Fraction(rng.randint(1, 4), 5)
    return [t * v for v in combine(coeffs, parts.generators)]


def beyond_envelope(rng: random.Random, parts: BodyParts) -> list[Fraction]:
    """A fully supported point above the envelope on every atom."""
    return [
        rng.choice((-1, 1)) * (x + Fraction(rng.randint(1, 4), 2)) for x in parts.envelope
    ]


@dataclass
class BodyInstance:
    parts: BodyParts
    span_x: RandomVariable
    off_x: RandomVariable
    dual_g: RandomVariable
    member_f: RandomVariable
    outside_h: RandomVariable


def body_instance(rng: random.Random, n: int, m: int) -> BodyInstance:
    sp = space(rng, n)
    parts = envelope_body(rng, sp, m)
    return BodyInstance(
        parts,
        rv(sp, span_point(rng, parts)),
        rv(sp, off_span_point(rng, parts)),
        rv(sp, [frac(rng, -4, 4) for _ in range(n)]),
        rv(sp, shrunken_member(rng, parts)),
        rv(sp, beyond_envelope(rng, parts)),
    )


# ---------------------------------------------------------------------------
# risk functions


@dataclass
class RiskInstance:
    parts: BodyParts
    phi: PolyhedralRiskFunction
    scenarios: list[tuple[list[Fraction], Fraction]]
    span_points: list[RandomVariable]
    off_point: RandomVariable
    duals: list[RandomVariable]
    dual_bounds: list[Fraction]
    sequence: list[RandomVariable]
    limit: RandomVariable
    bound: Fraction


def _complement(parts: BodyParts, mu) -> list[list[Fraction]]:
    """Basis of the mu-orthogonal complement of span(K)."""
    rows = [[w * v for w, v in zip(mu, g)] for g in parts.generators]
    return oracle.null_space(rows, len(mu))


def risk_instance(
    rng: random.Random, n: int, m: int, scenario_count: int, dual_count: int,
    span_count: int, sequence_length: int,
) -> RiskInstance:
    sp = space(rng, n)
    mu = list(sp.weights)
    parts = envelope_body(rng, sp, m)
    perp = _complement(parts, mu)

    def orthogonal() -> list[Fraction]:
        return combine([frac(rng, -2, 2) for _ in perp], perp)

    # g_j = h_j + z_j with h_j >= 0 and z_j orthogonal to span(K): every
    # scenario agrees on the span with a nonnegative dual point, so the
    # function is monotone-certifiable and no op is refused.
    scenarios = []
    while len(scenarios) < scenario_count:
        h = [Fraction(rng.randint(0, 6), rng.choice((1, 2))) for _ in range(n)]
        g = [a + b for a, b in zip(h, orthogonal())]
        if any(h) and all(g != s for s, _a in scenarios):
            scenarios.append((g, frac(rng, -3, 3)))
    phi = PolyhedralRiskFunction(
        parts.body, tuple((rv(sp, g), alpha) for g, alpha in scenarios)
    )
    # A convex mixture of scenarios plus an orthogonal part has conjugate at
    # most the mixed penalty; fresh so the conjugate cache cannot serve it.
    duals, bounds = [], []
    while len(duals) < dual_count:
        lam = [Fraction(rng.randint(0, 4)) for _ in scenarios]
        if not any(lam):
            continue
        lam = [x / sum(lam) for x in lam]
        g = [a + b for a, b in zip(combine(lam, [s for s, _a in scenarios]), orthogonal())]
        if all(g != s for s, _a in scenarios) and all(g != list(d.values) for d in duals):
            duals.append(rv(sp, g))
            bounds.append(sum((x * a for x, (_s, a) in zip(lam, scenarios)), F0))
    span_points = [rv(sp, span_point(rng, parts)) for _ in range(span_count)]
    limit_scale = Fraction(rng.randint(1, 3), 4)
    step_scale = Fraction(rng.randint(1, 3), 4)
    limit = [limit_scale * v for v in shrunken_member(rng, parts)]
    step = [step_scale * v for v in shrunken_member(rng, parts)]
    sequence = [
        rv(sp, [a + b / (k + 1) for a, b in zip(limit, step)]) for k in range(sequence_length)
    ]
    return RiskInstance(
        parts, phi, scenarios, span_points, rv(sp, off_span_point(rng, parts)),
        duals, bounds, sequence, rv(sp, limit), limit_scale + step_scale,
    )


# ---------------------------------------------------------------------------
# market trees


@dataclass
class TreeInstance:
    spec: oracle.TreeSpec
    tree: MarketTree
    complete: bool
    claim: RandomVariable
    claim_capital: Fraction
    second_claim: RandomVariable
    second_attainable: bool


def _one_asset_moves(rng: random.Random, k: int) -> list[tuple[Fraction, ...]]:
    """k distinct nonzero moves with a strictly positive martingale mix."""
    while True:
        w = [rng.randint(1, 4) for _ in range(k)]
        moves = [nonzero_frac(rng, 4) for _ in range(k - 1)]
        last = -sum((a * b for a, b in zip(w, moves)), F0) / w[-1]
        moves.append(last)
        if last != 0 and len(set(moves)) == k:
            return [(x,) for x in moves]


def _two_asset_moves(rng: random.Random, k: int) -> list[tuple[Fraction, ...]]:
    """k planar moves with 0 strictly inside their hull, no three collinear.

    For k = 2 the two moves are opposite (a complete node with a redundant
    asset); for k = 3 the node is complete; for k = 4 every child's
    conditional mass varies over the node's martingale segment.
    """
    while True:
        if k == 2:
            d = (nonzero_frac(rng, 4), nonzero_frac(rng, 4))
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            return [d, (-c * d[0], -c * d[1])]
        w = [rng.randint(1, 4) for _ in range(k)]
        moves = [(frac(rng, -4, 4), frac(rng, -4, 4)) for _ in range(k - 1)]
        last = tuple(-sum((a * p[i] for a, p in zip(w, moves)), F0) / w[-1] for i in range(2))
        moves.append(last)
        triples = [[(F1,) + moves[i] for i in trio] for trio in _triples(k)]
        if all(oracle.rank(t) == 3 for t in triples):
            return moves


def _triples(k: int):
    return [(a, b, c) for a in range(k) for b in range(a + 1, k) for c in range(b + 1, k)]


def tree_instance(rng: random.Random, assets: int, branching: tuple[int, ...]) -> TreeInstance:
    """A viable tree; node ids are paths ("r", "r0", "r01", ...) so sorted
    leaf order is path order and the first leaf sits under the root."""
    nodes: dict[str, tuple[Optional[str], tuple[Fraction, ...]]] = {
        "r": (None, tuple(Fraction(rng.randint(8, 12)) for _ in range(assets)))
    }
    frontier = ["r"]
    for k in branching:
        nxt = []
        for nid in frontier:
            pick = _one_asset_moves if assets == 1 else _two_asset_moves
            for idx, mv in enumerate(pick(rng, k)):
                kid = f"{nid}{idx}"
                nodes[kid] = (nid, tuple(p + d for p, d in zip(nodes[nid][1], mv)))
                nxt.append(kid)
        frontier = nxt
    spec = oracle.TreeSpec(nodes)
    leaf_w = dict(zip(spec.leaves, weights(rng, len(spec.leaves))))
    time = {nid: len(nid) - 1 for nid in nodes}
    tree = MarketTree(
        [MarketNode(nid, parent, time[nid], prices) for nid, (parent, prices) in nodes.items()],
        leaf_w,
    )
    gains = spec.gains()
    complete = oracle.rank(gains) == len(spec.leaves)
    capital = frac(rng, 1, 6)
    hedge = {nid: [frac(rng, -2, 2) for _ in range(assets)] for nid in spec.internal}
    claim = spec.forward(capital, hedge)
    second = [frac(rng, -3, 3) for _ in spec.leaves]
    if not complete:
        # Adding a multiple of the first leaf's indicator leaves the span:
        # that leaf's risk-neutral mass is not pinned.
        second = list(claim)
        second[0] += nonzero_frac(rng, 2)
    second_attainable = oracle.in_span(gains, second)
    return TreeInstance(
        spec, tree, complete, rv(tree.space, claim), capital,
        rv(tree.space, second), second_attainable,
    )
