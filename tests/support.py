"""Shared builders for seeded-random test instances (exact rationals only)."""

from __future__ import annotations

import random
from fractions import Fraction

from riskspan import (
    AbsolutelyConvexBody,
    FiniteProbabilitySpace,
    MarketNode,
    MarketTree,
    PolyhedralRiskFunction,
    RandomVariable,
)


def random_fraction(rnd: random.Random, lo: int = -4, hi: int = 4) -> Fraction:
    return Fraction(rnd.randint(lo, hi), rnd.choice((1, 2, 3)))


def random_space(rnd: random.Random, n: int) -> FiniteProbabilitySpace:
    raw = [rnd.randint(1, 5) for _ in range(n)]
    total = sum(raw)
    labels = tuple(f"w{i}" for i in range(n))
    return FiniteProbabilitySpace(labels, tuple(Fraction(r, total) for r in raw))


def random_rv(rnd: random.Random, space: FiniteProbabilitySpace) -> RandomVariable:
    return RandomVariable(space, tuple(random_fraction(rnd) for _ in space.atoms))


def random_nonzero_rv(rnd: random.Random, space: FiniteProbabilitySpace) -> RandomVariable:
    while True:
        rv = random_rv(rnd, space)
        if not rv.is_zero():
            return rv


def random_body(
    rnd: random.Random, space: FiniteProbabilitySpace, max_generators: int
) -> AbsolutelyConvexBody:
    count = rnd.randint(1, max_generators)
    gens = tuple(random_nonzero_rv(rnd, space) for _ in range(count))
    return AbsolutelyConvexBody(space, gens)


def random_member(rnd: random.Random, body: AbsolutelyConvexBody) -> RandomVariable:
    """A random point of K: an absolutely convex combination of generators."""
    weights = [Fraction(rnd.randint(-3, 3), 12) for _ in body.generators]
    total = sum(abs(w) for w in weights)
    if total > 1:
        weights = [w / total for w in weights]
    point = RandomVariable.zero(body.space)
    for w, g in zip(weights, body.generators):
        point = point + g.scaled(w)
    return point


def random_span_point(rnd: random.Random, body: AbsolutelyConvexBody) -> RandomVariable:
    """A random point of span(K) (unconstrained coefficients)."""
    point = RandomVariable.zero(body.space)
    for g in body.generators:
        point = point + g.scaled(random_fraction(rnd, -3, 3))
    return point


def random_risk(
    rnd: random.Random,
    space: FiniteProbabilitySpace,
    max_generators: int = 3,
    max_scenarios: int = 3,
) -> PolyhedralRiskFunction:
    body = random_body(rnd, space, max_generators)
    count = rnd.randint(1, max_scenarios)
    scenarios = tuple(
        (random_rv(rnd, space), random_fraction(rnd, -2, 2)) for _ in range(count)
    )
    return PolyhedralRiskFunction(body, scenarios)


def _node(nid, parent, time, prices) -> MarketNode:
    return MarketNode(nid, parent, time, tuple(Fraction(p) for p in prices))


def binomial_tree() -> MarketTree:
    nodes = [
        _node("root", None, 0, [1]),
        _node("u", "root", 1, [2]),
        _node("w", "root", 1, [Fraction(1, 2)]),
    ]
    return MarketTree(nodes, {"u": Fraction(1, 2), "w": Fraction(1, 2)})


def trinomial_tree() -> MarketTree:
    nodes = [
        _node("root", None, 0, [1]),
        _node("u", "root", 1, [2]),
        _node("v", "root", 1, [1]),
        _node("w", "root", 1, [Fraction(1, 2)]),
    ]
    third = Fraction(1, 3)
    return MarketTree(nodes, {"u": third, "v": third, "w": third})


def no_trading_tree() -> MarketTree:
    """Two leaves, constant prices: every probability is a martingale measure."""
    nodes = [
        _node("root", None, 0, [1]),
        _node("u", "root", 1, [1]),
        _node("w", "root", 1, [1]),
    ]
    return MarketTree(nodes, {"u": Fraction(1, 2), "w": Fraction(1, 2)})


def single_node_tree() -> MarketTree:
    return MarketTree([_node("root", None, 0, [1])], {"root": Fraction(1)})


def two_period_tree() -> MarketTree:
    """Recombining-shape two-step binomial (distinct nodes per path)."""
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    nodes = [
        _node("root", None, 0, [1]),
        _node("a", "root", 1, [2]),
        _node("b", "root", 1, [half]),
        _node("aa", "a", 2, [4]),
        _node("ab", "a", 2, [1]),
        _node("ba", "b", 2, [1]),
        _node("bb", "b", 2, [quarter]),
    ]
    return MarketTree(
        nodes, {"aa": quarter, "ab": quarter, "ba": quarter, "bb": quarter}
    )


def random_tree(rnd: random.Random) -> MarketTree:
    """A viable tree with at most 6 leaves: one or two periods, one or two assets.

    Each node's price moves are centred under a random positive measure on its
    children, so that measure extends to an equivalent martingale measure.
    Moves may vanish or repeat, which gives complete, incomplete and
    degenerate (no-trading) markets.
    """
    periods = rnd.choice((1, 1, 2))
    assets = rnd.choice((1, 1, 2))
    nodes = [_node("r", None, 0, [random_fraction(rnd, 1, 4) for _ in range(assets)])]
    frontier = [nodes[0]]
    for time in range(1, periods + 1):
        next_frontier = []
        for parent in frontier:
            width = 2 if periods == 2 else rnd.randint(2, 6)
            q = [Fraction(rnd.randint(1, 3)) for _ in range(width)]
            total = sum(q)
            moves = []
            for _k in range(assets):
                raw = [random_fraction(rnd, -2, 2) for _ in range(width)]
                mean = sum(qi * r for qi, r in zip(q, raw)) / total
                moves.append([r - mean for r in raw])
            for c in range(width):
                prices = [parent.prices[k] + moves[k][c] for k in range(assets)]
                nodes.append(_node(f"{parent.node_id}{c}", parent.node_id, time, prices))
                next_frontier.append(nodes[-1])
        frontier = next_frontier
    raw_weights = {leaf.node_id: rnd.randint(1, 4) for leaf in frontier}
    total = sum(raw_weights.values())
    return MarketTree(nodes, {nid: Fraction(w, total) for nid, w in raw_weights.items()})


def branching_tree(rnd: random.Random, branching: tuple[int, ...]) -> MarketTree:
    """A viable one-asset tree whose nodes at time t have ``branching[t]`` children.

    Each node's moves are distinct, nonzero and centred under a random
    positive measure on its children; node ids are paths ("r", "r0", ...).
    """
    nodes = [_node("r", None, 0, [random_fraction(rnd, 4, 8)])]
    frontier = [nodes[0]]
    for time, width in enumerate(branching, 1):
        next_frontier = []
        for parent in frontier:
            moves = [Fraction(0)]
            while 0 in moves or len(set(moves)) < width:
                q = [rnd.randint(1, 3) for _ in range(width)]
                raw = [random_fraction(rnd, -2, 2) for _ in range(width)]
                mean = sum(qi * r for qi, r in zip(q, raw)) / sum(q)
                moves = [r - mean for r in raw]
            for c, move in enumerate(moves):
                prices = [parent.prices[0] + move]
                nodes.append(_node(f"{parent.node_id}{c}", parent.node_id, time, prices))
                next_frontier.append(nodes[-1])
        frontier = next_frontier
    weight = Fraction(1, len(frontier))
    return MarketTree(nodes, {leaf.node_id: weight for leaf in frontier})


def nonviable_tree() -> MarketTree:
    """Terminal prices >= 1 with strict gain on one leaf: an arbitrage."""
    nodes = [
        _node("root", None, 0, [1]),
        _node("u", "root", 1, [2]),
        _node("w", "root", 1, [1]),
    ]
    return MarketTree(nodes, {"u": Fraction(1, 2), "w": Fraction(1, 2)})


# One invocation per CLI command, all on checked-in fixtures; used both by the
# command tests and by the byte-determinism acceptance criterion.
CLI_FIXTURE_COMMANDS = [
    ("set-gauge", "body_cross.json", ["--point", "1,1"]),
    ("set-polar", "body_cross.json", ["--point", "4,0"]),
    ("set-solid-hull", "body_diag.json", ["--point", "1/2,-1/2"]),
    ("set-solid-check", "body_diag.json", []),
    ("risk-eval", "risk_axes.json", ["--point", "1,0"]),
    ("risk-conjugate", "risk_axes.json", ["--point", "1,1"]),
    ("risk-extend", "risk_span1.json", ["--point", "1,0", "--mode", "monotone"]),
    ("risk-fatou", "fatou_settled.json", []),
    ("market-emm", "market_trinomial.json", []),
    ("market-complete", "market_binomial.json", []),
    ("market-witness", "market_trinomial.json", []),
    ("market-attainable", "market_binomial.json", ["--point", "2,1/2"]),
    ("market-ball", "market_trinomial.json", []),
]
