"""Finite event-tree markets: martingale measures, attainability, the ball.

Trees have a single root, at least two children per internal node, and all
leaves on the terminal level; leaves are the atoms of the underlying space,
ordered by leaf id.  Prices are already discounted.  The set of equivalent
martingale measures is open; every optimisation here runs over its closure,
which is harmless because constancy of a linear functional over the closure
equals constancy over the (dense) set itself.

A tree never changes after construction, so what is derived from it is
computed on first use and kept: the tree keeps its strategy basis
(``strategy_basis``), its martingale measure set (``emm_set``) and its
viability certificate (one LP, ``viability_certificate``), and the set keeps
its unpinned atoms and its first split atom (the bounds LPs behind
``is_singleton`` and ``nonsolidity_witness``).  Every later analysis of the
same tree reuses them, so ``record_outcomes`` sees each of those LPs once
per tree.

The strategy basis, the one place that computes price moves, is the
constant 1 and the gains of holding one unit of one asset at one node only.
It spans the attainable claims, its gains are the martingale rows, and a
claim's coordinates in it are the capital and hedge ``attainable`` returns.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Mapping, Optional, Sequence

from . import linalg
from .bodies import AbsolutelyConvexBody
from .errors import CertificateError, PreconditionError, SpaceMismatchError, ValidationError
from .exactlp import LinearConstraint, LinearProgram, LPStatus, solve, vertex_enumeration
from .measure import FiniteProbabilitySpace, Measure, RandomVariable
from .rational import parse_rational

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class MarketNode:
    node_id: str
    parent: Optional[str]
    time: int
    prices: tuple[Fraction, ...]


class MarketTree:
    """Immutable finite event tree with adapted asset prices."""

    def __init__(self, nodes: Sequence[MarketNode], leaf_weights: Mapping[str, Fraction]):
        if not nodes:
            raise ValidationError("a market tree needs at least one node")
        by_id: dict[str, MarketNode] = {}
        for node in nodes:
            if node.node_id in by_id:
                raise ValidationError(f"duplicate node id {node.node_id!r}")
            by_id[node.node_id] = node
        roots = [n for n in nodes if n.parent is None]
        if len(roots) != 1:
            raise ValidationError("exactly one root node required")
        root = roots[0]
        if root.time != 0:
            raise ValidationError("the root must sit at time 0")
        children: dict[str, list[str]] = {n.node_id: [] for n in nodes}
        for node in nodes:
            if node.parent is not None:
                if node.parent not in by_id:
                    raise ValidationError(f"unknown parent {node.parent!r}")
                if node.time != by_id[node.parent].time + 1:
                    raise ValidationError("child time must be parent time + 1")
                children[node.parent].append(node.node_id)
        asset_count = len(root.prices)
        if asset_count < 1:
            raise ValidationError("at least one asset price per node required")
        for node in nodes:
            if len(node.prices) != asset_count:
                raise ValidationError("all nodes must price the same number of assets")
        leaf_ids = sorted(nid for nid, kids in children.items() if not kids)
        internal = [nid for nid, kids in children.items() if kids]
        for nid in internal:
            if len(children[nid]) < 2:
                raise ValidationError(f"internal node {nid!r} needs at least 2 children")
        terminal = max(n.time for n in nodes)
        for nid in leaf_ids:
            if by_id[nid].time != terminal:
                raise ValidationError("every leaf must sit at the terminal level")
        if set(leaf_weights) != set(leaf_ids):
            raise ValidationError("leaf weights must cover exactly the leaves")
        weights = tuple(leaf_weights[nid] for nid in leaf_ids)
        space = FiniteProbabilitySpace(tuple(leaf_ids), weights)

        kids_of = {nid: tuple(kids) for nid, kids in children.items()}
        # Leaves below every node, deepest level first, in child order.
        leaves: dict[str, tuple[str, ...]] = {}
        for node in sorted(nodes, key=lambda nd: -nd.time):
            kids = kids_of[node.node_id]
            leaves[node.node_id] = (
                tuple(leaf for kid in kids for leaf in leaves[kid]) if kids else (node.node_id,)
            )
        # Set once, past __setattr__; afterwards the tree is frozen.
        vars(self).update(
            _by_id=by_id,
            _children=kids_of,
            _leaves_below=leaves,
            nodes=tuple(nodes),
            root=root.node_id,
            asset_count=asset_count,
            terminal_time=terminal,
            space=space,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def node(self, node_id: str) -> MarketNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ValidationError(f"unknown node id {node_id!r}") from None

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    def internal_nodes(self) -> list[str]:
        ids = [nid for nid, kids in self._children.items() if kids]
        return sorted(ids, key=lambda nid: (self._by_id[nid].time, nid))

    def leaves_below(self, node_id: str) -> tuple[str, ...]:
        return self._leaves_below[node_id]

    # cached_property writes to vars(self) directly, past __setattr__.
    @cached_property
    def _strategy(self) -> StrategyBasis:
        """The strategy basis, built on first use: the constant, then per
        internal node (in ``internal_nodes`` order) and asset the leafwise
        one-step price move, which is also a martingale row of the node.
        """
        space = self.space
        elements = [RandomVariable.constant(space, 1)]
        labels = ["constant"]
        for nid in self.internal_nodes():
            prices = self._by_id[nid].prices
            for k in range(self.asset_count):
                values = [_F0] * space.size
                for kid in self._children[nid]:
                    move = self._by_id[kid].prices[k] - prices[k]
                    for leaf in self._leaves_below[kid]:
                        values[space.index(leaf)] = move
                elements.append(RandomVariable(space, tuple(values)))
                labels.append(f"{nid}/asset{k}")
        return StrategyBasis(space, tuple(elements), tuple(labels))

    @cached_property
    def _emm(self) -> MartingaleMeasureSet:
        """The martingale measure set, built on first use."""
        gains = self._strategy.elements[1:]
        return MartingaleMeasureSet(self.space, tuple(e.values for e in gains))

    @cached_property
    def _viability(self) -> tuple[Fraction, Optional[Measure]]:
        """The viability LP's slack and measure, solved on first use."""
        return _viability_lp(self)


@dataclass(frozen=True)
class StrategyBasis:
    """Terminal gains of the one-node-one-asset strategies plus the constant."""

    space: FiniteProbabilitySpace
    elements: tuple[RandomVariable, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class MartingaleMeasureSet:
    """Closure of the martingale measures, as exact equality rows over leaves."""

    space: FiniteProbabilitySpace
    rows: tuple[tuple[Fraction, ...], ...]

    def lp_constraints(self) -> list[LinearConstraint]:
        n = self.space.size
        out = [LinearConstraint(tuple([_F1] * n), "=", _F1)]
        for row in self.rows:
            out.append(LinearConstraint(row, "=", _F0))
        return out

    def contains(self, measure: Measure) -> bool:
        if measure.space != self.space:
            raise SpaceMismatchError("measure lives on a different space")
        if not measure.is_probability:
            return False
        for row in self.rows:
            if sum((c * q for c, q in zip(row, measure.weights)), _F0) != 0:
                return False
        return True

    def bounds(self, payoff: RandomVariable) -> tuple[Fraction, Fraction, Measure, Measure]:
        """Exact min and max of the payoff expectation over the closure."""
        if payoff.space != self.space:
            raise SpaceMismatchError("payoff lives on a different space")
        n = self.space.size
        rows = self.lp_constraints()
        lo = solve(LinearProgram.minimize(list(payoff.values), rows, lower=[_F0] * n))
        hi = solve(LinearProgram.minimize([-v for v in payoff.values], rows, lower=[_F0] * n))
        if lo.status is not LPStatus.OPTIMAL or hi.status is not LPStatus.OPTIMAL:
            raise PreconditionError("empty martingale measure set")
        return (
            lo.value,
            -hi.value,
            Measure(self.space, lo.point),
            Measure(self.space, hi.point),
        )

    @cached_property
    def _unpinned(self) -> tuple[tuple[str, RandomVariable], ...]:
        """Atoms whose mass the equality rows leave free, with their indicators.

        In atom order.  An atom is pinned when its indicator lies in the row
        span of the constraints: its mass is then constant on {Aq = b}, so
        constant on the closure, viable market or not.
        """
        # One echelon form of the rows; each indicator is reduced against it.
        kept = linalg._echelon([con.coefficients for con in self.lp_constraints()])
        unpinned = []
        for atom in self.space.atoms:
            indicator = RandomVariable.indicator(self.space, [atom])
            if any(linalg._reduce(kept, linalg._scaled(indicator.values)[0])):
                unpinned.append((atom, indicator))
        return tuple(unpinned)

    @cached_property
    def _first_split(self) -> Optional[Witness]:
        """The first unpinned atom whose mass the bounds split, or None.

        Solves two bounds LPs per unpinned atom up to the first split, and
        raises PreconditionError (from ``bounds``) if the closure is empty.
        """
        for atom, indicator in self._unpinned:
            low, high, m_low, m_high = self.bounds(indicator)
            if low != high:
                return Witness((atom,), indicator, low, high, m_low, m_high)
        return None

    def is_singleton(self) -> bool:
        """Whether the closure is one point; raises PreconditionError if empty.

        Bounds only the masses of unpinned atoms.  When every atom is pinned,
        {Aq = b} is at most one point, and the closure is that point if its
        masses are nonnegative.
        """
        if self._first_split is not None:
            return False
        if not self._unpinned:
            rows = self.lp_constraints()
            point = linalg.solve_exact(
                [con.coefficients for con in rows], [con.rhs for con in rows]
            )
            if point is None or any(q < 0 for q in point):
                raise PreconditionError("empty martingale measure set")
        return True

    def vertices(self) -> list[tuple[Fraction, ...]]:
        """The extreme measures of the closure, sorted; empty iff it is empty.

        ``vertex_enumeration`` solves no LP; the closure lies in the simplex,
        so it is bounded, and its size is limited only by the ray budget.
        """
        rows = self.lp_constraints()
        for atom in self.space.atoms:
            unit = RandomVariable.indicator(self.space, [atom]).values
            rows.append(LinearConstraint(unit, ">=", _F0))
        return vertex_enumeration(rows, self.space.size)

    def affine_dimension(self) -> int:
        points = self.vertices()
        if not points:
            return -1
        origin = points[0]
        diffs = [[p[i] - origin[i] for i in range(len(origin))] for p in points[1:]]
        return linalg.rank(diffs) if diffs else 0


@dataclass(frozen=True)
class Witness:
    """A non-solidity witness: an event whose measure splits the EMM set."""

    event: tuple[str, ...]
    indicator: RandomVariable
    q_min: Fraction
    q_max: Fraction
    measure_min: Measure
    measure_max: Measure


def emm_set(tree: MarketTree) -> MartingaleMeasureSet:
    """One equality row per internal node per asset, in leaf-mass variables.

    Built once per tree: every call on the same tree returns the same set.
    """
    return tree._emm


def viability_certificate(tree: MarketTree) -> tuple[Fraction, Optional[Measure]]:
    """max t subject to the EMM equalities and Q_i >= t; t > 0 iff viable.

    Returns the optimal slack and the maximising measure (None when even the
    closure is empty); the measure certifies viability whenever slack > 0.
    The LP is solved once per tree and the answer kept on the tree.
    """
    return tree._viability


def _viability_lp(tree: MarketTree) -> tuple[Fraction, Optional[Measure]]:
    emm = emm_set(tree)
    n = tree.space.size
    rows = []
    for con in emm.lp_constraints():
        rows.append(LinearConstraint(con.coefficients + (_F0,), con.relation, con.rhs))
    for i in range(n):
        coeffs = [_F0] * (n + 1)
        coeffs[i] = _F1
        coeffs[n] = -_F1
        rows.append(LinearConstraint(tuple(coeffs), ">=", _F0))
    objective = [_F0] * n + [-_F1]
    lp = LinearProgram.minimize(objective, rows, lower=[_F0] * n + [_F0])
    outcome = solve(lp)
    if outcome.status is LPStatus.INFEASIBLE:
        return _F0, None
    if outcome.status is not LPStatus.OPTIMAL:
        raise CertificateError("viability LP reported unbounded over the simplex")
    slack = -outcome.value
    measure = Measure(tree.space, outcome.point[:n])
    return slack, measure


def viability(tree: MarketTree) -> bool:
    """Whether an equivalent martingale measure exists (all leaf masses > 0)."""
    slack, _measure = viability_certificate(tree)
    return slack > 0


def _require_viable(tree: MarketTree) -> None:
    if not viability(tree):
        raise PreconditionError("market is not viable: no equivalent martingale measure")


def strategy_basis(tree: MarketTree) -> StrategyBasis:
    """Constant 1 plus the terminal gain of each elementary one-step strategy.

    Built once per tree: every call on the same tree returns the same basis.
    """
    return tree._strategy


def attainable(
    tree: MarketTree, xi: RandomVariable
) -> tuple[bool, Optional[tuple[Fraction, dict[str, tuple[Fraction, ...]]]]]:
    """Attainability and hedge as the claim's coordinates in the strategy basis.

    Returns (True, (a, hedge)) with xi = a + accumulated hedge gains exactly,
    or (False, None).  One exact solve writes xi in the tree's basis: the
    coordinate of the constant is the initial capital a, and the hedge maps
    each internal node to the coordinates of its asset gains.  Coordinates
    of gains that depend on earlier basis elements are 0.
    """
    if xi.space != tree.space:
        raise SpaceMismatchError("claim lives on a different space")
    _require_viable(tree)
    columns = [e.values for e in strategy_basis(tree).elements]
    coords = linalg.solve_exact(list(zip(*columns)), xi.values)
    if coords is None:
        return False, None
    m = tree.asset_count
    hedge = {
        nid: tuple(coords[1 + i * m : 1 + (i + 1) * m])
        for i, nid in enumerate(tree.internal_nodes())
    }
    return True, (coords[0], hedge)


def replicates(
    tree: MarketTree,
    initial: Fraction,
    hedge: Mapping[str, Sequence[Fraction]],
    xi: RandomVariable,
) -> bool:
    """Exact check that the strategy reproduces the claim leaf by leaf.

    The hedge must hold ``asset_count`` assets at every internal node, and
    at no other node id.
    """
    if xi.space != tree.space:
        raise SpaceMismatchError("claim lives on a different space")
    internal = tree.internal_nodes()
    for nid in internal:
        if nid not in hedge:
            raise ValidationError(f"hedge has no holding for internal node {nid!r}")
        if len(hedge[nid]) != tree.asset_count:
            raise ValidationError(f"holding at node {nid!r} needs {tree.asset_count} asset(s)")
    if len(hedge) != len(internal):
        extra = next(nid for nid in hedge if nid not in internal)
        raise ValidationError(f"hedge holds {extra!r}, which is not an internal node")
    value: dict[str, Fraction] = {tree.root: initial}
    order = sorted(tree.nodes, key=lambda nd: (nd.time, nd.node_id))
    for node in order:
        if node.parent is None:
            continue
        parent = tree.node(node.parent)
        holding = hedge[parent.node_id]
        gain = sum(
            (Fraction(h) * (node.prices[k] - parent.prices[k]) for k, h in enumerate(holding)),
            _F0,
        )
        value[node.node_id] = value[parent.node_id] + gain
    return all(
        value[leaf] == xi.values[tree.space.index(leaf)] for leaf in tree.space.atoms
    )


def attainable_ball(tree: MarketTree) -> AbsolutelyConvexBody:
    """The attainable claims with sup-norm at most 1, in generator form.

    Intersects span(strategy gains + constant) with the unit box in span
    coordinates and converts to generators by vertex enumeration, which
    solves no LP and raises PreconditionError past its ray budget.  The box
    pulls back through an independent basis, so the region is bounded, and
    it is nonempty, since it holds 0.
    """
    _require_viable(tree)
    basis_rows = [list(e.values) for e in strategy_basis(tree).elements]
    kept = linalg.independent_rows(basis_rows)
    basis = [basis_rows[i] for i in kept]
    columns = list(zip(*basis))  # one per atom
    rows = []
    for coeffs in columns:
        rows.append(LinearConstraint(coeffs, "<=", _F1))
        rows.append(LinearConstraint(tuple(-c for c in coeffs), "<=", _F1))
    # Claim values over one denominator: basis row i is B_i / d_i, and a
    # vertex c maps to sum_i (c_i / d_i) B_i = sum_i W_i B_i / D.
    scaled = [linalg._scaled(row) for row in basis]
    int_columns = list(zip(*[ints for ints, _d in scaled]))  # one per atom
    generators: list[RandomVariable] = []
    for vertex in vertex_enumeration(rows, len(basis)):
        # The box is symmetric and c -> B^T c is injective, so the vertices
        # come in +/- pairs; the member with a negative leading coordinate
        # sorts first and stands for the pair.
        if next(v for v in vertex if v) > 0:
            continue
        weights, den = linalg._scaled([v / d for v, (_ints, d) in zip(vertex, scaled)])
        nums = [sum(map(mul, weights, column)) for column in int_columns]
        sign = -1 if next(v for v in nums if v) < 0 else 1
        generators.append(
            RandomVariable(tree.space, tuple(Fraction(sign * v, den) for v in nums))
        )
    return AbsolutelyConvexBody(tree.space, tuple(generators))


def nonsolidity_witness(tree: MarketTree) -> Optional[Witness]:
    """First singleton whose EMM mass is non-constant; None iff market complete.

    Scans singletons in atom order; the two extremal measures certify the
    split.  Atoms whose mass the martingale rows pin are skipped without an
    LP.  Larger events need no scan: the EMM set lies in the simplex, so
    once every singleton's mass is pinned it is a single point.  The scan
    runs once per tree and is shared with ``is_singleton``.
    """
    _require_viable(tree)
    return emm_set(tree)._first_split


def market_tree_from_rows(
    nodes: Sequence[tuple[str, Optional[str], int, Sequence[object]]],
    leaf_weights: Mapping[str, object],
) -> MarketTree:
    built = [
        MarketNode(nid, parent, time, tuple(parse_rational(p) for p in prices))
        for nid, parent, time, prices in nodes
    ]
    weights = {nid: parse_rational(w) for nid, w in leaf_weights.items()}
    return MarketTree(built, weights)
