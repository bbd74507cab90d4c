"""Market trees: martingale polytopes, attainability, the non-solid ball."""

import copy
import dataclasses
import pickle
import random
import threading
from fractions import Fraction
from itertools import combinations

import pytest

from riskspan import (
    FiniteProbabilitySpace,
    LinearConstraint,
    LinearProgram,
    LPStatus,
    MarketNode,
    MarketTree,
    Measure,
    PreconditionError,
    RandomVariable,
    SpaceMismatchError,
    ValidationError,
    attainable,
    attainable_ball,
    emm_set,
    member,
    nonsolidity_witness,
    record_outcomes,
    replicates,
    solid_check,
    solid_hull_member,
    solve,
    span_basis,
    strategy_basis,
    viability,
    viability_certificate,
    vertex_enumeration,
)
from riskspan import linalg
import fraction_reference as ref
from support import (
    binomial_tree,
    branching_tree,
    no_trading_tree,
    nonviable_tree,
    random_fraction,
    random_rv,
    random_tree,
    single_node_tree,
    trinomial_tree,
    two_period_tree,
)


class TestTreeValidation:
    def test_two_roots_rejected(self):
        nodes = [
            MarketNode("r1", None, 0, (Fraction(1),)),
            MarketNode("r2", None, 0, (Fraction(1),)),
        ]
        with pytest.raises(ValidationError):
            MarketTree(nodes, {"r1": Fraction(1, 2), "r2": Fraction(1, 2)})

    def test_single_child_rejected(self):
        nodes = [
            MarketNode("root", None, 0, (Fraction(1),)),
            MarketNode("only", "root", 1, (Fraction(1),)),
        ]
        with pytest.raises(ValidationError):
            MarketTree(nodes, {"only": Fraction(1)})

    def test_ragged_leaves_rejected(self):
        nodes = [
            MarketNode("root", None, 0, (Fraction(1),)),
            MarketNode("a", "root", 1, (Fraction(2),)),
            MarketNode("b", "root", 1, (Fraction(1),)),
            MarketNode("aa", "a", 2, (Fraction(2),)),
            MarketNode("ab", "a", 2, (Fraction(1),)),
        ]
        with pytest.raises(ValidationError):
            MarketTree(
                nodes, {"aa": Fraction(1, 3), "ab": Fraction(1, 3), "b": Fraction(1, 3)}
            )

    def test_weights_must_cover_leaves(self):
        nodes = [
            MarketNode("root", None, 0, (Fraction(1),)),
            MarketNode("a", "root", 1, (Fraction(2),)),
            MarketNode("b", "root", 1, (Fraction(1),)),
        ]
        with pytest.raises(ValidationError):
            MarketTree(nodes, {"a": Fraction(1)})

    def test_atoms_ordered_by_leaf_id(self):
        tree = trinomial_tree()
        assert tree.space.atoms == ("u", "v", "w")

    def test_leaves_below_is_fixed_at_construction(self):
        def collect(tree, nid):
            kids = tree.children(nid)
            return tuple(leaf for kid in kids for leaf in collect(tree, kid)) if kids else (nid,)

        tree = two_period_tree()
        state = copy.deepcopy(vars(tree))
        assert tree.leaves_below("root") == ("aa", "ab", "ba", "bb")
        assert tree.leaves_below("b") == ("ba", "bb")
        assert tree.leaves_below("ab") == ("ab",)
        rnd = random.Random(61)
        for other in [tree] + [random_tree(rnd) for _ in range(20)]:
            for node in other.nodes:
                assert other.leaves_below(node.node_id) == collect(other, node.node_id)
        # Lookups write nothing back into the tree.
        assert vars(tree) == state

    def test_tree_is_frozen_after_construction(self):
        tree = trinomial_tree()
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.space = binomial_tree().space
        with pytest.raises(AttributeError):
            del tree.nodes
        with pytest.raises(AttributeError):
            tree.extra = 1
        assert tree.space.atoms == ("u", "v", "w") and len(tree.nodes) == 4
        assert emm_set(tree).vertices() == emm_set(trinomial_tree()).vertices()


class TestEmmSet:
    def test_binomial_unique_measure(self):
        emm = emm_set(binomial_tree())
        assert emm.vertices() == [(Fraction(1, 3), Fraction(2, 3))]
        assert emm.is_singleton()
        assert emm.affine_dimension() == 0

    def test_trinomial_segment(self):
        emm = emm_set(trinomial_tree())
        assert emm.vertices() == [
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
        ]
        assert emm.affine_dimension() == 1

    def test_single_node_tree_is_the_whole_simplex(self):
        emm = emm_set(single_node_tree())
        assert emm.rows == ()
        assert emm.vertices() == [(Fraction(1),)]

    def test_no_trading_tree_is_the_whole_simplex(self):
        emm = emm_set(no_trading_tree())
        assert set(emm.vertices()) == {
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
        }

    def test_complete_is_singleton_solves_no_lp(self):
        outcomes: list = []
        with record_outcomes(outcomes):
            assert emm_set(two_period_tree()).is_singleton()
        assert outcomes == []

    def test_vertices_solve_no_lp(self):
        outcomes: list = []
        with record_outcomes(outcomes):
            vertices = emm_set(two_period_tree()).vertices()
        assert len(vertices) == 1
        assert outcomes == []

    def test_nine_leaf_polytope_matches_the_brute_force(self):
        # Two trinomial periods: 9 atoms, above the old cap of 8, and 4 free
        # dimensions (9 atoms less 1 + 4 independent martingale rows).
        tree = branching_tree(random.Random(9), (3, 3))
        emm = emm_set(tree)
        rows = emm.lp_constraints()
        for atom in tree.space.atoms:
            unit = RandomVariable.indicator(tree.space, [atom]).values
            rows.append(LinearConstraint(unit, ">=", Fraction(0)))
        vertices = emm.vertices()
        assert len(vertices) > 1
        assert vertices == ref.vertex_enumeration(rows, 9)
        assert emm.affine_dimension() == 4

    def test_contains_checks_rows_exactly(self):
        tree = binomial_tree()
        emm = emm_set(tree)
        assert emm.contains(Measure(tree.space, (Fraction(1, 3), Fraction(2, 3))))
        assert not emm.contains(Measure(tree.space, (Fraction(1, 2), Fraction(1, 2))))

    def test_returned_measures_satisfy_rows_exactly(self):
        for tree in (binomial_tree(), trinomial_tree(), two_period_tree()):
            emm = emm_set(tree)
            payoff = RandomVariable.of(tree.space, list(range(tree.space.size)))
            _lo, _hi, m_lo, m_hi = emm.bounds(payoff)
            assert emm.contains(m_lo) and emm.contains(m_hi)


class TestViability:
    def test_binomial_viable(self):
        slack, measure = viability_certificate(binomial_tree())
        assert slack == Fraction(1, 3)
        assert measure.weights == (Fraction(1, 3), Fraction(2, 3))

    def test_arbitrage_detected(self):
        assert not viability(nonviable_tree())

    def test_constant_prices_viable(self):
        assert viability(no_trading_tree())

    def test_ops_require_viability(self):
        tree = nonviable_tree()
        with pytest.raises(PreconditionError):
            attainable(tree, RandomVariable.zero(tree.space))
        with pytest.raises(PreconditionError):
            attainable_ball(tree)
        with pytest.raises(PreconditionError):
            nonsolidity_witness(tree)


class TestAttainable:
    def test_terminal_price_replicates_itself(self):
        tree = binomial_tree()
        xi = RandomVariable.of(tree.space, [2, "1/2"])
        ok, detail = attainable(tree, xi)
        assert ok
        initial, hedge = detail
        assert initial == 1
        assert hedge["root"] == (Fraction(1),)
        assert replicates(tree, initial, hedge, xi)

    def test_hedge_with_an_unknown_node_is_rejected(self):
        tree = binomial_tree()
        xi = RandomVariable.of(tree.space, [2, "1/2"])
        _ok, (initial, hedge) = attainable(tree, xi)
        for extra in ("nosuch", "u"):  # an unknown id, and a leaf
            with pytest.raises(ValidationError, match=repr(extra)):
                replicates(tree, initial, {**hedge, extra: (Fraction(5), Fraction(6))}, xi)
        assert replicates(tree, initial, hedge, xi)

    def test_trinomial_indicator_not_attainable(self):
        tree = trinomial_tree()
        ok, detail = attainable(tree, RandomVariable.indicator(tree.space, ["u"]))
        assert not ok and detail is None

    def test_constants_attainable_with_zero_hedge(self):
        tree = trinomial_tree()
        c = Fraction(7, 2)
        ok, detail = attainable(tree, RandomVariable.constant(tree.space, c))
        assert ok
        initial, hedge = detail
        assert initial == c
        assert all(h == (Fraction(0),) for h in hedge.values())

    def test_two_period_claims(self):
        tree = two_period_tree()
        # terminal asset price is attainable with unit hedge at every node
        prices = [tree.node(leaf).prices[0] for leaf in tree.space.atoms]
        xi = RandomVariable(tree.space, tuple(prices))
        ok, detail = attainable(tree, xi)
        assert ok
        initial, hedge = detail
        assert initial == 1
        assert replicates(tree, initial, hedge, xi)
        assert all(h == (Fraction(1),) for h in hedge.values())

    def test_solves_only_the_viability_lp(self):
        tree = binomial_tree()
        outcomes: list = []
        with record_outcomes(outcomes):
            ok, _detail = attainable(tree, RandomVariable.of(tree.space, [2, "1/2"]))
        assert ok
        assert len(outcomes) == 1

    def test_agrees_with_matching_expectation_bounds(self):
        # A claim is attainable iff its price is the same under every
        # martingale measure; the bounds LPs serve only as the oracle here.
        rnd = random.Random(11)
        for _ in range(30):
            tree = random_tree(rnd)
            xi = random_rv(rnd, tree.space)
            low, high, _m1, _m2 = emm_set(tree).bounds(xi)
            ok, detail = attainable(tree, xi)
            assert ok == (low == high)
            if ok:
                assert detail[0] == low
                assert replicates(tree, detail[0], detail[1], xi)

    def test_random_span_claims_replicate_exactly(self):
        rnd = random.Random(13)
        for tree in (binomial_tree(), two_period_tree()):
            basis = strategy_basis(tree)
            for _ in range(10):
                xi = RandomVariable.zero(tree.space)
                for element in basis.elements:
                    xi = xi + element.scaled(random_fraction(rnd))
                ok, detail = attainable(tree, xi)
                assert ok
                initial, hedge = detail
                assert replicates(tree, initial, hedge, xi)

    def test_attainable_iff_in_ball_span(self):
        rnd = random.Random(87)
        for tree in (binomial_tree(), trinomial_tree()):
            subspace = span_basis(attainable_ball(tree))
            for _ in range(12):
                xi = RandomVariable(
                    tree.space,
                    tuple(random_fraction(rnd) for _ in tree.space.atoms),
                )
                assert attainable(tree, xi)[0] == subspace.contains(xi)


class TestReplicatesChecksItsInputs:
    """A claim on another space, or a hedge without ``asset_count`` assets at
    every internal node, is refused rather than read."""

    @staticmethod
    def _replicated(seed: int):
        rnd = random.Random(seed)
        tree = random_tree(rnd)
        xi = RandomVariable.zero(tree.space)
        for element in strategy_basis(tree).elements:
            xi = xi + element.scaled(random_fraction(rnd))
        ok, (initial, hedge) = attainable(tree, xi)
        assert ok and replicates(tree, initial, hedge, xi)
        return tree, initial, hedge, xi

    def test_claim_on_another_space_of_the_same_size(self):
        tree, initial, hedge, xi = self._replicated(31)
        other = FiniteProbabilitySpace.uniform([f"x{i}" for i in range(tree.space.size)])
        with pytest.raises(SpaceMismatchError):
            replicates(tree, initial, hedge, RandomVariable(other, xi.values))

    def test_hedge_missing_a_node(self):
        tree, initial, hedge, xi = self._replicated(32)
        partial = dict(hedge)
        del partial[tree.internal_nodes()[-1]]
        with pytest.raises(ValidationError, match="no holding"):
            replicates(tree, initial, partial, xi)

    def test_holding_longer_than_the_asset_count(self):
        tree, initial, hedge, xi = self._replicated(33)
        longer = {nid: h + (Fraction(1),) for nid, h in hedge.items()}
        with pytest.raises(ValidationError, match="asset"):
            replicates(tree, initial, longer, xi)

    def test_empty_holding(self):
        tree = binomial_tree()
        claim = RandomVariable.constant(tree.space, 3)
        with pytest.raises(ValidationError, match="asset"):
            replicates(tree, Fraction(3), {"root": ()}, claim)


class TestAttainableBall:
    def test_binomial_ball_is_the_sup_ball(self):
        ball = attainable_ball(binomial_tree())
        assert {g.values for g in ball.generators} == {
            (Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(-1)),
        }

    def test_trinomial_ball_is_two_dimensional(self):
        ball = attainable_ball(trinomial_tree())
        assert span_basis(ball).dimension == 2
        for g in ball.generators:
            assert max(abs(v) for v in g.values) <= 1
            assert attainable(trinomial_tree(), g)[0]

    def test_ball_solves_only_the_viability_lp(self):
        # The box in span coordinates is bounded and holds 0 by construction.
        outcomes: list = []
        with record_outcomes(outcomes):
            attainable_ball(two_period_tree())
        assert len(outcomes) == 1

    def test_sixteen_leaf_ball_enumerates_without_lp(self):
        # Two periods of four branches: span dimension 6, 16 atoms.  The
        # optimum of each linear objective over the box in span coordinates
        # is the least value over its vertices.
        tree = branching_tree(random.Random(16), (4, 4))
        gains = [list(e.values) for e in strategy_basis(tree).elements]
        basis = [gains[i] for i in linalg.independent_rows(gains)]
        rows = [
            LinearConstraint(tuple(sign * c for c in column), "<=", Fraction(1))
            for column in zip(*basis)
            for sign in (1, -1)
        ]
        outcomes: list = []
        with record_outcomes(outcomes):
            vertices = vertex_enumeration(rows, len(basis))
        assert outcomes == [] and len(basis) == 6
        rnd = random.Random(17)
        for _ in range(25):
            objective = [random_fraction(rnd) for _ in basis]
            out = solve(LinearProgram.minimize(objective, rows))
            assert out.status is LPStatus.OPTIMAL
            assert out.value == min(sum(c * v for c, v in zip(objective, p)) for p in vertices)
        # The ball's generators are the claims of one vertex from each +/- pair.
        columns = list(zip(*basis))
        claims = {tuple(sum(c * v for c, v in zip(col, p)) for col in columns) for p in vertices}
        generators = attainable_ball(tree).generators
        assert 2 * len(generators) == len(vertices)
        assert all(g.values in claims for g in generators)

    def test_generators_are_the_claims_of_one_vertex_per_pair(self):
        # Oracle: each kept vertex mapped to claim values by Fraction sums.
        rnd = random.Random(25)
        for _ in range(40):
            tree = random_tree(rnd)
            gains = [list(e.values) for e in strategy_basis(tree).elements]
            basis = [gains[i] for i in linalg.independent_rows(gains)]
            columns = list(zip(*basis))
            rows = [
                LinearConstraint(tuple(sign * c for c in column), "<=", Fraction(1))
                for column in columns
                for sign in (1, -1)
            ]
            expected = []
            for vertex in vertex_enumeration(rows, len(basis)):
                if next(v for v in vertex if v) > 0:
                    continue
                values = [sum(c * v for c, v in zip(column, vertex)) for column in columns]
                if next(v for v in values if v) < 0:
                    values = [-v for v in values]
                expected.append(tuple(values))
            assert [g.values for g in attainable_ball(tree).generators] == expected

    def test_no_trading_ball_is_the_constant_segment(self):
        ball = attainable_ball(no_trading_tree())
        assert [g.values for g in ball.generators] == [(Fraction(1), Fraction(1))]


class TestNonsolidityWitness:
    def test_binomial_complete_no_witness(self):
        assert nonsolidity_witness(binomial_tree()) is None

    def test_trinomial_witness_is_the_up_event(self):
        w = nonsolidity_witness(trinomial_tree())
        assert w.event == ("u",)
        assert (w.q_min, w.q_max) == (Fraction(0), Fraction(1, 3))
        emm = emm_set(trinomial_tree())
        assert emm.contains(w.measure_min) and emm.contains(w.measure_max)
        ind = w.indicator
        assert sum(q * v for q, v in zip(w.measure_min.weights, ind.values)) == w.q_min
        assert sum(q * v for q, v in zip(w.measure_max.weights, ind.values)) == w.q_max

    def test_no_trading_witness_is_a_singleton(self):
        w = nonsolidity_witness(no_trading_tree())
        assert w.event == ("u",)
        assert (w.q_min, w.q_max) == (Fraction(0), Fraction(1))

    def test_witness_coherence_with_the_ball(self):
        tree = trinomial_tree()
        w = nonsolidity_witness(tree)
        ball = attainable_ball(tree)
        inside, _g = solid_hull_member(ball, w.indicator)
        assert inside
        assert not member(ball, w.indicator)

    def test_complete_tree_costs_only_the_viability_lp(self):
        # Every atom's mass is pinned by the martingale rows, so no bounds.
        tree = two_period_tree()
        outcomes: list = []
        with record_outcomes(outcomes):
            assert nonsolidity_witness(tree) is None
        assert len(outcomes) == 1

    def test_singleton_scan_against_all_events(self):
        # Brute-force oracle: no event of any size splits exactly when the
        # singleton scan finds no witness.
        rnd = random.Random(7)
        for _ in range(20):
            tree = random_tree(rnd)
            emm = emm_set(tree)
            atoms = tree.space.atoms

            def splits(event):
                low, high, _m1, _m2 = emm.bounds(RandomVariable.indicator(tree.space, event))
                return low != high

            any_split = any(
                splits(event)
                for size in range(1, len(atoms))
                for event in combinations(atoms, size)
            )
            assert (nonsolidity_witness(tree) is None) == (not any_split)

    def test_completeness_trichotomy(self):
        for tree, complete in (
            (binomial_tree(), True),
            (trinomial_tree(), False),
            (no_trading_tree(), False),
            (two_period_tree(), True),
        ):
            emm = emm_set(tree)
            witness = nonsolidity_witness(tree)
            assert (witness is None) == complete
            assert emm.is_singleton() == complete
            solid, _counter = solid_check(attainable_ball(tree))
            assert solid == complete


class TestStrategyBasis:
    def test_gains_have_zero_expectation_under_every_emm_vertex(self):
        for tree in (binomial_tree(), trinomial_tree(), two_period_tree()):
            emm = emm_set(tree)
            basis = strategy_basis(tree)
            for vertex in emm.vertices():
                for element, label in zip(basis.elements, basis.labels):
                    value = sum(q * v for q, v in zip(vertex, element.values))
                    if label == "constant":
                        assert value == 1
                    else:
                        assert value == 0


class TestPinnedAtoms:
    """Skipping pinned atoms leaves every answer of the full atom scan."""

    @staticmethod
    def _drifted(tree: MarketTree, rnd: random.Random) -> MarketTree:
        """The tree with one leaf price moved: often non-viable or empty."""
        leaf = rnd.choice(tree.space.atoms)
        nodes = [
            dataclasses.replace(nd, prices=(nd.prices[0] + 1,) + nd.prices[1:])
            if nd.node_id == leaf
            else nd
            for nd in tree.nodes
        ]
        return MarketTree(nodes, dict(zip(tree.space.atoms, tree.space.weights)))

    @staticmethod
    def _singleton_or_error(is_singleton):
        try:
            return is_singleton()
        except PreconditionError as exc:
            return str(exc)

    def test_scans_match_the_full_atom_scan(self):
        rnd = random.Random(8)
        outcomes = set()
        for _ in range(120):
            tree = random_tree(rnd)
            for candidate in (tree, self._drifted(tree, rnd)):
                emm = emm_set(candidate)
                got = self._singleton_or_error(emm.is_singleton)
                assert got == self._singleton_or_error(lambda: ref.is_singleton(emm))
                outcomes.add(got)
                if viability(candidate):
                    assert nonsolidity_witness(candidate) == ref.nonsolidity_witness(candidate)
        assert outcomes == {True, False, "empty martingale measure set"}

    def test_nonviable_point_closure_is_a_singleton(self):
        # Two assets on a trinomial: q_u = 0 and q_v = q_u, so the closure is
        # the point (0, 0, 1) with two zero masses, and every atom is pinned.
        tree = MarketTree(
            [
                MarketNode("root", None, 0, (Fraction(1), Fraction(1))),
                MarketNode("u", "root", 1, (Fraction(2), Fraction(2))),
                MarketNode("v", "root", 1, (Fraction(1), Fraction(0))),
                MarketNode("w", "root", 1, (Fraction(1), Fraction(1))),
            ],
            {"u": Fraction(1, 3), "v": Fraction(1, 3), "w": Fraction(1, 3)},
        )
        emm = emm_set(tree)
        assert not viability(tree)
        outcomes: list = []
        with record_outcomes(outcomes):
            assert emm.is_singleton()
        assert outcomes == []
        assert ref.is_singleton(emm)
        assert emm.vertices() == [(Fraction(0), Fraction(0), Fraction(1))]

    def test_empty_pinned_closure_raises_like_the_full_scan(self):
        # Both trees have martingale rows of full rank: the first solves to
        # a negative mass, the second (sum 1 against a move of +1 on every
        # leaf) has no solution at all.
        negative = MarketTree(
            [
                MarketNode("root", None, 0, (Fraction(1),)),
                MarketNode("u", "root", 1, (Fraction(2),)),
                MarketNode("w", "root", 1, (Fraction(3),)),
            ],
            {"u": Fraction(1, 2), "w": Fraction(1, 2)},
        )
        inconsistent = MarketTree(
            [
                MarketNode("root", None, 0, (Fraction(1), Fraction(1))),
                MarketNode("u", "root", 1, (Fraction(2), Fraction(2))),
                MarketNode("w", "root", 1, (Fraction(0), Fraction(2))),
            ],
            {"u": Fraction(1, 2), "w": Fraction(1, 2)},
        )
        for tree in (negative, inconsistent):
            emm = emm_set(tree)
            outcomes: list = []
            with record_outcomes(outcomes):
                with pytest.raises(PreconditionError) as got:
                    emm.is_singleton()
            assert outcomes == []
            with pytest.raises(PreconditionError) as expected:
                ref.is_singleton(emm)
            assert str(got.value) == str(expected.value) == "empty martingale measure set"


def _market_op(tree, claim, second):
    """The calls of one perfbench ``market_tree`` op, in its order."""
    slack, sample = viability_certificate(tree)
    emm = emm_set(tree)
    return (
        slack,
        sample,
        emm.is_singleton(),
        nonsolidity_witness(tree),
        attainable(tree, claim),
        attainable(tree, second),
        attainable_ball(tree).generators,
        emm.vertices(),
    )


class TestTreeCache:
    """The EMM set, its viability certificate and its first split are kept."""

    def test_one_op_solves_the_viability_lp_and_the_first_split_once(self):
        rnd = random.Random(21)
        trees = [trinomial_tree(), binomial_tree(), two_period_tree(), no_trading_tree()]
        trees += [random_tree(rnd) for _ in range(30)]
        seen = set()
        for tree in trees:
            n = tree.space.size
            claims = [random_rv(rnd, tree.space) for _ in range(2)]
            outcomes: list = []
            with record_outcomes(outcomes):
                result = _market_op(tree, *claims)
            complete = result[2]
            # The viability LP has one variable more than a bounds LP.
            assert [len(lp.objective) for lp, _out in outcomes] == (
                [n + 1] if complete else [n + 1, n, n]
            )
            again: list = []
            with record_outcomes(again):
                assert _market_op(tree, *claims) == result
            assert again == []
            seen.add(complete)
        assert seen == {True, False}

    def test_emm_set_is_built_once_per_tree(self):
        tree = trinomial_tree()
        assert emm_set(tree) is emm_set(tree)
        assert emm_set(tree) == emm_set(trinomial_tree())
        assert emm_set(tree) is not emm_set(trinomial_tree())

    def test_strategy_basis_is_built_once_and_gives_the_emm_rows(self):
        rnd = random.Random(25)
        for tree in [two_period_tree(), single_node_tree()] + [random_tree(rnd) for _ in range(20)]:
            basis = strategy_basis(tree)
            assert basis is strategy_basis(tree)
            assert emm_set(tree).rows == tuple(e.values for e in basis.elements[1:])

    def test_cached_values_cannot_be_reassigned(self):
        tree = trinomial_tree()
        emm = emm_set(tree)
        basis = strategy_basis(tree)
        certificate = viability_certificate(tree)
        witness = nonsolidity_witness(tree)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree._viability = (Fraction(0), None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree._emm = emm_set(binomial_tree())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del tree._emm
        with pytest.raises(dataclasses.FrozenInstanceError):
            del tree._viability
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree._strategy = strategy_basis(binomial_tree())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del tree._strategy
        with pytest.raises(dataclasses.FrozenInstanceError):
            emm._first_split = None
        assert emm_set(tree) is emm and strategy_basis(tree) is basis
        assert viability_certificate(tree) == certificate and viability(tree)
        assert nonsolidity_witness(tree) == witness

    def test_pickled_tree_gives_equal_results(self):
        rnd = random.Random(22)
        trees = [trinomial_tree(), two_period_tree()] + [random_tree(rnd) for _ in range(10)]
        for tree in trees:
            claims = [random_rv(rnd, tree.space) for _ in range(2)]
            fresh = pickle.loads(pickle.dumps(tree))
            before = _market_op(tree, *claims)
            used = pickle.loads(pickle.dumps(tree))
            assert vars(used)["_strategy"] == strategy_basis(tree)
            outcomes: list = []
            with record_outcomes(outcomes):
                assert _market_op(used, *claims) == before
            # The pickle carries the cached basis, certificate and split.
            assert outcomes == []
            assert _market_op(fresh, *claims) == before
        tree = nonviable_tree()
        certificate = viability_certificate(tree)
        restored = pickle.loads(pickle.dumps(tree))
        assert viability_certificate(restored) == certificate and certificate[0] == 0
        with pytest.raises(PreconditionError):
            nonsolidity_witness(restored)

    def test_threads_sharing_a_tree_get_equal_witnesses(self):
        tree = branching_tree(random.Random(24), (3, 3))
        expected = nonsolidity_witness(branching_tree(random.Random(24), (3, 3)))
        assert expected is not None
        barrier = threading.Barrier(4)
        results: list = [None] * 4

        def work(slot):
            barrier.wait()
            results[slot] = nonsolidity_witness(tree)

        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [expected] * 4

