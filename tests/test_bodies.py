"""Gauges, polars, spans, solid hulls, and the solidity test."""

import pickle
import random
from fractions import Fraction

import pytest

import riskspan
from riskspan import (
    INF,
    AbsolutelyConvexBody,
    FiniteProbabilitySpace,
    LinearConstraint,
    LinearProgram,
    LPStatus,
    PreconditionError,
    RandomVariable,
    ValidationError,
    abs_pairing,
    bipolar_member,
    gauge,
    member,
    polar_gauge,
    record_outcomes,
    solid_check,
    solid_hull,
    solid_hull_member,
    solve,
    span_basis,
)
from support import random_body, random_member, random_rv, random_space


def uniform(n):
    return FiniteProbabilitySpace.uniform([chr(ord("a") + i) for i in range(n)])


def cross_body(sp):
    return AbsolutelyConvexBody.of(sp, [[1, 0], [0, 1]])


def diag_body(sp):
    return AbsolutelyConvexBody.of(sp, [[1, 1]])


class TestGauge:
    def test_cross_corner(self):
        sp = uniform(2)
        assert gauge(cross_body(sp), RandomVariable.of(sp, [1, 1])) == 2

    def test_homogeneity_on_generator(self):
        sp = uniform(2)
        K = cross_body(sp)
        assert gauge(K, K.generators[0].scaled(Fraction(1, 2))) == Fraction(1, 2)

    def test_zero(self):
        sp = uniform(2)
        assert gauge(cross_body(sp), RandomVariable.zero(sp)) == 0

    def test_off_span_is_infinite(self):
        sp = uniform(2)
        assert gauge(diag_body(sp), RandomVariable.of(sp, [1, 0])) is INF

    def test_gauge_by_dual_route(self):
        # Independent oracle: p_K(x) = max x.y subject to |v_j.y| <= 1 (plain dots).
        rnd = random.Random(41)
        checked = 0
        while checked < 40:
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 3)
            x = random_member(rnd, K).scaled(rnd.choice((1, 2, 3)))
            rows = []
            for g in K.generators:
                rows.append(LinearConstraint(tuple(g.values), "<=", Fraction(1)))
                rows.append(LinearConstraint(tuple(-v for v in g.values), "<=", Fraction(1)))
            out = solve(LinearProgram.minimize([-v for v in x.values], tuple(rows)))
            if out.status is not LPStatus.OPTIMAL:
                continue  # support problem unbounded off the span; skip
            checked += 1
            assert gauge(K, x) == -out.value

    def test_coordinates_are_kept_on_the_body(self):
        sp = uniform(3)
        K = AbsolutelyConvexBody.of(sp, [[1, Fraction(1, 2), 0], [0, 2, -1]])
        x = RandomVariable.of(sp, [Fraction(3, 2), Fraction(19, 4), -2])  # 3/2 v_1 + 2 v_2
        with record_outcomes([]) as lps:
            assert gauge(K, x) == Fraction(7, 2)
        assert lps == []
        assert K._coordinates is K.__dict__["_coordinates"]
        used = pickle.loads(pickle.dumps(K))
        assert used == K and "_coordinates" in used.__dict__
        assert gauge(used, x) == Fraction(7, 2)
        # A third generator in the same 2-dimensional span: dependent, so the
        # body keeps an echelon form of the span, which rules out an
        # off-span point with no LP.
        dependent = AbsolutelyConvexBody(sp, K.generators + (x,))
        with record_outcomes([]) as lps:
            assert gauge(dependent, x) == 1
            assert gauge(dependent, RandomVariable.of(sp, [1, 0, 0])) is INF
        assert isinstance(dependent._coordinates, list)
        assert len(dependent._coordinates) == 2 and len(lps) == 1


class TestMember:
    def test_generators_are_members(self):
        sp = uniform(3)
        K = random_body(random.Random(1), sp, 4)
        assert all(member(K, g) for g in K.generators)

    def test_doubled_generator_falls_out(self):
        sp = uniform(2)
        K = diag_body(sp)
        assert gauge(K, K.generators[0]) == 1
        assert not member(K, K.generators[0].scaled(2))

    def test_zero_is_member(self):
        sp = uniform(2)
        assert member(cross_body(sp), RandomVariable.zero(sp))


class TestSpanBasis:
    def test_single_generator(self):
        sp = uniform(2)
        assert span_basis(diag_body(sp)).dimension == 1

    def test_full_dimension(self):
        sp = uniform(2)
        assert span_basis(cross_body(sp)).dimension == 2

    def test_dependent_generators_collapse(self):
        sp = uniform(2)
        K = AbsolutelyConvexBody.of(sp, [[1, 1], [2, 2]])
        assert span_basis(K).dimension == 1

    def test_gauge_finite_iff_in_span(self):
        rnd = random.Random(17)
        for _ in range(60):
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 3)
            x = random_rv(rnd, sp)
            finite = gauge(K, x) is not INF
            assert finite == span_basis(K).contains(x)


class TestPolarGauge:
    def test_cross_examples(self):
        sp = uniform(2)
        K = cross_body(sp)
        assert polar_gauge(K, RandomVariable.of(sp, [2, 2])) == 1
        assert polar_gauge(K, RandomVariable.zero(sp)) == 0
        assert polar_gauge(K, RandomVariable.of(sp, [4, 0])) == 2

    def test_bounds_abs_pairing_over_members(self):
        rnd = random.Random(29)
        for _ in range(40):
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 3)
            g = random_rv(rnd, sp)
            bound = polar_gauge(K, g)
            for v in K.generators:
                assert abs_pairing(v, g) <= bound
            for _ in range(3):
                assert abs_pairing(random_member(rnd, K), g) <= bound


class TestSolidHullMember:
    def test_worked_example(self):
        sp = uniform(2)
        K = diag_body(sp)
        inside, witness = solid_hull_member(K, RandomVariable.of(sp, ["1/2", "-1/2"]))
        assert inside
        assert witness.dominates(RandomVariable.of(sp, ["1/2", "-1/2"]))
        assert member(K, witness)

    def test_members_are_in_the_hull(self):
        sp = uniform(2)
        K = cross_body(sp)
        inside, witness = solid_hull_member(K, K.generators[0])
        assert inside and member(K, witness)

    def test_too_tall_fails(self):
        sp = uniform(2)
        inside, witness = solid_hull_member(diag_body(sp), RandomVariable.of(sp, ["3/2", 0]))
        assert not inside and witness is None

    def test_beyond_the_coordinate_bound_solves_no_lp(self):
        # Every point of K has |g_i| <= max_j |v_j(i)|: 1 on both atoms of the
        # diagonal, 0 on the third atom of the 3-atom cross.
        sp = uniform(2)
        f = RandomVariable.of(sp, [1, "-3/2"])
        with record_outcomes([]) as lps:
            assert solid_hull_member(diag_body(sp), f) == (False, None)
            assert not bipolar_member(diag_body(sp), f)
            untouched = AbsolutelyConvexBody.of(uniform(3), [[1, 0, 0], [0, 1, 0]])
            assert not bipolar_member(untouched, RandomVariable.of(untouched.space, [0, 0, "1/9"]))
        assert lps == []
        # The sign-pattern cap is checked before the bound.
        big = uniform(13)
        K = AbsolutelyConvexBody.of(big, [[1] * 13])
        with pytest.raises(PreconditionError, match="sign-pattern cap"):
            solid_hull_member(K, RandomVariable.of(big, [2] * 13))

    def test_non_member_solves_one_lp_per_mirror_pair(self):
        # K = -K: of the 2^4 sign patterns over a 4-atom support, only the
        # 8 with a + on the first atom are tried.
        sp = uniform(4)
        K = AbsolutelyConvexBody.of(sp, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        outcomes: list = []
        with record_outcomes(outcomes):
            inside, witness = solid_hull_member(K, RandomVariable.of(sp, [1, -1, 1, 1]))
        assert not inside and witness is None
        assert len(outcomes) == 8

    def test_witness_contract_on_random_instances(self):
        rnd = random.Random(53)
        for _ in range(40):
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 4)
            f = random_rv(rnd, sp)
            inside, witness = solid_hull_member(K, f)
            if inside:
                assert member(K, witness)
                assert witness.dominates(f)


class TestBipolar:
    def test_zero(self):
        sp = uniform(2)
        assert bipolar_member(diag_body(sp), RandomVariable.zero(sp))

    def test_agrees_with_solid_hull_on_examples(self):
        sp = uniform(2)
        K = diag_body(sp)
        assert bipolar_member(K, RandomVariable.of(sp, ["1/2", "-1/2"]))
        assert not bipolar_member(K, RandomVariable.of(sp, ["3/2", 0]))

    def test_domination_implies_bipolar(self):
        rnd = random.Random(59)
        for _ in range(60):
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 4)
            f = random_rv(rnd, sp)
            inside, _w = solid_hull_member(K, f)
            if inside:
                assert bipolar_member(K, f)

    def test_bipolar_equals_convex_solid_hull_membership(self):
        # The bipolar is the *absolutely convex* solid hull, so membership in
        # the sign-flip body is an independent route to the same predicate.
        rnd = random.Random(73)
        for _ in range(60):
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 3)
            f = random_rv(rnd, sp) if rnd.random() < 0.6 else random_member(rnd, K)
            assert bipolar_member(K, f) == member(solid_hull(K), f)

    def test_bipolar_strictly_contains_domination_hull(self):
        # Pinned instance: the set {f : some g in K dominates |f|} is not
        # convex for signed bodies on >= 3 atoms, so the bipolar (which is
        # convex) can be strictly larger.  This point is a convex mixture of
        # sign-flipped generators, yet no single member of K dominates it.
        sp = FiniteProbabilitySpace(
            ("w0", "w1", "w2", "w3"),
            (Fraction(3, 10), Fraction(1, 5), Fraction(3, 10), Fraction(1, 5)),
        )
        K = AbsolutelyConvexBody.of(
            sp,
            [
                ["4/3", -1, "1/2", 2],
                [2, -1, 1, 0],
                ["-1/3", "3/2", -2, "3/2"],
                [1, 1, 4, "2/3"],
            ],
        )
        f = RandomVariable.of(sp, [1, 1, -1, "-4/3"])
        inside, _w = solid_hull_member(K, f)
        assert not inside
        assert bipolar_member(K, f)
        assert member(solid_hull(K), f)


class TestSolidCheck:
    def test_cross_is_solid(self):
        assert solid_check(cross_body(uniform(2))) == (True, None)

    def test_diag_is_not_solid(self, monkeypatch):
        # On two atoms the second single flip mirrors the first: one flip
        # tested.  The one generator is independent, so that test solves no LP.
        tested = []

        def counting(body, x):
            tested.append(x)
            return member(body, x)

        monkeypatch.setattr(riskspan.bodies, "member", counting)
        solid, counter = solid_check(diag_body(uniform(2)))
        assert not solid
        assert counter == RandomVariable.of(uniform(2), [1, -1])
        assert tested == [counter]
        one = RandomVariable.of(uniform(2), [1, 1])
        assert one.dominates(counter)
        assert not member(diag_body(uniform(2)), counter)

    def test_axis_generator_is_solid(self):
        sp = uniform(2)
        assert solid_check(AbsolutelyConvexBody.of(sp, [[1, 0]])) == (True, None)

    def test_one_lp_per_single_flip_with_no_support_cap(self):
        # e_1..e_13 need no LP; (1/13)*1 has 13 single flips, each in the
        # cross-polytope.  13 atoms of support is above the sign-pattern cap.
        n = 13
        sp = uniform(n)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows.append([Fraction(1, n)] * n)
        with record_outcomes([]) as lps:
            assert solid_check(AbsolutelyConvexBody.of(sp, rows)) == (True, None)
        assert len(lps) == n

    def test_box_criterion_against_brute_force(self):
        # Oracle: K is solid iff sampled coordinate shrink/flips of members stay in K.
        rnd = random.Random(61)
        for _ in range(25):
            sp = random_space(rnd, rnd.randint(1, 3))
            K = random_body(rnd, sp, 3)
            verdict, counter = solid_check(K)
            violations = []
            samples = [random_member(rnd, K) for _ in range(6)] + list(K.generators)
            for g in samples:
                for _ in range(6):
                    theta = [Fraction(rnd.randint(-4, 4), 4) for _ in sp.atoms]
                    f = RandomVariable(
                        sp, tuple(t * abs(v) for t, v in zip(theta, g.values))
                    )
                    if not member(K, f):
                        violations.append(f)
            if verdict:
                assert not violations
            else:
                assert counter is not None
                ok, _w = solid_hull_member(K, counter)
                assert ok and not member(K, counter)

    def test_solid_bodies_swallow_their_hull(self):
        rnd = random.Random(67)
        for _ in range(30):
            sp = random_space(rnd, rnd.randint(1, 3))
            K = random_body(rnd, sp, 3)
            verdict, _counter = solid_check(K)
            if not verdict:
                continue
            for _ in range(5):
                f = random_rv(rnd, sp)
                inside, _w = solid_hull_member(K, f)
                if inside:
                    assert member(K, f)


class TestSolidHullBody:
    def test_diag_hull_is_the_sup_ball(self):
        sp = uniform(2)
        hull = solid_hull(diag_body(sp))
        values = {g.values for g in hull.generators}
        assert values == {(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))}

    def test_hull_is_solid_and_contains_k(self):
        rnd = random.Random(71)
        for _ in range(15):
            sp = random_space(rnd, rnd.randint(1, 3))
            K = random_body(rnd, sp, 2)
            H = solid_hull(K)
            assert solid_check(H)[0]
            for g in K.generators:
                assert member(H, g)


class TestScaling:
    def test_gauge_scales_inversely(self):
        rnd = random.Random(83)
        for _ in range(30):
            sp = random_space(rnd, rnd.randint(1, 4))
            K = random_body(rnd, sp, 3)
            lam = Fraction(rnd.randint(1, 4), rnd.choice((1, 2)))
            if rnd.random() < 0.5:
                lam = -lam
            x = random_member(rnd, K)
            scaled = K.scaled(lam)
            g = gauge(K, x)
            assert gauge(scaled, x) == g / abs(lam)


def test_body_needs_a_nonzero_generator():
    sp = uniform(2)
    with pytest.raises(ValidationError):
        AbsolutelyConvexBody.of(sp, [[0, 0]])


def test_subadditivity_and_homogeneity():
    rnd = random.Random(97)
    for _ in range(60):
        sp = random_space(rnd, rnd.randint(1, 4))
        K = random_body(rnd, sp, 3)
        x = random_member(rnd, K).scaled(Fraction(rnd.randint(0, 4), 2))
        y = random_member(rnd, K).scaled(Fraction(rnd.randint(0, 4), 2))
        alpha = Fraction(rnd.randint(-6, 6), rnd.choice((1, 2, 3)))
        gx, gy = gauge(K, x), gauge(K, y)
        assert gauge(K, x.scaled(alpha)) == abs(alpha) * gx
        assert gauge(K, x + y) <= gx + gy
