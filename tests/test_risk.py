"""Polyhedral risk functions: evaluation, conjugacy, extensions, Fatou probe."""

import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import riskspan.risk
from riskspan import (
    INF,
    AbsolutelyConvexBody,
    FiniteProbabilitySpace,
    KBoundViolationError,
    PolyhedralRiskFunction,
    PreconditionError,
    RandomVariable,
    ValidationError,
    conjugate,
    dual_rep_evaluate,
    evaluate,
    extend,
    fatou_probe,
    gauge,
    monotone_certifiable,
    pairing,
    record_outcomes,
)
from support import random_risk, random_space, random_span_point


def uniform(n):
    return FiniteProbabilitySpace.uniform([chr(ord("a") + i) for i in range(n)])


def axes_risk():
    """Scenarios (2,0) and (0,2) with zero penalties on a full-span body."""
    sp = uniform(2)
    body = AbsolutelyConvexBody.of(sp, [[1, 0], [0, 1]])
    return PolyhedralRiskFunction.of(body, [([2, 0], 0), ([0, 2], 0)])


def span_one_risk():
    """The worked fixture: span{1} with phi(a*1) = a."""
    sp = uniform(2)
    body = AbsolutelyConvexBody.of(sp, [[1, 1]])
    return PolyhedralRiskFunction.of(body, [([1, 1], 0)])


class TestEvaluate:
    def test_max_of_scenarios(self):
        phi = axes_risk()
        sp = phi.space
        assert evaluate(phi, RandomVariable.of(sp, [1, 0])) == 1

    def test_constant_on_diagonal(self):
        phi = axes_risk()
        sp = phi.space
        c = Fraction(5, 3)
        assert evaluate(phi, RandomVariable.constant(sp, c)) == c

    def test_penalties_shift(self):
        sp = uniform(2)
        body = AbsolutelyConvexBody.of(sp, [[1, 0], [0, 1]])
        phi = PolyhedralRiskFunction.of(body, [([2, 0], 0), ([0, 2], 1)])
        assert evaluate(phi, RandomVariable.zero(sp)) == 0

    def test_off_span_is_infinite(self):
        phi = span_one_risk()
        assert evaluate(phi, RandomVariable.of(phi.space, [1, 0])) is INF

    def test_scenario_list_must_be_nonempty(self):
        sp = uniform(2)
        body = AbsolutelyConvexBody.of(sp, [[1, 1]])
        with pytest.raises(ValidationError):
            PolyhedralRiskFunction(body, ())


class TestConjugate:
    def test_scenario_itself_costs_its_penalty(self):
        phi = axes_risk()
        g1 = phi.scenarios[0][0]
        assert conjugate(phi, g1) == 0

    def test_midpoint_mixture(self):
        phi = axes_risk()
        assert conjugate(phi, RandomVariable.of(phi.space, [1, 1])) == 0

    def test_outside_mixture_hull_is_infinite(self):
        phi = axes_risk()
        assert conjugate(phi, RandomVariable.of(phi.space, [3, 0])) is INF

    def test_fenchel_young(self):
        rnd = random.Random(19)
        for _ in range(40):
            sp = random_space(rnd, rnd.randint(1, 4))
            phi = random_risk(rnd, sp)
            f = random_span_point(rnd, phi.body)
            g = rnd.choice(phi.scenarios)[0]
            penalty = conjugate(phi, g)
            assert penalty is not INF
            assert pairing(f, g) - penalty <= evaluate(phi, f)


class TestDualRepresentation:
    def test_scenarios_reproduce_evaluate(self):
        phi = axes_risk()
        duals = [g for g, _a in phi.scenarios]
        for values in ([1, 0], [0, 0], [-1, 2], ["1/2", "-1/3"]):
            f = RandomVariable.of(phi.space, values)
            assert dual_rep_evaluate(phi, f, duals) == evaluate(phi, f)

    def test_single_minorant_below(self):
        phi = axes_risk()
        g1, a1 = phi.scenarios[0]
        f = RandomVariable.of(phi.space, [-1, 3])
        assert dual_rep_evaluate(phi, f, [g1]) == pairing(f, g1) - a1
        assert dual_rep_evaluate(phi, f, [g1]) <= evaluate(phi, f)

    def test_zero_point(self):
        phi = axes_risk()
        duals = [g for g, _a in phi.scenarios]
        assert dual_rep_evaluate(phi, RandomVariable.zero(phi.space), duals) == 0

    def test_empty_duals_rejected(self):
        phi = axes_risk()
        with pytest.raises(ValidationError):
            dual_rep_evaluate(phi, RandomVariable.zero(phi.space), [])

    def test_infinite_conjugate_rejected(self):
        phi = axes_risk()
        with pytest.raises(PreconditionError):
            dual_rep_evaluate(
                phi,
                RandomVariable.zero(phi.space),
                [RandomVariable.of(phi.space, [3, 0])],
            )


class TestExtend:
    def test_restriction_identity_on_fixture(self):
        phi = span_one_risk()
        one = RandomVariable.of(phi.space, [1, 1])
        assert extend(phi, one, "full") == 1

    def test_full_mode_blows_up_off_span(self):
        phi = span_one_risk()
        assert extend(phi, RandomVariable.of(phi.space, [1, 0]), "full") is INF

    def test_full_mode_solves_no_lp_and_monotone_one(self):
        phi = span_one_risk()
        on_span = RandomVariable.of(phi.space, [3, 3])
        off_span = RandomVariable.of(phi.space, [1, 0])
        with record_outcomes([]) as lps:
            assert extend(phi, on_span, "full") == 3
            assert extend(phi, off_span, "full") is INF
        assert len(lps) == 0
        with record_outcomes([]) as lps:
            assert extend(phi, off_span, "monotone") == 1
        assert len(lps) == 1

    def test_monotone_mode_fixture_values(self):
        phi = span_one_risk()
        sp = phi.space
        assert extend(phi, RandomVariable.of(sp, [1, 0]), "monotone") == 1
        assert extend(phi, RandomVariable.of(sp, [-2, 0]), "monotone") == 0

    def test_monotone_below_full(self):
        rnd = random.Random(31)
        for _ in range(30):
            sp = random_space(rnd, rnd.randint(1, 3))
            phi = random_risk(rnd, sp)
            if not monotone_certifiable(phi):
                continue
            f = random_span_point(rnd, phi.body)
            assert extend(phi, f, "monotone") <= extend(phi, f, "full")

    def test_unknown_mode_rejected(self):
        phi = span_one_risk()
        with pytest.raises(ValidationError):
            extend(phi, RandomVariable.zero(phi.space), "sideways")

    def test_monotone_infeasible_raises(self):
        # Scenario (1,-1) on the full span has no nonnegative match at all:
        # matching on the full space pins the dual point coordinatewise.
        sp = uniform(2)
        body = AbsolutelyConvexBody.of(sp, [[1, 0], [0, 1]])
        phi = PolyhedralRiskFunction.of(body, [([1, -1], 0)])
        with pytest.raises(PreconditionError):
            extend(phi, RandomVariable.zero(sp), "monotone")

    def test_monotone_monotonicity(self):
        rnd = random.Random(37)
        phi = span_one_risk()
        sp = phi.space
        for _ in range(40):
            f = RandomVariable(sp, tuple(Fraction(rnd.randint(-4, 4), 2) for _ in sp.atoms))
            bump = RandomVariable(sp, tuple(Fraction(rnd.randint(0, 3), 2) for _ in sp.atoms))
            assert extend(phi, f, "monotone") <= extend(phi, f + bump, "monotone")


class TestMonotoneCertifiable:
    def test_nonnegative_scenarios_pass(self):
        phi = axes_risk()
        assert monotone_certifiable(phi)

    def test_matching_on_small_span_passes(self):
        sp = uniform(2)
        body = AbsolutelyConvexBody.of(sp, [[1, 1]])
        phi = PolyhedralRiskFunction.of(body, [([2, -1], 0)])
        assert monotone_certifiable(phi)

    def test_full_span_signed_scenario_fails(self):
        sp = uniform(2)
        body = AbsolutelyConvexBody.of(sp, [[1, 0], [0, 1]])
        phi = PolyhedralRiskFunction.of(body, [([1, -1], 0)])
        assert not monotone_certifiable(phi)

    def test_certifiable_means_monotone_matches_evaluate_on_span(self):
        rnd = random.Random(43)
        for _ in range(25):
            sp = random_space(rnd, rnd.randint(1, 3))
            phi = random_risk(rnd, sp)
            if not monotone_certifiable(phi):
                continue
            f = random_span_point(rnd, phi.body)
            assert extend(phi, f, "monotone") == evaluate(phi, f)


class TestFatouProbe:
    def test_shrinking_multiples_pass(self):
        phi = axes_risk()
        v = RandomVariable.of(phi.space, [1, 1])
        seq = [v.scaled(Fraction(1, n)) for n in range(1, 17)]
        limit = RandomVariable.zero(phi.space)
        assert fatou_probe(lambda f: evaluate(phi, f), phi.body, seq, limit, Fraction(2))

    def test_open_sublevel_negative_control_fails(self):
        sp = uniform(2)
        body = AbsolutelyConvexBody.of(sp, [[1, 1]])
        v = body.generators[0]

        def open_indicator(f):
            return Fraction(0) if gauge(body, f) < 1 else INF

        seq = [v.scaled(1 - Fraction(1, n)) for n in range(1, 17)]
        assert not fatou_probe(open_indicator, body, seq, v, Fraction(1))

    def test_constant_sequence_passes(self):
        phi = axes_risk()
        f = RandomVariable.of(phi.space, ["1/2", "-1/3"])
        seq = [f] * 16
        assert fatou_probe(lambda x: evaluate(phi, x), phi.body, seq, f, Fraction(2))

    def test_gauge_bound_violation_is_distinct(self):
        phi = axes_risk()
        v = RandomVariable.of(phi.space, [1, 1])
        seq = [v.scaled(3)] * 10
        with pytest.raises(KBoundViolationError):
            fatou_probe(lambda f: evaluate(phi, f), phi.body, seq, v.scaled(3), Fraction(1))

    def test_non_monotone_distances_rejected(self):
        phi = axes_risk()
        v = RandomVariable.of(phi.space, [1, 1])
        seq = [v.scaled(Fraction(1, 8)), v.scaled(Fraction(1, 2))] + [v.scaled(0)] * 8
        with pytest.raises(PreconditionError):
            fatou_probe(
                lambda f: evaluate(phi, f),
                phi.body,
                seq,
                RandomVariable.zero(phi.space),
                Fraction(2),
            )


class TestConvexityAlongSegments:
    def test_midpoint_inequality_both_modes(self):
        rnd = random.Random(47)
        for _ in range(25):
            sp = random_space(rnd, rnd.randint(1, 3))
            phi = random_risk(rnd, sp)
            x = random_span_point(rnd, phi.body)
            y = random_span_point(rnd, phi.body)
            mid = (x + y).scaled(Fraction(1, 2))
            for mode in ("full",):
                px, py, pm = (extend(phi, p, mode) for p in (x, y, mid))
                if px is INF or py is INF:
                    continue
                assert 2 * pm <= px + py


def three_atom_risk():
    """Three scenarios over a two-dimensional span on three atoms."""
    sp = FiniteProbabilitySpace.of(["a", "b", "c"], ["1/2", "1/3", "1/6"])
    body = AbsolutelyConvexBody.of(sp, [[1, 1, 0], [0, 1, -2], [1, 2, -2]])
    return PolyhedralRiskFunction.of(
        body, [([2, 0, 1], 0), ([0, 3, -1], "1/2"), ([1, 1, 1], "-1/3")]
    )


class TestSpanDataBuiltOnce:
    def test_pairings_counted_per_call(self, monkeypatch):
        calls = []
        real = riskspan.risk.pairing

        def counting(f, g):
            calls.append(1)
            return real(f, g)

        monkeypatch.setattr(riskspan.risk, "pairing", counting)
        riskspan.risk._conjugate_lp.cache_clear()
        phi = three_atom_risk()
        on_span = RandomVariable.of(phi.space, [1, 3, -4])
        duals = [g for g, _alpha in phi.scenarios]

        def count(fn, *args) -> int:
            calls.clear()
            fn(*args)
            return len(calls)

        # evaluate and the LP rows read the integer table of the scenarios;
        # only dual_rep_evaluate pairs the point with each dual point.
        assert count(evaluate, phi, on_span) == 0
        assert count(extend, phi, on_span, "full") == 0
        assert count(extend, phi, on_span, "monotone") == 0
        assert count(monotone_certifiable, phi) == 0
        assert count(conjugate, phi, RandomVariable.of(phi.space, [1, 2, 0])) == 0
        assert count(dual_rep_evaluate, phi, on_span, duals) == len(duals)

    def test_concurrent_first_use_matches_a_sequential_run(self):
        sp = uniform(3)
        points = [RandomVariable.of(sp, values) for values in ([1, 2, 0], [3, 0, 1], [0, 1, 1])]

        def analyse(phi):
            return [
                (evaluate(phi, f), extend(phi, f, "full"), conjugate(phi, f)) for f in points
            ]

        def fresh():
            body = AbsolutelyConvexBody.of(sp, [[1, 1, 0], [0, 1, 1]])
            return PolyhedralRiskFunction.of(body, [([2, 1, 0], 0), ([0, 1, 2], "1/2")])

        expected = analyse(fresh())
        riskspan.risk._conjugate_lp.cache_clear()
        phi = fresh()
        barrier = threading.Barrier(4, timeout=30)
        results = [None] * 4

        def worker(k):
            barrier.wait()
            results[k] = analyse(phi)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4


# Builds a risk function on labelled atoms, whose hashes depend on PYTHONHASHSEED.
_BUILD = """
from riskspan import AbsolutelyConvexBody, FiniteProbabilitySpace, PolyhedralRiskFunction
space = FiniteProbabilitySpace.of(["up", "mid", "down"], ["1/2", "1/3", "1/6"])
body = AbsolutelyConvexBody.of(space, [[1, 1, 0], [0, 1, -2]])
phi = PolyhedralRiskFunction.of(body, [([2, 0, 1], 0), ([0, 3, -1], "1/2")])
"""


def _python(code: str, hash_seed: str, stdin: bytes = b"") -> bytes:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, timeout=60
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


class TestHash:
    def test_equal_values_hash_equal(self):
        first, second = three_atom_risk(), three_atom_risk()
        assert first is not second and first == second
        assert hash(first) == hash(second) == hash((first.body, first.scenarios))

    def test_conjugate_on_an_equal_value_is_a_cache_hit(self):
        riskspan.risk._conjugate_lp.cache_clear()
        g = RandomVariable.of(three_atom_risk().space, [1, 2, 0])
        value = conjugate(three_atom_risk(), g)
        with record_outcomes([]) as lps:
            assert conjugate(three_atom_risk(), g) == value
        assert lps == []

    def test_pickle_and_copy_leave_the_cached_hash_behind(self):
        phi = three_atom_risk()
        hash(phi)
        assert "_hash" not in pickle.loads(pickle.dumps(phi)).__dict__
        assert "_hash" not in copy.copy(phi).__dict__

    def test_hash_agrees_with_equality_across_hash_seeds(self):
        dumped = _python(
            _BUILD + "import pickle, sys\n"
            "hash(phi)\n"
            "sys.stdout.buffer.write(pickle.dumps(phi))\n",
            hash_seed="1",
        )
        verdict = _python(
            _BUILD + "import pickle, sys\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "print(loaded == phi, hash(loaded) == hash(phi), loaded in {phi})\n",
            hash_seed="2",
            stdin=dumped,
        )
        assert verdict.split() == [b"True", b"True", b"True"]
