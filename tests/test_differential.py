"""The library vs the earlier implementations in ``fraction_reference``.

The simplex must take the same pivots and return an equal ``LPOutcome``,
field for field; the certificate gate must accept and reject the same intact
and tampered certificates as the Fraction gate, with the same message; the
eliminations must return equal ranks, row subsets, solutions and span
answers; vertex enumeration must return the same sorted vertices as the
brute force over every d-subset of rows.  Risk functions that keep their
span data must give the same conjugates, extensions and certifiability as
rows paired afresh on every call, and the sorted Ky-Fan formula the same
distances as the scan over every candidate.  The single-flip solidity test
must reach the same verdict as the test of every sign flip, with a
counterexample that is a mirrored single flip of a generator in sol(K)
outside K.  The gauge read from coordinates over independent generators
must equal the gauge LP's value, with no LP solved, and so must the full
extension, read as the risk function itself, equal the extension LP's.
``attainable``, one solve in the tree's strategy basis, must return the same
flag, initial capital and hedge as the node-by-node backward replication.
The gauge, the solid-hull test and the bipolar test, which decide points
off span(K) and beyond the coordinate bound with no LP, must return the same
values, flags and witnesses as the LP-only versions that solve at every
point.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Iterator, Optional

import pytest

from riskspan import (
    INF,
    AbsolutelyConvexBody,
    CertificateError,
    LinearConstraint,
    LinearProgram,
    LPOutcome,
    LPStatus,
    PreconditionError,
    RandomVariable,
    attainable,
    bipolar_member,
    conjugate,
    emm_set,
    evaluate,
    extend,
    gauge,
    ky_fan_distance,
    linalg,
    member,
    monotone_certifiable,
    nonsolidity_witness,
    polar_gauge,
    record_outcomes,
    replicates,
    solid_check,
    solid_hull,
    solid_hull_member,
    solve,
    span_basis,
    strategy_basis,
    verify_outcome,
    vertex_enumeration,
    viability,
)

import fraction_reference as ref
from support import (
    random_body,
    random_fraction,
    random_member,
    random_risk,
    random_rv,
    random_space,
    random_span_point,
    random_tree,
)


def _assert_same(lp: LinearProgram) -> LPStatus:
    out = solve(lp)
    assert out == ref.solve(lp)
    return out.status


def _random_lp(
    rnd: random.Random, coeffs=(-3, -2, -1, 0, 1, 2, 3), dens=(1, 2, 3)
) -> LinearProgram:
    n = rnd.randint(1, 5)
    rows = []
    for _ in range(rnd.randint(0, 5)):
        row = [Fraction(rnd.choice(coeffs), rnd.choice(dens)) for _ in range(n)]
        rel = rnd.choice(("<=", ">=", "="))
        rows.append(LinearConstraint.of(row, rel, Fraction(rnd.randint(-4, 4), rnd.choice(dens))))
    # Duplicated rows, sometimes scaled.
    for _ in range(rnd.randint(0, 2)):
        if rows:
            con = rnd.choice(rows)
            k = Fraction(rnd.choice((1, 1, 2, 3)), rnd.choice((1, 2)))
            scaled = tuple(c * k for c in con.coefficients)
            rows.append(LinearConstraint(scaled, con.relation, con.rhs * k))
    lower = [
        Fraction(rnd.randint(-3, 1), rnd.choice(dens)) if rnd.random() < 0.6 else None
        for _ in range(n)
    ]
    upper = []
    for j in range(n):
        if rnd.random() < 0.5:
            base = lower[j] if lower[j] is not None else Fraction(-2)
            upper.append(base + rnd.randint(-1, 4))
        else:
            upper.append(None)
    objective = [Fraction(rnd.choice(coeffs), rnd.choice(dens)) for _ in range(n)]
    return LinearProgram.minimize(objective, tuple(rows), lower=lower, upper=upper)


def test_random_programs_match_the_reference():
    rnd = random.Random(606)
    seen = {status: 0 for status in LPStatus}
    for _ in range(600):
        seen[_assert_same(_random_lp(rnd))] += 1
    assert min(seen.values()) >= 50, seen


def test_degenerate_programs_match_the_reference():
    # 0/1 rows with right-hand sides in {0, 1} tie ratios at most pivots.
    rnd = random.Random(607)
    seen = set()
    for _ in range(400):
        seen.add(_assert_same(_random_lp(rnd, coeffs=(0, 1, 1), dens=(1,))))
    assert seen == set(LPStatus)


def test_tied_ratios_free_variables_and_upper_bounds():
    # x and y both block at ratio 1 in the first row pair; z is free.
    tied = (
        LinearConstraint.of([1, 1, 0], "<=", 1),
        LinearConstraint.of([1, 0, 0], "<=", 1),
        LinearConstraint.of([0, 1, 0], "<=", 1),
        LinearConstraint.of([1, 1, 1], "=", 1),
        LinearConstraint.of([1, 1, 1], "=", 1),
    )
    for objective in ([-1, -1, 0], [-1, -2, 1], [0, 0, -1], [1, 1, 1]):
        _assert_same(LinearProgram.minimize(objective, tied, lower=[0, 0, None]))
        _assert_same(LinearProgram.minimize(objective, tied, lower=[0, 0, None], upper=[1, 1, 3]))
        _assert_same(LinearProgram.minimize(objective, tied[:3], lower=[None, None, None]))
    # Free variables only, and bounds only.
    _assert_same(LinearProgram.minimize([1, -1], (LinearConstraint.of([1, 1], "=", 2),)))
    _assert_same(LinearProgram.minimize([2, 0, 1], (), lower=[-3, None, 5], upper=[1, None, 5]))
    _assert_same(LinearProgram.minimize([1], (), lower=[2], upper=[1]))


def _library_programs(rnd: random.Random, instances: int) -> list:
    """Every (lp, outcome) that gauges, polars, solid-hull tests and market
    questions solve on small random instances."""
    recorded: list = []
    with record_outcomes(recorded):
        for _ in range(instances):
            space = random_space(rnd, rnd.randint(2, 4))
            body = random_body(rnd, space, rnd.randint(1, 4))
            x = random_rv(rnd, space)
            gauge(body, x)
            # A dependent generator keeps the gauge on its LP.
            doubled = body.generators[0].scaled(2)
            gauge(AbsolutelyConvexBody(space, body.generators + (doubled,)), x)
            polar_gauge(body, x)
            solid_hull_member(body, x)
        for _ in range(instances):
            tree = random_tree(rnd)
            nonsolidity_witness(tree)
            emm_set(tree).bounds(random_rv(rnd, tree.space))
            attainable(tree, random_rv(rnd, tree.space))
    return recorded


def test_library_programs_match_the_reference():
    recorded = _library_programs(random.Random(608), 10)
    assert len(recorded) > 50
    for lp, outcome in recorded:
        assert outcome == ref.solve(lp)


# ---------------------------------------------------------------------------
# certificate gate

_VECTORS = ("point", "dual", "reduced_costs", "farkas", "farkas_lower", "farkas_upper", "ray")

# Every message the gate raises on certificate vectors of the right length.
_REJECTIONS = {
    "optimal outcome lacks point/value/dual",
    "optimal outcome lacks reduced costs",
    "equality row violated",
    "<= row violated",
    ">= row violated",
    "lower bound violated",
    "upper bound violated",
    "reported value differs from objective at point",
    "dual sign for >= row",
    "dual sign for <= row",
    "reduced costs do not match dual multipliers",
    "positive reduced cost on a variable without lower bound",
    "negative reduced cost on a variable without upper bound",
    "dual objective does not match primal value",
    "infeasible outcome lacks Farkas multipliers",
    "Farkas sign for >= row",
    "Farkas sign for <= row",
    "Farkas lower-bound multiplier invalid",
    "Farkas upper-bound multiplier invalid",
    "Farkas combination is not the zero functional",
    "Farkas value is not positive",
    "unbounded outcome lacks point/ray",
    "ray leaves an equality row",
    "ray increases a <= row",
    "ray decreases a >= row",
    "ray dives below a lower bound",
    "ray climbs above an upper bound",
    "ray does not improve the objective",
}


def _moved(value: Fraction) -> tuple:
    return (value + 1, value - 1, value + Fraction(1, 7), -value)


def _tamperings(lp: LinearProgram, outcome: LPOutcome) -> Iterator[LPOutcome]:
    """The outcome, then each entry of each certificate vector moved by +-1
    and by 1/7 and sign-flipped, the value moved the same ways, the ray
    zeroed, each certificate field dropped and the status swapped.

    A moved row multiplier is also re-closed: the reduced costs, or the
    Farkas bound multipliers, are recomputed from it, so that the checks
    after the combination (bound signs, dual objective, Farkas value) see
    tampered data as well.
    """
    yield outcome
    for name in ("dual", "farkas"):
        vector = getattr(outcome, name)
        for k, entry in enumerate(vector or ()):
            for new in _moved(entry):
                moved = vector[:k] + (new,) + vector[k + 1 :]
                # c - y.A; for Farkas multipliers c = 0 and the bound part
                # -y.A is split into its positive and negative entries.
                rest = ref._reduced_costs(
                    replace(lp, objective=(Fraction(0),) * len(lp.objective))
                    if name == "farkas"
                    else lp,
                    moved,
                )
                if name == "dual":
                    yield replace(outcome, dual=moved, reduced_costs=tuple(rest))
                else:
                    yield replace(
                        outcome,
                        farkas=moved,
                        farkas_lower=tuple(max(r, 0) for r in rest),
                        farkas_upper=tuple(min(r, 0) for r in rest),
                    )
    for name in _VECTORS:
        vector = getattr(outcome, name)
        for k, entry in enumerate(vector or ()):
            for new in _moved(entry):
                yield replace(outcome, **{name: vector[:k] + (new,) + vector[k + 1 :]})
    if outcome.value is not None:
        for new in _moved(outcome.value):
            yield replace(outcome, value=new)
    if outcome.ray is not None:
        yield replace(outcome, ray=tuple(Fraction(0) for _ in outcome.ray))
    for name in ("value",) + _VECTORS:
        if getattr(outcome, name) is not None:
            yield replace(outcome, **{name: None})
    for status in LPStatus:
        if status is not outcome.status:
            yield replace(outcome, status=status)


def _verdict(verify, lp: LinearProgram, outcome: LPOutcome) -> Optional[str]:
    """None when the certificate is accepted, else the rejection message."""
    try:
        verify(lp, outcome)
    except CertificateError as exc:
        return str(exc)
    return None


def _assert_gates_agree(pairs, verdicts: Counter) -> None:
    for lp, outcome in pairs:
        assert _verdict(verify_outcome, lp, outcome) is None
        for tampered in _tamperings(lp, outcome):
            got = _verdict(verify_outcome, lp, tampered)
            assert got == _verdict(ref.verify_outcome, lp, tampered), (lp, tampered)
            verdicts[got] += 1


def test_gate_matches_the_fraction_gate_on_random_programs():
    rnd = random.Random(612)
    pairs = [(lp, solve(lp)) for lp in (_random_lp(rnd) for _ in range(300))]
    assert {out.status for _lp, out in pairs} == set(LPStatus)
    verdicts: Counter = Counter()
    _assert_gates_agree(pairs, verdicts)
    # Some tampered certificates are still valid (a re-closed multiplier on
    # a slack row, say); the others are rejected at every check of all
    # three verifiers.
    assert verdicts[None] > len(pairs)
    assert set(verdicts) == _REJECTIONS | {None}, verdicts


def test_gate_matches_the_fraction_gate_on_library_programs():
    pairs = _library_programs(random.Random(613), 6)
    assert len(pairs) > 20
    verdicts: Counter = Counter()
    _assert_gates_agree(pairs, verdicts)
    assert len(verdicts) >= 15, verdicts


def test_gate_rejects_certificate_vectors_of_the_wrong_length():
    # Tested apart: the Fraction gate raises IndexError or accepts here.
    rnd = random.Random(614)
    pairs = [(lp, solve(lp)) for lp in (_random_lp(rnd) for _ in range(60))]
    assert {out.status for _lp, out in pairs} == set(LPStatus)
    for lp, outcome in pairs:
        for name in _VECTORS:
            vector = getattr(outcome, name)
            if vector is None:
                continue
            wrong_lengths = [vector + (Fraction(0),), vector + (Fraction(1),)]
            if vector:
                wrong_lengths.append(vector[:-1])
            for wrong in wrong_lengths:
                with pytest.raises(CertificateError, match="length differs|per constraint"):
                    verify_outcome(lp, replace(outcome, **{name: wrong}))


# ---------------------------------------------------------------------------
# eliminations


def _block(rnd: random.Random, m: int, n: int, dens: tuple) -> list[list[Fraction]]:
    return [[Fraction(rnd.randint(-3, 3), rnd.choice(dens)) for _ in range(n)] for _ in range(m)]


def _random_matrix(rnd: random.Random) -> list[list[Fraction]]:
    """A random rational matrix, often rank-deficient, with repeated rows."""
    m, n = rnd.randint(1, 6), rnd.randint(1, 6)
    r = rnd.randint(0, min(m, n))
    left, right = _block(rnd, m, r, (1, 2, 5)), _block(rnd, r, n, (1, 3))
    rows = [
        [sum((left[i][k] * right[k][j] for k in range(r)), Fraction(0)) for j in range(n)]
        for i in range(m)
    ]
    if rnd.random() < 0.3:
        rows.append(list(rnd.choice(rows)))
    if rnd.random() < 0.3:
        rows = [[Fraction(rnd.randint(-4, 4), rnd.choice((1, 7))) for _ in range(n)] for _ in rows]
    return rows


def test_eliminations_match_the_reference():
    rnd = random.Random(609)
    deficient = 0
    for _ in range(500):
        rows = _random_matrix(rnd)
        n = len(rows[0])
        rk = linalg.rank(rows)
        assert rk == ref.rank(rows)
        deficient += rk < min(len(rows), n)
        assert linalg.independent_rows(rows) == ref.independent_rows(rows)
        x0 = [Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))) for _ in range(n)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = [Fraction(rnd.randint(-3, 3)) for _ in rows]
        for rhs in (consistent, arbitrary):
            assert linalg.solve_exact(rows, rhs) == ref.solve_exact(rows, rhs)
        weights = [Fraction(rnd.randint(-2, 2), rnd.choice((1, 3))) for _ in rows]
        inside = [sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0)) for j in range(n)]
        outside = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
        for vector in (inside, outside, [Fraction(0)] * n):
            assert linalg.in_span(linalg._echelon(rows), vector) == ref.in_span(rows, vector)
        assert linalg.in_span(linalg._echelon(rows), inside)
    assert deficient > 100
    assert linalg.rank([]) == 0 and linalg.solve_exact([], []) == []
    assert not linalg.in_span([], [Fraction(1)])


def test_left_inverse_inverts_independent_rows():
    rnd = random.Random(629)
    seen: Counter = Counter()
    for _ in range(500):
        rows = _random_matrix(rnd)
        span, found = linalg.left_inverse(rows)
        rank = ref.rank(rows)
        independent = rank == len(rows)
        assert (found is not None) == independent
        seen["independent" if independent else "dependent"] += 1
        # The span comes as an echelon form that in_span reduces against.
        assert len(span) == rank
        n = len(rows[0])
        weights = [Fraction(rnd.randint(-2, 2), rnd.choice((1, 3))) for _ in rows]
        inside = [sum((w * row[j] for w, row in zip(weights, rows)), Fraction(0)) for j in range(n)]
        outside = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
        for vector in (inside, outside):
            assert linalg.in_span(span, vector) == ref.in_span(rows, vector)
        assert linalg.in_span(span, inside)
        seen["off span"] += not ref.in_span(rows, outside)
        if found is None:
            continue
        inverse, den = found
        assert den > 0
        for j, prow in enumerate(inverse):
            for k, row in enumerate(rows):
                assert sum((p * v for p, v in zip(prow, row)), Fraction(0)) == den * (j == k)
    assert min(seen.values()) >= 100, seen


def _random_region(
    rnd: random.Random, d: int, bounded: bool, dens: tuple = (1, 1, 2, 3)
) -> tuple[list, set]:
    """A random H-region in dimension d and the features it was built with.

    A random point x0 satisfies most rows, so many regions are nonempty; a
    negative slack, an inconsistent equality or a zero row ``0 <= -1`` can
    empty it.  Bounded regions add a box (anti-parallel pairs) or a simplex;
    in dimensions 4 and 5 mostly the simplex, which has d + 1 rows, to keep
    the brute force over C(m, d) subsets small.
    """

    def frac(lo=-3, hi=3):
        return Fraction(rnd.randint(lo, hi), rnd.choice(dens))

    x0 = [frac(-2, 2) for _ in range(d)]

    def value(coeffs):
        return sum((c * x for c, x in zip(coeffs, x0)), Fraction(0))

    def slack():
        return Fraction(rnd.choice((0, 0, 1, 2, 3, -1)), rnd.choice((1, 2)))

    features: set = set()
    rows: list[LinearConstraint] = []
    if bounded:
        if rnd.random() < (0.5 if d <= 3 else 0.2):
            for j in range(d):
                unit = [Fraction(0)] * d
                unit[j] = Fraction(1)
                rows.append(LinearConstraint(tuple(unit), "<=", x0[j] + 2))
                rows.append(LinearConstraint(tuple(-u for u in unit), "<=", 2 - x0[j]))
            features.add("anti-parallel")
        else:
            for j in range(d):
                unit = [Fraction(0)] * d
                unit[j] = Fraction(1)
                rows.append(LinearConstraint(tuple(unit), ">=", x0[j] - 2))
            ones = tuple([Fraction(1)] * d)
            rows.append(LinearConstraint(ones, "<=", value(ones) + 2))
    for _ in range(rnd.randint(0, 3 if d <= 3 else 1)):
        coeffs = tuple(frac() for _ in range(d))
        if rnd.random() < 0.5:
            rows.append(LinearConstraint(coeffs, "<=", value(coeffs) + slack()))
        else:
            rows.append(LinearConstraint(coeffs, ">=", value(coeffs) - slack()))
    equalities: list[tuple] = []
    for _ in range(rnd.choice((0, 0, 1, 1, 2, 3))):
        if equalities and rnd.random() < 0.4:
            # A combination of earlier equality rows: dependent.
            a, b = rnd.choice(equalities), rnd.choice(equalities)
            ka, kb = frac(1, 2), frac(-2, 2)
            coeffs = tuple(ka * x + kb * y for x, y in zip(a, b))
            features.add("dependent equalities")
        else:
            coeffs = tuple(frac() for _ in range(d))
        equalities.append(coeffs)
        rhs = value(coeffs) if rnd.random() < 0.85 else value(coeffs) + 1
        rows.append(LinearConstraint(coeffs, "=", rhs))
        features.add("equalities")
    for _ in range(rnd.choice((0, 1, 1, 2))):
        if rows:
            con = rnd.choice(rows)
            k = frac(-3, 3) or Fraction(2)
            coeffs = tuple(k * c for c in con.coefficients)
            if rnd.random() < 0.5:
                rows.append(LinearConstraint(coeffs, "<=", value(coeffs) + slack()))
            else:
                rows.append(LinearConstraint(coeffs, ">=", value(coeffs) - slack()))
            features.add("parallel")
    if rnd.random() < 0.25:
        rel = rnd.choice(("<=", ">=", "="))
        rows.append(LinearConstraint(tuple([Fraction(0)] * d), rel, rnd.choice((0, 0, 1, -1))))
        features.add("zero row")
    rnd.shuffle(rows)
    return rows, features


def _enumerate_like_the_brute_force(rows: list, d: int, seen: Counter) -> list:
    """The public call's vertices, checked against the probing brute force.

    An unbounded region must raise on both sides (and yields []).  The call
    solves no LP.  Counts each region by its outcome.
    """
    try:
        expected = ref.vertex_enumeration(rows, d)
    except PreconditionError:
        expected = None
    outcomes: list = []
    with record_outcomes(outcomes):
        if expected is None:
            with pytest.raises(PreconditionError, match="unbounded input region"):
                vertex_enumeration(rows, d)
        else:
            assert vertex_enumeration(rows, d) == expected
    assert outcomes == []
    seen["unbounded" if expected is None else "nonempty" if expected else "empty"] += 1
    return expected or []


def test_vertex_enumeration_matches_the_subset_brute_force():
    rnd = random.Random(611)
    seen: Counter = Counter()
    for trial in range(400):
        d = rnd.choice((1, 2, 2, 3, 3, 3, 4, 4, 5))
        rows, features = _random_region(rnd, d, trial % 5 != 0)
        seen.update(features)
        _enumerate_like_the_brute_force(rows, d, seen)
    assert min(seen.values()) >= 20 and len(seen) == 8, seen


def test_vertex_enumeration_on_rows_with_mixed_denominators():
    # Entries over several denominators within one row and rational
    # right-hand sides, so every row's integer scaling and every vertex's
    # denominator enter the vertex check.
    rnd = random.Random(615)
    seen: Counter = Counter()
    for trial in range(200):
        d = rnd.choice((2, 3, 3, 4))
        rows, _features = _random_region(rnd, d, trial % 4 != 0, dens=(1, 2, 3, 5, 7, 12))
        got = _enumerate_like_the_brute_force(rows, d, seen)
        seen["mixed rows"] += any(
            len({c.denominator for c in con.coefficients}) > 2 for con in rows
        )
        seen["rational rhs"] += any(con.rhs.denominator > 1 for con in rows)
        seen["fractional vertex"] += any(v.denominator > 1 for point in got for v in point)
    assert min(seen["mixed rows"], seen["rational rhs"], seen["fractional vertex"]) >= 50, seen


def _result(fn, *args):
    """The value, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (CertificateError, PreconditionError) as exc:
        return type(exc), str(exc)


def test_risk_span_data_matches_rows_paired_per_call():
    rnd = random.Random(616)
    seen: Counter = Counter()
    for _ in range(200):
        space = random_space(rnd, rnd.randint(1, 4))
        phi = random_risk(rnd, space)
        certifiable = monotone_certifiable(phi)
        assert certifiable == ref.monotone_certifiable(phi)
        seen["certifiable"] += certifiable
        mixture = RandomVariable.zero(space)
        for g, _alpha in phi.scenarios:
            mixture = mixture + g.scaled(Fraction(1, len(phi.scenarios)))
        for g in (phi.scenarios[0][0], mixture, random_rv(rnd, space)):
            value = conjugate(phi, g)
            assert value == ref.conjugate(phi, g)
            seen["finite conjugate"] += value is not INF
        on_span = random_span_point(rnd, phi.body)
        off_span = random_rv(rnd, space)
        seen["off span"] += not span_basis(phi.body).contains(off_span)
        for f in (on_span, off_span):
            for mode in ("full", "monotone"):
                got = _result(extend, phi, f, mode)
                assert got == _result(ref.extend, phi, f, mode)
                seen[mode, "inf" if got is INF else type(got).__name__] += 1
    assert seen["certifiable"] >= 20 and seen["finite conjugate"] >= 200, seen
    assert seen["off span"] >= 50 and seen["monotone", "tuple"] >= 20, seen
    assert seen["full", "inf"] >= 50 and seen["monotone", "Fraction"] >= 50, seen


def test_full_extension_is_the_risk_function_and_matches_the_extension_lp():
    rnd = random.Random(619)
    seen: Counter = Counter()
    for _ in range(300):
        space = random_space(rnd, rnd.randint(1, 5))
        phi = random_risk(rnd, space, max_scenarios=4)
        on_span = random_span_point(rnd, phi.body)
        bump = [Fraction(0)] * space.size
        bump[rnd.randrange(space.size)] = Fraction(1, rnd.choice((7, 11, 13)))
        nudged = on_span + RandomVariable(space, tuple(bump))
        sub = span_basis(phi.body)
        for kind, f in (("on span", on_span), ("random", random_rv(rnd, space)), ("nudged", nudged)):
            with record_outcomes([]) as lps:
                value = extend(phi, f, "full")
            assert not lps
            assert value == ref.extend(phi, f, "full")
            assert (value is INF) == (not sub.contains(f))
            seen[kind, "inf" if value is INF else "finite"] += 1
    assert seen["on span", "finite"] == 300, seen
    assert seen["random", "inf"] >= 100 and seen["random", "finite"] >= 50, seen
    assert seen["nudged", "inf"] >= 100 and seen["nudged", "finite"] >= 50, seen


def test_integer_evaluate_matches_the_fraction_pairings():
    rnd = random.Random(627)
    seen: Counter = Counter()
    for _ in range(300):
        space = random_space(rnd, rnd.randint(1, 5))
        phi = random_risk(rnd, space, max_scenarios=4)
        # Denominators up to 7 that the weights, scenarios and penalties lack.
        scale = Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))
        on_span = random_span_point(rnd, phi.body).scaled(scale)
        rows = [list(g.values) for g in phi.body.generators]
        for f in (on_span, random_rv(rnd, space)):
            value = evaluate(phi, f)
            assert value == ref.evaluate(phi, f)
            if ref.in_span(rows, list(f.values)):
                assert type(value) is Fraction
                seen["on span"] += 1
            else:
                assert value is INF
                seen["off span"] += 1
        denominators = {w.denominator for w in space.weights}
        denominators.update(v.denominator for v in on_span.values)
        seen["mixed denominators"] += len(denominators) > 2
        seen["negative penalty"] += any(alpha < 0 for _g, alpha in phi.scenarios)
        seen["several scenarios"] += len(phi.scenarios) > 1
    assert seen["on span"] >= 300 and seen["off span"] >= 50, seen
    assert min(seen.values()) >= 100, seen


def test_subspace_contains_matches_in_span_on_the_basis_rows():
    rnd = random.Random(617)
    for _ in range(300):
        body = random_body(rnd, random_space(rnd, rnd.randint(1, 5)), 4)
        sub = span_basis(body)
        rows = [list(b.values) for b in sub.basis]
        for x in (random_span_point(rnd, body), random_rv(rnd, body.space)):
            assert sub.contains(x) == linalg.in_span(linalg._echelon(rows), list(x.values))
            assert sub.contains(x) == ref.in_span(rows, list(x.values))


def test_ky_fan_formula_matches_the_candidate_scan():
    rnd = random.Random(618)
    seen: Counter = Counter()
    for _ in range(2500):
        space = random_space(rnd, rnd.randint(1, 7))
        f = random_rv(rnd, space)
        # Distances from a short list, so ties and zeros are common.
        steps = [Fraction(0), Fraction(1, 4), Fraction(1, 2), random_fraction(rnd, 0, 3)]
        g = RandomVariable(
            space, tuple(v + rnd.choice((1, -1)) * rnd.choice(steps) for v in f.values)
        )
        assert ky_fan_distance(f, g) == ref.ky_fan_distance(f, g)
        diffs = [abs(a - b) for a, b in zip(f.values, g.values)]
        seen["one atom"] += space.size == 1
        seen["tie"] += len(set(diffs)) < len(diffs)
        seen["zero distance"] += 0 in diffs
        seen["f = g"] += f == g
    assert min(seen.values()) >= 100, seen


def _reference_gauge(body, x: RandomVariable):
    """The gauge LP min sum(a_j + b_j), sum (a_j - b_j) v_j = x, a, b >= 0,
    solved by the Fraction simplex; INF when infeasible."""
    m = len(body.generators)
    rows = [
        LinearConstraint(
            tuple([g.values[i] for g in body.generators] + [-g.values[i] for g in body.generators]),
            "=",
            x.values[i],
        )
        for i in range(body.space.size)
    ]
    lp = LinearProgram.minimize([Fraction(1)] * (2 * m), rows, lower=[Fraction(0)] * (2 * m))
    outcome = ref.solve(lp)
    return INF if outcome.status is LPStatus.INFEASIBLE else outcome.value


def test_coordinate_gauge_matches_the_gauge_lp():
    rnd = random.Random(628)
    seen: Counter = Counter()
    while seen["bodies"] < 300:
        space = random_space(rnd, rnd.randint(1, 5))
        body = random_body(rnd, space, space.size)
        if ref.rank([list(g.values) for g in body.generators]) < len(body.generators):
            continue
        seen["bodies"] += 1
        generator = rnd.choice(body.generators)
        points = {
            "span": random_span_point(rnd, body),
            "member": random_member(rnd, body),
            "random": random_rv(rnd, space),
            "zero": RandomVariable.zero(space),
            "generator": generator,
        }
        # Every point of K is an absolutely convex combination of the
        # generators, so appending one leaves K, and every gauge, unchanged.
        dependent = AbsolutelyConvexBody(space, body.generators + (random_member(rnd, body),))
        for kind, x in points.items():
            expected = _reference_gauge(body, x)
            with record_outcomes([]) as lps:
                value = gauge(body, x)
                inside = member(body, x)
            assert lps == []
            assert value == expected, (body, x)
            assert type(value) is type(expected)
            assert inside == (expected <= 1)
            # The dependent body solves its gauge LP on the span only.
            with record_outcomes([]) as lps:
                assert gauge(dependent, x) == value
            assert len(lps) == (0 if value is INF else 1)
            seen[kind, "inf" if value is INF else "inside" if inside else "outside"] += 1
        assert gauge(body, generator) == 1
        assert gauge(body, RandomVariable.zero(space)) == 0
    assert seen["random", "inf"] >= 100 and seen["span", "outside"] >= 100, seen
    assert seen["member", "inside"] == 300 and seen["random", "outside"] >= 20, seen


def _body_points(rnd: random.Random, body) -> dict:
    """Members, non-members beyond and within the coordinate bound (the
    latter mostly off the span) and points with zero entries."""
    space = body.space
    bound = [max(abs(g.values[i]) for g in body.generators) for i in range(space.size)]
    top = max(body.generators, key=lambda g: max(map(abs, g.values)))
    within = [b * rnd.choice((1, -1)) * Fraction(rnd.randint(2, 4), 4) for b in bound]
    sparse = list(random_member(rnd, body).values)
    for i in rnd.sample(range(space.size), rnd.randint(1, max(1, space.size // 3))):
        sparse[i] = Fraction(0)
    return {
        "member": random_member(rnd, body),
        "at the bound": top,  # in K, with |f_i| = max_j |v_j(i)| on some atom
        "beyond": rnd.choice(body.generators).scaled(Fraction(rnd.randint(5, 8), 4)),
        "within": RandomVariable(space, tuple(within)),
        "zeros": RandomVariable(space, tuple(sparse)),
    }


def _lps(fn, *args) -> tuple:
    with record_outcomes([]) as lps:
        result = fn(*args)
    return result, [lp for lp, _outcome in lps]


def test_body_questions_match_the_lp_only_oracles():
    """The coordinate bound and the span test change no flag, witness or
    value, and each question solves the oracle's LPs, in its order, or none
    when the bound or the span test decides it."""
    rnd = random.Random(631)
    seen: Counter = Counter()
    for trial in range(300):
        # Each size from 1 to 9 atoms 4 times, then sizes up to 6: the
        # flat loop solves up to 256 LPs per non-member on 9 atoms.
        space = random_space(rnd, trial % 9 + 1 if trial < 36 else rnd.randint(1, 6))
        body = random_body(rnd, space, 4)
        dependent = AbsolutelyConvexBody(space, body.generators + (random_member(rnd, body),))
        for kind, f in _body_points(rnd, body).items():
            support = sum(v != 0 for v in f.values)
            beyond = any(
                abs(v) > max(abs(g.values[i]) for g in body.generators)
                for i, v in enumerate(f.values)
            )
            (inside, witness), lps = _lps(solid_hull_member, body, f)
            expected, ref_lps = _lps(ref.solid_hull_member, body, f)
            assert (inside, witness) == expected, (body, f)
            assert lps == ([] if beyond else ref_lps)
            seen["hull member" if inside else "beyond" if beyond else "within, not member"] += 1

            polar, lps = _lps(bipolar_member, body, f)
            expected, ref_lps = _lps(ref.bipolar_member, body, f)
            assert polar == expected and len(ref_lps) == 1
            assert len(lps) == (0 if beyond else 1)
            seen["bipolar member" if polar else "bipolar non-member"] += 1

            value, lps = _lps(gauge, dependent, f)
            expected, ref_lps = _lps(ref.gauge, dependent, f)
            assert value == expected and type(value) is type(expected)
            assert len(ref_lps) == 1 and len(lps) == (0 if value is INF else 1)
            seen["off span" if value is INF else "on span"] += 1
            seen["zero entries"] += 0 < support < space.size
            if kind != "zeros":
                seen[kind, "on 6+ atoms"] += support >= 6
    assert min(seen.values()) >= 40, seen


def _mirrored_single_flips(v: RandomVariable) -> set:
    """v with one support entry negated, and the mirror of each."""
    flips = set()
    for i, value in enumerate(v.values):
        if value != 0:
            values = list(v.values)
            values[i] = -value
            flips.add(tuple(values))
            flips.add(tuple(-x for x in values))
    return flips


def test_solid_check_matches_the_all_flips_oracle():
    rnd = random.Random(626)
    seen: Counter = Counter()
    for trial in range(300):
        if trial % 3 == 2:
            # A hull has up to 2^(n-1) generators per generator of the body;
            # the oracle tests every flip of each.
            body = solid_hull(random_body(rnd, random_space(rnd, rnd.randint(1, 4)), 2))
        else:
            body = random_body(rnd, random_space(rnd, rnd.randint(1, 5)), 3)
        space = body.space
        with record_outcomes([]) as lps:
            verdict, counter = solid_check(body)
        assert verdict == ref.solid_check(body)[0]
        assert len(lps) <= space.size * len(body.generators)
        seen["solid" if verdict else "not solid"] += 1
        if verdict:
            assert counter is None
            continue
        assert solid_hull_member(body, counter)[0]
        assert not member(body, counter)
        assert next(x for x in counter.values if x != 0) > 0
        assert any(counter.values in _mirrored_single_flips(v) for v in body.generators)
    assert min(seen["solid"], seen["not solid"]) >= 100, seen


def test_attainable_matches_the_backward_induction_oracle():
    rnd = random.Random(724)
    seen: Counter = Counter()
    for _ in range(300):
        tree = random_tree(rnd)
        space = tree.space
        assert viability(tree)
        elements = strategy_basis(tree).elements
        # Dependent gains leave the hedge non-unique; both pin them to 0.
        seen["dependent basis"] += linalg.rank([e.values for e in elements]) < len(elements)
        span_claim = RandomVariable.zero(space)
        for element in elements:
            span_claim = span_claim + element.scaled(random_fraction(rnd))
        claims = [("random", random_rv(rnd, space)), ("span", span_claim)]
        claims += [("indicator", RandomVariable.indicator(space, [a])) for a in space.atoms]
        for kind, xi in claims:
            with record_outcomes([]) as lps:
                got = attainable(tree, xi)
            assert not lps
            assert got == ref.attainable(tree, xi)
            ok, detail = got
            assert ok or kind != "span"
            if ok:
                assert replicates(tree, detail[0], detail[1], xi)
            seen[kind, ok] += 1
    assert seen["dependent basis"] >= 30, seen
    assert seen["random", True] >= 30 and seen["random", False] >= 100, seen
    assert seen["indicator", True] >= 100 and seen["indicator", False] >= 300, seen
