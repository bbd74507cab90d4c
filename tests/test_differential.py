"""The library vs the earlier implementations in ``fraction_reference``.

The simplex must take the same pivots and return an equal ``LPOutcome``,
field for field; the eliminations must return equal ranks, row subsets,
solutions and span answers; vertex enumeration must return the same sorted
vertices as the brute force over every d-subset of rows.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from riskspan import (
    LinearConstraint,
    LinearProgram,
    LPStatus,
    PreconditionError,
    attainable,
    emm_set,
    gauge,
    linalg,
    nonsolidity_witness,
    polar_gauge,
    record_outcomes,
    solid_hull_member,
    solve,
    vertex_enumeration,
)

import fraction_reference as ref
from support import random_body, random_rv, random_space, random_tree


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


def test_library_programs_match_the_reference():
    # Every LP that gauges, polars, solid-hull tests and market questions
    # solve on small random instances.
    rnd = random.Random(608)
    recorded: list = []
    with record_outcomes(recorded):
        for _ in range(6):
            space = random_space(rnd, rnd.randint(2, 4))
            body = random_body(rnd, space, rnd.randint(1, 4))
            x = random_rv(rnd, space)
            gauge(body, x)
            polar_gauge(body, x)
            solid_hull_member(body, x)
        for _ in range(6):
            tree = random_tree(rnd)
            nonsolidity_witness(tree)
            emm_set(tree).bounds(random_rv(rnd, tree.space))
            attainable(tree, random_rv(rnd, tree.space))
    assert len(recorded) > 50
    for lp, outcome in recorded:
        assert outcome == ref.solve(lp)


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
            assert linalg.in_span(rows, vector) == ref.in_span(rows, vector)
        assert linalg.in_span(rows, inside)
    assert deficient > 100
    assert linalg.rank([]) == 0 and linalg.solve_exact([], []) == []
    assert not linalg.in_span([], [Fraction(1)])


def test_unique_solution_matches_rank_and_solve_exact():
    # Square, tall and wide systems, singular and inconsistent ones included.
    rnd = random.Random(610)
    seen = {"unique": 0, "singular": 0, "inconsistent": 0}
    for _ in range(500):
        rows = _random_matrix(rnd)
        n = len(rows[0])
        if rnd.random() < 0.4:
            rows = rows[:n] if len(rows) >= n else rows + _block(rnd, n - len(rows), n, (1, 2))
        x0 = [Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))) for _ in range(n)]
        consistent = [sum((a * x for a, x in zip(row, x0)), Fraction(0)) for row in rows]
        arbitrary = [Fraction(rnd.randint(-3, 3)) for _ in rows]
        for rhs in (consistent, arbitrary):
            full = ref.rank(rows) == n
            expected = ref.solve_exact(rows, rhs) if full else None
            assert linalg._unique_solution(rows, rhs) == expected
            if not full:
                seen["singular"] += 1
            elif expected is None:
                seen["inconsistent"] += 1
            else:
                seen["unique"] += 1
                assert expected == x0 or rhs is arbitrary
    assert min(seen.values()) >= 40, seen


def _random_region(rnd: random.Random, d: int, bounded: bool) -> tuple[list, set]:
    """A random H-region in dimension d and the features it was built with.

    A random point x0 satisfies most rows, so many regions are nonempty; a
    negative slack, an inconsistent equality or a zero row ``0 <= -1`` can
    empty it.  Bounded regions add a box (anti-parallel pairs) or a simplex;
    in dimensions 4 and 5 mostly the simplex, which has d + 1 rows, to keep
    the brute force over C(m, d) subsets small.
    """

    def frac(lo=-3, hi=3):
        return Fraction(rnd.randint(lo, hi), rnd.choice((1, 1, 2, 3)))

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


def test_vertex_enumeration_matches_the_subset_brute_force():
    rnd = random.Random(611)
    seen: Counter = Counter()
    for trial in range(400):
        d = rnd.choice((1, 2, 2, 3, 3, 3, 4, 4, 5))
        bounded = trial % 5 != 0
        rows, features = _random_region(rnd, d, bounded)
        got = vertex_enumeration(rows, d, _bounded=True)
        assert got == ref.vertex_enumeration(rows, d, bounded=True)
        if bounded:
            features.add("bounded")
            features.add("empty" if not got else "nonempty")
        seen.update(features)
        # The probing public call on every region built without bounds and
        # on the bounded ones of every tenth trial.
        if trial % 10 in (0, 1, 5):
            try:
                expected = ref.vertex_enumeration(rows, d)
            except PreconditionError:
                with pytest.raises(PreconditionError, match="unbounded input region"):
                    vertex_enumeration(rows, d)
                seen["unbounded"] += 1
            else:
                assert vertex_enumeration(rows, d) == expected
    assert min(seen.values()) >= 20 and len(seen) == 9, seen
