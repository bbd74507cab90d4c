"""Exact simplex: statuses, certificates, permutation invariance, vertices."""

import random
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest

from riskspan import (
    CertificateError,
    LinearConstraint,
    LinearProgram,
    LPStatus,
    PreconditionError,
    ValidationError,
    record_outcomes,
    solve,
    verify_outcome,
    vertex_enumeration,
)
from riskspan import exactlp
from riskspan.exactlp import _normalize, verify_infeasible, verify_optimal


def test_box_minimum():
    out = solve(LinearProgram.minimize([-1], (), lower=[0], upper=[1]))
    assert out.status is LPStatus.OPTIMAL
    assert out.value == -1
    assert out.point == (Fraction(1),)


def test_infeasible_interval():
    lp = LinearProgram.minimize([0], (LinearConstraint.of([1], "<=", -1),), lower=[0])
    out = solve(lp)
    assert out.status is LPStatus.INFEASIBLE
    assert out.farkas is not None


def test_unbounded_halfline():
    out = solve(LinearProgram.minimize([-1], (), lower=[0]))
    assert out.status is LPStatus.UNBOUNDED
    assert out.ray == (Fraction(1),)


def test_bound_only_optimum_rests_on_the_bounds():
    out = solve(LinearProgram.minimize([2, 0, 1], (), lower=[-3, None, 5]))
    assert out.status is LPStatus.OPTIMAL
    assert out.point == (Fraction(-3), Fraction(0), Fraction(5))
    assert out.value == -1
    assert out.dual == ()
    assert out.reduced_costs == (Fraction(2), Fraction(0), Fraction(1))


def test_bound_only_rays():
    # Negative cost on a bounded variable, nonzero cost on a free one.
    out = solve(LinearProgram.minimize([1, -2, 0], (), lower=[0, 1, None]))
    assert out.status is LPStatus.UNBOUNDED
    assert out.point == (Fraction(0), Fraction(1), Fraction(0))
    assert out.ray == (Fraction(0), Fraction(1), Fraction(0))
    out = solve(LinearProgram.minimize([0, 3], (), lower=[0, None]))
    assert out.status is LPStatus.UNBOUNDED
    assert out.ray == (Fraction(0), Fraction(-1))


def test_crossed_bounds_are_infeasible():
    out = solve(LinearProgram.minimize([1], (), lower=[2], upper=[1]))
    assert out.status is LPStatus.INFEASIBLE
    assert out.farkas == ()
    assert (out.farkas_lower, out.farkas_upper) == ((Fraction(1),), (Fraction(-1),))


def test_record_outcomes_keeps_to_its_own_thread():
    # Two threads record at the same time; each sink sees only its own LPs.
    solves = 150
    barrier = threading.Barrier(2, timeout=30)
    sinks: dict[int, list] = {}

    def work(tag: int) -> None:
        lp = LinearProgram.minimize([tag], (LinearConstraint.of([1], ">=", tag),), lower=[0])
        mine: list = []
        with record_outcomes(mine):
            barrier.wait()
            for _ in range(solves):
                solve(lp)
            barrier.wait()
        sinks[tag] = mine

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(tag,)) for tag in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for tag in (1, 2):
        assert len(sinks[tag]) == solves
        assert all(lp.objective == (tag,) for lp, _outcome in sinks[tag])


def test_lower_bounds_are_native_columns():
    # A 4-atom gauge over 4 generators: 8 variables >= 0 and 4 equality rows
    # give 4 rows and 8 native plus 4 artificial columns; no bound rows, no
    # negative parts.
    rows = tuple(
        LinearConstraint.of([1 if j % 4 == i else 0 for j in range(8)], "=", 1)
        for i in range(4)
    )
    norm = _normalize(LinearProgram.minimize([1] * 8, rows, lower=[0] * 8))
    assert (len(norm.tags), norm.ncols) == (4, 12)
    assert norm.neg == {}


def test_dimension_mismatch_rejected():
    with pytest.raises(ValidationError):
        LinearProgram.minimize([1, 2], (LinearConstraint.of([1], "<=", 1),))


def test_degenerate_equalities():
    lp = LinearProgram.minimize(
        [2, -1, 0],
        (
            LinearConstraint.of([1, 1, 1], "=", 1),
            LinearConstraint.of([1, 1, 1], "=", 1),  # duplicated row
            LinearConstraint.of([1, -1, 0], "<=", Fraction(1, 2)),
        ),
        lower=[0, 0, 0],
    )
    out = solve(lp)
    assert out.status is LPStatus.OPTIMAL
    assert out.value == -1
    assert out.point == (Fraction(0), Fraction(1), Fraction(0))


def _random_lp(rnd: random.Random) -> LinearProgram:
    n = rnd.randint(1, 4)
    m = rnd.randint(1, 5)
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))) for _ in range(n)]
        rel = rnd.choice(("<=", ">=", "="))
        rows.append(LinearConstraint.of(coeffs, rel, Fraction(rnd.randint(-4, 4), 2)))
    lower = [Fraction(rnd.randint(-3, 0)) if rnd.random() < 0.7 else None for _ in range(n)]
    upper = []
    for j in range(n):
        if rnd.random() < 0.7:
            base = lower[j] if lower[j] is not None else Fraction(-2)
            upper.append(base + rnd.randint(0, 4))
        else:
            upper.append(None)
    objective = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
    return LinearProgram.minimize(objective, tuple(rows), lower=lower, upper=upper)


def test_random_programs_all_statuses_certified():
    rnd = random.Random(2024)
    seen = set()
    outcomes = []
    with record_outcomes(outcomes):
        for _ in range(120):
            lp = _random_lp(rnd)
            out = solve(lp)  # solve() self-verifies; re-verify explicitly anyway
            verify_outcome(lp, out)
            seen.add(out.status)
    assert seen == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE, LPStatus.UNBOUNDED}
    assert len(outcomes) == 120


def test_permuted_rows_and_columns_keep_the_value():
    rnd = random.Random(77)
    tried = 0
    while tried < 25:
        lp = _random_lp(rnd)
        out = solve(lp)
        if out.status is not LPStatus.OPTIMAL:
            continue
        tried += 1
        n = len(lp.objective)
        row_perm = list(range(len(lp.constraints)))
        col_perm = list(range(n))
        rnd.shuffle(row_perm)
        rnd.shuffle(col_perm)
        permuted = LinearProgram.minimize(
            [lp.objective[j] for j in col_perm],
            tuple(
                LinearConstraint(
                    tuple(lp.constraints[i].coefficients[j] for j in col_perm),
                    lp.constraints[i].relation,
                    lp.constraints[i].rhs,
                )
                for i in row_perm
            ),
            lower=[lp.lower[j] for j in col_perm],
            upper=[lp.upper[j] for j in col_perm],
        )
        assert solve(permuted).value == out.value


def test_tampered_certificates_are_rejected():
    lp = LinearProgram.minimize(
        [1, 1],
        (LinearConstraint.of([1, 2], ">=", 3), LinearConstraint.of([3, 1], ">=", 4)),
    )
    out = solve(lp)
    bad_dual = out.__class__(
        status=out.status,
        value=out.value,
        point=out.point,
        dual=(out.dual[0] + 1, out.dual[1]),
        reduced_costs=out.reduced_costs,
    )
    with pytest.raises(CertificateError):
        verify_optimal(lp, bad_dual)

    lp2 = LinearProgram.minimize([0], (LinearConstraint.of([1], "<=", -1),), lower=[0])
    out2 = solve(lp2)
    bad_farkas = out2.__class__(
        status=out2.status,
        farkas=(Fraction(0),),
        farkas_lower=out2.farkas_lower,
        farkas_upper=out2.farkas_upper,
    )
    with pytest.raises(CertificateError):
        verify_infeasible(lp2, bad_farkas)


class TestCertificateLengths:
    """A certificate vector whose length is not the variable count is rejected."""

    @staticmethod
    def _assert_rejected(lp, out, fields):
        for name in fields:
            vector = getattr(out, name)
            for wrong in (vector + (Fraction(0),), vector[:-1]):
                with pytest.raises(CertificateError, match="length differs from variable count"):
                    verify_outcome(lp, replace(out, **{name: wrong}))

    def test_optimal(self):
        lp = LinearProgram.minimize([1, 1], (LinearConstraint.of([1, 2], ">=", 3),), lower=[0, 0])
        out = solve(lp)
        assert out.status is LPStatus.OPTIMAL
        self._assert_rejected(lp, out, ("point", "reduced_costs"))

    def test_infeasible(self):
        # A trailing zero on either bound-multiplier vector used to be accepted,
        # and a short one raised IndexError.
        lp = LinearProgram.minimize([0, 0], (LinearConstraint.of([1, 1], "<=", -1),), lower=[0, 0])
        out = solve(lp)
        assert out.status is LPStatus.INFEASIBLE
        self._assert_rejected(lp, out, ("farkas_lower", "farkas_upper"))

    def test_unbounded(self):
        lp = LinearProgram.minimize([-1, 0], (LinearConstraint.of([1, -1], "<=", 1),), lower=[0, 0])
        out = solve(lp)
        assert out.status is LPStatus.UNBOUNDED
        self._assert_rejected(lp, out, ("point", "ray"))


def _cube(d: int, low: int = -1, high: int = 1) -> list:
    """The rows of the box [low, high]^d."""
    rows = []
    for j in range(d):
        unit = [0] * d
        unit[j] = 1
        rows += [LinearConstraint.of(unit, ">=", low), LinearConstraint.of(unit, "<=", high)]
    return rows


def _enumerate_without_lp(rows: list, dimension: int) -> list:
    outcomes: list = []
    with record_outcomes(outcomes):
        points = vertex_enumeration(rows, dimension)
    assert outcomes == []
    return points


class TestVertexEnumeration:
    def test_unit_square(self):
        rows = [
            LinearConstraint.of([1, 0], ">=", 0),
            LinearConstraint.of([1, 0], "<=", 1),
            LinearConstraint.of([0, 1], ">=", 0),
            LinearConstraint.of([0, 1], "<=", 1),
        ]
        points = _enumerate_without_lp(rows, 2)
        assert len(points) == 4
        assert set(points) == {
            (Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        }

    def test_standard_simplex(self):
        rows = [
            LinearConstraint.of([1, 0], ">=", 0),
            LinearConstraint.of([0, 1], ">=", 0),
            LinearConstraint.of([1, 1], "<=", 1),
        ]
        assert len(_enumerate_without_lp(rows, 2)) == 3

    def test_diamond(self):
        rows = [
            LinearConstraint.of([1, 1], "<=", 1),
            LinearConstraint.of([1, 1], ">=", -1),
            LinearConstraint.of([1, -1], "<=", 1),
            LinearConstraint.of([1, -1], ">=", -1),
        ]
        assert set(_enumerate_without_lp(rows, 2)) == {
            (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(-1)),
        }

    def test_triangle_needs_no_lp(self):
        # The oriented rows (1, 0), (0, 1), (-1, -2) do not sum to 0; the
        # double description still settles the region from its rays.
        rows = [
            LinearConstraint.of([1, 0], ">=", 0),
            LinearConstraint.of([0, 1], ">=", 0),
            LinearConstraint.of([1, 2], "<=", 2),
        ]
        assert _enumerate_without_lp(rows, 2) == [(0, 0), (0, 1), (2, 0)]

    def test_unbounded_region_rejected(self):
        rows = [LinearConstraint.of([1, 0], ">=", 0)]
        with pytest.raises(PreconditionError):
            vertex_enumeration(rows, 2)

    def test_empty_region_has_no_vertices(self):
        rows = [
            LinearConstraint.of([1], ">=", 1),
            LinearConstraint.of([1], "<=", 0),
        ]
        assert vertex_enumeration(rows, 1) == []

    def test_ray_budget(self, monkeypatch):
        # The d-cube has 2^d vertices, so a budget of 16 rays admits d = 4 only.
        monkeypatch.setattr(exactlp, "VERTEX_RAY_BUDGET", 16)
        assert len(vertex_enumeration(_cube(4), 4)) == 16
        with pytest.raises(PreconditionError, match="more than 16 rays"):
            vertex_enumeration(_cube(5), 5)

    def test_vertex_gate_rejects_an_infeasible_point(self, monkeypatch):
        # (3/2, 1/2) as the ray (3, 1, 2) lies outside the unit square.
        monkeypatch.setattr(exactlp, "_double_description", lambda cone: ([(3, 1, 2)], []))
        with pytest.raises(CertificateError, match="^vertex check: <= row violated$"):
            vertex_enumeration(_cube(2, 0, 1), 2)

    def test_vertex_gate_rejects_a_feasible_non_vertex(self, monkeypatch):
        # The centre of the unit square is tight on no row.
        monkeypatch.setattr(exactlp, "_double_description", lambda cone: ([(1, 1, 2)], []))
        with pytest.raises(CertificateError, match="rank below the dimension$"):
            vertex_enumeration(_cube(2, 0, 1), 2)

    def test_optima_live_on_vertices(self):
        rnd = random.Random(99)
        rows = [
            LinearConstraint.of([1, 0], ">=", -2),
            LinearConstraint.of([1, 0], "<=", 2),
            LinearConstraint.of([0, 1], ">=", -1),
            LinearConstraint.of([0, 1], "<=", 3),
            LinearConstraint.of([1, 1], "<=", 4),
            LinearConstraint.of([2, -1], "<=", 3),
        ]
        points = vertex_enumeration(rows, 2)
        assert len(points) == len(set(points))
        for _ in range(25):
            objective = [Fraction(rnd.randint(-4, 4)), Fraction(rnd.randint(-4, 4))]
            out = solve(LinearProgram.minimize(objective, tuple(rows)))
            assert out.status is LPStatus.OPTIMAL
            best = min(sum(c * v for c, v in zip(objective, p)) for p in points)
            assert out.value == best


def _random_boxed_lp(rnd: random.Random) -> tuple[LinearProgram, list[LinearConstraint]]:
    """A random LP whose feasible region is bounded, and that region as rows.

    Each variable is boxed by bounds (lower bounds mostly nonzero), or has a
    lower or an upper bound closed off by a row, or is free and boxed by rows.
    """
    n = rnd.randint(1, 4)
    rows: list[LinearConstraint] = []
    lower: list = []
    upper: list = []
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        a = Fraction(rnd.randint(-3, 3), rnd.choice((1, 2)))
        b = a + rnd.randint(0, 4)
        kind = rnd.choice(("box", "lower", "upper", "free"))
        lower.append(a if kind in ("box", "lower") else None)
        upper.append(b if kind in ("box", "upper") else None)
        if kind in ("upper", "free"):
            rows.append(LinearConstraint.of(unit, ">=", a))
        if kind in ("lower", "free"):
            rows.append(LinearConstraint.of(unit, "<=", b))
    for _ in range(rnd.randint(0, 3)):
        coeffs = [Fraction(rnd.randint(-3, 3), rnd.choice((1, 2))) for _ in range(n)]
        rel = rnd.choice(("<=", ">=", "="))
        rows.append(LinearConstraint.of(coeffs, rel, Fraction(rnd.randint(-4, 4), 2)))
    objective = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
    region = list(rows)
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        if lower[j] is not None:
            region.append(LinearConstraint.of(unit, ">=", lower[j]))
        if upper[j] is not None:
            region.append(LinearConstraint.of(unit, "<=", upper[j]))
    return LinearProgram.minimize(objective, tuple(rows), lower=lower, upper=upper), region


def test_bounded_optimum_matches_the_best_vertex():
    # Differential oracle: a bounded region is empty iff it has no vertex, and
    # otherwise the optimum is the least objective value over its vertices.
    rnd = random.Random(5)
    seen = set()
    for _ in range(150):
        lp, region = _random_boxed_lp(rnd)
        out = solve(lp)
        points = vertex_enumeration(region, len(lp.objective))
        seen.add(out.status)
        if not points:
            assert out.status is LPStatus.INFEASIBLE
            continue
        assert out.status is LPStatus.OPTIMAL
        assert out.value == min(
            sum((c * v for c, v in zip(lp.objective, p)), Fraction(0)) for p in points
        )
    assert seen == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE}
