"""Exact rational linear programming with status certificates.

Two-phase primal simplex with Bland's anti-cycling rule on an exact
fraction-free tableau: each row, the reduced-cost row included, is a list of
Python ints over one positive denominator, kept in lowest terms.  A pivot
updates rows in place with the integer elimination step of ``linalg`` and
the ratio test compares by cross-multiplication, so Bland's rule sees the
same exact values a Fraction tableau would.  The point, value, duals, Farkas
multipliers and ray are read out as Fractions.

A variable with a finite lower bound l is one native nonnegative column for
x - l (the row right-hand sides shift by A.l); only free variables carry a
negative-part column, and only constraint rows and finite upper bounds become
tableau rows.  Certificates decompose into one multiplier per constraint plus
per-variable bound multipliers / reduced costs (lower-bound multipliers of an
infeasible program are the phase-one reduced costs of the native columns).

``solve`` re-verifies every certificate against the original program before
returning, on integer rows: each constraint row is scaled once to integers
(A, B) over one positive denominator, and so is each certificate vector, so
every check is an integer dot product plus a sign or equality test.  The
check reads only the ``LinearProgram`` and the ``LPOutcome``, never the
tableau, so it stays independent of the solver.

Statuses:
  * OPTIMAL    -- primal point, value, dual multipliers, reduced costs;
                  dual objective equals the primal value exactly.
  * INFEASIBLE -- Farkas multipliers (rows + bounds) combining the
                  constraints into 0 >= positive.
  * UNBOUNDED  -- a feasible point plus an exact improving ray.

``vertex_enumeration`` lists the vertices of a bounded H-polytope by double
description on the same integer rows and solves no LP; each vertex is
re-verified against the rows before it is returned.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

from . import linalg
from .errors import CertificateError, PreconditionError, ValidationError
from .rational import parse_rational

_F0 = Fraction(0)
_F1 = Fraction(1)

RELATIONS = ("=", "<=", ">=")

# The most rays the double description of ``vertex_enumeration`` may hold.
VERTEX_RAY_BUDGET = 8192


@dataclass(frozen=True)
class LinearConstraint:
    coefficients: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValidationError(f"unknown relation {self.relation!r}")

    @classmethod
    def of(cls, coefficients: Sequence[object], relation: str, rhs: object) -> "LinearConstraint":
        return cls(tuple(parse_rational(c) for c in coefficients), relation, parse_rational(rhs))


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x subject to rows and optional per-variable bounds."""

    objective: tuple[Fraction, ...]
    constraints: tuple[LinearConstraint, ...]
    lower: tuple[Optional[Fraction], ...]
    upper: tuple[Optional[Fraction], ...]

    def __post_init__(self) -> None:
        n = len(self.objective)
        if n == 0:
            raise ValidationError("a program needs at least one variable")
        for con in self.constraints:
            if len(con.coefficients) != n:
                raise ValidationError("constraint row length differs from variable count")
        if len(self.lower) != n or len(self.upper) != n:
            raise ValidationError("one (optional) bound pair per variable required")

    @classmethod
    def minimize(
        cls,
        objective: Sequence[object],
        constraints: Sequence[LinearConstraint] = (),
        lower: Optional[Sequence[Optional[object]]] = None,
        upper: Optional[Sequence[Optional[object]]] = None,
    ) -> "LinearProgram":
        n = len(objective)
        lo = tuple(None if b is None else parse_rational(b) for b in (lower or [None] * n))
        up = tuple(None if b is None else parse_rational(b) for b in (upper or [None] * n))
        return cls(tuple(parse_rational(c) for c in objective), tuple(constraints), lo, up)


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPOutcome:
    status: LPStatus
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None
    dual: Optional[tuple[Fraction, ...]] = None
    reduced_costs: Optional[tuple[Fraction, ...]] = None
    farkas: Optional[tuple[Fraction, ...]] = None
    farkas_lower: Optional[tuple[Fraction, ...]] = None
    farkas_upper: Optional[tuple[Fraction, ...]] = None
    ray: Optional[tuple[Fraction, ...]] = None


_SINKS: ContextVar[tuple] = ContextVar("riskspan_lp_sinks", default=())


@contextmanager
def record_outcomes(sink: list) -> Iterator[list]:
    """Collect every (lp, outcome) pair solved while the context is active.

    The active sinks live in a context variable, so a thread (or task) only
    records the programs it solves itself.
    """
    token = _SINKS.set(_SINKS.get() + (sink,))
    try:
        yield sink
    finally:
        _SINKS.reset(token)


# ---------------------------------------------------------------------------
# simplex core
#
# A tableau row is a list of ints read over one positive denominator
# (``dens[i]``), in lowest terms; the reduced-cost row is stored the same
# way.  A basic column's entry in its row equals the row's denominator.


def _pivot(
    rows: list[list[int]],
    dens: list[int],
    basis: list[int],
    red: list[int],
    rden: int,
    r: int,
    c: int,
) -> int:
    """Pivot on (r, c) in place; returns the new reduced-cost denominator."""
    prow = rows[r]
    if prow[c] < 0:
        prow[:] = [-v for v in prow]
    g = gcd(*prow)
    if g > 1:
        prow[:] = [v // g for v in prow]
    dens[r] = prow[c]
    nz = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            dens[i] = linalg._eliminate(row, prow, c, nz, dens[i])
    if red[c]:
        rden = linalg._eliminate(red, prow, c, nz, rden)
    basis[r] = c
    return rden


def _simplex(
    rows: list[list[int]],
    dens: list[int],
    basis: list[int],
    red: list[int],
    rden: int,
    enterable: int,
    evict_from: Optional[int] = None,
) -> tuple[Optional[int], int]:
    """Run Bland pivots to optimality or an unbounded column.

    ``red / rden`` enters as the cost row (right-hand side entry 0 last) and
    is reduced against the basis here, then kept up to date in place.
    ``enterable`` caps the column indices that may enter the basis (used to
    freeze artificial columns out in phase two).  With ``evict_from`` set,
    any basic variable at or beyond that column index is forced to leave at
    a ratio-zero pivot before it could take a positive value again; such
    columns sit at value zero after phase one, so feasibility is preserved
    even when the pivot element is negative.  Returns the unbounded entering
    column (None at optimality) and the final denominator of ``red``, whose
    entries under the artificial columns encode the duals.
    """
    for k, b in enumerate(basis):
        if red[b]:
            prow = rows[k]
            rden = linalg._eliminate(red, prow, b, [j for j, v in enumerate(prow) if v], rden)

    while True:
        enter = next((j for j in range(enterable) if red[j] < 0), None)
        if enter is None:
            return None, rden
        leave = None
        if evict_from is not None:
            leave = next(
                (i for i, row in enumerate(rows) if basis[i] >= evict_from and row[enter]),
                None,
            )
        if leave is None:
            # Ratio rhs/coeff: the row denominator cancels, and coeff > 0, so
            # ratios compare by cross-multiplication.
            best_rhs = best_coeff = 0
            for i, row in enumerate(rows):
                coeff = row[enter]
                if coeff > 0:
                    cross = row[-1] * best_coeff - best_rhs * coeff
                    if leave is None or cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                        best_rhs, best_coeff = row[-1], coeff
                        leave = i
            if leave is None:
                return enter, rden
        rden = _pivot(rows, dens, basis, red, rden, leave, enter)


# ---------------------------------------------------------------------------
# standard-form assembly


@dataclass
class _Normalized:
    """Standard form: x_j = shift_j + column j, minus column neg[j] if free.

    Rows are the user constraints, then one row per finite upper bound; each
    is an integer row (right-hand side last) over a positive denominator.
    """

    n: int
    shift: list[Fraction]  # lower bound, or 0 for a free variable
    neg: dict[int, int]  # free variable -> its negative-part column
    tags: list[tuple[str, int]]  # per row: ("user", i) or ("upper", j)
    rows: list[list[int]]  # sign-flipped standard-form rows, rhs >= 0 last
    dens: list[int]  # row denominators
    rho: list[int]  # row sign flips
    art0: int  # first artificial column
    ncols: int


def _normalize(lp: LinearProgram) -> _Normalized:
    n = len(lp.objective)
    shift = [_F0 if lo is None else lo for lo in lp.lower]
    neg: dict[int, int] = {}
    for j in range(n):
        if lp.lower[j] is None:
            neg[j] = n + len(neg)
    specs: list[tuple[Sequence[Fraction], str, Fraction, tuple[str, int]]] = [
        (con.coefficients, con.relation, con.rhs, ("user", i))
        for i, con in enumerate(lp.constraints)
    ]
    for j, up in enumerate(lp.upper):
        if up is not None:
            unit = [_F0] * n
            unit[j] = _F1
            specs.append((unit, "<=", up, ("upper", j)))
    m = len(specs)
    slack_col = n + len(neg)
    art0 = slack_col + sum(1 for spec in specs if spec[1] != "=")
    ncols = art0 + m
    rows: list[list[int]] = []
    dens: list[int] = []
    rho = [1] * m
    shifted = [(j, lo) for j, lo in enumerate(shift) if lo]
    for k, (coeffs, rel, b, _tag) in enumerate(specs):
        for j, lo in shifted:
            if coeffs[j]:
                b -= coeffs[j] * lo
        ratios = [c.as_integer_ratio() for c in coeffs]
        bnum, bden = b.as_integer_ratio()
        den = lcm(bden, *[d for _num, d in ratios])
        sign = 1
        if bnum < 0:
            rho[k] = sign = -1
        slack = sign * den
        row = [0] * (ncols + 1)
        for j, (num, d) in enumerate(ratios):
            if num:
                row[j] = v = sign * num * (den // d)
                if j in neg:
                    row[neg[j]] = -v
        if rel == "<=":
            row[slack_col] = slack
            slack_col += 1
        elif rel == ">=":
            row[slack_col] = -slack
            slack_col += 1
        row[art0 + k] = den
        row[ncols] = sign * bnum * (den // bden)
        g = gcd(*row)
        if g > 1:
            row = [v // g for v in row]
            den //= g
        rows.append(row)
        dens.append(den)
    return _Normalized(n, shift, neg, [spec[3] for spec in specs], rows, dens, rho, art0, ncols)


def _split_duals(
    norm: _Normalized, lp: LinearProgram, eta: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Split per-row multipliers into user-row and upper-bound parts."""
    user = [_F0] * len(lp.constraints)
    upper = [_F0] * norm.n
    for (kind, idx), y in zip(norm.tags, eta):
        if kind == "user":
            user[idx] = y
        else:
            upper[idx] = y
    return user, upper


def solve(lp: LinearProgram) -> LPOutcome:
    """Exact two-phase simplex; the returned certificate is self-verified."""
    norm = _normalize(lp)
    outcome = _solve_normalized(lp, norm)
    verify_outcome(lp, outcome)
    for sink in _SINKS.get():
        sink.append((lp, outcome))
    return outcome


def _solve_normalized(lp: LinearProgram, norm: _Normalized) -> LPOutcome:
    m = len(norm.tags)
    n = norm.n
    rows, dens = norm.rows, norm.dens
    basis = [norm.art0 + k for k in range(m)]

    red = [0] * norm.art0 + [1] * m + [0]
    enter, rden = _simplex(rows, dens, basis, red, 1, norm.ncols)
    if enter is not None:
        raise CertificateError("phase one reported unbounded below zero")

    # The phase-one value is the sum of the basic artificials, each >= 0.
    if any(basis[k] >= norm.art0 and rows[k][-1] for k in range(m)):
        # Reduced cost under artificial column k is 1 - y_k for the flipped
        # system, so the Farkas multipliers fall out of the final cost row.
        # A native column's phase-one reduced cost is -y.A_j >= 0, exactly
        # the lower-bound multiplier that closes the combination to zero.
        eta = [Fraction(norm.rho[k] * (rden - red[norm.art0 + k]), rden) for k in range(m)]
        user, upper = _split_duals(norm, lp, eta)
        lower = [_F0 if j in norm.neg else Fraction(red[j], rden) for j in range(n)]
        return LPOutcome(
            LPStatus.INFEASIBLE,
            farkas=tuple(user),
            farkas_lower=tuple(lower),
            farkas_upper=tuple(upper),
        )

    cost = [_F0] * (norm.ncols + 1)
    for j in range(n):
        cost[j] = lp.objective[j]
    for j, col in norm.neg.items():
        cost[col] = -lp.objective[j]
    red, rden = linalg._scaled(cost)
    enter, rden = _simplex(rows, dens, basis, red, rden, norm.art0, evict_from=norm.art0)
    point = _point_from_basis(norm, basis)
    if enter is not None:
        direction = [_F0] * norm.ncols
        direction[enter] = _F1
        for i, row in enumerate(rows):
            if row[enter]:
                direction[basis[i]] = Fraction(-row[enter], dens[i])
        ray = tuple(
            direction[j] - direction[norm.neg[j]] if j in norm.neg else direction[j]
            for j in range(n)
        )
        return LPOutcome(LPStatus.UNBOUNDED, point=point, ray=ray)

    value = sum((lp.objective[j] * point[j] for j in range(n)), _F0)
    # Artificial columns carry zero phase-two cost, so their reduced costs
    # are exactly -y for the flipped system.  A native column's reduced cost
    # c_j - y.A_j - upper_j is on the same row; adding back the upper-bound
    # multiplier leaves the reduced cost against the user rows alone.
    eta = [Fraction(-norm.rho[k] * red[norm.art0 + k], rden) for k in range(m)]
    user, upper = _split_duals(norm, lp, eta)
    reduced = [Fraction(red[j], rden) + upper[j] for j in range(n)]
    return LPOutcome(
        LPStatus.OPTIMAL,
        value=value,
        point=point,
        dual=tuple(user),
        reduced_costs=tuple(reduced),
    )


def _point_from_basis(norm: _Normalized, basis: list[int]) -> tuple[Fraction, ...]:
    assignment = [_F0] * norm.ncols
    for k, b in enumerate(basis):
        assignment[b] = Fraction(norm.rows[k][-1], norm.dens[k])
    return tuple(
        norm.shift[j] + assignment[j] - (assignment[norm.neg[j]] if j in norm.neg else _F0)
        for j in range(norm.n)
    )


# ---------------------------------------------------------------------------
# certificate verification (on integer rows; see the module docstring)

# (A, relation, B, denominator): the row A.x rel B, read over the denominator.
_IntRow = tuple[list[int], str, int, int]


def _integer_rows(constraints: Sequence[LinearConstraint]) -> list[_IntRow]:
    """Each constraint as integers (A, B) over its least positive denominator."""
    rows = []
    for con in constraints:
        ints, den = linalg._scaled((*con.coefficients, con.rhs))
        rhs = ints.pop()
        rows.append((ints, con.relation, rhs, den))
    return rows


def _integer_bounds(lp: LinearProgram) -> tuple[list[Optional[int]], list[Optional[int]], int]:
    """The finite lower and upper bounds as integers over one positive denominator."""
    ints, den = linalg._scaled([b for b in lp.lower + lp.upper if b is not None])
    finite = iter(ints)
    lower = [None if b is None else next(finite) for b in lp.lower]
    upper = [None if b is None else next(finite) for b in lp.upper]
    return lower, upper, den


def _row_multipliers(
    rows: Sequence[_IntRow], multipliers: Sequence[Fraction]
) -> tuple[list[int], int]:
    """Integers Y over one positive D with y_i * (a_i, b_i) = Y_i * (A_i, B_i) / D."""
    ratios = []
    for y, (_a, _rel, _b, row_den) in zip(multipliers, rows):
        num, den = y.as_integer_ratio()
        ratios.append((num, den * row_den))
    den = lcm(*[d for _num, d in ratios])
    return [num * (den // d) for num, d in ratios], den


def _combination(rows: Sequence[_IntRow], weights: Sequence[int], n: int) -> list[int]:
    """The integer row combination sum_i weights_i * A_i."""
    total = [0] * n
    for w, (a, _rel, _b, _den) in zip(weights, rows):
        if w:
            total = [t + w * v for t, v in zip(total, a)]
    return total


def _row_violation(rows: Sequence[_IntRow], point: Sequence[int], den: int) -> Optional[str]:
    """What the first row violated at ``point / den`` says, or None."""
    for a, rel, b, _den in rows:
        lhs = sum(map(mul, a, point))
        rhs = b * den
        if rel == "=":
            if lhs != rhs:
                return "equality row violated"
        elif rel == "<=":
            if lhs > rhs:
                return "<= row violated"
        elif lhs < rhs:
            return ">= row violated"
    return None


def _check_feasible(
    lp: LinearProgram,
    rows: Sequence[_IntRow],
    bounds: tuple[list[Optional[int]], list[Optional[int]], int],
    point: Sequence[Fraction],
) -> tuple[list[int], int]:
    """Raise unless the point is feasible; returns it as integers over one denominator."""
    n = len(lp.objective)
    if len(point) != n:
        raise CertificateError("point length differs from variable count")
    x, den = linalg._scaled(point)
    violation = _row_violation(rows, x, den)
    if violation is not None:
        raise CertificateError(violation)
    lower, upper, bden = bounds
    for j in range(n):
        if lower[j] is not None and x[j] * bden < lower[j] * den:
            raise CertificateError("lower bound violated")
        if upper[j] is not None and x[j] * bden > upper[j] * den:
            raise CertificateError("upper bound violated")
    return x, den


def verify_optimal(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.point is None or outcome.value is None or outcome.dual is None:
        raise CertificateError("optimal outcome lacks point/value/dual")
    if outcome.reduced_costs is None:
        raise CertificateError("optimal outcome lacks reduced costs")
    rows = _integer_rows(lp.constraints)
    bounds = _integer_bounds(lp)
    x, xden = _check_feasible(lp, rows, bounds, outcome.point)
    n = len(lp.objective)
    c, cden = linalg._scaled(lp.objective)
    vnum, vden = outcome.value.as_integer_ratio()
    if sum(map(mul, c, x)) * vden != vnum * cden * xden:
        raise CertificateError("reported value differs from objective at point")
    if len(outcome.dual) != len(lp.constraints):
        raise CertificateError("one dual multiplier per constraint required")
    y, yden = _row_multipliers(rows, outcome.dual)
    for yi, (_a, rel, _b, _den) in zip(y, rows):
        if rel == ">=" and yi < 0:
            raise CertificateError("dual sign for >= row")
        if rel == "<=" and yi > 0:
            raise CertificateError("dual sign for <= row")
    if len(outcome.reduced_costs) != n:
        raise CertificateError("reduced-cost length differs from variable count")
    # r = c - y.A reads R/rden = C/cden - S/yden with S = sum_i Y_i A_i.
    r, rden = linalg._scaled(outcome.reduced_costs)
    at_r, at_c, at_s = cden * yden, rden * yden, rden * cden
    for rj, cj, sj in zip(r, c, _combination(rows, y, n)):
        if rj * at_r != cj * at_c - sj * at_s:
            raise CertificateError("reduced costs do not match dual multipliers")
    lower, upper, bden = bounds
    at_bounds = 0
    for j in range(n):
        if r[j] > 0:
            if lower[j] is None:
                raise CertificateError("positive reduced cost on a variable without lower bound")
            at_bounds += r[j] * lower[j]
        elif r[j] < 0:
            if upper[j] is None:
                raise CertificateError("negative reduced cost on a variable without upper bound")
            at_bounds += r[j] * upper[j]
    # y.b + r.bounds = Y.B / yden + at_bounds / (rden * bden), against vnum / vden.
    yb = sum(yi * b for yi, (_a, _rel, b, _den) in zip(y, rows))
    if (yb * rden * bden + at_bounds * yden) * vden != vnum * yden * rden * bden:
        raise CertificateError("dual objective does not match primal value")


def verify_infeasible(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.farkas is None or outcome.farkas_lower is None or outcome.farkas_upper is None:
        raise CertificateError("infeasible outcome lacks Farkas multipliers")
    n = len(lp.objective)
    if len(outcome.farkas) != len(lp.constraints):
        raise CertificateError("one Farkas multiplier per constraint required")
    if len(outcome.farkas_lower) != n or len(outcome.farkas_upper) != n:
        raise CertificateError("Farkas bound multiplier length differs from variable count")
    rows = _integer_rows(lp.constraints)
    y, yden = _row_multipliers(rows, outcome.farkas)
    for yi, (_a, rel, _b, _den) in zip(y, rows):
        if rel == ">=" and yi < 0:
            raise CertificateError("Farkas sign for >= row")
        if rel == "<=" and yi > 0:
            raise CertificateError("Farkas sign for <= row")
    # Both bound multiplier vectors over one denominator mden.
    multipliers, mden = linalg._scaled((*outcome.farkas_lower, *outcome.farkas_upper))
    ylo, yup = multipliers[:n], multipliers[n:]
    lower, upper, bden = _integer_bounds(lp)
    combined = _combination(rows, y, n)
    for j in range(n):
        if ylo[j] < 0 or (lower[j] is None and ylo[j]):
            raise CertificateError("Farkas lower-bound multiplier invalid")
        if yup[j] > 0 or (upper[j] is None and yup[j]):
            raise CertificateError("Farkas upper-bound multiplier invalid")
        if (ylo[j] + yup[j]) * yden + combined[j] * mden:
            raise CertificateError("Farkas combination is not the zero functional")
    at_bounds = 0
    for j in range(n):
        if ylo[j]:
            at_bounds += ylo[j] * lower[j]
        if yup[j]:
            at_bounds += yup[j] * upper[j]
    # y.b + bound terms = Y.B / yden + at_bounds / (mden * bden) > 0.
    yb = sum(yi * b for yi, (_a, _rel, b, _den) in zip(y, rows))
    if yb * mden * bden + at_bounds * yden <= 0:
        raise CertificateError("Farkas value is not positive")


def verify_unbounded(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.point is None or outcome.ray is None:
        raise CertificateError("unbounded outcome lacks point/ray")
    rows = _integer_rows(lp.constraints)
    _check_feasible(lp, rows, _integer_bounds(lp), outcome.point)
    n = len(lp.objective)
    if len(outcome.ray) != n:
        raise CertificateError("ray length differs from variable count")
    # Only signs are tested, so the ray's denominator never enters.
    ray = linalg._scaled(outcome.ray)[0]
    for a, rel, _b, _den in rows:
        drift = sum(map(mul, a, ray))
        if rel == "=" and drift != 0:
            raise CertificateError("ray leaves an equality row")
        if rel == "<=" and drift > 0:
            raise CertificateError("ray increases a <= row")
        if rel == ">=" and drift < 0:
            raise CertificateError("ray decreases a >= row")
    for j in range(n):
        if lp.lower[j] is not None and ray[j] < 0:
            raise CertificateError("ray dives below a lower bound")
        if lp.upper[j] is not None and ray[j] > 0:
            raise CertificateError("ray climbs above an upper bound")
    if sum(map(mul, linalg._scaled(lp.objective)[0], ray)) >= 0:
        raise CertificateError("ray does not improve the objective")


def verify_outcome(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.status is LPStatus.OPTIMAL:
        verify_optimal(lp, outcome)
    elif outcome.status is LPStatus.INFEASIBLE:
        verify_infeasible(lp, outcome)
    else:
        verify_unbounded(lp, outcome)


# ---------------------------------------------------------------------------
# vertex enumeration


def _combine(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> tuple[int, ...]:
    """a * u - b * v, divided by the gcd of its entries."""
    w = [a * x - b * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple(x // g for x in w) if g > 1 else tuple(w)


def _double_description(
    cone: Sequence[tuple[Sequence[int], bool]]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Extreme rays and a lineality basis of {y : h.y >= 0, or = 0 if equality}.

    Motzkin's double description method, row by row from the whole space as
    lineality.  Rays are gcd-reduced integer tuples, each with its zero set
    (the rows it is tight on) as a bitmask.  A row that some lineality vector
    does not annul turns that vector into a ray (dropped for an equality row)
    and projects the rest onto the row's hyperplane.  Otherwise an equality
    row keeps its zero rays, an inequality row its zero and positive rays,
    and both add the combination of each +/- pair of adjacent rays: their
    common zero set has at least cone dimension - 2 rows, and no third ray's
    zero set contains it (the combinatorial test of Fukuda & Prodon).
    """
    n = len(cone[0][0])
    lineality = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for bit, (h, equality) in enumerate(cone):
        mask = 1 << bit
        k = next((k for k, l in enumerate(lineality) if sum(map(mul, h, l))), None)
        if k is not None:
            pivot = lineality.pop(k)
            hp = sum(map(mul, h, pivot))
            if hp < 0:
                pivot, hp = tuple(-v for v in pivot), -hp
            lineality = [_combine(hp, l, sum(map(mul, h, l)), pivot) for l in lineality]
            rays = [(_combine(hp, r, sum(map(mul, h, r)), pivot), z | mask) for r, z in rays]
            if not equality:
                rays.append((pivot, mask - 1))  # lineality annuls every earlier row
            continue
        zero_sets = [z for _r, z in rays]
        kept, positive, negative = [], [], []
        for r, z in rays:
            value = sum(map(mul, h, r))
            if value == 0:
                kept.append((r, z | mask))
            elif value > 0:
                positive.append((value, r, z))
                if not equality:
                    kept.append((r, z))
            else:
                negative.append((value, r, z))
        need = n - len(lineality) - 2
        for vp, p, zp in positive:
            for vn, q, zq in negative:
                common = zp & zq
                if common.bit_count() < need:
                    continue
                # p and q contain their common zero set; a third ray must not.
                if sum(1 for z in zero_sets if z & common == common) > 2:
                    continue
                kept.append((_combine(vp, q, vn, p), common | mask))
                if len(kept) > VERTEX_RAY_BUDGET:
                    raise PreconditionError(
                        f"vertex enumeration needs more than {VERTEX_RAY_BUDGET} rays"
                    )
        rays = kept
    return [r for r, _z in rays], lineality


def vertex_enumeration(
    constraints: Sequence[LinearConstraint], dimension: int
) -> list[tuple[Fraction, ...]]:
    """All vertices of a bounded H-polytope, sorted, by double description.

    Takes the extreme rays of the homogenised cone {(x, t) : t >= 0,
    t*b - a.x >= 0 per row, = 0 for an equality row} (Motzkin, Raiffa,
    Thompson & Thrall, "The double description method", 1953; Fukuda &
    Prodon, "Double description method revisited", 1996) and reads the
    status off them, with no LP: no ray with t > 0 means the region is empty
    (returns []); a ray with t = 0, or lineality left over, means it is
    unbounded (raises PreconditionError).  Otherwise the vertices are the
    rays r / t, and each must satisfy every integer row and be tight on rows
    of rank d, or CertificateError is raised.  More than
    ``VERTEX_RAY_BUDGET`` rays raise PreconditionError.
    """
    if dimension < 1:
        raise ValidationError("dimension must be positive")
    for con in constraints:
        if len(con.coefficients) != dimension:
            raise ValidationError("constraint row length differs from dimension")

    rows = _integer_rows(constraints)
    # Each row as h with h.(x, t) >= 0, or = 0 for an equality; t >= 0 last.
    cone = [
        ([*a, -b] if rel == ">=" else [*(-v for v in a), b], rel == "=")
        for a, rel, b, _den in rows
    ]
    cone.append(([0] * dimension + [1], False))
    rays, lineality = _double_description(cone)
    tops = [r for r in rays if r[-1] > 0]
    if not tops:
        return []
    if lineality or len(tops) < len(rays):
        raise PreconditionError("unbounded input region")
    vertices = []
    for *x, t in tops:
        violation = _row_violation(rows, x, t)
        if violation is not None:
            raise CertificateError(f"vertex check: {violation}")
        tight = [a for a, _rel, b, _den in rows if sum(map(mul, a, x)) == b * t]
        if linalg.rank(tight) != dimension:
            raise CertificateError("vertex check: tight rows have rank below the dimension")
        vertices.append(tuple(Fraction(v, t) for v in x))
    return sorted(vertices)
