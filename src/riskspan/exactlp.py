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
infeasible program are the phase-one reduced costs of the native columns),
all of which re-validate against the original data by exact arithmetic.
``solve`` self-checks every certificate before returning.

Statuses:
  * OPTIMAL    -- primal point, value, dual multipliers, reduced costs;
                  dual objective equals the primal value exactly.
  * INFEASIBLE -- Farkas multipliers (rows + bounds) combining the
                  constraints into 0 >= positive.
  * UNBOUNDED  -- a feasible point plus an exact improving ray.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from . import linalg
from .errors import CertificateError, PreconditionError, ValidationError
from .rational import parse_rational

_F0 = Fraction(0)
_F1 = Fraction(1)

RELATIONS = ("=", "<=", ">=")

VERTEX_DIMENSION_CAP = 8


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


def _reduced_costs(lp: LinearProgram, user_dual: Sequence[Fraction]) -> list[Fraction]:
    n = len(lp.objective)
    reduced = list(lp.objective)
    for y, con in zip(user_dual, lp.constraints):
        if y:
            for j in range(n):
                if con.coefficients[j]:
                    reduced[j] -= y * con.coefficients[j]
    return reduced


# ---------------------------------------------------------------------------
# certificate verification


def _row_violation(
    constraints: Sequence[LinearConstraint], point: Sequence[Fraction]
) -> Optional[str]:
    """What the first constraint row violated at the point says, or None."""
    for con in constraints:
        lhs = sum((c * x for c, x in zip(con.coefficients, point)), _F0)
        if con.relation == "=" and lhs != con.rhs:
            return "equality row violated"
        if con.relation == "<=" and lhs > con.rhs:
            return "<= row violated"
        if con.relation == ">=" and lhs < con.rhs:
            return ">= row violated"
    return None


def _check_feasible(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    n = len(lp.objective)
    if len(point) != n:
        raise CertificateError("point length differs from variable count")
    violation = _row_violation(lp.constraints, point)
    if violation is not None:
        raise CertificateError(violation)
    for j in range(n):
        if lp.lower[j] is not None and point[j] < lp.lower[j]:
            raise CertificateError("lower bound violated")
        if lp.upper[j] is not None and point[j] > lp.upper[j]:
            raise CertificateError("upper bound violated")


def verify_optimal(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.point is None or outcome.value is None or outcome.dual is None:
        raise CertificateError("optimal outcome lacks point/value/dual")
    if outcome.reduced_costs is None:
        raise CertificateError("optimal outcome lacks reduced costs")
    _check_feasible(lp, outcome.point)
    n = len(lp.objective)
    value = sum((c * x for c, x in zip(lp.objective, outcome.point)), _F0)
    if value != outcome.value:
        raise CertificateError("reported value differs from objective at point")
    if len(outcome.dual) != len(lp.constraints):
        raise CertificateError("one dual multiplier per constraint required")
    for y, con in zip(outcome.dual, lp.constraints):
        if con.relation == ">=" and y < 0:
            raise CertificateError("dual sign for >= row")
        if con.relation == "<=" and y > 0:
            raise CertificateError("dual sign for <= row")
    expected_reduced = _reduced_costs(lp, outcome.dual)
    if list(outcome.reduced_costs) != expected_reduced:
        raise CertificateError("reduced costs do not match dual multipliers")
    dual_value = sum((y * con.rhs for y, con in zip(outcome.dual, lp.constraints)), _F0)
    for j in range(n):
        r = outcome.reduced_costs[j]
        if r > 0:
            if lp.lower[j] is None:
                raise CertificateError("positive reduced cost on a variable without lower bound")
            dual_value += r * lp.lower[j]
        elif r < 0:
            if lp.upper[j] is None:
                raise CertificateError("negative reduced cost on a variable without upper bound")
            dual_value += r * lp.upper[j]
    if dual_value != outcome.value:
        raise CertificateError("dual objective does not match primal value")


def verify_infeasible(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.farkas is None or outcome.farkas_lower is None or outcome.farkas_upper is None:
        raise CertificateError("infeasible outcome lacks Farkas multipliers")
    n = len(lp.objective)
    if len(outcome.farkas) != len(lp.constraints):
        raise CertificateError("one Farkas multiplier per constraint required")
    for y, con in zip(outcome.farkas, lp.constraints):
        if con.relation == ">=" and y < 0:
            raise CertificateError("Farkas sign for >= row")
        if con.relation == "<=" and y > 0:
            raise CertificateError("Farkas sign for <= row")
    total = _F0
    for j in range(n):
        ylo = outcome.farkas_lower[j]
        yup = outcome.farkas_upper[j]
        if ylo < 0 or (lp.lower[j] is None and ylo != 0):
            raise CertificateError("Farkas lower-bound multiplier invalid")
        if yup > 0 or (lp.upper[j] is None and yup != 0):
            raise CertificateError("Farkas upper-bound multiplier invalid")
        combined = ylo + yup
        for y, con in zip(outcome.farkas, lp.constraints):
            if y and con.coefficients[j]:
                combined += y * con.coefficients[j]
        if combined != 0:
            raise CertificateError("Farkas combination is not the zero functional")
    total = sum((y * con.rhs for y, con in zip(outcome.farkas, lp.constraints)), _F0)
    for j in range(n):
        if outcome.farkas_lower[j]:
            total += outcome.farkas_lower[j] * lp.lower[j]
        if outcome.farkas_upper[j]:
            total += outcome.farkas_upper[j] * lp.upper[j]
    if total <= 0:
        raise CertificateError("Farkas value is not positive")


def verify_unbounded(lp: LinearProgram, outcome: LPOutcome) -> None:
    if outcome.point is None or outcome.ray is None:
        raise CertificateError("unbounded outcome lacks point/ray")
    _check_feasible(lp, outcome.point)
    n = len(lp.objective)
    ray = outcome.ray
    if len(ray) != n:
        raise CertificateError("ray length differs from variable count")
    for con in lp.constraints:
        drift = sum((c * d for c, d in zip(con.coefficients, ray)), _F0)
        if con.relation == "=" and drift != 0:
            raise CertificateError("ray leaves an equality row")
        if con.relation == "<=" and drift > 0:
            raise CertificateError("ray increases a <= row")
        if con.relation == ">=" and drift < 0:
            raise CertificateError("ray decreases a >= row")
    for j in range(n):
        if lp.lower[j] is not None and ray[j] < 0:
            raise CertificateError("ray dives below a lower bound")
        if lp.upper[j] is not None and ray[j] > 0:
            raise CertificateError("ray climbs above an upper bound")
    gain = sum((c * d for c, d in zip(lp.objective, ray)), _F0)
    if gain >= 0:
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


def _direction(coefficients: Sequence[Fraction]) -> Optional[tuple[int, ...]]:
    """The primitive integer direction of a row up to sign; None for a zero row."""
    ints = linalg._scaled(coefficients)[0]
    g = gcd(*ints)
    if g == 0:
        return None
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def vertex_enumeration(
    constraints: Sequence[LinearConstraint], dimension: int, *, _bounded: bool = False
) -> list[tuple[Fraction, ...]]:
    """All vertices of a bounded H-polytope by enumeration of candidate bases.

    Every equality row is tight at a vertex, so a candidate basis is all the
    equality rows (of rank r) plus d - r inequality rows.  Parallel rows are
    dependent, so a basis takes at most one row from each parallel class
    (rows with one primitive direction up to sign), and zero rows none; each
    candidate is solved by one exact elimination and kept when its unique
    solution is feasible.  Intended for d <= 8 (the documented scalability
    boundary).  Raises PreconditionError when the region is unbounded; an
    infeasible region has no vertices.
    """
    if dimension < 1:
        raise ValidationError("dimension must be positive")
    if dimension > VERTEX_DIMENSION_CAP:
        raise PreconditionError(
            f"dimension {dimension} exceeds the vertex-enumeration cap {VERTEX_DIMENSION_CAP}"
        )
    for con in constraints:
        if len(con.coefficients) != dimension:
            raise ValidationError("constraint row length differs from dimension")

    # ``_bounded`` is for in-package callers whose region is bounded by
    # construction; it skips the 2*d probes, since a bounded region is empty
    # exactly when no basis yields a feasible point.
    if not _bounded:
        for j in range(dimension):
            for sign in (1, -1):
                objective = [_F0] * dimension
                objective[j] = Fraction(sign)
                probe = solve(LinearProgram.minimize(objective, tuple(constraints)))
                if probe.status is LPStatus.UNBOUNDED:
                    raise PreconditionError("unbounded input region")
                if probe.status is LPStatus.INFEASIBLE:
                    return []

    eq_rows = [list(con.coefficients) for con in constraints if con.relation == "="]
    eq_rhs = [con.rhs for con in constraints if con.relation == "="]
    classes: dict[tuple[int, ...], list[LinearConstraint]] = {}
    for con in constraints:
        if con.relation != "=":
            key = _direction(con.coefficients)
            if key is not None:
                classes.setdefault(key, []).append(con)

    vertices: set[tuple[Fraction, ...]] = set()
    for chosen in combinations(classes.values(), dimension - linalg.rank(eq_rows)):
        for picks in product(*chosen):
            point = linalg._unique_solution(
                eq_rows + [list(con.coefficients) for con in picks],
                eq_rhs + [con.rhs for con in picks],
            )
            if point is not None and _row_violation(constraints, point) is None:
                vertices.add(tuple(point))
    return sorted(vertices)
