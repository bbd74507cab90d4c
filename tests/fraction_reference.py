"""Earlier implementations kept as test oracles.

``solve`` is the two-phase Bland simplex over ``fractions.Fraction`` that
``riskspan.exactlp`` ran before it moved to integer rows with one
denominator each; ``rank``, ``independent_rows``, ``solve_exact`` and
``in_span`` are the three Fraction Gaussian eliminations ``riskspan.linalg``
ran before it shared one fraction-free kernel.  Bland's rule sees the same
exact values either way, so the library must return equal results, field
for field, on every input.  ``solve`` does not verify its certificates.

``verify_outcome`` and the three ``verify_*`` it dispatches to are the
certificate gate over ``Fraction`` dot products that ``riskspan.exactlp`` ran
before it checked certificates on integer rows.  On every certificate, intact
or tampered, the library must accept exactly when this gate accepts, and
raise the same ``CertificateError`` message.  The one exception is a
certificate vector of the wrong length: this gate may then raise
``IndexError`` or accept, where the library raises ``CertificateError``.

``vertex_enumeration`` is the brute force over every d-subset of rows that
``riskspan.exactlp`` ran before it moved to double description.  It probes
every region with 2*d calls to ``riskspan.exactlp.solve`` to tell empty and
unbounded regions apart; the library reads both off its rays and solves no
LP.  It checks each subset with ``riskspan.linalg.rank`` and
``solve_exact``, the integer kernels that the Fraction engine above
cross-checks, and each point with the Fraction ``_row_violation`` of the
gate above.  The library must return the same sorted vertices, and raise
on the same unbounded regions.
``is_singleton`` and ``nonsolidity_witness`` are the market scans that
bounded every atom's mass before pinned atoms were skipped.  The library
must return identical results.  ``attainable`` is the node-by-node backward
replication that ``riskspan.market`` ran before it solved for the claim's
coordinates in the tree's strategy basis: one small ``solve_exact`` per
internal node, leaves first.  The library must return the same flag,
initial capital and hedge (its hedge lists the nodes root first).

``evaluate`` pairs the point with every scenario through ``Fraction``
products, as ``riskspan.risk`` did before a risk function kept its
scenarios and penalties as one integer table.  ``conjugate``, ``extend``
and ``monotone_certifiable`` build their LP rows on every call, pairing each
scenario with each basis vector of span(K) with ``Fraction`` products, as
``riskspan.risk`` did before a risk function kept that data on itself.
``ky_fan_distance`` scans every jump and tail value as a candidate, each
with its own tail sum, as ``riskspan.measure`` did before it sorted the
distances once.  The library must return equal values and raise the same
errors.

``solid_check`` tests every sign flip of every generator, one per +/- pair,
as ``riskspan.bodies`` did before it tested only the single-coordinate
flips (2^(s-1) membership LPs for a support of size s, against at most s).
The library must return the same verdict; its counterexample may be a
different point of sol(K) outside K.  ``gauge``, ``solid_hull_member`` and
``bipolar_member`` solve their LPs at every point, as ``riskspan.bodies``
did before it decided points off span(K) and beyond the coordinate bound
with no LP: the gauge LP over any generators, one feasibility LP per sign
pattern in a flat loop, and the polar LP.  They solve through
``riskspan.exactlp.solve``, so ``record_outcomes`` counts their LPs.  The
library must return the same values, flags and witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from riskspan import exactlp, linalg, market
from riskspan.bodies import AbsolutelyConvexBody, member, span_basis
from riskspan.errors import CertificateError, PreconditionError
from riskspan.exactlp import LinearConstraint, LinearProgram, LPOutcome, LPStatus
from riskspan.measure import RandomVariable, pairing
from riskspan.rational import INF, ExtendedValue
from riskspan.risk import PolyhedralRiskFunction

_F0 = Fraction(0)
_F1 = Fraction(1)

Row = Sequence[Fraction]


# ---------------------------------------------------------------------------
# simplex core


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    prow = tableau[row]
    if piv != 1:
        inv = _F1 / piv
        for j in range(len(prow)):
            if prow[j]:
                prow[j] *= inv
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            factor = other[col]
            for j in range(len(prow)):
                if prow[j]:
                    other[j] -= factor * prow[j]
    basis[row] = col


def _reduced_cost_row(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction]
) -> list[Fraction]:
    width = len(tableau[0]) if tableau else 0
    row = cost[:] + [_F0] * (width - len(cost))
    for k, b in enumerate(basis):
        cb = cost[b]
        if cb:
            trow = tableau[k]
            for j in range(width):
                if trow[j]:
                    row[j] -= cb * trow[j]
    return row


def _bland_simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    enterable: int,
    evict_from: Optional[int] = None,
) -> tuple[str, Optional[int], list[Fraction]]:
    """Run Bland pivots to optimality or an unbounded column.

    ``enterable`` caps the column indices that may enter the basis (used to
    freeze artificial columns out in phase two).  With ``evict_from`` set,
    any basic variable at or beyond that column index is forced to leave at
    a ratio-zero pivot before it could take a positive value again; such
    columns sit at value zero after phase one, so feasibility is preserved
    even when the pivot element is negative.  Returns the final reduced-cost
    row, whose entries under the artificial columns encode the duals.
    """
    red = _reduced_cost_row(tableau, basis, cost)

    def apply_pivot(row: int, col: int) -> None:
        _pivot(tableau, basis, row, col)
        factor = red[col]
        prow = tableau[row]
        if factor:
            for j in range(len(red)):
                if prow[j]:
                    red[j] -= factor * prow[j]

    while True:
        enter = next((j for j in range(enterable) if red[j] < 0), None)
        if enter is None:
            return "optimal", None, red
        if evict_from is not None:
            evict = next(
                (
                    i
                    for i, row in enumerate(tableau)
                    if basis[i] >= evict_from and row[enter] != 0
                ),
                None,
            )
            if evict is not None:
                apply_pivot(evict, enter)
                continue
        leave = None
        best_ratio: Optional[Fraction] = None
        for i, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                ratio = row[-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return "unbounded", enter, red
        apply_pivot(leave, enter)


# ---------------------------------------------------------------------------
# standard-form assembly


@dataclass
class _Normalized:
    """Standard form: x_j = shift_j + column j, minus column neg[j] if free.

    Rows are the user constraints, then one row per finite upper bound.
    """

    n: int
    shift: list[Fraction]  # lower bound, or 0 for a free variable
    neg: dict[int, int]  # free variable -> its negative-part column
    tags: list[tuple[str, int]]  # per row: ("user", i) or ("upper", j)
    matrix: list[list[Fraction]]  # sign-flipped standard-form matrix
    rhs: list[Fraction]  # nonnegative right-hand side
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
    rows: list[tuple[Sequence[Fraction], str, Fraction, tuple[str, int]]] = [
        (con.coefficients, con.relation, con.rhs, ("user", i))
        for i, con in enumerate(lp.constraints)
    ]
    for j, up in enumerate(lp.upper):
        if up is not None:
            unit = [_F0] * n
            unit[j] = _F1
            rows.append((unit, "<=", up, ("upper", j)))
    m = len(rows)
    slack_col = n + len(neg)
    art0 = slack_col + sum(1 for row in rows if row[1] != "=")
    ncols = art0 + m
    matrix = [[_F0] * ncols for _ in range(m)]
    rhs: list[Fraction] = []
    rho = [1] * m
    for k, (coeffs, rel, b, _tag) in enumerate(rows):
        row = matrix[k]
        for j, c in enumerate(coeffs):
            if c:
                row[j] = c
                if shift[j]:
                    b -= c * shift[j]
                if j in neg:
                    row[neg[j]] = -c
        if rel == "<=":
            row[slack_col] = _F1
            slack_col += 1
        elif rel == ">=":
            row[slack_col] = -_F1
            slack_col += 1
        if b < 0:
            rho[k] = -1
            b = -b
            for j in range(art0):
                if row[j]:
                    row[j] = -row[j]
        row[art0 + k] = _F1
        rhs.append(b)
    return _Normalized(n, shift, neg, [row[3] for row in rows], matrix, rhs, rho, art0, ncols)


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
    """The Fraction two-phase simplex; the outcome is not verified."""
    return _solve_normalized(lp, _normalize(lp))


def _solve_normalized(lp: LinearProgram, norm: _Normalized) -> LPOutcome:
    m = len(norm.tags)
    n = norm.n
    tableau = [norm.matrix[k][:] + [norm.rhs[k]] for k in range(m)]
    basis = [norm.art0 + k for k in range(m)]

    cost1 = [_F0] * norm.ncols
    for k in range(m):
        cost1[norm.art0 + k] = _F1
    state, _enter, red = _bland_simplex(tableau, basis, cost1, norm.ncols)
    if state != "optimal":
        raise CertificateError("phase one reported unbounded below zero")
    phase1_value = sum((cost1[basis[k]] * tableau[k][-1] for k in range(m)), _F0)

    if phase1_value > 0:
        # Reduced cost under artificial column k is 1 - y_k for the flipped
        # system, so the Farkas multipliers fall out of the final cost row.
        # A native column's phase-one reduced cost is -y.A_j >= 0, exactly
        # the lower-bound multiplier that closes the combination to zero.
        eta = [norm.rho[k] * (_F1 - red[norm.art0 + k]) for k in range(m)]
        user, upper = _split_duals(norm, lp, eta)
        lower = [_F0 if j in norm.neg else red[j] for j in range(n)]
        return LPOutcome(
            LPStatus.INFEASIBLE,
            farkas=tuple(user),
            farkas_lower=tuple(lower),
            farkas_upper=tuple(upper),
        )

    cost2 = [_F0] * norm.ncols
    for j in range(n):
        cost2[j] = lp.objective[j]
    for j, col in norm.neg.items():
        cost2[col] = -lp.objective[j]

    state, enter, red = _bland_simplex(
        tableau, basis, cost2, norm.art0, evict_from=norm.art0
    )
    point = _point_from_basis(norm, tableau, basis)
    if state == "unbounded":
        if enter is None:
            raise CertificateError("unbounded phase two without an entering column")
        direction = [_F0] * norm.ncols
        direction[enter] = _F1
        for i, row in enumerate(tableau):
            if row[enter]:
                direction[basis[i]] = -row[enter]
        ray = tuple(
            direction[j] - direction[norm.neg[j]] if j in norm.neg else direction[j]
            for j in range(n)
        )
        return LPOutcome(LPStatus.UNBOUNDED, point=point, ray=ray)

    value = sum((lp.objective[j] * point[j] for j in range(n)), _F0)
    # Artificial columns carry zero phase-two cost, so their reduced costs
    # are exactly -y for the flipped system.
    eta = [norm.rho[k] * (-red[norm.art0 + k]) for k in range(m)]
    user, _upper = _split_duals(norm, lp, eta)
    reduced = _reduced_costs(lp, user)
    return LPOutcome(
        LPStatus.OPTIMAL,
        value=value,
        point=point,
        dual=tuple(user),
        reduced_costs=tuple(reduced),
    )


def _point_from_basis(
    norm: _Normalized, tableau: list[list[Fraction]], basis: list[int]
) -> tuple[Fraction, ...]:
    assignment = [_F0] * norm.ncols
    for k, b in enumerate(basis):
        assignment[b] = tableau[k][-1]
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
# Gaussian eliminations


def rank(rows: Sequence[Row]) -> int:
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rk = 0
    col = 0
    while rk < len(work) and col < ncols:
        pivot = next((i for i in range(rk, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        pv = work[rk][col]
        for i in range(len(work)):
            if i != rk and work[i][col] != 0:
                factor = work[i][col] / pv
                row_i, row_r = work[i], work[rk]
                for j in range(col, ncols):
                    row_i[j] -= factor * row_r[j]
        rk += 1
        col += 1
    return rk


def independent_rows(rows: Sequence[Row]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in order."""
    kept: list[int] = []
    reduced: list[list[Fraction]] = []
    pivots: list[int] = []
    for idx, row in enumerate(rows):
        work = list(row)
        for pcol, prow in zip(pivots, reduced):
            if work[pcol] != 0:
                factor = work[pcol] / prow[pcol]
                for j in range(len(work)):
                    work[j] -= factor * prow[j]
        pivot = next((j for j in range(len(work)) if work[j] != 0), None)
        if pivot is not None:
            kept.append(idx)
            reduced.append(work)
            pivots.append(pivot)
    return kept


def solve_exact(rows: Sequence[Row], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Some exact solution of ``rows @ x = rhs`` (free vars pinned to 0), or None."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                factor = aug[i][col] / pv
                row_i, row_r = aug[i], aug[r]
                for j in range(col, n + 1):
                    row_i[j] -= factor * row_r[j]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [_F0] * n
    for i, col in enumerate(pivot_cols):
        x[col] = aug[i][n] / aug[i][col]
    return x


def in_span(rows: Sequence[Row], vector: Row) -> bool:
    """Whether ``vector`` lies in the row span of ``rows``."""
    if all(v == 0 for v in vector):
        return True
    if not rows:
        return False
    base = rank(rows)
    return rank(list(rows) + [vector]) == base


# ---------------------------------------------------------------------------
# vertex enumeration and market scans


def vertex_enumeration(
    constraints: Sequence[LinearConstraint], dimension: int
) -> list[tuple[Fraction, ...]]:
    """Every feasible unique solution of a d-subset of rows, sorted.

    The 2*d coordinate probes first raise on an unbounded region and return
    [] for an infeasible one, on every region.
    """
    for j in range(dimension):
        for sign in (1, -1):
            objective = [_F0] * dimension
            objective[j] = Fraction(sign)
            probe = exactlp.solve(LinearProgram.minimize(objective, tuple(constraints)))
            if probe.status is LPStatus.UNBOUNDED:
                raise PreconditionError("unbounded input region")
            if probe.status is LPStatus.INFEASIBLE:
                return []
    # Many subsets share a point; each point's feasibility is checked once.
    feasible: dict[tuple[Fraction, ...], bool] = {}
    rows = [list(con.coefficients) for con in constraints]
    for subset in combinations(range(len(constraints)), dimension):
        sub = [rows[i] for i in subset]
        if linalg.rank(sub) != dimension:
            continue
        point = linalg.solve_exact(sub, [constraints[i].rhs for i in subset])
        if point is not None and tuple(point) not in feasible:
            feasible[tuple(point)] = _row_violation(constraints, point) is None
    return sorted(point for point, ok in feasible.items() if ok)


def is_singleton(emm: market.MartingaleMeasureSet) -> bool:
    """Bounds every atom's mass; the first call raises on an empty set."""
    for atom in emm.space.atoms:
        low, high, _m1, _m2 = emm.bounds(RandomVariable.indicator(emm.space, [atom]))
        if low != high:
            return False
    return True


def nonsolidity_witness(tree: market.MarketTree) -> Optional[market.Witness]:
    """The first atom, in atom order, whose mass the EMM bounds split."""
    market._require_viable(tree)
    emm = market.emm_set(tree)
    for atom in tree.space.atoms:
        indicator = RandomVariable.indicator(tree.space, [atom])
        low, high, m_low, m_high = emm.bounds(indicator)
        if low != high:
            return market.Witness((atom,), indicator, low, high, m_low, m_high)
    return None


def attainable(
    tree: market.MarketTree, xi: RandomVariable
) -> tuple[bool, Optional[tuple[Fraction, dict[str, tuple[Fraction, ...]]]]]:
    """Solve each internal node, leaves first, for its value and holding.

    In a viable market a solution at every node replicates xi, and an
    attainable claim's value process solves every node, so a node without a
    solution decides (False, None).
    """
    market._require_viable(tree)
    values = {leaf: xi.values[tree.space.index(leaf)] for leaf in tree.space.atoms}
    hedge: dict[str, tuple[Fraction, ...]] = {}
    for nid in reversed(tree.internal_nodes()):
        node = tree.node(nid)
        rows = []
        rhs = []
        for kid in tree.children(nid):
            kid_node = tree.node(kid)
            moves = [kid_node.prices[k] - node.prices[k] for k in range(tree.asset_count)]
            rows.append([_F1] + moves)
            rhs.append(values[kid])
        solution = linalg.solve_exact(rows, rhs)
        if solution is None:
            return False, None
        values[nid] = solution[0]
        hedge[nid] = tuple(solution[1:])
    return True, (values[tree.root], hedge)


# ---------------------------------------------------------------------------
# bodies


def solid_check(body: AbsolutelyConvexBody) -> tuple[bool, Optional[RandomVariable]]:
    """Every sign flip of |v| per generator, leading with a positive entry."""
    for v in body.generators:
        support = [i for i, val in enumerate(v.values) if val != 0]
        for rest in product((1, -1), repeat=max(len(support) - 1, 0)):
            values = [_F0] * len(v.values)
            for s, i in zip((1,) + rest, support):
                values[i] = s * abs(v.values[i])
            candidate = RandomVariable(body.space, tuple(values))
            if not member(body, candidate):
                return False, candidate
    return True, None


def gauge(body: AbsolutelyConvexBody, x: RandomVariable) -> ExtendedValue:
    """The gauge LP min sum(a_j + b_j), sum (a_j - b_j) v_j = x, a, b >= 0;
    INF when it is infeasible."""
    m = len(body.generators)
    rows = []
    for i in range(body.space.size):
        coeffs = [g.values[i] for g in body.generators] + [-g.values[i] for g in body.generators]
        rows.append(LinearConstraint(tuple(coeffs), "=", x.values[i]))
    outcome = exactlp.solve(LinearProgram.minimize([_F1] * (2 * m), rows, lower=[_F0] * (2 * m)))
    if outcome.status is LPStatus.INFEASIBLE:
        return INF
    return outcome.value


def solid_hull_member(
    body: AbsolutelyConvexBody, f: RandomVariable
) -> tuple[bool, Optional[RandomVariable]]:
    """One feasibility LP per sign pattern with a + on the first support
    atom, in ``product`` order, until one is feasible."""
    support = [i for i, v in enumerate(f.values) if v != 0]
    m = len(body.generators)
    norm_row = LinearConstraint(tuple([_F1] * (2 * m)), "<=", _F1)
    for rest in product((1, -1), repeat=max(len(support) - 1, 0)):
        rows = [norm_row]
        for s, i in zip((1,) + rest, support):
            coeffs = [s * g.values[i] for g in body.generators]
            coeffs += [-s * g.values[i] for g in body.generators]
            rows.append(LinearConstraint(tuple(coeffs), ">=", abs(f.values[i])))
        outcome = exactlp.solve(LinearProgram.minimize([_F0] * (2 * m), rows, lower=[_F0] * (2 * m)))
        if outcome.status is LPStatus.OPTIMAL:
            point = outcome.point
            values = [
                sum((point[j] - point[m + j]) * g.values[i] for j, g in enumerate(body.generators))
                for i in range(body.space.size)
            ]
            return True, RandomVariable(body.space, tuple(values))
    return False, None


def bipolar_member(body: AbsolutelyConvexBody, f: RandomVariable) -> bool:
    """The polar LP: max sum mu_i |f_i| h_i subject to
    sum_i mu_i |v_j(i)| h_i <= 1 for every generator, h >= 0; at most 1."""
    n = body.space.size
    mu = body.space.weights
    rows = [
        LinearConstraint(tuple(mu[i] * abs(g.values[i]) for i in range(n)), "<=", _F1)
        for g in body.generators
    ]
    objective = [-(mu[i] * abs(f.values[i])) for i in range(n)]
    outcome = exactlp.solve(LinearProgram.minimize(objective, rows, lower=[_F0] * n))
    return outcome.status is LPStatus.OPTIMAL and -outcome.value <= _F1


# ---------------------------------------------------------------------------
# risk functions and the Ky-Fan metric


def evaluate(phi: PolyhedralRiskFunction, f: RandomVariable) -> ExtendedValue:
    """max_j(pairing(f, g_j) - alpha_j) on span(K) with Fraction pairings; INF off it."""
    if not span_basis(phi.body).contains(f):
        return INF
    return max(pairing(f, g) - alpha for g, alpha in phi.scenarios)


def conjugate(phi: PolyhedralRiskFunction, g: RandomVariable) -> ExtendedValue:
    """The conjugate LP, its rows paired afresh; not cached."""
    basis = span_basis(phi.body)
    m = len(phi.scenarios)
    rows = [LinearConstraint(tuple([_F1] * m), "=", _F1)]
    for e in basis.basis:
        coeffs = tuple(pairing(gj, e) for gj, _alpha in phi.scenarios)
        rows.append(LinearConstraint(coeffs, "=", pairing(g, e)))
    lp = LinearProgram.minimize([alpha for _gj, alpha in phi.scenarios], rows, lower=[_F0] * m)
    outcome = exactlp.solve(lp)
    if outcome.status is LPStatus.INFEASIBLE:
        return INF
    if outcome.status is not LPStatus.OPTIMAL:
        raise CertificateError("conjugate LP reported unbounded over the scenario simplex")
    return outcome.value


def extend(phi: PolyhedralRiskFunction, f: RandomVariable, mode: str = "full") -> ExtendedValue:
    """The extension LP over (lambda, g), its rows paired afresh."""
    space = phi.space
    n = space.size
    m = len(phi.scenarios)
    mu = space.weights
    basis = span_basis(phi.body)
    rows = [LinearConstraint(tuple([_F1] * m + [_F0] * n), "=", _F1)]
    for e in basis.basis:
        coeffs = [pairing(gj, e) for gj, _alpha in phi.scenarios]
        coeffs += [-(mu[i] * e.values[i]) for i in range(n)]
        rows.append(LinearConstraint(tuple(coeffs), "=", _F0))
    objective = [alpha for _gj, alpha in phi.scenarios]
    objective += [-(mu[i] * f.values[i]) for i in range(n)]
    g_lower = _F0 if mode == "monotone" else None
    lp = LinearProgram.minimize(objective, rows, lower=[_F0] * m + [g_lower] * n)
    outcome = exactlp.solve(lp)
    if outcome.status is LPStatus.UNBOUNDED:
        return INF
    if outcome.status is LPStatus.INFEASIBLE:
        if mode == "full":
            raise CertificateError("full-mode extension LP reported infeasible")
        raise PreconditionError(
            "no nonnegative dual point matches any scenario mixture on span(K); "
            "the monotone extension is empty"
        )
    return -outcome.value


def monotone_certifiable(phi: PolyhedralRiskFunction) -> bool:
    """One feasibility LP per scenario, its rows paired afresh."""
    n = phi.space.size
    mu = phi.space.weights
    basis = span_basis(phi.body)
    for gj, _alpha in phi.scenarios:
        rows = []
        for e in basis.basis:
            coeffs = tuple(mu[i] * e.values[i] for i in range(n))
            rows.append(LinearConstraint(coeffs, "=", pairing(gj, e)))
        lp = LinearProgram.minimize([_F0] * n, rows, lower=[_F0] * n)
        if exactlp.solve(lp).status is not LPStatus.OPTIMAL:
            return False
    return True


def ky_fan_distance(f: RandomVariable, g: RandomVariable) -> Fraction:
    """The least feasible eps among the jumps, zero and their tail values."""
    mu = f.space.weights
    diffs = [abs(a - b) for a, b in zip(f.values, g.values)]

    def tail(eps: Fraction) -> Fraction:
        return sum((w for w, d in zip(mu, diffs) if d > eps), _F0)

    candidates = {_F0}
    candidates.update(diffs)
    candidates.update(tail(t) for t in list(candidates))
    return min(eps for eps in candidates if tail(eps) <= eps)
