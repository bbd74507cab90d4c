"""Polyhedral risk functions on the span of a body: duality and extensions.

A risk function is stored by its dual data: finitely many scenarios g_j with
penalties alpha_j, meaning max_j(pairing(f, g_j) - alpha_j) on span(K) and
+inf off it.  The Fenchel conjugate, the monotone extension and
``monotone_certifiable`` are exact LPs over that data; the full extension is
the risk function itself, and ``dual_rep_evaluate`` reads conjugates.

A risk function keeps what it derives from its data on itself, built on
first use: span(K); one integer table holding D * mu_i * g_j(i) and
D * alpha_j over one positive denominator D, from which ``evaluate`` reads
max_j(pairing(f, g_j) - alpha_j) as a single ``Fraction``; and the LP rows
over span(K), paired with integer dot products.  Its hash is computed once,
so the conjugate cache does not walk the body and scenarios on every hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from . import linalg
from .bodies import AbsolutelyConvexBody, Subspace, gauge, span_basis
from .errors import (
    CertificateError,
    KBoundViolationError,
    PreconditionError,
    SpaceMismatchError,
    ValidationError,
)
from .exactlp import LinearConstraint, LinearProgram, LPStatus, solve
from .measure import RandomVariable, ky_fan_distance, pairing
from .rational import INF, ExtendedValue, parse_rational

_F0 = Fraction(0)
_F1 = Fraction(1)

FATOU_MIN_TAIL = 8


class _Table(NamedTuple):
    """The dual data as integers over one positive denominator ``den``."""

    # den * mu_i * g_j(i) over the atoms, one row per scenario g_j
    rows: tuple[tuple[int, ...], ...]
    # den * alpha_j over the scenarios
    penalties: tuple[int, ...]
    den: int


class _SpanData(NamedTuple):
    """How the scenarios pair with span(K), one entry per basis vector e."""

    # pairing(g_j, e) over the scenarios g_j
    pairings: tuple[tuple[Fraction, ...], ...]
    # mu_i * e_i over the atoms: pairing(g, e) as a row over the values of g
    weighted: tuple[tuple[Fraction, ...], ...]
    # e as integers over a positive denominator, for pairing(g, e) with g fixed
    scaled: tuple[tuple[list[int], int], ...]


@dataclass(frozen=True)
class PolyhedralRiskFunction:
    """Dual data {(g_j, alpha_j)} over a body fixing K and span(K)."""

    body: AbsolutelyConvexBody
    scenarios: tuple[tuple[RandomVariable, Fraction], ...]

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValidationError("a risk function needs at least one scenario")
        for g, _alpha in self.scenarios:
            if g.space != self.body.space:
                raise SpaceMismatchError("scenario lives on a different space")

    @classmethod
    def of(
        cls,
        body: AbsolutelyConvexBody,
        scenarios: Sequence[tuple[Sequence[object], object]],
    ) -> "PolyhedralRiskFunction":
        pairs = tuple(
            (RandomVariable.of(body.space, values), parse_rational(alpha))
            for values, alpha in scenarios
        )
        return cls(body, pairs)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # An atom label hashes differently under another PYTHONHASHSEED, so
        # a pickled or copied value computes its own hash.
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    @property
    def space(self):
        return self.body.space

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: the conjugate cache key hashes phi."""
        return hash((self.body, self.scenarios))

    @cached_property
    def _subspace(self) -> Subspace:
        """span(K), kept on the value, which never changes."""
        return span_basis(self.body)

    @cached_property
    def _table(self) -> _Table:
        """The scenarios weighted by mu, and the penalties, scaled to integers once."""
        mu = self.space.weights
        flat = [w * v for g, _alpha in self.scenarios for w, v in zip(mu, g.values)]
        flat += [alpha for _g, alpha in self.scenarios]
        ints, den = linalg._scaled(flat)
        n, m = len(mu), len(self.scenarios)
        rows = tuple(tuple(ints[j * n : (j + 1) * n]) for j in range(m))
        return _Table(rows, tuple(ints[m * n :]), den)

    @cached_property
    def _span_data(self) -> _SpanData:
        """Built on first use by the LP operations and kept on the value."""
        table = self._table
        mu = self.space.weights
        basis = self._subspace.basis
        scaled = tuple(linalg._scaled(e.values) for e in basis)
        return _SpanData(
            tuple(
                tuple(Fraction(sum(map(mul, row, ints)), den * table.den) for row in table.rows)
                for ints, den in scaled
            ),
            tuple(tuple(w * v for w, v in zip(mu, e.values)) for e in basis),
            scaled,
        )


def evaluate(phi: PolyhedralRiskFunction, f: RandomVariable) -> ExtendedValue:
    """max_j(pairing(f, g_j) - alpha_j) on span(K); INF off the span.

    With f = F / d and the table's rows W_j and penalties A_j over D, each
    term is (W_j . F - A_j * d) / (D * d): integer dot products and one
    ``Fraction``.
    """
    if f.space != phi.space:
        raise SpaceMismatchError("point lives on a different space")
    if not phi._subspace.contains(f):
        return INF
    table = phi._table
    values, den = linalg._scaled(f.values)
    best = max(
        sum(map(mul, row, values)) - alpha * den
        for row, alpha in zip(table.rows, table.penalties)
    )
    return Fraction(best, table.den * den)


def conjugate(phi: PolyhedralRiskFunction, g: RandomVariable) -> ExtendedValue:
    """Fenchel conjugate at g: cheapest scenario mixture matching g on span(K).

    min sum lambda_j alpha_j over the simplex subject to the mixture pairing
    equally against every basis vector of span(K); infeasible means +inf.
    """
    if g.space != phi.space:
        raise SpaceMismatchError("point lives on a different space")
    return _conjugate_lp(phi, g)


def _matching_rows(
    phi: PolyhedralRiskFunction,
    g: Optional[RandomVariable] = None,
    scenario: Optional[int] = None,
) -> list[LinearConstraint]:
    """The rows "the scenario mixture matches g on span(K)".

    One row per basis vector e of span(K): sum_j lambda_j pairing(g_j, e) =
    pairing(g, e).  The variables are the mixture lambda followed by the
    values of g.  A given ``g`` is fixed, so only lambda is variable; a given
    ``scenario`` index fixes lambda to that scenario, so only g is variable.
    """
    data = phi._span_data
    if g is not None:
        values, den = linalg._scaled([w * v for w, v in zip(phi.space.weights, g.values)])
    rows = []
    for paired, weighted, (ints, eden) in zip(data.pairings, data.weighted, data.scaled):
        if scenario is not None:
            rows.append(LinearConstraint(weighted, "=", paired[scenario]))
        elif g is not None:
            rhs = Fraction(sum(map(mul, ints, values)), eden * den)
            rows.append(LinearConstraint(paired, "=", rhs))
        else:
            rows.append(LinearConstraint(paired + tuple(-w for w in weighted), "=", _F0))
    return rows


@lru_cache(maxsize=128)
def _conjugate_lp(phi: PolyhedralRiskFunction, g: RandomVariable) -> ExtendedValue:
    m = len(phi.scenarios)
    rows = [LinearConstraint(tuple([_F1] * m), "=", _F1), *_matching_rows(phi, g)]
    lp = LinearProgram.minimize(
        [alpha for _gj, alpha in phi.scenarios], rows, lower=[_F0] * m
    )
    outcome = solve(lp)
    if outcome.status is LPStatus.INFEASIBLE:
        return INF
    if outcome.status is not LPStatus.OPTIMAL:
        raise CertificateError("conjugate LP reported unbounded over the scenario simplex")
    return outcome.value


def dual_rep_evaluate(
    phi: PolyhedralRiskFunction, f: RandomVariable, duals: Sequence[RandomVariable]
) -> ExtendedValue:
    """max over supplied dual points of pairing(f, g) - conjugate(phi, g).

    Every supplied point must have a finite conjugate; with the scenario list
    itself this reproduces evaluate exactly.
    """
    if not duals:
        raise ValidationError("at least one dual point required")
    best: Optional[ExtendedValue] = None
    for g in duals:
        penalty = conjugate(phi, g)
        if penalty is INF:
            raise PreconditionError("dual point has infinite conjugate")
        candidate = pairing(f, g) - penalty
        if best is None or candidate > best:
            best = candidate
    return best


def extend(
    phi: PolyhedralRiskFunction, f: RandomVariable, mode: str = "full"
) -> ExtendedValue:
    """The dual-representation extension evaluated at f.

    The sup over a dual point g and a scenario mixture lambda of
    pairing(f, g) - sum lambda_j alpha_j, subject to g matching the mixture
    on span(K); an unbounded supremum is +inf.  Mode "monotone" restricts g
    to the nonnegative cone and solves that LP.

    Mode "full" is phi itself, with no LP.  On span(K) every admissible g
    pairs with f as its mixture does, so the sup is max_j(pairing(f, g_j) -
    alpha_j).  Off span(K) let h != 0 be the mu-orthogonal part of f: g_1 +
    t * h stays admissible for every t and raises the objective by
    t * pairing(h, h) > 0, since mu > 0 makes the pairing an inner product;
    so the sup is +inf.
    """
    if mode not in ("full", "monotone"):
        raise ValidationError(f"unknown extension mode {mode!r}")
    if f.space != phi.space:
        raise SpaceMismatchError("point lives on a different space")
    if mode == "full":
        return evaluate(phi, f)
    n = phi.space.size
    m = len(phi.scenarios)
    mu = phi.space.weights
    # variables: lambda_1..lambda_m, g_1..g_n, all nonnegative
    rows = [LinearConstraint(tuple([_F1] * m + [_F0] * n), "=", _F1), *_matching_rows(phi)]
    objective = [alpha for _gj, alpha in phi.scenarios]
    objective += [-(mu[i] * f.values[i]) for i in range(n)]
    outcome = solve(LinearProgram.minimize(objective, rows, lower=[_F0] * (m + n)))
    if outcome.status is LPStatus.UNBOUNDED:
        return INF
    if outcome.status is LPStatus.INFEASIBLE:
        raise PreconditionError(
            "no nonnegative dual point matches any scenario mixture on span(K); "
            "the monotone extension is empty"
        )
    return -outcome.value


def monotone_certifiable(phi: PolyhedralRiskFunction) -> bool:
    """Whether every scenario agrees on span(K) with a nonnegative dual point."""
    n = phi.space.size
    for j in range(len(phi.scenarios)):
        lp = LinearProgram.minimize([_F0] * n, _matching_rows(phi, scenario=j), lower=[_F0] * n)
        if solve(lp).status is not LPStatus.OPTIMAL:
            return False
    return True


def fatou_probe(
    evaluator: Callable[[RandomVariable], ExtendedValue],
    body: AbsolutelyConvexBody,
    sequence: Sequence[RandomVariable],
    limit: RandomVariable,
    bound: Fraction,
) -> bool:
    """Finite-prefix lower-semicontinuity probe along a K-bounded sequence.

    Preconditions: every element has gauge at most ``bound`` (violations
    raise KBoundViolationError, reported distinctly) and the Ky-Fan distance
    to the limit is nonincreasing along the prefix.  The liminf proxy is the
    minimum of the evaluator over the tail window (second half of the
    prefix, at least FATOU_MIN_TAIL elements); the probe passes when the
    evaluator at the limit does not exceed it.  This is a property-test
    harness, not a proof: the proxy underestimates the true liminf for
    sequences approaching strictly from below.
    """
    if not sequence:
        raise ValidationError("empty sequence")
    for f in sequence:
        g = gauge(body, f)
        if g is INF or g > bound:
            raise KBoundViolationError("sequence element escapes the gauge bound")
    previous = None
    for f in sequence:
        d = ky_fan_distance(f, limit)
        if previous is not None and d > previous:
            raise PreconditionError("Ky-Fan distances to the limit must be nonincreasing")
        previous = d
    tail_len = min(len(sequence), max((len(sequence) + 1) // 2, FATOU_MIN_TAIL))
    tail = sequence[len(sequence) - tail_len :]
    proxy = min(evaluator(f) for f in tail)
    return evaluator(limit) <= proxy


__all__ = [
    "PolyhedralRiskFunction",
    "evaluate",
    "conjugate",
    "dual_rep_evaluate",
    "extend",
    "monotone_certifiable",
    "fatou_probe",
    "FATOU_MIN_TAIL",
]
