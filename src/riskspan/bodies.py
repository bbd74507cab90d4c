"""Absolutely convex bodies by generators: gauges, polars, solid hulls.

A body K is the absolutely convex hull of finitely many generators; in a
finite-atom space it is automatically closed, bounded and absolutely convex,
so no runtime check is needed for those facts.  When the generators are
linearly independent, K is a cross-polytope in span(K): a point of the span
has one coefficient vector c and its gauge is ||c||_1, read from a left
inverse of the generators with no LP.  Dependent generators take the gauge
LP on span(K), and off it the span's echelon form answers INF with no LP.
Polars are never materialised as geometry: they enter only through the
generator-max formula for their gauge and through membership LPs.  Every
point of K obeys the coordinate bound |g_i| <= max_j |v_j(i)|, so a point
beyond it is outside the solid hull and the bipolar with no LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from operator import mul
from typing import Iterable, NamedTuple, Optional, Union

from . import linalg
from .errors import CertificateError, PreconditionError, SpaceMismatchError, ValidationError
from .exactlp import LinearConstraint, LinearProgram, LPStatus, solve
from .measure import FiniteProbabilitySpace, RandomVariable, abs_pairing
from .rational import INF, ExtendedValue

_F0 = Fraction(0)
_F1 = Fraction(1)

SIGN_PATTERN_ATOM_CAP = 12


class _Coordinates(NamedTuple):
    """Coefficients over independent generators by integer dot products.

    For x = X / d, c = C / (D * d) with C = inverse @ X.  ``atoms`` holds the
    generators as integers over scale / D, one row per atom, so
    sum c_j v_j = x iff atoms @ C = X * scale.
    """

    inverse: tuple[tuple[int, ...], ...]  # one integer row per generator
    den: int  # D
    atoms: tuple[tuple[int, ...], ...]  # the generators' integer values, one row per atom
    scale: int


@dataclass(frozen=True)
class AbsolutelyConvexBody:
    """K = {sum c_j v_j : sum |c_j| <= 1} for the stored generators v_j."""

    space: FiniteProbabilitySpace
    generators: tuple[RandomVariable, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValidationError("a body needs at least one generator")
        for g in self.generators:
            if g.space != self.space:
                raise SpaceMismatchError("generator lives on a different space")
        if all(g.is_zero() for g in self.generators):
            raise ValidationError("a body needs at least one nonzero generator")

    @classmethod
    def of(cls, space: FiniteProbabilitySpace, rows: Iterable[Iterable[object]]) -> "AbsolutelyConvexBody":
        return cls(space, tuple(RandomVariable.of(space, row) for row in rows))

    def scaled(self, factor: object) -> "AbsolutelyConvexBody":
        return AbsolutelyConvexBody(self.space, tuple(g.scaled(factor) for g in self.generators))

    @cached_property
    def _coordinates(self) -> Union[_Coordinates, list[tuple[int, int, list[int]]]]:
        """The left inverse of independent generators; for dependent ones, the
        ``linalg._echelon`` rows of their span.  One elimination, kept on the
        value."""
        span, found = linalg.left_inverse([g.values for g in self.generators])
        if found is None:
            return span
        inverse, den = found
        ints, gen_den = linalg._scaled([v for g in self.generators for v in g.values])
        n = self.space.size
        atoms = tuple(tuple(ints[i::n]) for i in range(n))
        return _Coordinates(inverse, den, atoms, den * gen_den)

    @cached_property
    def _bound(self) -> tuple[Fraction, ...]:
        """max_j |v_j(i)| per atom i, kept on the value: every point g of K
        has |g_i| <= sum_j |c_j| |v_j(i)| <= max_j |v_j(i)|."""
        return tuple(max(map(abs, column)) for column in zip(*(g.values for g in self.generators)))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of L0 given by an exactly independent basis."""

    space: FiniteProbabilitySpace
    basis: tuple[RandomVariable, ...]

    def __post_init__(self) -> None:
        for b in self.basis:
            if b.space != self.space:
                raise SpaceMismatchError("basis vector lives on a different space")
        rows = [list(b.values) for b in self.basis]
        if rows and linalg.rank(rows) != len(rows):
            raise ValidationError("basis vectors are not linearly independent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @cached_property
    def _echelon_rows(self) -> tuple[tuple[int, int, list[int]], ...]:
        """The basis as reduced integer rows, eliminated once per subspace."""
        return tuple(linalg._echelon([b.values for b in self.basis]))

    def contains(self, x: RandomVariable) -> bool:
        if x.space != self.space:
            raise SpaceMismatchError("vector lives on a different space")
        return linalg.in_span(self._echelon_rows, x.values)


@lru_cache(maxsize=128)
def span_basis(body: AbsolutelyConvexBody) -> Subspace:
    """The span of K, reduced to a maximal independent subset of generators."""
    rows = [list(g.values) for g in body.generators]
    kept = linalg.independent_rows(rows)
    return Subspace(body.space, tuple(body.generators[i] for i in kept))


def gauge(body: AbsolutelyConvexBody, x: RandomVariable) -> ExtendedValue:
    """Minkowski functional of K at x; INF off the span of K, 0 iff x = 0.

    Independent generators: c = P x by the left inverse P, and the gauge is
    ||c||_1 if sum c_j v_j = x, checked exactly, else INF (on the span,
    V P x = x).  Otherwise x is reduced against the span's echelon form, INF
    when it is off the span (where the LP below is infeasible), and on the
    span the LP min sum(a_j + b_j) subject to sum (a_j - b_j) v_j = x with
    a, b >= 0 gives the gauge.
    """
    if x.space != body.space:
        raise SpaceMismatchError("point lives on a different space")
    coords = body._coordinates
    if isinstance(coords, _Coordinates):
        values, den = linalg._scaled(x.values)
        c = [sum(map(mul, row, values)) for row in coords.inverse]
        for column, v in zip(coords.atoms, values):
            if sum(map(mul, column, c)) != v * coords.scale:
                return INF
        return Fraction(sum(map(abs, c)), coords.den * den)
    if not linalg.in_span(coords, x.values):
        return INF
    m = len(body.generators)
    n = body.space.size
    rows = []
    for i in range(n):
        coeffs = [g.values[i] for g in body.generators] + [-g.values[i] for g in body.generators]
        rows.append(LinearConstraint(tuple(coeffs), "=", x.values[i]))
    lp = LinearProgram.minimize([_F1] * (2 * m), rows, lower=[_F0] * (2 * m))
    outcome = solve(lp)
    if outcome.status is not LPStatus.OPTIMAL:
        raise CertificateError("gauge LP reported no optimum on span(K)")
    return outcome.value


def member(body: AbsolutelyConvexBody, x: RandomVariable) -> bool:
    return gauge(body, x) <= _F1


def polar_gauge(body: AbsolutelyConvexBody, g: RandomVariable) -> Fraction:
    """sup over f in K of the absolute pairing with g; attained at a generator."""
    if g.space != body.space:
        raise SpaceMismatchError("point lives on a different space")
    return max(abs_pairing(v, g) for v in body.generators)


def _sign_patterns(support: list[int]) -> Iterable[tuple[int, ...]]:
    """Sign patterns over the support with the first sign +1, in the order of
    ``product((1, -1), ...)``: K = -K, so a pattern's mirror decides the same
    question.  An empty support has the one empty pattern."""
    if len(support) > SIGN_PATTERN_ATOM_CAP:
        raise PreconditionError(
            f"support size {len(support)} exceeds the sign-pattern cap {SIGN_PATTERN_ATOM_CAP}"
        )
    if not support:
        return [()]
    return ((1,) + rest for rest in product((1, -1), repeat=len(support) - 1))


def _beyond_bound(body: AbsolutelyConvexBody, f: RandomVariable) -> bool:
    """Whether |f_i| > max_j |v_j(i)| on some atom i, which no point of K allows."""
    return any(abs(value) > bound for value, bound in zip(f.values, body._bound))


def solid_hull_member(
    body: AbsolutelyConvexBody, f: RandomVariable
) -> tuple[bool, Optional[RandomVariable]]:
    """Whether some g in K dominates |f| coordinatewise; returns the witness.

    One feasibility LP per sign pattern of g over the support of f (atoms
    where f vanishes impose nothing), with the sign on the first support atom
    fixed to +1: g dominates under a pattern iff -g does under its mirror.
    Support size is capped at SIGN_PATTERN_ATOM_CAP.  An |f_i| above the
    coordinate bound of K decides False with no LP.
    """
    if f.space != body.space:
        raise SpaceMismatchError("point lives on a different space")
    support = [i for i, v in enumerate(f.values) if v != 0]
    patterns = _sign_patterns(support)  # checks the cap first
    if _beyond_bound(body, f):
        return False, None
    m = len(body.generators)
    norm_row = LinearConstraint(tuple([_F1] * (2 * m)), "<=", _F1)
    for pattern in patterns:
        rows = [norm_row]
        for s, i in zip(pattern, support):
            coeffs = [s * g.values[i] for g in body.generators]
            coeffs += [-s * g.values[i] for g in body.generators]
            rows.append(LinearConstraint(tuple(coeffs), ">=", abs(f.values[i])))
        lp = LinearProgram.minimize([_F0] * (2 * m), rows, lower=[_F0] * (2 * m))
        outcome = solve(lp)
        if outcome.status is LPStatus.OPTIMAL:
            point = outcome.point
            witness_values = [
                sum((point[j] - point[m + j]) * g.values[i] for j, g in enumerate(body.generators))
                for i in range(body.space.size)
            ]
            return True, RandomVariable(body.space, tuple(witness_values))
    return False, None


def bipolar_member(body: AbsolutelyConvexBody, f: RandomVariable) -> bool:
    """Membership in the bipolar of K, computed through the polar.

    f belongs to the bipolar iff sup over g in the polar of |pairing| is at
    most 1.  Objective and polar constraints depend on |g| only, so the sup
    is a single LP over h = |g| >= 0; an unbounded sup means f has mass on
    atoms the body never touches.  An |f_i| above M_i = max_j |v_j(i)|
    decides False with no LP: h = e_i / (mu_i M_i) is feasible with
    objective |f_i| / M_i > 1, and M_i = 0 leaves the sup unbounded.
    """
    if f.space != body.space:
        raise SpaceMismatchError("point lives on a different space")
    if _beyond_bound(body, f):
        return False
    n = body.space.size
    mu = body.space.weights
    rows = []
    for g in body.generators:
        coeffs = tuple(mu[i] * abs(g.values[i]) for i in range(n))
        rows.append(LinearConstraint(coeffs, "<=", _F1))
    objective = [-(mu[i] * abs(f.values[i])) for i in range(n)]
    lp = LinearProgram.minimize(objective, rows, lower=[_F0] * n)
    outcome = solve(lp)
    if outcome.status is LPStatus.UNBOUNDED:
        return False
    if outcome.status is not LPStatus.OPTIMAL:
        raise CertificateError("bipolar LP reported infeasible at h = 0")
    return -outcome.value <= _F1


def solid_check(
    body: AbsolutelyConvexBody,
) -> tuple[bool, Optional[RandomVariable]]:
    """Whether K is solid; on failure returns a point of sol(K) outside K.

    Let T_i negate coordinate i.  K is solid iff T_i v lies in K for every
    generator v and every atom i where v is nonzero:
    - T_i is linear, so T_i K is inside K iff every T_i v is in K;
    - the single flips T_i generate every sign flip;
    - a convex set holding every sign flip of g holds the box [-|g|, |g|],
      which is the convex hull of those flips.
    A failing flip has |T_i v| = |v|, so it lies in sol(K) outside K; it is
    mirrored to lead with a positive entry (K = -K).  At most n*m gauge LPs,
    and none when the generators are independent.
    """
    for v in body.generators:
        support = [i for i, val in enumerate(v.values) if val != 0]
        if len(support) < 2:
            continue  # the one flip is -v
        # On two atoms the second flip mirrors the first.
        for i in support[:1] if len(support) == 2 else support:
            values = list(v.values)
            values[i] = -values[i]
            if values[support[0]] < 0:
                values = [-x for x in values]
            candidate = RandomVariable(body.space, tuple(values))
            if not member(body, candidate):
                return False, candidate
    return True, None


def solid_hull(body: AbsolutelyConvexBody) -> AbsolutelyConvexBody:
    """The solid hull of K as a body: all sign flips of |v| over generators.

    Flips lead with a positive entry, so none mirrors another; repeats go.
    """
    seen: set[tuple[Fraction, ...]] = set()
    hull: list[RandomVariable] = []
    for v in body.generators:
        support = [i for i, val in enumerate(v.values) if val != 0]
        if not support:
            continue
        for pattern in _sign_patterns(support):
            values = [_F0] * len(v.values)
            for s, i in zip(pattern, support):
                values[i] = s * abs(v.values[i])
            flip = tuple(values)
            if flip not in seen:
                seen.add(flip)
                hull.append(RandomVariable(body.space, flip))
    return AbsolutelyConvexBody(body.space, tuple(hull))
