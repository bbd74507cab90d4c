"""Finite probability spaces, random variables, and exact integration.

A space is a finite list of atoms with strictly positive rational weights
summing to one.  Random variables assign one exact rational per atom.  All
operations are pure functions of immutable values; results are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import SpaceMismatchError, ValidationError
from .rational import parse_rational

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class FiniteProbabilitySpace:
    """Atoms with exact positive weights; the desk-scale (Omega, F, mu)."""

    atoms: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValidationError("a probability space needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValidationError("atom labels must be unique")
        if len(self.weights) != len(self.atoms):
            raise ValidationError("one weight per atom required")
        if any(w <= 0 for w in self.weights):
            raise ValidationError("atom weights must be strictly positive")
        if sum(self.weights) != 1:
            raise ValidationError("atom weights must sum to exactly 1")

    @classmethod
    def uniform(cls, atoms: Sequence[str]) -> "FiniteProbabilitySpace":
        n = len(atoms)
        return cls(tuple(atoms), tuple(Fraction(1, n) for _ in atoms))

    @classmethod
    def of(cls, atoms: Sequence[str], weights: Iterable[object]) -> "FiniteProbabilitySpace":
        return cls(tuple(atoms), tuple(parse_rational(w) for w in weights))

    @property
    def size(self) -> int:
        return len(self.atoms)

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise ValidationError(f"unknown atom label: {atom!r}") from None

    @property
    def mu(self) -> "Measure":
        """The reference probability measure itself."""
        return Measure(self, self.weights)


@dataclass(frozen=True)
class RandomVariable:
    """An exact rational value per atom: an element of L0(mu)."""

    space: FiniteProbabilitySpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValidationError("one value per atom required")

    @classmethod
    def of(cls, space: FiniteProbabilitySpace, values: Iterable[object]) -> "RandomVariable":
        return cls(space, tuple(parse_rational(v) for v in values))

    @classmethod
    def constant(cls, space: FiniteProbabilitySpace, value: object) -> "RandomVariable":
        c = parse_rational(value)
        return cls(space, tuple(c for _ in range(space.size)))

    @classmethod
    def zero(cls, space: FiniteProbabilitySpace) -> "RandomVariable":
        return cls.constant(space, 0)

    @classmethod
    def indicator(cls, space: FiniteProbabilitySpace, atoms: Iterable[str]) -> "RandomVariable":
        hit = {space.index(a) for a in atoms}
        return cls(space, tuple(_F1 if i in hit else _F0 for i in range(space.size)))

    def __add__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "RandomVariable") -> "RandomVariable":
        _require_same_space(self, other)
        return RandomVariable(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "RandomVariable":
        return RandomVariable(self.space, tuple(-a for a in self.values))

    def scaled(self, factor: object) -> "RandomVariable":
        c = parse_rational(factor)
        return RandomVariable(self.space, tuple(c * a for a in self.values))

    def __abs__(self) -> "RandomVariable":
        return RandomVariable(self.space, tuple(abs(a) for a in self.values))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def dominates(self, other: "RandomVariable") -> bool:
        """Coordinatewise |other| <= |self|."""
        _require_same_space(self, other)
        return all(abs(b) <= abs(a) for a, b in zip(self.values, other.values))


@dataclass(frozen=True)
class Measure:
    """A nonnegative measure on the atoms; probability iff weights sum to 1."""

    space: FiniteProbabilitySpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.space.size:
            raise ValidationError("one weight per atom required")
        if any(w < 0 for w in self.weights):
            raise ValidationError("measure weights must be nonnegative")

    @property
    def is_probability(self) -> bool:
        return sum(self.weights) == 1

    @property
    def is_equivalent(self) -> bool:
        """Equivalent to the reference measure, i.e. strictly positive."""
        return all(w > 0 for w in self.weights)


def _require_same_space(first, second) -> None:
    if first.space != second.space:
        raise SpaceMismatchError("operands live on different probability spaces")


def expectation(f: RandomVariable, m: Measure) -> Fraction:
    """Exact integral of ``f`` against the measure ``m``."""
    _require_same_space(f, m)
    return sum((w * v for w, v in zip(m.weights, f.values)), _F0)


def pairing(f: RandomVariable, g: RandomVariable) -> Fraction:
    """The bilinear form integrating f*g against the reference measure."""
    _require_same_space(f, g)
    mu = f.space.weights
    return sum((w * a * b for w, a, b in zip(mu, f.values, g.values)), _F0)


def abs_pairing(f: RandomVariable, g: RandomVariable) -> Fraction:
    """Integral of |f*g| against the reference measure (polar integrand)."""
    _require_same_space(f, g)
    mu = f.space.weights
    return sum((w * abs(a * b) for w, a, b in zip(mu, f.values, g.values)), _F0)


def ky_fan_distance(f: RandomVariable, g: RandomVariable) -> Fraction:
    """inf{eps >= 0 : mu(|f-g| > eps) <= eps}, the attained exact minimum.

    Sort the distances |f_i - g_i| as d_1 >= ... >= d_n, set d_(n+1) = 0, and
    let M_k be the mass of the first k atoms.  The distance is the minimum
    over k = 0..n of max(d_(k+1), M_k): that eps leaves at most the first k
    atoms above it, so it is feasible, and the optimum, with some k atoms
    above it, is at least d_(k+1) and M_k.  The d fall and the M rise, so the
    scan stops at the first k with M_k >= d_(k+1).
    """
    _require_same_space(f, g)
    ranked = sorted(
        zip((abs(a - b) for a, b in zip(f.values, g.values)), f.space.weights), reverse=True
    )
    dists = [d for d, _w in ranked] + [_F0]
    best = dists[0]
    mass = _F0
    for k, (_d, w) in enumerate(ranked, start=1):
        mass += w
        best = min(best, max(dists[k], mass))
        if mass >= dists[k]:
            break
    return best


def compactifying_measure(xi: RandomVariable) -> Measure:
    """The equivalent probability with density min(xi, 1) normalised.

    ``xi`` must be strictly positive on every atom; the output weights are
    mu_i * min(xi_i, 1) / C with C the exact normalising constant.
    """
    if any(v <= 0 for v in xi.values):
        raise ValidationError("density seed must be strictly positive on every atom")
    mu = xi.space.weights
    clipped = [min(v, _F1) for v in xi.values]
    total = sum((w * c for w, c in zip(mu, clipped)), _F0)
    return Measure(xi.space, tuple(w * c / total for w, c in zip(mu, clipped)))
