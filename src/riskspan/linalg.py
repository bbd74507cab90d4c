"""Exact fraction-free elimination on integer rows (internal).

A rational row is scaled to integers over its least common denominator, and
rows are eliminated Bareiss-style: clearing a column multiplies the row by
the pivot over a gcd and subtracts a multiple of the pivot row, then divides
the row by the gcd of its entries.  No entry is ever a ``Fraction``; results
are read out as Fractions.  ``_eliminate`` is also the pivot step of the
simplex in ``exactlp``, whose rows carry one positive denominator each.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Row = Sequence[Fraction]


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    # A list, not a generator, as the star-argument (see ``_eliminate``).
    den = lcm(*[d for _num, d in ratios])
    return [num * (den // d) for num, d in ratios], den


def _eliminate(
    row: list[int], prow: list[int], col: int, nz: Sequence[int], den: int = 0
) -> int:
    """Clear ``row[col]`` with the pivot row ``prow``, in place.

    ``nz`` lists the columns where ``prow`` is nonzero.  The row becomes
    ``row * (p/g) - (row[col]/g) * prow`` with ``p = prow[col]`` and
    ``g = gcd(row[col], p)``, and is then divided by the gcd of its entries
    and ``den``.  For a row read as ``row / den`` and a pivot row read as
    ``prow / p`` this is the exact update ``row - row[col] * prow``; the new
    denominator is returned.  With ``den = 0`` only the row's direction counts.
    """
    p = prow[col]
    f = row[col]
    g = gcd(f, p)
    scale = p // g
    f //= g
    if scale != 1:
        row[:] = [v * scale for v in row]
    for j in nz:
        row[j] -= f * prow[j]
    den *= scale
    # Not gcd(den, *row): on CPython 3.11 that form kept 0.4 MB more memory
    # allocated after 40 rounds of 4-atom body analyses, and together with a
    # generator star-argument in ``_scaled`` it raised peak RSS by 1 MiB.
    g = gcd(gcd(*row), den)
    if g > 1:
        row[:] = [v // g for v in row]
        den //= g
    return den


def _echelon(rows: Sequence[Row]) -> list[tuple[int, int, list[int]]]:
    """(row index, pivot column, reduced integer row) per independent row.

    Rows are taken greedily in order; each kept row is reduced against the
    rows kept before it, so it is zero at their pivot columns and its pivot
    is its first nonzero column.
    """
    kept: list[tuple[int, int, list[int]]] = []
    for idx, values in enumerate(rows):
        work = _reduce(kept, _scaled(values)[0])
        pivot = next((j for j, v in enumerate(work) if v), None)
        if pivot is not None:
            kept.append((idx, pivot, work))
    return kept


def _reduce(kept: Sequence[tuple[int, int, list[int]]], work: list[int]) -> list[int]:
    """Clear ``work`` at every pivot column of an ``_echelon`` result."""
    for _idx, pcol, prow in kept:
        if work[pcol]:
            _eliminate(work, prow, pcol, [j for j, v in enumerate(prow) if v])
    return work


def rank(rows: Sequence[Row]) -> int:
    return len(_echelon(rows))


def independent_rows(rows: Sequence[Row]) -> list[int]:
    """Indices of a maximal linearly independent subset, greedy in order."""
    return [idx for idx, _pcol, _row in _echelon(rows)]


def _back_substitute(kept: Sequence[tuple[int, int, list[int]]]) -> None:
    """Clear each row of an ``_echelon`` result at the pivots after its own.

    A kept row is already zero at the pivots of the rows before it, so
    clearing it at the pivots after it (last row first) leaves one nonzero
    per row among the pivot columns.
    """
    for k in range(len(kept) - 2, -1, -1):
        _reduce(kept[k + 1 :], kept[k][2])


def solve_exact(rows: Sequence[Row], rhs: Sequence[Fraction]) -> Optional[list[Fraction]]:
    """Some exact solution of ``rows @ x = rhs`` (free vars pinned to 0), or None."""
    if not rows:
        return []
    n = len(rows[0])
    kept = _echelon([list(rows[i]) + [rhs[i]] for i in range(len(rows))])
    if any(pcol == n for _idx, pcol, _row in kept):
        return None
    _back_substitute(kept)
    x = [Fraction(0)] * n
    for _idx, pcol, work in kept:
        x[pcol] = Fraction(work[n], work[pcol])
    return x


def left_inverse(
    rows: Sequence[Row],
) -> tuple[list[tuple[int, int, list[int]]], Optional[tuple[tuple[tuple[int, ...], ...], int]]]:
    """The span of ``rows``, and integer rows P with a denominator D > 0 such
    that (P / D) @ transpose(rows) = I.

    For x in the row span, (P / D) @ x holds the one coefficient vector c with
    sum c_j rows_j = x; independent rows are required, and dependent ones give
    None in place of (P, D).  ``_echelon`` runs over each row beside its unit
    vector: every reduced row reads [sum_j t_j rows_j | t], so a pivot past
    the first n columns is a vanishing combination of the rows, and the
    reduced rows with a pivot among the first n columns, cut to those
    columns, are an ``_echelon`` result for the span.
    """
    m, n = len(rows), len(rows[0])
    kept = _echelon([list(row) + [int(j == k) for k in range(m)] for j, row in enumerate(rows)])
    span = [(idx, pcol, row[:n]) for idx, pcol, row in kept if pcol < n]
    if len(span) < m:
        return span, None
    # Afterwards each row is zero at every other row's pivot, so
    # x = sum_k (x[p_k] / row_k[p_k]) * row_k on the span.
    _back_substitute(kept)
    den = lcm(*[row[pcol] for _idx, pcol, row in kept])
    inverse = [[0] * n for _ in range(m)]
    for _idx, pcol, row in kept:
        factor = den // row[pcol]
        for j in range(m):
            inverse[j][pcol] = row[n + j] * factor
    return span, (tuple(tuple(row) for row in inverse), den)


def in_span(kept: Sequence[tuple[int, int, list[int]]], vector: Row) -> bool:
    """Whether ``vector`` lies in the span of an ``_echelon`` result."""
    return not any(_reduce(kept, _scaled(vector)[0]))
