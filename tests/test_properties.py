"""Property tests of the LP engine (skipped when hypothesis is absent)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riskspan import (  # noqa: E402
    LinearConstraint,
    LinearProgram,
    LPStatus,
    solve,
    verify_outcome,
)

_small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_positive = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4))


@st.composite
def _programs(draw):
    """A small LP, a permutation of its rows and positive column scales."""
    n = draw(st.integers(1, 4))
    row = st.tuples(
        st.lists(_small, min_size=n, max_size=n), st.sampled_from(("<=", ">=", "=")), _small
    )
    rows = draw(st.lists(row, max_size=4))
    constraints = tuple(LinearConstraint.of(c, rel, b) for c, rel, b in rows)
    lower = draw(st.lists(st.one_of(st.none(), _small), min_size=n, max_size=n))
    widths = draw(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=n, max_size=n))
    upper = [
        None if w is None else (Fraction(-2) if lo is None else lo) + w
        for lo, w in zip(lower, widths)
    ]
    objective = draw(st.lists(_small, min_size=n, max_size=n))
    lp = LinearProgram.minimize(objective, constraints, lower=lower, upper=upper)
    order = draw(st.permutations(range(len(constraints))))
    scales = draw(st.lists(_positive, min_size=n, max_size=n))
    return lp, order, scales


def _transformed(lp: LinearProgram, order, scales) -> LinearProgram:
    """Rows permuted and x_j = s_j * y_j substituted, so y_j = x_j / s_j."""

    def bound(b, s):
        return None if b is None else b / s

    constraints = tuple(
        LinearConstraint(
            tuple(c * s for c, s in zip(lp.constraints[i].coefficients, scales)),
            lp.constraints[i].relation,
            lp.constraints[i].rhs,
        )
        for i in order
    )
    return LinearProgram(
        tuple(c * s for c, s in zip(lp.objective, scales)),
        constraints,
        tuple(bound(b, s) for b, s in zip(lp.lower, scales)),
        tuple(bound(b, s) for b, s in zip(lp.upper, scales)),
    )


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_programs())
def test_permuted_rows_and_scaled_columns_keep_the_value(case):
    lp, order, scales = case
    other = _transformed(lp, order, scales)
    out, out2 = solve(lp), solve(other)
    verify_outcome(lp, out)
    verify_outcome(other, out2)
    assert out.status is out2.status
    if out.status is LPStatus.OPTIMAL:
        assert out.value == out2.value
