"""Property tests of the LP engine, replication and the CLI loader.

Skipped when hypothesis is absent.
"""

import contextlib
import copy
import io
import json
import os
import random
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from riskspan import (  # noqa: E402
    LinearConstraint,
    LinearProgram,
    LPStatus,
    RandomVariable,
    attainable,
    linalg,
    replicates,
    solve,
    strategy_basis,
    verify_outcome,
)
from riskspan.cli import main  # noqa: E402
from support import CLI_FIXTURE_COMMANDS, random_tree  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

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


@st.composite
def _trees_and_claims(draw):
    """A random viable tree and a claim, half of them in the strategy span."""
    tree = random_tree(random.Random(draw(st.integers(0, 2**32))))
    elements = strategy_basis(tree).elements
    n = tree.space.size
    if draw(st.booleans()):
        coeffs = draw(st.lists(_small, min_size=len(elements), max_size=len(elements)))
        values = [
            sum((c * e.values[i] for c, e in zip(coeffs, elements)), Fraction(0)) for i in range(n)
        ]
    else:
        values = draw(st.lists(_small, min_size=n, max_size=n))
    return tree, RandomVariable(tree.space, tuple(values))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_trees_and_claims())
def test_attainable_iff_in_the_strategy_span(case):
    tree, xi = case
    ok, detail = attainable(tree, xi)
    basis = [e.values for e in strategy_basis(tree).elements]
    assert ok == linalg.in_span(linalg._echelon(basis), xi.values)
    if ok:
        assert replicates(tree, detail[0], detail[1], xi)


_json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(10**3), 10**3),
    st.text(max_size=5),
    st.sampled_from(["1/2", "-3/4", "0", "1/0", "2.5", "1e3", "x", ""]),
)
_json = st.recursive(
    _json_leaf,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4),
    max_leaves=8,
)


def _mutated(draw, value):
    """``value`` with one node, chosen by a random walk, replaced or deleted.

    The walk descends three times in four, so most edits land deep in the
    document, where schema checks and the analyses themselves see them.
    """
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)) != 3:
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(list(keys)))
        edited = dict(value) if isinstance(value, dict) else list(value)
        if draw(st.integers(0, 4)) == 4:
            del edited[key]
        else:
            edited[key] = _mutated(draw, value[key])
        return edited
    # A number or label mostly becomes another scalar, often a valid one.
    return draw(_json_leaf if not isinstance(value, (dict, list)) else _json)


def _number_paths(value, path=()):
    """Paths to the numbers and numeric strings of a JSON document."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _number_paths(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _number_paths(item, path + (i,))
    elif isinstance(value, int) and not isinstance(value, bool):
        yield path
    elif isinstance(value, str) and value.lstrip("-").replace("/", "", 1).isdigit():
        yield path


def _renumbered(draw, doc):
    """``doc`` with one numeric leaf set to another small rational."""
    paths = list(_number_paths(doc))
    if not paths:
        return doc
    *parents, last = draw(st.sampled_from(paths))
    doc = copy.deepcopy(doc)
    node = doc
    for key in parents:
        node = node[key]
    node[last] = draw(st.sampled_from((0, 1, 2, 3, -1, "1/2", "3/2", "-1/3", "5/4")))
    return doc


@st.composite
def _cli_inputs(draw):
    """A CLI command with its fixture edited, renumbered, truncated or replaced by bytes."""
    command, fixture, extra = draw(st.sampled_from(CLI_FIXTURE_COMMANDS))
    with open(os.path.join(FIXTURES, fixture), encoding="utf-8") as handle:
        doc = json.load(handle)
    kind = draw(st.sampled_from(("renumber", "mutate", "mutate", "truncate", "bytes")))
    if kind == "bytes":
        data = draw(st.binary(max_size=40))
    elif kind == "renumber":
        data = json.dumps(_renumbered(draw, doc)).encode("utf-8")
    else:
        for _ in range(draw(st.integers(0, 2))):
            doc = _mutated(draw, doc)
        data = json.dumps(doc).encode("utf-8")
        if kind == "truncate":
            data = data[: draw(st.integers(0, len(data)))]
    return command, data, extra


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_cli_inputs())
def test_cli_loader_fuzz_exits_with_a_documented_code(case):
    command, data, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb") as handle:
            handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", path, *extra])
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
