"""JSON boundary: rational literals, document validation, canonical output."""

from fractions import Fraction

import pytest

from riskspan import FiniteProbabilitySpace, ValidationError, parse_rational
from riskspan.rational import format_extended, format_rational, INF
from riskspan.schema import (
    body_from_json,
    canonical_json,
    market_from_json,
    parse_point,
    risk_from_json,
    space_from_json,
)


class TestRationalLiterals:
    def test_parse_forms(self):
        assert parse_rational(3) == 3
        assert parse_rational("3") == 3
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert parse_rational("+1/3") == Fraction(1, 3)

    def test_rejects_floats_and_junk(self):
        # Fraction() reads non-ASCII digits and a trailing newline; the grammar does not.
        for bad in (1.5, "1.5", "1/0", "a/b", True, None, "1/-2", "١", "1/1٢", "１２", "1\n"):
            with pytest.raises(ValidationError):
                parse_rational(bad)

    def test_format_always_carries_denominator(self):
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(-3, 7)) == "-3/7"
        assert format_extended(INF) == "inf"


class TestDocuments:
    def test_space_round_trip(self):
        doc = {"atoms": ["a", "b"], "weights": ["1/3", "2/3"]}
        space = space_from_json(doc)
        assert space.atoms == ("a", "b")
        assert space.weights == (Fraction(1, 3), Fraction(2, 3))

    def test_missing_fields_are_named(self):
        with pytest.raises(ValidationError, match="weights"):
            space_from_json({"atoms": ["a"]})
        with pytest.raises(ValidationError, match="generators"):
            body_from_json({"space": {"atoms": ["a"], "weights": [1]}})
        with pytest.raises(ValidationError, match="scenarios"):
            risk_from_json(
                {"space": {"atoms": ["a"], "weights": [1]}, "body": {"generators": [[1]]}}
            )

    def test_market_document(self):
        tree = market_from_json(
            {
                "nodes": [
                    {"id": "root", "parent": None, "time": 0, "prices": [1]},
                    {"id": "u", "parent": "root", "time": 1, "prices": [2]},
                    {"id": "w", "parent": "root", "time": 1, "prices": ["1/2"]},
                ],
                "leaf_weights": {"u": "1/2", "w": "1/2"},
            }
        )
        assert tree.space.atoms == ("u", "w")

    def test_point_literals(self):
        space = FiniteProbabilitySpace.uniform(["a", "b", "c"])
        point = parse_point(space, "1, -2/3, 0")
        assert point.values == (Fraction(1), Fraction(-2, 3), Fraction(0))
        with pytest.raises(ValidationError):
            parse_point(space, "1,2")


def test_canonical_json_is_stable():
    payload = {"b": 1, "a": {"z": "2/3", "m": [1, 2]}}
    first = canonical_json(payload)
    second = canonical_json({"a": {"m": [1, 2], "z": "2/3"}, "b": 1})
    assert first == second
    assert first.endswith("\n")
