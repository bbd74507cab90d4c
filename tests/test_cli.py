"""CLI commands: reports, exit codes, certificate re-validation, determinism."""

import json
import os
import random
from fractions import Fraction

import pytest

import riskspan.exactlp
from riskspan import (
    CertificateError,
    Measure,
    RandomVariable,
    emm_set,
    format_rational,
    member,
    record_outcomes,
    replicates,
    solid_hull_member,
)
from riskspan.cli import main
from riskspan.schema import load_document, market_from_json, parse_point

from support import branching_tree

TESTS = os.path.dirname(__file__)
FIXTURES = os.path.join(TESTS, "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv) -> dict:
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestSetCommands:
    def test_gauge_of_zero(self, capsys):
        report = run_json(
            capsys, "set-gauge", "--input", fx("body_cross.json"), "--point", "0,0"
        )
        assert report["result"]["gauge"] == "0/1"
        assert report["status"] == "ok"

    def test_gauge_of_corner(self, capsys):
        report = run_json(
            capsys, "set-gauge", "--input", fx("body_cross.json"), "--point", "1,1"
        )
        assert report["result"]["gauge"] == "2/1"

    def test_gauge_off_span(self, capsys):
        report = run_json(
            capsys, "set-gauge", "--input", fx("body_diag.json"), "--point", "1,0"
        )
        assert report["result"]["gauge"] == "inf"

    def test_polar(self, capsys):
        report = run_json(
            capsys, "set-polar", "--input", fx("body_cross.json"), "--point", "4,0"
        )
        assert report["result"]["polar_gauge"] == "2/1"

    def test_solid_hull_with_witness(self, capsys):
        report = run_json(
            capsys,
            "set-solid-hull",
            "--input",
            fx("body_diag.json"),
            "--point",
            "1/2,-1/2",
        )
        assert report["result"]["member"] is True
        witness = report["result"]["witness"]
        assert witness is not None
        values = [Fraction(v) for v in witness]
        assert all(abs(v) >= Fraction(1, 2) for v in values)

    def test_solid_check(self, capsys):
        report = run_json(capsys, "set-solid-check", "--input", fx("body_diag.json"))
        assert report["result"]["solid"] is False
        assert report["result"]["counterexample"] is not None
        report = run_json(capsys, "set-solid-check", "--input", fx("body_cross.json"))
        assert report["result"]["solid"] is True


class TestRiskCommands:
    def test_eval(self, capsys):
        report = run_json(
            capsys, "risk-eval", "--input", fx("risk_axes.json"), "--point", "1,0"
        )
        assert report["result"]["value"] == "1/1"

    def test_conjugate(self, capsys):
        report = run_json(
            capsys, "risk-conjugate", "--input", fx("risk_axes.json"), "--point", "1,1"
        )
        assert report["result"]["value"] == "0/1"
        report = run_json(
            capsys, "risk-conjugate", "--input", fx("risk_axes.json"), "--point", "3,0"
        )
        assert report["result"]["value"] == "inf"

    def test_extend_monotone_fixture(self, capsys):
        report = run_json(
            capsys,
            "risk-extend",
            "--input",
            fx("risk_span1.json"),
            "--point",
            "1,0",
            "--mode",
            "monotone",
        )
        assert report["result"]["value"] == "1/1"
        assert report["result"]["in_solid_hull"] is True

    def test_options_do_not_carry_over_between_calls(self, capsys):
        argv = ["risk-extend", "--input", fx("risk_span1.json"), "--point", "1,0"]
        assert run_json(capsys, *argv, "--mode", "monotone")["options"]["mode"] == "monotone"
        report = run_json(capsys, *argv)
        assert report["options"]["mode"] == "full"
        assert report["result"]["mode"] == "full"
        assert report["result"]["value"] == "inf"

    def test_extend_full_blows_up(self, capsys):
        report = run_json(
            capsys, "risk-extend", "--input", fx("risk_span1.json"), "--point", "1,0"
        )
        assert report["result"]["value"] == "inf"

    def test_fatou(self, capsys):
        report = run_json(capsys, "risk-fatou", "--input", fx("fatou_settled.json"))
        assert report["result"]["passes"] is True


class TestMarketCommands:
    def test_emm_binomial(self, capsys):
        report = run_json(capsys, "market-emm", "--input", fx("market_binomial.json"))
        result = report["result"]
        assert result["viable"] is True
        assert result["is_singleton"] is True
        assert result["vertices"] == [["1/3", "2/3"]]
        assert result["atoms"] == ["u", "w"]

    def test_emm_solves_only_the_viability_lp(self, capsys):
        # is_singleton is read off the vertex list, which needs no LP.
        outcomes: list = []
        with record_outcomes(outcomes):
            report = run_json(capsys, "market-emm", "--input", fx("market_trinomial.json"))
        assert report["result"]["is_singleton"] is False
        assert len(outcomes) == 1

    def test_emm_above_eight_atoms_lists_its_vertices(self, tmp_path, capsys):
        tree = branching_tree(random.Random(9), (3, 3))
        doc = tmp_path / "nine.json"
        doc.write_text(
            json.dumps(
                {
                    "nodes": [
                        {
                            "id": nd.node_id,
                            "parent": nd.parent,
                            "time": nd.time,
                            "prices": [format_rational(p) for p in nd.prices],
                        }
                        for nd in tree.nodes
                    ],
                    "leaf_weights": {
                        atom: format_rational(w)
                        for atom, w in zip(tree.space.atoms, tree.space.weights)
                    },
                }
            )
        )
        result = run_json(capsys, "market-emm", "--input", str(doc))["result"]
        assert len(result["atoms"]) == 9
        assert result["is_singleton"] is False
        assert result["vertices"] == [
            [format_rational(q) for q in vertex] for vertex in emm_set(tree).vertices()
        ]
        assert len(result["vertices"]) > 1

    def test_emm_of_an_empty_set_exit_3(self, tmp_path, capsys):
        doc = tmp_path / "drift.json"
        doc.write_text(
            '{"nodes": [{"id": "root", "parent": null, "time": 0, "prices": [1]}, '
            '{"id": "u", "parent": "root", "time": 1, "prices": [2]}, '
            '{"id": "w", "parent": "root", "time": 1, "prices": [3]}], '
            '"leaf_weights": {"u": "1/2", "w": "1/2"}}'
        )
        code = main(["market-emm", "--input", str(doc)])
        assert code == 3
        assert capsys.readouterr().err == "precondition failure: empty martingale measure set\n"

    def test_complete(self, capsys):
        assert run_json(capsys, "market-complete", "--input", fx("market_binomial.json"))[
            "result"
        ]["complete"]
        assert not run_json(
            capsys, "market-complete", "--input", fx("market_trinomial.json")
        )["result"]["complete"]

    def test_complete_market_solves_only_the_viability_lp(self, capsys):
        # The martingale rows pin every atom's mass: no bounds LP.
        outcomes: list = []
        with record_outcomes(outcomes):
            report = run_json(capsys, "market-complete", "--input", fx("market_binomial.json"))
        assert report["result"]["complete"] is True
        assert len(outcomes) == 1

    def test_witness_report_revalidates(self, capsys):
        report = run_json(capsys, "market-witness", "--input", fx("market_trinomial.json"))
        witness = report["result"]["witness"]
        assert witness["event"] == ["u"]
        assert witness["q_min"] == "0/1"
        assert witness["q_max"] == "1/3"
        # re-validate every certificate in the report against the market
        tree = market_from_json(load_document(fx("market_trinomial.json")))
        emm = emm_set(tree)
        for key in ("measure_min", "measure_max"):
            weights = tuple(Fraction(w) for w in witness[key])
            assert emm.contains(Measure(tree.space, weights))
        indicator = RandomVariable.of(tree.space, witness["indicator"])
        from riskspan import attainable_ball

        ball = attainable_ball(tree)
        assert solid_hull_member(ball, indicator)[0]
        assert not member(ball, indicator)

    def test_attainable_report_replicates(self, capsys):
        report = run_json(
            capsys,
            "market-attainable",
            "--input",
            fx("market_binomial.json"),
            "--point",
            "2,1/2",
        )
        result = report["result"]
        assert result["attainable"] is True
        tree = market_from_json(load_document(fx("market_binomial.json")))
        hedge = {
            nid: tuple(Fraction(h) for h in holding)
            for nid, holding in result["hedge"].items()
        }
        xi = parse_point(tree.space, "2,1/2")
        assert replicates(tree, Fraction(result["initial_capital"]), hedge, xi)

    def test_not_attainable(self, capsys):
        report = run_json(
            capsys,
            "market-attainable",
            "--input",
            fx("market_trinomial.json"),
            "--point",
            "1,0,0",
        )
        assert report["result"]["attainable"] is False

    def test_ball(self, capsys):
        report = run_json(capsys, "market-ball", "--input", fx("market_binomial.json"))
        gens = report["result"]["generators"]
        assert sorted(gens) == [["1/1", "-1/1"], ["1/1", "1/1"]]


def _set_item(path: tuple, value):
    """An edit that sets doc[path[0]][path[1]]... to ``value``."""

    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


# case -> (command, fixture or None, edit or raw text, point)
_MALFORMED = {
    "negative fatou bound": ("risk-fatou", "fatou_settled.json", _set_item(("bound",), "-1"), None),
    "empty sequence": ("risk-fatou", "fatou_settled.json", _set_item(("sequence",), []), None),
    "duplicate atom labels": (
        "set-gauge", "body_cross.json", _set_item(("space", "atoms"), ["a", "a"]), "1,1"
    ),
    "non-string atom label": (
        "set-gauge", "body_cross.json", _set_item(("space", "atoms"), ["a", 1]), "1,1"
    ),
    "1/0 weight": (
        "set-gauge", "body_cross.json", _set_item(("space", "weights"), ["1/0", "1/2"]), "1,1"
    ),
    "self-parented node": (
        "market-emm", "market_binomial.json", _set_item(("nodes", 1, "parent"), "u"), None
    ),
    "deep nesting": ("set-gauge", None, '{"space": ' + "[" * 100_000 + "]" * 100_000 + "}", "1,1"),
}


class TestErrors:
    def test_missing_file_exit_4(self, capsys):
        code, _out = run_cli(capsys, "set-gauge", "--input", "/nonexistent.json", "--point", "0,0")
        assert code == 4

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": {"atoms": ["a"], "weights": ["1/2"]}, "generators": [[1]]}')
        code, _out = run_cli(capsys, "set-gauge", "--input", str(bad), "--point", "1")
        assert code == 2

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _out = run_cli(capsys, "set-gauge", "--input", str(bad), "--point", "1")
        assert code == 2

    def test_non_utf8_input_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"space": {}}')
        code = main(["set-gauge", "--input", str(bad), "--point", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error: input ")

    def test_missing_point_exit_2(self, capsys):
        code, _out = run_cli(capsys, "set-gauge", "--input", fx("body_cross.json"))
        assert code == 2

    def test_nonviable_market_exit_3(self, capsys):
        code, _out = run_cli(
            capsys,
            "market-attainable",
            "--input",
            fx("market_arbitrage.json"),
            "--point",
            "1,1",
        )
        assert code == 3

    def test_max_atoms_cap_exit_3(self, capsys):
        code, _out = run_cli(
            capsys,
            "set-gauge",
            "--input",
            fx("body_cross.json"),
            "--point",
            "0,0",
            "--max-atoms",
            "1",
        )
        assert code == 3

    def test_negative_max_atoms_exit_2(self, capsys):
        code = main(
            ["set-gauge", "--input", fx("body_cross.json"), "--point", "0,0", "--max-atoms", "-1"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_boolean_node_time_exit_2(self, tmp_path, capsys):
        for flag in ("false", "true"):
            doc = tmp_path / f"time_{flag}.json"
            doc.write_text(
                '{"nodes": [{"id": "root", "parent": null, "time": ' + flag + ', "prices": [1]}, '
                '{"id": "u", "parent": "root", "time": 1, "prices": [2]}, '
                '{"id": "w", "parent": "root", "time": 1, "prices": ["1/2"]}], '
                '"leaf_weights": {"u": "1/2", "w": "1/2"}}'
            )
            code = main(["market-complete", "--input", str(doc)])
            assert code == 2
            assert capsys.readouterr().err.startswith("validation error:")

    def test_oversized_point_literal_exit_2(self, capsys):
        # 5000 digits is above the interpreter's int-string conversion limit.
        huge = "1" + "0" * 5000
        code = main(["set-gauge", "--input", fx("body_cross.json"), "--point", f"{huge},1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_point_literal_follows_the_document_grammar_exit_2(self, tmp_path, capsys):
        # "1_0" is an int() literal but not a rational one, on either side;
        # "١" (Arabic-Indic one) is a Fraction() literal but not an ASCII one.
        for literal in ("1_0", "١"):
            code = main(["set-gauge", "--input", fx("body_cross.json"), "--point", f"{literal},1"])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"validation error: not a rational literal: {literal!r}\n"
        doc = tmp_path / "underscore.json"
        doc.write_text(
            '{"space": {"atoms": ["a", "b"], "weights": ["1/2", "1/2"]}, '
            '"generators": [["1_0", 0], [0, 1]]}'
        )
        code = main(["set-gauge", "--input", str(doc), "--point", "0,0"])
        assert code == 2
        assert capsys.readouterr().err == "validation error: not a rational literal: '1_0'\n"

    def test_oversized_json_integer_exit_2(self, tmp_path, capsys):
        doc = tmp_path / "huge.json"
        doc.write_text(
            '{"space": {"atoms": ["a", "b"], "weights": ["1/2", "1/2"]}, '
            '"generators": [[1' + "0" * 5000 + ", 0], [0, 1]]}"
        )
        code = main(["set-gauge", "--input", str(doc), "--point", "0,0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("validation error:")

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        # The JSON decoder recurses once per level and hits the interpreter's
        # recursion limit.
        doc = tmp_path / "deep.json"
        doc.write_text("[" * 200_000 + "]" * 200_000)
        code = main(["set-gauge", "--input", str(doc), "--point", "0,0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"validation error: JSON in {doc} is nested too deeply\n"

    @pytest.mark.parametrize("case", sorted(_MALFORMED), ids=str)
    def test_malformed_document_exits_without_traceback(self, case, tmp_path, capsys):
        command, fixture, edit, point = _MALFORMED[case]
        doc = tmp_path / "doc.json"
        if fixture is None:
            doc.write_text(edit)
        else:
            with open(fx(fixture), encoding="utf-8") as handle:
                data = json.load(handle)
            edit(data)
            doc.write_text(json.dumps(data))
        argv = [command, "--input", str(doc)] + (["--point", point] if point else [])
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (2, 3), err
        assert "Traceback" not in err
        assert err.startswith(("validation error:", "precondition failure:")), err

    def test_certificate_failure_exit_5(self, monkeypatch, capsys):
        def reject(lp, outcome):
            raise CertificateError("forced rejection")

        monkeypatch.setattr(riskspan.exactlp, "verify_outcome", reject)
        # The cross body's generators are independent, so its gauge needs no
        # LP; its solid-hull test solves one.
        code = main(["set-solid-hull", "--input", fx("body_cross.json"), "--point", "1,1"])
        assert code == 5
        assert capsys.readouterr().err == "certificate failure: forced rejection\n"


class TestDeterminism:
    def test_reports_identical_in_process(self, capsys):
        # The full subprocess byte-comparison lives in the acceptance suite;
        # this is the fast in-process version run on every test pass.
        from support import CLI_FIXTURE_COMMANDS

        for command, fixture, extra in CLI_FIXTURE_COMMANDS:
            argv = [command, "--input", fx(fixture), *extra]
            first = run_cli(capsys, *argv)
            second = run_cli(capsys, *argv)
            assert first == second
            assert first[0] == 0
            json.loads(first[1])  # report stays parseable

    def test_reports_match_stored_golden_reports(self, monkeypatch, capsys):
        # Each report is stored byte for byte under fixtures/expected/; the
        # "input" field is the relative path, so run from the tests directory.
        from support import CLI_FIXTURE_COMMANDS

        monkeypatch.chdir(TESTS)
        for command, fixture, extra in CLI_FIXTURE_COMMANDS:
            code, out = run_cli(capsys, command, "--input", f"fixtures/{fixture}", *extra)
            assert code == 0
            with open(os.path.join(FIXTURES, "expected", f"{command}.json"), "rb") as handle:
                assert out.encode("utf-8") == handle.read(), command

    def test_human_format(self, capsys):
        code, out = run_cli(
            capsys,
            "set-gauge",
            "--input",
            fx("body_cross.json"),
            "--point",
            "1,1",
            "--format",
            "human",
        )
        assert code == 0
        assert "result.gauge: 2/1" in out
