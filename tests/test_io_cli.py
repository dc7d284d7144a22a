"""Ideal file format and the command-line surface."""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import mix, random_origin_ideal
from staircase import ConsistencyError, MonomialIdeal, ParseError, PolyIdeal
from staircase.cli import build_parser, main
from staircase.ideal_io import (
    format_rational,
    ideal_to_document,
    parse_ideal_file,
    parse_ideal_text,
    parse_rational,
)

BOUNDARY_DOC = {"vars": 2, "kind": "monomial", "generators": [[6, 2], [0, 4]]}
POLY_DOC = {
    "vars": 2,
    "kind": "polynomial",
    "generators": [
        [{"coeff": "1", "exp": [6, 0]}],
        [{"coeff": "1", "exp": [0, 2]}, {"coeff": "1", "exp": [2, 1]}],
    ],
}


# report fields that hold a rational besides the <name>_lhs/_rhs/_slack triples
RATIONAL_FIELDS = ("mu", "lct", "covolume", "multiplicity", "primitive_mult")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormat:
    def test_monomial_parse(self):
        (J,) = parse_ideal_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]}))
        assert J == MonomialIdeal(2, [(6, 0), (0, 2)])

    def test_minimalized_on_load(self):
        (J,) = parse_ideal_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[2, 0], [2, 1], [0, 3]]}))
        assert J.gens == ((0, 3), (2, 0))

    def test_polynomial_parse(self):
        (I,) = parse_ideal_text(json.dumps(POLY_DOC))
        assert isinstance(I, PolyIdeal)
        assert {tuple(sorted(g.terms)) for g in I.gens} == {((6, 0),), ((0, 2), (2, 1))}

    def test_round_trip_is_stable(self):
        for doc in (BOUNDARY_DOC, POLY_DOC):
            (obj,) = parse_ideal_text(json.dumps(doc))
            canonical = ideal_to_document(obj)
            (again,) = parse_ideal_text(json.dumps(canonical))
            assert ideal_to_document(again) == canonical

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("{not json", "invalid JSON"),
            ({"vars": 0, "kind": "monomial", "generators": [[0]]}, "vars"),
            ({"vars": 2, "kind": "monomial", "generators": []}, "zero ideal"),
            ({"vars": 2, "kind": "monomial", "generators": [[1, -2]]}, "nonnegative"),
            ({"vars": 2, "kind": "monomial", "generators": [[1]]}, "expected 2"),
            ({"vars": 2, "kind": "other", "generators": [[1, 0]]}, "kind"),
            (
                {"vars": 2, "kind": "polynomial", "generators": [[{"coeff": "0", "exp": [1, 0]}]]},
                "zero coefficients",
            ),
            (
                {"vars": 1, "kind": "polynomial", "generators": [[{"coeff": "1/0", "exp": [1]}]]},
                "bad rational",
            ),
        ],
    )
    def test_parse_errors(self, doc, fragment):
        text = doc if isinstance(doc, str) else json.dumps(doc)
        with pytest.raises(ParseError) as err:
            parse_ideal_text(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "exp,fragment",
        [(5, "must be a list"), ([1.0, 0], "non-integer entry 1.0"), ([True, 0], "non-integer entry True")],
    )
    def test_exponent_errors_name_their_place(self, exp, fragment):
        docs = {
            "$.generators[1]": {"vars": 2, "kind": "monomial", "generators": [[0, 1], exp]},
            "$.generators[0][0].exp": {"vars": 2, "kind": "polynomial", "generators": [[{"coeff": "1", "exp": exp}]]},
        }
        for where, doc in docs.items():
            with pytest.raises(ParseError) as err:
                parse_ideal_text(json.dumps(doc))
            assert str(err.value).startswith(where + ": ") and fragment in str(err.value)

    def test_each_exponent_is_validated_once(self, monkeypatch):
        # the parser validates; the ideal and the polynomials are then built without a second check
        from staircase.ideals import _validate_exponent

        calls = []

        def counted(e, n):
            calls.append(n)
            return _validate_exponent(e, n)

        for module in [m for name, m in sys.modules.items() if name.startswith("staircase")]:
            if hasattr(module, "_validate_exponent"):
                monkeypatch.setattr(module, "_validate_exponent", counted)
        (J,) = parse_ideal_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[2, 0], [2, 1], [0, 3]]}))
        assert (J.gens, len(calls)) == (((0, 3), (2, 0)), 3)
        calls.clear()
        parse_ideal_text(json.dumps(POLY_DOC))
        assert len(calls) == 3

    def test_terms_that_cancel_are_dropped(self):
        terms = [{"coeff": "1", "exp": [2, 0]}, {"coeff": "1/2", "exp": [0, 1]}, {"coeff": "-1/2", "exp": [0, 1]}]
        (I,) = parse_ideal_text(json.dumps({"vars": 2, "kind": "polynomial", "generators": [terms]}))
        assert I.gens[0].terms == {(2, 0): 1}

    def test_exponent_validator_refuses_a_non_sequence(self):
        from staircase import FormatError, RationalPolynomial
        from staircase.ideals import _validate_exponent

        for bad in (lambda: _validate_exponent(5, 2), lambda: RationalPolynomial(2, {5: 1})):
            with pytest.raises(FormatError, match="not a sequence"):
                bad()

    def test_rational_formatting(self):
        from fractions import Fraction

        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(-4, 2)) == "-2"
        assert parse_rational("7/3") == Fraction(7, 3)

    def test_rational_formatting_refuses_other_values(self):
        # format_rational is render_json's hook, so a stray report value fails loudly
        from staircase.reports import render_json

        for value in (1.5, "3/2", None, object()):
            with pytest.raises(TypeError, match="is not a rational"):
                format_rational(value)
        with pytest.raises(TypeError, match="is not a rational"):
            render_json({"reports": [{"value": object()}]})

    @pytest.mark.parametrize("text", ["1e5", "1.5", "1_000", " 3", "3/-4", "1e3000000"])
    def test_rational_other_forms_rejected(self, text):
        with pytest.raises(ParseError, match="expected the form p or p/q"):
            parse_rational(text)

    @pytest.mark.parametrize("value,expected", [("-7/3", (-7, 3)), ("+2", (2, 1)), (4, (4, 1))])
    def test_rational_documented_forms_parse(self, value, expected):
        from fractions import Fraction

        assert parse_rational(value) == Fraction(*expected)


class TestCli:
    @pytest.fixture
    def boundary_file(self, tmp_path):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(BOUNDARY_DOC))
        return str(path)

    @pytest.fixture
    def simple_file(self, tmp_path):
        path = tmp_path / "simple.json"
        path.write_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]}))
        return str(path)

    @pytest.fixture
    def poly_file(self, tmp_path):
        path = tmp_path / "poly.json"
        doc = {
            "vars": 2,
            "kind": "polynomial",
            "generators": [
                [{"coeff": "1", "exp": [6, 2]}],
                [{"coeff": "1", "exp": [0, 4]}, {"coeff": "1", "exp": [2, 3]}],
            ],
        }
        path.write_text(json.dumps(doc))
        return str(path)

    def test_lct(self, capsys, simple_file):
        code, out, _ = run_cli(capsys, "lct", "--input", simple_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["mu"] == "3/2"
        assert doc["reports"][0]["lct"] == "2/3"

    def test_length_and_mult(self, capsys, simple_file):
        code, out, _ = run_cli(capsys, "length", "--input", simple_file)
        assert code == 0 and json.loads(out)["reports"][0]["length"] == 12
        code, out, _ = run_cli(capsys, "mult", "--input", simple_file, "--t-max", "2")
        doc = json.loads(out)
        assert doc["reports"][0]["multiplicity"] == "12"
        assert doc["reports"][0]["limit_sequence"] == ["24", "18"]

    def test_polytope_rows(self, capsys, simple_file):
        code, out, _ = run_cli(capsys, "polytope", "--input", simple_file, "--format", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[:3] == ["ideal", "coefficients", "rhs"]
        assert len(lines) == 4  # header + three facets

    def test_closure(self, capsys, simple_file):
        code, out, _ = run_cli(capsys, "closure", "--input", simple_file)
        doc = json.loads(out)
        assert doc["reports"][0]["closure"] == [[0, 2], [3, 1], [6, 0]]
        assert doc["reports"][0]["closure_power_q"] is None

    def test_codim2_boundary_example(self, capsys, boundary_file):
        code, out, _ = run_cli(capsys, "codim2", "--input", boundary_file)
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["mu"] == "3"
        assert rep["sharp_bound_lhs"] == "36" == rep["sharp_bound_rhs"]
        assert rep["sharp_equality"] is True
        assert rep["boundary_closure_ok"] is True

    def test_verify_seeded_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--seed", "7", "--count", "25", "--dim", "3")
        code2, out2, _ = run_cli(capsys, "verify", "--seed", "7", "--count", "25", "--dim", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["failed"] == 0 and len(doc["reports"]) == 25

    def test_verify_one_variable_corpus_exits_clean(self, capsys):
        # one-variable pure powers sit exactly on the bounds; the checker
        # treats those equalities as correct values, not violations
        code, out, _ = run_cli(capsys, "verify", "--seed", "2", "--count", "10", "--dim", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert all(r["length_volume_slack"] == "0" for r in doc["reports"])

    def test_tsv_and_json_share_values(self, capsys):
        _, json_out, _ = run_cli(capsys, "verify", "--seed", "3", "--count", "5", "--dim", "2")
        _, tsv_out, _ = run_cli(capsys, "verify", "--seed", "3", "--count", "5", "--dim", "2", "--format", "tsv")
        doc = json.loads(json_out)
        lines = tsv_out.strip().splitlines()
        header = lines[0].split("\t")
        for rep, line in zip(doc["reports"], lines[1:]):
            row = dict(zip(header, line.split("\t")))
            assert row["mu"] == rep["mu"]
            assert row["covolume"] == rep["covolume"]
            assert row["length_volume_slack"] == rep["length_volume_slack"]

    @pytest.mark.parametrize("argv", [("verify", "--dim", "2"), ("verify", "--dim", "4"), ("codim2",)], ids=" ".join)
    def test_suite_rationals_render_as_strings(self, capsys, argv):
        # the builders hand on Fractions and the renderer formats them, so a
        # field that became an int would print as a JSON number here
        rational = re.compile(r"-?\d+(/\d+)?")
        code, out, _ = run_cli(capsys, *argv, "--seed", "5", "--count", "20")
        assert code == 0
        for rep in json.loads(out)["reports"]:
            keys = [k for k in rep if k in RATIONAL_FIELDS or k.endswith(("_lhs", "_rhs", "_slack"))]
            assert len(keys) >= 11
            for key in keys:
                assert isinstance(rep[key], str) and rational.fullmatch(rep[key]), key

    def test_degenerate_with_monomial_factor(self, capsys, poly_file):
        code, out, _ = run_cli(capsys, "degenerate", "--input", poly_file)
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["tangent_cone_initial"] == [[0, 4], [6, 2]]
        assert rep["length"] is None  # the ideal has a monomial factor, infinite length

    def test_degenerate_zero_dimensional(self, capsys, tmp_path):
        doc = {
            "vars": 2,
            "kind": "polynomial",
            "generators": [
                [{"coeff": "1", "exp": [6, 0]}],
                [{"coeff": "1", "exp": [0, 2]}, {"coeff": "1", "exp": [2, 1]}],
            ],
        }
        path = tmp_path / "prim.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "degenerate", "--input", str(path))
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["tangent_cone_initial"] == [[0, 2], [6, 0]]
        assert rep["length"] == {"l_orig": 12, "l_initial": 12, "equal": True}

    def test_mu_bound(self, capsys, poly_file):
        code, out, _ = run_cli(capsys, "mu-bound", "--input", poly_file, "--trials", "4")
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["mu_upper_bound"] == "3"
        assert any(t["mu"] == "3" for t in rep["trials"])

    def test_mu_bound_without_certified_trial_fails(self, capsys, tmp_path):
        # the curve x1^2 x2 + x1 x2^2 + x1^4 contains no maximal-ideal power
        path = tmp_path / "curve.json"
        terms = [{"coeff": "1", "exp": e} for e in ([2, 1], [1, 2], [4, 0])]
        path.write_text(json.dumps({"vars": 2, "kind": "polynomial", "generators": [terms]}))
        code, out, err = run_cli(capsys, "mu-bound", "--input", str(path), "--budget", "6", "--trials", "2")
        assert (code, out) == (2, "")
        assert err == "staircase mu-bound: no degeneration trial certified a zero-dimensional content-free part\n"

    def test_mu_bound_has_no_order_flag(self, capsys, poly_file):
        # mu-bound tries every built-in order, so an --order flag would do nothing
        code, _, err = run_cli(capsys, "mu-bound", "--input", poly_file, "--order", "lex")
        assert code == 2 and "--order" in err

    @pytest.mark.parametrize("command", ["lct", "degenerate"])
    def test_file_commands_have_no_seed_flag(self, capsys, poly_file, command):
        # only the corpus commands and mu-bound read a seed
        code, _, err = run_cli(capsys, command, "--seed", "1", "--input", poly_file)
        assert code == 2 and "--seed" in err

    def test_gen_corpus_feeds_verify(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen-corpus", "--seed", "11", "--count", "6", "--dim", "2")
        assert code == 0
        corpus = tmp_path / "corpus.json"
        corpus.write_text(out)
        assert len(parse_ideal_file(corpus)) == 6
        code, out, _ = run_cli(capsys, "verify", "--input", str(corpus))
        assert code == 0
        from_file = json.loads(out)["reports"]
        assert len(from_file) == 6
        # the same seed reproduces the same ideals through either path
        code, out, _ = run_cli(capsys, "verify", "--seed", "11", "--count", "6", "--dim", "2")
        assert code == 0
        assert json.loads(out)["reports"] == from_file

    def test_empty_corpus_holds_zero_ideals(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "gen-corpus", "--count", "0")
        assert code == 0
        corpus = tmp_path / "corpus.json"
        corpus.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--input", str(corpus))
        doc = json.loads(out)
        assert (code, doc["reports"], doc["failed"]) == (0, [], 0)
        code, out, err = run_cli(capsys, "degenerate", "--input", str(corpus))
        assert (code, out) == (2, "") and "needs a single ideal, got a corpus of 0" in err

    def test_gen_corpus_rejects_tsv(self, capsys):
        code, _, err = run_cli(capsys, "gen-corpus", "--count", "2", "--format", "tsv")
        assert code == 2 and "unrecognized arguments: --format" in err

    @pytest.mark.parametrize(
        "argv",
        [("codim2", "--dim", "3"), ("gen-corpus", "--input", "x.json"), ("gen-corpus", "--format", "json")],
        ids=" ".join,
    )
    def test_unread_flags_are_refused(self, capsys, argv):
        # codim2 corpora are two-variable; gen-corpus reads no file and writes JSON only
        code, out, err = run_cli(capsys, *argv, "--count", "1")
        assert (code, out) == (2, "") and f"unrecognized arguments: {' '.join(argv[1:])}" in err

    def test_codim2_echoes_only_its_corpus_flags(self, capsys):
        code, out, _ = run_cli(capsys, "codim2", "--seed", "3", "--count", "2")
        assert code == 0
        assert json.loads(out)["input"] == {"seed": 3, "count": 2, "max_exp": 10, "max_gens": 8}

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run_cli(capsys, "lct", "--input", str(bad))
        assert code == 2 and "invalid JSON" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"vars": 1, "kind": "polynomial", "generators": [[{"coeff": "7" * 5000, "exp": [1]}]]},  # past the digit limit
            {"vars": 1, "kind": "polynomial", "generators": [[{"coeff": "7" * 5000 + "/x", "exp": [1]}]]},
            {"vars": 1, "kind": "polynomial", "generators": [[{"coeff": "7" * 4000 + "/0", "exp": [1]}]]},
            {"vars": "v" * 300, "kind": "monomial", "generators": [[1]]},
            {"vars": 1, "kind": ["monomial"] * 50, "generators": [[1]]},
        ],
        ids=["long-coefficient", "malformed-coefficient", "zero-denominator", "vars-string", "kind-list"],
    )
    def test_parse_errors_do_not_echo_the_value(self, capsys, monkeypatch, tmp_path, doc):
        monkeypatch.chdir(tmp_path)  # the message names the relative path
        Path("doc.json").write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "degenerate", "--input", "doc.json")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "lct")
        assert code == 2 and "--input" in err

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_theorem_violation_exits_1(self, capsys, monkeypatch):
        # doctor a report so the checker sees a violation: exit 1 plus a
        # counterexample dump is the contract
        from staircase import verify_zero_dim as real_verify

        def doctored(J, *, fatal=True):
            report = real_verify(J, fatal=False)
            return dataclasses.replace(report, mult_diagonal_rhs=report.mult_diagonal_lhs + 1)

        monkeypatch.setattr("staircase.cli.verify_zero_dim", doctored)
        code, out, _ = run_cli(capsys, "verify", "--seed", "1", "--count", "3", "--dim", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["failed"] == 3
        assert all("mult_diagonal" in r["violations"] for r in doc["reports"])

    @pytest.mark.parametrize("command, check", [("verify", "verify_zero_dim"), ("codim2", "verify_codim2")])
    def test_suite_report_dumps_counterexample(self, capsys, monkeypatch, simple_file, command, check):
        # a fatal suite check hands its report, Fractions and all, to the dump
        from staircase import cli

        real_check = getattr(cli, check)

        def fatal(J, *, fatal=True):
            raise ConsistencyError("doctored failure", report=real_check(J, fatal=False))

        monkeypatch.setattr(cli, check, fatal)
        code, out, _ = run_cli(capsys, command, "--input", simple_file)
        assert code == 1
        doc = json.loads(out)
        assert doc["error"] == "doctored failure"
        assert doc["counterexample"]["mu"] == "3/2"
        assert doc["counterexample"]["ideal"] == {"n": 2, "gens": [[0, 2], [6, 0]]}

    def test_length_mismatch_dumps_counterexample(self, capsys, monkeypatch, tmp_path):
        # the boundary ideal x2^2 (x1^6, x2^2) has infinite length, so the
        # length check runs on the perturbed primitive part (x1^6, x2^2 + x1^2 x2)
        from staircase import degeneration

        real_colength = degeneration.colength
        monkeypatch.setattr(degeneration, "colength", lambda J: real_colength(J) + 1)
        path = tmp_path / "prim.json"
        path.write_text(json.dumps(POLY_DOC))
        code, out, _ = run_cli(capsys, "degenerate", "--input", str(path))
        assert code == 1
        doc = json.loads(out)
        assert doc["counterexample"] == {"l_orig": 12, "l_initial": 13, "equal": False}
        assert "degeneration changed the length" in doc["error"]


def test_python_dash_m_runs_the_cli(tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(BOUNDARY_DOC))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module in ("staircase", "staircase.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "lct", "--input", str(path)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["command"] == "lct" and doc["reports"][0]["mu"] == "3"


def test_cli_never_imports_numpy(tmp_path):
    # the package is pure Python; -X importtime lists every module a process imports
    path = tmp_path / "closure.json"
    path.write_text(json.dumps(CLOSURE_CORPUS))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["verify", "--count", "3"], ["closure", "--input", str(path)]):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "staircase", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
        assert "staircase.polytope" in imported
        assert not {m for m in imported if m.split(".")[0] == "numpy"}


class TestCliProcess:
    """Exit codes of main() for errors outside the library's own error types."""

    @pytest.mark.parametrize(
        "exc,line",
        [
            (MemoryError(), "out of memory"),
            (RuntimeError("boom\nsecond line"), "unexpected error: RuntimeError('boom\\nsecond line')"),
        ],
    )
    def test_unexpected_errors_exit_3_with_one_line(self, capsys, monkeypatch, exc, line):
        # exit 1 means a proved inequality failed, so other errors must not use it
        from staircase import cli

        def failing(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "verify", cli._COMMANDS["verify"]._replace(run=failing))
        code, out, err = run_cli(capsys, "verify", "--count", "1")
        assert (code, out, err) == (3, "", f"staircase verify: {line}\n")

    def test_resource_error_exits_2(self, capsys, monkeypatch, tmp_path):
        from staircase import ideals

        monkeypatch.setattr(ideals, "MAX_SCAN_BYTES", 10)
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]}))
        code, out, err = run_cli(capsys, "closure", "--input", str(path))
        assert code == 2 and out == "" and "budget" in err

    def test_codim2_equality_on_huge_exponents(self, capsys, tmp_path):
        # the closure box of (x1^a, x2^a) is over the scan budget; the polyhedra decide the equality case
        a = 2 * 10**6
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[a, 0], [0, a]]}))
        code, out, err = run_cli(capsys, "codim2", "--input", str(path))
        assert code == 0, err
        (report,) = json.loads(out)["reports"]
        assert (report["sharp_equality"], report["boundary_closure_ok"], report["violations"]) == (True, True, [])

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    def test_rational_past_the_digit_limit_exits_2(self, capsys, tmp_path, fmt):
        # the exponent prints, but the multiplicity a^2 has more digits than Python converts
        a = 10 ** (sys.get_int_max_str_digits() // 2 + 350)
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"vars": 2, "kind": "monomial", "generators": [[a, 0], [0, a]]}))
        code, out, err = run_cli(capsys, "mult", "--format", fmt, "--input", str(path))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("staircase mult: ") and "digits" in err

    def test_polytope_cache_does_not_keep_a_corpus_alive(self, capsys, tmp_path):
        from staircase.polytope import NewtonPolytope, build_polytope

        items = [{"vars": 2, "kind": "monomial", "generators": [[k + 2, 0], [0, 3], [1, 1]]} for k in range(40)]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps({"kind": "corpus", "items": items}))
        points = {tuple(sorted(tuple(g) for g in item["generators"])) for item in items}
        build_polytope.cache_clear()
        code, out, _ = run_cli(capsys, "verify", "--input", str(path))
        assert code == 0 and len(json.loads(out)["reports"]) == 40
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, NewtonPolytope) and o.points in points]
        assert 0 < len(alive) <= 32

    def test_mu_bound_on_a_huge_one_variable_exponent(self, tmp_path):
        # x^a + x^(a-1) = x^(a-1) (x + 1): the identity shears repeat the grevlex
        # base order, so nothing is expanded to the power a
        a = 9 * 10**4299
        terms = [{"coeff": "1", "exp": [a]}, {"coeff": "1", "exp": [a - 1]}]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vars": 1, "kind": "polynomial", "generators": [terms]}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "staircase", "mu-bound", "--input", str(path)],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["reports"][0]["mu_upper_bound"] == str(a - 1)

    def test_mu_bound_refuses_a_huge_shear(self, capsys, tmp_path):
        # a shear x2 -> x2 + c x1 would expand x2^(10^6) into 10^6 + 1 terms
        gens = [[{"coeff": "1", "exp": [2, 0]}], [{"coeff": "1", "exp": [0, 10**6]}]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"vars": 2, "kind": "polynomial", "generators": gens}))
        code, out, err = run_cli(capsys, "mu-bound", "--input", str(path))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("staircase mu-bound: ") and "more than the limit" in err

    @pytest.mark.parametrize("case", ["long exponent", "deep nesting", "long colength"])
    def test_python_limits_exit_2(self, capsys, tmp_path, case):
        # json.loads and int-to-text conversion stop at sys.get_int_max_str_digits()
        # digits, and json.loads at the recursion limit; none of these is a bug
        limit = sys.get_int_max_str_digits()
        a = 10 ** (limit // 2 + 350)  # parses, but a^2 has more than limit digits
        text = {
            "long exponent": '{"vars": 1, "kind": "monomial", "generators": [[%s]]}' % ("9" * (limit + 700)),
            "deep nesting": "[" * 200_000 + "]" * 200_000,
            "long colength": json.dumps({"vars": 2, "kind": "monomial", "generators": [[a, 0], [0, a]]}),
        }[case]
        path = tmp_path / "ideal.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "length", "--input", str(path))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith("staircase length: ") and "unexpected" not in err
        if case == "long colength":
            assert f"more than {limit} digits" in err


# sha256 of the JSON output, recorded before is_power_of_maximal stopped
# scanning the closure box and verify stopped computing the covolume twice
PINNED_DIGESTS = {
    ("verify", "--seed", "0", "--count", "40", "--dim", "2"): "3e4fd8df77da5b065d2ee66ed00eb9996e95285c82b69a22cb240ac5fa6ab7b3",
    ("verify", "--seed", "0", "--count", "40", "--dim", "3"): "25dc4c0af96d62a26a1839889b4a986311d541fdf4dd442c9482b68352f29f16",
    ("verify", "--seed", "0", "--count", "40", "--dim", "4"): "a9da633583ea27c206739d0d394107881bfbc1ac58666058af473df26b9f9d1f",
    ("closure", "--input", "closure.json"): "425c41e10d97632d66f382328a056c7f116c8823f2e8d8ab777def7bd5e926a3",
    # recorded before the mu-bound shears stopped searching their own N
    ("mu-bound", "--input", "worked.json"): "f69ff77663e3a9d3d071a0b2a8e64d462b0fdb774873cc49f1835a22f01f1a5d",
    ("mu-bound", "--seed", "3", "--input", "origin-a.json"): "672943c3228f099566f2f377d8ca11e0abe93c899e5ae3340b0591978eb0b191",
    ("degenerate", "--input", "origin-b.json"): "a77ed6310e6e3df15bf858eaf3b3c95a6260cb90f759e967ab0583f65c3fe023",
    ("degenerate", "--input", "origin-c.json"): "157ff32b9216a5c9a9065fc1424cfee80b6f1242aa65e5f17bffa2cd2ce8b158",
    # recorded before gen-corpus lost its unread --input and --format
    ("gen-corpus", "--seed", "3", "--count", "20", "--dim", "3", "--mixed"): "282ae7ddcf6d7c096d208bea737dacd4de3dc7df32801bb1f248ac96c20e2d59",
    # recorded before the TSV writer lost its Fraction branch, the report
    # bound triples got one builder and the shears one power expansion
    ("verify", "--seed", "0", "--count", "40", "--dim", "3", "--format", "tsv"): "98f37ed655f62448f7827dd716d83f43876798df41170559d90925a8e8e4ff8d",
    ("codim2", "--seed", "0", "--count", "40", "--format", "tsv"): "12d7456ce157fbc3a3f375860fad6a1f7389699075440cda2b596057abe54ad7",
    ("codim2", "--seed", "0", "--count", "40"): "283e4a3cadb2c338843e5e0da8c81a989d46cc3a6bfd1cd7f338a51dac5766f8",
    ("degenerate", "--format", "tsv", "--input", "poly.json"): "3ad05a33d38af0a4351b61a12ef1759533f358feb3e871e66e33618b4424caf9",
    ("mult", "--t-max", "3", "--input", "closure.json"): "86c7a49dd588e69dbc34f6659f4c0b3ecd1405cf99ca25a7b379d55f5b6943cc",
    ("degenerate", "--input", "monomial.json"): "b4dbae7c17eb21bb5459d0f614f4ba8b75c10e1b48bdc25332bfe13773fa033d",
    ("mu-bound", "--input", "monomial.json"): "afe13a020aafadbaaa74f51f671414965209a7d32194f4afd5dedf6a4224eacb",
    # recorded before the report builders stopped formatting rationals and
    # copying tuples, which render_json and render_tsv now do alone
    ("lct", "--input", "mixed.json"): "fa8dab22fdabc6deada4bfcc3b1c9c338d280ccac402776c1f607a067d1447c1",
    ("lct", "--format", "tsv", "--input", "mixed.json"): "ea86d833212825914947c42728f1310f41ae028ae4219fbadf61ffefea8bd282",
    ("polytope", "--input", "mixed.json"): "42f1003331298f82e450dc6c69d5bcc27c80e7045bfe31111e50843a6698d06a",
    ("polytope", "--format", "tsv", "--input", "mixed.json"): "2ca88149fbff334a7f405c0ea4b5131731d95598ef7342e1bd3c9c3a9d269296",
    ("lct", "--input", "closure.json"): "954d957a462a1754bbb8721535785172f618aa4bc9e16b4cbc8191b70dcb26f9",
    ("length", "--format", "tsv", "--input", "closure.json"): "680466dc34c07a59921102ddafef97539442eb4ea273ed85d8e2779eaafdbbd2",
    ("mult", "--input", "closure.json"): "69a42835c584c79018241ca481396db6ae1e467488bf07fcd5ca610b0f53970d",
    ("polytope", "--format", "tsv", "--input", "closure.json"): "15bf9ee3fe1c6ef46729f62d78ad9278dd8432113fa8ee84eb962d47946a737a",
    ("closure", "--format", "tsv", "--input", "closure.json"): "2a6763b1c8fbd7db5987d935e7bbd5edfcfddf2335ac868e104298916a5a7c4c",
    ("mu-bound", "--format", "tsv", "--input", "worked.json"): "41f7bc53433e667a8c0fe35e8d79295d01d1cf6da112dcf4fcbbc291ba4d21dd",
}
CLOSURE_CORPUS = {
    "kind": "corpus",
    "items": [
        {"vars": 2, "kind": "monomial", "generators": [[4, 0], [0, 4]]},
        {"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]},
        {"vars": 3, "kind": "monomial", "generators": [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]]},
        {"vars": 3, "kind": "monomial", "generators": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 0]]},
    ],
}

WORKED_DOC = {  # x2^2 (x1^6, x2^2 + x1^2 x2)
    "vars": 2,
    "kind": "polynomial",
    "generators": [
        [{"coeff": "1", "exp": [6, 2]}],
        [{"coeff": "1", "exp": [0, 4]}, {"coeff": "1", "exp": [2, 3]}],
    ],
}
PINNED_INPUTS = {
    "closure.json": CLOSURE_CORPUS,
    "worked.json": WORKED_DOC,
    "origin-a.json": ideal_to_document(random_origin_ideal(mix(4242, 1), 3)),
    "origin-b.json": ideal_to_document(random_origin_ideal(mix(515, 3), 3)),
    "origin-c.json": ideal_to_document(random_origin_ideal(mix(4242, 2), 2)),
    "poly.json": POLY_DOC,
    "monomial.json": {"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]},  # PolyIdeal.from_monomial in degenerate and mu-bound
    "mixed.json": {  # the unit ideal (mu 0, no lct), a principal ideal (no intercepts) and a bounded facet
        "kind": "corpus",
        "items": [
            {"vars": 2, "kind": "monomial", "generators": [[0, 0]]},
            {"vars": 2, "kind": "monomial", "generators": [[2, 3]]},
            {"vars": 2, "kind": "monomial", "generators": [[6, 0], [0, 2]]},
        ],
    },
}


# sha256 of `--help` at 80 columns.  The top level, verify and mu-bound are
# the bytes from before the shared flags moved into parent parsers; the six
# file commands differ from those only by the dropped --seed, codim2 by the
# dropped --dim and gen-corpus by the dropped --input and --format.
PINNED_HELP = {
    "": "7b27cfc4c15dcbc0c6c65360232891e298daf40429a0a5c8556c83c86d462a2e",
    "lct": "8f2739f3620e40f4c91a7ac67426bbfde353b52e1dbf686f4bbd24b5ee29e0c6",
    "length": "ab15dadd347cc70637da204895b55e9a2239521743f8a0cc1ef578938133fd26",
    "mult": "65937f50b33acdcc137389b2f34c4c56f14c60a12c4d479e1e052f55dce82fed",
    "polytope": "ac3eb32bccbe6013a25008a04843b48260e601cd5e8eb32f112953bc04c0a1a6",
    "closure": "5a3c53af44853d4609b84351cec752683f571ba74c516619d2860d317e0d2076",
    "verify": "90ed8fb829fb34cfb2c4555b4df5e150bed0ff79a61d9348f3ee67f31e4c8cfa",
    "codim2": "7681ce4fb1f3026e4f5a74002340bf57651f8f268a90ee84bf02b81ec44b3095",
    "degenerate": "157ed6247256e5affa8b7be6c7146915540de58485428bd33c2d96ffccf17dde",
    "mu-bound": "d60aa617c4e499743a61083f12b9537fd9896d2d02234cffd9fb8731861f72b4",
    "gen-corpus": "a82d186c8c713da4d47079a6d97fe3468138b51a4a0715d7f10f7659452f10a9",
}


# every option string each command accepts besides -h; unlike the help
# digests this holds on any Python version
COMMAND_FLAGS = {
    "lct": "--input --format",
    "length": "--input --format",
    "mult": "--input --format --t-max",
    "polytope": "--input --format",
    "closure": "--input --format",
    "verify": "--input --format --seed --count --dim --max-exp --max-gens",
    "codim2": "--input --format --seed --count --max-exp --max-gens",
    "degenerate": "--input --format --order --budget",
    "mu-bound": "--input --format --seed --budget --trials",
    "gen-corpus": "--seed --count --dim --max-exp --max-gens --mixed",
}


def test_each_command_takes_exactly_its_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: " ".join(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
        for name, p in sub.choices.items()
    }
    assert flags == COMMAND_FLAGS


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--count", "-3"),
        ("codim2", "--count", "-1"),
        ("mu-bound", "--trials", "-2"),
        ("mult", "--t-max", "-3"),
        ("degenerate", "--budget", "-1"),
        ("degenerate", "--budget", "1"),  # the N search starts at 2
        ("mu-bound", "--budget", "1"),
    ],
    ids=" ".join,
)
def test_numeric_flags_refuse_values_below_their_domain(capsys, argv):
    command, flag, _ = argv
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: staircase {command} ")
    assert f"staircase {command}: error: argument {flag}: must be at least {2 if flag == '--budget' else 0}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--dim", "0", "--count", "0"),
        ("verify", "--dim", "0", "--count", "1"),
        ("gen-corpus", "--dim", "-1", "--count", "1"),
        ("verify", "--max-exp", "0", "--count", "1"),
        ("codim2", "--max-exp", "-5", "--count", "0"),
        ("codim2", "--max-gens", "0", "--count", "1"),
        ("gen-corpus", "--max-gens", "0", "--count", "0"),
    ],
    ids=" ".join,
)
def test_corpus_shape_flags_refuse_values_below_1(capsys, argv):
    command, flag = argv[:2]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: staircase {command} ")
    assert f"staircase {command}: error: argument {flag}: must be at least 1" in err


def test_corpus_shape_flags_accept_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dim", "1", "--max-exp", "1", "--max-gens", "1", "--count", "1")
    assert code == 0 and len(json.loads(out)["reports"]) == 1


@pytest.mark.parametrize("command, flag", [("verify", "--count"), ("mu-bound", "--trials"), ("mult", "--t-max"), ("degenerate", "--budget")])
def test_numeric_flags_keep_the_int_message(capsys, command, flag):
    code, _, err = run_cli(capsys, command, flag, "x")
    assert code == 2 and f"argument {flag}: invalid int value: 'x'" in err


def test_numeric_flag_bounds_are_inclusive(capsys):
    code, out, _ = run_cli(capsys, "verify", "--count", "0")
    assert code == 0 and json.loads(out)["reports"] == []


# main builds the whole tree only when argv does not start with a command
# name; on every path it must print what the whole tree prints
PARSE_PATHS = [
    (),
    ("bogus",),
    ("--version",),
    ("-h",),
    ("verify", "--version"),
    ("verify", "--bogus"),
    ("verify", "--inp", "x"),  # a prefix of --input
    ("verify", "-h"),
    ("degenerate", "--order", "bad"),
    ("mu-bound", "--budget", "1"),
    ("gen-corpus", "--input", "x"),
]


@pytest.mark.parametrize("argv", PARSE_PATHS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_the_whole_tree(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    try:
        expected, code = build_parser().parse_args(list(argv)), None
    except SystemExit as exc:
        expected, code = None, exc.code
    whole = capsys.readouterr()
    parsed = []
    real = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsed.append(real(self, *args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    main_code = main(list(argv))
    out = capsys.readouterr()
    if expected is None:
        assert (main_code, out.out, out.err, parsed) == (code, whole.out, whole.err, [])
    else:  # the parse succeeded and main went on to run the command
        assert parsed == [expected]


def test_command_errors_name_the_command_argument(capsys):
    code, _, err = run_cli(capsys, "bogus")
    last = err.splitlines()[-1]
    assert code == 2 and last.startswith("staircase: error: argument command: invalid choice: 'bogus' (choose from ")
    assert all(name in last for name in COMMAND_FLAGS) and last.endswith(")")
    code, _, err = run_cli(capsys)
    assert code == 2 and err.splitlines()[-1] == "staircase: error: the following arguments are required: command"


@pytest.mark.parametrize("argv, limit", [(("verify", "--count", "0"), 7), (("degenerate", "--input", "poly.json"), 3)], ids=["verify", "degenerate"])
def test_a_command_builds_only_its_own_parsers(capsys, monkeypatch, tmp_path, argv, limit):
    # the whole tree is 16 parsers: the top one, ten commands and five flag groups
    monkeypatch.chdir(tmp_path)
    Path("poly.json").write_text(json.dumps(POLY_DOC))
    calls = []
    real = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(calls) <= limit


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's help layout was recorded under Python 3.11")
@pytest.mark.parametrize("command", list(PINNED_HELP), ids=lambda c: c or "top")
def test_help_bytes_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, _ = run_cli(capsys, *filter(None, [command]), "--help")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP[command]


@pytest.mark.parametrize("argv", list(PINNED_DIGESTS), ids=" ".join)
def test_output_bytes_pinned(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # reports echo their relative input path
    for name, doc in PINNED_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]
