"""Tests for the command line front end."""

import decimal
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import ncdiff
from ncdiff import cli
from ncdiff.cli import main
from ncdiff.models import model_source, run_suite

BROKEN_OVERLAP = """model "broken";
param q;
gen x, y, z;
rel y*x = 2*x*y;
rel z*y = y*z;
rel z*x = x*z + 1;
"""

NO_LATE_STATEMENT = """model "tiny";
param q;
gen x, y;
rel y*x = q*x*y;
"""

NO_CALCULUS = """model "bare";
gen x, y;
rel y*x = x*y;
"""

NO_WEDGE_RULES = """model "m";
param q, r;
gen x, y;
invertible x, y;
rel x*y = q*y*x;
auto phi1 { x -> x/r; y -> y/r; }
auto phi2 { x -> x; y -> y/r; }
calc {
  theta t1, t2;
  twist t1 = phi1;
  twist t2 = phi2;
  weight t1 = 1;
  weight t2 = 1;
}
"""

ZERO_PRODUCT = """model "m";
param q;
gen x, y;
rel y*x = 0;
auto id { x -> x; y -> y; }
calc {
  theta t1, t2;
  twist t1 = id;
  twist t2 = id;
  weight t1 = 1;
  weight t2 = 1;
}
"""

ELEMENT_RELATIONS = [
    "x * dx = r * dx * x",
    "x * dy = (r - 1) * dx * y + q * dy * x",
    "y * dx = q^-1*r * dx * y",
    "y * dy = r * dy * y",
]

FORM_RELATIONS = [
    "dx * x = r^-1 * x * dx",
    "dy * x = -(1 - r^-1) * y * dx + q^-1 * x * dy",
    "dx * y = q*r^-1 * y * dx",
    "dy * y = r^-1 * y * dy",
]

LATEX_RELATIONS = [
    "\\mathit{x} \\cdot \\mathit{dx} = r \\, \\mathit{dx} \\cdot \\mathit{x}",
    "\\mathit{x} \\cdot \\mathit{dy} = \\left(r - 1\\right) \\mathit{dx} "
    "\\cdot \\mathit{y} + q \\, \\mathit{dy} \\cdot \\mathit{x}",
    "\\mathit{y} \\cdot \\mathit{dx} = q^{-1} r \\, \\mathit{dx} \\cdot "
    "\\mathit{y}",
    "\\mathit{y} \\cdot \\mathit{dy} = r \\, \\mathit{dy} \\cdot \\mathit{y}",
]

TORUS_RELATION_ARGS = ["--forms", "dx,dy", "--elements", "x,y"]


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(autouse=True)
def clean_seed(monkeypatch):
    monkeypatch.delenv("NCDIFF_SEED", raising=False)


@pytest.fixture()
def broken_path(tmp_path):
    path = tmp_path / "broken.ncd"
    path.write_text(BROKEN_OVERLAP)
    return str(path)


class TestNf:
    def test_plain(self, capsys):
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", "y*x"])
        assert rc == 0
        assert out == "q^-1 * x*y\n"
        assert err == ""

    def test_coefficient_expression(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "1/(1 - r)"])
        assert rc == 0
        assert out == "-1/(r - 1)\n"

    def test_inner_form(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "inner()"])
        assert rc == 0
        assert out == "t1 + t2\n"

    def test_closed_basis(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "d(t1)"])
        assert rc == 0
        assert out == "0\n"

    @pytest.mark.parametrize("expr, value", [
        ("t1 - 2 - x", "-2 - x + t1"),
        ("d(y) - 2 - x^-1",
         "-2 - x^-1 - (1 - r^-1) * y * t1 - (1 - r^-1) * y * t2"),
        ("t1 - x", "-x + t1"),
    ])
    def test_grade_zero_part_keeps_every_sign(self, capsys, expr, value):
        # A grade-0 part of several terms that starts with a minus prints
        # each term with its own sign, as the element itself prints.
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", expr])
        assert rc == 0
        assert out == value + "\n"

    def test_latex(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "d(x*y)", "--format", "latex"])
        assert rc == 0
        assert out == ("\\left(-1 + r^{-2}\\right) x y \\, \\theta^{1}"
                       " + \\left(-1 + r^{-1}\\right) x y \\, \\theta^{2}\n")

    @pytest.mark.parametrize("expr,value", [
        ("t1 - t2", "\\theta^{1} - \\theta^{2}"),
        ("-t1", "-\\theta^{1}"),
        ("2 - t2", "2 - \\theta^{2}"),
    ])
    def test_latex_minus_one_form_coefficient(self, capsys, expr, value):
        # A form coefficient of exactly -1 is a bare minus sign, as it is in
        # plain text and in the LaTeX of an element.
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "--expr=" + expr, "--format", "latex"])
        assert rc == 0
        assert out == value + "\n"

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "y*x", "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload == {"input": "y*x", "value": "q^-1 * x*y",
                           "latex": "q^{-1} \\, x y"}

    def test_unknown_name(self, capsys):
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", "nonesuch"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")
        assert "nonesuch" in err

    def test_syntax_error(self, capsys):
        rc, _, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "x +"])
        assert rc == 2
        assert err.startswith("error:")

    def test_superscript_digit(self, capsys):
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", "x*\u00b2"])
        assert (rc, out) == (2, "")
        assert err == ("error: line 1, column 3: "
                       "unexpected character '\u00b2'\n")

    def test_unknown_builtin(self, capsys):
        rc, _, err = run_cli(capsys, ["nf", "builtin:nonesuch", "-e", "1"])
        assert rc == 2
        assert "unknown builtin" in err
        assert "quantum-torus" in err
        assert err == ("error: unknown builtin 'nonesuch'; available: "
                       "gl-pq2, gl-pq2-localized, quantum-torus\n")

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, ["nf", str(tmp_path / "absent.ncd"),
                                      "-e", "1"])
        assert rc == 2
        assert "cannot read" in err

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.ncd"
        path.write_bytes(b'model "m";\nparam q;\ngen x\xff;\n')
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", "x"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot read %s: 'utf-8' codec can't "
                              "decode byte 0xff" % path)
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("tail", ["", "let z = x;\n"],
                             ids=["bare", "with-let"])
    def test_generators_known_without_late_statement(self, capsys, tmp_path,
                                                     tail):
        path = tmp_path / "tiny.ncd"
        path.write_text(NO_LATE_STATEMENT + tail)
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", "y*x"])
        assert (rc, out, err) == (0, "q * x*y\n", "")

    def test_missing_wedge_rule(self, capsys, tmp_path):
        path = tmp_path / "nowedge.ncd"
        path.write_text(NO_WEDGE_RULES)
        for expr, col in (("x + d(t1)", 5), ("x + t1*t1", 7)):
            rc, out, err = run_cli(capsys, ["nf", str(path), "-e", expr])
            assert (rc, out, err) == (
                2, "", "error: line 1, column %d: no rule for t1*t1\n" % col)

    def test_vanishing_wedge_needs_no_rule(self, capsys, tmp_path):
        """A wedge whose coefficient is zero in the algebra is dropped
        before its basis pair is looked up."""
        path = tmp_path / "zero.ncd"
        path.write_text(ZERO_PRODUCT)
        rc, out, err = run_cli(capsys, ["nf", str(path),
                                        "-e", "(y*t2)*(x*t1)"])
        assert (rc, out, err) == (0, "0\n", "")
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", "t2*t1"])
        assert (rc, out, err) == (
            2, "", "error: line 1, column 3: no rule for t2*t1\n")

    def test_wedge_rule_that_does_not_decrease(self, capsys, tmp_path):
        path = tmp_path / "ascending.ncd"
        path.write_text(_torus_with("wedge t1*t1 = 0;",
                                    "wedge t1*t1 = t1*t2;"))
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", "x"])
        assert (rc, out, err) == (
            2, "", "error: line 26, column 1: rule t1*t1 does not decrease "
            "the pair order\n")

    def test_model_from_file(self, capsys, tmp_path):
        path = tmp_path / "torus.ncd"
        path.write_text(model_source("quantum-torus"))
        rc, out, _ = run_cli(capsys, ["nf", str(path), "-e", "y*x"])
        assert rc == 0
        assert out == "q^-1 * x*y\n"

    @pytest.mark.parametrize("expr,message", [
        ("d(x)", "d(...) needs a calc block"),
        ("inner()", "inner() needs a calc block"),
    ])
    def test_form_without_calculus(self, capsys, tmp_path, expr, message):
        path = tmp_path / "bare.ncd"
        path.write_text(NO_CALCULUS)
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", expr])
        assert (rc, out, err) == (2, "", "error: line 1, column 1: %s\n"
                                  % message)

    def test_latex_named_basis_label(self, capsys, tmp_path):
        """A basis label that is not t<digits> is spelled upright."""
        path = tmp_path / "named.ncd"
        path.write_text(re.sub(r"\bt1\b", "u", model_source("quantum-torus")))
        rc, out, _ = run_cli(capsys, ["nf", str(path), "-e", "x*u - 2*t2*u",
                                      "--format", "latex"])
        assert (rc, out) == (0, "x \\, \\theta^{\\mathrm{u}} + 2 \\, "
                                "\\theta^{\\mathrm{u}} \\wedge \\theta^{2}\n")

    @pytest.mark.parametrize("exponent", ["100000000000", "9" * 40])
    def test_huge_power_over_a_divisor_without_real_roots(self, exponent):
        """q^2 + 1 has no root at +-1 but vanishes at q = i, where
        q^N + 1 does not unless N is 2 mod 4, and q^2 + q + 1 vanishes at
        a primitive cube root of unity, where q^N + 1 never does: each
        quotient is refuted at once rather than divided one step per
        degree of q^N."""
        src = str(pathlib.Path(ncdiff.__file__).parents[1])
        for divisor in ("q^2 + 1", "q^2 + q + 1"):
            expr = "(q^%s + 1)/(%s)" % (exponent, divisor)
            proc = subprocess.run(
                [sys.executable, "-m", "ncdiff", "nf",
                 "builtin:quantum-torus", "-e", expr], capture_output=True,
                text=True, timeout=10, env=dict(os.environ, PYTHONPATH=src))
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                0, expr + "\n", "")


def _digits(n: int) -> str:
    """The decimal text of n through the decimal module, which has no
    limit on the digits it prints."""
    with decimal.localcontext() as ctx:
        ctx.prec = 10000
        return str(decimal.Decimal(n))


class TestLongIntegers:
    """Coefficients and exponents print and parse at any size, past the
    digits str() and int() take; the interpreter-wide limit is untouched."""

    BIG = _digits(2 ** 15000)

    def test_plain(self, capsys):
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", "2^15000*x"])
        assert (rc, out, err) == (0, self.BIG + " * x\n", "")

    def test_latex(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "x/3^3000 + 2^15000*x*y",
                                      "--format", "latex"])
        assert rc == 0
        assert out == "\\frac{1}{%s} \\, x + %s \\, x y\n" % (
            _digits(3 ** 3000), self.BIG)

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", "2^15000*x", "--format", "json"])
        assert rc == 0
        assert json.loads(out) == {"input": "2^15000*x",
                                   "value": self.BIG + " * x",
                                   "latex": self.BIG + " \\, x"}

    def test_long_literal_round_trip(self, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        literal = "7" * 5000
        rc, out, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                      "-e", literal + "*x*q^" + literal])
        assert (rc, out) == (0, "%s*q^%s * x\n" % (literal, literal))
        rc, again, _ = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", out.strip()])
        assert (rc, again) == (0, out)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() \
            == limit

    @pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
    def test_huge_power_prints(self, capsys, fmt):
        # Sorting terms for printing must not expand a run letter by letter.
        power = "1" + "0" * 5000
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", "x^%s - y^2" % power,
                                        "--format", fmt])
        assert (rc, err) == (0, "")
        if fmt == "plain":
            assert out == "-y^2 + x^%s\n" % power
        else:
            assert power in out


def _torus_with(old, new):
    text = model_source("quantum-torus")
    assert text.count(old) == 1
    return text.replace(old, new)


class TestDeepAndLongExpressions:
    """Long flat chains evaluate; nesting past the bound is one error line,
    never a RecursionError."""

    @pytest.mark.parametrize("expr, value", [
        (" + ".join(["x"] * 500), "500 * x"),
        ("*".join(["x"] * 500), "x^500"),
        ("(" * 100 + "x" + ")" * 100, "x"),
    ], ids=["sum-500", "product-500", "parens-100"])
    def test_evaluates(self, capsys, expr, value):
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus",
                                        "-e", expr])
        assert (rc, out, err) == (0, value + "\n", "")

    @pytest.mark.parametrize("argv", [
        ["-e", "(" * 101 + "x" + ")" * 101],
        ["-e", "(" * 200 + "x" + ")" * 200],
        ["-e=" + "-" * 3000 + "x"],
    ], ids=["parens-101", "parens-200", "minus-3000"])
    def test_nesting_past_the_bound(self, capsys, argv):
        rc, out, err = run_cli(capsys, ["nf", "builtin:quantum-torus"]
                               + argv)
        assert (rc, out) == (2, "")
        assert err == ("error: line 1, column 101: expression nests deeper "
                       "than 100 levels\n")

    def test_nested_let_in_a_model_file(self, capsys, tmp_path):
        path = tmp_path / "deep.ncd"
        path.write_text(model_source("quantum-torus")
                        + "let deep = %sx%s;\n" % ("(" * 400, ")" * 400))
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", "x"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: line 65, column ")
        assert err.endswith(": expression nests deeper than 100 levels\n")


class TestUnsupportedRelations:
    """The leading word of a relation is reported as model text."""

    @pytest.mark.parametrize("power", ["3", "1" + "0" * 5000],
                             ids=["cube", "huge"])
    def test_power_as_leading_word(self, capsys, tmp_path, power):
        path = tmp_path / "power.ncd"
        path.write_text(_torus_with("rel x*y = q*y*x;",
                                    "rel x^%s = q*y;" % power))
        rc, out, err = run_cli(capsys, ["nf", str(path), "-e", "x"])
        assert (rc, out) == (2, "")
        assert err == ("error: line 14, column 1: leading word x^%s is not "
                       "two letters long\n" % power)


class TestVerify:
    def test_plain(self, capsys):
        rc, out, err = run_cli(capsys, ["verify", "builtin:quantum-torus"])
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 31
        assert lines[0] == "pass relations"
        assert lines[-1] == "model quantum-torus: 30 passed, 0 failed"
        assert all(line.startswith("pass ") for line in lines[:-1])

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "builtin:quantum-torus",
                                      "--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["model"] == "quantum-torus"
        assert payload["seed"] == 0
        assert payload["passed"] == 30
        assert payload["failed"] == 0
        assert len(payload["checks"]) == 30
        assert all(c["status"] == "pass" for c in payload["checks"])
        assert all("witness" not in c for c in payload["checks"])

    def test_seed_flag(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "builtin:quantum-torus",
                                      "--seed", "5", "--format", "json"])
        assert rc == 0
        assert json.loads(out)["seed"] == 5

    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NCDIFF_SEED", "9")
        rc, out, _ = run_cli(capsys, ["verify", "builtin:quantum-torus",
                                      "--format", "json"])
        assert rc == 0
        assert json.loads(out)["seed"] == 9

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NCDIFF_SEED", "9")
        rc, out, _ = run_cli(capsys, ["verify", "builtin:quantum-torus",
                                      "--seed", "3", "--format", "json"])
        assert rc == 0
        assert json.loads(out)["seed"] == 3

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NCDIFF_SEED", "abc")
        rc, _, err = run_cli(capsys, ["verify", "builtin:quantum-torus"])
        assert rc == 2
        assert "NCDIFF_SEED must be an integer" in err

    def test_failing_check(self, capsys, tmp_path):
        path = tmp_path / "claims.ncd"
        path.write_text(model_source("quantum-torus")
                        + '\ncheck "wrong": x*y == y*x;\n')
        rc, out, _ = run_cli(capsys, ["verify", str(path)])
        assert rc == 1
        lines = out.splitlines()
        assert "fail check/wrong" in lines
        marker = lines.index("fail check/wrong")
        assert lines[marker + 1].startswith("     witness: ")
        # a file-loaded model runs without the builder extras, so the
        # torsion and derived-relation checks of the builtin are absent
        assert lines[-1] == "model quantum-torus: 24 passed, 1 failed"

    def test_failing_json_witnesses(self, capsys, tmp_path):
        """Without its r = p*q substitution gl-pq2 fails 26 checks: the
        JSON record of each carries the witness the plain text prints, and
        the six automorphism failures carry none."""
        path = tmp_path / "rfree.ncd"
        path.write_text(model_source("gl-pq2").replace("subst r = p*q;", ""))
        rc, out, _ = run_cli(capsys, ["verify", str(path)])
        assert rc == 1
        plain = {}
        lines = out.splitlines()
        for line, after in zip(lines, lines[1:] + [""]):
            if line.startswith("fail "):
                plain[line[5:]] = (after[len("     witness: "):]
                                   if after.startswith("     witness: ")
                                   else None)
        rc, out, _ = run_cli(capsys, ["verify", str(path), "--format", "json"])
        assert rc == 1
        failed = [c for c in json.loads(out)["checks"]
                  if c["status"] == "fail"]
        assert {c["anchor"]: c.get("witness") for c in failed} == plain
        assert len(failed) == 26
        bare = [c["anchor"] for c in failed if "witness" not in c]
        assert len(bare) == 6
        assert all(a.startswith("automorphism/") for a in bare)

    def test_missing_wedge_rule(self, capsys, tmp_path):
        path = tmp_path / "nowedge.ncd"
        path.write_text(NO_WEDGE_RULES)
        rc, out, err = run_cli(capsys, ["verify", str(path)])
        assert (rc, out, err) == (1, "", "error: no rule for t1*t1\n")

    def test_missing_extension_is_recorded(self, capsys, tmp_path):
        """Without its phi2 extension block the torus fails only the
        extension check of t2, with the reason as its witness."""
        path = tmp_path / "noext.ncd"
        path.write_text(_torus_with("extension phi2 {\n  t1 -> t1;\n"
                                    "  t2 -> t2;\n}\n\n", ""))
        rc, out, err = run_cli(capsys, ["verify", str(path)])
        assert (rc, err) == (1, "")
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("fail")] == [
            "fail extension/t2"]
        marker = lines.index("fail extension/t2")
        assert lines[marker + 1] == ("     witness: no extension for the "
                                     "twist of 't2'")
        assert lines[-1] == "model quantum-torus: 21 passed, 1 failed"

    def test_engine_key_error_is_not_a_usage_error(self, monkeypatch):
        """A KeyError from inside the engine is a bug, not a usage error: it
        leaves main instead of printing as one error line."""
        def broken(*args, **kwargs):
            raise KeyError("boom")
        monkeypatch.setattr(cli, "run_suite", broken)
        with pytest.raises(KeyError, match="boom"):
            main(["verify", "builtin:quantum-torus"])

    def test_samples_flag(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "builtin:quantum-torus",
                                      "--samples", "2", "--format", "json"])
        assert rc == 0
        assert json.loads(out)["failed"] == 0

    @pytest.mark.parametrize("value", ["-3", "-1"])
    def test_negative_samples_rejected(self, capsys, tmp_path, value):
        """A negative count would sample no pairs, and gl-pq2 without its
        r = p*q substitution would then pass laws its twists break."""
        path = tmp_path / "rfree.ncd"
        path.write_text(model_source("gl-pq2").replace("subst r = p*q;", ""))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path), "--samples", value])
        out, err = capsys.readouterr()
        assert exc.value.code == 2
        assert out == ""
        assert err.startswith("usage: ncdiff verify")
        assert ("error: argument --samples: must be 0 or more, not %s\n"
                % value) in err

    def test_non_integer_samples_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "builtin:quantum-torus", "--samples", "abc"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "error: argument --samples: invalid int value: 'abc'\n" in err

    def test_run_suite_refuses_negative_samples(self, torus):
        with pytest.raises(ValueError):
            run_suite(torus, samples=-1)

    def test_swap_twist_fails_its_metric_check(self, capsys, tmp_path):
        """A swap has no derived inverse, so metric transport cannot run;
        the metric check fails with the reason instead of a traceback."""
        path = tmp_path / "swap.ncd"
        path.write_text(_torus_with("  x -> x;\n  y -> r^-1*y;",
                                    "  x -> y;\n  y -> x;"))
        rc, out, err = run_cli(capsys, ["verify", str(path)])
        assert (rc, err) == (1, "")
        lines = out.splitlines()
        marker = lines.index("fail metric/gsym/triv")
        assert lines[marker + 1] == ("     witness: cannot derive the inverse "
                                     "of a non-diagonal endomorphism")
        assert lines[-1] == "model quantum-torus: 16 passed, 7 failed"

    def test_non_diagonal_automorphism_fails_its_inverse_check(
            self, capsys, tmp_path):
        """A swap that respects the relations has no derived inverse; its
        inverse check fails with the reason instead of a traceback."""
        path = tmp_path / "swap.ncd"
        path.write_text("param q;\ngen x, y;\nrel y*x = x*y;\n"
                        "auto swap { x -> y; y -> x; }\n")
        rc, out, err = run_cli(capsys, ["verify", str(path)])
        assert (rc, err) == (1, "")
        lines = out.splitlines()
        marker = lines.index("fail automorphism/swap/inverse")
        assert lines[marker + 1] == ("     witness: cannot derive the inverse "
                                     "of a non-diagonal endomorphism")
        assert lines[-1] == "model model: 3 passed, 1 failed"

    def test_extensions_declared_after_a_connection(self, capsys, tmp_path):
        """Statement order after the calc block does not matter: every
        extension reaches the geometry, even one declared after the
        connection that uses it."""
        text = model_source("quantum-torus")
        start = text.index("connection triv {")
        end = text.index("}\n", start) + 2
        block = text[start:end]
        reordered = text[:start] + text[end:]
        first = reordered.index("extension phi1 {")
        reordered = reordered[:first] + block + "\n" + reordered[first:]
        assert reordered.index("connection") < reordered.index("extension")
        shipped = tmp_path / "shipped.ncd"
        shipped.write_text(text)
        moved = tmp_path / "moved.ncd"
        moved.write_text(reordered)
        expected = run_cli(capsys, ["verify", str(shipped)])
        assert expected[1].endswith("model quantum-torus: 24 passed, "
                                    "0 failed\n")
        assert run_cli(capsys, ["verify", str(moved)]) == expected


class TestRelations:
    def test_element_first(self, capsys):
        rc, out, _ = run_cli(capsys, ["relations", "builtin:quantum-torus"]
                             + TORUS_RELATION_ARGS)
        assert rc == 0
        assert out.splitlines() == ELEMENT_RELATIONS

    def test_form_first(self, capsys):
        rc, out, _ = run_cli(capsys, ["relations", "builtin:quantum-torus"]
                             + TORUS_RELATION_ARGS + ["--side", "form"])
        assert rc == 0
        assert out.splitlines() == FORM_RELATIONS

    def test_latex(self, capsys):
        rc, out, _ = run_cli(capsys, ["relations", "builtin:quantum-torus"]
                             + TORUS_RELATION_ARGS + ["--format", "latex"])
        assert rc == 0
        assert out.splitlines() == LATEX_RELATIONS

    def test_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["relations", "builtin:quantum-torus"]
                             + TORUS_RELATION_ARGS + ["--format", "json"])
        assert rc == 0
        payload = json.loads(out)
        assert len(payload) == 4
        assert payload[0] == {
            "left": ["x", "dx"],
            "terms": [{"coefficient": "r", "factors": ["dx", "x"]}]}
        assert payload[1]["terms"][0]["coefficient"] == "r - 1"

    def test_not_a_form(self, capsys):
        rc, _, err = run_cli(capsys, ["relations", "builtin:quantum-torus",
                                      "--forms", "x", "--elements", "y"])
        assert rc == 2
        assert "'x' is not a form" in err

    def test_unknown_element(self, capsys):
        rc, _, err = run_cli(capsys, ["relations", "builtin:quantum-torus",
                                      "--forms", "dx",
                                      "--elements", "nonesuch"])
        assert rc == 2
        assert "nonesuch" in err

    @pytest.mark.parametrize("forms, elements, message", [
        ("dx", "nonesuch", "model has no value named 'nonesuch'"),
        ("nonesuch", "x", "model has no value named 'nonesuch'"),
        ("x,nonesuch", "y", "'x' is not a form"),
        ("dx,nonesuch", "y", "model has no value named 'nonesuch'"),
    ])
    def test_lookup_errors(self, capsys, forms, elements, message):
        """Each form is looked up and checked in turn, then the elements;
        the first unknown name or non-form is one usage error line."""
        assert run_cli(capsys, ["relations", "builtin:quantum-torus",
                                "--forms", forms, "--elements", elements]
                       ) == (2, "", "error: %s\n" % message)

    def test_no_calculus(self, capsys, tmp_path):
        path = tmp_path / "bare.ncd"
        path.write_text(NO_CALCULUS)
        rc, _, err = run_cli(capsys, ["relations", str(path),
                                      "--forms", "dx", "--elements", "x"])
        assert rc == 2
        assert "no calculus block" in err

    def test_inexpressible(self, capsys, tmp_path):
        path = tmp_path / "shifted.ncd"
        path.write_text(model_source("quantum-torus")
                        + "\nlet s = x + 1;\n")
        rc, _, err = run_cli(capsys, ["relations", str(path),
                                      "--forms", "dx", "--elements", "s"])
        assert rc == 1
        assert err.startswith("error:")


class TestConfluence:
    def test_clean_model(self, capsys):
        rc, out, _ = run_cli(capsys, ["confluence", "builtin:gl-pq2"])
        assert rc == 0
        assert out == "model gl-pq2: all overlaps of its 17 rules close\n"

    def test_clean_json(self, capsys):
        rc, out, _ = run_cli(capsys, ["confluence", "builtin:quantum-torus",
                                      "--format", "json"])
        assert rc == 0
        assert json.loads(out) == {"model": "quantum-torus", "rules": 8,
                                   "violations": []}

    def test_broken_plain(self, capsys, broken_path):
        rc, out, _ = run_cli(capsys, ["confluence", broken_path])
        assert rc == 1
        assert out.splitlines() == [
            "overlap z*y*x: y + 2 * x*y*z != 2 * y + 2 * x*y*z",
            "model broken: 1 overlap failures"]

    def test_broken_json(self, capsys, broken_path):
        rc, out, _ = run_cli(capsys, ["confluence", broken_path,
                                      "--format", "json"])
        assert rc == 1
        assert json.loads(out) == {
            "model": "broken",
            "rules": 3,
            "violations": [{"word": "z*y*x",
                            "left": "y + 2 * x*y*z",
                            "right": "2 * y + 2 * x*y*z"}]}


class TestDeterminism:
    def test_verify_json_byte_identical(self, capsys):
        argv = ["verify", "builtin:quantum-torus", "--format", "json"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_relations_byte_identical(self, capsys):
        argv = ["relations", "builtin:quantum-torus"] + TORUS_RELATION_ARGS
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2


class TestArgumentErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_bad_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["nf", "builtin:quantum-torus", "-e", "x",
                  "--format", "html"])
        capsys.readouterr()


class TestConsoleScript:
    def test_entry_point(self):
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        section = pyproject.read_text().split("[project.scripts]\n", 1)[1]
        scripts = section.split("\n[")[0].splitlines()
        assert 'ncdiff = "ncdiff.cli:main"' in scripts
        exe = shutil.which("ncdiff")
        if exe:
            command, env = [exe], None
        else:
            # not installed: run the package from the import path in use
            src = str(pathlib.Path(ncdiff.__file__).parents[1])
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            command = [sys.executable, "-m", "ncdiff"]
        proc = subprocess.run(command + ["nf", "builtin:quantum-torus",
                                         "-e", "y*x"],
                              capture_output=True, text=True, timeout=120,
                              env=env)
        assert proc.returncode == 0
        assert proc.stdout == "q^-1 * x*y\n"
