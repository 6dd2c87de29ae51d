"""Tests of the benchmark's own parts: oracles, model generator, tracer.

    python3 -m pytest bench -q
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import pytest  # noqa: E402

from layertrace import LAYERS, Tracer  # noqa: E402
from oracle import (check_expand, check_torus, check_verify,  # noqa: E402
                    multinomial)
from workloads import (RFREE_FAILING, RFREE_PASSING, rank_n_text,  # noqa: E402
                       rfree_text, run_cli)


def test_multinomial_small_case():
    assert multinomial([("a", 1), ("b", 2)], 2) == {
        (("a", 2),): 1, (("a", 1), ("b", 1)): 4, (("b", 2),): 4}


def test_torus_oracle_accepts_engine_and_rejects_perturbed():
    expect = {"q": -6, "word": (("x", 3), ("y", 3))}
    code, text = run_cli(["nf", "builtin:quantum-torus", "-e", "(y*x)^3"])
    assert check_torus(code, text, expect) is None
    for wrong in ("q^-5 * x^3*y^3", "q^-6 * x^3*y^2", "q^-6 * y^3*x^3",
                  "q^-6*r * x^3*y^3", "q^-6 * x^3*y^3 + x", "2*q^-6 * x^3*y^3",
                  "q^-6 * x^3*y^3 *"):
        assert check_torus(0, wrong, expect) is not None, wrong
    assert check_torus(1, text, expect) is not None


def test_expand_oracle_accepts_engine_and_rejects_perturbed():
    expect = {"terms": [("a", 2), ("d", -1), ("b", 1)], "k": 3}
    code, text = run_cli(["nf", "builtin:gl-pq2", "-e", "(2*a - d + b)^3"])
    assert check_expand(code, text, expect) is None
    assert "p" in text  # the coefficients are not trivial
    rest = text.split(" + ", 1)[1]
    for wrong in (rest, text.replace("8 * a^3", "7 * a^3", 1),
                  text.rstrip("\n") + " + a*d"):
        assert wrong != text
        assert check_expand(code, wrong, expect) is not None, wrong
    assert check_expand(code, text, dict(expect, k=2)) is not None


def _flip(text, anchor, to):
    old = "fail" if to == "pass" else "pass"
    lines = [("%s %s" % (to, anchor)) if line == "%s %s" % (old, anchor)
             else line for line in text.splitlines()]
    passed = sum(line.startswith("pass ") for line in lines)
    failed = sum(line.startswith("fail ") for line in lines)
    name = lines[-1].split(":")[0]
    lines[-1] = "%s: %d passed, %d failed" % (name, passed, failed)
    return "\n".join(lines) + "\n"


def test_verify_oracle_on_a_passing_builtin():
    expect = {"failing": ()}
    code, text = run_cli(["verify", "builtin:quantum-torus"])
    assert check_verify(code, text, expect) is None
    flipped = _flip(text, "inner-form", "fail")
    assert flipped != text
    assert check_verify(1, flipped, expect) is not None
    assert check_verify(0, text.replace("30 passed", "29 passed"),
                        expect) is not None
    assert check_verify(1, text, expect) is not None
    assert check_verify(code, text, dict(expect, checks=31)) is not None


def test_verify_oracle_on_the_rfree_model(tmp_path):
    from ncdiff.models import model_source
    path = tmp_path / "rfree.ncd"
    path.write_text(rfree_text(model_source("gl-pq2")))
    expect = {"failing": tuple("automorphism/%s" % a for a in RFREE_FAILING),
              "passing": tuple("automorphism/%s" % a for a in RFREE_PASSING)}
    code, text = run_cli(["verify", str(path)])
    assert check_verify(code, text, expect) is None
    assert check_verify(0, text, expect) is not None
    fixed = _flip(text, "automorphism/phi1", "pass")
    assert check_verify(code, fixed, expect) is not None
    broken = _flip(text, "automorphism/phi4", "fail")
    assert check_verify(code, broken, expect) is not None


@pytest.mark.parametrize("n", [2, 3])
def test_rank_n_space_passes_its_whole_suite(n):
    from ncdiff.dsl import load_model
    from ncdiff.models import run_suite
    text = rank_n_text(n, seed=5)
    assert text == rank_n_text(n, seed=5)
    assert text != rank_n_text(n, seed=6)
    bundle = load_model(text)
    report = run_suite(bundle, seed=1, samples=4)
    assert report.failed == 0
    assert report.passed == 7 * n + 6
    assert len(bundle.params.names) == n * (n - 1) // 2 + 1


def test_tracer_self_times_add_up_and_uninstall_restores():
    from ncdiff import cli, coeff, models
    original_mul = coeff.RationalFunction.__mul__
    original_from_value = vars(coeff.RationalFunction)["from_value"]
    original_run_suite = cli.run_suite
    tracer = Tracer()
    tracer.install()
    try:
        assert coeff.RationalFunction.__mul__ is not original_mul
        assert cli.run_suite is models.run_suite
        assert cli.run_suite.__wrapped__ is original_run_suite
        code, text = tracer.run_op(
            lambda: run_cli(["nf", "builtin:quantum-torus", "-e", "(y*x)^4"]))
    finally:
        tracer.uninstall()
    assert coeff.RationalFunction.__mul__ is original_mul
    assert vars(coeff.RationalFunction)["from_value"] is original_from_value
    assert cli.run_suite is original_run_suite
    assert code == 0 and text == "q^-10 * x^4*y^4\n"
    assert sum(tracer.self_s[:len(LAYERS)]) == pytest.approx(tracer.wall_s)
    assert tracer.self_s[len(LAYERS)] == 0.0
    assert tracer.ops == 1
    assert tracer.count("algebra.Algebra.normal_form_word") > 0
    assert tracer.reductions > 0
    assert tracer.render_bytes == len(text) - 1
    assert tracer.self_s[LAYERS.index("cli")] > 0
