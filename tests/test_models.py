"""Tests for the shipped models and the structural verification suite."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from ncdiff import dsl, models
from ncdiff.coeff import RationalFunction
from ncdiff.dsl import (ModelSemanticError, build_model, load_model,
                        parse_coefficient)
from ncdiff.geometry import Geometry
from ncdiff.models import (CheckResult, SuiteReport, _det_scales,
                           available_models, build_glpq, build_quantum_torus,
                           model_source, run_suite, scalar_ratio)

from test_verify_pins import wrong_action_text

# In a fresh interpreter: loads both gl-pq2 documents several times, reads
# their checks and runs the suite, counting the evaluations of each side of
# each check under the document being built ("load" outside a build), and
# prints the counts as JSON.
_COUNT_CHECK_EVALUATIONS = """
import collections, json
from ncdiff import dsl
from ncdiff.models import BUILTINS, run_suite
kind, evaluate = dsl._KINDS["check"], dsl._Evaluator.eval
sides, building, counts = {}, [], collections.Counter()
def check(builder, stmt):
    sides.update((id(side), stmt.data[0]) for side in stmt.data[1:])
    building.append(builder.doc.name)
    kind.build(builder, stmt)
    building.pop()
def counted(evaluator, node):
    if id(node) in sides:
        counts[(building or ["load"])[-1] + "/" + sides[id(node)]] += 1
    return evaluate(evaluator, node)
dsl._KINDS["check"] = kind._replace(build=check)
dsl._Evaluator.eval = counted
for name in ("gl-pq2-localized", "gl-pq2") * 2:
    for verify in (False, True):
        BUILTINS[name](verify=verify).checks
run_suite(BUILTINS["gl-pq2-localized"](), 1)
print(json.dumps(counts))
"""


TORUS_ANCHORS = [
    "relations",
    "confluence",
    "automorphism/phi1",
    "automorphism/phi1/inverse",
    "automorphism/phi2",
    "automorphism/phi2/inverse",
    "theta-diagonal/t1",
    "theta-diagonal/t2",
    "inner-form",
    "two-form-central",
    "d-twice",
    "leibniz-twisted/t1",
    "leibniz-twisted/t2",
    "leibniz-product",
    "extension/t1",
    "extension/t1/inverse",
    "theta-action/t1",
    "extension/t2",
    "extension/t2/inverse",
    "theta-action/t2",
    "metric/gsym/triv",
    "torsion/triv/t1",
    "torsion/triv/t2",
    "derived-relation/x*dx",
    "derived-relation/x*dy",
    "derived-relation/y*dx",
    "derived-relation/y*dy",
    "check/theta1-from-dx",
    "check/theta2-from-dy-dx",
    "check/inner-form",
]


@pytest.fixture(scope="module")
def torus_report(torus):
    return run_suite(torus)


@pytest.fixture(scope="module")
def glpq_report(glpq):
    return run_suite(glpq)


@pytest.fixture(scope="module")
def localized_report(glpq_localized):
    return run_suite(glpq_localized)


@pytest.fixture(scope="module")
def r_free_report(glpq, glpq_rfree_doc):
    bundle = build_model(glpq_rfree_doc, verify=False)
    bundle.extras.update(glpq.extras)
    return run_suite(bundle)


class TestSources:
    def test_available_models(self):
        assert available_models() == ["gl-pq2", "quantum-torus"]

    def test_model_source_contents(self):
        src = model_source("quantum-torus")
        assert 'model "quantum-torus"' in src
        assert "rel x*y = q*y*x" in src

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            model_source("nonesuch")


class TestTorusBundle:
    def test_name_and_generators(self, torus):
        assert torus.name == "quantum-torus"
        assert torus.algebra.table.base_names == ("x", "y")

    def test_expected_relations_extras(self, torus):
        expected = torus.extras["expected_relations"]
        assert set(expected) == {("x", "dx"), ("x", "dy"),
                                 ("y", "dx"), ("y", "dy")}

    def test_torsion_extras(self, torus):
        assert torus.extras["torsion_zero"] == "triv"
        assert torus.calculus.labels == ("t1", "t2")

    def test_unverified_build(self):
        bundle = build_quantum_torus(verify=False)
        assert bundle.algebra.verify_relations()


class TestGlpqBundle:
    def test_twisted_basis_extras(self, glpq):
        assert glpq.extras["twisted_basis"] == [
            ("tt1", "phit1"), ("tt2", "phit2"),
            ("tt3", "phit3"), ("tt4", "phit4")]

    def test_det_extras(self, glpq):
        assert glpq.extras["det"] == {"a": "1", "b": "p/q", "c": "q/p",
                                      "d": "1"}

    def test_mirror_checks_present(self, glpq):
        names = [case.name for case in glpq.checks]
        assert len(names) == 22
        mirrors = [n for n in names if n.endswith("-mirror")]
        assert len(mirrors) == 8
        base_mc = [n for n in names
                   if n.startswith("mc") and not n.endswith("-mirror")]
        assert sorted(mirrors) == sorted(n + "-mirror" for n in base_mc)

    def test_det_scaling_direct(self, glpq):
        det = glpq.value("D")
        b = glpq.value("b")
        lam = parse_coefficient("p/q", glpq.params)
        assert det * b == (b * det).scale(lam)
        d = glpq.value("d")
        assert det * d == d * det

    def test_substitution_recorded(self, glpq):
        p = RationalFunction.parameter(glpq.params, "p")
        q = RationalFunction.parameter(glpq.params, "q")
        assert glpq.value("r") == p * q


class TestLocalizedBundle:
    def test_name_and_generator(self, glpq_localized):
        assert glpq_localized.name == "gl-pq2-localized"
        assert "Dinv" in glpq_localized.algebra.table.symbols
        assert glpq_localized.value("Dinv") == \
            glpq_localized.algebra.gen("Dinv")

    def test_localized_extras(self, glpq, glpq_localized):
        assert glpq_localized.extras["localized"] == "Dinv"
        lambdas, _ = _det_scales(glpq)
        assert {n: str(lam) for n, lam in lambdas.items()} == {
            "a": "1", "b": "p*q^-1", "b^-1": "p^-1*q",
            "c": "p^-1*q", "c^-1": "p*q^-1", "d": "1"}

    def test_unit_is_central(self, glpq_localized):
        unit = glpq_localized.value("D") * glpq_localized.value("Dinv")
        a = glpq_localized.value("a")
        assert unit * a == a * unit

    def test_checks_transferred(self, glpq, glpq_localized):
        assert len(glpq_localized.checks) == len(glpq.checks)
        assert glpq_localized.checks == [(case.name, None)
                                         for case in glpq.checks]

    def test_each_check_is_evaluated_once_per_process(self):
        """In a fresh interpreter, the gl-pq2 build that the localized
        document is derived from and the first gl-pq2-localized build each
        evaluate both sides of each of their document's 22 checks once;
        later loads, verified or not, the suite included, evaluate
        none."""
        src = str(pathlib.Path(models.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_CHECK_EVALUATIONS],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert len(counts) == 44
        assert {key.split("/")[0] for key in counts} == {
            "gl-pq2", "gl-pq2-localized"}
        assert set(counts.values()) == {2}

    def test_calculus_rebuilt(self, glpq, glpq_localized):
        assert glpq_localized.calculus is not glpq.calculus
        assert glpq_localized.calculus.labels == glpq.calculus.labels
        dinv = glpq_localized.value("Dinv")
        da = glpq_localized.calculus.d(dinv)
        assert not da.is_zero()


@pytest.mark.parametrize("verify,error,message", [
    (True, ModelSemanticError,
     "line 27, column 1: 'phi1' does not respect the relations"),
    (False, ValueError, "twist 'phi1' does not scale the determinant"),
], ids=["verify", "no-verify"])
def test_localization_needs_the_substitution(glpq_rfree_doc, verify, error,
                                             message):
    with pytest.raises(error) as info:
        _det_scales(build_model(glpq_rfree_doc, verify=verify))
    assert str(info.value) == message


def test_determinant_must_scale_commute():
    bundle = load_model('model "m"; param q; gen a, b; rel b*a = q*a*b + a; '
                        'auto f { a -> a; b -> b; } let D = a + b;')
    with pytest.raises(ValueError) as info:
        _det_scales(bundle)
    assert str(info.value) == "determinant does not scale-commute past 'a'"


class TestScalarRatio:
    def test_scalar_multiple(self, torus):
        q = RationalFunction.parameter(torus.params, "q")
        x = torus.value("x")
        y = torus.value("y")
        assert scalar_ratio(x.scale(q), x) == q
        assert scalar_ratio((x + y).scale(q * q), x + y) == q * q

    def test_mismatched_support(self, torus):
        x = torus.value("x")
        y = torus.value("y")
        assert scalar_ratio(x, y) is None
        assert scalar_ratio(x + y, x) is None

    def test_inconsistent_ratio(self, torus):
        q = RationalFunction.parameter(torus.params, "q")
        x = torus.value("x")
        y = torus.value("y")
        assert scalar_ratio(x.scale(q) + y, x + y) is None

    def test_zero_right(self, torus):
        x = torus.value("x")
        zero = x - x
        assert scalar_ratio(x, zero) is None
        assert scalar_ratio(zero, x) is None


def test_suite_probes_only_the_twisted_basis(torus, glpq, monkeypatch):
    """theta-diagonal/* holds by construction and is recorded without a
    probe; only the twisted basis forms, which a model can break, go
    through _commutes_through."""
    probed = []
    original = models._commutes_through

    def counted(calc, form, endo, form_name):
        probed.append(form_name)
        return original(calc, form, endo, form_name)
    monkeypatch.setattr(models, "_commutes_through", counted)
    assert run_suite(glpq).ok
    assert probed == ["tt1", "tt2", "tt3", "tt4"]
    probed.clear()
    assert run_suite(torus).ok
    assert probed == []


class TestSuiteTorus:
    def test_counts(self, torus_report):
        assert torus_report.model == "quantum-torus"
        assert torus_report.passed == 30
        assert torus_report.failed == 0
        assert torus_report.ok

    def test_anchor_order(self, torus_report):
        assert [r.anchor for r in torus_report.results] == TORUS_ANCHORS

    def test_pass_results_carry_no_witness(self, torus_report):
        assert all(r.witness is None for r in torus_report.results)
        assert all(r.status == "pass" for r in torus_report.results)

    def test_seed_recorded(self, torus):
        report = run_suite(torus, seed=7)
        assert report.seed == 7
        assert report.ok

    def test_programming_error_is_not_a_failed_check(self, monkeypatch):
        """Only engine errors become failed checks: a TypeError raised
        inside the inverse extension check propagates.  The torus whose
        extension of phi2 sends t2 to r*t2 fails extension/t2, so its
        suite still builds that inverse, for the witness."""
        bundle = load_model(wrong_action_text(model_source("quantum-torus")))

        def broken(self, label):
            raise TypeError("engine bug")
        monkeypatch.setattr(Geometry, "inverse_extension", broken)
        with pytest.raises(TypeError, match="engine bug"):
            run_suite(bundle)


class TestSuiteGlpq:
    def test_counts(self, glpq_report):
        assert glpq_report.model == "gl-pq2"
        assert glpq_report.failed == 0
        assert len(glpq_report.results) == 72

    def test_expected_anchors(self, glpq_report):
        anchors = {r.anchor for r in glpq_report.results}
        for g in ("a", "b", "c", "d"):
            assert "det-scale/%s" % g in anchors
        for s in range(1, 5):
            assert "twisted-basis/tt%d" % s in anchors
            assert "theta-action/t%d" % s in anchors
            assert "extension/t%d/inverse" % s in anchors
        assert "check/mc1-a-mirror" in anchors

    def test_mc_check_count(self, glpq_report):
        mc = [r for r in glpq_report.results
              if r.anchor.startswith("check/mc")]
        assert len(mc) == 16
        assert all(r.ok for r in mc)


class TestSuiteLocalized:
    def test_counts(self, localized_report):
        assert localized_report.model == "gl-pq2-localized"
        assert localized_report.failed == 0
        assert len(localized_report.results) == 73

    def test_localized_anchor(self, localized_report):
        anchors = [r.anchor for r in localized_report.results]
        assert "localized-unit-central" in anchors


class TestSuiteWithoutSubstitution:
    def test_counts(self, r_free_report):
        assert r_free_report.passed == 30
        assert r_free_report.failed == 36
        assert not r_free_report.ok

    def test_failing_anchors(self, r_free_report):
        failing = {r.anchor for r in r_free_report.results if not r.ok}
        assert "automorphism/phi1" in failing
        assert "check/mc1-a" in failing
        assert "two-form-central" in failing
        assert "d-twice" in failing
        assert "relations" not in failing
        assert "confluence" not in failing

    def test_failures_carry_witnesses(self, r_free_report):
        failed = [r for r in r_free_report.results
                  if not r.ok and r.anchor.startswith("check/")]
        assert failed
        assert all(isinstance(r.witness, str) and r.witness
                   for r in failed)


FEW_PARAMETER_MODELS = {
    "one-parameter": """model "one";
param q;
gen x, y;
invertible x, y;
rel x*y = q*y*x;
auto phi1 { x -> x/q; y -> y/q; }
auto phi2 { x -> x; y -> y/q; }
calc {
  theta t1, t2;
  twist t1 = phi1;
  twist t2 = phi2;
  weight t1 = 1/(1 - q);
  weight t2 = 1/(1 - q);
  wedge t1*t1 = 0;
  wedge t2*t1 = -t1*t2;
  wedge t2*t2 = 0;
}
""",
    "zero-parameter": """model "zero";
gen x, y;
invertible x, y;
rel y*x = x*y;
auto phi1 { x -> 2*x; y -> 2*y; }
auto phi2 { x -> x; y -> 3*y; }
calc {
  theta t1, t2;
  twist t1 = phi1;
  twist t2 = phi2;
  weight t1 = -1;
  weight t2 = -1/2;
  wedge t1*t1 = 0;
  wedge t2*t1 = -t1*t2;
  wedge t2*t2 = 0;
}
""",
}


class TestSuiteFewParameters:
    @pytest.mark.parametrize("name", sorted(FEW_PARAMETER_MODELS))
    def test_randomized_checks_run(self, name):
        report = run_suite(load_model(FEW_PARAMETER_MODELS[name]),
                           samples=5)
        anchors = [r.anchor for r in report.results]
        assert "leibniz-twisted/t1" in anchors
        assert "leibniz-product" in anchors
        assert report.ok, [r.anchor for r in report.results if not r.ok]


class TestReportTypes:
    def test_check_result_status(self):
        good = CheckResult("a", "works", True, witness="ignored")
        bad = CheckResult("a", "breaks", False, witness="kept")
        assert good.status == "pass" and good.ok
        assert good.witness is None
        assert bad.status == "fail" and not bad.ok
        assert bad.witness == "kept"

    def test_suite_report_counts(self):
        results = [CheckResult("a", "n", True),
                   CheckResult("b", "n", False, "w"),
                   CheckResult("c", "n", True)]
        report = SuiteReport("m", 3, results)
        assert report.passed == 2
        assert report.failed == 1
        assert not report.ok

    def test_determinism(self, torus):
        first = run_suite(torus, seed=1)
        second = run_suite(torus, seed=1)
        assert [r.status for r in first.results] == \
            [r.status for r in second.results]
        assert [r.anchor for r in first.results] == \
            [r.anchor for r in second.results]
