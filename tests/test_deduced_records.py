"""The three records that the suite decides from verdicts it already has.

``d-twice`` passes without a probe when ``two-form-central`` passed and
wedge is associative (``models._wedge_associative``, on top of the
hypothesis of the proved Leibniz laws): then d(d x) = vtheta^2 x - x
vtheta^2 for every generator and basis form x.  Here that identity is
checked as values on the generators, the basis forms and 20 seeded
elements of every pinned model that meets the hypothesis.

``theta-action/<lab>`` takes the derived action in closed form,
diag(lam_s^-1), where ``geometry.closed_theta_action`` applies, and
``extension/<lab>`` passes without a probe when the declared matrix is the
derived one.  Here the closed form is compared with the elimination on
every pinned model, and the ``extension/<lab>`` verdict and witness with
a direct ``commutes_with_d`` on the sweep of declared and perturbed
matrices of ``tests/test_inverse_records.py``.

Planted calculi each break one hypothesis and must take the direct path,
as counted calls of ``Calculus.d``, ``derive_theta_action`` and
``commutes_with_d`` show; each has a control, equal but for the broken
hypothesis, that takes the deduced path.  The two planted wedges also
fail ``d-twice`` where ``two-form-central`` passes, so a deduction under
either broken hypothesis would change the output.  A twist that breaks
the relations has a closed form there, but no action extends it: it must
be derived by elimination, whose error is the witness.
"""

import copy
import random

import pytest

from ncdiff import calculus, geometry, models
from ncdiff.algebra import random_element
from ncdiff.dsl import load_model
from ncdiff.geometry import (FormExtension, Geometry, closed_theta_action,
                             derive_theta_action)
from ncdiff.models import (BUILTINS, _algebra_checks, _geometry_checks,
                           _laws_proved, _wedge_associative, run_suite)


@pytest.fixture(scope="module")
def pinned(repo_module):
    """The bundles of every model of ``tests/test_verify_pins.py``, each
    with the set of its passed algebra checks."""
    workloads = repo_module("bench/workloads.py")
    pins = repo_module("tests/test_verify_pins.py")
    texts = pins.model_texts(workloads)
    out = {}
    for name in pins.MODELS:
        bundle = (BUILTINS[name](verify=False) if name in BUILTINS
                  else load_model(texts[name], verify=False))
        out[name] = bundle, {record[0] for record in _algebra_checks(bundle)
                             if record[2]}
    return out


def _associative(bundle, passed):
    return _laws_proved(bundle, passed) and _wedge_associative(
        bundle.calculus)


def test_the_pinned_models_that_meet_the_hypothesis(pinned):
    assert sorted(name for name, (bundle, passed) in pinned.items()
                  if bundle.calculus is not None
                  and _associative(bundle, passed)) == [
        "gl-pq2", "gl-pq2-localized", "quantum-torus", "rank-3", "rank-4",
        "rank-5", "torus-symmetric-wedge", "torus-wrong-action"]


def _commutator_gap(calc, x):
    """d(d x) - (vtheta^2 x - x vtheta^2)."""
    vt = calc.inner_form()
    square = calc.wedge(vt, vt)
    return calc.d(calc.d(x)) - (calc.wedge(square, x)
                                - calc.wedge(x, square))


def test_d_twice_is_the_commutator_with_the_square(pinned):
    checked = 0
    for name, (bundle, passed) in pinned.items():
        calc = bundle.calculus
        if calc is None or not _associative(bundle, passed):
            continue
        rng = random.Random(name)
        probes = [g for _, g in calc.generator_elements()]
        probes += [calc.theta(lab) for lab in calc.labels]
        probes += [random_element(calc.algebra, rng) for _ in range(20)]
        for x in probes:
            assert _commutator_gap(calc, x).is_zero(), (name, x)
            checked += 1
    assert checked > 200


def test_the_hypothesis_is_needed(pinned):
    """On gl-pq2 with r free the twists break the relations, and d(d x)
    differs from the commutator with vtheta^2 on generators and forms."""
    bundle, passed = pinned["gl-pq2-rfree"]
    calc = bundle.calculus
    assert not _laws_proved(bundle, passed)
    assert not _commutator_gap(calc, calc.theta("t1")).is_zero()
    assert not _commutator_gap(calc, bundle.value("a")).is_zero()


def test_closed_form_is_the_elimination(pinned):
    """Where the closed form applies it stores what the elimination stores,
    entry for entry."""
    closed = 0
    for name, (bundle, passed) in pinned.items():
        calc = bundle.calculus
        if calc is None:
            continue
        for lab in calc.labels:
            psi = calc.twists[lab]
            if not models._multiplicative(bundle, passed, psi):
                continue
            matrix = closed_theta_action(calc, psi)
            if matrix is None:
                continue
            derived = derive_theta_action(calc, psi)
            assert [[str(rf) for rf in row] for row in matrix] == \
                [[str(rf) for rf in row] for row in derived], (name, lab)
            assert matrix == derived
            closed += 1
    assert closed >= 25


def _sweep(bundle, rng, inverse_records):
    """(label, matrix) for the declared matrix of every extension and four
    perturbations of each, as ``tests/test_inverse_records.py`` sweeps."""
    params = bundle.algebra.params
    for lab in sorted(bundle.geometry.extensions):
        declared = bundle.geometry.extension(lab).matrix
        yield lab, declared
        for _ in range(4):
            yield lab, inverse_records._perturbed(declared, params, rng)


def test_extension_records_match_a_direct_probe(pinned, repo_module,
                                                monkeypatch):
    inverse_records = repo_module("tests/test_inverse_records.py")
    probes = []
    original = FormExtension.commutes_with_d

    def counting(self):
        probes.append(self)
        return original(self)
    monkeypatch.setattr(FormExtension, "commutes_with_d", counting)

    cases = []
    for name in inverse_records.WITH_EXTENSIONS:
        bundle, passed = pinned[name]
        rng = random.Random(name)
        cases += [(bundle, passed, lab, matrix)
                  for lab, matrix in _sweep(bundle, rng, inverse_records)]
    bundle, passed = pinned["quantum-torus"]
    rng = random.Random(2)
    for _ in range(24):
        lab = rng.choice(bundle.calculus.labels)
        cases.append((bundle, passed, lab, inverse_records._dense(
            2, bundle.algebra.params, rng)))
    assert len(cases) == 164

    deduced = failing = 0
    for bundle, passed, lab, matrix in cases:
        calc = bundle.calculus
        ext = FormExtension(calc, calc.twists[lab], matrix)
        swept = copy.copy(bundle)
        swept.geometry = Geometry(calc, {lab: ext})
        swept.metrics, swept.connections, swept.extras = {}, {}, {}
        del probes[:]
        record, = [record for record in _geometry_checks(swept, passed)
                   if record[0] == "extension/%s" % lab]
        deduced += ext not in probes
        witness = original(ext)
        assert record[2] is (witness is None)
        assert str(record[3]) == str(witness)
        failing += witness is not None
    assert deduced >= 25 and failing > 100


# -- planted calculi ------------------------------------------------------

PLANTED_HEAD = """model "planted";
param q, r;
gen x, y;
invertible x, y;
rel x*y = q*y*x;
auto phi1 { x -> r^-1*x; y -> r^-1*y; }
auto phi2 { x -> x; y -> r^-1*y; }
"""


def _calc_block(twists, weights, wedges):
    labels = ["t%d" % (i + 1) for i in range(len(twists))]
    lines = ["calc {", "  theta %s;" % ", ".join(labels)]
    lines += ["  twist %s = %s;" % pair for pair in zip(labels, twists)]
    lines += ["  weight %s = %s;" % pair for pair in zip(labels, weights)]
    lines += ["  wedge %s;" % rule for rule in wedges]
    return "\n".join(lines + ["}", ""])


EXTERIOR = ("t1*t1 = 0", "t2*t1 = -t1*t2", "t2*t2 = 0", "t3*t1 = -t1*t3",
            "t3*t2 = -t2*t3", "t3*t3 = 0")

# Reducing t3*t1 first in t3*t1*t1 gives t2*t2*t3 = -t1*t2*t3, reducing
# t1*t1 first gives 0.
NON_CONFLUENT = ("t1*t1 = 0", "t2*t1 = 0", "t2*t2 = -t1*t2",
                 "t3*t1 = t2*t3", "t3*t2 = 0", "t3*t3 = 0")

# Confluent, but t2*t2 passes a coefficient by phi1 phi1 and its term
# t1*t2 by phi2 phi1, as does t3*t2 (phi2 phi1) and its term t1*t3
# (phi2 phi2).
MIXED_MAPS = ("t1*t1 = 0", "t2*t1 = 0", "t2*t2 = -t1*t2", "t3*t1 = 0",
              "t3*t2 = -t1*t3", "t3*t3 = 0")

WEDGE_CASES = {
    "non-confluent": (("phi1", "phi1", "phi1"), ("1", "0", "0"),
                      NON_CONFLUENT),
    "non-confluent-control": (("phi1", "phi1", "phi1"), ("1", "0", "0"),
                              EXTERIOR),
    "mixed-maps": (("phi2", "phi1", "phi2"), ("y", "y", "0"), MIXED_MAPS),
    "mixed-maps-control": (("phi2", "phi2", "phi2"), ("y", "y", "0"),
                           MIXED_MAPS),
}


def _count(monkeypatch, owner, method, calls):
    original = getattr(owner, method)

    def counting(*args, **kwargs):
        calls.append(method)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, method, counting)


def _statuses(report):
    return {result.anchor: result.status for result in report.results}


@pytest.mark.parametrize("case", sorted(WEDGE_CASES))
def test_planted_wedge_takes_the_direct_path(case, monkeypatch):
    bundle = load_model(PLANTED_HEAD + _calc_block(*WEDGE_CASES[case]),
                        verify=False)
    passed = {record[0] for record in _algebra_checks(bundle) if record[2]}
    assert _laws_proved(bundle, passed)
    calls = []
    _count(monkeypatch, calculus.Calculus, "d", calls)
    statuses = _statuses(run_suite(bundle))
    assert statuses["two-form-central"] == "pass"
    control = case.endswith("-control")
    assert _wedge_associative(bundle.calculus) is control
    assert (calls == []) is control
    assert statuses["d-twice"] == ("pass" if control else "fail")


def test_a_missing_theta_rule_takes_the_direct_path(monkeypatch):
    """Without a rule for the descent t2*t2, wedge is not known to be
    associative, so d-twice applies d twice to every generator and basis
    form, and passes as the direct computation does; with the rule it is
    deduced."""
    head = PLANTED_HEAD + _calc_block(("phi1", "phi2"), ("1", "0"),
                                      EXTERIOR[:2])
    bundle = load_model(head, verify=False)
    calc = bundle.calculus
    passed = {record[0] for record in _algebra_checks(bundle) if record[2]}
    assert _laws_proved(bundle, passed) and (1, 1) not in calc.theta_rules
    assert _wedge_associative(calc) is False
    firsts = ([g for _, g in calc.generator_elements()]
              + [calc.theta(lab) for lab in calc.labels])
    assert all(calc.d(calc.d(x)).is_zero() for x in firsts)
    calls = []
    _count(monkeypatch, calculus.Calculus, "d", calls)
    assert _statuses(run_suite(bundle))["d-twice"] == "pass"
    assert calls
    control = load_model(PLANTED_HEAD + _calc_block(
        ("phi1", "phi2"), ("1", "0"), EXTERIOR[:3]), verify=False)
    assert _wedge_associative(control.calculus) is True


TORUS_EXTENSIONS = """
extension phi1 { %s }
extension phi2 { %s }
"""


def _identity(n):
    return " ".join("t%d -> t%d;" % (i, i) for i in range(1, n + 1))


ACTION_CASES = {
    # Both twists map 1 + y to 1 + r^-1*y: no eigenvector.
    "not-an-eigenvector": (("phi1", "phi2"), ("1 + y", "1"),
                           EXTERIOR[:3]),
    # t2 and t3 have one twist and one weight, so e_2 = e_3.
    "dependent-candidates": (("phi1", "phi2", "phi2"), ("1", "1", "1"),
                             EXTERIOR),
    "control": (("phi1", "phi2"), ("1", "1"), EXTERIOR[:3]),
}


@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_planted_action_takes_the_direct_path(case, monkeypatch):
    twists, weights, wedges = ACTION_CASES[case]
    identity = _identity(len(twists))
    bundle = load_model(PLANTED_HEAD + _calc_block(twists, weights, wedges)
                        + TORUS_EXTENSIONS % (identity, identity),
                        verify=False)
    calc = bundle.calculus
    calls = []
    _count(monkeypatch, models, "derive_theta_action", calls)
    _count(monkeypatch, FormExtension, "commutes_with_d", calls)
    run_suite(bundle)
    if case == "control":
        assert calls == []
        return
    assert calls.count("derive_theta_action") == len(calc.labels)
    for lab in calc.labels:
        assert closed_theta_action(calc, calc.twists[lab]) is None
    if case == "dependent-candidates":
        assert not geometry.candidates_independent(calc)


# y*x = q*x*y + 1 is kept by a diagonal twist only when the scales of x
# and y multiply to 1, so phi breaks it.  The weight x is a phi-eigenvector
# and the closed form is diag(r^-1), but phi is not multiplicative there
# and no action extends it.
BREAKS_THE_RELATIONS = """model "planted-weyl";
param q, r;
gen x, y;
rel y*x = q*x*y + 1;
auto phi { x -> r*x; y -> r*y; }
calc {
  theta t;
  twist t = phi;
  weight t = x;
  wedge t*t = 0;
}
extension phi { t -> t; }
"""


def test_a_twist_that_breaks_the_relations_takes_the_direct_path(
        monkeypatch):
    bundle = load_model(BREAKS_THE_RELATIONS, verify=False)
    calc = bundle.calculus
    assert closed_theta_action(calc, calc.twists["t"]) is not None
    calls = []
    _count(monkeypatch, models, "derive_theta_action", calls)
    report = run_suite(bundle)
    witnesses = {result.anchor: result.witness for result in report.results}
    assert _statuses(report)["automorphism/phi"] == "fail"
    assert calls == ["derive_theta_action"]
    assert witnesses["theta-action/t"] == \
        "endomorphism does not extend to the basis form t"
