"""The three records that a diagonal action decides without its direct
computation.

``automorphism/<name>`` of a diagonal map phi(g) = c_g g passes without
normalizing the images of the relations when the ``relations`` record
passed and every word of each relation, both sides, takes one scale
chi(w) (``models._character_classes`` and ``_keeps_characters``): then
phi(lhs - rhs) = chi (lhs - rhs), which normalizes to zero.
``candidates_independent`` drops every candidate that holds a coordinate
no other remaining candidate holds, and eliminates only when some are left
(``geometry._peeled``).
``extension/<lab>/inverse`` of a passed extension over a diagonal twist
whose matrix is diagonal with nonzero entries passes without building the
inverse.

Here the character verdict is compared with ``respects_relations`` on
every diagonal map of the pinned models and of the corpus, and peeling
with the elimination on seeded random supports.  Planted cases each break
one hypothesis and must take the direct path, as counted calls of
``respects_relations``, ``solve_in_span`` and ``inverse_extension`` show;
each has a control that takes the deduced path.
"""

import json
import pathlib
import random

import pytest

from ncdiff import geometry
from ncdiff.coeff import ParameterSet, RationalFunction, solve_in_span
from ncdiff.dsl import build_model, load_model
from ncdiff.geometry import Geometry, _peeled, candidates_independent
from ncdiff.models import (BUILTINS, _algebra_checks, _character_classes,
                           _keeps_characters, model_source, run_suite)
from ncdiff.morphism import Endomorphism

TORUS = model_source("quantum-torus")
CORPUS_FILE = pathlib.Path(__file__).parent / "data" / "dsl_corpus.json"


def _calls(monkeypatch, owner, method, key):
    """Patch owner.method to record key(*args) of each call, and return
    the record."""
    calls = []
    original = getattr(owner, method)

    def counting(*args):
        calls.append(key(*args))
        return original(*args)
    monkeypatch.setattr(owner, method, counting)
    return calls


def _maps_normalized(monkeypatch):
    return _calls(monkeypatch, Endomorphism, "respects_relations",
                  lambda endo: endo.name)


def _inverses_built(monkeypatch):
    return _calls(monkeypatch, Geometry, "inverse_extension",
                  lambda geo, label: label)


def _statuses(records):
    return {record[0]: record[2] for record in records}


# -- automorphism/<name> by characters --------------------------------------

def _diagonal_maps(bundle):
    return [(name, endo) for name, endo in sorted(bundle.autos.items())
            if endo._scales is not None]


def test_characters_agree_with_the_relations_on_the_pinned_models(
        repo_module):
    workloads = repo_module("bench/workloads.py")
    pins = repo_module("tests/test_verify_pins.py")
    texts = pins.model_texts(workloads)
    verdicts = {}
    for model in pins.MODELS:
        bundle = (BUILTINS[model](verify=False) if model in BUILTINS
                  else load_model(texts[model], verify=False))
        if not bundle.algebra.verify_relations():
            continue
        classes = _character_classes(bundle.algebra)
        for name, endo in _diagonal_maps(bundle):
            kept = _keeps_characters(endo, classes)
            assert kept is endo.respects_relations(), (model, name)
            verdicts[model, name] = kept
    assert len(verdicts) >= 40
    assert sorted(name for (model, name), kept in verdicts.items()
                  if model == "gl-pq2-rfree" and not kept) == [
        "phi1", "phi2", "phi3", "phit2", "phit3", "phit4"]


def test_characters_imply_the_relations_on_the_corpus(repo_module):
    recorded = json.loads(CORPUS_FILE.read_text())
    maps = 0
    for case_id, text in repo_module("tests/test_dsl_corpus.py").CASES:
        if "ok" not in recorded[case_id]["no-verify"]:
            continue
        bundle = load_model(text, verify=False)
        if not bundle.algebra.verify_relations():
            continue
        classes = _character_classes(bundle.algebra)
        for name, endo in _diagonal_maps(bundle):
            if _keeps_characters(endo, classes):
                assert endo.respects_relations(), (case_id, name)
                maps += 1
    assert maps > 100


SWAP_HEAD = """model "planted";
param q, r;
gen x, y;
invertible x, y;
rel x*y = q*y*x;
"""

# phi keeps each relation's words in one exponent vector, but the second
# relation is shadowed by the first rule for y*x, so relations fails, and
# phi's image of y*x - r*x*y normalizes to r^2 (q - r) x*y.
UNSOUND = """model "planted-unsound";
param q, r;
gen x, y;
rel y*x = q*x*y;
rel y*x = r*x*y;
auto phi { x -> r*x; y -> r*y; }
"""

AUTO_CASES = {
    # (text, the maps that must reach respects_relations, failing records)
    "non-diagonal": (SWAP_HEAD + "auto swap { x -> y; y -> x; }\n",
                     ["swap"], ["automorphism/swap"]),
    "non-diagonal-control": (SWAP_HEAD + "auto phi { x -> r*x; y -> y; }\n",
                             [], []),
    "unsound": (UNSOUND, ["phi"], ["automorphism/phi", "confluence",
                                   "relations"]),
    "unsound-control": (UNSOUND.replace("rel y*x = r*x*y;\n", ""), [], []),
}


@pytest.mark.parametrize("case", sorted(AUTO_CASES))
def test_planted_automorphism_takes_the_direct_path(case, monkeypatch):
    text, direct, failing = AUTO_CASES[case]
    bundle = load_model(text, verify=False)
    calls = _maps_normalized(monkeypatch)
    statuses = _statuses(_algebra_checks(bundle))
    assert calls == direct
    assert sorted(anchor for anchor, ok in statuses.items() if not ok) == \
        failing


def test_relations_with_differing_characters_take_the_direct_path(
        glpq_rfree_doc, glpq, monkeypatch):
    """Without r = p*q six twists of gl-pq2 scale a*d and b*c apart: they
    are normalized and fail as before.  The two that keep them, and every
    twist of gl-pq2 itself, are decided by characters."""
    rfree = build_model(glpq_rfree_doc, verify=False)
    calls = _maps_normalized(monkeypatch)
    statuses = _statuses(_algebra_checks(rfree))
    failing = ["phi1", "phi2", "phi3", "phit2", "phit3", "phit4"]
    assert calls == failing
    assert [name for name in sorted(rfree.autos)
            if not statuses["automorphism/%s" % name]] == failing
    del calls[:]
    assert all(_statuses(_algebra_checks(glpq)).values())
    assert calls == []


# Three basis forms; the weight of t3 and the extension of phi2 vary.
PLANTED_THREE = SWAP_HEAD + """auto phi1 { x -> r^-1*x; y -> r^-1*y; }
auto phi2 { x -> x; y -> r^-1*y; }
calc {
  theta t1, t2, t3;
  twist t1 = phi1;
  twist t2 = phi2;
  twist t3 = phi2;
  weight t1 = 1;
  weight t2 = 1;
  weight t3 = %s;
  wedge t1*t1 = 0;
  wedge t2*t1 = -t1*t2;
  wedge t2*t2 = 0;
  wedge t3*t1 = -t1*t3;
  wedge t3*t2 = -t2*t3;
  wedge t3*t3 = 0;
}
extension phi1 { t1 -> t1; t2 -> t2; t3 -> t3; }
extension phi2 { %s }
"""

IDENTITY = "t1 -> t1; t2 -> t2; t3 -> t3;"


# -- candidates_independent by peeling --------------------------------------

def test_peeled_candidates_are_independent():
    """Peeled implies independent, on seeded random supports whose
    coefficients make dependencies likely; both verdicts of the
    elimination also occur among the candidates that do not peel."""
    params = ParameterSet(("q",))
    values = [RationalFunction.from_value(params, v) for v in (1, -1, 2)]
    rng = random.Random(5)
    outcomes = {"peeled": 0, "independent": 0, "dependent": 0}
    for _ in range(3000):
        coords = range(rng.randint(1, 6))
        candidates = [
            {c: rng.choice(values)
             for c in rng.sample(coords, rng.randint(1, len(coords)))}
            for _ in range(rng.randint(1, 5))]
        (_, free), = solve_in_span(candidates, [{}], params)
        if _peeled(candidates):
            assert not free, candidates
            outcomes["peeled"] += 1
        else:
            outcomes["dependent" if free else "independent"] += 1
    assert min(outcomes.values()) > 100, outcomes


def test_candidates_that_do_not_peel_are_eliminated(monkeypatch):
    """t2 and t3 share a twist and a weight, so e_2 = e_3 hold the same
    coordinates: they do not peel, and the elimination finds them
    dependent.  The control, without t3, peels and skips it."""
    calls = _calls(monkeypatch, geometry, "solve_in_span",
                   lambda *args: "solve_in_span")
    dependent = load_model(PLANTED_THREE % ("1", IDENTITY),
                           verify=False).calculus
    assert candidates_independent(dependent) is False
    assert calls == ["solve_in_span"]
    del calls[:]
    control = load_model(TORUS, verify=False).calculus
    assert candidates_independent(control) is True
    assert calls == []


# -- extension/<lab>/inverse without inverting ------------------------------

EXTENSION_CASES = {
    # (weight of t3, images under phi2, labels whose inverse is built,
    #  the status of each extension/<lab>/inverse of phi2)
    # e_2 = e_3, so the swap of t2 and t3 extends phi2: an invertible
    # matrix, but not diagonal.
    "off-diagonal": ("1", "t1 -> t1; t2 -> t3; t3 -> t2;",
                     ["t2", "t3"], True),
    "off-diagonal-control": ("1", IDENTITY, [], True),
    # e_3 = 0, so dropping t3 extends phi2, by a singular matrix.
    "zero-diagonal": ("0", "t1 -> t1; t2 -> t2; t3 -> 0*t3;",
                      ["t2", "t3"], False),
    "zero-diagonal-control": ("0", IDENTITY, [], True),
}


@pytest.mark.parametrize("case", sorted(EXTENSION_CASES))
def test_planted_extension_builds_its_inverse(case, monkeypatch):
    weight, images, built, inverse_ok = EXTENSION_CASES[case]
    bundle = load_model(PLANTED_THREE % (weight, images), verify=False)
    calls = _inverses_built(monkeypatch)
    statuses = {result.anchor: result.ok
                for result in run_suite(bundle).results}
    assert calls == built
    for lab in ("t1", "t2", "t3"):
        assert statuses["extension/%s" % lab]
    assert statuses["extension/t1/inverse"]
    assert statuses["extension/t2/inverse"] is inverse_ok
    assert statuses["extension/t3/inverse"] is inverse_ok


# On a commutative algebra the swap respects the relation, and the identity
# extends it: E(d x) = swap(y - x) t = d(swap x).  The control twist is
# diagonal.
SWAP_CALCULUS = """model "planted-swap";
param q;
gen x, y;
rel y*x = x*y;
auto %s
calc {
  theta t;
  twist t = %s;
  weight t = 1;
  wedge t*t = 0;
}
extension %s { t -> t; }
"""


@pytest.mark.parametrize("twist, built", [
    ("swap { x -> y; y -> x; }", ["t"]),
    ("phi { x -> q*x; y -> q*y; }", [])])
def test_a_non_diagonal_twist_builds_its_inverse(twist, built, monkeypatch):
    """A passed extension by the identity over the swap still builds its
    inverse, which fails with the reason; over a diagonal twist it builds
    none and passes."""
    name = twist.split()[0]
    bundle = load_model(SWAP_CALCULUS % (twist, name, name), verify=False)
    calls = _inverses_built(monkeypatch)
    results = {result.anchor: result for result in run_suite(bundle).results}
    assert calls == built
    assert results["automorphism/%s" % name].ok
    assert results["extension/t"].ok
    assert results["extension/t/inverse"].witness == (
        "cannot derive the inverse of a non-diagonal endomorphism"
        if built else None)
