"""The inner-derivation identity that samples the Leibniz laws, as values.

With e(x) = a phi(x) - x a, an associative product gives
e(xy) - e(x) phi(y) - x e(y) = a (phi(xy) - phi(x) phi(y)), which is
``TwistedDerivation.associative_defect``.  Where the algebra passed its
confluence check, ``run_suite`` samples ``leibniz-twisted/<s>`` through it,
and passes a ``leibniz-product`` pair when every label's identity is zero,
since component i of d(xy) - (d(x) y + x d(y)) is label i's twisted
defect.  Here, on every confluent model that ``tests/test_verify_pins.py``
pins, seeded random pairs give the identity and ``leibniz_defect`` equal
values for every label, and the product's zero test agrees with the
direct form.  On gl-pq2-rfree and torus-swap-twist the twists break the
relations, so the defects are nonzero there and the comparison has
something to compare.
"""

import random

import pytest

from ncdiff.dsl import load_model
from ncdiff.models import BUILTINS, _breaks_an_identity, _sampled_pairs

MODELS = ("quantum-torus", "gl-pq2", "gl-pq2-localized", "gl-pq2-rfree",
          "rank-3", "rank-4", "rank-5", "torus-swap-twist",
          "torus-symmetric-wedge", "non-confluent", "torus-wrong-action")
NONZERO = ("gl-pq2-rfree", "torus-swap-twist")
PAIRS = 24


@pytest.fixture(scope="module")
def calculi(repo_module):
    """The calculus of every pinned model whose algebra is confluent."""
    workloads = repo_module("bench/workloads.py")
    texts = repo_module("tests/test_verify_pins.py").model_texts(workloads)
    out = {}
    for name in MODELS:
        bundle = (BUILTINS[name](verify=False) if name in BUILTINS
                  else load_model(texts[name], verify=False))
        if not bundle.algebra.check_confluence():
            out[name] = bundle.calculus
    return out


def test_models_are_those_of_the_verify_pins(repo_module):
    assert MODELS == repo_module("tests/test_verify_pins.py").MODELS


def test_every_pinned_model_but_one_is_confluent(calculi):
    assert sorted(calculi) == sorted(set(MODELS) - {"non-confluent"})


def direct_form(calc, x, y):
    return calc.d_element(x * y) - (
        calc.wedge(calc.d_element(x), calc.embed(y))
        + calc.wedge(calc.embed(x), calc.d_element(y)))


@pytest.mark.parametrize("name", [m for m in MODELS if m != "non-confluent"])
def test_identity_equals_the_direct_formula(name, calculi):
    calc = calculi[name]
    rng = random.Random(7)
    nonzero = 0
    for lab in calc.labels:
        derivation = calc.derivations[lab]
        for sample, x, y in _sampled_pairs(calc.algebra, rng, PAIRS):
            direct = derivation.leibniz_defect(x, y)
            assert derivation.associative_defect(x, y, x * y) == direct, \
                "%s, %s: x = %s, y = %s" % (lab, sample, x, y)
            nonzero += not direct.is_zero()
    assert (nonzero > 0) is (name in NONZERO)


@pytest.mark.parametrize("name", [m for m in MODELS if m != "non-confluent"])
def test_product_zero_test_agrees_with_the_direct_form(name, calculi):
    calc = calculi[name]
    rng = random.Random(7)
    broken = 0
    for sample, x, y in _sampled_pairs(calc.algebra, rng, PAIRS):
        form = direct_form(calc, x, y)
        for lab in calc.labels:
            assert form.coefficient(lab) == calc.derivations[
                lab].associative_defect(x, y, x * y), "%s, %s" % (lab, sample)
        breaks = _breaks_an_identity(calc, x, y, x * y)
        assert breaks is not form.is_zero(), sample
        broken += breaks
    assert (broken > 0) is (name in NONZERO)
