"""The two identities the suite records without probes, term for term.

Each basis form passes a coefficient by its twist, theta^s a = phi_s(a)
theta^s: ``Calculus.wedge`` is written so, and the suite records
``theta-diagonal/<s>`` as passing.  With vt = sum_s a_s theta^s the
commutator vt x - x vt is then sum_s (a_s phi_s(x) - x a_s) theta^s,
which is d(x) by definition, and the suite records ``inner-form`` as
passing.  Here, for every model that ``tests/test_verify_pins.py`` pins,
the generators and 60 seeded random elements x give both sides of each
identity with the same stored basis keys, words, and numerator and
denominator terms, in the same order.  Negative controls show that each
comparison can fail.
"""

import random

import pytest

from ncdiff.dsl import load_model
from ncdiff.models import BUILTINS

from test_algebra import sized_random_element

MODELS = ("quantum-torus", "gl-pq2", "gl-pq2-localized", "gl-pq2-rfree",
          "rank-3", "rank-4", "rank-5", "torus-swap-twist",
          "torus-symmetric-wedge", "non-confluent", "torus-wrong-action")


@pytest.fixture(scope="module")
def texts(repo_module):
    workloads = repo_module("bench/workloads.py")
    return repo_module("tests/test_verify_pins.py").model_texts(workloads)


def _calculus(name, texts):
    if name in BUILTINS:
        return BUILTINS[name](verify=False).calculus
    return load_model(texts[name], verify=False).calculus


def stored(form):
    """A form as stored: keys, words and coefficient terms, in order."""
    return [(key, [(word, list(c.num.terms.items()), list(c.den.terms.items()))
                   for word, c in elt.terms.items()])
            for key, elt in form.terms.items()]


def commutator(calc, vt, x):
    return calc.wedge(vt, x) - calc.wedge(x, vt)


def test_models_are_those_of_the_verify_pins(repo_module):
    assert MODELS == repo_module("tests/test_verify_pins.py").MODELS


@pytest.mark.parametrize("name", MODELS)
def test_d_is_the_commutator_with_the_inner_form(name, texts):
    calc = _calculus(name, texts)
    vt = calc.inner_form()
    rng = random.Random(0)
    for i in range(60):
        x = sized_random_element(calc.algebra, rng, 4, 4)
        assert stored(calc.d_element(x)) == stored(commutator(calc, vt, x)), \
            "element %d: %s" % (i, x)


@pytest.mark.parametrize("name", MODELS)
def test_a_perturbed_inner_form_differs_on_a_generator(name, texts):
    calc = _calculus(name, texts)
    perturbed = calc.inner_form() + calc.theta(calc.labels[0])
    assert any(calc.d_element(g) != commutator(calc, perturbed, g)
               for _, g in calc.generator_elements())


def _probes(calc):
    rng = random.Random(0)
    return [g for _, g in calc.generator_elements()] + [
        sized_random_element(calc.algebra, rng, 4, 4)
        for _ in range(60)]


@pytest.mark.parametrize("name", MODELS)
def test_a_basis_form_passes_a_coefficient_by_its_twist(name, texts):
    calc = _calculus(name, texts)
    probes = _probes(calc)
    for lab in calc.labels:
        theta = calc.theta(lab)
        for i, x in enumerate(probes):
            assert stored(calc.wedge(theta, x)) == stored(
                calc.embed(calc.twists[lab].apply(x)) * theta), \
                "%s, probe %d: %s" % (lab, i, x)


@pytest.mark.parametrize("name", MODELS)
def test_the_identity_in_place_of_a_twist_differs_on_a_generator(name,
                                                                 texts):
    calc = _calculus(name, texts)
    assert any(calc.wedge(theta, g) != calc.embed(g) * theta
               for theta in map(calc.theta, calc.labels)
               for _, g in calc.generator_elements())
