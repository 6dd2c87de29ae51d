"""The monomial lane of ``dsl._Evaluator`` against the step-by-step path.

Once an algebra's closed form is built, a ``*`` chain or a power of unit
monomials is folded into one exponent vector.  The reference is the same
evaluation with the lane switched off: every value must store the same
terms, int or ``Fraction`` alike, and print the same, and every error must
keep its message and location.
"""

import random

import pytest

from ncdiff import dsl
from ncdiff.dsl import load_model
from ncdiff.models import build_quantum_torus

# Rational swap constants, inverse generators, and let values that are
# unit monomials, a scalar, a sum and a form.
SWAPS_TEXT = """model "swaps";
param q, r;
gen x, y, z;
invertible x, z;
rel y*x = 2*q*x*y;
rel z*x = 1/3*x*z;
rel z*y = q^-1*r^2*y*z;
let a = 3*q*x*y^2;
let b = 1/2*z^-1*y;
let c = r^-1*x^-2*z^3;
let s = 2/3*q^2;
let u = x + y;
"""

SWAPS_NAMES = ["x", "y", "z", "q", "r", "a", "b", "c", "s"]


def stored(value):
    """Keys in order, down to each coefficient's numerator and denominator
    terms with their int-or-Fraction types."""
    if hasattr(value, "num"):
        return tuple([(m, c, type(c)) for m, c in poly.terms.items()]
                     for poly in (value.num, value.den))
    return [(key, stored(c)) for key, c in value.terms.items()]


def outcome(bundle, tree):
    """The value's class, stored terms and print, or the error's class,
    message and location."""
    try:
        value = bundle._eval(tree)
    except dsl.ModelError as exc:
        return type(exc).__name__, exc.message, exc.line, exc.col
    return type(value).__name__, stored(value), str(value)


def monomial_text(rng, names, depth=0):
    """A seeded product of names, integer powers and nested products."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        if depth < 2 and rng.random() < 0.25:
            factor = "(%s)" % monomial_text(rng, names, depth + 1)
            if rng.random() < 0.6:
                factor += "^%d" % rng.choice([0, 1, 2, 3, 7, -1])
        else:
            factor = rng.choice(names)
            if rng.random() < 0.6:
                factor += "^%d" % rng.randint(-5, 9)
        factors.append(factor)
    return "*".join(factors)


def lane_runs(bundle, texts, monkeypatch):
    """Each text's outcome with the lane on and then off, and whether the
    lane took the whole expression."""
    assert bundle.algebra._closed() is not None
    trees = [dsl._parse_expression_text(text) for text in texts]
    roots = set()
    fold = dsl._Evaluator._folded

    def spy(evaluator, node, closed):
        result = fold(evaluator, node, closed)
        if result is not None and result[2] is not None:
            roots.add(id(node))
        return result
    monkeypatch.setattr(dsl._Evaluator, "_folded", spy)
    on = [outcome(bundle, tree) for tree in trees]
    monkeypatch.setattr(dsl._Evaluator, "_folded", lambda *args: None)
    off = [outcome(bundle, tree) for tree in trees]
    monkeypatch.setattr(dsl._Evaluator, "_folded", fold)
    return on, off, [id(tree) in roots for tree in trees]


def torus(_):
    return build_quantum_torus()


def rank_four(repo_module):
    workloads = repo_module("bench/workloads.py")
    return load_model(workloads.rank_n_text(4, 13))


def swaps(_):
    return load_model(SWAPS_TEXT)


@pytest.mark.parametrize("make, names, seed", [
    (torus, ["x", "y", "q", "r"], 1),
    (rank_four, ["x1", "x2", "x3", "x4", "q12", "q34", "r"], 2),
    (swaps, SWAPS_NAMES, 3),
])
def test_seeded_monomials_match_the_step_by_step_path(make, names, seed,
                                                      repo_module,
                                                      monkeypatch):
    bundle = make(repo_module)
    rng = random.Random(seed)
    texts = [monomial_text(rng, names) for _ in range(400)]
    on, off, taken = lane_runs(bundle, texts, monkeypatch)
    for text, got, want in zip(texts, on, off):
        assert got == want, text
    # The lane takes most of them; errors and scalars go the other way.
    assert sum(taken) > 100
    assert all(got[0] == "Element" for got, took in zip(on, taken) if took)


def test_a_huge_exponent_folds_exactly(monkeypatch):
    n = 10 ** 40 - 1
    texts = ["x^-%d*y*x^%d" % (n, n), "q^3*(y*x)^%d" % n,
             "(x^%d*y^-2)^%d*q" % (n, n)]
    on, off, taken = lane_runs(torus(None), texts, monkeypatch)
    assert on == off and all(taken)


DECLINED = [
    "x*y + y*x", "x - y*x", "x*y/q", "t1*x", "x*t1", "(1 + q)*x",
    "(y*x)^-1", "(x*y)^-2", "2*x*y", "-x*y", "d(x)*y", "x*w", "q*r",
    "(q*r^-1)^3*q", "q^-2", "x*(y + 1)",
]


@pytest.mark.parametrize("make, texts", [
    (torus, DECLINED),
    (rank_four, ["x1^-1", "x2*x1^-2", "(x2*x3)^-1", "q12*r^-1"]),
    (swaps, ["a^-1", "b^-2", "u*x", "s*q", "s^-1*q", "(s*x)^-1", "u^2"]),
])
def test_declined_expressions_take_the_step_by_step_path(make, texts,
                                                         repo_module,
                                                         monkeypatch):
    on, off, taken = lane_runs(make(repo_module), texts, monkeypatch)
    assert on == off
    assert not any(taken)
    kinds = dict(zip(texts, (got[0] for got in on)))
    for scalar in ("q*r", "(q*r^-1)^3*q", "q^-2", "q12*r^-1", "s*q"):
        assert kinds.get(scalar, "RationalFunction") == "RationalFunction"
    for error in ("(y*x)^-1", "x1^-1", "a^-1", "(s*x)^-1"):
        assert kinds.get(error, "ModelSemanticError") == "ModelSemanticError"


def test_a_cold_session_rewrites_until_a_power_builds_the_closed_form():
    """The lane only reads a closed form that is built: a fresh torus bundle
    rewrites ``y*x`` and builds nothing, and a power then builds it."""
    bundle = build_quantum_torus()
    alg = bundle.algebra
    assert str(bundle.eval_expression("y*x")) == "q^-1 * x*y"
    assert alg._closed_form is None and alg.reduction_count > 0
    assert str(bundle.eval_expression("(y*x)^4")) == "q^-10 * x^4*y^4"
    assert alg._closed_form is not None
