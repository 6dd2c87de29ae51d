"""The shared arithmetic of elements, forms and tensors against references.

``LinearSum`` holds the one copy of ``+``, ``-``, negation and ``==``.  The
references below are the per-class methods it replaced, written out as
functions: each result must store the same keys in the same order, and
every coefficient the same numerator and denominator terms.
"""

import random
from fractions import Fraction

import pytest

from ncdiff.algebra import AlgebraError, Element, _accumulate
from ncdiff.calculus import Form
from ncdiff.coeff import RationalFunction
from ncdiff.geometry import TensorForm

from test_algebra import sized_random_element


def element_add(a, b):
    out = dict(a.terms)
    for w, c in b.terms.items():
        _accumulate(out, w, c)
    return Element(a.algebra, out)


def element_neg(a):
    return Element(a.algebra, {w: -c for w, c in a.terms.items()})


def element_sub(a, b):
    out = dict(a.terms)
    for w, c in b.terms.items():
        _accumulate(out, w, -c)
    return Element(a.algebra, out)


def form_add(a, b):
    out = dict(a.terms)
    for key, coeff in b.terms.items():
        _accumulate(out, key, coeff)
    return Form(a.calculus, out)


def form_neg(a):
    return Form(a.calculus, {k: -c for k, c in a.terms.items()})


def form_sub(a, b):
    return form_add(a, form_neg(b))


def tensor_add(a, b):
    out = dict(a.terms)
    for key, coeff in b.terms.items():
        _accumulate(out, key, coeff)
    return TensorForm(a.calculus, out)


def tensor_neg(a):
    return TensorForm(a.calculus, {k: -v for k, v in a.terms.items()})


def tensor_sub(a, b):
    return tensor_add(a, tensor_neg(b))


REFERENCES = {
    Element: (element_add, element_sub, element_neg),
    Form: (form_add, form_sub, form_neg),
    TensorForm: (tensor_add, tensor_sub, tensor_neg),
}


def stored(value):
    """Keys in order, down to each coefficient's numerator and denominator
    terms with their int-or-Fraction types."""
    if isinstance(value, RationalFunction):
        return tuple([(m, c, type(c)) for m, c in poly.terms.items()]
                     for poly in (value.num, value.den))
    return [(key, stored(c)) for key, c in value.terms.items()]


def _elements(alg, rng, count):
    params = alg.params
    pool = [RationalFunction.from_value(params, v)
            for v in (1, -1, 2, Fraction(1, 3))]
    pool += [RationalFunction.parameter(params, n, e)
             for n in params.names for e in (1, -2)]
    pool.append(pool[4] + pool[0])
    pool.append(pool[0] / (pool[4] - pool[1]))
    out = [alg.zero()]
    for _ in range(count):
        x = sized_random_element(alg, rng, 4, 3)
        out.append(Element(alg, {w: c * rng.choice(pool)
                                 for w, c in x.terms.items()}))
    return out


def _keys(n, grade):
    if grade == 0:
        return [()]
    if grade == 1:
        return [(i,) for i in range(n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _forms(calc, elements, rng, count):
    n = len(calc.labels)
    keys = [key for grade in (0, 1, 2) for key in _keys(n, grade)]
    return [calc.form({key: rng.choice(elements)
                       for key in rng.sample(keys, rng.randint(0, 4))})
            for _ in range(count)]


def _tensors(calc, elements, rng, count):
    n = len(calc.labels)
    keys = [(s, k) for s in range(n) for k in range(n)]
    return [TensorForm(calc, {key: rng.choice(elements)
                              for key in rng.sample(keys, rng.randint(0, 4))})
            for _ in range(count)]


def _pairs(values):
    """Pairs that overlap, coincide, and cancel in part."""
    out = []
    for a, b in zip(values, reversed(values)):
        out += [(a, b), (a, a), (a + b, b), (a, -a)]
    return out


@pytest.fixture(params=["torus", "glpq"])
def bundle(request):
    return request.getfixturevalue(request.param)


def _values(bundle):
    rng = random.Random(len(bundle.algebra.table.symbols))
    elements = _elements(bundle.algebra, rng, 20)
    return {Element: elements,
            Form: _forms(bundle.calculus, elements, rng, 20),
            TensorForm: _tensors(bundle.calculus, elements, rng, 20)}


@pytest.mark.parametrize("kind", [Element, Form, TensorForm],
                         ids=["element", "form", "tensor"])
def test_arithmetic_matches_the_references(bundle, kind):
    add, sub, neg = REFERENCES[kind]
    cancelled = 0
    for a, b in _pairs(_values(bundle)[kind]):
        assert stored(a + b) == stored(add(a, b))
        assert stored(a - b) == stored(sub(a, b))
        assert stored(-a) == stored(neg(a))
        assert (a == b) is sub(a, b).is_zero()
        cancelled += len((a - b).terms) < len(a.terms)
    assert cancelled


def test_scalars_coerce_on_either_side(bundle):
    calc = bundle.calculus
    for x in _values(bundle)[Element][:8]:
        assert stored(2 - x) == stored(element_sub(bundle.algebra.scalar(2), x))
        assert stored(x + 1) == stored(element_add(x, bundle.algebra.one()))
    for w in _values(bundle)[Form][:8]:
        assert stored(1 - w) == stored(form_sub(calc.embed(1), w))
        assert stored(w + 3) == stored(form_add(w, calc.embed(3)))
        assert (w == 0) is w.is_zero()


def test_coercion_outcomes(torus, glpq):
    x, a = torus.algebra.gen("x"), glpq.algebra.gen("a")
    with pytest.raises(AlgebraError, match="different algebras"):
        x + a
    t1, u1 = torus.calculus.theta("t1"), glpq.calculus.theta("t1")
    with pytest.raises(TypeError):
        t1 + u1
    assert (t1 == u1) is False
    g = TensorForm(torus.calculus, {(0, 1): torus.algebra.one()})
    h = TensorForm(glpq.calculus, {(0, 1): glpq.algebra.one()})
    for other in (h, 0, x, t1):
        with pytest.raises(TypeError):
            g + other
        with pytest.raises(TypeError):
            other - g
