"""Fast paths against the general paths they skip, on stored forms.

Each fast path must store what the general path stores: the same words and
exponent vectors, in the same dict order, with the same int-or-Fraction
coefficients.  The references below are the general paths written out:
letter-by-letter images under a twist, the pairwise element product with
every pair rewritten step by step, subtraction as adding the negation, and
the full ``RationalFunction`` constructor.
"""

import random
from fractions import Fraction

import pytest

from ncdiff.algebra import Element, _accumulate_scaled, _join_words
from ncdiff.coeff import (ParameterSet, Polynomial, RationalFunction,
                          _content)
from ncdiff.dsl import load_model
from ncdiff.morphism import Endomorphism, MorphismError

from test_algebra import sized_random_element


def stored(value):
    """Everything a value stores, in order, coefficient types included."""
    if isinstance(value, Element):
        return [(word, stored(c)) for word, c in value.terms.items()]
    return tuple([(m, c, type(c)) for m, c in poly.terms.items()]
                 for poly in (value.num, value.den))


def general_product(a: Element, b: Element) -> Element:
    """The pairwise product, every pair rewritten step by step."""
    alg = a.algebra
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            _accumulate_scaled(
                out, alg.normal_form_by_rewriting(_join_words(w1, w2)),
                c1 * c2)
    return Element(alg, out)


def letter_image(endo: Endomorphism, x: Element) -> Element:
    """phi(x) as a sum of products of the letters' images."""
    alg = endo.algebra
    out = alg.zero()
    for word, coeff in x.terms.items():
        image = alg.one()
        for sym, count in word:
            for _ in range(count):
                image = general_product(image, endo.images[sym])
        out = out + image.scale(coeff)
    return out


@pytest.fixture(scope="module")
def rank4(repo_module):
    workloads = repo_module("bench/workloads.py")
    return load_model(workloads.rank_n_text(4, 4004))


@pytest.fixture(params=["torus", "glpq", "glpq_localized", "rank4"])
def bundle(request):
    return request.getfixturevalue(request.param)


def _coefficients(params, rng):
    """Units, polynomials over 1 and values over a polynomial."""
    names = params.names
    units = [RationalFunction.parameter(params, n, rng.choice((-2, -1, 1, 3)))
             * Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 1, 2)))
             for n in names]
    one = RationalFunction.from_value(params, 1)
    out = list(units)
    for _ in range(6):
        a, b, c = (rng.choice(units) for _ in range(3))
        out.append(a + b)
        out.append((a + one) / (b - c + 2))
    return out


def _elements(bundle, rng, count):
    alg = bundle.algebra
    pool = _coefficients(alg.params, rng)
    out = []
    for _ in range(count):
        x = sized_random_element(alg, rng, 4, 4)
        out.append(Element(alg, {w: c * rng.choice(pool)
                                 for w, c in x.terms.items()}))
    return out


class TestTwists:
    def test_builtin_twists_are_diagonal(self, bundle):
        twists = bundle.calculus.twists.values()
        # A twist is diagonal exactly when its inverse builds.
        assert twists and all(t.inverse() is not None for t in twists)

    def test_diagonal_apply_matches_letter_products(self, bundle):
        rng = random.Random(len(bundle.algebra.table.symbols))
        xs = _elements(bundle, rng, 25)
        for twist in bundle.calculus.twists.values():
            for x in xs:
                assert stored(twist.apply(x)) == stored(letter_image(twist, x))

    def test_long_runs_match_letter_products(self, bundle):
        # A run whose letter scales by a unit takes one power of the scale.
        alg = bundle.algebra
        runs = [alg.symbol_element(sym) ** 37
                for sym in range(len(alg.table.symbols))]
        for twist in bundle.calculus.twists.values():
            for x in runs:
                assert stored(twist.apply(x)) == stored(letter_image(twist, x))

    def test_non_diagonal_apply_matches_letter_products(self, torus):
        alg = torus.algebra
        rng = random.Random(99)
        x, y = alg.gen("x"), alg.gen("y")
        q = RationalFunction.parameter(alg.params, "q")
        swap = Endomorphism(alg, {"x": y.scale(q), "y": x}, "swap")
        with pytest.raises(MorphismError):
            swap.inverse()
        for value in _elements(torus, rng, 25):
            assert stored(swap.apply(value)) == stored(letter_image(swap,
                                                                    value))

    def test_relation_words_match_letter_products(self, bundle):
        # Relation words need not be in normal form; a diagonal twist
        # normalizes each word times its scale.  Only the value counts here.
        alg = bundle.algebra
        for twist in bundle.calculus.twists.values():
            for lhs, rhs in alg.relations:
                for terms in (lhs, rhs):
                    assert twist._apply_free(terms) == letter_image(
                        twist, Element(alg, dict(terms)))
            assert twist.respects_relations()


class TestElementArithmetic:
    def test_scalar_products_match_the_general_loop(self, bundle):
        alg = bundle.algebra
        rng = random.Random(17)
        pool = _coefficients(alg.params, rng)
        for x in _elements(bundle, rng, 25):
            s = alg.scalar(rng.choice(pool))
            assert stored(s * x) == stored(general_product(s, x))
            assert stored(x * s) == stored(general_product(x, s))

    def test_products_match_the_general_loop(self, bundle):
        rng = random.Random(18)
        xs = _elements(bundle, rng, 20)
        for a, b in zip(xs, reversed(xs)):
            assert stored(a * b) == stored(general_product(a, b))

    def test_difference_matches_adding_the_negation(self, bundle):
        rng = random.Random(19)
        xs = _elements(bundle, rng, 20)
        cancelled = 0
        for a, b in zip(xs, reversed(xs)):
            for left, right in ((a, b), (a, a), (a + b, b)):
                got = left - right
                assert stored(got) == stored(left + (-right))
                cancelled += len(got.terms) < len(left.terms)
        assert cancelled


class TestCoefficients:
    PARAMS = ParameterSet(("p", "q", "r"))

    def _unit(self, rng):
        mono = tuple(rng.randint(-3, 3) for _ in self.PARAMS.names)
        c = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 4),
                        Fraction(4, 3)))
        return RationalFunction(Polynomial(self.PARAMS, {mono: c}))

    def _polynomial(self, rng, terms):
        return Polynomial(self.PARAMS, {
            tuple(rng.randint(-2, 2) for _ in self.PARAMS.names):
                rng.choice((1, -1, 2, 3, Fraction(1, 3)))
            for _ in range(terms)})

    def test_unit_times_unit(self):
        rng = random.Random(5)
        integral = 0
        for _ in range(2000):
            a, b = self._unit(rng), self._unit(rng)
            got = a * b
            assert stored(got) == stored(RationalFunction(a.num * b.num,
                                                          a.den * b.den))
            (c,) = got.num.terms.values()
            integral += type(c) is int and any(
                type(v) is Fraction
                for v in (*a.num.terms.values(), *b.num.terms.values()))
        assert integral

    def test_values_over_a_known_denominator(self):
        rng = random.Random(6)
        divided = kept = new_den = 0
        for _ in range(600):
            den = self._polynomial(rng, rng.randint(2, 3))
            a = RationalFunction(self._polynomial(rng, rng.randint(1, 3)), den)
            if len(a.den.terms) == 1:
                continue
            shape = rng.randrange(3)
            if shape == 0:
                # A sum that the denominator divides.
                b = RationalFunction(a.den * self._polynomial(rng, 2)
                                     - a.num, a.den)
            elif shape == 1:
                b = RationalFunction(self._polynomial(rng, 2), a.den)
            else:
                b = RationalFunction(self._polynomial(rng, 2))
            if b.den == a.den:
                total = a + b
                assert stored(total) == stored(
                    RationalFunction(a.num + b.num, a.den))
                divided += total.den.is_one()
                kept += not total.den.is_one()
            if len(b.den.terms) == 1:
                for left, right in ((a, b), (b, a)):
                    got = left * right
                    assert stored(got) == stored(RationalFunction(
                        left.num * right.num, left.den * right.den))
            # A product whose denominator the numerator divides, leaving a
            # new denominator with content.
            c = RationalFunction(self._polynomial(rng, 1) * a.den)
            d = RationalFunction(Polynomial.constant(self.PARAMS, 1),
                                 a.den * a.den * self._polynomial(rng, 1))
            for left, right in ((c, d), (d, c)):
                got = left * right
                new_den += got.den == a.den
                assert stored(got) == stored(RationalFunction(
                    left.num * right.num, left.den * right.den))
        assert divided and kept and new_den

    def test_content_matches_per_index_minima(self):
        rng = random.Random(7)
        for n in (0, 1, 3, 11):
            for size in (1, 2, 5):
                terms = {tuple(rng.randint(-4, 4) for _ in range(n)): 1
                         for _ in range(size)}
                assert _content(terms) == [min(m[i] for m in terms)
                                           for i in range(n)]


class TestElementsAreNormal:
    """Products by a lone scalar keep words as they are, so every element
    must hold normal words, even one built by inverting a generator power
    whose inverse letters rewrite."""

    TEXT = """model "inverse-square";
param q;
gen x, y;
invertible x;
rel x^-1*x^-1 = q*y;
"""

    def test_inverted_power_is_normalized(self):
        bundle = load_model(self.TEXT)
        q = RationalFunction.parameter(bundle.params, "q")
        y = bundle.algebra.gen("y")
        for text, expected in (("(x^2)^-1", y.scale(q)),
                               ("(x^2)^-1 * 2", y.scale(q * 2)),
                               ("2 * (x^2)^-1", y.scale(q * 2))):
            value = bundle.eval_expression(text)
            assert stored(value) == stored(expected)
