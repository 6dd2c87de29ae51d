import random
from fractions import Fraction

import pytest

from ncdiff.coeff import (ParameterSet, PoleError, Polynomial,
                          RationalFunction, solve_linear)


@pytest.fixture()
def params():
    return ParameterSet(("q", "r"))


def rf(params, name):
    return RationalFunction.parameter(params, name)


def const(params, value):
    return RationalFunction.from_value(params, value)


class TestParameterSet:
    def test_index_and_contains(self, params):
        assert params.index("q") == 0
        assert params.index("r") == 1
        assert "q" in params and "z" not in params
        assert len(params) == 2

    def test_equality_and_hash(self, params):
        other = ParameterSet(("q", "r"))
        assert params == other
        assert hash(params) == hash(other)
        assert params != ParameterSet(("q",))


class TestArithmetic:
    def test_constants(self, params):
        assert str(const(params, 0)) == "0"
        assert str(const(params, Fraction(3, 2))) == "3/2"
        point = {"q": Fraction(1), "r": Fraction(2)}
        assert const(params, 5).evaluate(point) == 5

    def test_sum_and_product(self, params):
        q, r = rf(params, "q"), rf(params, "r")
        value = (q + r) * (q - r)
        assert value == q * q - r * r
        assert str(value) == "q^2 - r^2"

    def test_integer_coercion(self, params):
        q = rf(params, "q")
        assert str(1 - q) == "-q + 1"
        assert str(2 * q) == "2*q"
        assert (q + 0) == q
        assert (q * 1) == q

    def test_negative_powers(self, params):
        q = rf(params, "q")
        cube = q ** -3
        assert str(cube) == "q^-3"
        point = {"q": Fraction(2), "r": Fraction(1)}
        assert cube.evaluate(point) == Fraction(1, 8)
        assert (cube * q ** 3).is_one()

    def test_inverse_of_sum(self, params):
        q = rf(params, "q")
        value = (1 + q).inverse()
        assert (value * (1 + q)).is_one()

    def test_division_and_pow_zero(self, params):
        q, r = rf(params, "q"), rf(params, "r")
        assert ((q / r) * r) == q
        assert (q ** 0).is_one()
        with pytest.raises(ZeroDivisionError):
            q / const(params, 0)


class TestNormalization:
    def test_exact_cancellation(self, params):
        r = rf(params, "r")
        value = (r * r - r) / (r - 1)
        assert str(value) == "r"

    def test_power_cancellation(self, params):
        r = rf(params, "r")
        value = ((r - 1) ** 4) / ((r - 1) ** 3)
        assert str(value) == "r - 1"

    def test_monic_denominator_sign(self, params):
        r = rf(params, "r")
        value = 1 / (1 - r)
        assert str(value) == "-1/(r - 1)"

    def test_sum_collapses_to_one(self, params):
        r = rf(params, "r")
        value = 1 / (1 - r) + r / (r - 1)
        assert value.is_one()

    def test_structural_vs_cross_multiplied_equality(self, params):
        q, r = rf(params, "q"), rf(params, "r")
        left = (q * q - 1) / (q - 1)
        right = q + 1
        assert left == right
        assert (1 - r) / (q * (1 - r) ** 2) == 1 / (q * (1 - r))

    def test_laurent_content_shift(self, params):
        q = rf(params, "q")
        value = q / (q ** 3)
        assert str(value) == "q^-2"


class TestSubstitutionAndEvaluation:
    def test_evaluate_matches_fractions(self, params):
        q, r = rf(params, "q"), rf(params, "r")
        value = (q ** 2 - r) / (q + r)
        point = {"q": Fraction(3, 2), "r": Fraction(1, 3)}
        expected = (Fraction(9, 4) - Fraction(1, 3)) / (Fraction(3, 2)
                                                        + Fraction(1, 3))
        assert value.evaluate(point) == expected

    def test_pole_raises(self, params):
        q, r = rf(params, "q"), rf(params, "r")
        value = q / (q - r)
        with pytest.raises(PoleError):
            value.evaluate({"q": Fraction(2), "r": Fraction(2)})


class TestPolynomial:
    def test_laurent_division_by_monomial(self, params):
        q = Polynomial.variable(params, "q")
        r = Polynomial.variable(params, "r")
        expected = Polynomial.variable(params, "q", 2) * Polynomial.variable(
            params, "r", -1)
        assert (q * q).try_exact_divide(r) == expected

    def test_exact_division_failure_returns_none(self, params):
        q = Polynomial.variable(params, "q")
        one = Polynomial.constant(params, Fraction(1))
        assert (q * q + one).try_exact_divide(q + one) is None

    def test_exact_division_success(self, params):
        q = Polynomial.variable(params, "q")
        one = Polynomial.constant(params, Fraction(1))
        product = (q + one) * (q - one)
        assert product.try_exact_divide(q + one) == q - one

    def test_is_one(self, params):
        assert Polynomial.constant(params, Fraction(1)).is_one()
        assert not Polynomial.variable(params, "q").is_one()


class TestSolveLinear:
    def test_unique_solution(self, params):
        q = rf(params, "q")
        one = const(params, 1)
        zero = const(params, 0)
        rows = [[one, one], [one, -one]]
        rhs = [q, zero]
        solved = solve_linear(rows, rhs, params)
        assert solved is not None
        solution, free = solved
        assert free == []
        assert solution[0] + solution[1] == q
        assert solution[0] - solution[1] == zero

    def test_inconsistent_returns_none(self, params):
        one = const(params, 1)
        zero = const(params, 0)
        rows = [[one, one], [one, one]]
        rhs = [one, zero]
        assert solve_linear(rows, rhs, params) is None

    def test_underdetermined_reports_free_columns(self, params):
        one = const(params, 1)
        rows = [[one, one]]
        rhs = [one]
        solution, free = solve_linear(rows, rhs, params)
        assert free == [1]
        assert solution[0].is_one() and solution[1].is_zero()


def _reference_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Term-by-term product accumulated through the public constructor."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return Polynomial(a.params, out)


class TestFastPathsMatchNormalization:
    """Products and negations agree with full normalization, term for term."""

    PARAMS = ParameterSet(("p", "q", "r"))

    def _monomial(self, rng, low=-2, high=2):
        return tuple(rng.randint(low, high) for _ in range(3))

    def _polynomial(self, rng, size):
        terms = {}
        while len(terms) < size:
            terms[self._monomial(rng, 0, 2)] = Fraction(
                rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        return Polynomial(self.PARAMS, terms)

    def _value(self, rng, pool):
        params = self.PARAMS
        kind = rng.randrange(7)
        if kind == 0:
            return RationalFunction.from_value(params, 0)
        if kind == 1:
            return RationalFunction.from_value(params, rng.choice([1, -1]))
        unit = Polynomial(params, {self._monomial(rng): Fraction(
            rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))})
        if kind == 2:
            return RationalFunction(unit)
        if kind == 3:
            return RationalFunction(unit * self._polynomial(rng, 3))
        if kind == 4:
            return RationalFunction(unit, rng.choice(pool))
        num = unit * rng.choice(pool)
        den = rng.choice(pool)
        if kind == 6:
            den = den * rng.choice(pool)
        return RationalFunction(num, den)

    def _assert_same(self, got, expected):
        assert list(got.num.terms.items()) == list(expected.num.terms.items())
        assert list(got.den.terms.items()) == list(expected.den.terms.items())

    def test_random_pairs(self):
        rng = random.Random(20240611)
        pool = [self._polynomial(rng, rng.randint(2, 3)) for _ in range(4)]
        for _ in range(3000):
            a = self._value(rng, pool)
            b = self._value(rng, pool)
            self._assert_same(a * b, RationalFunction(
                _reference_product(a.num, b.num),
                _reference_product(a.den, b.den)))
            negated = Polynomial(a.params,
                                 {m: -c for m, c in a.num.terms.items()})
            self._assert_same(-a, RationalFunction(negated, a.den))


def _repeated_power(value: RationalFunction, n: int) -> RationalFunction:
    """value ** n by |n| - 1 products, after inverting for n < 0."""
    if n == 0:
        return RationalFunction.from_value(value.params, 1)
    base = value if n > 0 else value.inverse()
    out = base
    for _ in range(abs(n) - 1):
        out = out * base
    return out


class TestUnitPowers:
    """A Laurent unit to the power n matches repeated multiplication."""

    PARAMS = ParameterSet(("p", "q", "r"))

    def _assert_same(self, got, expected):
        assert list(got.num.terms.items()) == list(expected.num.terms.items())
        assert list(got.den.terms.items()) == list(expected.den.terms.items())

    def _unit(self, rng):
        params = self.PARAMS
        if rng.random() < 0.2:
            return RationalFunction.from_value(params, rng.choice([1, -1]))
        mono = tuple(rng.randint(-2, 2) for _ in range(3))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
        return RationalFunction(Polynomial(params, {mono: c}))

    def test_random_units(self):
        rng = random.Random(4401)
        for _ in range(300):
            unit = self._unit(rng)
            n = rng.randint(-60, 60)
            self._assert_same(unit ** n, _repeated_power(unit, n))

    def test_units_skip_products_and_non_units_keep_them(self, monkeypatch):
        params = self.PARAMS
        products = []
        original = RationalFunction.__mul__

        def counting_mul(self, other):
            products.append(1)
            return original(self, other)

        monkeypatch.setattr(RationalFunction, "__mul__", counting_mul)
        unit = RationalFunction(Polynomial(params, {(1, -2, 0): Fraction(-2, 3)}))
        unit ** 40
        unit ** -40
        assert products == []
        q = RationalFunction.parameter(params, "q")
        for base in (q + 1, q / (q + 1)):
            for n in (7, -7):
                del products[:]
                got = base ** n
                assert len(products) == 6
                self._assert_same(got, _repeated_power(base, n))
