import cmath
import decimal
import random
from fractions import Fraction

import pytest

from ncdiff import coeff
from ncdiff.coeff import (ParameterSet, PoleError, Polynomial,
                          RationalFunction, int_text, parse_int,
                          solve_in_span, solve_linear_columns)
from ncdiff.geometry import _invert_matrix


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


class TestInputChecks:
    """Each constructor and division refuses an input it cannot represent."""

    @pytest.mark.parametrize("make,error", [
        pytest.param(lambda p: ParameterSet(("q", "q")), ValueError,
                     id="duplicate-parameter"),
        pytest.param(lambda p: RationalFunction(
            Polynomial.variable(p, "q"), Polynomial.constant(p, 0)),
            ZeroDivisionError, id="zero-denominator"),
        pytest.param(lambda p: RationalFunction(
            Polynomial.variable(p, "q"),
            Polynomial.variable(ParameterSet(("q",)), "q")),
            ValueError, id="mismatched-parameters"),
        pytest.param(lambda p: Polynomial.variable(p, "q").try_exact_divide(
            Polynomial.constant(p, 0)), ZeroDivisionError,
            id="exact-divide-by-zero"),
    ])
    def test_rejected(self, params, make, error):
        with pytest.raises(error):
            make(params)


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
        assert Polynomial(params).try_exact_divide(q + one).is_zero()

    def test_scale_by_zero(self, params):
        q = Polynomial.variable(params, "q")
        for zero in (0, Fraction(0)):
            assert q.scale(zero) == Polynomial(params)

    def test_failing_division_stops_at_a_sign_point(self, params,
                                                    monkeypatch):
        # q - 1 vanishes at q = 1 and q^N + 1 does not, so the division is
        # refuted after a few steps, not one step per degree.
        steps = []
        key = coeff._grlex_key
        monkeypatch.setattr(coeff, "_grlex_key",
                            lambda mono: steps.append(mono) or key(mono))
        q = Polynomial.variable(params, "q")
        one = Polynomial.constant(params, 1)
        big = Polynomial.variable(params, "q", 10 ** 5) + one
        assert big.try_exact_divide(q - one) is None
        for num, den in ((big, q - one), (q - one, big)):
            value = RationalFunction(num, den)
            assert value.num.terms == num.terms
            assert value.den.terms == den.terms
        assert len(steps) < 100
        # A division that succeeds still takes every step.
        power = Polynomial.variable(params, "q", 50)
        quotient = (power - one).try_exact_divide(q - one)
        assert len(quotient.terms) == 50
        assert quotient * (q - one) == power - one

    def test_sign_points_refute_matches_complex_evaluation(self):
        """The refutation agrees with cmath at the all-ones point and at the
        points with one coordinate -1, i, exp(2 pi i/3) or exp(pi i/3), on
        seeded two-variable Laurent polynomials whose divisors carry a
        factor that vanishes at one of those roots."""
        rng = random.Random(20261019)
        roots = [cmath.exp(2j * cmath.pi / n) for n in (2, 4, 3, 6)]
        points = [(1, 1)] + [(z, 1) for z in roots] + [(1, z) for z in roots]
        # q + 1, q^2 + 1, q^2 + q + 1 and q^2 - q + 1 in one variable.
        factors = [{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 1, 1: 1, 2: 1},
                   {0: 1, 1: -1, 2: 1}]

        def rand(terms):
            return {(rng.randint(-5, 5), rng.randint(-5, 5)):
                    rng.choice((-2, -1, 1, 3, Fraction(1, 2)))
                    for _ in range(terms)}

        def times(f, g):
            out = {}
            for m, c in f.items():
                for n, d in g.items():
                    key = (m[0] + n[0], m[1] + n[1])
                    out[key] = out.get(key, 0) + c * d
            return {m: c for m, c in out.items() if c}

        def at(f, point):
            return sum(complex(c) * point[0] ** m[0] * point[1] ** m[1]
                       for m, c in f.items())

        # Refutations found only where a coordinate is a cube or sixth
        # root of unity (points 3, 4, 7 and 8).
        cube_or_sixth_only = 0
        for _ in range(400):
            var = rng.randrange(2)
            factor = {(e, 0) if var == 0 else (0, e): c
                      for e, c in rng.choice(factors).items()}
            divisor = times(rand(rng.randint(1, 2)), factor)
            dividend = rand(rng.randint(1, 4))
            if rng.randrange(3) == 0:
                dividend = times(dividend, factor)
            if not divisor or not dividend:
                continue
            hits = [abs(at(divisor, p)) < 1e-9 < abs(at(dividend, p))
                    for p in points]
            got = coeff._sign_points_refute(dividend, divisor)
            assert got == any(hits), (dividend, divisor)
            if got and not any(hits[:3] + hits[5:7]):
                cube_or_sixth_only += 1
        assert cube_or_sixth_only > 20

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
        solved = solve_linear_columns(rows, [rhs], params)[0]
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
        assert solve_linear_columns(rows, [rhs], params)[0] is None

    def test_underdetermined_reports_free_columns(self, params):
        one = const(params, 1)
        rows = [[one, one]]
        rhs = [one]
        solution, free = solve_linear_columns(rows, [rhs], params)[0]
        assert free == [1]
        assert solution[0].is_one() and solution[1].is_zero()


class TestSolveInSpan:
    def test_rows_are_the_sorted_candidate_coordinates(self, params):
        q = rf(params, "q")
        one = const(params, 1)
        zero = const(params, 0)
        candidates = [{"b": one, "a": q}, {"a": one}]
        targets = [{"a": q + one, "b": one}, {}, {"a": one, "c": one}]
        solved = solve_in_span(candidates, targets, params)
        rows = [[q, one], [one, zero]]
        columns = [[q + one, one], [zero, zero], [one, zero]]
        assert solved[:2] == solve_linear_columns(rows, columns, params)[:2]
        assert solved[0] == ([one, one], [])
        assert solved[2] is None

    def test_target_outside_the_span(self, params):
        one = const(params, 1)
        candidates = [{"a": one, "b": one}]
        assert solve_in_span(candidates, [{"a": one}], params) == [None]

    def test_zero_candidates(self, params):
        one = const(params, 1)
        zero = const(params, 0)
        solved = solve_in_span([{}, {}], [{}, {"a": one}], params)
        assert solved == [([zero, zero], [0, 1]), None]


def _reference_solve(rows, rhs, params):
    """Gauss-Jordan on one right-hand side, the loop each column of
    solve_linear_columns must reproduce: (solution, free) or None."""
    zero = RationalFunction.from_value(params, 0)
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) + [r] for row, r in zip(rows, rhs)]
    pivots = []
    col = row = 0
    while row < m and col < n:
        pivot = next((i for i in range(row, m) if not a[i][col].is_zero()),
                     None)
        if pivot is None:
            col += 1
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = a[row][col].inverse()
        a[row] = [v * inv for v in a[row]]
        for i in range(m):
            if i != row and not a[i][col].is_zero():
                f = a[i][col]
                a[i] = [v - f * w for v, w in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
        col += 1
    if any(not a[i][n].is_zero() for i in range(row, m)):
        return None
    solution = [zero] * n
    for r, c in enumerate(pivots):
        solution[c] = a[r][n]
    return solution, [c for c in range(n) if c not in pivots]


class TestSolveLinearColumns:
    """One elimination with many right-hand sides stores each column's
    solution exactly as a solve of that column alone."""

    PARAMS = ParameterSet(("p", "q", "r"))

    def _value(self, rng):
        params = self.PARAMS
        kind = rng.randrange(5)
        if kind == 0:
            return RationalFunction.from_value(params, 0)
        mono = tuple(rng.randint(-1, 2) for _ in range(3))
        unit = RationalFunction(Polynomial(params, {mono: rng.choice(
            [-2, -1, 1, 3, Fraction(1, 2)])}))
        if kind == 1:
            return unit
        if kind == 2:
            return unit + RationalFunction.from_value(params, rng.choice([1, -1]))
        return unit / (RationalFunction.parameter(params, "pqr"[kind - 3])
                       - RationalFunction.from_value(params, 1))

    def _system(self, rng):
        """Rows with zero rows mixed in and maybe a dependent column, plus
        three right-hand sides: a consistent one, the zero one, and one
        with a nonzero entry in a zero row."""
        params = self.PARAMS
        zero = RationalFunction.from_value(params, 0)
        n = rng.randint(2, 3)
        rows = [[self._value(rng) for _ in range(n)]
                for _ in range(rng.randint(n - 1, n + 1))]
        if rng.random() < 0.5:
            factor = self._value(rng)
            for row in rows:
                row[n - 1] = row[0] * factor
        for _ in range(rng.randint(1, 2)):
            rows.insert(rng.randint(0, len(rows)), [zero] * n)
        x = [self._value(rng) for _ in range(n)]
        image = [sum((a * b for a, b in zip(row, x)), zero) for row in rows]
        blocked = list(image)
        zero_row = next(i for i, row in enumerate(rows)
                        if all(v.is_zero() for v in row))
        blocked[zero_row] = RationalFunction.from_value(params, 1)
        columns = [image, [zero] * len(rows), blocked]
        rng.shuffle(columns)
        return rows, columns, columns.index(blocked)

    @staticmethod
    def _stored(solved):
        if solved is None:
            return None
        solution, free = solved
        return ([(list(v.num.terms.items()), list(v.den.terms.items()))
                 for v in solution], free)

    def test_columns_match_single_solves(self):
        rng = random.Random(20261018)
        params = self.PARAMS
        with_free = 0
        for _ in range(40):
            rows, columns, blocked = self._system(rng)
            together = solve_linear_columns(rows, columns, params)
            assert len(together) == len(columns)
            for k, column in enumerate(columns):
                alone = self._stored(_reference_solve(rows, column, params))
                assert self._stored(together[k]) == alone
                assert (alone is None) == (k == blocked)
            with_free += any(solved and solved[1] for solved in together)
        assert with_free

    def test_no_rows(self):
        params = self.PARAMS
        assert solve_linear_columns([], [[], []], params) == [([], []), ([], [])]

    def test_singular_matrix_has_no_inverse(self):
        params = self.PARAMS
        one = RationalFunction.from_value(params, 1)
        q = RationalFunction.parameter(params, "q")
        assert _invert_matrix([[one, q], [q, q * q]], params) is None
        zero = RationalFunction.from_value(params, 0)
        assert _invert_matrix([[one, zero], [zero, zero]], params) is None
        inverse = _invert_matrix([[one, q], [zero, q]], params)
        assert inverse == [[one, -one], [zero, q.inverse()]]


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


def _reference_sum(a: Polynomial, b: Polynomial) -> Polynomial:
    """Term-by-term sum accumulated through the public constructor."""
    out = dict(a.terms)
    for m, c in b.terms.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return Polynomial(a.params, out)


def _stored(poly: Polynomial):
    """The terms in dict order, with the type of each coefficient."""
    return [(m, c, type(c)) for m, c in poly.terms.items()]


class TestFastPathsOverOne:
    """Sums and products of values over 1, and polynomial products by 1,
    by constants and by coefficient-1 monomials, store what the general
    paths they skip store: the same terms, order and coefficient types."""

    RANKS = (ParameterSet(("p", "q", "r")),
             ParameterSet(tuple("p%d" % i for i in range(11))))
    COEFFS = (1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-3, 7),
              Fraction(5, 3), Fraction(2, 9))

    def _monomial(self, rng, params):
        return tuple(rng.randint(-2, 2) for _ in range(len(params)))

    def _polynomial(self, rng, params, size):
        terms = {}
        while len(terms) < size:
            terms[self._monomial(rng, params)] = rng.choice(self.COEFFS)
        return Polynomial(params, terms)

    def _single(self, rng, params):
        """1, another constant, or a monomial with coefficient 1 or not."""
        kind = rng.randrange(4)
        zero = (0,) * len(params)
        if kind == 0:
            return Polynomial(params, {zero: 1})
        if kind == 1:
            return Polynomial(params, {zero: rng.choice(self.COEFFS[1:])})
        mono = self._monomial(rng, params)
        return Polynomial(params, {mono: 1 if kind == 2
                                   else rng.choice(self.COEFFS)})

    def _pairs(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            params = rng.choice(self.RANKS)
            a = self._polynomial(rng, params, rng.randint(0, 5))
            b = self._polynomial(rng, params, rng.randint(1, 5))
            if rng.random() < 0.3:
                # Shared monomials, so that sums cancel or become integral.
                b = b + a.scale(rng.choice((-1, Fraction(1, 2), 2)))
            yield rng, params, a, b

    def test_products_by_one_term(self):
        for rng, params, poly, _ in self._pairs(90210, 1500):
            single = self._single(rng, params)
            for got in (poly * single, single * poly):
                assert _stored(got) == _stored(
                    _reference_product(poly, single))
            if single.is_one():
                assert poly * single is poly and single * poly is poly

    def test_sums_and_products_over_one(self):
        for _, _, a, b in self._pairs(31337, 1500):
            assert _stored(a + b) == _stored(_reference_sum(a, b))
            if b.is_zero():
                continue
            x, y = RationalFunction(a), RationalFunction(b)
            got, expected = x + y, RationalFunction(x.num + y.num, x.den)
            assert _stored(got.num) == _stored(expected.num)
            assert _stored(got.den) == _stored(expected.den)
            assert got.den.is_one()
            if x.is_zero() or x._is_unit() or y._is_unit():
                continue
            got = x * y
            expected = RationalFunction(x.num * y.num, x.den * y.den)
            assert _stored(got.num) == _stored(expected.num)
            assert _stored(got.den) == _stored(expected.den)

    def test_mix_reaches_every_shape(self):
        """The seeded pairs meet integral sums of Fractions, cancelling
        sums and rank-11 values, so the comparisons above cover them."""
        demoted = cancelled = rank11 = 0
        for _, params, a, b in self._pairs(31337, 1500):
            rank11 += len(params) == 11
            for m, c in b.terms.items():
                s = a.terms.get(m, 0) + c
                cancelled += m in a.terms and not s
                demoted += isinstance(s, Fraction) and s.denominator == 1
        assert demoted and cancelled and rank11

    def test_zero_sum_is_stored_over_one(self):
        params = self.RANKS[0]
        a = RationalFunction(self._polynomial(random.Random(5), params, 3))
        zero = a + (-a)
        assert zero.is_zero() and zero.den.is_one()


class TestValuesOverOneSkipNormalization:
    """Sums and products of quantum-torus coefficients over 1 construct no
    RationalFunction; a sum over q + 1 is still trial-divided."""

    @pytest.fixture()
    def inits(self, monkeypatch):
        calls = []
        original = RationalFunction.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RationalFunction, "__init__", counting_init)
        return calls

    def test_sum_and_product_over_one(self, torus, inits):
        q, r = (RationalFunction.parameter(torus.params, n)
                for n in ("q", "r"))
        a = q * r - r.inverse()
        b = q.inverse() * r + q * q
        del inits[:]
        total, product = a + b, a * b
        assert inits == []
        assert total == RationalFunction(a.num + b.num)
        assert product == RationalFunction(a.num * b.num)
        assert total.den.is_one() and product.den.is_one()

    @pytest.fixture()
    def divisions(self, monkeypatch):
        calls = []
        original = Polynomial.try_exact_divide

        def counting_divide(self, divisor):
            calls.append(1)
            return original(self, divisor)

        monkeypatch.setattr(Polynomial, "try_exact_divide", counting_divide)
        return calls

    def test_sum_over_a_polynomial_normalizes(self, torus, divisions):
        q = RationalFunction.parameter(torus.params, "q")
        one = RationalFunction.from_value(torus.params, 1)
        a, b = q / (q + one), one / (q + one)
        del divisions[:]
        total = a + b
        assert len(divisions) == 1
        assert total.is_one() and total.den.is_one()


class TestConstructorsStoreTheNormalForm:
    """from_value and parameter wrap a constant or a monomial over the
    shared 1 without normalizing, and store what __init__ stores."""

    RANKS = (ParameterSet(("q", "r")), ParameterSet(("p", "q", "r")))
    VALUES = (0, 1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(6, 3),
              10 ** 4400 + 7, -(10 ** 4400 + 7))

    def _assert_stored_as_init(self, got, num):
        expected = RationalFunction(num)
        assert _stored(got.num) == _stored(expected.num)
        assert _stored(got.den) == _stored(expected.den)
        assert got.den is coeff._poly_one(num.params)

    def test_from_value(self):
        for params in self.RANKS:
            for value in self.VALUES:
                self._assert_stored_as_init(
                    RationalFunction.from_value(params, value),
                    Polynomial.constant(params, value))

    def test_parameter(self):
        for params in self.RANKS:
            for name in params.names:
                for power in range(-2, 3):
                    self._assert_stored_as_init(
                        RationalFunction.parameter(params, name, power),
                        Polynomial.variable(params, name, power))


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


def _decimal_digits(n: int) -> str:
    """The decimal text of n, through the decimal module's exact power."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40000
        return str(decimal.Decimal(n))


class TestLongIntegers:
    """Ints of any size convert to and from text, past the digit limit of
    str() and int()."""

    def test_text_and_parse_round_trip(self):
        rng = random.Random(8128)
        for digits in (1, 599, 600, 601, 1199, 1200, 4300, 4301, 5000, 9601,
                       30000):
            text = str(rng.randint(1, 9)) + "".join(
                str(rng.randrange(10)) for _ in range(digits - 1))
            n = parse_int(text)
            assert _decimal_digits(n) == text
            assert int_text(n) == text
            assert int_text(-n) == "-" + text

    def test_powers_of_ten_keep_their_zeros(self):
        for digits in (600, 1200, 2400, 4800, 9600):
            assert int_text(10 ** digits) == "1" + "0" * digits
            assert int_text(10 ** digits - 1) == "9" * digits

    def test_polynomial_prints_long_coefficients_and_exponents(self):
        params = ParameterSet(("q",))
        big = 2 ** 15000
        poly = Polynomial(params, {(big,): Fraction(-1, 3 ** 3000),
                                   (0,): big})
        assert str(poly) == "-1/%s*q^%s + %s" % (
            _decimal_digits(3 ** 3000), _decimal_digits(big),
            _decimal_digits(big))
