"""The int-or-Fraction coefficient kernel against Fraction-only arithmetic.

``FractionPolynomial`` and ``FractionRationalFunction`` keep the coefficient
arithmetic as it was before integral coefficients were stored as ints: every
coefficient is a ``Fraction``, with the same normalization and the same order
of operations.  They subclass the live classes only to share their printing,
equality and hashing.  A seeded random mix of ``+``, ``-``, ``*``, ``/`` and
``**`` is run through both, and every result must store the same terms in the
same order and print the same text.
"""

import random
from fractions import Fraction

import pytest

from ncdiff import coeff
from ncdiff.coeff import ParameterSet, Polynomial, RationalFunction
from ncdiff.render import latex_value


class FractionPolynomial(Polynomial):
    __slots__ = ()

    def __init__(self, params, terms=None):
        self.params = params
        clean = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def constant(cls, params, value):
        return cls(params, {(0,) * len(params): Fraction(value)})

    @classmethod
    def variable(cls, params, name, power=1):
        mono = [0] * len(params)
        mono[params.index(name)] = power
        return cls(params, {tuple(mono): Fraction(1)})

    def __neg__(self):
        return FractionPolynomial._make(self.params,
                                        {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return FractionPolynomial._make(self.params, out)

    def __mul__(self, other):
        if len(self.terms) == 1 or len(other.terms) == 1:
            poly, single = ((self, other) if len(other.terms) == 1
                            else (other, self))
            (mono, factor), = single.terms.items()
            return FractionPolynomial._make(self.params, {
                tuple(a + b for a, b in zip(m, mono)): c * factor
                for m, c in poly.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return FractionPolynomial._make(self.params, out)

    def scale(self, factor):
        factor = Fraction(factor)
        if not factor:
            return FractionPolynomial(self.params)
        return FractionPolynomial._make(
            self.params, {m: c * factor for m, c in self.terms.items()})

    def shift(self, vector):
        if not any(vector):
            return self
        return FractionPolynomial._make(self.params, {
            tuple(a + b for a, b in zip(m, vector)): c
            for m, c in self.terms.items()})

    def try_exact_divide(self, divisor):
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        n = len(self.params)
        shift_f = [min(m[i] for m in self.terms) for i in range(n)]
        shift_g = [min(m[i] for m in divisor.terms) for i in range(n)]
        work = {tuple(a - b for a, b in zip(m, shift_f)): c
                for m, c in self.terms.items()}
        g = {tuple(a - b for a, b in zip(m, shift_g)): c
             for m, c in divisor.terms.items()}
        g_lead = max(g, key=coeff._grlex_key)
        g_lc = g[g_lead]
        quotient = {}
        while work:
            lead = max(work, key=coeff._grlex_key)
            step = tuple(a - b for a, b in zip(lead, g_lead))
            if any(e < 0 for e in step):
                return None
            c = work[lead] / g_lc
            quotient[step] = c
            for m, cg in g.items():
                key = tuple(a + b for a, b in zip(step, m))
                s = work.get(key, 0) - c * cg
                if s:
                    work[key] = s
                else:
                    work.pop(key, None)
        back = tuple(a - b for a, b in zip(shift_f, shift_g))
        return FractionPolynomial._make(self.params, quotient).shift(back)


def _fraction_one(params):
    return FractionPolynomial.constant(params, 1)


class FractionRationalFunction(RationalFunction):
    __slots__ = ()

    def __init__(self, num, den=None):
        params = num.params
        if den is None:
            den = _fraction_one(params)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = _fraction_one(params)
            return
        if len(den.terms) > 1:
            quotient = num.try_exact_divide(den)
            if quotient is not None:
                num = quotient
                den = _fraction_one(params)
            elif len(num.terms) > 1:
                quotient = den.try_exact_divide(num)
                if quotient is not None:
                    num = _fraction_one(params)
                    den = quotient
        shift = [min(m[i] for m in den.terms) for i in range(len(params))]
        if any(shift):
            back = tuple(-s for s in shift)
            num = num.shift(back)
            den = den.shift(back)
        lc = den.terms[den.leading_monomial()]
        if lc != 1:
            inv = 1 / lc
            num = num.scale(inv)
            den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def from_value(cls, params, value):
        return cls(FractionPolynomial.constant(params, value))

    @classmethod
    def parameter(cls, params, name, power=1):
        return cls(FractionPolynomial.variable(params, name, power))

    def _coerce(self, other):
        if isinstance(other, FractionRationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionRationalFunction.from_value(self.params, other)
        return None

    def __neg__(self):
        return FractionRationalFunction._make(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return FractionRationalFunction(self.num + other.num, self.den)
        return FractionRationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        if other._is_unit():
            unit, value = other, self
        elif self._is_unit():
            unit, value = self, other
        else:
            return FractionRationalFunction(self.num * other.num,
                                            self.den * other.den)
        if unit.num.is_one():
            return value
        return FractionRationalFunction._make(unit.num * value.num, value.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return FractionRationalFunction(self.den, self.num)

    def __pow__(self, n):
        if n == 0:
            return FractionRationalFunction.from_value(self.params, 1)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        if n > 1 and base._is_unit():
            (mono, c), = base.num.terms.items()
            return FractionRationalFunction._make(
                FractionPolynomial._make(self.params,
                                         {tuple(e * n for e in mono): c ** n}),
                base.den)
        out = base
        for _ in range(n - 1):
            out = out * base
        return out


BIG = 2 ** 400
CONSTANTS = [1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 4),
             BIG, -BIG + 1, Fraction(BIG, 3), Fraction(-3, BIG + 1)]


def _atoms(params, rng):
    """Matching (live, oracle) pairs: each parameter, inverse parameters,
    constants, and small linear forms with negative leading coefficients."""
    atoms = []
    for name in params.names:
        atoms.append((RationalFunction.parameter(params, name),
                      FractionRationalFunction.parameter(params, name)))
    for value in CONSTANTS:
        atoms.append((RationalFunction.from_value(params, value),
                      FractionRationalFunction.from_value(params, value)))
    for _ in range(6):
        name = rng.choice(params.names)
        a, b = rng.choice([-3, -2, -1, 2, 5]), rng.choice(CONSTANTS)
        atoms.append((RationalFunction.parameter(params, name, -1) * a + b,
                      FractionRationalFunction.parameter(params, name, -1)
                      * a + b))
    return atoms


def _size(value):
    return len(value.num.terms) + len(value.den.terms)


def _bits(value):
    return max(max(Fraction(c).numerator.bit_length(),
                   Fraction(c).denominator.bit_length())
               for c in _stored(value))


def _random_results(params, seed, steps):
    """Matching (live, oracle) results of a seeded random mix of operations."""
    rng = random.Random(seed)
    pool = _atoms(params, rng)
    results = list(pool)
    for _ in range(steps):
        (a, fa), (b, fb) = rng.choice(pool), rng.choice(pool)
        op = rng.choice("+-*/^c")
        if op == "+":
            pair = (a + b, fa + fb)
        elif op == "-":
            pair = (a - b, fa - fb)
        elif op == "*":
            pair = (a * b, fa * fb)
        elif op in "/c" and b.is_zero():
            continue
        elif op == "/":
            pair = (a / b, fa / fb)
        elif op == "c":
            # A numerator over a factor of it that is not monic: the exact
            # division steps divide by that factor's leading coefficient.
            pair = (RationalFunction(a.num * b.num, b.num),
                    FractionRationalFunction(fa.num * fb.num, fb.num))
        else:
            n = rng.choice([-3, -2, -1, 2, 3])
            if _size(a) > 5 or (n < 0 and a.is_zero()):
                continue
            pair = (a ** n, fa ** n)
        results.append(pair)
        # Keep operands small enough that every result prints (str of an
        # int is limited to 4300 digits).
        if _size(pair[0]) <= 10 and _bits(pair[0]) <= 2000:
            pool.append(pair)
    return results


PARAMETER_SETS = {
    "rank3": ParameterSet(("p", "q", "r")),
    "rank11": ParameterSet(tuple("q%d" % i for i in range(1, 12))),
}


@pytest.fixture(params=sorted(PARAMETER_SETS))
def params(request):
    return PARAMETER_SETS[request.param]


def _stored(value):
    return list(value.num.terms.values()) + list(value.den.terms.values())


class TestMatchesFractionArithmetic:
    def test_random_mix(self, params, monkeypatch):
        divisions = []
        original = coeff._quotient

        def recording_quotient(a, b):
            divisions.append((a, b))
            return original(a, b)

        monkeypatch.setattr(coeff, "_quotient", recording_quotient)
        results = _random_results(params, 808, 500)
        for got, expected in results:
            assert (list(got.num.terms.items())
                    == list(expected.num.terms.items()))
            assert (list(got.den.terms.items())
                    == list(expected.den.terms.items()))
            assert str(got) == str(expected)
            assert latex_value(got) == latex_value(expected)
            assert all(type(c) is Fraction for c in _stored(expected))
        stored = [c for got, _ in results for c in _stored(got)]
        # The mix reaches the cases the kernel treats apart.
        assert any(type(c) is Fraction for c in stored)
        assert any(type(c) is int and abs(c) > 2 ** 64 for c in stored)
        assert any(type(a) is int and type(b) is int and b < 0
                   for a, b in divisions)
        assert any(type(a) is int and type(b) is int and b not in (1, -1)
                   and a % b == 0 for a, b in divisions)
        assert any(len(got.den.terms) > 1 for got, _ in results)


class TestStoredCoefficients:
    def test_int_or_non_integral_fraction(self, params):
        for got, _ in _random_results(params, 909, 300):
            for c in _stored(got):
                assert not isinstance(c, float)
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator > 1)

    def test_fraction_and_int_inputs_are_one_polynomial(self, params):
        mono = (1,) + (0,) * (len(params) - 1)
        from_fraction = Polynomial(params, {mono: Fraction(3)})
        from_int = Polynomial(params, {mono: 3})
        assert from_fraction == from_int
        assert hash(from_fraction) == hash(from_int)
        assert type(from_fraction.terms[mono]) is int
        assert type(Polynomial.constant(params, Fraction(6, 2))
                    .terms[(0,) * len(params)]) is int
        assert (Polynomial.constant(params, Fraction(1, 2)).scale(2)
                .terms[(0,) * len(params)]).__class__ is int

    def test_negative_leading_coefficient(self):
        params = PARAMETER_SETS["rank3"]
        q = RationalFunction.parameter(params, "q")
        value = 1 / (-3 * q + 1)
        assert str(value) == "-1/3/(q - 1/3)"
        assert value.evaluate({"p": 1, "q": 2, "r": 1}) == Fraction(-1, 5)
        assert value * (-3 * q + 1) == 1
        assert [type(c) for c in _stored(value)] == [Fraction, int, Fraction]

    def test_exact_quotient_is_an_int(self):
        params = PARAMETER_SETS["rank3"]
        q = RationalFunction.parameter(params, "q")
        value = (2 * q + 2) / (q + 1)
        assert str(value) == "2"
        assert value == 2
        assert value.num.terms == {(0, 0, 0): 2}
        assert type(value.num.terms[(0, 0, 0)]) is int
        assert value.den.is_one()
