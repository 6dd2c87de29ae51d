"""Exact arithmetic in the field Q(p, q, ...) of rational functions.

Coefficients are quotients of Laurent polynomials with rational
coefficients.  No multivariate gcd is attempted: a quotient is normalized by
clearing the denominator's Laurent-monomial content and scaling it monic with
respect to the graded-lexicographic order, and equality is decided by the
cross-multiplication zero test, which is exact in an integral domain.

Arithmetic on values that are already normalized skips the normalization
whose outcome is known.  It relies on this invariant: a denominator with one
term is exactly 1, so a value whose numerator and denominator both have one
term is a Laurent unit ``u = c*p^a*q^b...`` over 1.  Multiplying a normalized
N/D by such a unit needs no trial division: D divides u*N only if it divides
N, u*N divides D only if N does, and D already has no content and leading
coefficient 1, so the product is exactly u*N/D.

A second invariant fixes how each rational coefficient is stored: an
integral one is a Python ``int`` and only one whose denominator is greater
than 1 is a ``fractions.Fraction``; no coefficient is ever a ``float``.
Integral values are the common case (every builtin and generated model has
integer coefficients), and ``int`` arithmetic skips the gcd that every
``Fraction`` operation makes.  A ``Fraction`` result whose denominator is 1
is turned back into an ``int`` (``_exact``), and a quotient of two ints is
taken with ``divmod`` (``_quotient``).  An ``int`` and a ``Fraction`` of the
same value compare and hash equal and print the same, so the stored type
never shows in a result.

Most values the engine meets are over 1: every twist in the paper's setting
scales generators by parameter monomials, so structure constants and
normal-form coefficients are Laurent polynomials over 1, and most factors are
monomials or the constant 1.  The sum and the product of two values over 1
skip normalization: the denominator stays exactly 1, and normalizing N/1
finds a zero content shift and a leading coefficient of 1, so it would store
N as it is.  Products of polynomials by the constant 1 return the other
factor itself (no polynomial is mutated in place), by another constant only
scale the coefficients, and by a monomial with coefficient 1 only shift the
exponent keys.  Each of these builds the terms, in the same dict order, that
the general path builds, so stored forms are unchanged.  A value whose
denominator has more than one term is always normalized, trial divisions
included.

The product of two Laurent units is built as one term: the exponent
vectors added and the coefficients multiplied (an integral product stored
as an int), over the left factor's denominator 1.  The general path gives
that term too, since a unit never renormalizes.  A stored denominator is
already free of content and monic, so a value over it that keeps it needs
neither the content shift nor the monic scale (``_over``).  That is the case
for a sum over an equal denominator and for a product in which one
denominator is 1, whose product denominator is the other one.  Both still
trial-divide as ``__init__`` does: a numerator divisible by the denominator
leaves a value over 1, and a denominator divisible by the numerator leaves a
new denominator, which is then fully normalized.

``str()`` and ``int()`` refuse decimal texts longer than
``sys.get_int_max_str_digits()`` digits.  ``int_text`` and ``parse_int``
convert an int of any size in pieces below that limit, so printing and
parsing never depend on it, and the interpreter-wide limit is left alone.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a pole."""


class ParameterSet:
    """An ordered tuple of parameter names, fixing exponent-vector layout."""

    __slots__ = ("names", "_index", "_one")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter name")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._one = None

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, ParameterSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return "ParameterSet%r" % (self.names,)


# Pieces of at most this many digits convert with str() and int() under any
# setting of sys.set_int_max_str_digits, whose least nonzero limit is 640.
_PIECE_DIGITS = 600


def int_text(n: int) -> str:
    """The decimal text of an int of any size, as str() gives it."""
    try:
        return str(n)
    except ValueError:
        pass
    sign = "-" if n < 0 else ""
    n = abs(n)
    # powers[i] is 10 ** (_PIECE_DIGITS * 2**i); the last exceeds n.
    powers = [10 ** _PIECE_DIGITS]
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def text(n, level, pad):
        # n < powers[level + 1]; with pad, zero-filled to its full width.
        if level < 0:
            return str(n).zfill(_PIECE_DIGITS) if pad else str(n)
        high, low = divmod(n, powers[level])
        if not (high or pad):
            return text(low, level - 1, False)
        return text(high, level - 1, pad) + text(low, level - 1, True)
    return sign + text(n, len(powers) - 2, False)


def parse_int(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return (parse_int(digits[:half]) * 10 ** (len(digits) - half)
            + parse_int(digits[half:]))


def _grlex_key(mono):
    return (sum(mono), mono)


def _exact(value):
    """A rational coefficient as an int when it is integral, else unchanged."""
    return value.numerator if value.denominator == 1 else value


def _quotient(a, b):
    """a / b for stored coefficients, kept to the int-or-Fraction invariant."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _exact(a / b)


def _content(terms: dict) -> list:
    """The componentwise minimum of the exponent vectors of the terms."""
    if len(terms) == 1:
        return list(next(iter(terms)))
    return list(map(min, *terms))


def _demoted(terms: dict) -> dict:
    """The terms, with any integral Fraction coefficient stored as an int."""
    if Fraction in map(type, terms.values()):
        return {m: _exact(c) for m, c in terms.items()}
    return terms


class Polynomial:
    """A Laurent polynomial: dict from exponent vectors to nonzero
    coefficients, each an int or a non-integral Fraction."""

    __slots__ = ("params", "terms")

    def __init__(self, params: ParameterSet, terms=None):
        self.params = params
        clean = {}
        if terms:
            for mono, c in terms.items():
                if c.__class__ is not int:
                    c = _exact(Fraction(c))
                if c:
                    clean[tuple(mono)] = c
        self.terms = clean

    @classmethod
    def _make(cls, params: ParameterSet, terms: dict) -> "Polynomial":
        """Wrap terms that already map tuples to stored coefficients."""
        poly = object.__new__(cls)
        poly.params = params
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, params: ParameterSet, value) -> "Polynomial":
        return cls(params, {(0,) * len(params): value})

    @classmethod
    def variable(cls, params: ParameterSet, name: str, power: int = 1) -> "Polynomial":
        mono = [0] * len(params)
        mono[params.index(name)] = power
        return cls(params, {tuple(mono): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (mono, c), = self.terms.items()
        return c == 1 and not any(mono)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.params == other.params
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.params,
                                {m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        # Only a sum of two coefficients can be an integral Fraction; every
        # other term is stored as it was.
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s if s.__class__ is int else _exact(s)
            else:
                out.pop(m, None)
        return Polynomial._make(self.params, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if len(other.terms) == 1:
            if len(self.terms) == 1 and self.is_one():
                return other
            return self._times_term(other)
        if len(self.terms) == 1:
            return other._times_term(self)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._make(self.params, _demoted(out))

    def _times_term(self, single: "Polynomial") -> "Polynomial":
        """self times a one-term polynomial, in the general product's order.

        A factor of exactly 1 gives self, a constant only scales the
        coefficients, and a monomial with coefficient 1 only shifts the
        exponents, with no products and no demotion.
        """
        (mono, factor), = single.terms.items()
        if factor == 1:
            return self.shift(mono)
        if not any(mono):
            return self.scale(factor)
        return Polynomial._make(self.params, _demoted({
            tuple(map(add, m, mono)): c * factor
            for m, c in self.terms.items()}))

    def scale(self, factor) -> "Polynomial":
        if factor.__class__ is not int:
            factor = _exact(Fraction(factor))
        if not factor:
            return Polynomial(self.params)
        return Polynomial._make(self.params, _demoted(
            {m: c * factor for m, c in self.terms.items()}))

    def shift(self, vector) -> "Polynomial":
        """Multiply by the Laurent monomial with the given exponent vector."""
        if not any(vector):
            return self
        return Polynomial._make(self.params, {
            tuple(map(add, m, vector)): c for m, c in self.terms.items()})

    def leading_monomial(self):
        return max(self.terms, key=_grlex_key)

    def try_exact_divide(self, divisor: "Polynomial"):
        """The quotient when the divisor divides exactly, else None.

        Long division takes one step per degree of the dividend, so after
        as many steps as the two have terms, a failure is first sought at
        the points whose coordinates are all 1, or all 1 but one -1: every
        Laurent monomial is +-1 there, so a divisor that vanishes at one of
        them where the dividend does not cannot divide it.  A divisor with
        no such root, like ``q^2 + 1``, still fails one step per degree.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self
        shift_f = _content(self.terms)
        shift_g = _content(divisor.terms)
        work = {tuple(map(sub, m, shift_f)): c
                for m, c in self.terms.items()}
        g = {tuple(map(sub, m, shift_g)): c
             for m, c in divisor.terms.items()}
        g_lead = max(g, key=_grlex_key)
        g_lc = g[g_lead]
        quotient = {}
        budget = len(self.terms) + len(divisor.terms)
        while work:
            if not budget and _sign_points_refute(self.terms, divisor.terms):
                return None
            budget -= 1
            lead = max(work, key=_grlex_key)
            step = tuple(map(sub, lead, g_lead))
            if any(e < 0 for e in step):
                return None
            c = _quotient(work[lead], g_lc)
            quotient[step] = c
            fractional = c.__class__ is not int
            for m, cg in g.items():
                key = tuple(map(add, step, m))
                s = work.get(key, 0) - c * cg
                if fractional:
                    s = _exact(s)
                if s:
                    work[key] = s
                else:
                    work.pop(key, None)
        back = tuple(map(sub, shift_f, shift_g))
        return Polynomial._make(self.params, quotient).shift(back)

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at a dict of Fraction values, one per parameter."""
        values = [Fraction(point[n]) for n in self.params.names]
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for base, e in zip(values, mono):
                if e:
                    if base == 0 and e < 0:
                        raise PoleError("negative power of zero")
                    v *= base ** e
            total += v
        return total

    def _spelled(self, spell) -> str:
        return spell.polynomial(self)

    def __str__(self) -> str:
        from .render import render_plain  # render imports this module
        return render_plain(self)

    __repr__ = __str__


def _sign_points_refute(dividend: dict, divisor: dict) -> bool:
    """True when the divisor vanishes and the dividend does not at the point
    with every coordinate 1 or at one with a single coordinate -1."""
    def value(terms, i):
        # Coordinate i is -1 (none for i < 0), so only its parity counts.
        return sum(-c if i >= 0 and m[i] & 1 else c for m, c in terms.items())
    return any(value(divisor, i) == 0 and value(dividend, i) != 0
               for i in range(-1, len(next(iter(divisor)))))


def _poly_one(params: ParameterSet) -> Polynomial:
    """The constant 1, built once per parameter set and shared: no
    polynomial is ever mutated in place."""
    one = params._one
    if one is None:
        one = params._one = Polynomial._make(params, {(0,) * len(params): 1})
    return one


class RationalFunction:
    """A quotient of Laurent polynomials in normalized form.

    Normalized means: a zero numerator is stored as 0/1, the denominator has
    no Laurent-monomial content (its componentwise minimum exponent vector is
    zero), and the denominator is monic in the graded-lexicographic order.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        params = num.params
        if den is None:
            den = _poly_one(params)
        if den.params != params:
            raise ValueError("mismatched parameter sets")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = _poly_one(params)
            return
        self.num, self.den = _content_free_monic(*_trial_divided(num, den))

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a numerator and denominator that are already normalized."""
        value = object.__new__(cls)
        value.num = num
        value.den = den
        return value

    @classmethod
    def _over(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num/den for a den that is already normalized, as __init__ stores it.

        The trial divisions are the same; a den they keep is not normalized
        again.
        """
        if num.is_zero():
            return cls._make(num, _poly_one(num.params))
        num, divided = _trial_divided(num, den)
        if divided is not den:
            num, divided = _content_free_monic(num, divided)
        return cls._make(num, divided)

    def _is_unit(self) -> bool:
        """True for a nonzero Laurent monomial c*p^a*q^b... (over 1)."""
        return len(self.num.terms) == 1 and len(self.den.terms) == 1

    @classmethod
    def from_value(cls, params: ParameterSet, value) -> "RationalFunction":
        return cls(Polynomial.constant(params, value))

    @classmethod
    def parameter(cls, params: ParameterSet, name: str, power: int = 1) -> "RationalFunction":
        return cls(Polynomial.variable(params, name, power))

    @property
    def params(self) -> ParameterSet:
        return self.num.params

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num == self.den

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_value(self.params, other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num == other.num and self.den == other.den:
            return True
        return (self.num * other.den - other.num * self.den).is_zero()

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._make(-self.num, self.den)

    def __add__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if len(self.den.terms) == 1 and len(other.den.terms) == 1:
            # Both denominators are exactly 1, and normalizing N/1 would
            # store N as it is (see the module docstring).
            return RationalFunction._make(self.num + other.num, self.den)
        if self.den == other.den:
            return RationalFunction._over(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other.__class__ is not RationalFunction:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        self_over_one = len(self.den.terms) == 1
        other_over_one = len(other.den.terms) == 1
        if other_over_one and len(other.num.terms) == 1:
            if other.num.is_one():
                return self
            if self_over_one and len(self.num.terms) == 1:
                return self._times_unit(other)
            return RationalFunction._make(other.num * self.num, self.den)
        if self_over_one and len(self.num.terms) == 1:
            if self.num.is_one():
                return other
            return RationalFunction._make(self.num * other.num, other.den)
        if self_over_one:
            if other_over_one:
                return RationalFunction._make(self.num * other.num, self.den)
            return RationalFunction._over(self.num * other.num, other.den)
        if other_over_one:
            return RationalFunction._over(self.num * other.num, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def _times_unit(self, unit: "RationalFunction") -> "RationalFunction":
        """self * unit for two Laurent units: one shifted and scaled term."""
        (m1, c1), = self.num.terms.items()
        if c1 == 1 and not any(m1):
            return RationalFunction._make(unit.num, self.den)
        (m2, c2), = unit.num.terms.items()
        c = c1 * c2
        if c.__class__ is not int:
            c = _exact(c)
        return RationalFunction._make(
            Polynomial._make(self.num.params, {tuple(map(add, m1, m2)): c}),
            self.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "RationalFunction":
        if n == 0:
            return RationalFunction.from_value(self.params, 1)
        base = self if n > 0 else self.inverse()
        n = abs(n)
        if n > 1 and base._is_unit():
            # c ** n of an int is an int, and of a non-integral Fraction is
            # a non-integral Fraction, so it is stored as it comes.
            (mono, c), = base.num.terms.items()
            return RationalFunction._make(
                Polynomial._make(self.params,
                                 {tuple(e * n for e in mono): c ** n}),
                base.den)
        out = base
        for _ in range(n - 1):
            out = out * base
        return out

    def evaluate(self, point: dict) -> Fraction:
        """Evaluate at a dict of Fraction values; raises PoleError on poles."""
        den = self.den.evaluate(point)
        if den == 0:
            raise PoleError("evaluation at a pole")
        return self.num.evaluate(point) / den

    def _spelled(self, spell) -> str:
        return spell.rational(self)

    def __str__(self) -> str:
        from .render import render_plain  # render imports this module
        return render_plain(self)

    __repr__ = __str__


def _trial_divided(num: Polynomial, den: Polynomial):
    """num/den as the pair (num, den) after the trial divisions: over 1 when
    den divides num, 1 over the quotient when num divides den, else as is."""
    if len(den.terms) > 1:
        quotient = num.try_exact_divide(den)
        if quotient is not None:
            return quotient, _poly_one(num.params)
        if len(num.terms) > 1:
            quotient = den.try_exact_divide(num)
            if quotient is not None:
                return _poly_one(num.params), quotient
    return num, den


def _content_free_monic(num: Polynomial, den: Polynomial):
    """num/den with the denominator's Laurent-monomial content cleared and
    the denominator scaled monic, as the pair (num, den)."""
    if den is den.params._one:
        return num, den
    shift = _content(den.terms)
    if any(shift):
        back = tuple(-s for s in shift)
        num = num.shift(back)
        den = den.shift(back)
    lc = den.terms[den.leading_monomial()]
    if lc != 1:
        inv = _quotient(1, lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def solve_linear_columns(rows, columns, params: ParameterSet):
    """Solve rows * x = rhs for each right-hand side in columns at once.

    One Gauss-Jordan elimination serves every column.  Its pivots depend on
    rows alone, and each column's entries take the same products and
    differences, in the same order, as a solve of that column by itself,
    so every solution is stored as a one-column solve stores it.  Returns
    one entry per column: (solution, free_columns), with the free variables
    set to zero, or None when that column's system is inconsistent.
    """
    zero = RationalFunction.from_value(params, 0)
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(row) + [col[i] for col in columns] for i, row in enumerate(rows)]
    pivots = []
    col = 0
    row = 0
    while row < m and col < n:
        pivot = None
        for i in range(row, m):
            if not a[i][col].is_zero():
                pivot = i
                break
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
    free = [c for c in range(n) if c not in pivots]
    out = []
    for k in range(n, n + len(columns)):
        if any(not a[i][k].is_zero() for i in range(row, m)):
            out.append(None)
            continue
        solution = [zero] * n
        for r, c in enumerate(pivots):
            solution[c] = a[r][k]
        out.append((solution, free))
    return out


def solve_in_span(candidates, targets, params: ParameterSet):
    """Express each target as a combination of the candidates.

    Candidates and targets are dicts from a coordinate to a value.  The rows
    are the candidates' coordinates, sorted, so one elimination
    (``solve_linear_columns``) serves every target.  Returns one entry per
    target: (solution, free_columns) with one solution entry per candidate,
    or None when the target has a coordinate no candidate has or lies
    outside the span.
    """
    zero = RationalFunction.from_value(params, 0)
    coords = sorted(set().union(*candidates))
    if not coords:
        # every candidate is zero: only a zero target is in the span
        n = len(candidates)
        return [None if target else ([zero] * n, list(range(n)))
                for target in targets]
    rows = [[c.get(coord, zero) for c in candidates] for coord in coords]
    solved = solve_linear_columns(
        rows, [[t.get(coord, zero) for coord in coords] for t in targets],
        params)
    covered = set(coords)
    return [s if covered.issuperset(t) else None
            for t, s in zip(targets, solved)]
