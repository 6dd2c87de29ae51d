"""The coefficient field checked against sympy as an independent oracle.

Random rational functions are built twice, once with ncdiff.coeff and once
with sympy, from the same expression tree.  sympy is needed only here.
"""

import random
from fractions import Fraction

import pytest

from ncdiff.coeff import ParameterSet, PoleError, RationalFunction

sympy = pytest.importorskip("sympy")

NAMES = ("p", "q", "r")
PARAMS = ParameterSet(NAMES)
SYMBOLS = {n: sympy.Symbol(n) for n in NAMES}


def _leaf(rng):
    if rng.random() < 0.6:
        name = rng.choice(NAMES)
        return RationalFunction.parameter(PARAMS, name), SYMBOLS[name]
    value = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    return (RationalFunction.from_value(PARAMS, value),
            sympy.Rational(value.numerator, value.denominator))


def _expression(rng, depth):
    """A pair (ours, sympy's) for one random expression tree."""
    if depth == 0:
        return _leaf(rng)
    op = rng.choice("+-*/^")
    a, sa = _expression(rng, depth - 1)
    if op == "^":
        n = rng.choice([-2, -1, 2, 3])
        if n < 0 and a.is_zero():
            return a, sa
        return a ** n, sa ** n
    b, sb = _expression(rng, rng.randrange(depth))
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    if b.is_zero():
        return a, sa
    return a / b, sa / sb


def _rewritten(rng, value, expr):
    """The same value reached along another path of operations."""
    other, sother = _expression(rng, 2)
    if other.is_zero():
        return value + other, expr + sother
    if rng.random() < 0.5:
        return (value * other) / other, (expr * sother) / sother
    return (value + other) - other, (expr + sother) - sother


def _sympy_value(expr, point):
    num, den = sympy.fraction(sympy.cancel(expr))
    subs = {SYMBOLS[n]: sympy.Rational(v.numerator, v.denominator)
            for n, v in point.items()}
    den_value = den.subs(subs)
    if den_value == 0:
        return None
    value = sympy.Rational(num.subs(subs) / den_value)
    return Fraction(int(value.p), int(value.q))


def test_agrees_with_sympy():
    rng = random.Random(7)
    evaluated = 0
    for _ in range(120):
        x, sx = _expression(rng, 3)
        if rng.random() < 0.5:
            y, sy = _rewritten(rng, x, sx)
        else:
            y, sy = _expression(rng, 3)
        equal = sympy.cancel(sx - sy) == 0
        assert (x == y) == equal
        assert (x - y).is_zero() == equal
        assert x.is_zero() == (sympy.cancel(sx) == 0)
        for _ in range(3):
            point = {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for n in NAMES}
            try:
                ours = x.evaluate(point)
            except PoleError:
                continue
            theirs = _sympy_value(sx, point)
            if theirs is not None:
                assert ours == theirs
                evaluated += 1
    assert evaluated > 200
