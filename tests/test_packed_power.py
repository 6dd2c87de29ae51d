"""Powers with packed exponents against the factor-by-factor loop.

``Element.__pow__`` takes a power whose coefficients, and every rule
coefficient, are Laurent polynomials over 1 in ``_packed_power``, unless
its base is one word that the closed form or squaring serves.  The loop
below, one element product per factor, is what every other base still
takes, and it is the reference: the packed power must store what the loop
stores, the same words in the same order and the same coefficient terms in
the same order, int or ``Fraction`` alike.  Where the run-pair tables accept
the rules the products come from the tables, confluent or not, and on any
other algebra from rewriting; both must store the loop's terms.  Each kind
of step is covered: a product added shifted and scaled (a single-term
base coefficient times a single-term product coefficient), through
``_packed_product`` where either has several terms, a word that cancels
and comes back within a step, and a packing outgrown at the first step and
later.
"""

import random
from fractions import Fraction

import pytest

from ncdiff import algebra
from ncdiff.algebra import Element
from ncdiff.coeff import ParameterSet, Polynomial, RationalFunction
from ncdiff.dsl import load_model

from test_closed_form import stored

_QUOTIENT_SWAP = """model "quotient-swap";
param q;
gen x, y, z;
rel y*x = (q/(q + 1))*x*y;
rel z*x = q*x*z;
"""

# Whole words cancel: (x + y)^2 is 2 + y^2.  In the powers of x + 2*y + y^2
# and of 2*y^2 - 2*y - 2, a word cancels and comes back within one product,
# where it then stands after the words that stayed.
_SQUARE = """model "square";
param q;
gen x, y;
rel x*x = 2;
rel y*x = -x*y;
"""


# Rules over 1, and not confluent.
_NOT_CONFLUENT = """model "not-confluent";
param q;
gen x, y;
rel x*x = y;
rel y*x = q*x*y;
"""

# gl-pq2 with a fifth generator e that scales a*d and b*c alike, so its
# swaps with d and a put the tail rule d*a inside the overlap e*d*a.
_GL_FIVE = """model "gl-five";
param p, q;
gen a, b, c, d, e;
invertible b, c;
rel a*b = p*b*a;
rel a*c = q*c*a;
rel b*c = (q/p)*c*b;
rel b*d = q*d*b;
rel c*d = p*d*c;
rel a*d = d*a + (p - 1/q)*b*c;
rel e*a = q*a*e;
rel e*b = p*b*e;
rel e*c = q*c*e;
rel e*d = p*d*e;
"""


def loop_power(x: Element, n: int) -> Element:
    """x**n as one element product per factor."""
    out = x.algebra.one()
    for _ in range(n):
        out = out * x
    return out


@pytest.fixture
def packed_calls(monkeypatch):
    """The exponents of the calls to Element._packed_power, in order."""
    calls = []
    packed_power = Element._packed_power

    def counted(self, n):
        calls.append(n)
        return packed_power(self, n)
    monkeypatch.setattr(Element, "_packed_power", counted)
    return calls


@pytest.fixture(params=["glpq", "glpq_localized", "torus", "rank4"])
def bundle(request, repo_module):
    if request.param == "rank4":
        workloads = repo_module("bench/workloads.py")
        return load_model(workloads.rank_n_text(4, 4004))
    return request.getfixturevalue(request.param)


def coefficients(params):
    """Ints, Fractions, Laurent monomials with either, and two-term sums."""
    def value(v):
        return RationalFunction.from_value(params, v)
    numbers = [value(v) for v in (2, -3, Fraction(3, 2), Fraction(-2, 3))]
    monomials = [RationalFunction.parameter(params, name, e) * c
                 for name in params.names for e in (1, -2)
                 for c in (value(1), value(Fraction(-1, 2)))]
    sums = [value(1) + monomials[0], monomials[-1] - value(3)]
    if len(params) > 1:
        sums.append(monomials[0] - monomials[-2])
    return numbers + monomials + sums


def seeded_bases(alg, seed: int, count: int):
    """(base, n) pairs: sums of 2-4 generators or two-letter words, each
    with a coefficient of the pool, and powers 2-8 (at most 5 for a base
    of four terms, whose loop is the slowest)."""
    rng = random.Random(seed)
    pool = coefficients(alg.params)
    gens = [alg.symbol_element(s) for s in range(len(alg.table.symbols))]
    out = []
    while len(out) < count:
        x = alg.zero()
        for _ in range(rng.randint(2, 4)):
            word = rng.choice(gens)
            if rng.random() < 0.25:
                word = word * rng.choice(gens)
            x = x + rng.choice(pool) * word
        if len(x.terms) > 1:
            out.append((x, rng.randint(2, 5 if len(x.terms) > 3 else 8)))
    return out


def test_seeded_powers_store_the_loop_terms(bundle, packed_calls):
    alg = bundle.algebra
    for x, n in seeded_bases(alg, 33, 24):
        assert stored((x ** n).terms) == stored(loop_power(x, n).terms), (
            str(x), n)
    assert len(packed_calls) == 24


def test_expansion_of_the_benchmark(glpq, packed_calls):
    x = glpq.eval_expression("3*a + c + 2*b + 2*d")
    assert stored((x ** 6).terms) == stored(loop_power(x, 6).terms)
    assert packed_calls == [6]


@pytest.mark.parametrize("expr,n,term", [
    ("q^100000000000*a + d", 3, "q^300000000000 * a^3"),
    ("q^-100000000000*b + c + a", 4, "q^-400000000000 * b^4"),
])
def test_huge_exponents_widen_the_fields(glpq, packed_calls, expr, n, term):
    x = glpq.eval_expression(expr)
    value = glpq.eval_expression("(%s)^%d" % (expr, n))
    assert packed_calls == [n]
    assert stored(value.terms) == stored(loop_power(x, n).terms)
    assert term in str(value).split(" + ")


@pytest.fixture
def packings(monkeypatch):
    """The bounds of the packings that powers make, in order."""
    made = []
    init = algebra._Packing.__init__

    def counted(self, size, bound):
        made.append(bound)
        init(self, size, bound)
    monkeypatch.setattr(algebra._Packing, "__init__", counted)
    return made


# A step adds each product in one pass, shifted and scaled where the base
# coefficient and the product coefficient each have one term, and from
# _packed_product where either has several: a Fraction coefficient; a
# multi-term base coefficient in the same step as single-term ones; a
# multi-letter base word; the multi-term coefficient that the tail rule d*a
# gives; and a power whose exponents outgrow the packing at its first step,
# and at its eighth.
@pytest.mark.parametrize("expr,n,repacks", [
    ("1/2*a + d", 5, 2),
    ("1/2*a + (q + 1)*d - b*c", 4, 1),
    ("(q + 1)*d + 2*b - c", 4, 1),
    ("b*c + a - 3*d", 5, 2),
    ("q^1000*a + d", 6, 1),
    ("q^1000*a + d", 9, 2),
])
def test_each_shape_of_a_step_stores_the_loop_terms(glpq, packed_calls,
                                                    packings, expr, n,
                                                    repacks):
    x = glpq.eval_expression(expr)
    value = x ** n
    assert packed_calls == [n] and len(packings) == 1 + repacks
    assert stored(value.terms) == stored(loop_power(x, n).terms)


def test_cancelled_words_come_back_last(packed_calls):
    alg = load_model(_SQUARE).algebra
    x, y = alg.gen("x"), alg.gen("y")
    assert str((x + y) ** 2) == "2 + y^2"
    for base in (x + y, x + 2 * y + y * y, 2 * y * y - 2 * y - 2):
        for n in range(2, 7):
            assert stored((base ** n).terms) == stored(
                loop_power(base, n).terms), (str(base), n)
    assert packed_calls == [2] + [2, 3, 4, 5, 6] * 3


def test_a_denominator_takes_the_loop(glpq, packed_calls):
    alg = load_model(_QUOTIENT_SWAP).algebra
    x, z = alg.gen("x"), alg.gen("z")
    for base in (x + z, alg.gen("y") + 2 * x):
        assert stored((base ** 4).terms) == stored(loop_power(base, 4).terms)
    assert packed_calls == []
    # A base coefficient with a denominator takes the loop as well.
    base = glpq.eval_expression("a/(q + 1) + d")
    assert stored((base ** 3).terms) == stored(loop_power(base, 3).terms)
    assert packed_calls == []


def test_a_non_confluent_algebra_is_rewritten(packed_calls, run_tables):
    alg = load_model(_NOT_CONFLUENT, verify=False).algebra
    x, y = alg.gen("x"), alg.gen("y")
    bases = (x + y, 2 * x - 3 * y + x * y, x * x + 2 * y * x)
    for base in bases:
        for n in range(2, 7):
            assert stored((base ** n).terms) == stored(
                loop_power(base, n).terms), (str(base), n)
    assert packed_calls == list(range(2, 7)) * len(bases)
    assert alg._confluent is None and alg._layout is False
    assert run_tables == []


def test_a_multi_term_product_cancels_a_word(glpq, packed_calls):
    """In the square of 1 + k*b*c + d + a with k = (p - 1/q)/2, the products
    1*(b*c) and (b*c)*1 give b*c the coefficient 2*k, and d*a then adds
    -(p - 1/q) by its multi-term tail coefficient, which cancels the word."""
    x = glpq.eval_expression("1 + (p - 1/q)/2*b*c + d + a")
    for n in (2, 3, 4):
        assert stored((x ** n).terms) == stored(loop_power(x, n).terms), n
    assert packed_calls == [2, 3, 4]
    b, c = glpq.algebra.table.index("b"), glpq.algebra.table.index("c")
    assert ((b, 1), (c, 1)) not in (x ** 2).terms


def test_a_tail_rule_inside_an_overlap(packed_calls, run_tables):
    alg = load_model(_GL_FIVE).algebra
    for x, n in seeded_bases(alg, 34, 24):
        assert stored((x ** n).terms) == stored(loop_power(x, n).terms), (
            str(x), n)
    assert len(packed_calls) == 24
    assert alg.check_confluence() == [] and len(run_tables) == 24


def test_a_single_word_base_is_packed(glpq, torus, packed_calls):
    """A one-word base that neither the closed form nor squaring takes is
    packed: a*d, whose square picks up the tail of d*a, and one-word bases
    whose coefficient is a sum."""
    bases = [glpq.eval_expression(e) for e in ("a*d", "(1 + q)*a*d")]
    bases.append(torus.eval_expression("(1 + q)*x*y"))
    for x in bases:
        for n in range(2, 7):
            assert stored((x ** n).terms) == stored(loop_power(x, n).terms), (
                str(x), n)
    assert packed_calls == list(range(2, 7)) * len(bases)


def test_packed_products_store_the_polynomial_products():
    """Seeded Laurent polynomials of one term and of many, with int and
    Fraction coefficients and negative exponents, and products whose sums
    cancel: ``_packed_product`` stores the terms of ``Polynomial.__mul__``,
    in order, int or ``Fraction`` alike."""
    params = ParameterSet(("p", "q"))
    rng = random.Random(48)
    numbers = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))

    def polynomial():
        return Polynomial(params, {
            (rng.randint(-1, 1), rng.randint(-2, 1)): rng.choice(numbers)
            for _ in range(rng.choice((1, 1, 2, 3, 6)))})

    def signs_flipped(a):
        return Polynomial(params, {m: c * rng.choice((1, -1))
                                   for m, c in a.terms.items()})
    pairs = [(polynomial(), polynomial()) for _ in range(200)]
    # (t1 + t2)*(t1 - t2) and the like: the cross terms cancel.
    pairs += [(a, signs_flipped(a))
              for a in [polynomial() for _ in range(100)]]
    packing = algebra._Packing(len(params), 4)
    cancelled = 0
    for a, b in pairs:
        product = packing.unpacked(algebra._packed_product(
            packing.pack(a.terms), packing.pack(b.terms)))
        want = (a * b).terms
        assert [(m, c, type(c)) for m, c in product.items()] == [
            (m, c, type(c)) for m, c in want.items()], (a, b)
        cancelled += len(want) < len({tuple(map(sum, zip(ma, mb)))
                                      for ma in a.terms for mb in b.terms})
    assert cancelled >= 20
