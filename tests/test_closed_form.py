"""Closed-form normal forms and powers against step-by-step rewriting.

On a q-commuting algebra whose confluence verdict is cached,
``Algebra.normal_form_word`` and unit-monomial powers are taken in closed
form.  ``Algebra.normal_form_by_rewriting`` is the leftmost reduction that
every other algebra still uses, kept callable as the reference: each closed
form must store what it stores, the same words in the same order and the
same coefficient terms, int or ``Fraction`` alike.
"""

import random
from fractions import Fraction

import pytest

from ncdiff.algebra import Element, _accumulate_scaled, _ClosedForm, \
    _join_words, word_from_runs
from ncdiff.coeff import RationalFunction
from ncdiff.dsl import load_model
from ncdiff.models import build_quantum_torus, model_source


def stored(terms: dict):
    """Every word of a normal form with its coefficient's stored terms, in
    order, coefficient types included."""
    return [(word, [[(m, c, type(c)) for m, c in poly.terms.items()]
                    for poly in (coeff.num, coeff.den)])
            for word, coeff in terms.items()]


def rewritten_product(a: Element, b: Element) -> Element:
    """a * b with every pair of words rewritten step by step."""
    alg = a.algebra
    out = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            _accumulate_scaled(
                out, alg.normal_form_by_rewriting(_join_words(w1, w2)),
                c1 * c2)
    return Element(alg, out)


def rank_n_text(n: int, seed: int) -> str:
    """A rank-n quantum space x_j*x_i = q_ij*x_i*x_j, its generators and
    parameters declared in a seeded order, half the generators invertible."""
    rng = random.Random(seed)
    gens = ["x%d" % i for i in range(1, n + 1)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    params = ["q%d%d" % pair for pair in pairs]
    declared = gens[:]
    rng.shuffle(declared)
    rng.shuffle(params)
    lines = ['model "rank-%d";' % n,
             "param %s;" % ", ".join(params),
             "gen %s;" % ", ".join(declared),
             "invertible %s;"
             % ", ".join(sorted(rng.sample(gens, n // 2 + 1)))]
    for i, j in pairs:
        lines.append("rel x%d*x%d = q%d%d*x%d*x%d;" % (j, i, i, j, i, j))
    return "\n".join(lines) + "\n"


# Swap constants with rational factors: -2*q and q/2, and their inverses on
# the inverse symbols, so coefficients are ints and Fractions of both signs.
_SCALED = """model "scaled";
param q;
gen x, y, z;
invertible x, z;
rel y*x = -2*q*x*y;
rel z*x = q/2*x*z;
rel z*y = y*z;
"""

_FREE_PAIR = """model "free-pair";
param q;
gen x, y, z;
rel y*x = q*x*y;
"""

_Q_PLUS_ONE = """model "q-plus-one";
param q;
gen x, y;
rel y*x = (q + 1)*x*y;
"""

_SQUARE = """model "square";
param q;
gen x, y;
rel x*x = 2;
rel y*x = -x*y;
"""


def _closed(text):
    alg = load_model(text).algebra
    assert alg.is_confluent()
    assert alg._closed_form is not None
    return alg


def _q_commuting():
    yield "quantum-torus", _closed(model_source("quantum-torus"))
    for n in (3, 4, 5):
        yield "rank-%d" % n, _closed(rank_n_text(n, 100 + n))
    yield "scaled", _closed(_SCALED)


Q_COMMUTING = dict(_q_commuting())


def random_word(rng, alg, max_runs=6, max_count=4):
    n_symbols = len(alg.table.symbols)
    return word_from_runs((rng.randrange(n_symbols), rng.randint(1, max_count))
                          for _ in range(rng.randint(0, max_runs)))


def unit_coefficient(params, rng):
    value = RationalFunction.from_value(
        params, rng.choice((1, -1)) * Fraction(rng.randint(1, 3),
                                               rng.randint(1, 3)))
    for name in params.names:
        value = value * RationalFunction.parameter(params, name,
                                                   rng.randint(-2, 2))
    return value


@pytest.mark.parametrize("name", sorted(Q_COMMUTING))
class TestOracle:
    def test_words(self, name):
        alg = Q_COMMUTING[name]
        rng = random.Random(name)
        for _ in range(1500):
            word = random_word(rng, alg)
            assert (stored(alg.normal_form_word(word))
                    == stored(alg.normal_form_by_rewriting(word))), word
        assert alg._closed_form is not None

    def test_products(self, name):
        alg = Q_COMMUTING[name]
        rng = random.Random(name + "products")
        for _ in range(200):
            a = alg.element({random_word(rng, alg, 3): unit_coefficient(
                alg.params, rng) for _ in range(rng.randint(1, 3))})
            b = alg.element({random_word(rng, alg, 3): unit_coefficient(
                alg.params, rng) for _ in range(rng.randint(1, 3))})
            assert stored((a * b).terms) == stored(
                rewritten_product(a, b).terms)

    def test_powers(self, name):
        alg = Q_COMMUTING[name]
        rng = random.Random(name + "powers")
        for _ in range(6):
            word = random_word(rng, alg, 4, 3)
            (word, _), = alg.normal_form_word(word).items()
            base = Element(alg, {word: unit_coefficient(alg.params, rng)})
            linear = base
            for n in range(2, 65):
                linear = rewritten_product(linear, base)
                assert stored((base ** n).terms) == stored(linear.terms), (
                    base, n)

    def test_table(self, name):
        alg = Q_COMMUTING[name]
        table = alg.table
        bases = [table.index(g) for g in table.base_names]
        assert sorted(alg._closed_form.swaps) == sorted(
            (h, b) for b in bases for h in bases if h > b)
        for (h, b), c in alg._closed_form.swaps.items():
            (word, coeff), = alg.normal_form_by_rewriting(
                ((h, 1), (b, 1))).items()
            assert word == ((b, 1), (h, 1)) and coeff == c


def test_scaled_swap_constants():
    alg = Q_COMMUTING["scaled"]
    index = alg.table.index
    q = RationalFunction.parameter(alg.params, "q")
    swaps = alg._closed_form.swaps
    assert swaps[index("y"), index("x")] == -2 * q
    assert swaps[index("z"), index("x")] == q / 2
    assert swaps[index("z"), index("y")].is_one()
    # y*x^-1 = -1/(2q) * x^-1*y, three times over.
    (word, coeff), = alg.normal_form_word(
        ((index("y"), 1), (index("x^-1"), 3))).items()
    assert word == ((index("x^-1"), 3), (index("y"), 1))
    assert stored({word: coeff}) == stored(
        {word: RationalFunction.from_value(alg.params, Fraction(-1, 8))
         * q ** -3})


def q_commuting_text(rng, index: int) -> str:
    """A seeded q-commuting presentation: 2-5 generators declared in a
    shuffled order, a random invertible subset, and on every pair a swap
    constant c*p^a*q^b with c in {1, -1, 2, 3/2} and a, b in -2..2."""
    n = rng.randint(2, 5)
    gens = ["x%d" % i for i in range(1, n + 1)]
    declared = gens[:]
    rng.shuffle(declared)
    lines = ['model "q-commuting-%d";' % index, "param p, q;",
             "gen %s;" % ", ".join(declared)]
    invertible = rng.sample(gens, rng.randint(0, n))
    if invertible:
        lines.append("invertible %s;" % ", ".join(sorted(invertible)))
    for i in range(n):
        for j in range(i + 1, n):
            lines.append("rel %s*%s = %s*p^%d*q^%d*%s*%s;" % (
                gens[j], gens[i], rng.choice(("1", "-1", "2", "3/2")),
                rng.randint(-2, 2), rng.randint(-2, 2), gens[i], gens[j]))
    return "\n".join(lines) + "\n"


def test_gate_accepts_random_q_commuting_presentations():
    """``_ClosedForm.of`` accepts each presentation before any verdict, and
    each is confluent: the gate alone implies confluence."""
    rng = random.Random(24)
    for index in range(150):
        text = q_commuting_text(rng, index)
        alg = load_model(text, verify=False).algebra
        assert _ClosedForm.of(alg) is not None, text
        assert alg.check_confluence() == [], text


def _fallback_words(alg, seed, count=300):
    """Compare products against rewriting; return the reductions taken."""
    rng = random.Random(seed)
    before = alg.reduction_count
    for _ in range(count):
        a = alg.element({random_word(rng, alg, 3, 3): unit_coefficient(
            alg.params, rng)})
        b = alg.element({random_word(rng, alg, 3, 3): unit_coefficient(
            alg.params, rng)})
        assert stored((a * b).terms) == stored(rewritten_product(a, b).terms)
    return alg.reduction_count - before


class TestFallBack:
    """Algebras that fail the gate keep step-by-step rewriting."""

    @pytest.mark.parametrize("text", [_FREE_PAIR, _Q_PLUS_ONE, _SQUARE],
                             ids=["free-pair", "q-plus-one", "square"])
    def test_not_q_commuting(self, text):
        alg = load_model(text).algebra
        assert _ClosedForm.of(alg) is None
        assert alg.is_confluent()
        assert alg._closed_form is None
        assert _fallback_words(alg, text) > 0

    def test_non_unit_swap_reductions(self):
        alg = load_model(_Q_PLUS_ONE).algebra
        assert alg.is_confluent() and alg._closed_form is None
        x, y = alg.table.index("x"), alg.table.index("y")
        before = alg.reduction_count
        alg.normal_form_word(((y, 20), (x, 20)))
        assert alg.reduction_count - before == 400

    def test_gl_pq2(self, glpq, glpq_localized):
        for bundle in (glpq, glpq_localized):
            alg = bundle.algebra
            assert alg.is_confluent()
            assert alg._closed_form is None
            assert _fallback_words(alg, bundle.name, 100) > 0
            a, d = alg.gen("a"), alg.gen("d")
            assert stored(((d * a) ** 3).terms) == stored(
                rewritten_product(rewritten_product(d * a, d * a),
                                  d * a).terms)

    def test_before_the_verdict(self):
        alg = build_quantum_torus().algebra
        assert alg._confluent is None and alg._closed_form is None
        assert _fallback_words(alg, "before", 50) > 0
        assert alg._closed_form is None
        assert alg.is_confluent() and alg._closed_form is not None

    def test_rules_changed_clears(self):
        alg = load_model(model_source("quantum-torus")).algebra
        assert alg.is_confluent() and alg._closed_form is not None
        alg.rules_changed()
        assert alg._confluent is None and alg._closed_form is None
        assert _fallback_words(alg, "rules_changed", 50) > 0
        assert alg.is_confluent() and alg._closed_form is not None

    def test_cancel_by_two(self):
        # x*x^-1 -> 2 and x^-1*x -> 2 still close every overlap with the
        # torus swaps, but x^-1 is then twice the inverse of x.
        alg = load_model(model_source("quantum-torus")).algebra
        x, x_inv = alg.table.index("x"), alg.table.index("x^-1")
        two = {(): RationalFunction.from_value(alg.params, 2)}
        alg.rules[x, x_inv] = [two]
        alg.rules[x_inv, x] = [two]
        alg.rules_changed()
        assert alg.is_confluent() and alg._closed_form is None
        assert _fallback_words(alg, "cancel", 100) > 0
        (word, coeff), = alg.normal_form_word(((x, 2), (x_inv, 3))).items()
        assert word == ((x_inv, 1),) and coeff == 4

    def test_add_relation_clears(self):
        alg = load_model(_FREE_PAIR).algebra
        assert alg.is_confluent() and alg._closed_form is None
        x, y, z = (alg.table.index(g) for g in "xyz")
        one = RationalFunction.from_value(alg.params, 1)
        alg.add_relation({((z, 1), (x, 1)): one}, {((x, 1), (z, 1)): one})
        alg.add_relation({((z, 1), (y, 1)): one}, {((y, 1), (z, 1)): one})
        assert alg.is_confluent() and alg._closed_form is not None
        alg.add_relation({((x, 2),): one}, {((y, 1),): one})
        assert alg._confluent is None and alg._closed_form is None
        assert not alg.is_confluent() and alg._closed_form is None


def _torus_shapes(rng):
    """The expression shapes of the nf-torus benchmark, with their q power
    and word."""
    kind = rng.randrange(3)
    n, m = rng.randint(2, 200), rng.randint(2, 200)
    if kind == 0:
        return "(y*x)^%d" % n, -n * (n + 1) // 2, "x^%d*y^%d" % (n, n)
    if kind == 1:
        return "y^%d*x^%d" % (n, m), -n * m, "x^%d*y^%d" % (m, n)
    return "x^-%d*y^%d*x^%d" % (m, n, m), -n * m, "y^%d" % n


class TestWarmSession:
    """A warm torus session rewrites nothing and memoizes no word."""

    def test_session(self):
        bundle = build_quantum_torus()
        alg = bundle.algebra
        assert alg.is_confluent()
        assert not alg._nf_cache
        before = alg.reduction_count
        rng = random.Random(17)
        for _ in range(500):
            expr, power, word = _torus_shapes(rng)
            assert str(bundle.eval_expression(expr)) == "q^%d * %s" % (
                power, word)
        assert not alg._nf_cache
        assert alg.reduction_count == before

    @pytest.mark.parametrize("n", ["9" * 40, "1" + "0" * 39])
    def test_huge_conjugation(self, n):
        bundle = build_quantum_torus()
        alg = bundle.algebra
        assert alg.is_confluent()
        before = alg.reduction_count
        value = bundle.eval_expression("x^%s * y * x^-%s" % (n, n))
        assert str(value) == "q^%s * y" % n
        value = bundle.eval_expression("x^-%s * y^%s * x^%s" % (n, n, n))
        assert str(value) == "q^-%d * y^%s" % (int(n) ** 2, n)
        assert alg.reduction_count == before
        assert not alg._nf_cache
