import random
from fractions import Fraction

import pytest

from ncdiff.algebra import (Algebra, AlgebraError, Element, GeneratorTable,
                            UnsupportedRelationError, _accumulate,
                            _accumulate_scaled, _join_words,
                            concat_words, deg_lex_key, random_element,
                            single_word, word_degree, word_from_runs,
                            word_letters)
from ncdiff.coeff import ParameterSet, RationalFunction
from ncdiff.dsl import load_model
from ncdiff.render import render_word


@pytest.fixture()
def params():
    return ParameterSet(("q", "r"))


def rf(params, text_or_value):
    if isinstance(text_or_value, str):
        return RationalFunction.parameter(params, text_or_value)
    return RationalFunction.from_value(params, text_or_value)


def torus_algebra(params):
    """x, y invertible with x*y = q*y*x."""
    table = GeneratorTable(("x", "y"), invertible=("x", "y"))
    alg = Algebra(params, table)
    x, y = table.index("x"), table.index("y")
    alg.add_relation(
        {concat_words(single_word(x), single_word(y)): rf(params, 1)},
        {concat_words(single_word(y), single_word(x)): rf(params, "q")})
    return alg


class TestGeneratorTable:
    def test_symbol_layout_with_inverses(self):
        table = GeneratorTable(("a", "b", "c"), invertible=("b",))
        assert table.symbols == ("a", "b", "b^-1", "c")
        assert table.index("b^-1") == 2
        assert table.inverse_index[1] == 2
        assert table.inverse_index[2] == 1
        assert table.base_index[2] == 1
        assert table.is_inverse_symbol(2)
        assert not table.is_inverse_symbol(1)
        assert "b^-1" in table and "d" not in table

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            GeneratorTable(("a", "a"))

    def test_unknown_invertible_rejected(self):
        with pytest.raises(ValueError):
            GeneratorTable(("a",), invertible=("b",))

    def test_equality(self):
        one = GeneratorTable(("a", "b"), invertible=("a",))
        two = GeneratorTable(("a", "b"), invertible=("a",))
        assert one == two and hash(one) == hash(two)
        assert one != GeneratorTable(("a", "b"))


class TestWords:
    def test_run_merging(self):
        assert word_from_runs([(0, 1), (0, 2), (1, 1)]) == ((0, 3), (1, 1))
        assert word_from_runs([(0, 0), (1, 2)]) == ((1, 2),)
        with pytest.raises(ValueError):
            word_from_runs([(0, -1)])

    def test_concat_and_degree(self):
        w = concat_words(single_word(0, 2), single_word(0), single_word(1))
        assert w == ((0, 3), (1, 1))
        assert word_degree(w) == 4
        assert word_letters(w) == (0, 0, 0, 1)

    def test_deg_lex_order(self):
        xy = ((0, 1), (1, 1))
        yx = ((1, 1), (0, 1))
        xxx = ((0, 3),)
        assert deg_lex_key(yx) > deg_lex_key(xy)
        assert deg_lex_key(xxx) > deg_lex_key(yx)

    @pytest.mark.parametrize("seed", range(4))
    def test_deg_lex_key_orders_like_letters(self, seed):
        rng = random.Random(seed)
        n_symbols = rng.choice((2, 3, 5))
        words = [word_from_runs((rng.randrange(n_symbols), rng.randint(1, 3))
                                for _ in range(rng.randint(0, 5)))
                 for _ in range(300)]

        def letter_key(word):
            return (word_degree(word), word_letters(word))

        for a, b in zip(words, reversed(words)):
            for x, y in ((a, b), (b, a), (a, a)):
                assert ((deg_lex_key(x) < deg_lex_key(y))
                        == (letter_key(x) < letter_key(y)))
                assert ((deg_lex_key(x) == deg_lex_key(y))
                        == (letter_key(x) == letter_key(y)))
        assert (sorted(set(words), key=deg_lex_key)
                == sorted(set(words), key=letter_key))

    def test_deg_lex_key_of_a_huge_run(self):
        n = 10 ** 5000
        x_n, x_y = ((0, n),), ((0, n - 1), (1, 1))
        assert deg_lex_key(((1, 2),)) < deg_lex_key(x_n) < deg_lex_key(x_y)


def _is_canonical(word) -> bool:
    """Positive run counts and distinct adjacent symbols."""
    return (all(count > 0 for _, count in word)
            and all(a[0] != b[0] for a, b in zip(word, word[1:])))


class TestJoinWords:
    """Element products join two words by merging only the runs that
    meet, which is what concat_words gives for two canonical words."""

    def _random_word(self, rng, table):
        letters = [rng.randrange(len(table.symbols))
                   for _ in range(rng.choice((0, 0, 1, 2, 4, 7)))]
        return word_from_runs((sym, rng.randint(1, 3)) for sym in letters)

    def test_matches_concat_words(self):
        table = GeneratorTable(("x", "y", "z"), invertible=("x", "z"))
        rng = random.Random(7411)
        merged = empty = inverse = 0
        for _ in range(3000):
            w1 = self._random_word(rng, table)
            w2 = self._random_word(rng, table)
            if w1 and w2 and rng.random() < 0.3:
                # Make the boundary runs share their symbol.
                w2 = ((w1[-1][0], rng.randint(1, 3)),) + w2
                w2 = word_from_runs(w2)
            got = _join_words(w1, w2)
            assert got == concat_words(w1, w2)
            assert _is_canonical(got)
            merged += bool(w1 and w2 and w1[-1][0] == w2[0][0])
            empty += not (w1 and w2)
            inverse += any(table.is_inverse_symbol(s) for s, _ in got)
        assert merged and empty and inverse

    def test_products_on_the_builtins_have_canonical_words(
            self, torus, glpq, glpq_localized):
        rng = random.Random(2718)
        for bundle in (torus, glpq, glpq_localized):
            alg = bundle.algebra
            for _ in range(40):
                a = random_element(alg, rng, max_length=4)
                b = random_element(alg, rng, max_length=4)
                for product in (a * b, b * a, a * a * b):
                    assert all(_is_canonical(w) for w in product.terms)


class TestRewriting:
    def test_relation_orientation(self, params):
        alg = torus_algebra(params)
        y_then_x = concat_words(single_word(alg.table.index("y")),
                                single_word(alg.table.index("x")))
        nf = alg.normal_form_word(y_then_x)
        expected_word = concat_words(single_word(alg.table.index("x")),
                                     single_word(alg.table.index("y")))
        assert set(nf) == {expected_word}
        assert nf[expected_word] == rf(params, "q").inverse()

    def test_double_swap(self, params):
        alg = torus_algebra(params)
        x, y = alg.gen("x"), alg.gen("y")
        q = rf(params, "q")
        assert y * x * x == q ** -2 * x * x * y
        assert y * y * x == q ** -2 * x * y * y

    def test_inverse_symbol_rules_are_derived(self, params):
        alg = torus_algebra(params)
        table = alg.table
        xs, ys = table.index("x"), table.index("y")
        xs_inv, ys_inv = table.inverse_index[xs], table.inverse_index[ys]
        assert {(ys, xs_inv), (ys_inv, xs), (ys_inv, xs_inv)} <= set(alg.rules)
        q = rf(params, "q")
        x_inv = alg.symbol_element(table.index("x^-1"))
        y_inv = alg.symbol_element(table.index("y^-1"))
        x, y = alg.gen("x"), alg.gen("y")
        assert y * x_inv == q * x_inv * y
        assert y_inv * x == q * x * y_inv
        assert y_inv * x_inv == q ** -1 * x_inv * y_inv
        assert x * x_inv == alg.one()
        assert x_inv * x == alg.one()
        assert (y * y_inv).is_one()

    def test_derive_inverse_rules_exposed(self, params):
        alg = torus_algebra(params)
        table = alg.table
        x, y = table.index("x"), table.index("y")
        x_inv, y_inv = table.inverse_index[x], table.inverse_index[y]
        pair = (y, x)
        q_inv = rf(params, "q").inverse()
        rhs = {concat_words(single_word(x), single_word(y)): q_inv}
        derived = dict(alg._conjugated(pair, rhs))
        assert set(derived) == {(y, x_inv), (y_inv, x), (y_inv, x_inv)}
        assert derived[(y_inv, x_inv)] == {
            concat_words(single_word(x_inv), single_word(y_inv)): q_inv}

    def test_unsupported_one_letter_lead(self, params):
        table = GeneratorTable(("x", "y"))
        alg = Algebra(params, table)
        with pytest.raises(UnsupportedRelationError):
            alg.add_relation({single_word(0): rf(params, 1)},
                             {(): rf(params, 1)})

    def test_unsupported_squared_invertible(self, params):
        table = GeneratorTable(("x",), invertible=("x",))
        alg = Algebra(params, table)
        with pytest.raises(UnsupportedRelationError):
            alg.add_relation({single_word(0, 2): rf(params, 1)},
                             {(): rf(params, 1)})

    def test_unsupported_tail_on_invertible_pair(self, params):
        table = GeneratorTable(("x", "y"), invertible=("x", "y"))
        alg = Algebra(params, table)
        x, y = table.index("x"), table.index("y")
        yx = concat_words(single_word(y), single_word(x))
        xy = concat_words(single_word(x), single_word(y))
        with pytest.raises(UnsupportedRelationError):
            alg.add_relation({yx: rf(params, 1)},
                             {xy: rf(params, 1), (): rf(params, 1)})

    def test_trivial_relation_rejected(self, params):
        alg = torus_algebra(params)
        x = alg.table.index("x")
        with pytest.raises(AlgebraError):
            alg.add_relation({single_word(x): rf(params, 1)},
                             {single_word(x): rf(params, 1)})

    def test_verify_relations(self, params):
        assert torus_algebra(params).verify_relations()


class TestElementArithmetic:
    def test_scalars_and_units(self, params):
        alg = torus_algebra(params)
        assert alg.zero().is_zero()
        assert alg.one().is_one()
        assert not alg.gen("x").is_one()
        assert (alg.one() * 5 - 5).is_zero()
        assert alg.scalar(0).is_zero()

    def test_subtraction_cancels(self, params):
        alg = torus_algebra(params)
        x, y = alg.gen("x"), alg.gen("y")
        value = x * y - rf(params, "q") * y * x
        assert value.is_zero()

    def test_power(self, params):
        alg = torus_algebra(params)
        x = alg.gen("x")
        assert (x ** 0).is_one()
        assert x ** 3 == x * x * x
        with pytest.raises(AlgebraError):
            x ** -1

    def test_cross_algebra_rejected(self, params):
        one = torus_algebra(params)
        two = torus_algebra(params)
        with pytest.raises(AlgebraError):
            one.gen("x") + two.gen("x")

    def test_scale_by_zero(self, params):
        alg = torus_algebra(params)
        assert alg.gen("x").scale(0).is_zero()


def _stored_terms(element):
    return [(word, list(c.num.terms.items()), list(c.den.terms.items()))
            for word, c in element.terms.items()]


class TestProductsByOne:
    """A normal-form coefficient of 1 costs no coefficient product."""

    def test_normal_words_take_one_product_per_pair(self, params,
                                                     monkeypatch):
        alg = torus_algebra(params)
        x, y = alg.gen("x"), alg.gen("y")
        q, r = rf(params, "q"), rf(params, "r")
        left = x.scale(q + 1) + (x * x).scale(rf(params, -2))
        right = y.scale(r / (q - 1)) + (y * y * y).scale(q)
        # x^a*y^b is a normal word, so each pair of words maps to one word
        # with coefficient 1, as the product multiplied it before.
        expected = Element(alg, {
            concat_words(w1, w2): (c1 * c2) * alg._one
            for w1, c1 in left.terms.items()
            for w2, c2 in right.terms.items()})
        products = []
        original = RationalFunction.__mul__

        def counting_mul(self, other):
            products.append(1)
            return original(self, other)

        monkeypatch.setattr(RationalFunction, "__mul__", counting_mul)
        got = left * right
        assert len(products) == len(left.terms) * len(right.terms) == 4
        assert _stored_terms(got) == _stored_terms(expected)

    def test_one_over_a_polynomial_is_still_multiplied(self, params):
        q = rf(params, "q")
        inverse = 1 / (q + 1)
        assert inverse.num.is_one()
        terms = {}
        _accumulate_scaled(terms, {(): inverse}, q)
        assert terms == {(): q / (q + 1)}


class TestConfluence:
    def test_torus_is_confluent(self, params):
        assert torus_algebra(params).check_confluence() == []

    def test_duplicate_pair_violation(self, params):
        table = GeneratorTable(("x", "y"))
        alg = Algebra(params, table)
        x, y = table.index("x"), table.index("y")
        yx = concat_words(single_word(y), single_word(x))
        xy = concat_words(single_word(x), single_word(y))
        alg.add_relation({yx: rf(params, 1)}, {xy: rf(params, 2)})
        alg.add_relation({yx: rf(params, 1)}, {xy: rf(params, 3)})
        violations = alg.check_confluence()
        assert any(v.word == (y, x) for v in violations)
        assert not alg.verify_relations()

    def test_overlap_violation(self, params):
        """zx = xz + 1 with yx = 2xy, zy = yz fails on the overlap z*y*x."""
        table = GeneratorTable(("x", "y", "z"))
        alg = Algebra(params, table)
        x, y, z = (table.index(n) for n in "xyz")

        def pair_word(a, b):
            return concat_words(single_word(a), single_word(b))

        alg.add_relation({pair_word(y, x): rf(params, 1)},
                         {pair_word(x, y): rf(params, 2)})
        alg.add_relation({pair_word(z, y): rf(params, 1)},
                         {pair_word(y, z): rf(params, 1)})
        alg.add_relation({pair_word(z, x): rf(params, 1)},
                         {pair_word(x, z): rf(params, 1), (): rf(params, 1)})
        violations = alg.check_confluence()
        assert len(violations) == 1
        violation = violations[0]
        assert violation.word == (z, y, x)
        difference = violation.left - violation.right
        assert difference == -alg.gen("y")

    @pytest.mark.parametrize("build, verdict", [
        (torus_algebra, True),
        (lambda params: load_model(_NON_CONFLUENT).algebra, False)])
    def test_check_caches_the_verdict(self, params, build, verdict,
                                      monkeypatch):
        alg = build(params)
        alg.check_confluence()
        products = []
        original = Element.__mul__

        def counting(a, b):
            products.append(1)
            return original(a, b)

        monkeypatch.setattr(Element, "__mul__", counting)
        assert alg.is_confluent() is verdict
        assert products == []


class TestRendering:
    def test_render_word(self, params):
        alg = torus_algebra(params)
        table = alg.table
        assert render_word(table, ()) == "1"
        x, y = table.index("x"), table.index("y")
        assert render_word(table, ((x, 2), (y, 1))) == "x^2*y"
        x_inv = table.inverse_index[x]
        assert render_word(table, ((x_inv, 3),)) == "x^-3"

    def test_render_element(self, params):
        alg = torus_algebra(params)
        x, y = alg.gen("x"), alg.gen("y")
        q = rf(params, "q")
        assert str(alg.zero()) == "0"
        assert str(alg.one() - q * x * y) == "1 - q * x*y"
        assert str(y * x) == "q^-1 * x*y"
        value = (rf(params, "r") - 1) * x + x * y
        assert str(value) == "(r - 1) * x + x*y"

    def test_str_uses_renderer(self, params):
        alg = torus_algebra(params)
        assert str(alg.gen("x")) == "x"


class TestRandomElements:
    def test_seed_determinism(self, params):
        alg = torus_algebra(params)
        first = random_element(alg, random.Random(42))
        second = random_element(alg, random.Random(42))
        assert (first - second).is_zero()

    def test_elements_are_normalized(self, params):
        alg = torus_algebra(params)
        rng = random.Random(7)
        for _ in range(10):
            value = random_element(alg, rng)
            again = alg.element(dict(value.terms))
            assert again.terms == value.terms


_Q_PLUS_ONE = """model "q-plus-one";
param q;
gen x, y;
rel y*x = (q + 1)*x*y;
"""

_RANK_4 = """model "rank-4";
param q34, q12, q24, q13, q23, q14;
gen x3, x1, x4, x2;
invertible x1, x4;
rel x2*x1 = q12*x1*x2;
rel x3*x1 = q13*x1*x3;
rel x4*x1 = -q14*x1*x4;
rel x3*x2 = q23*x2*x3;
rel x4*x2 = q24*x2*x4;
rel x4*x3 = q34*x3*x4;
"""


class TestLongWords:
    """Chains far past the interpreter's recursion limit."""

    def test_torus_runs(self, torus):
        alg = torus.algebra
        x, y = alg.gen("x"), alg.gen("y")
        q = RationalFunction.parameter(alg.params, "q")
        assert y ** 600 * x ** 600 == q ** -360000 * x ** 600 * y ** 600
        assert (y * x) ** 1000 == q ** -500500 * x ** 1000 * y ** 1000

    def test_non_unit_swap(self):
        alg = load_model(_Q_PLUS_ONE).algebra
        x, y = alg.table.index("x"), alg.table.index("y")
        before = alg.reduction_count
        nf = alg.normal_form_word(((y, 20), (x, 20)))
        assert alg.reduction_count - before == 400
        (word, coeff), = nf.items()
        assert word == ((x, 20), (y, 20))
        assert coeff.evaluate({"q": 1}) == 2 ** 400
        assert coeff.evaluate({"q": 2}) == 3 ** 400


class RecursiveCore:
    """The recursive leftmost reduction that the iterative core replaced.

    Kept as a test oracle: one-letter steps only, with its own memo table.
    """

    def __init__(self, algebra):
        self.algebra = algebra
        self.cache = {}

    def normal_form_word(self, word) -> dict:
        cached = self.cache.get(word)
        if cached is not None:
            return cached
        result = self._reduce_word(word)
        self.cache[word] = result
        return result

    def _reduce_word(self, word) -> dict:
        rules_of = self.algebra.rules
        for i in range(len(word)):
            sym, count = word[i]
            if i > 0:
                prev_sym, prev_count = word[i - 1]
                rules = rules_of.get((prev_sym, sym))
                if rules:
                    prefix = word[:i - 1] + ((prev_sym, prev_count - 1),)
                    suffix = ((sym, count - 1),) + word[i + 1:]
                    return self._splice(rules[0], prefix, suffix)
            if count >= 2:
                rules = rules_of.get((sym, sym))
                if rules:
                    prefix = word[:i]
                    suffix = ((sym, count - 2),) + word[i + 1:]
                    return self._splice(rules[0], prefix, suffix)
        return {word: self.algebra._one}

    def _splice(self, rhs: dict, prefix, suffix) -> dict:
        out = {}
        for mid, c in rhs.items():
            spliced = concat_words(word_from_runs(prefix), mid,
                                   word_from_runs(suffix))
            for w, k in self.normal_form_word(spliced).items():
                _accumulate(out, w, c * k)
        return out


def _random_rule_system(rng):
    """Random rules: unit and non-unit swaps beside degree-lowering rules.

    Most of these systems are not confluent, so a run step that took a
    different path from one-letter leftmost reduction would show.
    """
    params = ParameterSet(("p", "q", "r"))
    n = rng.randint(2, 4)
    alg = Algebra(params, GeneratorTable(tuple("abcd"[:n])))

    def coeff():
        kind = rng.randrange(4)
        if kind == 0:
            return rf(params, rng.choice([1, -1, 2]))
        value = RationalFunction.parameter(params, rng.choice("pqr"),
                                           rng.choice([1, -1, 2]))
        return value + 1 if kind == 3 else value

    shorter = [()] + [single_word(s) for s in range(n)]
    for v in range(n):
        for u in range(n):
            lead = concat_words(single_word(v), single_word(u))
            roll = rng.random()
            if v > u and roll < 0.7:
                rhs = {concat_words(single_word(u), single_word(v)): coeff()}
            elif roll < 0.3:
                rhs = {w: coeff() for w in rng.sample(shorter, 2)}
            else:
                continue
            alg.add_relation({lead: rf(params, 1)}, rhs)
    return alg


def _dump(nf: dict):
    return [(w, list(c.num.terms.items()), list(c.den.terms.items()))
            for w, c in nf.items()]


class TestMatchesRecursiveCore:
    """Same dicts, term for term and in order, as the one-letter core."""

    def _random_word(self, rng, n_symbols, max_runs, max_count):
        return word_from_runs(
            (rng.randrange(n_symbols), rng.randint(1, max_count))
            for _ in range(rng.randint(1, max_runs)))

    def _compare(self, alg, rng, count, max_runs=5, max_count=4):
        oracle = RecursiveCore(alg)
        n_symbols = len(alg.table.symbols)
        alg._nf_cache.clear()
        for i in range(count):
            word = self._random_word(rng, n_symbols, max_runs, max_count)
            if i % 2:
                alg._nf_cache.clear()
                oracle.cache.clear()
            expected = _dump(oracle.normal_form_word(word))
            assert _dump(alg.normal_form_word(word)) == expected, word

    def test_quantum_torus(self, torus):
        self._compare(torus.algebra, random.Random(1), 3000)

    def test_gl_pq2(self, glpq):
        self._compare(glpq.algebra, random.Random(2), 3000, 4, 3)

    def test_gl_pq2_localized(self, glpq_localized):
        self._compare(glpq_localized.algebra, random.Random(3), 3000, 4, 3)

    def test_rank_4(self):
        self._compare(load_model(_RANK_4).algebra, random.Random(4), 3000)

    def test_non_unit_swap(self):
        self._compare(load_model(_Q_PLUS_ONE).algebra, random.Random(5), 3000,
                      4, 3)

    def test_random_rule_systems(self):
        rng = random.Random(6)
        for _ in range(100):
            self._compare(_random_rule_system(rng), rng, 30, 4, 3)


_NON_CONFLUENT = """model "non-confluent";
param q;
gen x, y;
rel x*x = y;
rel y*x = q*x*y;
"""


class TestMonomialPowers:
    """Squared powers of unit monomials against the one-factor loop."""

    # Past this power a base whose powers stopped being unit monomials is
    # dropped: its powers are taken by the loop itself and grow quickly.
    FALLBACK_MAX_N = 6

    def _unit_coefficient(self, params, rng):
        value = RationalFunction.from_value(
            params, rng.choice((1, -1)) * Fraction(rng.randint(1, 3),
                                                   rng.randint(1, 3)))
        for name in params.names:
            value = value * RationalFunction.parameter(params, name,
                                                       rng.randint(-2, 2))
        return value

    def _bases(self, alg, rng, count):
        """Normal-form words of random words, each with a unit coefficient."""
        n_symbols = len(alg.table.symbols)
        bases = []
        while len(bases) < count:
            word = word_from_runs((rng.randrange(n_symbols), rng.randint(1, 3))
                                  for _ in range(rng.randint(1, 3)))
            for nf_word in alg.normal_form_word(word):
                coeff = self._unit_coefficient(alg.params, rng)
                bases.append(Element(alg, {nf_word: coeff}))
        return bases[:count]

    def _compare(self, alg, bases, max_n=70):
        """Compare base**n with repeated * for n in 0..max_n; return how many
        powers were squared and how many fell back to the loop."""
        squared = fallback = 0
        for base in bases:
            linear = alg.one()
            for n in range(max_n + 1):
                assert _dump((base ** n).terms) == _dump(linear.terms), (
                    base, n)
                if n >= 2:
                    if base._squared_power(n) is None:
                        fallback += 1
                        if n >= self.FALLBACK_MAX_N:
                            break
                    else:
                        squared += 1
                linear = linear * base
        return squared, fallback

    def _compare_random(self, alg, seed, *extra):
        return self._compare(alg, self._bases(alg, random.Random(seed), 8)
                             + list(extra))

    def test_quantum_torus(self, torus):
        squared, fallback = self._compare_random(torus.algebra, 11)
        assert squared and not fallback

    def test_gl_pq2(self, glpq):
        alg = glpq.algebra
        # (a*d)^2 picks up the tail of d*a = a*d + ..., so it falls back.
        squared, fallback = self._compare_random(
            alg, 12, alg.gen("a") * alg.gen("d"))
        assert squared and fallback

    def test_gl_pq2_localized(self, glpq_localized):
        squared, _ = self._compare_random(glpq_localized.algebra, 13)
        assert squared

    def test_rank_4(self, repo_module):
        workloads = repo_module("bench/workloads.py")
        alg = load_model(workloads.rank_n_text(4, 14)).algebra
        squared, fallback = self._compare_random(alg, 14)
        assert squared and not fallback

    def test_non_unit_swap_falls_back(self):
        alg = load_model(_Q_PLUS_ONE).algebra
        assert alg.is_confluent()
        _, fallback = self._compare_random(alg, 15)
        assert fallback

    def test_closed_form(self, torus):
        alg = torus.algebra
        x, y = alg.gen("x"), alg.gen("y")
        q = RationalFunction.parameter(alg.params, "q")
        n = 4096
        word = ((alg.table.index("x"), n), (alg.table.index("y"), n))
        expected = Element(alg, {word: q ** -(n * (n + 1) // 2)})
        assert _dump(((y * x) ** n).terms) == _dump(expected.terms)

    def test_non_confluent_keeps_the_loop(self):
        alg = load_model(_NON_CONFLUENT).algebra
        assert not alg.is_confluent()
        x = alg.gen("x")
        assert str(x ** 3) == "q * x*y"
        assert _dump((x ** 3).terms) == _dump((x * x * x).terms)

    def test_confluence_cache_resets_on_new_rule(self):
        params = ParameterSet(("q",))
        alg = Algebra(params, GeneratorTable(("x", "y")))
        xi, yi = alg.table.index("x"), alg.table.index("y")
        alg.add_relation(
            {concat_words(single_word(yi), single_word(xi)): rf(params, 1)},
            {concat_words(single_word(xi), single_word(yi)): rf(params, "q")})
        x = alg.gen("x")
        assert str(x ** 3) == "x^3"
        assert alg.is_confluent()
        alg.add_relation({((xi, 2),): rf(params, 1)},
                         {single_word(yi): rf(params, 1)})
        assert not alg.is_confluent()
        assert str(x ** 3) == "q * x*y"
        assert _dump((x ** 3).terms) == _dump((x * x * x).terms)
