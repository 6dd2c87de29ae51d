import random

import pytest

from ncdiff.algebra import (Algebra, GeneratorTable, concat_words,
                            random_element, single_word)
from ncdiff.coeff import ParameterSet, RationalFunction
from ncdiff.morphism import Endomorphism, MorphismError, TwistedDerivation


@pytest.fixture()
def params():
    return ParameterSet(("q", "r"))


def rf(params, name):
    return RationalFunction.parameter(params, name)


@pytest.fixture()
def alg(params):
    table = GeneratorTable(("x", "y"), invertible=("x", "y"))
    out = Algebra(params, table)
    x, y = table.index("x"), table.index("y")
    out.add_relation(
        {concat_words(single_word(x), single_word(y)):
         RationalFunction.from_value(params, 1)},
        {concat_words(single_word(y), single_word(x)): rf(params, "q")})
    return out


def scaling_endo(alg, factors, name=None):
    images = {g: alg.gen(g).scale(c) for g, c in factors.items()}
    return Endomorphism(alg, images, name)


@pytest.fixture()
def phi1(alg, params):
    r_inv = rf(params, "r").inverse()
    return scaling_endo(alg, {"x": r_inv, "y": r_inv}, "phi1")


@pytest.fixture()
def phi2(alg, params):
    one = RationalFunction.from_value(params, 1)
    return scaling_endo(alg, {"x": one, "y": rf(params, "r").inverse()},
                        "phi2")


class TestEndomorphism:
    def test_apply_scales_words(self, alg, phi1, params):
        r = rf(params, "r")
        x, y = alg.gen("x"), alg.gen("y")
        assert phi1.apply(x * y) == r ** -2 * x * y
        assert phi1(x + 2) == r ** -1 * x + 2

    def test_inverse_symbol_images_are_forced(self, alg, phi1, params):
        x_inv_sym = alg.table.index("x^-1")
        x_inv = alg.symbol_element(x_inv_sym)
        assert phi1.images[x_inv_sym] == rf(params, "r") * x_inv
        assert phi1.apply(x_inv) * phi1.apply(alg.gen("x")) == alg.one()

    def test_missing_image_rejected(self, alg):
        with pytest.raises(MorphismError):
            Endomorphism(alg, {"x": alg.gen("x")})

    def test_unknown_generator_rejected(self, alg):
        with pytest.raises(MorphismError):
            Endomorphism(alg, {"x": alg.gen("x"), "y": alg.gen("y"),
                               "z": alg.one()})

    def test_non_element_image_rejected(self, alg):
        with pytest.raises(MorphismError):
            Endomorphism(alg, {"x": 1, "y": alg.gen("y")})

    def test_invertible_image_must_be_monomial(self, alg):
        with pytest.raises(MorphismError):
            Endomorphism(alg, {"x": alg.gen("x") + 1, "y": alg.gen("y")})

    def test_invertible_image_needs_invertible_symbols(self, params):
        table = GeneratorTable(("x", "z"), invertible=("x",))
        plain = Algebra(params, table)
        with pytest.raises(MorphismError):
            Endomorphism(plain, {"x": plain.gen("z"), "z": plain.gen("z")})

    def test_respects_relations(self, phi1, phi2):
        assert phi1.respects_relations()
        assert phi2.respects_relations()

    def test_swap_breaks_relations(self, alg):
        swap = Endomorphism(alg, {"x": alg.gen("y"), "y": alg.gen("x")},
                            "swap")
        assert not swap.respects_relations()

    def test_diagonal_scaling(self, alg, phi1, params):
        # The inverse of a diagonal map scales each generator by c_g^-1;
        # a map that is not diagonal has none.
        inv = phi1.inverse()
        r = rf(params, "r")
        assert inv.apply(alg.gen("x")) == alg.gen("x").scale(r)
        assert inv.apply(alg.gen("y")) == alg.gen("y").scale(r)
        swap = Endomorphism(alg, {"x": alg.gen("y"), "y": alg.gen("x")})
        with pytest.raises(MorphismError):
            swap.inverse()
        plain = Algebra(params, GeneratorTable(("x", "y")))
        shifted = Endomorphism(plain, {"x": plain.gen("x") + 1,
                                       "y": plain.gen("y")})
        with pytest.raises(MorphismError):
            shifted.inverse()

    def test_inverse_roundtrip(self, alg, phi1, params):
        inv = phi1.inverse()
        assert inv.name == "phi1^-1"
        assert inv is phi1.inverse()
        for name in ("x", "y"):
            g = alg.gen(name)
            assert phi1.apply(inv.apply(g)) == g
            assert inv.apply(phi1.apply(g)) == g
        x = random_element(alg, random.Random(5))
        assert phi1.apply(inv.apply(x)) == x == inv.apply(phi1.apply(x))
        assert inv.apply(alg.gen("x")) == rf(params, "r") * alg.gen("x")

    def test_inverse_of_non_diagonal_rejected(self, alg):
        swap = Endomorphism(alg, {"x": alg.gen("y"), "y": alg.gen("x")})
        with pytest.raises(MorphismError):
            swap.inverse()

    def test_apply_rejects_foreign_element(self, params, alg, phi1):
        other = Algebra(params, GeneratorTable(("x", "y")))
        with pytest.raises(MorphismError):
            phi1.apply(other.gen("x"))


class TestTwistedDerivation:
    def test_leibniz_on_generators(self, alg, phi1):
        e = TwistedDerivation(phi1, alg.gen("x"))
        assert e.leibniz_defect(alg.gen("x"), alg.gen("y")).is_zero()
        assert e.leibniz_defect(alg.gen("y"), alg.gen("x")).is_zero()

    def test_leibniz_on_random_pairs(self, alg, phi1, phi2):
        rng = random.Random(3)
        derivations = [TwistedDerivation(phi1, alg.gen("x")),
                       TwistedDerivation(phi2, alg.one()),
                       TwistedDerivation(phi2, alg.gen("y") * alg.gen("x"))]
        for _ in range(20):
            u = random_element(alg, rng)
            v = random_element(alg, rng)
            for e in derivations:
                assert e.leibniz_defect(u, v).is_zero()

    def test_law_fails_with_wrong_twist(self, alg, phi1, phi2):
        e = TwistedDerivation(phi1, alg.gen("x"))
        u, v = alg.gen("y"), alg.gen("x")
        left = e.apply(u * v)
        wrong = e.apply(u) * phi2.apply(v) + u * e.apply(v)
        assert left != wrong

    def test_weight_from_other_algebra_rejected(self, params, alg, phi1):
        other = Algebra(params, GeneratorTable(("x", "y")))
        with pytest.raises(MorphismError):
            TwistedDerivation(phi1, other.gen("x"))

    def test_value_formula(self, alg, phi1, params):
        weight = alg.gen("x")
        e = TwistedDerivation(phi1, weight)
        y = alg.gen("y")
        expected = weight * phi1.apply(y) - y * weight
        assert e.apply(y) == expected
        assert e(y) == expected
