import random

import pytest

from ncdiff import coeff, models
from ncdiff.algebra import random_element
from ncdiff.calculus import (Calculus, CalculusError, DerivedRelation,
                             InexpressibleError, MissingThetaRuleError)
from ncdiff.coeff import RationalFunction
from ncdiff.dsl import load_model


def rf(alg, value):
    return RationalFunction.from_value(alg.params, value)


def r_inv(alg):
    return RationalFunction.parameter(alg.params, "r").inverse()


@pytest.fixture()
def calc(torus):
    return torus.calculus


@pytest.fixture()
def alg(torus):
    return torus.algebra


def torus_rules(alg):
    return {("t1", "t1"): [], ("t2", "t2"): [],
            ("t2", "t1"): [(rf(alg, -1), ("t1", "t2"))]}


class TestThetaRewriting:
    def test_normalize_square_to_zero(self, calc):
        assert calc.normalize_thetas((0, 0)) == ()
        assert calc.normalize_thetas((1, 1)) == ()

    def test_normalize_descent(self, calc, alg):
        result = calc.normalize_thetas((1, 0))
        assert result == (((0, 1), rf(alg, -1)),)

    def test_normalize_ascending_is_fixed(self, calc, alg):
        assert calc.normalize_thetas((0, 1)) == (((0, 1), rf(alg, 1)),)

    def test_triple_vanishes(self, calc):
        assert calc.normalize_thetas((1, 0, 1)) == ()

    def test_missing_rule_raises(self, torus, alg):
        partial = Calculus(alg, ("t1", "t2"), dict(torus.calculus.twists),
                           {"t1": alg.one(), "t2": alg.one()},
                           {("t2", "t1"): [(rf(alg, -1), ("t1", "t2"))]})
        with pytest.raises(MissingThetaRuleError):
            partial.wedge(partial.theta("t1"), partial.theta("t1"))

    def test_rule_validation(self, torus, alg):
        twists = dict(torus.calculus.twists)
        weights = {"t1": alg.one(), "t2": alg.one()}
        with pytest.raises(CalculusError):
            Calculus(alg, ("t1", "t2"), twists, weights,
                     {("t1", "t2"): []})
        with pytest.raises(CalculusError):
            Calculus(alg, ("t1", "t2"), twists, weights,
                     {("t2", "t1"): [(rf(alg, 1), ("t2", "t1"))]})

    def test_missing_twist_or_weight(self, torus, alg):
        twists = dict(torus.calculus.twists)
        with pytest.raises(CalculusError):
            Calculus(alg, ("t1", "t2"), {}, {"t1": alg.one(),
                                             "t2": alg.one()},
                     torus_rules(alg))
        with pytest.raises(CalculusError):
            Calculus(alg, ("t1", "t2"), twists, {"t1": alg.one()},
                     torus_rules(alg))

    def test_twist_and_weight_types(self, torus, alg):
        twists = dict(torus.calculus.twists)
        weights = {"t1": alg.one(), "t2": alg.one()}
        with pytest.raises(CalculusError, match="not an endomorphism"):
            Calculus(alg, ("t1", "t2"), dict(twists, t1="phi1"), weights,
                     torus_rules(alg))
        with pytest.raises(CalculusError, match="not an element"):
            Calculus(alg, ("t1", "t2"), twists, dict(weights, t2=1),
                     torus_rules(alg))

    def test_duplicate_label_rejected(self, torus, alg):
        with pytest.raises(CalculusError):
            Calculus(alg, ("t1", "t1"), dict(torus.calculus.twists),
                     {"t1": alg.one()}, {})


class TestWedge:
    def test_coefficients_pass_by_twist(self, calc, alg):
        x = alg.gen("x")
        moved = calc.wedge(calc.theta("t1"), x)
        assert moved.coefficient("t1") == r_inv(alg) * x
        stayed = calc.wedge(calc.theta("t2"), x)
        assert stayed.coefficient("t2") == x

    def test_two_form_reduction(self, calc):
        t1, t2 = calc.theta("t1"), calc.theta("t2")
        assert calc.wedge(t1, t1).is_zero()
        assert calc.wedge(t2, t1) == -calc.wedge(t1, t2)

    def test_element_coefficients_multiply(self, calc, alg):
        x, y = alg.gen("x"), alg.gen("y")
        left = calc.embed(x) * calc.theta("t1")
        right = calc.embed(y) * calc.theta("t2")
        q = RationalFunction.parameter(alg.params, "q")
        product = calc.wedge(left, right)
        assert product.coefficient("t1", "t2") == r_inv(alg) * x * y
        mirrored = calc.wedge(right, left)
        assert mirrored.coefficient("t1", "t2") == -(q ** -1) * x * y


class TestDifferential:
    def test_d_on_generators_is_frozen(self, calc, alg):
        x, y = alg.gen("x"), alg.gen("y")
        scale = r_inv(alg) - 1
        dx = calc.d(x)
        assert dx.coefficient("t1") == scale * x
        assert dx.coefficient("t2").is_zero()
        dy = calc.d(y)
        assert dy.coefficient("t1") == scale * y
        assert dy.coefficient("t2") == scale * y

    def test_d_of_scalar_vanishes(self, calc):
        assert calc.d(calc.embed(7)).is_zero()

    def test_inner_form(self, calc):
        vt = calc.inner_form()
        assert vt == calc.theta("t1") + calc.theta("t2")

    def test_d_of_basis_forms_vanishes(self, calc):
        assert calc.d(calc.theta("t1")).is_zero()
        assert calc.d(calc.theta("t2")).is_zero()

    def test_d_squared_on_elements(self, calc, alg):
        for name in alg.table.base_names:
            assert calc.d(calc.d(alg.gen(name))).is_zero()
        assert calc.d_squared_witness() is None

    def test_product_rule(self, calc, alg):
        rng = random.Random(11)
        for _ in range(10):
            u = random_element(alg, rng)
            v = random_element(alg, rng)
            lhs = calc.d(u * v)
            rhs = calc.d(u) * v + calc.embed(u) * calc.d(v)
            assert lhs == rhs

    def test_graded_product_rule_on_one_forms(self, calc, alg):
        omega = calc.embed(alg.gen("x")) * calc.theta("t1")
        eta = calc.embed(alg.gen("y")) * calc.theta("t2")
        lhs = calc.d(calc.wedge(omega, eta))
        rhs = (calc.wedge(calc.d(omega), eta)
               - calc.wedge(omega, calc.d(eta)))
        assert lhs == rhs


class TestBrokenWeights:
    """Weights (1, x) break graded centrality of the inner form's square."""

    @pytest.fixture()
    def variant(self, torus, alg):
        return Calculus(alg, ("t1", "t2"), dict(torus.calculus.twists),
                        {"t1": alg.one(), "t2": alg.gen("x")},
                        torus_rules(alg))

    def test_square_of_inner_form(self, variant, alg):
        vt = variant.inner_form()
        square = variant.wedge(vt, vt)
        expected = (r_inv(alg) - 1) * alg.gen("x")
        assert square.coefficient("t1", "t2") == expected

    def test_d_squared_witness(self, variant, alg):
        witness = variant.d_squared_witness()
        assert witness is not None
        name, diff = witness
        assert name == "x"
        scale = (r_inv(alg) - 1) ** 2
        x = alg.gen("x")
        assert diff.coefficient("t1", "t2") == scale * (x * x)

    def test_d_squared_fails_on_element(self, variant, alg):
        assert not variant.d(variant.d(alg.gen("x"))).is_zero()


class TestCommutationRelations:
    def element_first(self, calc, alg):
        x, y = alg.gen("x"), alg.gen("y")
        forms = {"dx": calc.d(x), "dy": calc.d(y)}
        elements = {"x": x, "y": y}
        return calc.commutation_relations(forms, elements,
                                          side="element_first")

    def test_element_first_table(self, calc, alg):
        rendered = [rel.render() for rel in self.element_first(calc, alg)]
        assert rendered == [
            "x * dx = r * dx * x",
            "x * dy = (r - 1) * dx * y + q * dy * x",
            "y * dx = q^-1*r * dx * y",
            "y * dy = r * dy * y",
        ]

    def test_form_first_table(self, calc, alg):
        x, y = alg.gen("x"), alg.gen("y")
        forms = {"dx": calc.d(x), "dy": calc.d(y)}
        elements = {"x": x, "y": y}
        rels = calc.commutation_relations(forms, elements, side="form_first")
        rendered = [rel.render() for rel in rels]
        assert rendered == [
            "dx * x = r^-1 * x * dx",
            "dy * x = -(1 - r^-1) * y * dx + q^-1 * x * dy",
            "dx * y = q*r^-1 * y * dx",
            "dy * y = r^-1 * y * dy",
        ]

    def test_relations_reproduce_products(self, calc, alg):
        for rel in self.element_first(calc, alg):
            e_name, w_name = rel.left
            forms = {"dx": calc.d(alg.gen("x")), "dy": calc.d(alg.gen("y"))}
            lhs = calc.wedge(calc.embed(alg.gen(e_name)), forms[w_name])
            rhs = calc.zero_form()
            for coeff, (w2, e2) in rel.terms:
                rhs = rhs + calc.wedge(forms[w2],
                                       alg.gen(e2)).scale(coeff)
            assert lhs == rhs

    def test_inexpressible_raises(self, calc, alg):
        forms = {"t1": calc.theta("t1")}
        elements = {"u": alg.gen("x") + 1}
        with pytest.raises(InexpressibleError):
            calc.commutation_relations(forms, elements, side="element_first")

    def test_duplicate_candidates_underdetermined(self, calc, alg):
        dx = calc.d(alg.gen("x"))
        forms = {"dx": dx, "dx2": dx}
        with pytest.raises(CalculusError):
            calc.commutation_relations(forms, {"x": alg.gen("x")},
                                       side="element_first")

    def test_bad_side_rejected(self, calc, alg):
        with pytest.raises(ValueError):
            calc.commutation_relations({}, {}, side="sideways")


class TestFormType:
    def test_grades_and_by_grade(self, calc, alg):
        mixed = (calc.embed(alg.gen("x")) + calc.theta("t1")
                 + calc.wedge(calc.theta("t1"), calc.theta("t2")))
        parts = mixed.by_grade()
        assert list(parts) == [0, 1, 2]
        assert parts[0] == calc.embed(alg.gen("x"))
        assert parts[1] == calc.theta("t1")

    def test_scalar_arithmetic(self, calc):
        t1 = calc.theta("t1")
        assert (t1 + t1) == t1.scale(2)
        assert (2 * t1 - t1) == t1
        assert (t1 - t1).is_zero()
        assert calc.zero_form() == 0

    def test_embed_rejects_foreign_form(self, torus, alg):
        other = Calculus(alg, ("t1", "t2"), dict(torus.calculus.twists),
                         {"t1": alg.one(), "t2": alg.one()},
                         torus_rules(alg))
        with pytest.raises(CalculusError):
            torus.calculus.embed(other.theta("t1"))

    def test_coefficient_lookup(self, calc, alg):
        two_form = calc.wedge(calc.theta("t1"), calc.theta("t2"))
        assert two_form.coefficient("t1", "t2") == alg.one()
        assert two_form.coefficient("t1").is_zero()

    def test_render(self, calc, alg):
        assert str(calc.zero_form()) == "0"
        assert str(calc.inner_form()) == "t1 + t2"
        assert str(calc.d(alg.gen("x"))) == "-(1 - r^-1) * x * t1"
        two = calc.wedge(calc.theta("t2"), calc.theta("t1"))
        assert str(two) == "-t1*t2"


def reference_relations(calc, forms, elements, side, reference_solve):
    """The per-target loop that commutation_relations replaced: one
    elimination per target, over the sorted coordinates of the target and
    every candidate."""
    candidates = []
    for w_name, w in forms.items():
        for e_name, e in elements.items():
            if side == "element_first":
                candidates.append(((w_name, e_name), calc.wedge(w, e)))
            else:
                candidates.append(((e_name, w_name),
                                   calc.wedge(calc.embed(e), w)))
    zero = RationalFunction.from_value(calc.algebra.params, 0)

    def coord(form, key):
        elt = form.terms.get(key[0])
        return zero if elt is None else elt.terms.get(key[1], zero)

    results = []
    for e_name, e in elements.items():
        for w_name, w in forms.items():
            if side == "element_first":
                target = calc.wedge(calc.embed(e), w)
                left = (e_name, w_name)
            else:
                target = calc.wedge(w, e)
                left = (w_name, e_name)
            coords = sorted({(index, word)
                             for form in [target] + [c for _, c in candidates]
                             for index, elt in form.terms.items()
                             for word in elt.terms})
            rows = [[coord(c, key) for _, c in candidates] for key in coords]
            rhs = [coord(target, key) for key in coords]
            solved = reference_solve(rows, rhs, calc.algebra.params)
            if solved is None:
                raise InexpressibleError(
                    "%s * %s has no expansion in the candidate products"
                    % left)
            solution, free = solved
            for col in free:
                if any(not row[col].is_zero() for row in rows):
                    raise CalculusError(
                        "%s * %s has an underdetermined expansion" % left)
            terms = [(coeff, names) for coeff, (names, _) in
                     zip(solution, candidates) if not coeff.is_zero()]
            results.append(DerivedRelation(left, terms))
    return results


def _stored_relations(relations):
    return [(rel.render(), [(names, list(c.num.terms.items()),
                             list(c.den.terms.items()))
                            for c, names in rel.terms])
            for rel in relations]


def _named(bundle, forms, elements):
    return ({n: bundle.value(n) for n in forms},
            {n: bundle.value(n) for n in elements})


class TestCommutationRelationsOracle:
    """commutation_relations, solved in one elimination, against the
    per-target solves it replaced: same relations, same stored
    coefficients, same first failure."""

    @pytest.fixture(scope="class")
    def reference_solve(self, repo_module):
        return repo_module("tests/test_coeff.py")._reference_solve

    def _cases(self, torus, glpq, glpq_localized):
        calc = torus.calculus
        zero_set = ({"dx": torus.value("dx"), "z": calc.zero_form(),
                     "dy": torus.value("dy")},
                    {"x": torus.value("x"), "y": torus.value("y")})
        return [
            (calc, _named(torus, ["dx", "dy"], ["x", "y"])),
            (calc, zero_set),
            (glpq.calculus, _named(glpq, ["v1", "v2", "v3", "v4"],
                                   ["a", "b", "c", "d"])),
            (glpq_localized.calculus,
             _named(glpq_localized, ["t1", "t2", "t3", "t4"],
                    ["Dinv", "a", "b", "D"])),
        ]

    @pytest.mark.parametrize("side", ["element_first", "form_first"])
    def test_matches_per_target_solves(self, torus, glpq, glpq_localized,
                                       reference_solve, side):
        for calc, (forms, elements) in self._cases(torus, glpq,
                                                   glpq_localized):
            got = calc.commutation_relations(forms, elements, side=side)
            want = reference_relations(calc, forms, elements, side,
                                       reference_solve)
            assert _stored_relations(got) == _stored_relations(want)

    def test_same_first_failure(self, torus, reference_solve):
        calc, alg = torus.calculus, torus.algebra
        x, y = alg.gen("x"), alg.gen("y")
        dx = calc.d(x)
        # without a rule for t2*t1, a form passed as an element makes a
        # target that cannot be formed, after or before an inexpressible one
        ruleless = load_model(models.model_source("quantum-torus").replace(
            "  wedge t2*t1 = -t1*t2;\n", "")).calculus
        t1, t2 = ruleless.theta("t1"), ruleless.theta("t2")
        u = ruleless.algebra.gen("x") + 1
        cases = [
            (calc, {"t1": calc.theta("t1")}, {"u": x + 1}),
            (calc, {"dx": dx, "dx2": dx}, {"x": x}),
            (calc, {"dx": dx, "dx2": dx, "z": calc.zero_form()},
             {"x": x, "y": y}),
            (calc, {"t1": calc.theta("t1"), "dx": dx, "dx2": dx},
             {"y": y, "u": x + 1}),
            (ruleless, {"t1": t1}, {"u": u, "t2": t2}),
            (ruleless, {"t1": t1}, {"t2": t2, "u": u}),
        ]
        for calc, forms, elements in cases:
            for side in ("element_first", "form_first"):
                with pytest.raises(CalculusError) as want:
                    reference_relations(calc, forms, elements, side,
                                        reference_solve)
                with pytest.raises(CalculusError) as got:
                    calc.commutation_relations(forms, elements, side=side)
                assert (type(got.value), str(got.value)) == \
                    (type(want.value), str(want.value))

    def test_one_elimination_per_call(self, torus, monkeypatch):
        calls = []
        original = coeff.solve_linear_columns

        def counting(rows, columns, params):
            calls.append(len(columns))
            return original(rows, columns, params)
        monkeypatch.setattr(coeff, "solve_linear_columns", counting)
        calc = torus.calculus
        forms, elements = _named(torus, ["dx", "dy"], ["x", "y"])
        calc.commutation_relations(forms, elements, side="element_first")
        assert calls == [4]
