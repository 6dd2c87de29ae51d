import collections
import functools
import random
from fractions import Fraction

import pytest

from ncdiff import dsl
from ncdiff.calculus import Calculus
from ncdiff.coeff import ParameterSet, Polynomial, RationalFunction
from ncdiff.dsl import (ModelDocument, ModelSemanticError, ModelSyntaxError,
                        build_model, export_model, expression_to_text,
                        load_model, parse_coefficient, parse_model,
                        parse_statement, rename_atoms, tokenize)
from ncdiff.models import BUILTINS, _glpq_document, build_glpq, model_source
from ncdiff.morphism import Endomorphism

BASE_LINES = [
    'model "m";',
    'param q, r;',
    'gen x, y;',
    'invertible x, y;',
    'rel x*y = q*y*x;',
    'auto phi1 { x -> x/r; y -> y/r; }',
    'auto phi2 { x -> x; y -> y/r; }',
    'calc {',
    '  theta t1, t2;',
    '  twist t1 = phi1;',
    '  twist t2 = phi2;',
    '  weight t1 = 1;',
    '  weight t2 = 1;',
    '  wedge t1*t1 = 0;',
    '  wedge t2*t1 = -t1*t2;',
    '  wedge t2*t2 = 0;',
    '}',
]

BASE = "\n".join(BASE_LINES) + "\n"


def with_base(*extra):
    return BASE + "\n".join(extra) + "\n"


class TestTokenizer:
    def test_kinds_and_longest_match(self):
        tokens = tokenize('a -> b == 12 "hi" ;')
        kinds = [(t.kind, t.value) for t in tokens]
        assert kinds == [("ident", "a"), ("punct", "->"), ("ident", "b"),
                         ("punct", "=="), ("number", 12), ("string", "hi"),
                         ("punct", ";"), ("eof", None)]

    def test_comments_and_positions(self):
        tokens = tokenize("ab # ignored\n  cd")
        assert [(t.value, t.line, t.col) for t in tokens[:2]] == [
            ("ab", 1, 1), ("cd", 2, 3)]

    def test_string_escape(self):
        tokens = tokenize('"say \\"hi\\""')
        assert tokens[0].value == 'say "hi"'

    def test_unterminated_string(self):
        with pytest.raises(ModelSyntaxError) as err:
            tokenize('model "broken')
        assert err.value.line == 1 and err.value.col == 7

    def test_unexpected_character(self):
        with pytest.raises(ModelSyntaxError) as err:
            tokenize("rel x @ x")
        assert "unexpected character" in err.value.message
        assert err.value.line == 1 and err.value.col == 7


MALFORMED = [
    pytest.param(
        'model "broken',
        ModelSyntaxError, "unterminated string", 1, 7, id="open-string"),
    pytest.param(
        'model foo;',
        ModelSyntaxError, "expected a quoted string", 1, 7,
        id="unquoted-model-name"),
    pytest.param(
        'model "m";\nblarg x;',
        ModelSyntaxError, "unknown statement 'blarg'", 2, 1, id="bad-keyword"),
    pytest.param(
        'model "m";\ngen x;\nparam q;',
        ModelSyntaxError, "'param' cannot appear after later sections",
        3, 1, id="stage-order"),
    pytest.param(
        'model "m";\nmodel "again";',
        ModelSemanticError, "duplicate model statement", 2, 1,
        id="two-model-lines"),
    pytest.param(
        'model "m";\nparam q, q;',
        ModelSemanticError, "duplicate name 'q'", 2, 1, id="dup-param"),
    pytest.param(
        'model "m";\nparam q;\ngen x;\ninvertible y;',
        ModelSemanticError, "invertible name 'y' is not a generator",
        4, 1, id="invertible-not-gen"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\nrel x*z = q*y*x;',
        ModelSemanticError, "unknown name 'z' in a relation", 4, 7,
        id="unknown-rel-name"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\nrel d(x) = x;',
        ModelSemanticError, "a relation cannot use d(...)", 4, 5,
        id="call-in-relation"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\nrel x^q = x;',
        ModelSyntaxError, "expected an integer exponent", 4, 7,
        id="symbolic-exponent"),
    pytest.param(
        'model "m";\nparam q\ngen x;',
        ModelSyntaxError, "expected ';'", 3, 1, id="missing-semicolon"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\n'
        'rel x*y = q*y*x;\nauto phi { x -> x; }',
        ModelSemanticError, "automorphism 'phi' has no image for 'y'", 5, 1,
        id="missing-auto-image"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\n'
        'rel x*y = q*y*x;\nauto phi { z -> x; x -> x; y -> y; }',
        ModelSemanticError, "image for unknown generator 'z'", 5, 1,
        id="auto-unknown-gen"),
    pytest.param(
        with_base('calc { }'),
        ModelSemanticError, "duplicate calc block", 18, 1, id="two-calcs"),
    pytest.param(
        'model "m";\nparam q;\ngen x;\nrel x*x = q*x;\n'
        'auto a { x -> x; }\ncalc {\n  theta t1;\n  weight t1 = 1;\n}',
        ModelSemanticError, "missing twist for 't1'", 6, 1,
        id="missing-twist"),
    pytest.param(
        'model "m";\nparam q;\ngen x;\nrel x*x = q*x;\n'
        'auto a { x -> x; }\ncalc {\n  theta t1;\n  twist t1 = a;\n}',
        ModelSemanticError, "missing weight for 't1'", 6, 1,
        id="missing-weight"),
    pytest.param(
        'model "m";\nparam q;\ngen x;\nrel x*x = q*x;\n'
        'auto a { x -> x; }\n'
        'calc {\n  theta t1;\n  twist t1 = nope;\n  weight t1 = 1;\n}',
        ModelSemanticError, "unknown automorphism 'nope'", 6, 1,
        id="unknown-twist-auto"),
    pytest.param(
        'model "m";\nparam q;\ngen x;\nrel x*x = q*x;\n'
        'auto a { x -> x; }\n'
        'calc {\n  theta t1;\n  twist t1 = a;\n  weight t1 = 1;\n'
        '  wedge t9*t1 = 0;\n}',
        ModelSemanticError, "unknown basis label 't9'", 6, 1,
        id="unknown-wedge-label"),
    pytest.param(
        'model "m";\nparam q;\ngen x;\nrel x*x = q*x;\n'
        'auto a { x -> x; }\ncalc {\n  theta x;\n}',
        ModelSemanticError, "duplicate name 'x'", 6, 1,
        id="theta-shadows-gen"),
    pytest.param(
        with_base('check "c": x == ;'),
        ModelSyntaxError, "expected an expression", 18, 17,
        id="empty-check-side"),
    pytest.param(
        with_base('check "same": x == x;', 'check "same": y == y;'),
        ModelSemanticError, "duplicate name 'same'", 19, 1, id="dup-check"),
    pytest.param(
        with_base('connection c { V9[t1] = t1; }'),
        ModelSemanticError, "transport direction V9 is out of range", 18, 1,
        id="transport-range"),
    pytest.param(
        with_base('connection c { W1[t1] = t1; }'),
        ModelSyntaxError, "transport key must look like V1", 18, 16,
        id="transport-key-shape"),
    pytest.param(
        with_base('connection c { V\u00b2[t1] = t1; }'),
        ModelSyntaxError, "transport key must look like V1", 18, 16,
        id="transport-key-superscript"),
    pytest.param(
        with_base('metric g { [t1, t2] = 1; [t1, t2] = 2; }'),
        ModelSemanticError, "duplicate name 't1,t2'", 18, 1,
        id="dup-metric-entry"),
    pytest.param(
        with_base('let v = frob(x);'),
        ModelSemanticError, "unknown function 'frob'", 18, 9,
        id="unknown-function"),
    pytest.param(
        with_base('subst x = q;'),
        ModelSemanticError, "subst target 'x' is not a parameter", 18, 1,
        id="subst-non-param"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\nrel x*y = q*y*x;\n'
        'auto phi1 { x -> x; y -> y; }\n'
        'extension phi1 { t1 -> t1; }',
        ModelSemanticError, "unknown basis label 't1'", 6, 1,
        id="extension-before-calc"),
]


class TestMalformedFiles:
    @pytest.mark.parametrize("text,exc,fragment,line,col", MALFORMED)
    def test_diagnostic(self, text, exc, fragment, line, col):
        with pytest.raises(exc) as err:
            parse_model(text)
        assert fragment in err.value.message
        assert err.value.line == line
        assert err.value.col == col


class TestBuildErrors:
    def test_relation_with_long_lead(self):
        text = 'model "m";\nparam q;\ngen x, y;\nrel x*y*x = q*x;'
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert "is not two letters long" in err.value.message
        assert err.value.line == 4

    def test_auto_must_respect_relations(self):
        text = ('model "m";\nparam q;\ngen x, y;\ninvertible x, y;\n'
                'rel x*y = q*y*x;\nauto swap { x -> y; y -> x; }')
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert "'swap' does not respect the relations" in err.value.message
        assert err.value.line == 6
        bundle = load_model(text, verify=False)
        assert "swap" in bundle.autos

    def test_division_by_zero_in_let(self):
        with pytest.raises(ModelSemanticError) as err:
            load_model(with_base('let bad = x/(q - q);'))
        assert "division by zero" in err.value.message

    def test_negative_power_needs_inverse(self):
        text = 'model "m";\nparam q;\ngen x, y;\nrel y^-1*x = x;'
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert "is not invertible" in err.value.message

    def test_wedge_rule_must_be_basis_pairs(self):
        text = ('model "m";\nparam q;\ngen x;\nrel x*x = q*x;\n'
                'auto a { x -> x; }\n'
                'calc {\n  theta t1;\n  twist t1 = a;\n  weight t1 = 1;\n'
                '  wedge t1*t1 = 1;\n}')
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert "wedge rule must be a sum of basis pairs" in err.value.message

    def test_wedge_rule_must_descend(self):
        text = ('model "m";\nparam q;\ngen x, y;\nrel x*y = q*y*x;\n'
                'auto a { x -> x; y -> y; }\n'
                'calc {\n  theta t1, t2;\n  twist t1 = a;\n  twist t2 = a;\n'
                '  weight t1 = 1;\n  weight t2 = 1;\n'
                '  wedge t1*t2 = 0;\n}')
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert "does not rewrite a descent" in err.value.message


STATEMENT_ERRORS = [
    pytest.param(
        with_base("extension phi1 { t1 -> 0; t2 -> t2; }"),
        "extension image of 't1' must be a one-form", 18, 1,
        id="extension-zero"),
    pytest.param(
        with_base("extension phi1 { t1 -> t1*t2; t2 -> t2; }"),
        "extension image of 't1' must be a coefficient combination of basis "
        "forms", 18, 1, id="extension-two-form"),
    pytest.param(
        with_base("let f = t1;", "metric g { [t1, t1] = f; }"),
        "metric entries must be elements", 19, 1, id="metric-form-entry"),
    pytest.param(
        model_source("quantum-torus").replace("wedge t1*t1 = 0;",
                                              "wedge t1*t1 = t1*t2;"),
        "rule t1*t1 does not decrease the pair order", 26, 1,
        id="wedge-rule-not-decreasing"),
]


class TestStatementErrors:
    @pytest.mark.parametrize("text,message,line,col", STATEMENT_ERRORS)
    def test_extension_image(self, text, message, line, col):
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert err.value.message == message
        assert (err.value.line, err.value.col) == (line, col)

    def test_metric_without_calculus(self):
        with pytest.raises(ModelSemanticError) as err:
            load_model('model "m";\ngen x, y;\nrel y*x = x*y;\nmetric g {\n}\n')
        assert err.value.message == "metric needs a calc block"
        assert (err.value.line, err.value.col) == (4, 1)


def with_relation(relation):
    return BASE.replace("rel x*y = q*y*x;", "rel %s;" % relation)


def with_wedge(rhs):
    return BASE.replace("wedge t2*t1 = -t1*t2;", "wedge t2*t1 = %s;" % rhs)


EVALUATION_ERRORS = [
    pytest.param(
        with_relation("y*x = (q - q)^-1*x*y"),
        "zero raised to a negative power", 5, 18, id="rel-zero-power"),
    pytest.param(
        with_relation("y*x = 0^-1*x*y"),
        "zero raised to a negative power", 5, 12, id="rel-literal-zero-power"),
    pytest.param(
        with_relation("y*x = x*y/(q - q)"),
        "division by zero", 5, 14, id="rel-zero-divisor"),
    pytest.param(
        with_relation("y*x = x*y/x"),
        "division by a noncommutative expression", 5, 14,
        id="rel-word-divisor"),
    pytest.param(
        with_relation("y*x = (x + y)^-1"),
        "negative powers need a single invertible generator", 5, 18,
        id="rel-sum-inverse"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\nrel y^-1*x = x;',
        "generator 'y' is not invertible", 4, 6, id="rel-not-invertible"),
    pytest.param(
        'model "m";\nparam q;\ngen x, y;\nrel y*x = q*x*y;\nlet z = y^-1;',
        "generator 'y' is not invertible", 5, 10, id="let-not-invertible"),
    pytest.param(
        with_base("subst r = 1/(q - q);"),
        "division by zero", 18, 12, id="subst-zero-divisor"),
    pytest.param(
        with_base("subst r = (q - q)^-1;"),
        "zero raised to a negative power", 18, 18, id="subst-zero-power"),
    pytest.param(
        with_wedge("t1*t2/(q - q)"),
        "division by zero", 15, 22, id="wedge-zero-divisor"),
    pytest.param(
        with_wedge("t1*t2/t1"),
        "division by a noncommutative expression", 15, 22,
        id="wedge-form-divisor"),
    pytest.param(
        with_wedge("(q - q)^-1*t1*t2"),
        "zero raised to a negative power", 15, 24, id="wedge-zero-power"),
    pytest.param(
        with_wedge("t1^2"),
        "cannot raise basis forms to a power", 15, 19, id="wedge-square"),
    pytest.param(
        with_wedge("t1^-1"),
        "cannot raise basis forms to a power", 15, 19, id="wedge-inverse"),
    pytest.param(
        with_wedge("(t1*t2)^1"),
        "cannot raise basis forms to a power", 15, 24, id="wedge-pair-power"),
    pytest.param(
        with_wedge("q*(t1^2)^3"),
        "cannot raise basis forms to a power", 15, 22,
        id="wedge-nested-power"),
    pytest.param(
        BASE.replace("  wedge t1*t1 = 0;\n", "") + "let z = d(t1);\n",
        "no rule for t1*t1", 17, 9, id="d-missing-wedge-rule"),
]


class TestEvaluationErrors:
    @pytest.mark.parametrize("text,fragment,line,col", EVALUATION_ERRORS)
    def test_diagnostic(self, text, fragment, line, col):
        with pytest.raises(ModelSemanticError) as err:
            load_model(text)
        assert err.value.message == fragment
        assert (err.value.line, err.value.col) == (line, col)


class TestCoefficientSums:
    """Sums of coefficients stay coefficients in every statement kind."""

    def test_substitution(self):
        bundle = load_model('model "m";\nparam p, q;\ngen x;\n'
                            'rel x*x = q*x;\nsubst q = p - 1;')
        p_minus_1 = parse_coefficient("p - 1", bundle.params)
        assert bundle.value("q") == p_minus_1
        assert bundle.value("p") == RationalFunction.parameter(
            bundle.params, "p")

    @pytest.mark.parametrize("relation,expected", [
        ("y*x = x*y/(q - 1)", "y*x - x*y/(q - 1)"),
        ("y*x = (q + 1)^-1*x*y", "y*x - x*y/(q + 1)"),
    ])
    def test_relation(self, relation, expected):
        bundle = load_model(with_relation(relation))
        assert bundle.eval_expression(expected).is_zero()
        assert not bundle.eval_expression("y*x - x*y").is_zero()

    def test_wedge_rule(self):
        bundle = load_model(with_wedge("-t1*t2/(q - 1)"))
        assert bundle.eval_expression("t2*t1 + t1*t2/(q - 1)").is_zero()
        assert not bundle.eval_expression("t2*t1 + t1*t2").is_zero()

    def test_zero_coefficients_are_dropped(self):
        bundle = load_model(with_wedge("-t1*t2*0"))
        assert bundle.calculus.theta_rules[(1, 0)] == ()


class TestRoundTrip:
    FULL = with_base(
        'extension phi1 { t1 -> t1; t2 -> t2; }',
        'extension phi2 { t1 -> t1; t2 -> t2; }',
        'subst r = q^2;',
        'let dx = d(x);',
        'let v = -(x + y)*x^-1 - 2*(y + 1)^2/q;',
        'metric g { [t1, t2] = 1; [t2, t1] = 1; }',
        'connection triv { V1[t1] = t1; V1[t2] = t2; '
        'V2[t1] = t1; V2[t2] = t2; }',
        'check "inner": inner() == t1 + t2;',
    )

    def test_parse_export_parse_is_identity(self):
        doc = parse_model(self.FULL)
        exported = export_model(doc)
        again = parse_model(exported)
        assert again == doc
        assert export_model(again) == exported

    def test_shipped_models_round_trip(self):
        docs = [parse_model(model_source(name))
                for name in ("quantum-torus", "gl-pq2")]
        docs.append(build_glpq(adjoin_det_inverse=True).doc)
        for doc in docs:
            exported = export_model(doc)
            assert parse_model(exported) == doc
            assert export_model(parse_model(exported)) == exported

    @pytest.mark.parametrize("expr", [
        " + ".join(["x"] * 1500),
        "(x - y) * " + " * ".join(["x"] * 1500),
        "2 * " + " - y / q * ".join(["x"] * 1500),
    ], ids=["sum", "product-of-sum", "mixed"])
    def test_long_chains_round_trip(self, expr):
        doc = parse_model(BASE + "let s = %s;\n" % expr)
        exported = export_model(doc)
        assert exported.endswith("\nlet s = %s;\n" % expr)
        assert parse_model(exported) == doc
        renamed = rename_atoms(doc.statements[-1].data[1], {"x": "y"})
        assert expression_to_text(renamed) == expr.replace("x", "y")

    def test_rename_reaches_call_arguments(self):
        """As the gl-pq2 mirror checks rename an mc check's sides."""
        stmt = parse_statement('check "c": d(x * y) - x == inner();')
        _, lhs, rhs = stmt.data
        assert [expression_to_text(rename_atoms(side, {"x": "a"}))
                for side in (lhs, rhs)] == ["d(a * y) - a", "inner()"]

    @staticmethod
    def _horner(levels):
        text = "x"
        for _ in range(levels):
            text = "(%s + 1) * y" % text
        return text

    def test_deep_horner_expression(self, torus):
        """Every walker recurses once per nesting level, never once per
        operator, so 100 levels run and the 101st is a clean error."""
        expr = self._horner(100)
        doc = parse_model(BASE + "let s = %s;\n" % expr)
        assert export_model(doc).endswith("\nlet s = %s;\n" % expr)
        renamed = rename_atoms(doc.statements[-1].data[1], {"x": "y"})
        assert expression_to_text(renamed) == expr.replace("x", "y")
        assert len(torus.eval_expression(expr).terms) == 101
        with pytest.raises(ModelSyntaxError) as err:
            torus.eval_expression(self._horner(101))
        assert err.value.message == "expression nests deeper than 100 levels"
        assert (err.value.line, err.value.col) == (1, 101)

    @pytest.mark.parametrize("op", ["+", "*", "/"])
    def test_parenthesized_chain_in_front_is_continued(self, op):
        def let(expr):
            return parse_model(BASE + "let s = %s;\n" % expr)

        flat = "q %s r %s q" % (op, op)
        assert let("(q %s r) %s q" % (op, op)) == let(flat)
        assert export_model(let("(q %s r) %s q" % (op, op))).endswith(
            "\nlet s = %s;\n" % flat)
        nested = "q %s (r %s q)" % (op, op)
        assert let(nested) != let(flat)
        assert export_model(let(nested)).endswith("\nlet s = %s;\n" % nested)

    def test_empty_calc_block_round_trips(self):
        text = 'model "m";\nparam q;\ngen x;\ncalc { }\n'
        doc = parse_model(text)
        exported = export_model(doc)
        assert "theta" not in exported
        assert parse_model(exported) == doc

    def test_comments_and_spacing_do_not_matter(self):
        spaced = BASE.replace("rel x*y = q*y*x;",
                              "rel  x * y=q*y*x ;  # twist relation")
        assert parse_model(spaced) == parse_model(BASE)

    def test_coefficient_changes_are_detected(self):
        changed = BASE.replace("rel x*y = q*y*x;", "rel x*y = 2*q*y*x;")
        assert parse_model(changed) != parse_model(BASE)

    def test_name_tables(self):
        doc = parse_model(self.FULL)
        assert doc.name == "m"
        assert doc.params == ("q", "r")
        assert doc.gens == ("x", "y")
        assert doc.invertible == ("x", "y")

    def test_model_line_is_optional(self):
        doc = parse_model("param q;\ngen x;\nrel x*x = q*x;")
        assert doc.name == "model"


class TestBuildSemantics:
    def test_substitution_scopes_to_later_statements(self):
        text = with_base('let c = r;')
        bundle = load_model(text)
        params = bundle.params
        q = RationalFunction.parameter(params, "q")
        r = RationalFunction.parameter(params, "r")
        assert bundle.value("c") == r
        assert bundle.value("r") == r
        subst = with_base('subst r = q^2;', 'let c = r;')
        bundle = load_model(subst)
        assert bundle.value("c") == q ** 2
        assert bundle.value("r") == q ** 2
        relation_coeff = bundle.algebra.normal_form_word(
            ((bundle.algebra.table.index("y"), 1),
             (bundle.algebra.table.index("x"), 1)))
        assert list(relation_coeff.values())[0] == q.inverse()

    def test_relations_keep_presubstitution_parameters(self):
        subst = with_base('subst r = q^2;', 'let c = r;')
        bundle = load_model(subst)
        y_sym = bundle.algebra.table.index("y")
        x_sym = bundle.algebra.table.index("x")
        nf = bundle.algebra.normal_form_word(((y_sym, 1), (x_sym, 1)))
        q = RationalFunction.parameter(bundle.params, "q")
        assert list(nf.values())[0] == q ** -1

    def test_check_failures_are_recorded_not_raised(self):
        bundle = load_model(with_base('check "bogus": x == y;'))
        case = bundle.checks[0]
        assert case.name == "bogus"
        assert case.witness == "x - y"

    def test_check_successes(self):
        bundle = load_model(with_base('check "inner": inner() == t1 + t2;'))
        assert bundle.checks == [("inner", None)]


class TestBundleEvaluation:
    def test_value_lookup(self, torus):
        assert torus.value("x") == torus.algebra.gen("x")
        assert torus.value("t1") == torus.calculus.theta("t1")
        q = RationalFunction.parameter(torus.params, "q")
        assert torus.value("q") == q
        with pytest.raises(KeyError):
            torus.value("nonesuch")

    def test_eval_expression(self, torus):
        alg = torus.algebra
        q = RationalFunction.parameter(torus.params, "q")
        assert torus.eval_expression("y*x") == q ** -1 * (
            alg.gen("x") * alg.gen("y"))
        assert torus.eval_expression("d(x)") == torus.calculus.d(
            alg.gen("x"))
        assert torus.eval_expression("inner()") == \
            torus.calculus.inner_form()

    def test_eval_expression_trailing_input(self, torus):
        with pytest.raises(ModelSyntaxError):
            torus.eval_expression("x y")

    def test_eval_division_rules(self, torus):
        with pytest.raises(ModelSemanticError) as err:
            torus.eval_expression("1/x")
        assert "division by a noncommutative expression" in err.value.message
        with pytest.raises(ModelSemanticError) as err:
            torus.eval_expression("x/(q - q)")
        assert "division by zero" in err.value.message

    def test_eval_power_rules(self, torus, glpq):
        x = torus.algebra.gen("x")
        inverse = torus.eval_expression("x^-2")
        assert (inverse * x * x).is_one()
        with pytest.raises(ModelSemanticError):
            glpq.eval_expression("a^-1")
        with pytest.raises(ModelSemanticError):
            torus.eval_expression("t1^2")
        with pytest.raises(ModelSemanticError):
            torus.eval_expression("(x + y)^-1")

    def test_eval_call_rules(self, torus):
        with pytest.raises(ModelSemanticError):
            torus.eval_expression("inner(x)")
        with pytest.raises(ModelSemanticError):
            torus.eval_expression("d()")
        with pytest.raises(ModelSemanticError):
            torus.eval_expression("curl(x)")


class TestParseCoefficient:
    def test_parses_field_expressions(self):
        params = ParameterSet(("p", "q"))
        p = RationalFunction.parameter(params, "p")
        q = RationalFunction.parameter(params, "q")
        assert parse_coefficient("p - 1/q", params) == p - q.inverse()
        assert parse_coefficient("q^-1*p", params) == q ** -1 * p
        assert parse_coefficient("-(1 - p)", params) == p - 1

    def test_rejects_unknown_names(self):
        params = ParameterSet(("p", "q"))
        with pytest.raises(ModelSemanticError):
            parse_coefficient("bogus", params)

    def test_rejects_calls_even_on_a_parameter_named_d(self):
        """No value but a coefficient reaches the caller."""
        params = ParameterSet(("p", "d"))
        assert parse_coefficient("d", params) == RationalFunction.parameter(
            params, "d")
        for text in ("d(p)", "inner()", "2*d(d)"):
            with pytest.raises(ModelSemanticError):
                parse_coefficient(text, params)

    def test_rejects_trailing_input(self):
        params = ParameterSet(("p", "q"))
        with pytest.raises(ModelSyntaxError):
            parse_coefficient("p q", params)

    def test_printed_text_reparses_to_the_value(self):
        """str(rf) is valid coefficient text for rf; the localised model
        writes its derived scalars into the document this way."""
        params = ParameterSet(("p", "q", "r"))
        rng = random.Random(7211)

        def polynomial(max_terms):
            return Polynomial(params, {
                tuple(rng.randint(-2, 3) for _ in range(3)):
                Fraction(rng.choice([-7, -3, -1, 1, 2, 5]),
                         rng.choice([1, 1, 2, 3]))
                for _ in range(rng.randint(1, max_terms))})

        for i in range(1200):
            num = polynomial(4) if i % 50 else Polynomial(params)
            value = RationalFunction(num, polynomial(rng.choice([1, 3])))
            text = str(value)
            again = parse_coefficient(text, params)
            assert again == value, text
            assert str(again) == text


def statement_verdicts(bundle):
    """The verdicts of the bundle's check statements, each evaluated afresh
    over its environment, both sides as forms where either is one: the
    printed difference of the sides, or None where it is zero."""
    out = []
    for stmt in bundle.doc.statements:
        if stmt.kind == "check":
            name, *sides = stmt.data
            sides = [bundle._eval(side) for side in sides]
            if any(isinstance(v, dsl.Form) for v in sides):
                sides = [bundle.calculus.embed(v) for v in sides]
            else:
                sides = [bundle.algebra.scalar(v)
                         if isinstance(v, RationalFunction) else v
                         for v in sides]
            difference = sides[0] - sides[1]
            out.append((name, None if difference.is_zero()
                        else str(difference)))
    return out


def _rfree_load(verify):
    """The gl-pq2 text without its subst line, whose twists break the
    relations and five of whose checks fail."""
    text = model_source("gl-pq2").replace("subst r = p*q;\n", "")
    return load_model(text, verify)


# The builtins and the r-free gl-pq2 text, whose checks fail with a witness.
CHECKED = dict(BUILTINS, **{"gl-pq2-rfree": _rfree_load})


@pytest.fixture
def eager(monkeypatch):
    """Load as a document's first build: over an empty record table, which
    goes with the patch, so the load evaluates its document and none of
    its records outlives it."""
    def load(build):
        with monkeypatch.context() as patch:
            patch.setattr(dsl, "_RECORDS", {})
            return build(verify=False)
    return load


@pytest.fixture
def evaluations(monkeypatch):
    """The names of the checks evaluated so far, in order.  The gl-pq2
    documents are derived first, and the record table then starts empty,
    so each document's first load evaluates it."""
    _glpq_document(True)
    monkeypatch.setattr(dsl, "_RECORDS", {})
    names = []
    kind = dsl._KINDS["check"]

    def counted(builder, stmt):
        names.append(stmt.data[0])
        kind.build(builder, stmt)
    monkeypatch.setitem(dsl._KINDS, "check", kind._replace(build=counted))
    return names


# Check statements whose evaluation raises, with the error each load
# reports: every one stays at load, so the load fails as before.
REFUSED_CHECKS = [
    pytest.param('check "c": x/(q - q) == x;', "division by zero", 18, 13,
                 id="zero-divisor"),
    pytest.param('check "c": x == t1/(1 - 1);', "division by zero", 18, 19,
                 id="zero-literal-divisor"),
    pytest.param('check "c": x/y == x;', "division by a noncommutative "
                 "expression", 18, 13, id="element-divisor"),
    pytest.param('check "c": 1 == 2/t1;', "division by a noncommutative "
                 "expression", 18, 18, id="form-divisor"),
    pytest.param('check "c": (q - q)^-2 == 1;', "zero raised to a negative "
                 "power", 18, 19, id="zero-power"),
    pytest.param('check "c": (x + y)^-1 == 1;', "negative powers need a "
                 "single invertible generator", 18, 19, id="sum-inverse"),
    pytest.param('check "c": t1^2 == 0;', "cannot raise a form to a power",
                 18, 14, id="form-power"),
    pytest.param('check "c": inner(x) == 0;', "inner() takes no argument",
                 18, 12, id="inner-argument"),
    pytest.param('check "c": d() == 0;', "d(...) needs an argument", 18, 12,
                 id="d-no-argument"),
]


# A non-confluent algebra whose value of x*b*a depends on whether the rules
# are normalized: b*a -> c*c rewrites to e*c through x*c, and b*a -> d, its
# normal form, to x*d.
ORDER_LINES = ['model "order";', 'gen c, d, e, x, a, b;', 'rel b*a = c*c;',
               'rel c*c = d;', 'rel x*c = e;']
ORDER_LET = 'let v = x*b*a;'
ORDER_AUTO = 'auto id { c -> c; d -> d; e -> e; x -> x; a -> a; b -> b; }'


class TestRuleNormalization:
    """A build normalizes the rules once, where the relations end, so that
    every later statement evaluates over the rules every load holds."""

    @pytest.mark.parametrize("tail", [[ORDER_LET, ORDER_AUTO],
                                      [ORDER_AUTO, ORDER_LET], [ORDER_LET]],
                             ids=["let-first", "auto-first", "no-auto"])
    def test_a_value_reads_the_normalized_rules(self, tail):
        bundle = load_model("\n".join(ORDER_LINES + tail) + "\n")
        assert str(bundle.value("v")) == "x*d"
        assert str(bundle.eval_expression("v - x*b*a")) == "0"

    def test_each_build_normalizes_once(self, monkeypatch):
        """One call per first build, with or without an auto, and none
        for a load from the record."""
        monkeypatch.setattr(dsl, "_RECORDS", {})
        calls = []
        normalize = dsl.Algebra.normalize_rules
        monkeypatch.setattr(dsl.Algebra, "normalize_rules", lambda algebra: (
            calls.append(algebra) or normalize(algebra)))
        texts = ["\n".join(ORDER_LINES + tail) + "\n" for tail in
                 ([ORDER_LET, ORDER_AUTO], [ORDER_LET], [])]
        texts += [model_source("quantum-torus"), model_source("gl-pq2")]
        for text in texts:
            load_model(text, verify=False)
        assert len(calls) == len(texts)
        for text in texts:
            load_model(text, verify=False)
        assert len(calls) == len(texts)


class TestDeferredChecks:
    """The document's first build evaluates both sides of every check at
    its statement, where an evaluation error is reported, and records its
    verdict; every load lists the recorded CheckCases and evaluates
    none."""

    @pytest.mark.parametrize("name,eager_names", [
        ("quantum-torus", ["theta1-from-dx", "theta2-from-dy-dx"]),
        ("gl-pq2", []),
        ("gl-pq2-localized", []),
    ])
    def test_a_first_load_evaluates_every_check_once(
            self, name, eager_names, evaluations):
        """No check is left pending: the first load evaluates every check
        once, in statement order, the ones that take an inverse
        (``eager_names``) among them, and neither reading ``checks`` nor a
        second load evaluates one again."""
        bundle = BUILTINS[name](verify=False)
        names = [case.name for case in bundle.checks]
        assert evaluations == names
        assert len(names) == {"quantum-torus": 3}.get(name, 22)
        assert set(eager_names) <= set(names)
        assert [case.name for case in
                BUILTINS[name](verify=False).checks] == names
        assert evaluations == names

    @pytest.mark.parametrize("name", list(CHECKED))
    def test_recorded_verdicts_are_the_first_build_ones(self, name, eager):
        """The verdicts a load reads from the record are the ones a first
        build makes, and every witness is the printed difference of the
        sides each check statement evaluates to afresh over the load's
        environment."""
        bundle = CHECKED[name](verify=False)
        assert bundle.checks == statement_verdicts(bundle)
        assert bundle.checks == eager(CHECKED[name]).checks
        failed = [case.name for case in bundle.checks
                  if case.witness is not None]
        assert failed == ([] if name != "gl-pq2-rfree" else
                          ["mc1-a", "mc4-a", "mc4-b", "inner-form-via-mc",
                           "d-squared-a"])

    @pytest.mark.parametrize("text,message,line,col", REFUSED_CHECKS)
    def test_a_check_that_raises_stays_at_load(self, text, message, line,
                                               col):
        with pytest.raises(ModelSemanticError) as err:
            load_model(with_base(text))
        assert type(err.value) is ModelSemanticError
        assert err.value.message == message
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("call,message", [
        ("d(x)", "d(...) needs a calc block"),
        ("inner()", "inner() needs a calc block"),
    ])
    def test_a_call_without_a_calc_block_stays_at_load(self, call, message):
        text = "\n".join(BASE_LINES[:7] + ['check "c": %s == 0;' % call])
        with pytest.raises(ModelSemanticError) as err:
            load_model(text + "\n")
        assert err.value.message == message
        assert (err.value.line, err.value.col) == (8, 12)

    def test_a_power_of_a_sum_waits_with_the_eager_verdict(self, eager):
        """A power of a sum is expanded at its statement, and a load from
        the record reads the verdict a first build reads."""
        load = functools.partial(load_model, with_base(
            'check "c": (x + y)^2 == x^2 + x*y + y*x + y^2;',
            'check "d": (x + y)^2 == x^2 + y^2;'))
        bundle = load(verify=False)
        assert bundle.checks == [("c", None), ("d", "(1 + q^-1) * x*y")]
        assert bundle.checks == eager(load).checks

    def test_the_torus_inverse_checks_stay_at_load(self):
        bundle = load_model(model_source("quantum-torus"))
        assert bundle.checks == [("theta1-from-dx", None),
                                 ("theta2-from-dy-dx", None),
                                 ("inner-form", None)]

    def test_a_missing_wedge_rule_keeps_form_products_at_load(self):
        text = BASE.replace("  wedge t1*t1 = 0;\n", "")
        bundle = load_model(text + 'check "c": x*t1 == t1*y + d(x);\n'
                            'check "e": t2*t1 == -t1*t2;\n')
        assert [case.name for case in bundle.checks] == ["c", "e"]
        for check in ('check "c": t1*t1 == 0;', 'check "c": d(t1) == 0;'):
            with pytest.raises(ModelSemanticError) as err:
                load_model(text + check + "\n")
            assert err.value.message == "no rule for t1*t1"
            assert err.value.line == 17

    def test_an_unknown_name_stays_at_load(self):
        doc = parse_model(BASE)
        doc = ModelDocument(doc.statements + (
            parse_statement('check "c": x == zz;'),), doc.name)
        with pytest.raises(ModelSemanticError) as err:
            build_model(doc)
        assert err.value.message == "unknown name 'zz'"
        assert (err.value.line, err.value.col) == (1, 17)

    def test_a_check_before_the_first_auto_stays_at_load(self):
        """It reads the rules normalized, as every later statement does."""
        lines = list(BASE_LINES)
        lines.insert(5, 'check "early": x*y*x == q*y*x*x;')
        bundle = load_model("\n".join(lines) + "\n")
        assert bundle.checks == [("early", None)]

    def test_a_later_substitution_does_not_reach_an_earlier_check(self):
        """A check reads the parameters as its statement sees them."""
        bundle = load_model(with_base('check "c": r*x == x;',
                                      'subst r = q^2;'))
        r = RationalFunction.parameter(bundle.params, "r")
        assert bundle.value("r") != r
        assert bundle.checks == [("c", "(r - 1) * x")]

    def test_recorded_verdicts_survive_the_closed_form(self, eager):
        """check_confluence turns on the torus closed form, as run_suite
        does before it reads the checks; evaluated again under it, every
        check statement gives the recorded verdict."""
        torus = BUILTINS["quantum-torus"](verify=False)
        torus.algebra.check_confluence()
        assert torus.algebra._closed_form is not None
        assert torus.checks == statement_verdicts(torus)
        assert torus.checks == eager(BUILTINS["quantum-torus"]).checks

    @pytest.mark.parametrize("name", list(BUILTINS))
    def test_no_load_keeps_a_confluence_verdict(self, name, eager):
        """A load drops no state a later command reads: a first build and a
        load from the record both leave the confluence verdict to be
        computed."""
        assert BUILTINS[name](verify=False).algebra._confluent is None
        assert eager(BUILTINS[name]).algebra._confluent is None

    def test_evaluation_raises_only_model_errors(self, torus, glpq,
                                                 repo_module):
        """On random expressions over the builtins, evaluation raises no
        error but a ModelSemanticError, which a load reports at its check,
        and every other expression evaluates to a coefficient, an element
        or a form."""
        fuzz = repo_module("tests/test_fuzz.py")
        rng = random.Random(2511)
        cleared = refused = 0
        for bundle in (torus, glpq):
            vocab = fuzz.Vocabulary(bundle)
            for _ in range(300):
                try:
                    node = dsl._parse_expression_text(
                        fuzz.expression(rng, vocab, 3))
                except ModelSyntaxError:
                    continue
                try:
                    value = bundle._eval(node)
                except ModelSemanticError:
                    refused += 1
                    continue
                cleared += 1
                assert isinstance(value, (RationalFunction, dsl.Element,
                                          dsl.Form)), expression_to_text(node)
        assert cleared > 300 and refused > 50

    def test_a_later_load_does_no_engine_arithmetic(self, monkeypatch):
        """A load after the first, its checks read, multiplies, raises to a
        power, wedges, differentiates and twists no engine value, while
        each builtin's first build does.  The record table starts empty,
        so every document is evaluated."""
        _glpq_document(True)
        monkeypatch.setattr(dsl, "_RECORDS", {})
        later = []
        calls = collections.Counter()
        for owner, name in [(dsl.Element, "__mul__"), (dsl.Element, "__pow__"),
                            (Calculus, "wedge"), (Calculus, "d"),
                            (Endomorphism, "apply")]:
            def counted(*args, _method=getattr(owner, name), _name=name):
                calls[_name, bool(later)] += 1
                return _method(*args)
            monkeypatch.setattr(owner, name, counted)
        for build in BUILTINS.values():
            build(verify=False)
        later.append(True)
        for build in BUILTINS.values():
            assert len(build(verify=False).checks) >= 3
        assert [key for key in calls if key[1]] == []
        assert {name for name, _ in calls} >= {"__mul__", "wedge", "d",
                                              "apply"}


def test_rule_free_algebras_keep_no_memo(monkeypatch):
    """The algebras that only read relation and wedge terms take each word
    as its own normal form.  The record table starts empty, so the load
    evaluates its document."""
    monkeypatch.setattr(dsl, "_RECORDS", {})
    made = []

    class Recorded(dsl._FreeAlgebra):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)
    monkeypatch.setattr(dsl, "_FreeAlgebra", Recorded)
    build_glpq(verify=False)
    assert len(made) == 2
    assert all(algebra._nf_cache == {} for algebra in made)
