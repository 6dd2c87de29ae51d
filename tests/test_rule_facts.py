"""The facts of a rule table that a document's record keeps.

``dsl._Builder.evaluate`` stores on the record what depends on the
normalized rules alone (``Algebra.rule_facts``): the run index ``_runs``,
the q-commuting shapes of the rules and the run-pair layout.  Every load's
algebra takes them from the record (``Algebra.presented``) instead of
indexing its rules and testing their shapes again, and its maps and
calculus take the scales and the indexed wedge rules that the first build
found.  These tests check that the facts a load holds are those a fresh
algebra on the same rules computes, that a later change of the rules
forgets them, and that a warm load derives none of them.
"""

import pytest

from ncdiff import algebra as algebra_module
from ncdiff import calculus as calculus_module
from ncdiff import dsl, morphism
from ncdiff.algebra import Algebra, _q_commuting_shapes, _RunTables
from ncdiff.coeff import RationalFunction
from ncdiff.dsl import build_model, parse_model
from ncdiff.models import (BUILTINS, available_models, build_glpq,
                           build_quantum_torus, model_source)

from test_closed_form import stored
from test_load_memo import _recorded_documents
from test_packed_power import loop_power
from test_run_tables import pbw_texts, planted_text


def _fresh(alg: Algebra) -> Algebra:
    """An algebra holding the same rules and 1, its facts derived anew."""
    fresh = Algebra(alg.params, alg.table)
    fresh._one = alg._one
    fresh.rules = {pair: [dict(rhs) for rhs in rhs_list]
                   for pair, rhs_list in alg.rules.items()}
    fresh.rules_changed()
    return fresh


def _assert_facts_derived(alg: Algebra):
    fresh = _fresh(alg)
    assert alg._runs == fresh._runs
    assert alg._rule_shapes() == _q_commuting_shapes(fresh)
    assert (alg._run_layout() or None) == _RunTables.layout(fresh)


def _documents(repo_module):
    corpus = repo_module("tests/test_dsl_corpus.py").CASES
    texts = ([model_source(name) for name in available_models()]
             + [text for _, text in corpus])
    return (_recorded_documents(texts, repo_module)
            + [parse_model(text) for text in pbw_texts(40, 10)
               + pbw_texts(60, 10, planted_text)])


def test_a_load_holds_the_facts_its_rules_give(repo_module, run_tables):
    """Every builtin, every loadable corpus text, the benchmark's rank-3..5
    spaces and the PBW and planted texts of the run-pair tests: a load's
    run index, shapes and layout are those of a fresh algebra on
    its rules, the shapes stored as frozensets."""
    refused = accepted = 0
    for doc in _documents(repo_module):
        record_table = dsl._RECORDS
        alg = build_model(doc, verify=False).algebra
        assert id(doc) in record_table
        assert all(isinstance(part, frozenset) for part in alg._shapes)
        assert alg._closed_form is None and not alg._nf_cache
        assert run_tables == [] and alg._layout is not None
        _assert_facts_derived(alg)
        refused += alg._layout is False
        accepted += bool(alg._layout)
    assert refused >= 2 and accepted >= 50


def test_a_new_relation_forgets_the_facts(run_tables):
    """A second rule for gl-pq2's pair b*a leaves that pair unshaped, so the
    tables carry no prefix past it; the algebra derives its facts again and
    a power still stores the loop's terms."""
    alg = build_glpq(verify=False).algebra
    before = alg._layout
    a, b = alg.table.index("a"), alg.table.index("b")
    alg.add_relation({((b, 1), (a, 1)): alg._one},
                     {((a, 1), (b, 1)): RationalFunction.from_value(
                         alg.params, 2)})
    assert len(alg.rules[b, a]) == 2
    assert alg._shapes is None and alg._layout is None
    x = alg.gen("a") + alg.gen("b") + alg.gen("d")
    assert stored((x ** 4).terms) == stored(loop_power(x, 4).terms)
    assert len(run_tables) == 1 and alg._layout[1] < before[1]
    assert alg._layout[::2] == before[::2]
    _assert_facts_derived(alg)


def test_a_cold_torus_load_rewrites_y_x_before_its_power():
    """A load builds no closed form: the product y*x is rewritten, and the
    power of it then asks for the closed form."""
    bundle = build_quantum_torus()
    alg = bundle.algebra
    assert alg._closed_form is None
    base = bundle.eval_expression("y*x")
    assert alg.reduction_count > 0 and alg._closed_form is None
    assert str(base ** 4) == "q^-10 * x^4*y^4"
    assert alg._closed_form is not None


def test_a_warm_load_derives_nothing_from_its_rules(monkeypatch):
    """A load of gl-pq2 from its kept record indexes no rule, tests no
    shape, finds no scales and checks no wedge rule."""
    BUILTINS["gl-pq2"](verify=False)
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, counted)
    counting(morphism, "_scales")
    counting(Algebra, "_index_run")
    counting(algebra_module, "_q_commuting_shapes")
    counting(calculus_module, "indexed_theta_rules")
    counting(dsl, "indexed_theta_rules")
    monkeypatch.setattr(_RunTables, "layout", staticmethod(
        lambda alg: calls.append("layout")))
    bundle = BUILTINS["gl-pq2"](verify=False)
    assert calls == []
    assert bundle.autos and all(endo._scales is not None
                                for endo in bundle.autos.values())
    # A first build derives them.
    monkeypatch.setattr(dsl, "_RECORDS", {})
    BUILTINS["gl-pq2"](verify=False)
    assert {"_scales", "_index_run", "_q_commuting_shapes",
            "indexed_theta_rules", "layout"} <= set(calls)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_a_builtin_load_holds_the_facts(name):
    _assert_facts_derived(BUILTINS[name](verify=False).algebra)
