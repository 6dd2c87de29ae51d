"""The fast paths rest on their own shapes, not on the confluence verdict.

``_ClosedForm.of`` accepts an algebra whose rules are q-commuting, each the
only rule of its pair, and such rules are confluent by the diamond lemma;
``_RunTables.layout`` accepts an ordered PBW shape, and the tables follow
leftmost rewriting whatever the overlaps do (see the ``algebra``
docstring).  So a power takes either path without ``check_confluence``,
which stays the one place that reads every overlap.  ``add_relation`` keeps
one rule where a text declares a right-hand side that its pair already
holds, and keeps a different one, which the check then reports.
"""

import pytest

from ncdiff.algebra import _ClosedForm
from ncdiff.dsl import load_model
from ncdiff.models import BUILTINS, build_quantum_torus

from test_closed_form import rewritten_product, stored
from test_confluence_certificate import full_overlap_check

_EXPANSION = "(b + 3*d - 2*a + 2*c)^5"

# The torus swap y*x^-1 declared once more: with the constant that
# add_relation derives from y*x, and with another one.
_TORUS_SAME = """model "torus-same";
param q;
gen x, y;
invertible x, y;
rel y*x = q*x*y;
rel y*x^-1 = q^-1*x^-1*y;
"""

_TORUS_OTHER = _TORUS_SAME.replace("q^-1*x^-1*y", "q^2*x^-1*y")

# Two different swaps for one pair, without inverses.
_TWO_SWAPS = """model "two-swaps";
param q;
gen x, y, z;
rel y*x = q*x*y;
rel y*x = q^2*x*y;
rel z*x = x*z;
rel z*y = q*y*z;
"""


@pytest.mark.parametrize("name", ["gl-pq2", "gl-pq2-localized"])
def test_a_cold_power_of_a_sum_reads_no_verdict(name, run_tables):
    bundle = BUILTINS[name](verify=False)
    alg = bundle.algebra
    value = bundle.eval_expression(_EXPANSION)
    assert alg._confluent is None and len(run_tables) == 1
    assert alg._closed_form is None
    reference = BUILTINS[name](verify=False)
    base = reference.eval_expression(_EXPANSION[1:_EXPANSION.index(")")])
    loop = reference.algebra.one()
    for _ in range(5):
        loop = rewritten_product(loop, base)
    assert stored(value.terms) == stored(loop.terms)


def test_a_cold_torus_power_takes_the_closed_form():
    bundle = build_quantum_torus()
    alg = bundle.algebra
    assert str(bundle.eval_expression("(y*x)^5")) == "q^-15 * x^5*y^5"
    assert alg._confluent is None and alg._closed_form is not None
    assert not alg._nf_cache
    base = bundle.eval_expression("y^-2*x")
    before = alg.reduction_count
    value = base ** 7
    assert alg.reduction_count == before and alg._confluent is None
    loop = alg.one()
    for _ in range(7):
        loop = rewritten_product(loop, base)
    assert stored(value.terms) == stored(loop.terms)


def test_a_cold_torus_power_of_a_sum_takes_the_closed_form():
    bundle = build_quantum_torus()
    alg = bundle.algebra
    bundle.eval_expression("(x + 2*y^-1 - x*y)^3")
    assert alg._confluent is None and alg._closed_form is not None
    assert not alg._nf_cache


def test_the_localized_algebra_holds_one_rule_per_pair():
    alg = BUILTINS["gl-pq2-localized"](verify=False).algebra
    assert len(alg.rules) == 23
    assert all(len(rhs_list) == 1 for rhs_list in alg.rules.values())
    assert alg.check_confluence() == [] == full_overlap_check(alg)


def test_an_equal_duplicate_adds_no_rule():
    alg = load_model(_TORUS_SAME, verify=False).algebra
    assert all(len(rhs_list) == 1 for rhs_list in alg.rules.values())
    assert len(alg.relations) == 2
    assert _ClosedForm.of(alg) is not None
    assert alg.verify_relations()


def test_a_different_duplicate_is_kept_and_reported():
    alg = load_model(_TORUS_OTHER, verify=False).algebra
    y, x_inv = alg.table.index("y"), alg.table.index("x^-1")
    assert [len(rhs_list) for rhs_list in alg.rules.values()].count(2) == 1
    assert len(alg.rules[y, x_inv]) == 2
    assert _ClosedForm.of(alg) is None
    violations = alg.check_confluence()
    assert violations == full_overlap_check(alg)
    assert [v.word for v in violations if len(v.word) == 2] == [(y, x_inv)]


def test_two_swaps_for_a_pair_are_rewritten():
    alg = load_model(_TWO_SWAPS, verify=False).algebra
    assert _ClosedForm.of(alg) is None and alg._closed() is None
    x, y = alg.gen("x"), alg.gen("y")
    before = alg.reduction_count
    value = (y * x * y) ** 3
    assert alg.reduction_count > before and alg._nf_cache
    assert not alg.is_confluent() and alg._closed_form is None
    loop = alg.one()
    for _ in range(3):
        loop = rewritten_product(loop, y * x * y)
    assert stored(value.terms) == stored(loop.terms)
    assert alg.check_confluence() == full_overlap_check(alg)
