"""The confluence check that proves q-commuting overlaps by their shape,
against the full overlap check it replaced.

``Algebra.check_confluence`` skips an overlap whose two rules are the only
ones for their pairs when the rules among the symbols of the bases of its
letters have the q-commuting shape (``_q_commuting_shapes``), and rewrites
every other overlap as before.  ``full_overlap_check`` below is the check
as it was, every overlap rewritten, kept as the reference the way
``RecursiveCore`` keeps the old rewriting core: both must return the same
violations, in the same order, with the same words and witnesses equal as
values.

The presentations are seeded q-commuting ones, seeded ones with one planted
fault each (an inverse swap declared with the wrong constant, a duplicate
rule with another constant, a cancel by 2, a tail rule inside an overlap
that does not close), the models pinned by ``tests/test_verify_pins.py``
and every text of the DSL corpus that loads without verification.
"""

import json
import pathlib
import random

import pytest

from ncdiff.algebra import ConfluenceViolation, _q_commuting_shapes
from ncdiff.coeff import RationalFunction
from ncdiff.dsl import load_model
from ncdiff.models import model_source

from test_closed_form import q_commuting_text
from test_run_tables import pbw_texts

CORPUS_FILE = pathlib.Path(__file__).parent / "data" / "dsl_corpus.json"


def full_overlap_check(alg):
    """The violations of ``check_confluence`` with every overlap rewritten;
    no verdict is cached."""
    violations = []
    for (u, v), rhs_list in alg.rules.items():
        if len(rhs_list) > 1:
            base = alg.element(rhs_list[0])
            for other in rhs_list[1:]:
                alt = alg.element(other)
                if not (base - alt).is_zero():
                    violations.append(ConfluenceViolation((u, v), base, alt))
        for (v2, w), rhs_list2 in alg.rules.items():
            if v2 != v:
                continue
            for rhs1 in rhs_list:
                for rhs2 in rhs_list2:
                    left = alg.element(rhs1) * alg.symbol_element(w)
                    right = alg.symbol_element(u) * alg.element(rhs2)
                    if not (left - right).is_zero():
                        violations.append(
                            ConfluenceViolation((u, v, w), left, right))
    return violations


def same_violations(alg):
    """Assert the check and the reference agree; return the violations."""
    expected = full_overlap_check(alg)
    got = alg.check_confluence()
    assert [v.word for v in got] == [v.word for v in expected]
    for g, e in zip(got, expected):
        assert g.left == e.left and g.right == e.right, g.word
    assert alg.is_confluent() is not expected
    return got


def _lines_with(text, line, before):
    """The text with a line inserted before the first line starting with
    ``before``."""
    lines = text.splitlines()
    at = next(i for i, old in enumerate(lines) if old.startswith(before))
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


def _swap_lines(text):
    """(line, left generator, right generator) of each swap relation."""
    for line in text.splitlines():
        if line.startswith("rel "):
            left, right = line[len("rel "):line.index(" =")].split("*")
            yield line, left, right


def _invertible(text):
    return next((line[len("invertible "):-1].split(", ")
                 for line in text.splitlines()
                 if line.startswith("invertible ")), [])


def test_q_commuting_presentations():
    rng = random.Random(24)
    for index in range(150):
        alg = load_model(q_commuting_text(rng, index), verify=False).algebra
        assert same_violations(alg) == []


def test_wrong_inverse_swap():
    """``y*x^-1`` declared before ``y*x`` with a constant other than the
    inverse one, so it is the only rule of its pair and nothing derives
    another; only the comparison with ``_conjugated`` tells."""
    rng = random.Random(25)
    found = 0
    for index in range(40):
        text = q_commuting_text(rng, index)
        invertible = _invertible(text)
        for line, y, x in _swap_lines(text):
            if x in invertible:
                break
        else:
            continue
        text = _lines_with(text, "rel %s*%s^-1 = 7*%s^-1*%s;" % (y, x, x, y),
                           line)
        alg = load_model(text, verify=False).algebra
        iy, ix = alg.table.index(y), alg.table.index(x)
        assert (max(iy, ix), min(iy, ix)) not in _q_commuting_shapes(alg)[1]
        found += bool(same_violations(alg))
    assert found >= 10


def test_duplicate_rule():
    rng = random.Random(26)
    for index in range(20):
        text = q_commuting_text(rng, index)
        line, _, _ = next(_swap_lines(text))
        text += line.replace("= ", "= 5*") + "\n"
        assert same_violations(load_model(text, verify=False).algebra)


def test_cancel_by_two():
    rng = random.Random(27)
    found = 0
    for index in range(30):
        text = q_commuting_text(rng, index)
        invertible = _invertible(text)
        if not invertible:
            continue
        alg = load_model(text, verify=False).algebra
        g = alg.table.index(rng.choice(invertible))
        g_inv = alg.table.inverse_index[g]
        two = {(): RationalFunction.from_value(alg.params, 2)}
        alg.rules[g, g_inv] = [two]
        if rng.random() < 0.5:
            alg.rules[g_inv, g] = [dict(two)]
        alg.rules_changed()
        assert g not in _q_commuting_shapes(alg)[0]
        found += bool(same_violations(alg))
    assert found


def test_tail_inside_an_overlap():
    closed = 0
    for text in pbw_texts(41, 25):
        closed += not same_violations(load_model(text, verify=False).algebra)
    assert closed < 5


def test_builtins(glpq, glpq_localized, torus):
    for bundle in (glpq, glpq_localized, torus):
        assert same_violations(bundle.algebra) == []
    # The torus is q-commuting, so no overlap is rewritten.
    alg = load_model(model_source("quantum-torus")).algebra
    before = alg.reduction_count
    alg.check_confluence()
    assert alg.reduction_count == before


@pytest.fixture(scope="module")
def pinned_texts(repo_module):
    return repo_module("tests/test_verify_pins.py").model_texts(
        repo_module("bench/workloads.py"))


def test_pinned_models(pinned_texts):
    for name, text in sorted(pinned_texts.items()):
        same_violations(load_model(text, verify=False).algebra)


def test_corpus_documents(repo_module):
    recorded = json.loads(CORPUS_FILE.read_text())
    loaded = 0
    for case_id, text in repo_module("tests/test_dsl_corpus.py").CASES:
        if "ok" in recorded[case_id]["no-verify"]:
            same_violations(load_model(text, verify=False).algebra)
            loaded += 1
    assert loaded >= 90
