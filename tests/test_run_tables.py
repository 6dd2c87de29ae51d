"""Run-pair tables against step-by-step rewriting.

``Element._packed_power`` takes the normal form of each product of two
normal words from ``_RunTables.product`` on a confluent algebra with an
ordered PBW shape and no closed form.  ``Algebra.normal_form_by_rewriting``
stays the reference: for seeded pairs of normal words ``u``, ``v``,
``product(u, v)`` must store what rewriting ``u*v`` stores, the same words
in the same order and the same coefficient terms in the same order, int or
``Fraction`` alike, as ``TestMatchesRecursiveCore`` compares them.

The algebras are gl-pq2, gl-pq2-localized, a rank-4 quantum space and PBW
presentations built from ``q_commuting_text`` with one swap replaced by a
tail rule ``h*b = c*b*h + k*t``, the letters of ``t`` declared between
``b`` and ``h``.  Most of those are not confluent; the tables mirror
leftmost reduction whatever the verdict, so they are compared as well.
``planted_text`` builds PBW texts that are not confluent on purpose: a tail
rule whose overlaps do not close, and swaps of inverse symbols declared with
constants other than the ones ``_conjugated`` derives.
"""

import json
import pathlib
import random
import sys

import pytest

from ncdiff import algebra
from ncdiff.algebra import Algebra, _join_words, _RunTables, word_from_runs
from ncdiff.dsl import load_model
from ncdiff.models import BUILTINS

from test_closed_form import q_commuting_text, stored

PAIRS = 2000


def pbw_text(rng, index: int):
    """A ``q_commuting_text`` presentation with the swap of one pair of
    generators ``h``, ``b`` that are not invertible, declared at least two
    apart and not first and last, replaced by a tail rule whose tail is one
    or two letters declared between them; None when the presentation has no
    such pair.  A generator declared before ``b`` or after ``h`` puts the
    tail rule inside an overlap."""
    lines = q_commuting_text(rng, index).splitlines()
    declared = next(line for line in lines if line.startswith("gen "))
    declared = declared[len("gen "):-1].split(", ")
    invertible = next((line[len("invertible "):-1].split(", ")
                       for line in lines if line.startswith("invertible ")),
                      [])
    plain = [g for g in declared if g not in invertible]
    pairs = [(h, b) for b in plain for h in plain
             if declared.index(h) >= declared.index(b) + 2
             and (b, h) != (declared[0], declared[-1])]
    if not pairs:
        return None
    h, b = rng.choice(pairs)
    between = declared[declared.index(b) + 1:declared.index(h)]
    letters = sorted(rng.sample(between, min(len(between),
                                             rng.randint(1, 2))),
                     key=declared.index)
    tail = "*".join(g + ("^-1" if g in invertible and rng.random() < 0.5
                         else "^2" if len(letters) == 1
                         and rng.random() < 0.3 else "")
                    for g in letters)
    swap = next(i for i, line in enumerate(lines)
                if line.startswith("rel ") and {h, b} == set(
                    line[len("rel "):line.index(" =")].split("*")))
    lines[swap] = "rel %s*%s = %s*p^%d*%s*%s + %s*%s;" % (
        h, b, rng.choice(("1", "-1", "2", "3/2")), rng.randint(-2, 2), b, h,
        rng.choice(("(p - 1/q)", "3", "q", "(2*p + 1)")), tail)
    return "\n".join(lines) + "\n"


def pbw_texts(seed: int, count: int, make=pbw_text):
    """``count`` seeded texts of ``make``, skipping the None draws."""
    rng = random.Random(seed)
    texts = []
    index = 0
    while len(texts) < count:
        text = make(rng, index)
        index += 1
        if text is not None:
            texts.append(text)
    return texts


_UNITS = ("1", "-1", "2", "3/2", "p", "q^-1", "-2*p*q")


def planted_text(rng, index: int):
    """A seeded PBW text: 3-5 generators ``g0 < g1 < ...`` declared in rank
    order, a random invertible subset, and a unit swap on every pair but
    one, ``h*b = c*b*h + k*t``, where ``h`` and ``b`` are not invertible,
    ``t`` is a generator strictly between them and some generator ``x``
    lies outside them.  The swaps of ``x`` with ``h`` and ``b`` scale by 2
    and that with ``t`` by 3, so the overlap of the tail with ``x`` does not
    close.  Swaps of inverse symbols are declared first, a third of them
    with a constant of their own.  None when no pair can take the tail."""
    n = rng.randint(3, 5)
    gens = ["g%d" % i for i in range(n)]
    invertible = set(rng.sample(gens, rng.randint(0, n - 1)))
    tails = [(h, b) for h in range(n) for b in range(h - 1)
             if not {gens[h], gens[b]} & invertible and (b, h) != (0, n - 1)]
    if not tails:
        return None
    top, low = rng.choice(tails)
    mid = rng.randrange(low + 1, top)
    x = rng.choice([g for g in range(n) if not low <= g <= top])
    planted = []
    rels = []
    for h in range(n):
        for b in range(h):
            c = ("2" if {h, b} in ({x, top}, {x, low})
                 else "3" if {h, b} == {x, mid} else rng.choice(_UNITS))
            tail = " + %s*%s" % (rng.choice(("(p - 1/q)", "3", "q")),
                                 gens[mid]) if (h, b) == (top, low) else ""
            rels.append("rel %s*%s = %s*%s*%s%s;" % (
                gens[h], gens[b], c, gens[b], gens[h], tail))
            for hs, bs in (("^-1", ""), ("", "^-1"), ("^-1", "^-1")):
                if ((gens[h] in invertible or not hs)
                        and (gens[b] in invertible or not bs)
                        and rng.random() < 1 / 3):
                    planted.append("rel %s%s*%s%s = %s*%s%s*%s%s;" % (
                        gens[h], hs, gens[b], bs, rng.choice(_UNITS),
                        gens[b], bs, gens[h], hs))
    lines = ['model "planted-%d";' % index, "param p, q;",
             "gen %s;" % ", ".join(gens)]
    if invertible:
        lines.append("invertible %s;" % ", ".join(sorted(invertible)))
    return "\n".join(lines + planted + rels) + "\n"


def normal_words(alg: Algebra, rng, count: int):
    """Words of the normal forms of random words: normal words."""
    n_symbols = len(alg.table.symbols)
    words = []
    while len(words) < count:
        word = word_from_runs((rng.randrange(n_symbols), rng.randint(1, 3))
                              for _ in range(rng.randint(0, 4)))
        words.extend(alg.normal_form_by_rewriting(word))
    return words


def compare(alg: Algebra, seed, pairs: int):
    """Compare ``pairs`` seeded products; return the tables and how many
    products rewriting took in their place."""
    layout = _RunTables.layout(alg)
    assert layout is not None
    tables = _RunTables(alg, *layout)
    rng = random.Random(seed)
    words = normal_words(alg, rng, 300)
    rewritten = []
    reference = alg.normal_form_by_rewriting

    def counted(word):
        rewritten.append(word)
        return reference(word)
    alg.normal_form_by_rewriting = counted
    try:
        for _ in range(pairs):
            u, v = rng.choice(words), rng.choice(words)
            got = stored(tables.product(u, v))
            assert got == stored(reference(_join_words(u, v))), (u, v)
    finally:
        del alg.normal_form_by_rewriting
    return tables, len(rewritten)


def tail_entries(tables):
    """The filled entries under a rule other than a unit swap or cancel."""
    return [key for key in tables.entries
            if (key[0], key[1]) not in tables.runs]


def test_gl_pq2(glpq):
    tables, rewritten = compare(glpq.algebra, 1, PAIRS)
    # Every prefix and suffix of a normal gl-pq2 word is carried.
    assert rewritten == 0
    assert any(n > 1 for _, _, _, n in tail_entries(tables))


def test_gl_pq2_localized(glpq_localized):
    tables, rewritten = compare(glpq_localized.algebra, 2, PAIRS)
    # A prefix holding d before a letter that moves past it is rewritten.
    assert 0 < rewritten < PAIRS // 5
    assert tail_entries(tables)


def test_rank_4(repo_module):
    workloads = repo_module("bench/workloads.py")
    alg = load_model(workloads.rank_n_text(4, 4004)).algebra
    tables, rewritten = compare(alg, 3, PAIRS)
    assert rewritten == 0 and not tail_entries(tables)
    assert tables.left == 4 and tables.right == -1


@pytest.mark.parametrize("part", range(4))
def test_pbw_texts(part):
    texts = pbw_texts(40 + part, 5)
    filled = 0
    for i, text in enumerate(texts):
        alg = load_model(text, verify=False).algebra
        tables, _ = compare(alg, "%d/%d" % (part, i), PAIRS // 20)
        filled += len(tail_entries(tables))
    assert filled


def test_pbw_texts_hold_tails_inside_overlaps():
    for text in pbw_texts(40, 20):
        alg = load_model(text, verify=False).algebra
        tails = [pair for pair in alg.rules if pair not in alg._runs]
        assert len(tails) == 1
        (h, b), = tails
        assert any(v == h or u == b for u, v in alg.rules
                   if (u, v) != (h, b))


def test_planted_texts():
    """2000 seeded pairs over 20 texts whose tail overlaps do not close, most
    also with inverse swaps of their own that break overlaps among unit
    rules, against rewriting.  Carrying a prefix past bases that are not
    q-commuting (no ``_shaped`` bound on ``left``) fails it."""
    carrying = inconsistent = 0
    for i, text in enumerate(pbw_texts(60, 20, planted_text)):
        alg = load_model(text, verify=False).algebra
        (top, low), = [pair for pair in alg.rules if pair not in alg._runs]
        violations = alg.check_confluence()
        assert any(len(word) == 3 and (word[:2] == (top, low)
                                       or word[1:] == (top, low))
                   for word, _, _ in violations), text
        inconsistent += any(len(word) == 3 and (top, low) not in (
            word[:2], word[1:]) for word, _, _ in violations)
        tables, _ = compare(alg, "planted/%d" % i, PAIRS // 20)
        carrying += tables.left > 0
    assert inconsistent >= 10 and carrying >= 10


@pytest.mark.parametrize("text", [
    # A square rule.
    'model "m"; param q; gen x, y; rel x*x = y; rel y*x = q*x*y;',
    # y*x has no rule, so a normal word need not rise.
    'model "m"; param q; gen x, y, z; rel z*x = q*x*z; rel z*y = y*z;',
    # y*x = q*x*y + z^2 orients to the square rule z*z.
    'model "m"; param q; gen x, y, z; rel y*x = q*x*y + z^2;'
    ' rel z*x = x*z; rel z*y = y*z;',
    # The rule x*y has its left letter of lower rank.
    'model "m"; param q; gen x, y, z; rel x*y = z; rel y*x = q*x*y;'
    ' rel z*x = x*z; rel z*y = y*z;',
    # y*x cancels two different generators.
    'model "m"; param q; gen x, y; rel y*x = 2;',
    # The tail w ranks below x.
    'model "m"; param q; gen w, x, y; rel x*w = w*x; rel y*w = w*y;'
    ' rel y*x = q*x*y + w;',
    # The tail z ranks above y.
    'model "m"; param q; gen x, y, z; rel y*x = q*x*y + z;'
    ' rel z*x = x*z; rel z*y = y*z;',
    # The tail y*x falls in rank.
    'model "m"; param q; gen x, y, z; rel z*x = x*z + y*x; rel z*y = y*z;',
], ids=["square", "missing-pair", "tail-outside", "rule-rises",
        "cancel-across-bases", "tail-below", "tail-above", "tail-falls"])
def test_shape_refused(text):
    assert _RunTables.layout(load_model(text, verify=False).algebra) is None


def test_every_inverse_pair_cancels_first(repo_module):
    """``layout`` refuses a rule on two symbols of one base only when it is
    a square: the other such pairs are a generator and its inverse, whose
    first rule is the cancel by 1 that ``Algebra`` writes before any
    relation, indexed as a run, even where a relation adds a rule there."""
    recorded = json.loads((pathlib.Path(__file__).parent / "data"
                           / "dsl_corpus.json").read_text())
    texts = [text for case_id, text in repo_module(
        "tests/test_dsl_corpus.py").CASES
        if "ok" in recorded[case_id]["no-verify"]]
    invertible = 'model "m"; param q; gen x, y; invertible x;'
    added = [invertible + " rel x*x^-1 = q;", invertible + " rel x^-1*x = y;"]
    algebras = [build(verify=False).algebra for build in BUILTINS.values()]
    algebras += [load_model(text, verify=False).algebra
                 for text in texts + added]
    for alg in algebras:
        for pair in alg.table.inverse_index.items():
            assert alg.rules[pair][0] == {(): 1}
            assert alg._runs[pair] == (False, 1)
    assert [len(rhs_list) for alg in algebras[-2:]
            for rhs_list in alg.rules.values() if len(rhs_list) > 1] == [2, 2]


# -- the fallbacks that stay ----------------------------------------------

TWO_TAIL = (pathlib.Path(__file__).parent / "data" / "two_tail.ncd").read_text()


def _product(alg: Algebra, u, v):
    """``product(u, v)`` of fresh tables, compared with rewriting; the words
    rewriting took in its place, how many ``_Unproved`` were raised and the
    callers of ``_join_words``, in order."""
    u, v = [tuple((alg.table.index(name), n) for name, n in word)
            for word in (u, v)]
    tables = _RunTables(alg, *_RunTables.layout(alg))
    reference = alg.normal_form_by_rewriting
    rewritten, raised, joins = [], [], []

    class Counted(algebra._Unproved):
        def __init__(self):
            raised.append(self)

    def join(w1, w2):
        joins.append(sys._getframe(1).f_code.co_name)
        return _join_words(w1, w2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alg, "normal_form_by_rewriting", lambda word: (
            rewritten.append(word) or reference(word)))
        patch.setattr(algebra, "_Unproved", Counted)
        patch.setattr(algebra, "_join_words", join)
        got = tables.product(u, v)
    assert stored(got) == stored(reference(_join_words(u, v)))
    return rewritten, len(raised), joins


def test_an_unproved_block_is_rewritten():
    """On the two-tail text, filling ``d^2*a^2`` splices the tail ``p*b*c``
    of d*a after a ``d``.  The junction ``d*b`` then has the suffix ``c``,
    which the tail rule e*c keeps from being carried, so the entry is
    rewritten."""
    alg = load_model(TWO_TAIL, verify=False).algebra
    rewritten, raised, _ = _product(alg, [("d", 2)], [("a", 2)])
    d, a = alg.table.index("d"), alg.table.index("a")
    assert raised == 1 and rewritten[-1] == ((d, 2), (a, 2))


def test_a_junction_without_a_rule_is_joined():
    """Filling ``z^3*x^2`` splices the tail ``q*z`` of z*x after ``z^2``,
    and ``_tree`` joins the words at that junction ``z*z``, which no rule
    rewrites."""
    alg = load_model('model "m"; param q; gen x, y, z; rel y*x = q*x*y;'
                     ' rel z*x = x*z + q*z; rel z*y = y*z;',
                     verify=False).algebra
    rewritten, raised, joins = _product(alg, [("z", 3)], [("x", 2)])
    assert rewritten == [] and raised == 0 and "_tree" in joins


def test_a_block_past_the_span_is_rewritten():
    """``d^64*a`` on gl-pq2 spans 65 letters under the tail rule d*a, one
    more than ``_TABLE_SPAN``, and is rewritten once; ``d^63*a`` is not."""
    alg = BUILTINS["gl-pq2"](verify=False).algebra
    d, a = alg.table.index("d"), alg.table.index("a")
    assert algebra._TABLE_SPAN == 64
    rewritten, _, _ = _product(alg, [("d", 64)], [("a", 1)])
    assert rewritten == [((d, 64), (a, 1))]
    rewritten, _, _ = _product(alg, [("d", 63)], [("a", 1)])
    assert rewritten == []
