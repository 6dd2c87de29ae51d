"""The load memos: parsed texts, expression trees, the gl-pq2 documents
and the deferrals of built documents.

``dsl.parse_model`` memoizes its parse on the source text,
``dsl._parse_expression_text`` memoizes the tree of a short expression
text, and ``models._glpq_document`` keeps the gl-pq2 and gl-pq2-localized
documents for the process.  Documents and trees are immutable, so these
memos hand out the one value they hold.  ``dsl.build_model`` keeps, for
each document it built, which of its checks wait (``dsl._WAITS``).

These tests check that every statement of a parsed or derived document,
and every memoized tree, holds only immutable values; that a memo answers
each text with that text's own parse, never stores an error and stays
within its bound; that the gl-pq2 documents are derived as a fresh parse
and build would derive them; that a warm build defers what a cold one
does, and its deferrals go with the document; and that every load still
builds a bundle of its own.
"""

import gc
import hashlib
import itertools
import random

import pytest

from ncdiff import dsl
from ncdiff.dsl import (CheckCase, ModelDocument, ModelError,
                        ModelSemanticError, ModelSyntaxError, build_model,
                        export_model, parse_model, parse_statement)
from ncdiff.models import (BUILTINS, _adjoin_det_inverse, _det_scales,
                           _glpq_document, _with_mirror_checks,
                           available_models, model_source)

# sha256 of export_model of the gl-pq2-localized document, as the builder
# wrote it when it built gl-pq2 once per load.
_LOCALIZED_EXPORT_SHA256 = (
    "3a11e687c3f69cd2ded2c5af328aa37833b6a9619c6e780cd464ba74a1ed5a7a")

# Products of sums rewrite their words step by step and memoize them on
# every builtin; a power of a sum takes the closed form or the run-pair
# tables instead, which memoize no word.
_PRODUCTS = {"quantum-torus": "(x + y + x^-1 + y^-1)*(x + y)*(y^-1 + x)",
             "gl-pq2": "(a + b + c + d)*(a + b + c + d)*(d + a)",
             "gl-pq2-localized": "(a + b + c + d)*(a + b + c + d)*(d + a)"}


@pytest.fixture(scope="module")
def texts(repo_module):
    """Every builtin source, then every corpus text, in a fixed order."""
    corpus = repo_module("tests/test_dsl_corpus.py").CASES
    return ([model_source(name) for name in available_models()]
            + [text for _, text in corpus])


def _documents(texts):
    """The document of every text that parses; there are at least 20
    besides the builtins."""
    docs = []
    for text in texts:
        try:
            docs.append(parse_model(text))
        except ModelError:
            pass
    assert len(docs) >= len(available_models()) + 20
    return docs


def _outcome(text):
    """What parsing the text gives: its exported document, or its error."""
    try:
        doc = parse_model(text)
    except ModelError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)
    return ("ok", doc.name, export_model(doc))


def _mutable_part(value):
    """The first value inside that is not a tuple, str, int or None (an
    absent call argument), or None when there is none."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, tuple):
            stack.extend(value)
        elif value is not None and not isinstance(value, (str, int)):
            return value
    return None


def _assert_immutable(doc):
    for attr in ("statements", "params", "gens", "invertible"):
        assert type(getattr(doc, attr)) is tuple, attr
    for stmt in doc.statements:
        assert _mutable_part(stmt) is None, (stmt.kind, stmt.line)


def test_mutable_part_finds_a_list_or_dict_at_any_depth():
    assert _mutable_part(("a", (1, ("b", None)))) is None
    for planted in ([], {}, set()):
        assert _mutable_part(("a", (1, ("b", planted)))) is planted


def _derived_documents():
    yield _glpq_document(False)
    yield _glpq_document(True)
    for build in BUILTINS.values():
        yield build(verify=False).doc


def test_parsed_and_derived_documents_hold_only_immutable_data(texts):
    """Parsed documents are walked before any is derived from them, so a
    derivation that fails on mutable data cannot hide the walk's verdict."""
    kinds = set()
    for doc in itertools.chain(_documents(texts), _derived_documents()):
        _assert_immutable(doc)
        for stmt in doc.statements:
            kinds.add(stmt.kind)
            one = export_model(ModelDocument((stmt,), doc.name))
            assert _mutable_part(parse_statement(one)) is None, one
    assert kinds == set(dsl._KINDS)


def test_every_parse_of_a_text_is_the_one_document(texts):
    """Each text is parsed again at once: the texts outnumber the memo."""
    for text in texts:
        try:
            doc = parse_model(text)
        except ModelError:
            continue
        assert parse_model(text) is doc
        with pytest.raises(AttributeError):
            doc.statements.append(doc.statements[0])


def test_each_text_gets_its_own_parse(texts):
    """Outcomes with the memo cold for every text, then with it warm and
    filled in the reverse order: a memo that answered one text with
    another's parse (same length, same prefix, ...) would show here."""
    cold = {}
    for text in texts:
        parse_model.cache_clear()
        cold[text] = _outcome(text)
    for text in reversed(texts):
        assert _outcome(text) == cold[text]
    for text in texts:
        assert _outcome(text) == cold[text]


@pytest.mark.parametrize("broken,error", [
    ('model "m";\nparam q;\ngen x, y;\nrel y*x = q*x*y\n', ModelSyntaxError),
    ('model "m";\nparam q;\ngen x, y;\nrel y*x = s*x*y;\n',
     ModelSemanticError),
])
def test_errors_are_raised_every_time_and_not_stored(broken, error):
    parse_model(model_source("quantum-torus"))
    size = parse_model.cache_info().currsize
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            parse_model(broken)
        raised.append((info.value.message, info.value.line, info.value.col))
    assert raised[0] == raised[1]
    assert parse_model.cache_info().currsize == size


def test_memo_stays_within_its_bound():
    bound = dsl._PARSE_MEMO_SIZE
    assert parse_model.cache_info().maxsize == bound
    torus = model_source("quantum-torus")
    for i in range(2 * bound + 5):
        parse_model(torus + "# text %d\n" % i)
        assert parse_model.cache_info().currsize <= bound
    assert parse_model.cache_info().currsize == bound


def _glpq_documents_fresh():
    """The gl-pq2 documents derived as each load derived them before the
    memo: parse, mirror checks, a build, its determinant scales, Dinv."""
    base = _with_mirror_checks(parse_model(model_source("gl-pq2")))
    lambdas, sigmas = _det_scales(build_model(base, verify=True))
    return base, _adjoin_det_inverse(base, lambdas, sigmas)


def test_glpq_documents_match_a_fresh_derivation():
    base, localized = _glpq_documents_fresh()
    assert _glpq_document(False).semantic_key() == base.semantic_key()
    assert _glpq_document(True).semantic_key() == localized.semantic_key()
    exported = export_model(_glpq_document(True))
    assert exported == export_model(localized)
    assert (hashlib.sha256(exported.encode()).hexdigest()
            == _LOCALIZED_EXPORT_SHA256)
    for adjoin in (False, True):
        bundle = BUILTINS["gl-pq2-localized" if adjoin else "gl-pq2"](
            verify=False)
        assert bundle.doc is _glpq_document(adjoin)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_loads_share_no_engine_state(name):
    first = BUILTINS[name](verify=False)
    second = BUILTINS[name](verify=False)
    assert second.doc is first.doc
    first.eval_expression(_PRODUCTS[name])
    assert first.algebra._nf_cache
    assert second.algebra is not first.algebra
    assert second.algebra._nf_cache == {}
    assert second._checks is not first._checks
    assert second._env is not first._env


# -- the expression memo ------------------------------------------------------

_EXPRESSIONS = dsl._memoized_expression


def _fuzz_expressions(repo_module, count):
    """count expressions and stress expressions of the fuzzer, seed 0, over
    the builtins in turn."""
    fuzz = repo_module("tests/test_fuzz.py")
    vocabs = [fuzz.Vocabulary(BUILTINS[name](verify=False))
              for name in fuzz.MODELS]
    rng = random.Random(0)
    return [(fuzz.stress_expression if i % 4 == 3 else fuzz.expression)(
                rng, vocabs[i % len(vocabs)]) for i in range(count)]


def test_every_parse_of_a_short_text_is_the_one_immutable_tree(repo_module):
    kept = 0
    for text in _fuzz_expressions(repo_module, 600):
        try:
            tree = dsl._parse_expression_text(text)
        except ModelSyntaxError:
            continue
        assert _mutable_part(tree) is None, text
        if len(text) <= dsl._EXPRESSION_MEMO_TEXT:
            assert dsl._parse_expression_text(text) is tree, text
            kept += 1
    assert kept > 50


def test_a_long_text_is_parsed_every_time():
    text = " + ".join("xy")
    text += " + x" * ((dsl._EXPRESSION_MEMO_TEXT - len(text)) // 4 + 1)
    assert len(text) > dsl._EXPRESSION_MEMO_TEXT
    size = _EXPRESSIONS.cache_info().currsize
    first = dsl._parse_expression_text(text)
    again = dsl._parse_expression_text(text)
    assert again == first and again is not first
    assert _EXPRESSIONS.cache_info().currsize == size


@pytest.mark.parametrize("text,message", [
    ("x + * y", "expected an expression"),
    ("-" * (dsl._MAX_NESTING + 1) + "x",
     "expression nests deeper than %d levels" % dsl._MAX_NESTING),
    ("x $ y", "unexpected character '$'"),
], ids=["syntax", "nesting", "character"])
def test_expression_errors_are_raised_every_time_and_not_stored(text,
                                                                message):
    dsl._parse_expression_text("(y*x)^3")
    size = _EXPRESSIONS.cache_info().currsize
    raised = []
    for _ in range(2):
        with pytest.raises(ModelSyntaxError) as info:
            dsl._parse_expression_text(text)
        raised.append((info.value.message, info.value.line, info.value.col))
    assert raised[0] == raised[1]
    assert raised[0][0] == message
    assert _EXPRESSIONS.cache_info().currsize == size


def test_expression_memo_stays_within_its_bound(repo_module):
    bound = dsl._EXPRESSION_MEMO_SIZE
    assert _EXPRESSIONS.cache_info().maxsize == bound
    for text in _fuzz_expressions(repo_module, 400):
        try:
            dsl._parse_expression_text(text)
        except ModelSyntaxError:
            pass
    assert _EXPRESSIONS.cache_info().currsize <= bound
    for i in range(2 * bound + 5):
        dsl._parse_expression_text("(y*x)^%d" % i)
        assert _EXPRESSIONS.cache_info().currsize <= bound
    assert _EXPRESSIONS.cache_info().currsize == bound


# -- the deferrals of built documents ------------------------------------------

def _loadable_documents(texts):
    """Every parsed document that builds with verify=False, then the
    documents of the builtins."""
    docs = []
    for doc in _documents(texts):
        try:
            build_model(doc, verify=False)
        except ModelError:
            continue
        docs.append(doc)
    assert len(docs) >= 10
    return docs + [build(verify=False).doc for build in BUILTINS.values()]


def _deferrals(bundle):
    """The positions of the checks that wait, then the name and printed
    sides of every check."""
    waiting = [i for i, case in enumerate(bundle._checks)
               if not isinstance(case, CheckCase)]
    return waiting, [(case.name, str(case.lhs), str(case.rhs))
                     for case in bundle.checks]


def _no_trial(bundle, node):
    raise AssertionError("a warm build ran a trial")


def test_a_warm_build_defers_what_a_cold_one_does(texts, monkeypatch):
    """Each document is built cold, the memo cleared before it.  Then the
    documents are built again, each first over the memo another document
    left, and then once more warm, with every trial refused: each time the
    same checks wait, at the same positions, and read the same sides."""
    monkeypatch.setattr(dsl, "_WAITS", {})
    docs = _loadable_documents(texts)
    cold = []
    for doc in docs:
        dsl._WAITS.clear()
        cold.append(_deferrals(build_model(doc, verify=False)))
    assert sum(bool(waiting) for waiting, _ in cold) >= 10
    for doc, want in zip(docs, cold):
        assert _deferrals(build_model(doc, verify=False)) == want
    assert set(dsl._WAITS) == {id(doc) for doc in docs}
    monkeypatch.setattr(dsl.ModelBundle, "_trial", _no_trial)
    for doc, want in zip(reversed(docs), reversed(cold)):
        assert _deferrals(build_model(doc, verify=False)) == want


def test_the_deferrals_of_a_document_go_with_it(monkeypatch):
    monkeypatch.setattr(dsl, "_WAITS", {})
    torus = model_source("quantum-torus")
    doc = ModelDocument(parse_model(torus).statements, "copy")
    build_model(doc, verify=False)
    assert dsl._WAITS == {id(doc): (False, False, True)}
    del doc
    gc.collect()
    assert dsl._WAITS == {}
    with pytest.raises(ModelSemanticError):
        build_model(parse_model(torus + 'check "c": x/(q - q) == x;\n'))
    assert dsl._WAITS == {}
