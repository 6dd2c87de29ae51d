"""The load memos: parsed texts and the gl-pq2 documents.

``dsl.parse_model`` memoizes its parse on the source text, and
``models._glpq_document`` keeps the gl-pq2 and gl-pq2-localized documents
for the process.  These tests check that a memo hands out fresh documents
whose edits cannot reach it, answers each text with that text's own
parse, never stores an error, stays within its bound, derives the gl-pq2
documents as a fresh parse and build would, and that every load still
builds a bundle of its own.
"""

import hashlib

import pytest

from ncdiff import dsl
from ncdiff.dsl import (ModelError, ModelSemanticError, ModelSyntaxError,
                        build_model, export_model, parse_model)
from ncdiff.models import (BUILTINS, _adjoin_det_inverse, _det_scales,
                           _glpq_document, _with_mirror_checks,
                           available_models, model_source)

# sha256 of export_model of the gl-pq2-localized document, as the builder
# wrote it when it built gl-pq2 once per load.
_LOCALIZED_EXPORT_SHA256 = (
    "3a11e687c3f69cd2ded2c5af328aa37833b6a9619c6e780cd464ba74a1ed5a7a")

_POWERS = {"quantum-torus": "(x + y + x^-1 + y^-1)^6",
           "gl-pq2": "(a + b + c + d)^6",
           "gl-pq2-localized": "(a + b + c + d)^6"}


@pytest.fixture(scope="module")
def texts(repo_module):
    """Every builtin source, then every corpus text, in a fixed order."""
    corpus = repo_module("tests/test_dsl_corpus.py").CASES
    return ([model_source(name) for name in available_models()]
            + [text for _, text in corpus])


def _outcome(text):
    """What parsing the text gives: its exported document, or its error."""
    try:
        doc = parse_model(text)
    except ModelError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.col)
    return ("ok", doc.name, export_model(doc))


def test_parses_are_equal_documents_over_fresh_lists(texts):
    parsed = 0
    for text in texts:
        try:
            first = parse_model(text)
        except ModelError:
            continue
        second = parse_model(text)
        assert first == second
        assert first.statements is not second.statements
        first.statements.append(first.statements[0])
        first.statements.reverse()
        third = parse_model(text)
        assert third == second
        assert third.statements == second.statements
        parsed += 1
    assert parsed >= len(available_models()) + 20


def test_each_text_gets_its_own_parse(texts):
    """Outcomes with the memo cold for every text, then with it warm and
    filled in the reverse order: a memo that answered one text with
    another's parse (same length, same prefix, ...) would show here."""
    cold = {}
    for text in texts:
        dsl._parsed.cache_clear()
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
    size = dsl._parsed.cache_info().currsize
    raised = []
    for _ in range(2):
        with pytest.raises(error) as info:
            parse_model(broken)
        raised.append((info.value.message, info.value.line, info.value.col))
    assert raised[0] == raised[1]
    assert dsl._parsed.cache_info().currsize == size


def test_memo_stays_within_its_bound():
    bound = dsl._PARSE_MEMO_SIZE
    assert dsl._parsed.cache_info().maxsize == bound
    torus = model_source("quantum-torus")
    for i in range(2 * bound + 5):
        parse_model(torus + "# text %d\n" % i)
        assert dsl._parsed.cache_info().currsize <= bound
    assert dsl._parsed.cache_info().currsize == bound


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
        assert bundle.doc == _glpq_document(adjoin)
        assert bundle.doc is not _glpq_document(adjoin)
        assert bundle.doc.statements is not _glpq_document(adjoin).statements


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_loads_share_no_engine_state(name):
    first = BUILTINS[name](verify=False)
    second = BUILTINS[name](verify=False)
    first.eval_expression(_POWERS[name])
    assert first.algebra._nf_cache
    assert second.algebra is not first.algebra
    assert second.algebra._nf_cache == {}
    assert second.doc.statements is not first.doc.statements
    second.doc.statements.clear()
    assert BUILTINS[name](verify=False).doc == first.doc
