"""The load memos: parsed texts, expression trees, the gl-pq2 documents
and the records of built documents.

``dsl.parse_model`` memoizes its parse on the source text,
``dsl._parse_expression_text`` memoizes the tree of a short expression
text, and ``models._glpq_document`` keeps the gl-pq2 and gl-pq2-localized
documents for the process.  Documents and trees are immutable, so these
memos hand out the one value they hold.  ``dsl.build_model`` keeps, for
each document it built, its record (``dsl._RECORDS``): what evaluating the
document gave, from which every load constructs its bundle.

These tests check that every statement of a parsed or derived document,
and every memoized tree, holds only immutable values; that a memo answers
each text with that text's own parse, never stores an error and stays
within its bound; that the gl-pq2 documents are derived as a fresh parse
and build would derive them; that a load constructed from a record holds
what evaluation gave, term for term and in stored order, the verdicts of
its checks included, and evaluates no expression (nor, unverified,
subtracts a value); that a record goes with its document, is never kept
for a build that raises, and stays within the bound the ``dsl`` docstring
states; that a verified load still checks the maps of a record made
unverified; that every load still gets a bundle of its own, sharing only
immutable values with other loads and with the record; and that a bundle
is freed when its last reference goes.
"""

import gc
import hashlib
import itertools
import random
import functools
import tracemalloc
import weakref

import pytest

from ncdiff import dsl
from ncdiff.algebra import AlgebraError, Element, GeneratorTable, LinearSum
from ncdiff.coeff import ParameterSet, RationalFunction
from ncdiff.dsl import (ModelDocument, ModelError, ModelSemanticError,
                        ModelSyntaxError, build_model, export_model,
                        parse_model, parse_statement)
from ncdiff.models import (BUILTINS, _adjoin_det_inverse, _det_scales,
                           _glpq_document, _model_checks, _with_mirror_checks,
                           available_models, model_source, run_suite)

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
    assert second.checks is not first.checks
    assert second._env is not first._env


@pytest.mark.parametrize("expr", ["(a + b)^3", "(a + d)^3", "(b + c)^4"])
def test_a_bundle_that_took_a_power_of_a_sum_is_freed(expr, run_tables):
    """With the cycle collector off, the run-pair tables of a power of a
    sum on gl-pq2 go when the power returns, and the bundle goes, algebra
    included, when its last reference does: the algebra keeps no tables."""
    bundle = BUILTINS["gl-pq2"](verify=False)
    gc.disable()
    try:
        bundle.eval_expression(expr)
        assert len(run_tables) == 1
        assert [ref() for ref in run_tables] == [None]
        refs = weakref.ref(bundle), weakref.ref(bundle.algebra)
        del bundle
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


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


# -- the records of built documents -------------------------------------------

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


def _rfree_text():
    text = model_source("gl-pq2")
    assert "subst r = p*q;\n" in text
    return text.replace("subst r = p*q;\n", "")


def _recorded_documents(texts, repo_module):
    """The loadable documents, the rank-3..5 spaces of the benchmark at two
    seeds each, and the r-free gl-pq2 text, each document once."""
    rank_n_text = repo_module("bench/workloads.py").rank_n_text
    extra = [rank_n_text(n, seed) for n in (3, 4, 5) for seed in (7, 1000 + n)]
    docs = _loadable_documents(texts) + [parse_model(text) for text in
                                         extra + [_rfree_text()]]
    return list({id(doc): doc for doc in docs}.values())


def _check_verdicts(bundle):
    """The name and witness of every check, read from ``checks``."""
    return [(case.name, case.witness) for case in bundle.checks]


def _evaluations(monkeypatch):
    """A list that gets each expression node evaluated from now on."""
    nodes = []
    evaluate = dsl._Evaluator.eval

    def counted(evaluator, node):
        nodes.append(node)
        return evaluate(evaluator, node)
    monkeypatch.setattr(dsl._Evaluator, "eval", counted)
    return nodes


def test_a_warm_build_reads_the_checks_a_cold_one_does(texts, monkeypatch):
    """Each document is built cold, the record table cleared before it.
    Then the documents are built again, each first over the table another
    document left, and then once more warm: each time every check reads
    the same verdict, and the warm builds evaluate no expression."""
    monkeypatch.setattr(dsl, "_RECORDS", {})
    docs = _loadable_documents(texts)
    cold = []
    for doc in docs:
        dsl._RECORDS.clear()
        cold.append(_check_verdicts(build_model(doc, verify=False)))
    assert sum(bool(checks) for checks in cold) >= 10
    for doc, want in zip(docs, cold):
        assert _check_verdicts(build_model(doc, verify=False)) == want
    assert set(dsl._RECORDS) == {id(doc) for doc in docs}
    nodes = _evaluations(monkeypatch)
    for doc, want in zip(reversed(docs), reversed(cold)):
        assert _check_verdicts(build_model(doc, verify=False)) == want
    assert nodes == []


@pytest.mark.parametrize("name", sorted(BUILTINS) + ["gl-pq2-rfree"])
def test_a_later_load_evaluates_no_expression(name, monkeypatch):
    """A load after the first, its checks read, evaluates no expression
    node, verified or not.  An unverified load subtracts no element or
    form, and the suite's records of its checks subtract none: each reads
    the verdict the first build recorded.  The r-free gl-pq2 text loads
    unverified."""
    if name == "gl-pq2-rfree":
        doc = parse_model(_rfree_text())
        build = functools.partial(build_model, doc)
        verifies = (False,)
    else:
        build = BUILTINS[name]
        verifies = (False, True)
    build(verify=False)
    nodes = _evaluations(monkeypatch)
    subtractions = []
    subtract = LinearSum.__sub__
    monkeypatch.setattr(LinearSum, "__sub__", lambda a, b: (
        subtractions.append(a) or subtract(a, b)))
    for verify in verifies:
        bundle = build(verify=verify)
        assert verify or subtractions == []
        subtractions.clear()  # a verified load checks its maps
        records = list(_model_checks(bundle))
        assert len(records) == len(bundle.checks) >= 3
        assert [(ok, witness) for *_, ok, witness in records] == [
            (case.witness is None, case.witness) for case in bundle.checks]
        assert subtractions == []
    assert nodes == []


def _verdicts(record):
    """The recorded CheckCase of every check step."""
    return [step[1] for step in record.steps if step[0] == "check"]


def test_the_check_verdicts_of_a_document_go_with_it(monkeypatch):
    """The record of a document, which holds the verdict of each check,
    goes with the document; a build that raises leaves none."""
    monkeypatch.setattr(dsl, "_RECORDS", {})
    torus = model_source("quantum-torus")
    doc = ModelDocument(parse_model(torus).statements, "copy")
    build_model(doc, verify=False)
    assert list(dsl._RECORDS) == [id(doc)]
    assert _verdicts(dsl._RECORDS[id(doc)]) == [
        ("theta1-from-dx", None), ("theta2-from-dy-dx", None),
        ("inner-form", None)]
    del doc
    gc.collect()
    assert dsl._RECORDS == {}
    with pytest.raises(ModelSemanticError):
        build_model(parse_model(torus + 'check "c": x/(q - q) == x;\n'))
    assert dsl._RECORDS == {}


def _coeff(rf):
    return list(rf.num.terms.items()), list(rf.den.terms.items())


def _terms(terms):
    """Element terms in stored order, each coefficient as its layout."""
    return [(word, _coeff(c)) for word, c in terms.items()]


def _value(value):
    """The type, printed text and stored layout of a value."""
    if isinstance(value, RationalFunction):
        layout = _coeff(value)
    elif isinstance(value, Element):
        layout = _terms(value.terms)
    else:
        layout = [(key, _terms(elt.terms)) for key, elt in value.terms.items()]
    return type(value).__name__, str(value), layout


def _layout(bundle):
    """Everything a load holds, in stored order, down to the terms of every
    coefficient."""
    algebra = bundle.algebra
    out = [("rules", [(pair, [_terms(rhs) for rhs in rhs_list])
                      for pair, rhs_list in algebra.rules.items()]),
           ("relations", [(_terms(lhs), _terms(rhs))
                          for lhs, rhs in algebra.relations]),
           ("env", [(name, _value(v)) for name, v in bundle._env.items()]),
           ("autos", [(name, [(sym, _terms(img.terms))
                              for sym, img in endo.images.items()],
                       None if endo._scales is None else
                       [(sym, _coeff(c)) for sym, c in endo._scales.items()])
                      for name, endo in bundle.autos.items()]),
           ("checks", _check_verdicts(bundle))]
    calc = bundle.calculus
    if calc is not None:
        out += [("calculus", calc.labels,
                 [(lab, calc.twists[lab].name, _terms(w.terms))
                  for lab, w in calc.weights.items()],
                 [(key, [(_coeff(rf), pair) for rf, pair in entries])
                  for key, entries in calc.theta_rules.items()]),
                ("extensions", [(lab, ext.base.name,
                                 [[_coeff(rf) for rf in row]
                                  for row in ext.matrix])
                                for lab, ext in
                                bundle.geometry.extensions.items()]),
                ("metrics", [(name, _value(metric))
                             for name, metric in bundle.metrics.items()]),
                ("connections", [(name, [(key, _value(form))
                                         for key, form in conn.table.items()])
                                 for name, conn in bundle.connections.items()])]
    return out


def _suite(bundle):
    """The suite's records at seeds 0 and 1, or what a run raises."""
    out = []
    for seed in (0, 1):
        try:
            out.append([(r.anchor, r.name, r.status, r.witness)
                        for r in run_suite(bundle, seed).results])
        except AlgebraError as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


def test_construction_equals_evaluation_term_for_term(texts, repo_module,
                                                      monkeypatch):
    """Each document is built over an empty record table, which evaluates
    it, and then again from the record kept: the builder's own bundle, the
    first load and the second hold the same values in the same stored
    layout, and the suite gives the same records on all three."""
    docs = _recorded_documents(texts, repo_module)
    monkeypatch.setattr(dsl, "_RECORDS", {})
    evaluated = []
    evaluate = dsl._Builder.evaluate

    def kept(builder):
        record = evaluate(builder)
        evaluated.append(builder.bundle)
        return record
    monkeypatch.setattr(dsl._Builder, "evaluate", kept)
    ran = 0
    for i, doc in enumerate(docs):
        first = build_model(doc, verify=False)
        second = build_model(doc, verify=False)
        assert len(evaluated) == i + 1
        want = _layout(evaluated[i])
        assert _layout(first) == want, doc.name
        assert _layout(second) == want, doc.name
        suite = _suite(evaluated[i])
        assert _suite(first) == suite and _suite(second) == suite, doc.name
        ran += isinstance(suite[0], list)
    assert len(evaluated) == len(docs) >= 100 and ran >= 90


_UNSHARED = (str, int, bool, type(None), type, RationalFunction,
             ParameterSet, GeneratorTable, ModelDocument)


def _objects(*roots):
    """id -> object of every dict, list and engine object reachable from
    the roots through containers and attributes.  Tuples and frozensets
    are walked, and immutable values are neither walked nor kept."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, _UNSHARED) or id(obj) in seen:
            continue
        if isinstance(obj, (tuple, frozenset)):
            stack.extend(obj)
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, set)):
            stack.extend(obj)
        else:
            slots = [name for cls in type(obj).__mro__
                     for name in getattr(cls, "__slots__", ())]
            stack.extend(getattr(obj, name) for name in slots
                         if hasattr(obj, name))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return seen


def _load_objects(bundle):
    geometry = bundle.geometry
    return _objects(bundle.algebra.rules, bundle.algebra.relations,
                    bundle._env, bundle.autos, bundle.calculus,
                    geometry and geometry.extensions, bundle.metrics,
                    bundle.connections, bundle.checks)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_loads_share_only_immutable_values(name):
    """Two loads of one document, and its record, share no dict, list or
    engine object: only words, coefficients, the ParameterSet and the
    GeneratorTable, which nothing changes.  The walk reaches the facts of
    the rules that the record keeps and each load's algebra holds: the run
    index, the rule shapes and the run-pair layout."""
    first = BUILTINS[name](verify=False)
    second = BUILTINS[name](verify=False)
    record = dsl._RECORDS[id(first.doc)]
    mine, theirs = _load_objects(first), _load_objects(second)
    kept = _objects(record)
    assert len(mine) > 100 and len(kept) > 50
    runs = record.facts[0]
    assert id(runs) in kept and id(first.algebra._runs) in mine
    assert not mine.keys() & theirs.keys()
    assert not mine.keys() & kept.keys()
    assert not theirs.keys() & kept.keys()
    assert first.params is second.params is record.params
    assert first.algebra.table is second.algebra.table is record.table
    types = {type(obj).__name__ for obj in mine.values()}
    assert {"dict", "list", "Element", "Form", "Endomorphism", "Calculus",
            "Algebra"} <= types


def test_a_build_that_raises_keeps_no_record_and_raises_again(monkeypatch):
    monkeypatch.setattr(dsl, "_RECORDS", {})
    doc = parse_model(model_source("quantum-torus")
                      + 'check "c": x/(q - q) == x;\n')
    raised = []
    for _ in range(2):
        with pytest.raises(ModelSemanticError) as info:
            build_model(doc, verify=False)
        raised.append((info.value.message, info.value.line, info.value.col))
        assert dsl._RECORDS == {}
    assert raised[0] == raised[1] == ("division by zero", 65, 13)


def test_a_verified_load_checks_the_maps_a_record_holds(monkeypatch):
    """The r-free gl-pq2 text builds unverified; a verified load from that
    record then fails as a cold verified build does."""
    monkeypatch.setattr(dsl, "_RECORDS", {})
    doc = parse_model(_rfree_text())
    with pytest.raises(ModelSemanticError) as cold:
        build_model(doc, verify=True)
    assert dsl._RECORDS == {}
    build_model(doc, verify=False)
    assert list(dsl._RECORDS) == [id(doc)]
    with pytest.raises(ModelSemanticError) as warm:
        build_model(doc, verify=True)
    raised = [(info.value.message, info.value.line, info.value.col)
              for info in (cold, warm)]
    assert raised[0] == raised[1]
    assert raised[0][0] == "'phi1' does not respect the relations"


def test_the_record_of_gl_pq2_localized_is_bounded():
    """The record's size as tracemalloc counts it, within the bound the
    dsl docstring states; an evaluation before warms the process."""
    doc = _glpq_document(True)
    dsl._Builder(doc, False).evaluate()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record = dsl._Builder(doc, False).evaluate()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert record.steps and 20_000 < size < 150_000


def test_a_document_equals_itself_without_an_export(monkeypatch):
    doc = _glpq_document(True)
    exports = []
    export = dsl.export_model

    def counted(document):
        exports.append(document)
        return export(document)
    monkeypatch.setattr(dsl, "export_model", counted)
    assert doc == doc
    assert exports == []
    copy = ModelDocument(doc.statements, doc.name)
    assert copy == doc and doc == copy
    assert doc != _glpq_document(False)
    assert ModelDocument(doc.statements, "other") != doc
    assert len(exports) == 8
    with pytest.raises(TypeError):
        hash(doc)
