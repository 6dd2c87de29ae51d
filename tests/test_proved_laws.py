"""The proved calculus laws against the sampled laws they replace.

``run_suite`` records ``theta-diagonal/*`` and ``inner-form`` as passing
without probes, since both hold by construction, and when the algebra
passes its confluence check and every twist of the calculus respects the
relations, it passes ``leibniz-twisted/*`` and ``leibniz-product`` without
drawing samples.  ``sampled_calculus_checks`` below is the oracle: the
calculus layer with nothing recorded or proved, which probes every basis
form on the generators, draws and evaluates ``samples`` random elements
for innerness, and then draws random pairs for each Leibniz law whatever
the hypotheses, so it also guards that the constant records equal the
computed verdicts.  For every model below, seeds 0-5 and ``--samples``
in {0, 1, 20}, ``ncdiff verify`` must print the same and exit with the
same code with the oracle patched in as without it.

The models are those of ``tests/test_verify_pins.py``, the quantum torus
with a swap twist and its geometry kept, and the texts of
``tests/data/dsl_corpus.json`` that load without verification and have a
calc block, one per group of texts that build the same calculus (see
``corpus_documents``).  Output alone cannot show which path ran where the sampled
laws pass, so the fallback is also asserted directly by counting Leibniz
defects.

Where the algebra passed its confluence check, the suite samples both laws
through ``TwistedDerivation.associative_defect``, the inner-derivation
identity, and builds the direct form of ``leibniz-product`` only for its
witness.  The oracle keeps the direct formula, ``leibniz_defect`` and the
form on every pair, so it also checks the identity against the direct
formula: on the models whose twists break the relations the defects are
nonzero, and the first failing pair must be the same on both sides.

The suite also records two inverse checks from what it has built:
``automorphism/<name>/inverse`` passes once ``Endomorphism.inverse``
builds, and ``extension/<lab>/inverse`` probes the inverse extension only
when ``extension/<lab>`` failed.  It decides ``automorphism/<name>`` of a
diagonal map by the scales of each relation's words, and skips building
the inverse of a passed extension over a diagonal twist whose matrix is
diagonal with nonzero entries.  It decides ``d-twice`` from
``two-form-central`` where wedge is associative, takes
``theta-action/<lab>`` in closed form where that applies, and passes
``extension/<lab>`` without a probe when the declared matrix is the
derived one.  ``recomputed_algebra_checks`` and
``recomputed_geometry_checks`` wrap the suite's streams and recompute
these the old way: the ``confluence`` record by the full overlap check,
which rewrites every overlap where the suite proves the q-commuting ones
by their shape (``full_overlap_check`` of
``tests/test_confluence_certificate.py``), every ``automorphism/<name>``
by ``Endomorphism.respects_relations``, the generator round trip of
each passed inverse, and
on every label ``commutes_with_d()`` of the extension and of its inverse,
with each action derived by elimination (``derive_theta_action``).  The
oracle's calculus layer computes ``d-twice`` directly.  So the same
comparison guards that the records equal the computed verdicts, and that
their witnesses are those of the direct computations.
"""

import json
import pathlib

import pytest

from ncdiff import models
from ncdiff.algebra import AlgebraError, random_element
from ncdiff.dsl import ModelDocument, export_model, load_model
from ncdiff.models import (_commutes_through, _first_witness, _sampled_pairs,
                           model_source)
from ncdiff.morphism import TwistedDerivation

from test_confluence_certificate import full_overlap_check

CORPUS_FILE = pathlib.Path(__file__).parent / "data" / "dsl_corpus.json"

SEEDS = range(6)
SAMPLES = (0, 1, 20)


def sampled_calculus_checks(bundle, passed, rng, samples):
    """The calculus layer with every law sampled; ``passed`` is unused."""
    calc = bundle.calculus
    if calc is None:
        return
    for lab in calc.labels:
        witness = _commutes_through(calc, calc.theta(lab), calc.twists[lab],
                                    lab)
        yield ("theta-diagonal/%s" % lab,
               "basis form %s commutes through its twist" % lab,
               witness is None, witness)

    for form_name, auto_name in bundle.extras.get("twisted_basis", ()):
        witness = _commutes_through(calc, bundle.value(form_name),
                                    bundle.autos[auto_name], form_name)
        yield ("twisted-basis/%s" % form_name,
               "%s commutes through %s" % (form_name, auto_name),
               witness is None, witness)

    vt = calc.inner_form()
    probes = calc.generator_elements() + [
        ("random-%d" % i, random_element(calc.algebra, rng))
        for i in range(samples)]
    witness = _first_witness(
        (name, calc.d_element(x) - (calc.wedge(vt, x) - calc.wedge(x, vt)))
        for name, x in probes)
    yield ("inner-form", "d is the commutator with the inner form",
           witness is None, witness)

    witness = calc.d_squared_witness()
    yield ("two-form-central",
           "the square of the inner form is graded central",
           witness is None, witness)

    probes = calc.generator_elements() + [(lab, calc.theta(lab))
                                          for lab in calc.labels]
    witness = _first_witness((name, calc.d(calc.d(x))) for name, x in probes)
    yield ("d-twice", "d applied twice vanishes on generators and basis",
           witness is None, witness)

    for lab in calc.labels:
        witness = _first_witness(
            (name, calc.derivations[lab].leibniz_defect(x, y))
            for name, x, y in _sampled_pairs(calc.algebra, rng, samples))
        yield ("leibniz-twisted/%s" % lab,
               "derivation along %s satisfies the twisted Leibniz rule" % lab,
               witness is None, witness and witness[0])

    witness = _first_witness(
        (name, calc.d_element(x * y)
         - (calc.wedge(calc.d_element(x), calc.embed(y))
            + calc.wedge(calc.embed(x), calc.d_element(y))))
        for name, x, y in _sampled_pairs(calc.algebra, rng, samples))
    yield ("leibniz-product", "d is a derivation on products",
           witness is None, witness)


_ALGEBRA_CHECKS = models._algebra_checks
_GEOMETRY_CHECKS = models._geometry_checks


def _inverse_of(anchor, head):
    """The name in head<name>/inverse, or None for any other anchor."""
    if anchor.startswith(head) and anchor.endswith("/inverse"):
        return anchor[len(head):-len("/inverse")]
    return None


def recomputed_algebra_checks(bundle):
    """The algebra layer with the confluence record recomputed by the full
    overlap check, each automorphism/<name> by respects_relations, and
    each passed automorphism/<name>/inverse recomputed: both compositions
    must fix every generator."""
    for record in _ALGEBRA_CHECKS(bundle):
        if record[0] == "confluence":
            violations = full_overlap_check(bundle.algebra)
            yield record[:2] + (not violations,
                                violations[0] if violations else None)
            continue
        name = record[0][len("automorphism/"):]
        if record[0].startswith("automorphism/") and name in bundle.autos:
            yield record[:2] + (bundle.autos[name].respects_relations(),)
            continue
        name = _inverse_of(record[0], "automorphism/")
        if name is None or not record[2]:
            yield record
            continue
        endo = bundle.autos[name]
        inv = endo.inverse()
        gens = [bundle.algebra.gen(g)
                for g in bundle.algebra.table.base_names]
        yield record[:2] + (all(endo.apply(inv.apply(g)) == g
                                and inv.apply(endo.apply(g)) == g
                                for g in gens),)


def recomputed_geometry_checks(bundle, passed):
    """The geometry layer with nothing deduced: run with no verdict passed,
    so every theta-action/<lab> is derived by elimination, and with every
    extension/<lab> and extension/<lab>/inverse probed; ``passed`` is
    unused."""
    geo = bundle.geometry
    for record in _GEOMETRY_CHECKS(bundle, set()):
        anchor, title = record[:2]
        lab = _inverse_of(anchor, "extension/")
        if lab is not None:
            try:
                witness = geo.inverse_extension(lab).commutes_with_d()
            except AlgebraError as exc:
                witness = exc
        elif title.startswith("extension over"):
            witness = geo.extension(anchor[len("extension/"):]) \
                .commutes_with_d()
        else:
            yield record
            continue
        yield record[:2] + (witness is None, witness)


@pytest.fixture(scope="module")
def workloads(repo_module):
    return repo_module("bench/workloads.py")


@pytest.fixture(scope="module")
def texts(repo_module, workloads):
    """Model texts by case name, builtins excluded."""
    out = repo_module("tests/test_verify_pins.py").model_texts(workloads)
    out["torus-swap-twist-geometry"] = model_source("quantum-torus").replace(
        "  x -> x;\n  y -> r^-1*y;", "  x -> y;\n  y -> x;")
    return out


# Kinds that build nothing the calculus checks read.
_AFTER_THE_CALCULUS = ("check", "extension", "metric", "connection")


def corpus_documents(repo_module):
    """The corpus texts that load without verification and have a calc
    block, one per group, by case id.

    Texts whose statements up to the calc block, checks and geometry left
    out, export alike build the same algebra, twists and calculus, so their
    calculus checks agree.  The extension records are decided from the
    declared matrices, so the extension statements join that key.  The
    rest of the suite does not read the random generator and runs the same
    code on both sides.  Each group is represented by its shortest text.
    """
    recorded = json.loads(CORPUS_FILE.read_text())
    groups = {}
    for case_id, text in repo_module("tests/test_dsl_corpus.py").CASES:
        if "ok" not in recorded[case_id]["no-verify"]:
            continue
        doc = load_model(text, verify=False).doc
        kinds = [stmt.kind for stmt in doc.statements]
        if "calc" not in kinds:
            continue
        head = [stmt for stmt in doc.statements[:kinds.index("calc") + 1]
                if stmt.kind not in _AFTER_THE_CALCULUS]
        head += [stmt for stmt in doc.statements if stmt.kind == "extension"]
        key = export_model(ModelDocument(head, doc.name))
        if key not in groups or len(text) < len(groups[key][1]):
            groups[key] = (case_id, text)
    return dict(groups.values())


def differing_cases(workloads, monkeypatch, spec):
    """The (seed, samples) cases whose output differs from the oracle."""
    def run(seed, samples):
        return workloads.run_cli(["verify", spec, "--seed", str(seed),
                                  "--samples", str(samples)])

    cases = [(seed, n) for seed in SEEDS for n in SAMPLES]
    proved = {case: run(*case) for case in cases}
    with monkeypatch.context() as patch:
        patch.setattr(models, "_calculus_checks", sampled_calculus_checks)
        patch.setattr(models, "_algebra_checks", recomputed_algebra_checks)
        patch.setattr(models, "_geometry_checks", recomputed_geometry_checks)
        return [case for case in cases if run(*case) != proved[case]]


def _spec(name, texts, tmp_path):
    if name in texts:
        path = tmp_path / (name + ".ncd")
        path.write_text(texts[name])
        return str(path)
    return "builtin:" + name


NAMED = ("quantum-torus", "gl-pq2", "gl-pq2-localized", "gl-pq2-rfree",
         "rank-3", "rank-4", "rank-5", "torus-swap-twist",
         "torus-swap-twist-geometry", "torus-symmetric-wedge",
         "non-confluent", "torus-wrong-action")


@pytest.mark.parametrize("name", NAMED)
def test_named_model_matches_the_oracle(name, texts, workloads, monkeypatch,
                                        tmp_path):
    spec = _spec(name, texts, tmp_path)
    assert differing_cases(workloads, monkeypatch, spec) == []


@pytest.mark.parametrize("base", ("quantum-torus", "gl-pq2"))
def test_corpus_documents_match_the_oracle(base, repo_module, workloads,
                                           monkeypatch, tmp_path):
    documents = {case_id: text
                 for case_id, text in corpus_documents(repo_module).items()
                 if case_id.startswith(base + "/")}
    assert documents
    wrong = {}
    for case_id, text in documents.items():
        path = tmp_path / "model.ncd"
        path.write_text(text)
        differing = differing_cases(workloads, monkeypatch, str(path))
        if differing:
            wrong[case_id] = differing
    assert wrong == {}


# The unproved models that sample through the identity; the others sample
# by the direct formula, since their algebra is not confluent.
IDENTITY_SAMPLED = ("gl-pq2-rfree", "torus-swap-twist")


@pytest.mark.parametrize("name, proved", [
    ("quantum-torus", True),
    ("rank-4", True),
    # phi respects the relations and the sampled laws pass, but the
    # algebra is not confluent.
    ("non-confluent", False),
    # six of its twists break the relations.
    ("gl-pq2-rfree", False),
    ("torus-swap-twist", False)])
def test_sampled_fallback_runs_exactly_when_unproved(
        name, proved, texts, workloads, monkeypatch, tmp_path):
    called = []
    for method in ("leibniz_defect", "associative_defect"):
        monkeypatch.setattr(TwistedDerivation, method,
                            _counting(method, called))
    workloads.run_cli(
        ["verify", _spec(name, texts, tmp_path), "--samples", "20"])
    assert (called == []) is proved
    assert ("leibniz_defect" in called) is (name == "non-confluent")
    assert ("associative_defect" in called) is (name in IDENTITY_SAMPLED)


def _counting(method, called):
    """TwistedDerivation.<method>, appending its name to called per call."""
    original = getattr(TwistedDerivation, method)

    def counting(self, *args):
        called.append(method)
        return original(self, *args)
    return counting
