"""Shipped models and the structural verification suite.

Two model files ship with the package: a two-generator quantum torus with a
Wess-Zumino style calculus, and a two-parameter quantum 2x2 group carrying
its second four-dimensional calculus.  The builders here parse those files,
attach the frozen expectations the suite compares against, and optionally
extend the quantum group by a formal inverse of its determinant whose
commutation rules are derived by the engine rather than entered by hand.
The determinant's scales are read once per process, from a verify=False
build of the constant gl-pq2 text; loads share the immutable documents of
both gl-pq2 builtins, kept for the process, and never share a bundle.

run_suite executes every structural layer in a fixed order: relation
soundness, local confluence, automorphism checks, basis diagonality, the
twisted second basis, innerness, vanishing of the square of d, the twisted
Leibniz rule, differentiability of the basis extensions, metric
compatibility, torsion, derived commutation relations, determinant
commutation, and finally the identities declared in the model file itself.
Each layer is a generator of (anchor, name, ok[, witness]) records, and the
suite is their concatenation, one CheckResult per record.

Two checks hold by construction in every run and are recorded as passing
without probes: wedge passes a coefficient through a basis form by its
twist, which is theta-diagonal/<s> (theta^s a = phi_s(a) theta^s), and
that makes vtheta a - a vtheta = d(a), which is inner-form;
tests/test_inner_identity.py pins both identities term for term.  Two
inverse checks are recorded too: Endomorphism.inverse builds only for a
diagonal map, phi(g) = c_g g, scaling each g by c_g^-1, so
automorphism/<name>/inverse passes once it builds; an extension E and
its inverse E' satisfy E'E = EE' = id and are linear over the scalars,
so E' commutes with d exactly when E does, and extension/<lab>/inverse
probes E' only when extension/<lab> failed, for its witness.  Where E'
need not be built at all, the record is deduced (below).

The two Leibniz laws are proved once per suite when they can be.  Each
derivation e_s(x) = a_s phi_s(x) - x a_s is inner, and expanding gives
e_s(xy) - e_s(x) phi_s(y) - x e_s(y) = a_s (phi_s(xy) - phi_s(x) phi_s(y)).
If the algebra passed its confluence check, normal forms are unique and
the product is associative; if each twist passed automorphism/<name>, it
respects the relations and so is multiplicative on normal forms.  Then
the defect vanishes for all x and y and the Leibniz law of d follows
term by term, so under these two verdicts, read from the algebra checks
already run, the Leibniz laws pass without samples.  Otherwise they are
sampled from one random.Random(seed): the suite still makes the draws of
samples unused elements first, building none of them, then each Leibniz
law draws x and y of a pair only when it checks the pair, so it stops at
its first failure.

Five more records are decided from verdicts already in hand, each under
a stated hypothesis; where it fails, the record is computed directly, so
every witness is that of the direct computation.
- automorphism/<name>.  A diagonal map multiplies each word w by its
  character chi(w), the product of its letters' scales; words with one
  exponent vector over the base generators, an inverse symbol counting
  negative, have one character.  Where the relations record passed and
  every word of a relation, both sides, has one character chi, the image
  of lhs - rhs is chi (lhs - rhs), which normalizes to zero, so the map
  keeps the relation.  One word per vector is compared, once per map
  (_character_classes, _keeps_characters).  The inverse pairs hold by
  construction: the image of g^-1 is c_g^-1 g^-1, and g g^-1 rewrites
  to 1 by the first rule of its pair, which is always the cancel.
  Otherwise Endomorphism.respects_relations normalizes the images; on
  gl-pq2 with r free six twists scale a*d and b*c apart and are
  normalized.
- d-twice.  d is the graded commutator with vtheta on forms, and on
  elements too (inner-form).  Where wedge is associative, expanding gives
  d(d x) = vtheta^2 x - x vtheta^2 for every generator and basis form x,
  which are the values two-form-central tests.  So d-twice passes when
  two-form-central passed and wedge is associative: the algebra passed
  its confluence check and every twist its automorphism check (the
  hypothesis of the Leibniz laws), every twist is diagonal, every descent
  t_i t_j has a rule, each term t_k t_l of a rule for t_i t_j passes
  coefficients by the same map (phi_k phi_l = phi_i phi_j), and the theta
  rules are confluent, tested on the overlaps t_i t_j t_k, i >= j >= k
  (_wedge_associative).  On gl-pq2 with r free the twists break the
  relations, and d(d x) differs from that commutator.
- theta-action/<lab>.  Where the algebra passed its confluence check and
  the twist psi of lab passed its automorphism check, the action derived
  for psi is taken in closed form when that form applies
  (geometry.closed_theta_action): it is diag(lam_s^-1) when psi and every
  twist are diagonal, each weight satisfies psi(a_s) = lam_s a_s with a
  Laurent unit lam_s, and the coefficients e_s(g) of d(g) are linearly
  independent.  Otherwise it is derived by elimination.
- extension/<lab>.  The derived action M solves
  sum_k M[k][j] psi(e_k(g)) = e_j(psi g) exactly, so a declared matrix
  equal to M gives E(d g) = d(psi g) on every generator, and the
  extension passes without a probe.  Any other matrix, or an action that
  cannot be derived, is probed with commutes_with_d.
- extension/<lab>/inverse.  Where extension/<lab> passed, the twist is
  diagonal, so that Endomorphism.inverse builds, and the declared matrix
  is diagonal with every diagonal entry nonzero, so that it inverts, the
  inverse extension exists and commutes with d as E does: it is not
  built.  Otherwise it is built, and probed when E failed.

When the laws are sampled and the confluence check passed, the identity's
one hypothesis, each pair is tested through it: the defect is then a_s
times phi_s's failure to be multiplicative on the pair, which is what
the samples test.  leibniz-twisted/<s> takes
TwistedDerivation.associative_defect, three products where the direct
formula takes nine.  Component s of d(xy) - (d(x) y + x d(y)) is label
s's twisted defect, since wedge passes y through theta^s by phi_s, so a
leibniz-product pair passes when every label's identity is zero.  Only
the first pair that breaks an identity builds that form, its witness, so
witnesses are those of the direct formula.  Without a passed confluence
check both laws are sampled by the direct formula, leibniz_defect and
the form, on every pair.
"""

from __future__ import annotations

import random
from functools import cache, partial
from importlib import resources
from itertools import chain

from .algebra import (AlgebraError, Element, _accumulate, _first_witness,
                      _random_terms, random_element)
from .calculus import Calculus
from .dsl import (ModelBundle, ModelDocument, Statement, build_model,
                  parse_coefficient, parse_model, parse_statement,
                  rename_atoms)
from .geometry import GeometryError, closed_theta_action, derive_theta_action

MODEL_FILES = {
    "quantum-torus": "quantum_torus.ncd",
    "gl-pq2": "gl_pq2.ncd",
}

_TORUS_EXPECTED_RELATIONS = {
    ("x", "dx"): [("r", ("dx", "x"))],
    ("x", "dy"): [("r - 1", ("dx", "y")), ("q", ("dy", "x"))],
    ("y", "dx"): [("r/q", ("dx", "y"))],
    ("y", "dy"): [("r", ("dy", "y"))],
}

_GL_DET_LAMBDAS = {"a": "1", "b": "p/q", "c": "q/p", "d": "1"}


def available_models():
    return sorted(MODEL_FILES)


def model_source(name: str) -> str:
    filename = MODEL_FILES.get(name)
    if filename is None:
        raise KeyError("unknown model %r; available: %s"
                       % (name, ", ".join(available_models())))
    return resources.files("ncdiff").joinpath("data", filename).read_text()


def build_quantum_torus(verify: bool = True) -> ModelBundle:
    bundle = build_model(parse_model(model_source("quantum-torus")),
                         verify=verify)
    bundle.extras["expected_relations"] = _TORUS_EXPECTED_RELATIONS
    bundle.extras["torsion_zero"] = "triv"
    return bundle


def build_glpq(adjoin_det_inverse: bool = False,
               verify: bool = True) -> ModelBundle:
    """The two-parameter quantum 2x2 group with its calculus.

    The model file pins r = p*q, the curve on which the twists respect
    the relations.  With adjoin_det_inverse the model also gets Dinv, a
    formal inverse of the determinant, whose scales are read once per
    process off a verify=False build of the constant gl-pq2 text.  Loads
    share the document, never the bundle.
    """
    bundle = build_model(_glpq_document(adjoin_det_inverse), verify=verify)
    if adjoin_det_inverse:
        bundle.extras["localized"] = "Dinv"
    bundle.extras["twisted_basis"] = [("tt%d" % s, "phit%d" % s)
                                      for s in range(1, 5)]
    bundle.extras["det"] = _GL_DET_LAMBDAS
    return bundle


# The shipped builtins by name; each builder takes verify=.
BUILTINS = {
    "quantum-torus": build_quantum_torus,
    "gl-pq2": build_glpq,
    "gl-pq2-localized": partial(build_glpq, adjoin_det_inverse=True),
}


@cache
def _glpq_document(adjoin_det_inverse: bool) -> ModelDocument:
    """The gl-pq2 document with its mirror checks, and with Dinv adjoined
    when asked; its text is constant, so each is derived once."""
    if adjoin_det_inverse:
        doc = _glpq_document(False)
        lambdas, sigmas = _det_scales(build_model(doc, verify=False))
        return _adjoin_det_inverse(doc, lambdas, sigmas)
    return _with_mirror_checks(parse_model(model_source("gl-pq2")))


def _with_mirror_checks(doc: ModelDocument) -> ModelDocument:
    """Append the a -> c, b -> d mirror image of every mc check."""
    mirror = {"a": "c", "b": "d"}
    statements = list(doc.statements)
    for stmt in doc.statements:
        if stmt.kind != "check" or not stmt.data[0].startswith("mc"):
            continue
        name, lhs, rhs = stmt.data
        statements.append(Statement(
            "check", (name + "-mirror", rename_atoms(lhs, mirror),
                      rename_atoms(rhs, mirror)), stmt.line, stmt.col))
    return ModelDocument(statements, doc.name)


def scalar_ratio(left: Element, right: Element):
    """The coefficient lam with left = lam * right, or None."""
    if right.is_zero():
        return None
    if set(left.terms) != set(right.terms):
        return None
    ratio = None
    for word, coeff in right.terms.items():
        candidate = left.terms[word] / coeff
        if ratio is None:
            ratio = candidate
        elif ratio != candidate:
            return None
    return ratio


def _det_scales(bundle: ModelBundle):
    """The scalars lam_g with D*g = lam_g*g*D, one per symbol in table
    order, and sig_phi with phi(D) = sig_phi*D, one per automorphism."""
    det = bundle.value("D")
    alg = bundle.algebra
    lambdas = {}
    for sym, sym_name in enumerate(alg.table.symbols):
        g = alg.symbol_element(sym)
        lam = scalar_ratio(det * g, g * det)
        if lam is None:
            raise ValueError(
                "determinant does not scale-commute past %r" % sym_name)
        lambdas[sym_name] = lam
    sigmas = {}
    for name, endo in bundle.autos.items():
        sigma = scalar_ratio(endo.apply(det), det)
        if sigma is None:
            raise ValueError("twist %r does not scale the determinant" % name)
        sigmas[name] = sigma
    return lambdas, sigmas


def _adjoin_det_inverse(doc: ModelDocument, lambdas: dict,
                        sigmas: dict) -> ModelDocument:
    """Extend the document by a formal inverse Dinv of the determinant.

    The new generator commutes past every symbol with the inverse of the
    scale the determinant itself picks up, and every twist maps it to the
    inverse scale of its action on the determinant.  Both tables, derived
    from the base model by _det_scales, are written into the document as
    one rel line per symbol, placed after the last base relation, and one
    Dinv image per auto block.  The unit identity with the determinant is
    not imposed, since rewriting is restricted to two-letter rules;
    products with the determinant stay formal.
    """
    name = doc.name + "-localized"
    statements = list(doc.statements)
    last = {stmt.kind: i for i, stmt in enumerate(statements)}
    for i, stmt in enumerate(statements):
        if stmt.kind == "model":
            statements[i] = Statement("model", name, stmt.line, stmt.col)
        elif stmt.kind == "gen" and i == last["gen"]:
            statements[i] = Statement("gen", stmt.data + ("Dinv",),
                                      stmt.line, stmt.col)
        elif stmt.kind == "auto":
            auto, entries = stmt.data
            image = parse_statement("auto %s { Dinv -> (%s)*Dinv; }"
                                    % (auto, sigmas[auto].inverse()))
            statements[i] = Statement("auto", (auto, entries + image.data[1]),
                                      stmt.line, stmt.col)
    statements[last["rel"] + 1:last["rel"] + 1] = [
        parse_statement("rel Dinv*%s = (%s)*%s*Dinv;"
                        % (g, lam.inverse(), g))
        for g, lam in lambdas.items()]
    return ModelDocument(statements, name)


# -- the suite ----------------------------------------------------------------

class CheckResult:
    """One verdict of the suite; a witness is kept, as text, only on failure."""

    __slots__ = ("anchor", "name", "status", "witness")

    def __init__(self, anchor: str, name: str, ok: bool, witness=None):
        self.anchor = anchor
        self.name = name
        self.status = "pass" if ok else "fail"
        self.witness = None if ok or witness is None else str(witness)

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class SuiteReport:
    def __init__(self, model: str, seed: int, results):
        self.model = model
        self.seed = seed
        self.results = list(results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def run_suite(bundle: ModelBundle, seed: int = 0,
              samples: int = 20) -> SuiteReport:
    """Run every check in its fixed order, one CheckResult per record.

    samples is the number of random pairs per unproved Leibniz law, drawn
    after as many unevaluated elements; a negative count is refused, since
    it would check no pairs.
    """
    if samples < 0:
        raise ValueError("samples must be 0 or more, not %d" % samples)
    results = [CheckResult(*record) for record in _algebra_checks(bundle)]
    passed = {result.anchor for result in results if result.ok}
    streams = (_calculus_checks(bundle, passed, random.Random(seed), samples),
               _geometry_checks(bundle, passed),
               _expected_relation_checks(bundle),
               _det_checks(bundle),
               _model_checks(bundle))
    results += [CheckResult(*record) for stream in streams
                for record in stream]
    return SuiteReport(bundle.name, seed, results)


def _algebra_checks(bundle):
    alg = bundle.algebra
    sound = alg.verify_relations()
    yield "relations", "declared relations rewrite to zero", sound
    violations = alg.check_confluence()
    yield ("confluence", "all rewrite overlaps close",
           not violations, violations[0] if violations else None)

    classes = _character_classes(alg) if sound else None
    for name in sorted(bundle.autos):
        endo = bundle.autos[name]
        ok = ((classes is not None and endo._scales is not None
               and _keeps_characters(endo, classes))
              or endo.respects_relations())
        yield ("automorphism/%s" % name, "%s respects the relations" % name,
               ok)
        if not ok:
            continue
        anchor = "automorphism/%s/inverse" % name
        try:
            endo.inverse()
        except AlgebraError as exc:
            yield anchor, "%s inverts" % name, False, exc
        else:
            yield (anchor, "%s composed with its inverse is the identity"
                   % name, True)


def _character_classes(alg) -> list:
    """One word of each exponent vector over the base generators, an
    inverse symbol counting negative, per declared relation whose words,
    both sides, have more than one vector.  Words of one vector take one
    scale under every diagonal map (see the module docstring)."""
    base = alg.table.base_index
    classes = []
    for lhs, rhs in alg.relations:
        words = {}
        for word in chain(lhs, rhs):
            vector = {}
            for sym, count in word:
                b = base[sym]
                vector[b] = vector.get(b, 0) + (count if b == sym else -count)
            words.setdefault(frozenset(vector.items()), word)
        if len(words) > 1:
            classes.append(list(words.values()))
    return classes


def _keeps_characters(endo, classes) -> bool:
    """Whether the diagonal endo gives the words of each class, and so
    every word of its relation, one scale."""
    chi = endo._chi
    for first, *rest in classes:
        scale = chi(first)
        if any(chi(word) != scale for word in rest):
            return False
    return True


def _sampled_pairs(alg, rng, samples: int):
    """Named random pairs (x, y), each drawn, x first, only when asked for."""
    for i in range(samples):
        x = random_element(alg, rng)
        yield "sample %d" % i, x, random_element(alg, rng)


def _commutes_through(calc: Calculus, form, endo, form_name: str):
    """None when form * g = phi(g) * form on every generator g, else the
    first failure as text."""
    hit = _first_witness(
        (name, calc.wedge(form, calc.embed(g))
         - calc.embed(endo.apply(g)) * form)
        for name, g in calc.generator_elements())
    return hit and "%s against %s: %s" % (form_name, hit[0], hit[1])


def _laws_proved(bundle, passed) -> bool:
    """Whether the algebra passed its confluence check and every twist of
    the calculus passed its automorphism check, so that the two Leibniz
    laws hold for all elements (see the module docstring)."""
    return "confluence" in passed and all(
        _multiplicative(bundle, passed, twist)
        for twist in bundle.calculus.twists.values())


def _multiplicative(bundle, passed, endo) -> bool:
    """Whether the algebra passed its confluence check and endo, one of its
    automorphisms, passed its automorphism check: then endo is
    multiplicative on normal forms."""
    names = {auto: name for name, auto in bundle.autos.items()}
    return ("confluence" in passed and endo in names
            and "automorphism/%s" % names[endo] in passed)


def _wedge_associative(calc: Calculus) -> bool:
    """Whether wedge is associative, given an associative algebra and
    multiplicative twists (see the module docstring).

    Every twist must be diagonal and every descent t_i t_j (i >= j) must
    have a rule.  Each term t_k t_l of a rule for t_i t_j must pass
    coefficients by the map of t_i t_j, phi_k phi_l = phi_i phi_j, so the
    products of their scales agree on every symbol.  The rules must be
    confluent: on each overlap t_i t_j t_k, i >= j >= k, the normal form
    reached by rewriting t_j t_k first must be the one normalize_thetas
    reaches, which rewrites t_i t_j first (Bergman's diamond lemma).
    """
    scales = [calc.twists[lab]._scales for lab in calc.labels]
    if None in scales:
        return False
    n = len(calc.labels)
    rules = calc.theta_rules
    if any((i, j) not in rules for i in range(n) for j in range(i + 1)):
        return False
    symbols = range(len(calc.algebra.table.symbols))

    def passing(i, j):
        return [scales[i][sym] * scales[j][sym] for sym in symbols]

    for (i, j), rule in rules.items():
        by = passing(i, j)
        if any(passing(k, l) != by for _, (k, l) in rule):
            return False
    for i in range(n):
        for j in range(i + 1):
            for k in range(j + 1):
                right = {}
                for rf, pair in rules[(j, k)]:
                    for key, rf2 in calc.normalize_thetas((i,) + pair):
                        _accumulate(right, key, rf * rf2)
                if dict(calc.normalize_thetas((i, j, k))) != right:
                    return False
    return True


def _calculus_checks(bundle, passed, rng, samples):
    calc = bundle.calculus
    if calc is None:
        return
    proved = _laws_proved(bundle, passed)
    if proved:
        samples = 0
    # The draws of one unused element per sample come before the Leibniz
    # pairs: the witnesses of an unproved run depend on this draw order.
    for _ in range(samples):
        _random_terms(calc.algebra, rng)
    for lab in calc.labels:
        yield ("theta-diagonal/%s" % lab,
               "basis form %s commutes through its twist" % lab, True)

    for form_name, auto_name in bundle.extras.get("twisted_basis", ()):
        witness = _commutes_through(calc, bundle.value(form_name),
                                    bundle.autos[auto_name], form_name)
        yield ("twisted-basis/%s" % form_name,
               "%s commutes through %s" % (form_name, auto_name),
               witness is None, witness)

    yield ("inner-form", "d is the commutator with the inner form", True)

    witness = calc.d_squared_witness()
    yield ("two-form-central",
           "the square of the inner form is graded central",
           witness is None, witness)

    # Under the hypothesis, d(d x) is the value two-form-central found zero.
    if witness is not None or not proved or not _wedge_associative(calc):
        firsts = chain(((name, dg) for (name, _), dg in zip(
            calc.generator_elements(), calc.generator_differentials())),
            ((lab, calc.d(calc.theta(lab))) for lab in calc.labels))
        witness = _first_witness((name, calc.d(first))
                                 for name, first in firsts)
    yield ("d-twice", "d applied twice vanishes on generators and basis",
           witness is None, witness)

    associative = "confluence" in passed
    for lab in calc.labels:
        derivation = calc.derivations[lab]
        witness = _first_witness(
            (name, derivation.associative_defect(x, y, x * y) if associative
             else derivation.leibniz_defect(x, y))
            for name, x, y in _sampled_pairs(calc.algebra, rng, samples))
        yield ("leibniz-twisted/%s" % lab,
               "derivation along %s satisfies the twisted Leibniz rule" % lab,
               witness is None, witness and witness[0])

    pairs = ((name, x, y, x * y) for name, x, y
             in _sampled_pairs(calc.algebra, rng, samples))
    if associative:
        pairs = (pair for pair in pairs
                 if _breaks_an_identity(calc, *pair[1:]))
    witness = _first_witness(
        (name, calc.d_element(xy)
         - (calc.wedge(calc.d_element(x), calc.embed(y))
            + calc.wedge(calc.embed(x), calc.d_element(y))))
        for name, x, y, xy in pairs)
    yield ("leibniz-product", "d is a derivation on products",
           witness is None, witness)


def _breaks_an_identity(calc: Calculus, x: Element, y: Element,
                        xy: Element) -> bool:
    """Whether some label's associative defect on (x, y), whose product is
    xy, is nonzero.

    Component i of d(xy) - (d(x) y + x d(y)) is label i's twisted Leibniz
    defect, since wedge passes y through theta^i by phi_i, so on an
    associative algebra the form is zero exactly when every
    associative_defect is.  The suite then builds the form only for the
    first pair that breaks an identity, its witness."""
    return any(not calc.derivations[lab].associative_defect(x, y, xy).is_zero()
               for lab in calc.labels)


def _geometry_checks(bundle, passed):
    calc = bundle.calculus
    geo = bundle.geometry
    if calc is None or not geo.extensions:
        return
    for lab in calc.labels:
        try:
            ext = geo.extension(lab)
        except AlgebraError as exc:
            yield ("extension/%s" % lab, "extension exists for %s" % lab,
                   False, exc)
            continue
        derived = _derived_action(bundle, passed, calc.twists[lab])
        matches = (not isinstance(derived, GeometryError)
                   and derived == ext.matrix)
        witness = None if matches else ext.commutes_with_d()
        yield ("extension/%s" % lab,
               "extension over %s commutes with d" % lab,
               witness is None, witness)
        if (witness is not None or calc.twists[lab]._scales is None
                or not _invertible_diagonal(ext.matrix)):
            try:
                inverse = geo.inverse_extension(lab)
                witness = witness and inverse.commutes_with_d()
            except AlgebraError as exc:
                witness = exc
        yield ("extension/%s/inverse" % lab,
               "inverse extension over %s commutes with d" % lab,
               witness is None, witness)
        anchor = "theta-action/%s" % lab
        title = "declared basis action over %s is the derived one" % lab
        if isinstance(derived, GeometryError):
            yield anchor, title, False, derived
            continue
        yield (anchor, title, matches, None if matches else
               "derived %r" % {src: [(str(rf), dst) for dst, rf
                                     in sorted(zip(calc.labels, row))
                                     if not rf.is_zero()]
                               for src, row in zip(calc.labels, derived)})

    for mname in sorted(bundle.metrics):
        metric = bundle.metrics[mname]
        for cname in sorted(bundle.connections):
            try:
                witness = bundle.connections[cname].metric_compatible(metric)
            except AlgebraError as exc:
                witness = exc
            yield ("metric/%s/%s" % (mname, cname),
                   "connection %s preserves metric %s" % (cname, mname),
                   witness is None, witness)

    cname = bundle.extras.get("torsion_zero")
    if cname:
        conn = bundle.connections[cname]
        for fname in calc.labels:
            value = conn.torsion(bundle.value(fname))
            yield ("torsion/%s/%s" % (cname, fname),
                   "connection %s is torsion free on %s" % (cname, fname),
                   value.is_zero(), value)


def _invertible_diagonal(matrix) -> bool:
    """Whether matrix is diagonal with every diagonal entry nonzero, so
    that it is invertible."""
    return all(rf.is_zero() == (j != k)
               for k, row in enumerate(matrix) for j, rf in enumerate(row))


def _derived_action(bundle, passed, endo):
    """The action on the basis derived for endo: in closed form where the
    suite's verdicts make endo multiplicative and the form applies
    (geometry.closed_theta_action), else by elimination; a GeometryError
    of the elimination is returned, not raised."""
    if _multiplicative(bundle, passed, endo):
        closed = closed_theta_action(bundle.calculus, endo)
        if closed is not None:
            return closed
    try:
        return derive_theta_action(bundle.calculus, endo)
    except GeometryError as exc:
        return exc


def _expected_relation_checks(bundle):
    expected = bundle.extras.get("expected_relations")
    calc = bundle.calculus
    if not expected or calc is None:
        return
    elements = {e: bundle.value(e) for e in sorted({e for e, _ in expected})}
    forms = {w: bundle.value(w) for w in sorted({w for _, w in expected})}
    by_left = {rel.left: rel
               for rel in calc.commutation_relations(forms, elements)}
    for left, terms in sorted(expected.items()):
        anchor = "derived-relation/%s*%s" % left
        title = "derived commutation rule for %s * %s" % left
        rel = by_left[left]
        want = {names: parse_coefficient(text, bundle.params)
                for text, names in terms}
        got = {names: rf for rf, names in rel.terms}
        ok = want == got
        yield anchor, title, ok, None if ok else rel.render()


def _det_checks(bundle):
    lambdas = bundle.extras.get("det")
    if not lambdas:
        return
    det = bundle.value("D")
    for gname, lam_text in sorted(lambdas.items()):
        lam = parse_coefficient(lam_text, bundle.params)
        g = bundle.value(gname)
        diff = det * g - (g * det).scale(lam)
        yield ("det-scale/%s" % gname,
               "determinant picks up %s past %s" % (lam_text, gname),
               diff.is_zero(), diff)
    inv_name = bundle.extras.get("localized")
    if inv_name:
        unit = det * bundle.value(inv_name)
        witness = _first_witness(
            (name, unit * bundle.value(name) - bundle.value(name) * unit)
            for name in bundle.algebra.table.symbols if name != inv_name)
        yield ("localized-unit-central",
               "the determinant times its formal inverse is central",
               witness is None, witness)


def _model_checks(bundle):
    for name, witness in bundle.checks:
        yield ("check/%s" % name, "model identity %r" % name,
               witness is None, witness)
