"""Shipped models and the structural verification suite.

Two model files ship with the package: a two-generator quantum torus with a
Wess-Zumino style calculus, and a two-parameter quantum 2x2 group carrying
its second four-dimensional calculus.  The builders here parse those files,
attach the frozen expectations the suite compares against, and optionally
extend the quantum group by a formal inverse of its determinant whose
commutation rules are derived by the engine rather than entered by hand.

run_suite executes every structural layer in a fixed order: relation
soundness, local confluence, automorphism checks, basis diagonality, the
twisted second basis, innerness, vanishing of the square of d, the twisted
Leibniz rule, differentiability of the basis extensions, derived
commutation relations, determinant commutation, metric compatibility,
torsion, and finally the identities declared in the model file itself.
"""

from __future__ import annotations

import random
from importlib import resources

from .algebra import Element, random_element
from .calculus import Calculus
from .dsl import (ModelBundle, ModelDocument, Statement, build_model,
                  parse_coefficient, parse_model, parse_statement,
                  rename_atoms)
from .geometry import FormExtension, GeometryError, derive_theta_action

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


def build_quantum_torus(substitute: bool = True,
                        verify: bool = True) -> ModelBundle:
    bundle = build_model(parse_model(model_source("quantum-torus")),
                         substitute, verify)
    bundle.extras["expected_relations"] = {
        "forms": ["dx", "dy"],
        "elements": ["x", "y"],
        "side": "element_first",
        "table": _TORUS_EXPECTED_RELATIONS,
    }
    bundle.extras["torsion_zero"] = {"connection": "triv",
                                     "forms": ["t1", "t2"]}
    return bundle


def build_glpq(adjoin_det_inverse: bool = False, substitute_r: bool = True,
               verify=None) -> ModelBundle:
    """The quantum group model; r = p*q is skipped when substitute_r is off.

    With the substitution disabled the twists no longer respect the
    relations, so verify defaults to whatever substitute_r is; a raw build
    for negative testing passes verify=False explicitly.
    """
    if verify is None:
        verify = substitute_r
    doc = parse_model(model_source("gl-pq2"))
    doc = _with_mirror_checks(doc)
    bundle = build_model(doc, substitute_r, verify)
    if adjoin_det_inverse:
        lambdas, sigmas = _det_scales(bundle)
        doc = _adjoin_det_inverse(doc, lambdas, sigmas)
        bundle = build_model(doc, substitute_r, verify)
        bundle.extras["localized"] = {
            "generator": "Dinv",
            "lambdas": {n: str(lam) for n, lam in lambdas.items()}}
    bundle.extras["twisted_basis"] = [("tt%d" % s, "phit%d" % s)
                                      for s in range(1, 5)]
    bundle.extras["det"] = {"element": "D", "lambdas": _GL_DET_LAMBDAS}
    return bundle


def build_builtin(name: str, verify: bool = True) -> ModelBundle:
    """Build the shipped model ``name``, a key of MODEL_FILES."""
    builders = {"quantum-torus": build_quantum_torus, "gl-pq2": build_glpq}
    return builders[name](verify=verify)


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
    det = bundle.named["D"]
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
            statements[i] = Statement("gen", stmt.data + ["Dinv"],
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
    __slots__ = ("anchor", "name", "status", "witness")

    def __init__(self, anchor: str, name: str, ok: bool, witness=None):
        self.anchor = anchor
        self.name = name
        self.status = "pass" if ok else "fail"
        self.witness = None if ok else witness

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
    rng = random.Random(seed)
    results = []

    def record(anchor, name, ok, witness=None):
        results.append(CheckResult(anchor, name, ok,
                                   None if witness is None else str(witness)))

    alg = bundle.algebra
    record("relations", "declared relations rewrite to zero",
           alg.verify_relations())
    violations = alg.check_confluence()
    record("confluence", "all rewrite overlaps close",
           not violations, violations[0] if violations else None)

    for name in sorted(bundle.autos):
        endo = bundle.autos[name]
        ok = endo.respects_relations()
        record("automorphism/%s" % name,
               "%s respects the relations" % name, ok)
        if ok:
            try:
                inverse = endo.inverse()
                round_trip = endo.verify_inverse(inverse)
            except Exception as exc:
                record("automorphism/%s/inverse" % name,
                       "%s inverts" % name, False, exc)
            else:
                record("automorphism/%s/inverse" % name,
                       "%s composed with its inverse is the identity" % name,
                       round_trip)

    calc = bundle.calculus
    if calc is not None:
        _calculus_checks(bundle, calc, rng, samples, record)
        _geometry_checks(bundle, calc, record)

    _expected_relation_checks(bundle, calc, record)
    _det_checks(bundle, record)

    for case in bundle.checks:
        ok = case.passed()
        record("check/%s" % case.name, "model identity %r" % case.name,
               ok, None if ok else case.difference())

    return SuiteReport(bundle.name, seed, results)


def _calculus_checks(bundle, calc: Calculus, rng, samples, record) -> None:
    alg = bundle.algebra
    for lab in calc.labels:
        endo = calc.twists[lab]
        ok_all = True
        witness = None
        for name, g in calc.generator_elements():
            left = calc.wedge(calc.theta(lab), calc.embed(g))
            right = calc.embed(endo.apply(g)) * calc.theta(lab)
            diff = left - right
            if not diff.is_zero():
                ok_all = False
                witness = "%s against %s: %s" % (lab, name, diff)
                break
        record("theta-diagonal/%s" % lab,
               "basis form %s commutes through its twist" % lab,
               ok_all, witness)

    for form_name, auto_name in bundle.extras.get("twisted_basis", ()):
        form = bundle.named[form_name]
        endo = bundle.autos[auto_name]
        ok_all = True
        witness = None
        for name, g in calc.generator_elements():
            diff = calc.wedge(form, calc.embed(g)) \
                - calc.embed(endo.apply(g)) * form
            if not diff.is_zero():
                ok_all = False
                witness = "%s against %s: %s" % (form_name, name, diff)
                break
        record("twisted-basis/%s" % form_name,
               "%s commutes through %s" % (form_name, auto_name),
               ok_all, witness)

    witness = calc.is_inner(None, rng=rng, samples=samples)
    record("inner-form", "d is the commutator with the inner form",
           witness is None, witness)

    witness = calc.d_squared_witness()
    record("two-form-central",
           "the square of the inner form is graded central",
           witness is None, witness)

    ok_all = True
    witness = None
    for name, g in calc.generator_elements():
        dd = calc.d(calc.d(g))
        if not dd.is_zero():
            ok_all, witness = False, (name, dd)
            break
    if ok_all:
        for lab in calc.labels:
            dd = calc.d(calc.d(calc.theta(lab)))
            if not dd.is_zero():
                ok_all, witness = False, (lab, dd)
                break
    record("d-twice", "d applied twice vanishes on generators and basis",
           ok_all, witness)

    for lab in calc.labels:
        der = calc.derivations[lab]
        ok_all = True
        witness = None
        for i in range(samples):
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            if not der.satisfies_leibniz(x, y):
                ok_all = False
                witness = "sample %d" % i
                break
        record("leibniz-twisted/%s" % lab,
               "derivation along %s satisfies the twisted Leibniz rule" % lab,
               ok_all, witness)

    ok_all = True
    witness = None
    for i in range(samples):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        diff = calc.d_element(x * y) - (
            calc.wedge(calc.d_element(x), calc.embed(y))
            + calc.wedge(calc.embed(x), calc.d_element(y)))
        if not diff.is_zero():
            ok_all = False
            witness = ("sample %d" % i, diff)
            break
    record("leibniz-product", "d is a derivation on products", ok_all, witness)


def _geometry_checks(bundle, calc: Calculus, record) -> None:
    geo = bundle.geometry
    if geo is None or not geo.extensions:
        return
    for lab in calc.labels:
        try:
            ext = geo.extension(lab)
        except Exception as exc:
            record("extension/%s" % lab, "extension exists for %s" % lab,
                   False, exc)
            continue
        witness = ext.commutes_with_d()
        record("extension/%s" % lab,
               "extension over %s commutes with d" % lab,
               witness is None, witness)
        try:
            inv_witness = geo.inverse_extension(lab).commutes_with_d()
        except Exception as exc:
            record("extension/%s/inverse" % lab,
                   "inverse extension over %s commutes with d" % lab,
                   False, exc)
        else:
            record("extension/%s/inverse" % lab,
                   "inverse extension over %s commutes with d" % lab,
                   inv_witness is None, inv_witness)
        try:
            derived = derive_theta_action(calc, calc.twists[lab])
        except GeometryError as exc:
            record("theta-action/%s" % lab,
                   "declared basis action over %s is the derived one" % lab,
                   False, exc)
            continue
        declared = {src: {l2: rf for rf, l2 in _matrix_row(ext, calc, src)}
                    for src in calc.labels}
        derived_map = {src: {l2: rf for rf, l2 in entries}
                       for src, entries in derived.items()}
        record("theta-action/%s" % lab,
               "declared basis action over %s is the derived one" % lab,
               derived_map == declared,
               None if derived_map == declared else
               "derived %r" % {k: [(str(rf), l) for l, rf in sorted(v.items())]
                               for k, v in derived_map.items()})

    for mname in sorted(bundle.metrics):
        metric = bundle.metrics[mname]
        for cname in sorted(bundle.connections):
            conn = bundle.connections[cname]
            witness = conn.metric_compatible(metric)
            record("metric/%s/%s" % (mname, cname),
                   "connection %s preserves metric %s" % (cname, mname),
                   witness is None, witness)

    torsion = bundle.extras.get("torsion_zero")
    if torsion:
        conn = bundle.connections[torsion["connection"]]
        for fname in torsion["forms"]:
            form = bundle.value(fname)
            value = conn.torsion(form)
            record("torsion/%s/%s" % (torsion["connection"], fname),
                   "connection %s is torsion free on %s"
                   % (torsion["connection"], fname),
                   value.is_zero(), value)


def _matrix_row(ext: FormExtension, calc: Calculus, src: str):
    k = calc._pos[src]
    return [(rf, calc.labels[j]) for j, rf in enumerate(ext.matrix[k])
            if not rf.is_zero()]


def _expected_relation_checks(bundle, calc, record) -> None:
    expected = bundle.extras.get("expected_relations")
    if not expected or calc is None:
        return
    forms = {n: bundle.named[n] for n in expected["forms"]}
    elements = {n: bundle.value(n) for n in expected["elements"]}
    derived = calc.commutation_relations(forms, elements,
                                         side=expected["side"])
    by_left = {rel.left: rel for rel in derived}
    for left, terms in sorted(expected["table"].items()):
        rel = by_left.get(left)
        if rel is None:
            record("derived-relation/%s*%s" % left,
                   "derived commutation rule for %s * %s" % left,
                   False, "no relation derived")
            continue
        want = {names: parse_coefficient(text, bundle.params)
                for text, names in terms}
        got = {names: rf for rf, names in rel.terms}
        ok = want == got
        record("derived-relation/%s*%s" % left,
               "derived commutation rule for %s * %s" % left,
               ok, None if ok else rel.render())


def _det_checks(bundle, record) -> None:
    det_info = bundle.extras.get("det")
    if not det_info:
        return
    det = bundle.named[det_info["element"]]
    for gname in sorted(det_info["lambdas"]):
        lam_text = det_info["lambdas"][gname]
        lam = parse_coefficient(lam_text, bundle.params)
        g = bundle.value(gname)
        diff = det * g - (g * det).scale(lam)
        record("det-scale/%s" % gname,
               "determinant picks up %s past %s" % (lam_text, gname),
               diff.is_zero(), diff)
    localized = bundle.extras.get("localized")
    if localized:
        inv = bundle.value(localized["generator"])
        ok_all = True
        witness = None
        for sym_name in bundle.algebra.table.symbols:
            if sym_name == localized["generator"]:
                continue
            g = bundle.value(sym_name)
            unit = det * inv
            diff = unit * g - g * unit
            if not diff.is_zero():
                ok_all = False
                witness = (sym_name, diff)
                break
        record("localized-unit-central",
               "the determinant times its formal inverse is central",
               ok_all, witness)
