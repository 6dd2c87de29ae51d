"""End to end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS or FAIL
line (visible under pytest -s); the assertion carries the details.  All
comparisons are exact symbolic equalities over the rational coefficient
field, with randomized probes driven by fixed seeds so every run checks
the same instances.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from ncdiff.algebra import Algebra, GeneratorTable, random_element
from ncdiff.cli import main
from ncdiff.coeff import ParameterSet, PoleError, RationalFunction
from ncdiff.dsl import (build_model, export_model, parse_coefficient,
                        parse_model)
from ncdiff.models import model_source, scalar_ratio

ELEMENT_RELATIONS = [
    "x * dx = r * dx * x",
    "x * dy = (r - 1) * dx * y + q * dy * x",
    "y * dx = q^-1*r * dx * y",
    "y * dy = r * dy * y",
]

FORM_RELATIONS = [
    "dx * x = r^-1 * x * dx",
    "dy * x = -(1 - r^-1) * y * dx + q^-1 * x * dy",
    "dx * y = q*r^-1 * y * dx",
    "dy * y = r^-1 * y * dy",
]


def report(tag: str, problems):
    print("%s %s" % ("FAIL" if problems else "PASS", tag))
    assert not problems, "%s: %s" % (tag, "; ".join(problems))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def random_point(params, rng) -> dict:
    return {name: Fraction(rng.randint(1, 9), rng.randint(1, 9))
            * rng.choice((1, -1)) for name in params.names}


def evaluations(rf: RationalFunction, rng, count: int):
    values = []
    while len(values) < count:
        point = random_point(rf.params, rng)
        try:
            values.append(rf.evaluate(point))
        except (PoleError, ZeroDivisionError):
            continue
    return values


def test_criterion_01_derived_commutation_rules(torus):
    problems = []
    calc = torus.calculus
    params = torus.params
    scale = parse_coefficient("r^-1 - 1", params)
    x = torus.value("x")
    y = torus.value("y")
    t1 = calc.theta("t1")
    t2 = calc.theta("t2")

    if calc.d(x) != calc.embed(x.scale(scale)) * t1:
        problems.append("d(x) differs from its closed form")
    if calc.d(y) != calc.embed(y.scale(scale)) * (t1 + t2):
        problems.append("d(y) differs from its closed form")

    forms = {"dx": torus.value("dx"), "dy": torus.value("dy")}
    elements = {"x": x, "y": y}
    derived = calc.commutation_relations(forms, elements, side="element_first")
    if [rel.render() for rel in derived] != ELEMENT_RELATIONS:
        problems.append("element-first relation table changed")
    derived = calc.commutation_relations(forms, elements, side="form_first")
    if [rel.render() for rel in derived] != FORM_RELATIONS:
        problems.append("form-first relation table changed")

    rc, out = run_cli(["relations", "builtin:quantum-torus",
                       "--forms", "dx,dy", "--elements", "x,y"])
    if rc != 0 or out.splitlines() != ELEMENT_RELATIONS:
        problems.append("command line relation table changed")
    report("criterion 01: derived commutation rules", problems)


def test_criterion_02_basis_diagonality(torus, glpq):
    problems = []
    for bundle in (torus, glpq):
        calc = bundle.calculus
        for lab in calc.labels:
            twist = calc.twists[lab]
            theta = calc.theta(lab)
            for name, g in calc.generator_elements():
                lhs = calc.wedge(theta, calc.embed(g))
                rhs = calc.embed(twist.apply(g)) * theta
                if lhs != rhs:
                    problems.append("%s: %s against %s"
                                    % (bundle.name, lab, name))
    calc = glpq.calculus
    for form_name, auto_name in glpq.extras["twisted_basis"]:
        form = glpq.value(form_name)
        twist = glpq.autos[auto_name]
        for name, g in calc.generator_elements():
            lhs = calc.wedge(form, calc.embed(g))
            rhs = calc.embed(twist.apply(g)) * form
            if lhs != rhs:
                problems.append("twisted basis %s against %s"
                                % (form_name, name))
    report("criterion 02: basis forms scale through their twists", problems)


def test_criterion_03_declared_identities(glpq, glpq_rfree_doc):
    problems = []
    cases = {case.name: case for case in glpq.checks}
    mc = [name for name in cases if name.startswith("mc")]
    if len(mc) != 16:
        problems.append("expected 16 inner-form identities, found %d"
                        % len(mc))
    if len(cases) != 22:
        problems.append("expected 22 declared identities, found %d"
                        % len(cases))
    for name in sorted(cases):
        if cases[name].witness is not None:
            problems.append("identity %s fails" % name)

    raw = build_model(glpq_rfree_doc, verify=False)
    raw_cases = {case.name: case for case in raw.checks}
    if raw_cases["mc1-a"].witness is None:
        problems.append("mc1-a passes without the parameter substitution")
    report("criterion 03: declared model identities", problems)


def test_criterion_04_differential_is_inner(torus, glpq):
    problems = []
    for bundle in (torus, glpq):
        calc = bundle.calculus
        inner = calc.inner_form()
        for name, g in calc.generator_elements():
            commutator = calc.wedge(inner, calc.embed(g)) \
                - calc.wedge(calc.embed(g), inner)
            if commutator != calc.d(g):
                problems.append("%s: d(%s) is not the commutator"
                                % (bundle.name, name))
        rng = random.Random(11)
        for i in range(20):
            a = random_element(bundle.algebra, rng)
            commutator = calc.wedge(inner, calc.embed(a)) \
                - calc.wedge(calc.embed(a), inner)
            if commutator != calc.d(a):
                problems.append("%s: random element %d"
                                % (bundle.name, i))
                break

    calc = torus.calculus
    perturbed = calc.inner_form() + calc.theta("t1")
    if all(calc.wedge(perturbed, calc.embed(g))
           - calc.wedge(calc.embed(g), perturbed) == calc.d(g)
           for _, g in calc.generator_elements()):
        problems.append("perturbed inner-form candidate not rejected")
    report("criterion 04: d is the commutator with the inner form", problems)


def test_criterion_05_differential_squares_to_zero(torus, glpq,
                                                   glpq_localized):
    problems = []
    for bundle in (torus, glpq, glpq_localized):
        calc = bundle.calculus
        if calc.d_squared_witness() is not None:
            problems.append("%s: centrality witness" % bundle.name)
        inner = calc.inner_form()
        if not calc.wedge(inner, inner).is_zero():
            problems.append("%s: square of the inner form" % bundle.name)
        for name, g in calc.generator_elements():
            if not calc.d(calc.d(g)).is_zero():
                problems.append("%s: d(d(%s))" % (bundle.name, name))
        for lab in calc.labels:
            if not calc.d(calc.d(calc.theta(lab))).is_zero():
                problems.append("%s: d(d(%s))" % (bundle.name, lab))
    report("criterion 05: the differential squares to zero", problems)


def test_criterion_06_twisted_leibniz(torus, glpq):
    problems = []
    for bundle in (torus, glpq):
        calc = bundle.calculus
        rng = random.Random(23)
        for lab in calc.labels:
            derivation = calc.derivations[lab]
            for i in range(20):
                a = random_element(bundle.algebra, rng)
                b = random_element(bundle.algebra, rng)
                if not derivation.leibniz_defect(a, b).is_zero():
                    problems.append("%s: %s sample %d"
                                    % (bundle.name, lab, i))
                    break
    report("criterion 06: twisted Leibniz rule on random products", problems)


def test_criterion_07_confluence(torus, glpq, glpq_localized):
    problems = []
    for bundle in (torus, glpq, glpq_localized):
        if bundle.algebra.check_confluence():
            problems.append("%s: overlaps do not close" % bundle.name)
        if not bundle.algebra.verify_relations():
            problems.append("%s: declared relations broken" % bundle.name)

    params = ParameterSet(("q",))
    two = RationalFunction.from_value(params, 2)
    three = RationalFunction.from_value(params, 3)
    one = RationalFunction.from_value(params, 1)

    dup = Algebra(params, GeneratorTable(("x", "y")))
    dup.add_relation({((1, 1), (0, 1)): one}, {((0, 1), (1, 1)): two})
    dup.add_relation({((1, 1), (0, 1)): one}, {((0, 1), (1, 1)): three})
    violations = dup.check_confluence()
    if not violations or violations[0].word != (1, 0):
        problems.append("conflicting duplicate rules not detected")

    overlap = Algebra(params, GeneratorTable(("x", "y", "z")))
    overlap.add_relation({((1, 1), (0, 1)): one}, {((0, 1), (1, 1)): two})
    overlap.add_relation({((2, 1), (1, 1)): one}, {((1, 1), (2, 1)): one})
    overlap.add_relation({((2, 1), (0, 1)): one},
                         {((0, 1), (2, 1)): one, (): one})
    violations = overlap.check_confluence()
    if len(violations) != 1 or violations[0].word != (2, 1, 0):
        problems.append("length-three overlap failure not detected")
    elif (violations[0].left - violations[0].right) != -overlap.gen("y"):
        problems.append("overlap difference changed")
    report("criterion 07: rewriting systems are confluent", problems)


def test_criterion_08_determinant_commutation(glpq):
    problems = []
    det = glpq.value("D")
    rng = random.Random(31)
    for gname, lam_text in sorted(glpq.extras["det"].items()):
        lam = parse_coefficient(lam_text, glpq.params)
        g = glpq.value(gname)
        lhs = det * g
        rhs = (g * det).scale(lam)
        if lhs != rhs:
            problems.append("determinant does not pick up %s past %s"
                            % (lam_text, gname))
            continue
        if scalar_ratio(lhs, g * det) != lam:
            problems.append("scale factor past %s changed" % gname)
        words = set(lhs.terms) | set(rhs.terms)
        zero = Fraction(0)
        checked = 0
        while checked < 20:
            point = random_point(glpq.params, rng)
            try:
                for word in sorted(words):
                    lv = lhs.terms[word].evaluate(point) \
                        if word in lhs.terms else zero
                    rv = rhs.terms[word].evaluate(point) \
                        if word in rhs.terms else zero
                    if lv != rv:
                        problems.append("numeric disagreement past %s"
                                        % gname)
                        checked = 20
                        break
            except (PoleError, ZeroDivisionError):
                continue
            checked += 1
    report("criterion 08: determinant commutation table", problems)


def test_criterion_09_geometry_layer(torus, glpq):
    from ncdiff.geometry import Connection

    problems = []
    for bundle in (torus, glpq):
        geo = bundle.geometry
        calc = bundle.calculus
        for lab in calc.labels:
            if geo.extension(lab).commutes_with_d() is not None:
                problems.append("%s: extension over %s"
                                % (bundle.name, lab))
            if geo.inverse_extension(lab).commutes_with_d() is not None:
                problems.append("%s: inverse extension over %s"
                                % (bundle.name, lab))

    calc = torus.calculus
    geo = torus.geometry
    metric = torus.metrics["gsym"]
    conn = torus.connections["triv"]
    if conn.metric_compatible(metric) is not None:
        problems.append("declared connection breaks the metric")
    for lab in calc.labels:
        if not conn.torsion(calc.theta(lab)).is_zero():
            problems.append("declared connection has torsion on %s" % lab)

    table = {(s, k): calc.theta(k) for s in calc.labels
             for k in calc.labels}
    table[("t1", "t1")] = calc.theta("t1").scale(2)
    perturbed = Connection(geo, table)
    witness = perturbed.metric_compatible(metric)
    if witness is None or witness[0] != "t1":
        problems.append("perturbed connection not rejected")
    report("criterion 09: basis extensions, metric, and torsion", problems)


def test_criterion_10_coefficient_zero_detection():
    params = ParameterSet(("q", "r"))
    q = RationalFunction.parameter(params, "q")
    r = RationalFunction.parameter(params, "r")
    rng = random.Random(47)

    def random_rf():
        total = RationalFunction.from_value(params, 0)
        for _ in range(rng.randint(1, 3)):
            term = RationalFunction.from_value(
                params, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            term = term * q ** rng.randint(-2, 2)
            term = term * r ** rng.randint(-2, 2)
            total = total + term
        return total

    def random_nonzero():
        while True:
            candidate = random_rf()
            if not candidate.is_zero():
                return candidate

    problems = []
    for i in range(1000):
        a = random_rf()
        if i % 2 == 0:
            c = random_nonzero()
            b = (a * c) / c
            if a != b:
                problems.append("pair %d: equal values compare unequal" % i)
                break
        else:
            b = random_rf()
        diff = a - b
        values = evaluations(diff, rng, 20)
        if diff.is_zero():
            if any(v != 0 for v in values):
                problems.append("pair %d: zero with nonzero value" % i)
                break
        else:
            if all(v == 0 for v in values):
                problems.append("pair %d: nonzero vanishing everywhere" % i)
                break
    report("criterion 10: exact zero detection matches evaluation",
           problems)


def test_criterion_11_cli_determinism_and_round_trip():
    problems = []
    for argv in (["verify", "builtin:quantum-torus", "--format", "json"],
                 ["confluence", "builtin:gl-pq2", "--format", "json"],
                 ["relations", "builtin:quantum-torus",
                  "--forms", "dx,dy", "--elements", "x,y"]):
        rc1, out1 = run_cli(argv)
        rc2, out2 = run_cli(argv)
        if rc1 != rc2 or out1 != out2:
            problems.append("nondeterministic output from %s" % argv[0])
        if argv[-1] == "json" and json.loads(out1) != json.loads(out2):
            problems.append("nondeterministic json from %s" % argv[0])

    for name in ("quantum-torus", "gl-pq2"):
        doc = parse_model(model_source(name))
        exported = export_model(doc)
        again = parse_model(exported)
        if again != doc:
            problems.append("%s: export does not round-trip" % name)
        if export_model(again) != exported:
            problems.append("%s: export is not idempotent" % name)
    report("criterion 11: deterministic output and stable model files",
           problems)
