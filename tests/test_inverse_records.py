"""The two inverse checks that the suite records from what it has built.

``automorphism/<name>/inverse`` passes once ``Endomorphism.inverse``
builds: it builds only for a diagonal map, phi(g) = c_g g, and scales each
generator by c_g^-1, so both compositions fix every element.  Here that is
checked as values on every generator symbol and 20 seeded random elements
of each model that ``tests/test_verify_pins.py`` pins.

``extension/<lab>/inverse`` probes the inverse extension E' only when the
extension E failed to commute with d, for its witness: E' is built from
phi^-1 and the inverse matrix, so E'E = EE' = id, and E' commutes with d
exactly when E does.  Here both verdicts are computed on a seeded sweep
over the pinned models: every declared extension matrix and sparse
perturbations of it, most of which fail, built with ``FormExtension``
and ``Geometry`` directly.  Perturbations stay sparse above 2x2, since dense
4x4 inverses over several parameters take seconds; the torus also gets
dense 2x2 matrices.
"""

import random

import pytest

from ncdiff.algebra import random_element
from ncdiff.coeff import RationalFunction
from ncdiff.dsl import load_model
from ncdiff.geometry import FormExtension, Geometry, GeometryError
from ncdiff.models import BUILTINS, _algebra_checks, _geometry_checks
from ncdiff.morphism import MorphismError

MODELS = ("quantum-torus", "gl-pq2", "gl-pq2-localized", "gl-pq2-rfree",
          "rank-3", "rank-4", "rank-5", "torus-swap-twist",
          "torus-symmetric-wedge", "non-confluent")
WITH_EXTENSIONS = ("quantum-torus", "gl-pq2", "gl-pq2-localized",
                   "gl-pq2-rfree", "rank-3", "rank-4", "rank-5",
                   "torus-symmetric-wedge")


@pytest.fixture(scope="module")
def bundles(repo_module):
    workloads = repo_module("bench/workloads.py")
    texts = repo_module("tests/test_verify_pins.py").model_texts(workloads)
    return {name: BUILTINS[name](verify=False) if name in BUILTINS
            else load_model(texts[name], verify=False) for name in MODELS}


@pytest.mark.parametrize("name", MODELS)
def test_built_inverses_fix_generators_and_elements(name, bundles):
    alg = bundles[name].algebra
    rng = random.Random(name)
    values = [alg.symbol_element(sym)
              for sym in range(len(alg.table.symbols))]
    values += [random_element(alg, rng) for _ in range(20)]
    built = 0
    for auto in sorted(bundles[name].autos):
        phi = bundles[name].autos[auto]
        try:
            inv = phi.inverse()
        except MorphismError:
            continue
        built += 1
        for x in values:
            assert phi.apply(inv.apply(x)) == x == inv.apply(phi.apply(x)), \
                (auto, x)
    assert built


def _verdicts(geo, lab):
    """(E commutes with d, E' commutes with d) for the extension of lab."""
    return (geo.extension(lab).commutes_with_d() is None,
            geo.inverse_extension(lab).commutes_with_d() is None)


def test_rfree_verdicts_and_records(bundles):
    bundle = bundles["gl-pq2-rfree"]
    geo = bundle.geometry
    assert {lab: _verdicts(geo, lab) for lab in sorted(geo.extensions)} == {
        "t1": (False, False), "t2": (False, False), "t3": (False, False),
        "t4": (True, True)}
    # A failing record carries the inverse extension's own witness.
    passed = {record[0] for record in _algebra_checks(bundle) if record[2]}
    records = {record[0]: record
               for record in _geometry_checks(bundle, passed)}
    for lab in geo.extensions:
        record = records["extension/%s/inverse" % lab]
        witness = geo.inverse_extension(lab).commutes_with_d()
        assert record[2] is (witness is None)
        assert record[3] == witness


def _pool(params, rng):
    """A seeded scalar: a small integer, a parameter power or 1 + p."""
    first = params.names[0]
    choices = [RationalFunction.from_value(params, v) for v in (1, -1, 2, 3)]
    choices += [RationalFunction.parameter(params, first, power)
                for power in (1, -1)]
    choices.append(choices[0] + choices[4])
    return rng.choice(choices)


def _perturbed(matrix, params, rng):
    """The matrix with one or two entries moved, or one row scaled."""
    out = [list(row) for row in matrix]
    n = len(out)
    if rng.random() < 0.25:
        k = rng.randrange(n)
        scale = _pool(params, rng)
        out[k] = [scale * rf for rf in out[k]]
        return out
    for _ in range(rng.randint(1, 2)):
        k, j = rng.randrange(n), rng.randrange(n)
        out[k][j] = out[k][j] + _pool(params, rng)
    return out


def _dense(n, params, rng):
    zero = RationalFunction.from_value(params, 0)
    return [[_pool(params, rng) if rng.random() < 0.8 else zero
             for _ in range(n)] for _ in range(n)]


def _sweep_case(calc, lab, matrix):
    """The two verdicts of one matrix, or None when it is singular; the
    inverse undoes the extension on every generator differential."""
    ext = FormExtension(calc, calc.twists[lab], matrix)
    geo = Geometry(calc, {lab: ext})
    try:
        inv = geo.inverse_extension(lab)
    except GeometryError:
        return None
    for dg in calc.generator_differentials():
        assert inv.apply(ext.apply(dg)) == dg == ext.apply(inv.apply(dg))
    return ext.commutes_with_d() is None, inv.commutes_with_d() is None


def test_perturbed_extensions_agree(bundles):
    verdicts = []
    for name in WITH_EXTENSIONS:
        bundle = bundles[name]
        calc, params = bundle.calculus, bundle.algebra.params
        rng = random.Random(name)
        for lab in sorted(bundle.geometry.extensions):
            declared = bundle.geometry.extension(lab).matrix
            verdicts.append(_sweep_case(calc, lab, declared))
            for _ in range(4):
                verdicts.append(_sweep_case(
                    calc, lab, _perturbed(declared, params, rng)))
    torus = bundles["quantum-torus"]
    rng = random.Random(2)
    for _ in range(24):
        lab = rng.choice(torus.calculus.labels)
        verdicts.append(_sweep_case(
            torus.calculus, lab, _dense(2, torus.algebra.params, rng)))
    solved = [v for v in verdicts if v is not None]
    assert all(forward == inverse for forward, inverse in solved)
    failing = sum(1 for forward, _ in solved if not forward)
    assert len(solved) > 100 and failing > len(solved) // 2
    assert failing < len(solved)
