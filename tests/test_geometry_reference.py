"""Tensor builders and the theta-action inverse against the code they replaced.

The references below are the earlier ``Geometry.tensor_L``,
``Geometry.tensor_A``, ``Geometry.from_tensor_A`` and ``_invert_matrix``,
written out as functions: the tensor builders summed each entry into the
one before it and added one tensor per entry to a running sum, and the
inverse solved the identity columns with ``solve_linear_columns``.  On
seeded one-forms, theta actions and matrices over the quantum torus,
rank-3..5 quantum spaces and localized gl-pq2, the current code must give
the same keys in the same order and the same stored coefficients, down to
the int or Fraction type of every numerator and denominator term, and
``None`` on the same singular matrices.
"""

import random
from fractions import Fraction

import pytest

from ncdiff.algebra import Element
from ncdiff.coeff import RationalFunction, solve_linear_columns
from ncdiff.dsl import load_model
from ncdiff.geometry import (FormExtension, Geometry, TensorForm,
                             _invert_matrix)

from test_algebra import sized_random_element

# -- references -----------------------------------------------------------------


def ref_tensor_L(geo, left, right):
    out = {}
    for (s,), a in left.terms.items():
        for (k,), b in right.terms.items():
            prev = out.get((s, k))
            prod = a * b
            out[(s, k)] = prod if prev is None else prev + prod
    return TensorForm(geo.calculus, out)


def ref_from_tensor_A(geo, entries):
    calc = geo.calculus
    out = TensorForm(calc, {})
    for (s, k), coeff in entries.items():
        row = geo.extension(calc.labels[s]).matrix[k]
        piece = {}
        for j, rf in enumerate(row):
            if not rf.is_zero():
                piece[(s, j)] = coeff.scale(rf)
        out = out + TensorForm(calc, piece)
    return out


def ref_tensor_A(geo, left, right):
    calc = geo.calculus
    entries = {}
    for (s,), a in left.terms.items():
        for (k,), b in right.terms.items():
            moved = calc.twists[calc.labels[s]].apply(b)
            prev = entries.get((s, k))
            entries[(s, k)] = a * moved if prev is None else prev + a * moved
    return ref_from_tensor_A(geo, entries)


def ref_invert_matrix(matrix, params):
    n = len(matrix)
    zero = RationalFunction.from_value(params, 0)
    one = RationalFunction.from_value(params, 1)
    units = [[one if k == l else zero for k in range(n)] for l in range(n)]
    columns = []
    for solved in solve_linear_columns(matrix, units, params):
        if solved is None or solved[1]:
            return None
        columns.append(solved[0])
    return [[columns[l][k] for l in range(n)] for k in range(n)]


# -- exact dumps ----------------------------------------------------------------


def rf_dump(rf):
    return tuple((m, type(c), c) for part in (rf.num, rf.den)
                 for m, c in part.terms.items()) + (len(rf.num.terms),)


def element_dump(x):
    return [(word, rf_dump(c)) for word, c in x.terms.items()]


def tensor_dump(t):
    return [(key, element_dump(x)) for key, x in t.terms.items()]


def matrix_dump(matrix):
    if matrix is None:
        return None
    return [[rf_dump(rf) for rf in row] for row in matrix]


# -- seeded values ------------------------------------------------------------


def scalar_pool(params):
    """Nonzero scalars with int and Fraction terms, monomials and sums."""
    numbers = [RationalFunction.from_value(params, v)
               for v in (1, -1, 2, Fraction(3, 2), Fraction(-1, 3))]
    monomials = [RationalFunction.parameter(params, name, e)
                 for name in params.names for e in (1, -1, 2)]
    sums = [numbers[3] + m for m in monomials[:3]] + \
        [numbers[1] + m / numbers[3] for m in monomials[-2:]]
    return numbers + monomials + [s for s in sums if not s.is_zero()]


def one_forms(calc, rng, pool, count):
    alg = calc.algebra
    n = len(calc.labels)
    out = [calc.zero_form(), calc.inner_form()]
    for _ in range(count):
        terms = {}
        for k in rng.sample(range(n), rng.randint(1, n)):
            x = sized_random_element(alg, rng, 3, 2)
            terms[(k,)] = Element(alg, {w: c * rng.choice(pool)
                                        for w, c in x.terms.items()})
        out.append(calc.form(terms))
    return out


def random_matrix(n, rng, pool, zero, density):
    return [[rng.choice(pool) if rng.random() < density else zero
             for _ in range(n)] for _ in range(n)]


def triangular_matrix(n, rng, pool, zero):
    """An invertible matrix: upper triangular with rows permuted."""
    rows = [[zero] * k + [rng.choice(pool)] +
            [rng.choice(pool) if rng.random() < 0.5 else zero
             for _ in range(n - k - 1)] for k in range(n)]
    rng.shuffle(rows)
    return rows


def singular_matrices(n, rng, pool, zero):
    m = random_matrix(n, rng, pool, zero, 0.6)
    repeated_row = [list(row) for row in m]
    repeated_row[-1] = list(repeated_row[0])
    zero_column = [list(row) for row in m]
    j = rng.randrange(n)
    for row in zero_column:
        row[j] = zero
    scaled = [list(row) for row in m]
    c = rng.choice(pool)
    scaled[1] = [v * c for v in scaled[0]]
    combined = [list(row) for row in m]
    combined[-1] = [a + b for a, b in zip(combined[0], combined[1])]
    return [repeated_row, zero_column, scaled, combined,
            [[zero] * n for _ in range(n)]]


def matrices(n, rng, params):
    """Seeded n x n matrices: dense ones with sums for n <= 3 (elimination
    on a dense matrix of sums grows fast with n), sparse and permuted
    triangular ones over numbers and monomials, and singular ones."""
    pool = scalar_pool(params)
    simple = pool[:5 + 3 * len(params.names)]
    zero = RationalFunction.from_value(params, 0)
    out = []
    if n <= 3:
        out += [random_matrix(n, rng, pool, zero, d) for d in (1.0, 0.6)]
    out += [random_matrix(n, rng, simple, zero, 0.4) for _ in range(3)]
    out += [triangular_matrix(n, rng, simple, zero) for _ in range(2)]
    if n >= 2:
        out += singular_matrices(n, rng, simple, zero)
    return out


def with_random_actions(bundle, rng):
    """A geometry over the bundle's calculus whose theta actions are seeded
    matrices, sparse and triangular, invertible or not."""
    calc = bundle.calculus
    n = len(calc.labels)
    mats = matrices(n, rng, bundle.params)
    return Geometry(calc, {
        lab: FormExtension(calc, calc.twists[lab], rng.choice(mats))
        for lab in calc.labels})


@pytest.fixture(params=["torus", "glpq_localized", "rank3", "rank4",
                        "rank5"])
def bundle(request, repo_module):
    if request.param.startswith("rank"):
        workloads = repo_module("bench/workloads.py")
        n = int(request.param[4:])
        return load_model(workloads.rank_n_text(n, 4000 + n))
    return request.getfixturevalue(request.param)


def test_tensor_builders(bundle):
    rng = random.Random(41)
    pool = scalar_pool(bundle.params)
    forms = one_forms(bundle.calculus, rng, pool, 8)
    for geo in (bundle.geometry, with_random_actions(bundle, rng)):
        if not geo.extensions:
            continue
        for left in forms:
            for right in rng.sample(forms, 4):
                assert tensor_dump(geo.tensor_L(left, right)) == \
                    tensor_dump(ref_tensor_L(geo, left, right))
                assert tensor_dump(geo.tensor_A(left, right)) == \
                    tensor_dump(ref_tensor_A(geo, left, right))


def test_from_tensor_A_cancels_and_refills(bundle):
    # Row 0 of every action is theta^0 + theta^1 and row 1 is -theta^0, so
    # the entry (s, 0) cancels; row 2 (where there is one) refills it, and
    # the key order must follow the running sum of the reference.
    rng = random.Random(42)
    pool = scalar_pool(bundle.params)
    calc = bundle.calculus
    params = bundle.params
    one = RationalFunction.from_value(params, 1)
    zero = RationalFunction.from_value(params, 0)
    n = len(calc.labels)
    extensions = {}
    for lab in calc.labels:
        matrix = random_matrix(n, rng, pool, zero, 0.5)
        matrix[0] = [one, one] + [zero] * (n - 2)
        matrix[1] = [-one] + [zero] * (n - 1)
        if n > 2:
            matrix[2][0] = rng.choice(pool)
        extensions[lab] = FormExtension(calc, calc.twists[lab], matrix)
    geo = Geometry(calc, extensions)
    x = sized_random_element(calc.algebra, rng, 3, 2)
    for s in range(n):
        entries = {(s, k): x for k in range(n)}
        got = geo.from_tensor_A(entries)
        assert tensor_dump(got) == tensor_dump(ref_from_tensor_A(geo, entries))
        if n > 2:
            assert list(got.terms)[:2] == [(s, 1), (s, 0)]


def test_invert_matrix(bundle):
    rng = random.Random(43)
    params = bundle.params
    cases = [m for n in range(1, 6) for m in matrices(n, rng, params)]
    cases += [ext.matrix for ext in bundle.geometry.extensions.values()]
    inverted = 0
    for matrix in cases:
        got = _invert_matrix(matrix, params)
        assert matrix_dump(got) == \
            matrix_dump(ref_invert_matrix(matrix, params))
        inverted += got is not None
    assert 0 < inverted < len(cases)
