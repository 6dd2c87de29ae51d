"""The one term printer against the two printer families it replaced.

The references below are the plain-text and LaTeX printers that each value
kind used to have, written out as functions.  They differ from the old code
in one place only: ``latex_form_term`` prints a coefficient of exactly -1 as
a bare minus sign, as ``latex_scaled`` already did (the old code printed
``- 1 \\, \\theta^{2}`` for ``t1 - t2``).  On seeded coefficients,
polynomials, elements, forms of grades 0-2, tensors and derived relations
over the quantum torus, gl-pq2 and a rank-3 quantum space, and on powers of
sums, every printed text must be byte-identical to the reference.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import ncdiff
from ncdiff import render
from ncdiff.algebra import Element, deg_lex_key
from ncdiff.calculus import DerivedRelation
from ncdiff.coeff import (Polynomial, RationalFunction, _grlex_key,
                          int_text)
from ncdiff.dsl import load_model
from ncdiff.geometry import TensorForm
from ncdiff.render import LATEX, PLAIN, latex_value, render_plain, render_word

from test_algebra import sized_random_element

# -- plain-text references ----------------------------------------------------


def number_text(value):
    if value.__class__ is int or value.denominator == 1:
        return int_text(value.numerator)
    return "%s/%s" % (int_text(value.numerator), int_text(value.denominator))


def poly_term(poly, mono, coeff, lead):
    parts = []
    for name, e in zip(poly.params.names, mono):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append("%s^%s" % (name, int_text(e)))
    mag = -coeff if coeff < 0 else coeff
    if not parts:
        body = number_text(mag)
    elif mag == 1:
        body = "*".join(parts)
    else:
        body = "*".join([number_text(mag)] + parts)
    if lead:
        return "-" + body if coeff < 0 else body
    return (" - " if coeff < 0 else " + ") + body


def poly_str(poly):
    if not poly.terms:
        return "0"
    monos = sorted(poly.terms, key=_grlex_key, reverse=True)
    return "".join(poly_term(poly, m, poly.terms[m], i == 0)
                   for i, m in enumerate(monos))


def is_bare_power(poly):
    if len(poly.terms) != 1:
        return False
    (mono, c), = poly.terms.items()
    return c == 1 and sum(1 for e in mono if e) == 1 and min(mono) >= 0


def rf_str(rf):
    if rf.den.is_one():
        return poly_str(rf.num)
    num_s = poly_str(rf.num)
    if len(rf.num.terms) > 1:
        num_s = "(%s)" % num_s
    den_s = poly_str(rf.den)
    if not is_bare_power(rf.den):
        den_s = "(%s)" % den_s
    return "%s/%s" % (num_s, den_s)


def signed_text(value, render):
    s = render(value)
    if s.startswith("-"):
        negated = render(-value)
        if not negated.startswith("-"):
            return "-", negated
    return "+", s


def join_term(sign, body, lead):
    if lead:
        return body if sign == "+" else "-" + body
    return (" + " if sign == "+" else " - ") + body


def coeff_term(coeff, word_s, lead):
    sign, s = signed_text(coeff, rf_str)
    if " " in s or "/" in s:
        s = "(%s)" % s
    if word_s == "1":
        body = s
    elif s == "1":
        body = word_s
    else:
        body = "%s * %s" % (s, word_s)
    return join_term(sign, body, lead)


def word_str(table, word):
    if not word:
        return "1"
    parts = []
    for sym, count in word:
        name = table.symbols[sym]
        if table.is_inverse_symbol(sym):
            base = table.symbols[table.base_index[sym]]
            parts.append("%s^-%s" % (base, int_text(count)))
        elif count == 1:
            parts.append(name)
        else:
            parts.append("%s^%s" % (name, int_text(count)))
    return "*".join(parts)


def element_str(element):
    if not element.terms:
        return "0"
    table = element.algebra.table
    words = sorted(element.terms, key=deg_lex_key)
    return "".join(coeff_term(element.terms[w], word_str(table, w), i == 0)
                   for i, w in enumerate(words))


def form_str(form):
    if not form.terms:
        return "0"
    labels = form.calculus.labels
    parts = []
    for i, key in enumerate(sorted(form.terms, key=lambda k: (len(k), k))):
        coeff = form.terms[key]
        theta_s = "*".join(labels[n] for n in key)
        if not key:
            sign, body = "+", element_str(coeff)
        elif len(coeff.terms) > 1:
            sign = "+"
            body = "(%s) * %s" % (element_str(coeff), theta_s)
        else:
            sign, elt_s = signed_text(coeff, element_str)
            body = theta_s if elt_s == "1" else "%s * %s" % (elt_s, theta_s)
        parts.append(join_term(sign, body, i == 0))
    return "".join(parts)


def tensor_str(tensor):
    if not tensor.terms:
        return "0"
    labels = tensor.calculus.labels
    return " + ".join("(%s) * %s (x) %s" % (element_str(tensor.terms[key]),
                                            labels[key[0]], labels[key[1]])
                      for key in sorted(tensor.terms))


def relation_str(rel):
    lhs = "%s * %s" % rel.left
    if not rel.terms:
        return "%s = 0" % lhs
    return "%s = %s" % (lhs, "".join(
        coeff_term(coeff, "%s * %s" % names, i == 0)
        for i, (coeff, names) in enumerate(rel.terms)))


# -- LaTeX references ----------------------------------------------------------


def latex_fraction(value):
    if value.denominator == 1:
        return int_text(value.numerator)
    if value.numerator < 0:
        return "-\\frac{%s}{%s}" % (int_text(-value.numerator),
                                    int_text(value.denominator))
    return "\\frac{%s}{%s}" % (int_text(value.numerator),
                               int_text(value.denominator))


def signed_join(texts):
    texts = iter(texts)
    pieces = [next(texts)]
    for text in texts:
        pieces.append("- " + text[1:] if text.startswith("-")
                      else "+ " + text)
    return " ".join(pieces)


def latex_poly_term(coeff, body):
    if not body:
        return latex_fraction(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s %s" % (latex_fraction(coeff), body)


def latex_polynomial(poly):
    if poly.is_zero():
        return "0"
    monos = sorted(poly.terms, key=lambda m: (sum(m), m), reverse=True)
    return signed_join(latex_poly_term(poly.terms[mono], " ".join(
        name if e == 1 else "%s^{%s}" % (name, int_text(e))
        for name, e in zip(poly.params.names, mono) if e)) for mono in monos)


def latex_coefficient(rf):
    num = latex_polynomial(rf.num)
    if rf.den.is_one():
        return num
    return "\\frac{%s}{%s}" % (num, latex_polynomial(rf.den))


def latex_word(table, word):
    if not word:
        return "1"
    parts = []
    for sym, count in word:
        name = table.symbols[sym]
        if name.endswith("^-1"):
            name, count = name[:-3], -count
        parts.append(name if count == 1
                     else "%s^{%s}" % (name, int_text(count)))
    return " ".join(parts)


def is_plain(rf):
    return rf.den.is_one() and len(rf.num.terms) <= 1


def latex_scaled(coeff, body):
    if not body:
        return latex_coefficient(coeff) if is_plain(coeff) \
            else "\\left(%s\\right)" % latex_coefficient(coeff)
    if coeff.is_one():
        return body
    if (-coeff).is_one():
        return "-" + body
    if is_plain(coeff):
        return "%s \\, %s" % (latex_coefficient(coeff), body)
    return "\\left(%s\\right) %s" % (latex_coefficient(coeff), body)


def latex_element(element):
    if element.is_zero():
        return "0"
    table = element.algebra.table
    return signed_join(
        latex_scaled(element.terms[word],
                     latex_word(table, word) if word else "")
        for word in sorted(element.terms, key=deg_lex_key))


def latex_label(label):
    if label.startswith("t") and label[1:].isdigit():
        return "\\theta^{%s}" % label[1:]
    return "\\theta^{\\mathrm{%s}}" % label


def latex_form_term(coeff, body):
    if not body:
        return latex_element(coeff)
    if coeff.is_one():
        return body
    if (-coeff).is_one():  # the one change: the old printer lacked this case
        return "-" + body
    if len(coeff.terms) == 1:
        return "%s \\, %s" % (latex_element(coeff), body)
    return "\\left(%s\\right) %s" % (latex_element(coeff), body)


def latex_form(form):
    if form.is_zero():
        return "0"
    calc = form.calculus
    return signed_join(
        latex_form_term(form.terms[index],
                        " \\wedge ".join(latex_label(calc.labels[p])
                                         for p in index))
        for index in sorted(form.terms, key=lambda k: (len(k), k)))


def latex_relation(rel):
    left = " \\cdot ".join("\\mathit{%s}" % n for n in rel.left)
    if not rel.terms:
        return "%s = 0" % left
    return "%s = %s" % (left, signed_join(
        latex_scaled(rf, " \\cdot ".join("\\mathit{%s}" % n for n in names))
        for rf, names in rel.terms))


# -- seeded values -------------------------------------------------------------


def coefficient_pool(params, rng):
    """Coefficients that reach every sign and parenthesis rule, and their
    negatives: integers, fractions, a huge integer, Laurent monomials, sums
    that may lead with a minus, and quotients over a sum."""
    numbers = [RationalFunction.from_value(params, v)
               for v in (1, 2, 3, Fraction(3, 2), Fraction(1, 3), 10 ** 4400)]
    monomials = [RationalFunction.parameter(params, name, e)
                 for name in params.names for e in (1, -1, 2, -3)]
    signed = numbers + monomials + [-c for c in numbers + monomials]
    sums = [a + b for a, b in (rng.sample(signed, 2) for _ in range(8))]
    sums = [c for c in sums if not c.is_zero()]
    quotients = [rng.choice(signed + sums) / rng.choice(sums)
                 for _ in range(8)]
    pool = signed + sums + quotients
    return pool + [-c for c in sums + quotients]


def elements(alg, rng, pool, count):
    """Random sums with coefficients from pool, then single terms on the
    empty word and on words of those sums."""
    out = [alg.zero(), alg.one(), -alg.one()]
    for _ in range(count):
        x = sized_random_element(alg, rng, 4, 3)
        out.append(Element(alg, {w: c * rng.choice(pool)
                                 for w, c in x.terms.items()}))
    words = [()] + [w for x in out[3:13] for w in x.terms]
    return out + [Element(alg, {w: rng.choice(pool)}) for w in words]


def forms(calc, elts, rng, count):
    n = len(calc.labels)
    keys = [()] + [(i,) for i in range(n)] + [
        (i, j) for i in range(n) for j in range(i + 1, n)]
    t1, t2 = calc.theta(calc.labels[0]), calc.theta(calc.labels[1])
    return [calc.form({key: rng.choice(elts)
                       for key in rng.sample(keys, rng.randint(0, 4))})
            for _ in range(count)] + [t1 - t2, -t1]


def tensors(calc, elts, rng, count):
    n = len(calc.labels)
    keys = [(s, k) for s in range(n) for k in range(n)]
    return [TensorForm(calc, {key: rng.choice(elts)
                              for key in rng.sample(keys, rng.randint(0, 4))})
            for _ in range(count)]


def relations(rng, pool, count):
    names = ["w", "v", "x", "y"]
    return [DerivedRelation(tuple(rng.sample(names, 2)),
                            [(rng.choice(pool), tuple(rng.sample(names, 2)))
                             for _ in range(rng.randint(0, 4))])
            for _ in range(count)]


@pytest.fixture(params=["torus", "glpq", "rank3"])
def bundle(request, repo_module):
    if request.param == "rank3":
        workloads = repo_module("bench/workloads.py")
        return load_model(workloads.rank_n_text(3, 3003))
    return request.getfixturevalue(request.param)


def test_coefficients_and_polynomials(bundle):
    rng = random.Random(11)
    for c in coefficient_pool(bundle.params, rng):
        assert str(c) == rf_str(c)
        assert latex_value(c) == latex_coefficient(c)
        for poly in (c.num, c.den):
            assert str(poly) == poly_str(poly)
            assert latex_value(poly) == latex_polynomial(poly)
    zero = Polynomial(bundle.params)
    assert str(zero) == poly_str(zero) == "0"
    assert latex_value(zero) == latex_polynomial(zero) == "0"


def test_elements_and_words(bundle):
    rng = random.Random(12)
    alg = bundle.algebra
    for x in elements(alg, rng, coefficient_pool(bundle.params, rng), 60):
        assert str(x) == element_str(x)
        assert latex_value(x) == latex_element(x)
        for word in x.terms:
            assert render_word(alg.table, word) == word_str(alg.table, word)


def test_forms(bundle):
    rng = random.Random(13)
    elts = elements(bundle.algebra, rng,
                    coefficient_pool(bundle.params, rng), 30)
    calc = bundle.calculus
    values = forms(calc, elts, rng, 60)
    values += [calc.d(x) for x in elts[:10]] + [calc.inner_form()]
    assert {len(key) for w in values for key in w.terms} == {0, 1, 2}
    for w in values:
        assert str(w) == form_str(w)
        assert latex_value(w) == latex_form(w)


def test_tensors(bundle):
    rng = random.Random(14)
    elts = elements(bundle.algebra, rng,
                    coefficient_pool(bundle.params, rng), 30)
    for g in tensors(bundle.calculus, elts, rng, 30):
        assert str(g) == tensor_str(g)


def test_relations(bundle):
    rng = random.Random(15)
    for rel in relations(rng, coefficient_pool(bundle.params, rng), 40):
        assert rel.render() == relation_str(rel)
        assert latex_value(rel) == latex_relation(rel)


@pytest.mark.parametrize("model,base", [("glpq", "b + 3*d - 2*a + 2*c"),
                                        ("torus", "x + y + 2*x^-1")])
def test_expansions(request, model, base):
    """Powers of sums: many coefficients that share their monomials."""
    bundle = request.getfixturevalue(model)
    for k in range(2, 7):
        x = bundle.eval_expression("(%s)^%d" % (base, k))
        assert str(x) == element_str(x)
        assert latex_value(x) == latex_element(x)


def shared_monomial_pool(params, rng):
    """Coefficients over six shared Laurent monomials, negative exponents
    included: sums of one to six of them with integer, Fraction and huge
    coefficients of both signs, and quotients of those over sums of two to
    four of them, so that one value's numerators and multi-term
    denominators repeat each other's monomials."""
    monos = list({tuple(rng.randint(-3, 3) for _ in params.names)
                  for _ in range(6)})
    numbers = (1, -1, 2, -3, Fraction(3, 2), Fraction(-1, 3), 10 ** 4400,
               -10 ** 4400)

    def drawn(low, high):
        return RationalFunction(Polynomial(params, {
            mono: rng.choice(numbers)
            for mono in rng.sample(monos, rng.randint(low, min(high,
                                                                len(monos))))}))
    sums = [drawn(1, 6) for _ in range(12)]
    quotients = [rng.choice(sums) / drawn(2, 4) for _ in range(8)]
    return sums + quotients


def shared_elements(alg, rng, pool, count):
    """Sums of up to six words, each coefficient from pool."""
    return [Element(alg, {w: rng.choice(pool) for w in
                          sized_random_element(alg, rng, 6, 3).terms})
            for _ in range(count)]


def test_values_sharing_monomials(bundle):
    """One print's coefficients repeat the same monomials in numerators
    and denominators; every value prints as the reference does."""
    rng = random.Random(16)
    pool = shared_monomial_pool(bundle.params, rng)
    assert any(len(c.den.terms) > 1 for c in pool)
    for c in pool:
        assert str(c) == rf_str(c)
        assert latex_value(c) == latex_coefficient(c)
    elts = shared_elements(bundle.algebra, rng, pool, 30)
    for x in elts:
        assert str(x) == element_str(x)
        assert latex_value(x) == latex_element(x)
    calc = bundle.calculus
    for w in forms(calc, elts, rng, 30):
        assert str(w) == form_str(w)
        assert latex_value(w) == latex_form(w)
    for g in tensors(calc, elts, rng, 20):
        assert str(g) == tensor_str(g)


def test_one_sort_per_print(glpq, monkeypatch, repo_module):
    """A print sorts the distinct monomials of its value once: on a seed-1
    nf-expand result, whose coefficients repeat about a hundred monomials
    over thousands of terms, no print computes more graded-order keys than
    the value has distinct monomials."""
    workloads = repo_module("bench/workloads.py")
    ops = next(workloads.ExpandWorkload(1, "").rounds())
    op = max(ops, key=lambda op: (op.expect["k"], len(op.expect["terms"])))
    x = glpq.eval_expression(op.argv[3])
    monos = {m for c in x.terms.values()
             for m in (c.num.terms if c.den.is_one()
                       else [*c.num.terms, *c.den.terms])}
    terms = sum(len(c.num.terms) for c in x.terms.values())
    assert terms > 5 * len(monos)
    keys = []
    grlex_key = render._grlex_key
    monkeypatch.setattr(render, "_grlex_key",
                        lambda mono: keys.append(mono) or grlex_key(mono))
    for spell in (str, latex_value):
        del keys[:]
        spell(x)
        assert 0 < len(keys) <= len(monos)


def test_no_printing_state_outlives_a_print(glpq):
    x = glpq.eval_expression("(b + 3*d - 2*a + 2*c)^8")
    assert len(x.terms) == 165
    spaces = (render.PLAIN, render.LATEX, render)
    before = [dict(vars(space)) for space in spaces]
    assert str(x) == element_str(x)
    assert latex_value(x) == latex_element(x)
    assert [dict(vars(space)) for space in spaces] == before


def test_one_printing_base(torus):
    """Each printed class names its spelling in _SPELLING; str, repr and
    render_plain give the same text."""
    q = RationalFunction.parameter(torus.params, "q")
    calc = torus.calculus
    x = torus.value("x")
    values = [(q + 1).num, (q + 1) / (q - 2), x * x + q * x, calc.d(x * x),
              TensorForm(calc, {(0, 1): x}),
              calc.commutation_relations({"dx": torus.value("dx")},
                                         {"x": x})[0]]
    for v in values:
        spelling = type(v)._SPELLING
        assert callable(getattr(PLAIN, spelling)), spelling
        assert callable(getattr(LATEX, spelling)), spelling
        assert str(v) == repr(v) == render_plain(v)
    assert [type(v)._SPELLING for v in values] == [
        "polynomial", "rational", "element", "form", "tensor", "relation"]


@pytest.mark.parametrize("module", ["coeff", "algebra", "morphism",
                                    "calculus", "geometry", "render", "dsl",
                                    "models", "cli"])
def test_every_module_imports_first(module):
    # render and the modules whose values it prints import each other.
    src = os.path.dirname(os.path.dirname(ncdiff.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import ncdiff.%s" % module],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 0, done.stderr
