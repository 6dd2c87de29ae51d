"""LaTeX and JSON renderings of coefficients, elements, forms, and reports.

Basis labels of the shape t<digits> render as theta with a numeric
superscript; any other label keeps its name in the superscript.  All
dictionary outputs use sorted, stable orderings so that serialized output
is byte-identical across runs.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Element, deg_lex_key
from .calculus import DerivedRelation, Form
from .coeff import Polynomial, RationalFunction, int_text


def latex_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return int_text(value.numerator)
    if value.numerator < 0:
        return "-\\frac{%s}{%s}" % (int_text(-value.numerator),
                                    int_text(value.denominator))
    return "\\frac{%s}{%s}" % (int_text(value.numerator),
                               int_text(value.denominator))


def _latex_monomial(params, mono) -> str:
    parts = []
    for name, power in zip(params.names, mono):
        if power == 0:
            continue
        if power == 1:
            parts.append(name)
        else:
            parts.append("%s^{%s}" % (name, int_text(power)))
    return " ".join(parts)


def latex_polynomial(poly: Polynomial) -> str:
    if poly.is_zero():
        return "0"
    monos = sorted(poly.terms, key=lambda m: (sum(m), m), reverse=True)
    return _signed_join(_latex_poly_term(poly.terms[mono],
                                         _latex_monomial(poly.params, mono))
                        for mono in monos)


def _latex_poly_term(coeff: Fraction, body: str) -> str:
    if not body:
        return latex_fraction(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s %s" % (latex_fraction(coeff), body)


def _signed_join(texts) -> str:
    """Join term texts with + and -, taking the sign from a leading -."""
    texts = iter(texts)
    pieces = [next(texts)]
    for text in texts:
        pieces.append("- " + text[1:] if text.startswith("-")
                      else "+ " + text)
    return " ".join(pieces)


def latex_coefficient(rf: RationalFunction) -> str:
    num = latex_polynomial(rf.num)
    if rf.den.is_one():
        return num
    return "\\frac{%s}{%s}" % (num, latex_polynomial(rf.den))


def _latex_letter(table, sym: int, count: int) -> str:
    name = table.symbols[sym]
    if name.endswith("^-1"):
        name = name[:-3]
        count = -count
    if count == 1:
        return name
    return "%s^{%s}" % (name, int_text(count))


def latex_word(table, word) -> str:
    if not word:
        return "1"
    return " ".join(_latex_letter(table, sym, count) for sym, count in word)


def _is_plain(rf: RationalFunction) -> bool:
    return rf.den.is_one() and len(rf.num.terms) <= 1


def latex_element(element: Element) -> str:
    if element.is_zero():
        return "0"
    table = element.algebra.table
    return _signed_join(
        _latex_scaled(element.terms[word],
                      latex_word(table, word) if word else "")
        for word in sorted(element.terms, key=deg_lex_key))


def _latex_scaled(coeff: RationalFunction, body: str) -> str:
    """coeff times body, or coeff alone when body is empty."""
    if not body:
        return latex_coefficient(coeff) if _is_plain(coeff) \
            else "\\left(%s\\right)" % latex_coefficient(coeff)
    if coeff.is_one():
        return body
    if (-coeff).is_one():
        return "-" + body
    if _is_plain(coeff):
        return "%s \\, %s" % (latex_coefficient(coeff), body)
    return "\\left(%s\\right) %s" % (latex_coefficient(coeff), body)


def latex_label(label: str) -> str:
    if label.startswith("t") and label[1:].isdigit():
        return "\\theta^{%s}" % label[1:]
    return "\\theta^{\\mathrm{%s}}" % label


def latex_form(form: Form) -> str:
    if form.is_zero():
        return "0"
    calc = form.calculus
    return _signed_join(
        _latex_form_term(form.terms[index],
                         " \\wedge ".join(latex_label(calc.labels[p])
                                          for p in index))
        for index in sorted(form.terms, key=lambda k: (len(k), k)))


def _latex_form_term(coeff: Element, body: str) -> str:
    if not body:
        return latex_element(coeff)
    if coeff.is_one():
        return body
    if len(coeff.terms) == 1:
        return "%s \\, %s" % (latex_element(coeff), body)
    return "\\left(%s\\right) %s" % (latex_element(coeff), body)


def latex_value(value) -> str:
    if isinstance(value, RationalFunction):
        return latex_coefficient(value)
    if isinstance(value, Element):
        return latex_element(value)
    if isinstance(value, Form):
        return latex_form(value)
    raise TypeError("no latex rendering for %r" % type(value).__name__)


def latex_relation(rel: DerivedRelation) -> str:
    left = " \\cdot ".join("\\mathit{%s}" % n for n in rel.left)
    if not rel.terms:
        return "%s = 0" % left
    return "%s = %s" % (left, _signed_join(
        _latex_scaled(rf, " \\cdot ".join("\\mathit{%s}" % n for n in names))
        for rf, names in rel.terms))


def relation_to_dict(rel: DerivedRelation) -> dict:
    return {
        "left": list(rel.left),
        "terms": [{"coefficient": str(rf), "factors": list(names)}
                  for rf, names in rel.terms],
    }


def result_to_dict(result) -> dict:
    out = {"anchor": result.anchor, "name": result.name,
           "status": result.status}
    if result.witness is not None:
        out["witness"] = result.witness
    return out


def report_to_dict(report) -> dict:
    return {
        "model": report.model,
        "seed": report.seed,
        "checks": [result_to_dict(r) for r in report.results],
        "passed": report.passed,
        "failed": report.failed,
    }
