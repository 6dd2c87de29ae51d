"""Plain text, LaTeX and JSON renderings of every printed value.

Every value prints as a sum of signed terms.  A polynomial's terms are its
monomials, highest first in the graded order; an element's are its words in
deg-lex order, each scaled by its coefficient; a form's are its basis forms
by grade, each scaled by its element coefficient; a tensor's and a derived
relation's are built the same way.  The terms of one print are built once, as
(negative, text) pairs, and joined by ``_join``: the first term keeps only a
leading minus, the others are preceded by `` + `` or `` - ``.  Negating a
stream flips its signs; no coefficient is spelled twice to find its sign.
A print spells each distinct monomial and number once (a bare quotient once
in its numerator and once in its denominator) and keeps nothing after.

The two spellings, ``PLAIN`` and ``LATEX``, differ in their tokens and in
two rules kept per spelling by design:

* sign placement: plain text pulls the leading minus out of any coefficient
  whose numerator is not parenthesised (``-(q + 1) * x``,
  ``-(q/(q + 1)) * x``); LaTeX pulls it only out of a monomial over 1 and
  keeps it inside any other coefficient (``\\left(-q - 1\\right) x``);
* parentheses: plain text wraps a coefficient whose text has a space or a
  ``/`` (``(3/2*q) * x``); LaTeX wraps every coefficient that is not a
  monomial over 1 (``-\\frac{3}{2} q \\, x``).

Basis labels of the shape t<digits> render in LaTeX as theta with a numeric
superscript; any other label keeps its name in the superscript.  All
dictionary outputs use sorted, stable orderings so that serialized output
is byte-identical across runs.
"""

from __future__ import annotations

# algebra, calculus and geometry import this module, so it imports algebra
# as a module and reads its names at call time.  Each printable value picks
# its stream through coeff.Printable._spelled and its class's _SPELLING.
from . import algebra
from .coeff import _grlex_key, int_text


def _join(terms, flip: bool = False) -> str:
    """Signed (negative, text) terms as one sum, every sign flipped by flip."""
    pieces = []
    for negative, text in terms:
        pieces.append(" - " if negative != flip else " + ")
        pieces.append(text)
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


class _Spelling:
    """The term streams both spellings share.

    A subclass gives the tokens (%-templates and joiners) and the rules that
    differ by design: ``coefficient`` and ``label``.  A value reaches one
    of the public methods through ``coeff.Printable._spelled``, which calls
    the method that its class's ``_SPELLING`` names.
    """

    def _power_product(self, pairs) -> str:
        """The factors name^e for the (name, e) pairs with e nonzero, the
        bare name for e == 1, joined."""
        power = self.power
        factors = []
        for name, e in pairs:
            if e == 1:
                factors.append(name)
            elif e:
                factors.append(power % (name, int_text(e)))
        return self.times.join(factors)

    def _poly_terms(self, poly, memo=None) -> list:
        """A polynomial's terms, highest first.  memo keeps, for one print,
        each exponent vector's sort key and factors and each magnitude's
        number; a sum given none makes its own, a single term makes none."""
        names = poly.params.names
        if len(poly.terms) == 1:
            (mono, c), = poly.terms.items()
            return [self._monomial(c, self._power_product(zip(names, mono)),
                                   memo)]
        memo = {} if memo is None else memo
        spelt = []
        for mono, c in poly.terms.items():
            entry = memo.get(mono) or memo.setdefault(mono, (
                _grlex_key(mono), self._power_product(zip(names, mono))))
            spelt.append(entry + (c,))
        spelt.sort(reverse=True)  # distinct keys: nothing after them compares
        return [self._monomial(c, factors, memo) for _, factors, c in spelt]

    def _monomial(self, c, factors: str, memo):
        """The signed term c times the factors; memo, if any, keeps numbers."""
        magnitude = -c if c < 0 else c
        if factors and magnitude == 1:
            return c < 0, factors
        number = memo.get(magnitude) if memo else None
        if number is None:
            number = int_text(magnitude.numerator)
            if magnitude.denominator != 1:
                number = self.ratio % (number, int_text(magnitude.denominator))
            if memo is not None:
                memo[magnitude] = number
        return c < 0, number + self.times + factors if factors else number

    def _word(self, table, word) -> str:
        """A word's factors; the empty word is the empty text."""
        base, symbols = table.base_index, table.symbols
        return self._power_product(
            [(symbols[base[sym]], count if base[sym] == sym else -count)
             for sym, count in word])

    def _scaled(self, negative: bool, text: str, wrapped: bool, body: str):
        """The term coefficient times body, the coefficient spelled as text
        (already wrapped when wrapped is set) with its sign pulled out."""
        if not body:
            return negative, text
        if wrapped:
            return negative, self.grouped % (text, body)
        if text == "1":
            return negative, body
        return negative, self.scaled % (text, body)

    def _element_terms(self, element, memo) -> list:
        table = element.algebra.table
        terms = element.terms
        words = terms if len(terms) == 1 else sorted(terms,
                                                     key=algebra.deg_lex_key)
        return [self._scaled(*self.coefficient(terms[word], memo),
                             self._word(table, word)) for word in words]

    def _grouped(self, element, body: str, memo):
        """The term (element) times body, the element always wrapped."""
        return False, self.grouped % (
            self.group % _join(self._element_terms(element, memo)), body)

    def _labels(self, labels, key, joiner: str) -> str:
        return joiner.join([self.label(labels[p]) for p in key])

    def fraction(self, num: list, flip: bool, den, memo=None) -> str:
        """num/den from the numerator's terms, their signs flipped by flip."""
        text = _join(num, flip)
        if den.is_one():
            return text
        if len(num) > 1:
            text = self.numerator % text
        return self.over % (text, _join(self._poly_terms(den, memo)))

    def polynomial(self, poly) -> str:
        return _join(self._poly_terms(poly))

    def rational(self, rf) -> str:
        return self.fraction(self._poly_terms(rf.num), False, rf.den)

    def element(self, element) -> str:
        return _join(self._element_terms(
            element, {} if len(element.terms) > 1 else None))

    def form(self, form) -> str:
        labels = form.calculus.labels
        memo = {}
        out = []
        for key in sorted(form.terms, key=lambda k: (len(k), k)):
            coeff = form.terms[key]
            body = self._labels(labels, key, self.wedge)
            if not key:
                # The grade-0 part sorts first, so its terms lead the sum,
                # each keeping its own sign.
                out += self._element_terms(coeff, memo)
            elif len(coeff.terms) > 1:
                out.append(self._grouped(coeff, body, memo))
            else:
                (term,) = self._element_terms(coeff, memo)
                out.append(self._scaled(*term, False, body))
        return _join(out)

    def tensor(self, tensor) -> str:
        labels = tensor.calculus.labels
        memo = {}
        return _join([self._grouped(tensor.terms[key],
                                    self._labels(labels, key, self.otimes),
                                    memo)
                      for key in sorted(tensor.terms)])

    def relation(self, rel) -> str:
        memo = {}
        terms = [self._scaled(*self.coefficient(rf, memo),
                              self.dot.join([self.name % n for n in names]))
                 for rf, names in rel.terms]
        return "%s = %s" % (self.dot.join([self.name % n for n in rel.left]),
                            _join(terms))


class _Plain(_Spelling):
    """The plain text, which the model language parses back."""

    power = "%s^%s"
    ratio = "%s/%s"
    # A stored denominator other than 1 has two or more terms, so it is
    # always wrapped.
    numerator, over = "(%s)", "%s/(%s)"
    times = "*"
    group = "(%s)"
    scaled = grouped = "%s * %s"
    wedge = "*"
    otimes = " (x) "
    name = "%s"
    dot = " * "

    @staticmethod
    def label(label: str) -> str:
        return label

    def coefficient(self, rf, memo=None):
        """(negative, text, wrapped) of a coefficient in front of a body."""
        num = self._poly_terms(rf.num, memo)
        negative = num[0][0] and (len(num) == 1 or rf.den.is_one())
        text = self.fraction(num, negative, rf.den, memo)
        if " " in text or "/" in text:
            return negative, self.group % text, True
        return negative, text, False


class _Latex(_Spelling):
    """The LaTeX spelling."""

    power = "%s^{%s}"
    ratio = over = "\\frac{%s}{%s}"
    numerator = "%s"
    times = " "
    group = "\\left(%s\\right)"
    scaled = "%s \\, %s"
    grouped = "%s %s"
    wedge = " \\wedge "
    otimes = " \\otimes "
    name = "\\mathit{%s}"
    dot = " \\cdot "

    @staticmethod
    def label(label: str) -> str:
        if label.startswith("t") and label[1:].isdigit():
            return "\\theta^{%s}" % label[1:]
        return "\\theta^{\\mathrm{%s}}" % label

    def coefficient(self, rf, memo=None):
        """(negative, text, wrapped) of a coefficient in front of a body."""
        num = self._poly_terms(rf.num, memo)
        if len(num) == 1 and rf.den.is_one():
            return num[0] + (False,)
        return False, self.group % self.fraction(num, False, rf.den,
                                                 memo), True


PLAIN = _Plain()
LATEX = _Latex()


def render_plain(value) -> str:
    """The plain text of a polynomial, coefficient, element, form, tensor
    or derived relation; their ``__str__`` returns it."""
    return value._spelled(PLAIN)


def latex_value(value) -> str:
    """The LaTeX of any value ``render_plain`` takes."""
    return value._spelled(LATEX)


def render_word(table, word) -> str:
    """The plain text of a word; ``1`` for the empty word."""
    return PLAIN._word(table, word) or "1"


def relation_to_dict(rel) -> dict:
    return {
        "left": list(rel.left),
        "terms": [{"coefficient": render_plain(rf), "factors": list(names)}
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
