"""Plain text, LaTeX and JSON renderings of every printed value.

Every value prints as a sum of signed terms.  A polynomial's terms are its
monomials, highest first in the graded order; an element's are its words in
deg-lex order, each scaled by its coefficient; a form's are its basis forms
by grade, each scaled by its element coefficient; a tensor's and a derived
relation's are built the same way.  A polynomial's terms are joined as they
are spelled (``_Spelling._sum``), any other value's are built once per print
as (negative, text) pairs and joined by ``_join``: the first term keeps only
a leading minus, the others are preceded by `` + `` or `` - ``.  Pulling a
polynomial's leading minus out flips its signs; no coefficient is spelled
twice to find its sign.  A print sorts the distinct monomials of all its
coefficients, numerators and denominators, once in the graded order, spells
each of them and each number once, and keeps nothing after: every
coefficient orders its terms by their int ranks in that one table
(``_Spelling._table``), which a lone polynomial or quotient builds over its
own terms.

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


def _joined(pieces: list) -> str:
    """Alternating signs (`` + `` or `` - ``) and texts as one sum: the
    first sign becomes a leading minus or nothing."""
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def _join(terms) -> str:
    """Signed (negative, text) terms as one sum."""
    pieces = []
    for negative, text in terms:
        pieces.append(" - " if negative else " + ")
        pieces.append(text)
    return _joined(pieces)


def _parts(coefficients) -> list:
    """The numerator of each coefficient, and its denominator unless 1."""
    polys = []
    for rf in coefficients:
        polys.append(rf.num)
        if not rf.den.is_one():
            polys.append(rf.den)
    return polys


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

    def _table(self, polys) -> tuple:
        """(rank, spelt, numbers) for one print: rank maps each distinct
        monomial of polys to its place in the graded order, spelt to its
        factors and, ready for a number in front, the factors after the
        times token; numbers keeps each magnitude's text once spelled."""
        monos = set()
        names = ()
        for poly in polys:
            monos.update(poly.terms)
            names = poly.params.names
        times, product = self.times, self._power_product
        rank, spelt = {}, {}
        for i, mono in enumerate(sorted(monos, key=_grlex_key)
                                 if len(monos) > 1 else monos):
            rank[mono] = i
            factors = product(zip(names, mono))
            spelt[mono] = factors, times + factors if factors else ""
        return rank, spelt, {}

    def _sum(self, poly, table, pull: bool = False):
        """(negative, text) of a polynomial, its terms highest first, each
        one lookup in the print's table and at most one concatenation.  pull
        takes a leading minus out of text into negative, flipping every
        sign of the sum."""
        terms = poly.terms
        rank, spelt, numbers = table
        monos = (sorted(terms, key=rank.__getitem__, reverse=True)
                 if len(terms) > 1 else terms)
        negative = pull and terms[next(iter(monos))] < 0
        minus, plus = (" + ", " - ") if negative else (" - ", " + ")
        pieces = []
        for mono in monos:
            c = terms[mono]
            if c < 0:
                pieces.append(minus)
                c = -c
            else:
                pieces.append(plus)
            factors, tail = spelt[mono]
            if factors and c == 1:
                pieces.append(factors)
                continue
            number = numbers.get(c)
            if number is None:
                number = int_text(c.numerator)
                if c.denominator != 1:
                    number = self.ratio % (number, int_text(c.denominator))
                numbers[c] = number
            pieces.append(number + tail)
        return negative, _joined(pieces)

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

    def _element_terms(self, element, table) -> list:
        gens = element.algebra.table
        terms = element.terms
        words = terms if len(terms) == 1 else sorted(terms,
                                                     key=algebra.deg_lex_key)
        return [self._scaled(*self.coefficient(terms[word], table),
                             self._word(gens, word)) for word in words]

    def _grouped(self, element, body: str, table):
        """The term (element) times body, the element always wrapped."""
        return False, self.grouped % (
            self.group % _join(self._element_terms(element, table)), body)

    def _labels(self, labels, key, joiner: str) -> str:
        return joiner.join([self.label(labels[p]) for p in key])

    def fraction(self, rf, table, pull: bool = False):
        """(negative, text) of num/den, with the numerator's leading minus
        pulled out by pull."""
        negative, text = self._sum(rf.num, table, pull)
        if rf.den.is_one():
            return negative, text
        if len(rf.num.terms) > 1:
            text = self.numerator % text
        return negative, self.over % (text, self._sum(rf.den, table)[1])

    def polynomial(self, poly) -> str:
        return self._sum(poly, self._table((poly,)))[1]

    def rational(self, rf) -> str:
        return self.fraction(rf, self._table(_parts((rf,))))[1]

    def element(self, element) -> str:
        return _join(self._element_terms(
            element, self._table(_parts(element.terms.values()))))

    def form(self, form) -> str:
        labels = form.calculus.labels
        table = self._table(_parts([c for x in form.terms.values()
                                    for c in x.terms.values()]))
        out = []
        for key in sorted(form.terms, key=lambda k: (len(k), k)):
            coeff = form.terms[key]
            body = self._labels(labels, key, self.wedge)
            if not key:
                # The grade-0 part sorts first, so its terms lead the sum,
                # each keeping its own sign.
                out += self._element_terms(coeff, table)
            elif len(coeff.terms) > 1:
                out.append(self._grouped(coeff, body, table))
            else:
                (term,) = self._element_terms(coeff, table)
                out.append(self._scaled(*term, False, body))
        return _join(out)

    def tensor(self, tensor) -> str:
        labels = tensor.calculus.labels
        table = self._table(_parts([c for x in tensor.terms.values()
                                    for c in x.terms.values()]))
        return _join([self._grouped(tensor.terms[key],
                                    self._labels(labels, key, self.otimes),
                                    table)
                      for key in sorted(tensor.terms)])

    def relation(self, rel) -> str:
        table = self._table(_parts([rf for rf, _ in rel.terms]))
        terms = [self._scaled(*self.coefficient(rf, table),
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

    def coefficient(self, rf, table):
        """(negative, text, wrapped) of a coefficient in front of a body."""
        negative, text = self.fraction(
            rf, table, len(rf.num.terms) == 1 or rf.den.is_one())
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

    def coefficient(self, rf, table):
        """(negative, text, wrapped) of a coefficient in front of a body."""
        if len(rf.num.terms) == 1 and rf.den.is_one():
            return self._sum(rf.num, table, True) + (False,)
        return False, self.group % self.fraction(rf, table)[1], True


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
