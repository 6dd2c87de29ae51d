"""Finitely presented algebras with two-letter rewriting rules.

Words over the generator alphabet are stored run-length encoded.  A
presentation is a list of relations whose orientation (largest word in the
degree-then-lexicographic order becomes the left-hand side) yields rewriting
rules with two-letter left-hand sides.  Local confluence is checked on all
length-three overlap words, which by the diamond lemma suffices for
confluence of a terminating two-letter system.  An overlap whose letters
belong to generators whose rules among themselves are those of a
q-commuting algebra, each the only rule of its pair (see the closed form
below), is proved closed by that shape without rewriting: those rules alone
rewrite its words, and they are confluent by the same lemma.  Every other
overlap is rewritten.  A relation whose right-hand side equals one that its
pair already holds adds no second rule.

Normal forms are computed by leftmost reduction, always with the first
right-hand side listed for a pair, in the reduction system of Bergman's
diamond lemma.  The reduction is a loop over an explicit stack of frames,
one per word being reduced, so its depth is bounded by memory rather than by
the interpreter's recursion limit; rules decrease words in the deg-lex
order, so it terminates.  Every word whose normal form is computed is
memoized.  (A q-commuting algebra takes its normal forms in closed form
instead; see the end of this docstring.)

A step may move a whole run at once, where one-letter leftmost reduction
would take the same steps in a row with nothing else in between:

* a swap rule ``v*u -> c*u*v`` (``v != u``) with a Laurent-unit coefficient
  ``c`` rewrites ``v^a*u^b`` to ``c^(a*b)*u^b*v^a``.  The whole ``u`` run
  moves only when ``b == 1`` or when none of ``(t, u)``, ``(u, u)`` and
  ``(u, v)`` is a rule, ``t`` being the symbol before ``v^a``; otherwise
  one ``u`` moves, giving ``c^a*u*v^a*u^(b-1)``;
* a cancel rule ``v*u -> c`` (``v != u``, ``c`` a unit) rewrites
  ``v^a*u^b`` to ``c^m*v^(a-m)*u^(b-m)`` with ``m = min(a, b)``.

Such a step skips only intermediate words, which are then not memoized.
The results are identical, term for term and in dict order: the one-letter
steps would multiply the same normal form by ``c`` once per step, and since
multiplying by a unit never renormalizes (see ``coeff``), ``c^n*K`` has
exactly the terms of ``c*(c*(...*K))``.  ``reduction_count`` counts each
step, run steps included, as one reduction.

A power of a single word with a Laurent-unit coefficient is taken by
repeated squaring when the rules are confluent: then normal forms are
unique, the product is associative, and every order of multiplication ends
in the same word with the same coefficient, whose stored form (one term over
exactly 1) depends only on its value.  Without confluence the grouping can
change the answer, so such powers, like all others, multiply the base in
one factor at a time.  Squaring stops, and the power is taken again one
factor at a time, as soon as a product is not a single unit term.  Any
other power whose coefficients and rule coefficients are all over 1, of a
sum or of a word that neither the closed form nor squaring took, is taken
with packed exponent vectors (``Element._packed_power``), cancelling and
ordering terms as the products do, so it stores the loop's terms.

Each step of that power multiplies every coefficient ``c1`` it holds by
each base coefficient ``c2`` and by the coefficient ``f`` of the normal
form of each product of their words, and adds the result.  It reads every
normal form once, packing each single-term coefficient into one monomial
code and one rational factor and finding the step's largest exponent in
the same pass.  Every product is added in one pass straight into the
target word's coefficient, term by term in order, each term of a packed
polynomial shifted by a code and scaled by a factor: the terms of ``c1``,
shifted and scaled by ``c2`` and ``f`` where both have one term; of
``c1*c2``, taken once per pair, by ``f`` where only ``f`` has one; and of
``c1*f`` or ``c1*c2*f``, by ``c2`` or not at all, where ``f`` has several.
That stores what multiplying and then adding stores: the arithmetic is
exact, so ``(ca*cb)*cf == ca*(cb*cf)``, the codes add the same way, and
shifting by a code and scaling by a nonzero number map distinct terms to
distinct terms, so only the sums cancel, in the same places.  A power whose
exponents outgrow its packing repacks into one sized for four times the
bound reached, so that it repacks once or twice.

Closed form.  An algebra is q-commuting when its rules are exactly: a unit
swap ``h*b -> c_hb*b*h`` for every pair of base generators ``h > b``; the
swaps of their inverse symbols, by ``c_hb`` when both or neither symbol is an
inverse and by ``1/c_hb`` otherwise; and the cancels ``g*g^-1 -> 1`` and
``g^-1*g -> 1`` of each invertible generator, each the only rule of its
pair.  Such rules are confluent by the diamond lemma, so no verdict is
needed: ``Algebra._closed`` reads the shapes, and once a power of a unit
monomial, a packed power or ``check_confluence`` has asked for it, the algebra
keeps the table of the ``c_hb``, and until the rules change:

* the normal form of a word is its exponent vector ``e`` (one integer per
  base generator, inverse symbols counting negative) spelled as one sorted
  word, times ``prod c_hb^k_hb``, where ``k_hb`` sums the product of the
  signed counts over each pair of runs in which a run of ``h`` or ``h^-1``
  stands before a run of ``b`` or ``b^-1``.  The rules bring any word there
  by swapping its letters into sorted order, each swap of a letter of ``h``
  past one of ``b`` giving a factor ``c_hb`` or ``1/c_hb``, and then
  cancelling by 1; by the diamond lemma every reduction ends in that one
  normal form.  It is taken in one pass over the runs, with no rewriting
  and no memoized words;
* the power ``(c*w)^n`` of a normal-form word with exponent vector ``e`` and
  a Laurent-unit ``c`` is the word with exponents ``n*e`` times
  ``c^n * prod c_hb^(C(n, 2)*e_h*e_b)``: the ``n`` copies of ``w`` are
  already sorted, and each of the ``C(n, 2)`` pairs of copies crosses every
  ``h`` of the first with every ``b`` of the second;
* the product of two unit monomials ``c*x^m`` and ``c'*x^n`` is
  ``c*c' * prod c_hb^(m_h*n_b) * x^(m+n)``: every ``h`` of the left factor
  crosses every ``b`` of the right.

``_ClosedForm.times`` and ``_ClosedForm.raised`` take the last two on
exponent vectors, for the power above and for the monomial lane of
``dsl._Evaluator``, which folds a product of unit monomials into one
exponent vector once the closed form is built.  The stored coefficient is
the one rewriting stores: both are Laurent units of the same value, and a
unit is stored as its single term over 1, its rational factor an int when
integral, and 1 as the algebra's own 1.  Every other algebra, and one that
nothing has asked for its closed form yet, is rewritten step by step;
``normal_form_by_rewriting`` stays callable on all of them as the reference.

Run-pair tables.  A packed power (``Element._packed_power``) needs the
normal form of many products ``u*v`` of two normal words.  On an algebra
without a closed form it takes them from ``_RunTables`` (as Levandovskyy and
Schoenemann's Plural does for G-algebras, ISSAC 2003) when the rules have an
ordered PBW shape, confluent or not: with each symbol ranked by its base,
every rule ``x*y`` has ``x`` of higher rank or cancels a generator against
its inverse by a unit, every pair of symbols of falling rank has a rule,
and the right-hand side of every rule other than a unit swap is a sum of
words of rising rank between ``y`` and ``x``, as in gl-pq2's
``d*a -> a*d + (q^-1 - p)*b*c``.  Normal words then rise in rank.  For
``u = P*x^m`` and ``v = y^n*S`` with a rule ``x*y``, leftmost reduction
starts at the junction, and the tables keep ``NF(x^m*y^n)`` per rule pair:

* a unit swap or cancel entry is written in closed form, moving whole runs
  as a run step does;
* any other entry is filled as the reduction fills it: its first step
  splices each term ``t`` of the right-hand side between ``x^(m-1)`` and
  ``y^(n-1)``, and the reduction of ``x^(m-1)*t`` is walked from the
  smaller entries with each normal word ``w`` it reaches taken to
  ``NF(w*y^(n-1))``, accumulating at each step as the reduction does.

Coefficients keep the order of the operations that built them (see
``coeff``), so the suffix ``y^(n-1)`` is applied to each word the
reduction reaches, never to the accumulated entry: multiplying out an
accumulated sum stores the same value with its terms in another order.

``P`` and ``S`` are carried past the block when every rule that a letter
of ``P`` meets on its left, or a letter of ``S`` on its right, is a unit
swap or cancel, and the bases below ``left``, those of ``P`` among them, are
q-commuting among themselves; in rising words that is one rank test on the
last run of ``P`` and one on the first of ``S``.  The stored normal form
is then the entry's, each normal word ``w`` of the block moved to
``NF(P*w*S)`` and its coefficient times the unit of that move, with no
fallback.  A carried ``P*w*S`` reduces by carry steps only: unit swaps and
cancels among the q-commuting bases below ``left`` (the prefix, below),
and the unit rules that the letters of ``S`` meet.  So ``NF(P*w*S)`` is one
word times a Laurent unit.  Carry steps keep a word's signed exponent
vector (an inverse symbol counting negative), and a normal word, rising in
rank with at most one run per base, is the only normal word of its vector:
distinct normal words of one block move to distinct words.

Any other product is rewritten: a block not carried, one under a tail rule
longer than ``_TABLE_SPAN``, and an entry whose reduction meets a junction
it cannot carry (``_Unproved``).  Each power builds its own tables
(``Algebra._normal_product``), which keep the algebra; the algebra keeps
none, so they go when the power returns.  The facts they rest on depend on
the rules alone, so an algebra built from a document's record
(``Algebra.presented``) takes the run index, the rule shapes and the
tables' layout from there, and one built otherwise derives them on first
use.

Why the tables need no confluence.  Rewriting is a function of the word
whatever the overlaps do: leftmost reduction with the first rule of each
pair, whose run steps give the one-letter steps' terms (above).  The tables
follow that function, not the product of the algebra, in three parts.

* The block.  An entry is filled by walking the leftmost reduction of
  ``x^m*y^n`` step for step, or is rewritten.
* The suffix.  The leftmost redex of ``X*S`` lies in ``X`` until ``X`` is
  normal, and a step of ``X`` takes ``X*S`` to its children times ``S``.
  So the reduction of ``X*S`` is the reduction tree of ``X`` with each
  normal word ``w`` at a leaf replaced by the reduction of ``w*S``,
  accumulated as that tree accumulates, for any words ``X`` and ``S``.
* The prefix.  Let ``P`` be a normal word of ranks below ``left``, and call
  a step of ``P*X`` that takes a letter of ``P`` a carry step.  A letter
  moves left only past one of higher rank, and a tail rule's letters stand
  right of its left letter, whose rank is ``left`` or more; so every letter
  left of a letter of ``P`` ranks below it, and a carry step pairs two
  letters below ``left``: the one unit swap or cancel of those q-commuting
  bases.  It shares no letter with a tail step, and where it shares one
  with another step all three letters rank below ``left``, where every
  overlap closes by the diamond lemma.  So, as in Bergman's proof of that
  lemma, the carry steps commute with the steps of ``X`` and branch
  nothing: the reduction of ``P*X`` is that of ``X`` with each leaf ``w``
  replaced by ``NF(P*w)``, one word times a unit that depends on ``w``
  alone.

Multiplying by a Laurent unit only shifts and scales terms, so it commutes,
term for term, with the sums and products of the reduction: moving a carry
or run step, or scaling an accumulated entry by the unit of its word, does
not change what is stored.  Only the prefix rests on a shape, that of the
bases below ``left``, and ``_RunTables.layout`` tests it; no part needs the
whole algebra to be confluent.

Elements here, forms in ``calculus`` and tensors in ``geometry`` are all
finite linear combinations over a basis: words, theta monomials, and pairs
of basis forms.  ``LinearSum`` holds their vector-space arithmetic once;
each class adds its own product, scaling and printing.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import add, mul

from . import render
from .coeff import (ParameterSet, Polynomial, Printable, RationalFunction,
                    _exact)


class AlgebraError(Exception):
    pass


class UnsupportedRelationError(AlgebraError):
    """A relation that the inverse-rule derivation cannot handle."""


class GeneratorTable:
    """Generator symbols in declaration order, inverses adjacent to bases."""

    __slots__ = ("base_names", "invertible", "symbols", "_index",
                 "inverse_index", "base_index")

    def __init__(self, base_names, invertible=()):
        base_names = tuple(base_names)
        if len(set(base_names)) != len(base_names):
            raise ValueError("duplicate generator name")
        invertible = tuple(invertible)
        for name in invertible:
            if name not in base_names:
                raise ValueError("unknown invertible generator %r" % name)
        self.base_names = base_names
        self.invertible = frozenset(invertible)
        symbols = []
        inverse_index = {}
        base_index = {}
        for name in base_names:
            i = len(symbols)
            symbols.append(name)
            base_index[i] = i
            if name in self.invertible:
                j = len(symbols)
                symbols.append(name + "^-1")
                inverse_index[i] = j
                inverse_index[j] = i
                base_index[j] = i
        self.symbols = tuple(symbols)
        self._index = {n: i for i, n in enumerate(symbols)}
        self.inverse_index = inverse_index
        self.base_index = base_index

    def index(self, name: str) -> int:
        return self._index[name]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def is_inverse_symbol(self, sym: int) -> bool:
        return self.base_index[sym] != sym


# A word is a tuple of (symbol, count) runs with positive counts and
# distinct adjacent symbols; the empty tuple is the unit.

def word_from_runs(runs):
    out = []
    for sym, count in runs:
        if count == 0:
            continue
        if count < 0:
            raise ValueError("negative run count")
        if out and out[-1][0] == sym:
            out[-1][1] += count
        else:
            out.append([sym, count])
    return tuple((s, c) for s, c in out)


def concat_words(*words):
    runs = []
    for w in words:
        runs.extend(w)
    return word_from_runs(runs)


def _join_words(w1, w2):
    """concat_words(w1, w2) for two words: only the runs that meet merge."""
    if not (w1 and w2):
        return w1 or w2
    sym, count = w1[-1]
    if sym != w2[0][0]:
        return w1 + w2
    return w1[:-1] + ((sym, count + w2[0][1]),) + w2[1:]


def word_degree(word) -> int:
    return sum(c for _, c in word)


def word_letters(word):
    out = []
    for sym, count in word:
        out.extend([sym] * count)
    return tuple(out)


def deg_lex_key(word):
    """A sort key ordering words by degree, then by their letters
    lexicographically, as ``(word_degree(word), word_letters(word))`` does,
    without expanding runs.

    Run ``(s, c)`` becomes ``(s, up, -c if up else c)``, ``up`` saying
    whether the next run's symbol is larger.  Words of one degree that agree
    up to runs ``(s, c)`` and ``(s, d)`` with ``c < d`` next compare the
    letter after ``s^c`` in the first with ``s``: the first word is larger
    exactly when that letter is larger than ``s``, that is when its run is
    ``up``, and the key orders it so whatever the other run's flag.  With
    equal counts the flags compare the next symbols.  A last run (``up``
    false) only meets a longer run of its symbol in a word of larger degree.
    """
    degree = 0
    key = []
    prev = None
    for run in word:
        degree += run[1]
        if prev is not None:
            sym, count = prev
            key += (sym, True, -count) if run[0] > sym else (sym, False, count)
        prev = run
    if prev is not None:
        key += (prev[0], False, prev[1])
    return (degree, tuple(key))


def single_word(sym: int, count: int = 1):
    return ((sym, count),)


def _accumulate(terms: dict, word, coeff) -> None:
    prev = terms.get(word)
    if prev is None:
        if not coeff.is_zero():
            terms[word] = coeff
    else:
        s = prev + coeff
        if s.is_zero():
            del terms[word]
        else:
            terms[word] = s


class LinearSum(Printable):
    """A finite linear combination: ``terms`` maps each basis key to its
    nonzero coefficient.

    Elements, forms and tensors take ``+``, ``-``, negation, ``==``, the
    zero test and ``str()`` from here.  ``a + b`` and ``a - b`` hold the
    keys of ``a``, then the new keys of ``b``, and drop a key whose
    coefficient cancels; printed output and the exact comparisons rely on
    this stored layout, so it must not change.  A subclass supplies three
    hooks:

    * ``_coerce(other)``: the other operand as a sum of the same kind, or
      None when it is not one (the operator then returns NotImplemented);
      it may raise for an operand that must not be mixed in;
    * ``_with(terms)``: a sum of the same kind, over the same algebra or
      calculus, holding the given terms;
    * ``_SPELLING``: the method of a ``render`` spelling that writes it,
      which ``Printable._spelled`` calls.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return self._with(out)

    __radd__ = __add__

    def __neg__(self):
        return self._with({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, -c)
        return self._with(out)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    def __str__(self):
        # Module-level name: cheaper than Printable's per-call import.
        return render.render_plain(self)


class Element(LinearSum):
    """A finite sum of words with rational-function coefficients.

    Every word of an element is in normal form and every coefficient is
    nonzero.  Arithmetic relies on this: a product by a lone scalar term and
    the image under a diagonal twist keep each word as it is.  Build
    elements from free sums of words with ``Algebra.element``.
    """

    __slots__ = ("algebra",)
    _SPELLING = "element"

    def __init__(self, algebra: "Algebra", terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _with(self, terms: dict) -> "Element":
        return Element(self.algebra, terms)

    def is_one(self) -> bool:
        return (len(self.terms) == 1 and () in self.terms
                and self.terms[()].is_one())

    def _coerce(self, other):
        if isinstance(other, Element):
            if other.algebra is not self.algebra:
                raise AlgebraError("elements of different algebras")
            return other
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.algebra.scalar(other)
        return None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        alg = self.algebra
        # A lone scalar term: every product word is a word of the other
        # factor, already in normal form, and a product of two nonzero
        # coefficients is nonzero.
        if len(self.terms) == 1 and () in self.terms:
            c1 = self.terms[()]
            return Element(alg, {w: c1 * c2 for w, c2 in other.terms.items()})
        if len(other.terms) == 1 and () in other.terms:
            c2 = other.terms[()]
            return Element(alg, {w: c1 * c2 for w, c1 in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _accumulate_scaled(
                    out, alg.normal_form_word(_join_words(w1, w2)), c1 * c2)
        return Element(alg, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor) -> "Element":
        if not isinstance(factor, RationalFunction):
            factor = RationalFunction.from_value(self.algebra.params, factor)
        if factor.is_zero():
            return self.algebra.zero()
        return Element(self.algebra, {w: c * factor for w, c in self.terms.items()})

    def _is_unit_monomial(self) -> bool:
        """True for one word with a Laurent-unit coefficient."""
        if len(self.terms) != 1:
            return False
        (c,) = self.terms.values()
        return c._is_unit()

    def __pow__(self, n: int) -> "Element":
        if n < 0:
            raise AlgebraError("negative power of an element")
        if n > 1 and self._is_unit_monomial():
            closed = self.algebra._closed()
            if closed is not None:
                (word, coeff), = self.terms.items()
                return Element(self.algebra, closed.power(word, coeff, n))
            if self.algebra.is_confluent():
                out = self._squared_power(n)
                if out is not None:
                    return out
        if (n > 1 and all(len(c.den.terms) == 1 for c in self.terms.values())
                and all(len(c.den.terms) == 1
                        for rhs_list in self.algebra.rules.values()
                        for rhs in rhs_list for c in rhs.values())):
            return self._packed_power(n)
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def _packed_power(self, n: int) -> "Element":
        """self**n, factor by factor as the loop takes it, for a base whose
        coefficients and normal forms are Laurent polynomials over 1."""
        alg = self.algebra
        size = len(alg.params)
        base = [(w, c.num.terms) for w, c in self.terms.items()]
        words = [w for w, _ in base]
        reach = bound = max((abs(e) for _, t in base for m in t for e in m),
                            default=0)
        packing = _Packing(size, bound)
        out = {w: packing.pack(t) for w, t in base}
        factors = _factors(base, packing)
        product = alg._normal_product()
        one = alg._one
        for _ in range(n - 1):
            forms = [product(w1, w2) for w1 in out for w2 in words]
            rows, top = _scanned(forms, packing.units, one)
            bound += reach + top
            if bound >= packing.half:
                old, packing = packing, _Packing(size, _HEADROOM * bound)
                out = {w: packing.pack(old.unpacked(c))
                       for w, c in out.items()}
                factors = _factors(base, packing)
                rows = _scanned(forms, packing.units, one)[0]
            rows = iter(rows)
            terms = {}
            for c1 in out.values():
                for pb, cb, c2 in factors:
                    if pb is None:
                        head, hshift, hscale = _packed_product(c1, c2), 0, 1
                    else:
                        head, hshift, hscale = c1, pb, cb
                    for word, pm, f in next(rows):
                        if pm is None:
                            source, shift, scale = (
                                _packed_product(head, f), hshift, hscale)
                        else:
                            source, shift, scale = (
                                head, hshift + pm, hscale * f)
                        prev = terms.get(word)
                        if prev is None:
                            terms[word] = {k + shift: v * scale
                                           for k, v in source.items()}
                            continue
                        for k, v in source.items():
                            k += shift
                            v = prev.get(k, 0) + v * scale
                            if v:
                                prev[k] = v
                            else:
                                del prev[k]
                        if not prev:
                            del terms[word]
            out = terms
        return Element(alg, {w: RationalFunction._make(Polynomial._make(
            alg.params, packing.unpacked(c)), alg._one.den)
            for w, c in out.items()})

    def _squared_power(self, n: int):
        """self**n by square-and-multiply, or None once a product is not
        a single unit term."""
        out = None
        square = self
        while True:
            if n & 1:
                out = square if out is None else out * square
                if not out._is_unit_monomial():
                    return None
            n >>= 1
            if not n:
                return out
            square = square * square
            if not square._is_unit_monomial():
                return None


def _first_witness(probes):
    """The first (name, difference) of probes whose difference is not zero,
    or None; probes is consumed only up to that pair."""
    for name, diff in probes:
        if not diff.is_zero():
            return name, diff
    return None


def _accumulate_scaled(terms: dict, add: dict, coeff) -> None:
    for word, c in add.items():
        # c is 1 (numerator 1 over a one-term denominator, which is 1) for
        # a word already in normal form, and coeff * 1 is coeff itself.
        if len(c.den.terms) == 1 and c.num.is_one():
            _accumulate(terms, word, coeff)
        else:
            _accumulate(terms, word, coeff * c)


class _Packing:
    """Exponent vectors packed into one int, ``e`` as the sum of the
    ``e[i] << bits*i``: adding codes adds vectors, and vectors whose entries
    are below ``half`` in absolute value have distinct codes."""

    def __init__(self, size: int, bound: int):
        bits = self.bits = bound.bit_length() + 1
        self.half = 1 << bits - 1
        self.units = [1 << bits * i for i in range(size)]
        self.vectors = {}

    def pack(self, terms: dict) -> dict:
        return {sum(map(mul, m, self.units)): c for m, c in terms.items()}

    def unpacked(self, packed: dict) -> dict:
        """Polynomial terms, integral numbers as ints."""
        bits, half, vectors = self.bits, self.half, self.vectors
        offset = half * sum(self.units)  # makes every field nonnegative
        return {vectors.get(code) or vectors.setdefault(code, tuple(
            (code + offset >> bits * i & 2 * half - 1) - half
            for i in range(len(self.units)))):
            c if c.__class__ is int else _exact(c)
            for code, c in packed.items()}


def _packed_product(a: dict, b: dict) -> dict:
    """The product of packed polynomials, ordered and cancelled as by
    Polynomial.__mul__."""
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            k = pa + pb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


# A packing that a power outgrows is replaced by one sized for this many
# times the bound it reached, so that a power repacks once or twice.
_HEADROOM = 4


def _factors(base, packing: _Packing) -> list:
    """``(monomial, factor, packed terms)`` for each single-term coefficient
    of a power's base, and ``(None, None, packed terms)`` for the rest."""
    out = []
    for _, terms in base:
        packed = packing.pack(terms)
        m = f = None
        if len(packed) == 1:
            (m, f), = packed.items()
        out.append((m, f, packed))
    return out


def _scanned(forms, units, one):
    """Each normal form as a row of ``(word, monomial, factor)``, the
    monomial packed by ``units``, for each single-term coefficient, and of
    ``(word, None, packed terms)`` for the others; and the largest absolute
    exponent of their coefficients."""
    top = 0
    rows = []
    for nf in forms:
        row = []
        for word, c in nf.items():
            if c is one:
                row.append((word, 0, 1))
                continue
            terms = c.num.terms
            for m in terms:
                for e in m:
                    if e > top:
                        top = e
                    elif -e > top:
                        top = -e
            if len(terms) == 1:
                (m, f), = terms.items()
                row.append((word, sum(map(mul, m, units)), f))
            else:
                row.append((word, None, {sum(map(mul, m, units)): f
                                         for m, f in terms.items()}))
        rows.append(row)
    return rows, top


# A length-three overlap (or duplicated pair) with distinct normal forms.
ConfluenceViolation = namedtuple("ConfluenceViolation", "word left right")


class Algebra:
    """An algebra presented by relations that orient to two-letter rules."""

    def __init__(self, params: ParameterSet, table: GeneratorTable):
        self.params = params
        self.table = table
        self._one = RationalFunction.from_value(params, 1)
        self.relations = []
        self.rules = {pair: [{(): self._one}]
                      for pair in table.inverse_index.items()}
        self.reduction_count = 0
        self.rules_changed()

    @classmethod
    def presented(cls, params: ParameterSet, table: GeneratorTable, one,
                  relations: list, rules: dict, facts) -> "Algebra":
        """An algebra that takes these relations, rules and 1 as its own,
        with empty memos, given the ``rule_facts`` of an algebra holding the
        same rules: no rule is indexed or tested."""
        algebra = cls.__new__(cls)
        algebra.params, algebra.table, algebra._one = params, table, one
        algebra.relations, algebra.rules = relations, rules
        algebra.reduction_count = 0
        runs, shapes, layout = facts
        algebra._runs = dict(runs)
        algebra._rules_moved()
        algebra._shapes = shapes
        algebra._layout = layout
        return algebra

    def rule_facts(self):
        """What ``rules_changed`` and the shape tests derive from the rules:
        the run index, which ``presented`` copies, the rule shapes as two
        frozensets, and the run-pair layout, or False where the tables
        refuse the rules."""
        bases, pairs = self._rule_shapes()
        return (self._runs, (frozenset(bases), frozenset(pairs)),
                self._run_layout())

    # -- presentation ----------------------------------------------------

    def _add_rule(self, pair, rhs_terms: dict) -> None:
        self.rules.setdefault(pair, []).append(dict(rhs_terms))
        self._index_run(pair)
        self._rules_moved()

    def rules_changed(self) -> None:
        """Rebuild what is derived from ``rules`` after an in-place change."""
        self._runs = {}
        for pair in self.rules:
            self._index_run(pair)
        self._rules_moved()

    def _rules_moved(self) -> None:
        """Forget the memoized normal forms, the confluence verdict, and
        the rule shapes and run-pair layout with the closed form that rests
        on them."""
        self._nf_cache = {}
        self._confluent = None
        self._closed_form = None
        self._shapes = None
        self._layout = None

    def _index_run(self, pair) -> None:
        """Record whether the first rule for a pair is a unit swap or cancel."""
        self._runs.pop(pair, None)
        v, u = pair
        rhs = self.rules[pair][0]
        if v != u and len(rhs) == 1:
            (mid, c), = rhs.items()
            if c._is_unit() and mid in ((), ((u, 1), (v, 1))):
                self._runs[pair] = (bool(mid), c)

    def add_relation(self, lhs_terms: dict, rhs_terms: dict) -> None:
        """Orient lhs = rhs into a rule with a two-letter left-hand side.

        A right-hand side equal to one that its pair already holds, such as
        a declared swap of inverse symbols that ``_conjugated`` derived
        before, adds no rule; a different one is kept after the first, and
        ``check_confluence`` reports it.
        """
        diff = {w: c for w, c in lhs_terms.items() if not c.is_zero()}
        for w, c in rhs_terms.items():
            _accumulate(diff, w, -c)
        if not diff:
            raise AlgebraError("relation is trivially zero")
        lead = max(diff, key=deg_lex_key)
        if word_degree(lead) != 2:
            raise UnsupportedRelationError(
                "leading word %s is not two letters long"
                % render.render_word(self.table, lead))
        letters = word_letters(lead)
        coeff = diff.pop(lead)
        inv = coeff.inverse()
        rhs = {w: -c * inv for w, c in diff.items()}
        pair = (letters[0], letters[1])
        self.relations.append((dict(lhs_terms), dict(rhs_terms)))
        if rhs not in self.rules.get(pair, ()):
            self._add_rule(pair, rhs)
        for derived_pair, derived_rhs in self._conjugated(pair, rhs):
            if derived_pair not in self.rules:
                self._add_rule(derived_pair, derived_rhs)

    def _conjugated(self, pair, rhs: dict):
        """Rules for inverse-symbol pairs implied by a pure swap relation."""
        table = self.table
        v, u = pair
        if table.is_inverse_symbol(u) or table.is_inverse_symbol(v):
            return []
        u_inv = table.inverse_index.get(u)
        v_inv = table.inverse_index.get(v)
        if u_inv is None and v_inv is None:
            return []
        if u == v:
            raise UnsupportedRelationError(
                "cannot derive inverse rules for a squared generator")
        swap = ((u, 1), (v, 1))
        if len(rhs) != 1 or swap not in rhs:
            raise UnsupportedRelationError(
                "relation with a tail or non-swap shape on an invertible pair")
        c = rhs[swap]
        alpha = c.inverse()
        out = []
        if u_inv is not None:
            out.append(((v, u_inv), {((u_inv, 1), (v, 1)): alpha}))
        if v_inv is not None:
            out.append(((v_inv, u), {((u, 1), (v_inv, 1)): alpha}))
        if u_inv is not None and v_inv is not None:
            out.append(((v_inv, u_inv), {((u_inv, 1), (v_inv, 1)): c}))
        return out

    def normalize_rules(self) -> None:
        """Reduce every rule right-hand side to normal form."""
        for pair in list(self.rules):
            self.rules[pair] = [self.normal_form_terms(rhs)
                                for rhs in self.rules[pair]]
            self._index_run(pair)
        self._rules_moved()

    # -- elements ---------------------------------------------------------

    def zero(self) -> Element:
        return Element(self, {})

    def one(self) -> Element:
        return Element(self, {(): self._one})

    def scalar(self, value) -> Element:
        if not isinstance(value, RationalFunction):
            value = RationalFunction.from_value(self.params, value)
        if value.is_zero():
            return self.zero()
        return Element(self, {(): value})

    def gen(self, name: str) -> Element:
        return Element(self, {single_word(self.table.index(name)): self._one})

    def symbol_element(self, sym: int) -> Element:
        return Element(self, {single_word(sym): self._one})

    def element(self, terms: dict) -> Element:
        """Normalize a free sum of words into an element."""
        return Element(self, self.normal_form_terms(terms))

    # -- rewriting ----------------------------------------------------------

    def normal_form_terms(self, terms: dict) -> dict:
        out = {}
        for w, c in terms.items():
            if c.is_zero():
                continue
            _accumulate_scaled(out, self.normal_form_word(w), c)
        return out

    def normal_form_word(self, word) -> dict:
        """The normal form of a word; callers must not mutate it.

        On a q-commuting algebra it is taken in closed form, else by
        ``normal_form_by_rewriting``.
        """
        closed = self._closed_form
        if closed is not None:
            return closed.normal_form(word)
        return self.normal_form_by_rewriting(word)

    def normal_form_by_rewriting(self, word) -> dict:
        """The memoized normal form of a word by leftmost reduction; callers
        must not mutate it."""
        cache = self._nf_cache
        result = cache.get(word)
        if result is not None:
            return result
        children = self._step(word)
        if children is None:
            result = cache[word] = {word: self._one}
            return result
        # A frame reduces one word: [word, its pending (child, coefficient)
        # pairs, its output, the coefficient of the child being reduced].
        stack = [[word, iter(children), {}, None]]
        while stack:
            frame = stack[-1]
            if result is not None:
                _accumulate_scaled(frame[2], result, frame[3])
            for child, c in frame[1]:
                result = cache.get(child)
                if result is None:
                    children = self._step(child)
                    if children is not None:
                        frame[3] = c
                        stack.append([child, iter(children), {}, None])
                        break
                    result = cache[child] = {child: self._one}
                _accumulate_scaled(frame[2], result, c)
            else:
                stack.pop()
                result = cache[frame[0]] = frame[2]
        return result

    def _step(self, word):
        """The (word, coefficient) terms of one leftmost reduction step.

        Returns None for a word in normal form.
        """
        rules = self.rules
        for i in range(len(word)):
            sym, count = word[i]
            if i > 0:
                prev_sym, prev_count = word[i - 1]
                pair = (prev_sym, sym)
                rhs_list = rules.get(pair)
                if rhs_list:
                    self.reduction_count += 1
                    run = self._runs.get(pair)
                    if run is not None:
                        return [self._run_step(word, i, run)]
                    prefix = word[:i - 1] + ((prev_sym, prev_count - 1),)
                    suffix = ((sym, count - 1),) + word[i + 1:]
                    return self._splice(rhs_list[0], prefix, suffix)
            if count >= 2:
                rhs_list = rules.get((sym, sym))
                if rhs_list:
                    self.reduction_count += 1
                    suffix = ((sym, count - 2),) + word[i + 1:]
                    return self._splice(rhs_list[0], word[:i], suffix)
        return None

    @staticmethod
    def _splice(rhs: dict, prefix, suffix):
        return [(concat_words(prefix, mid, suffix), c)
                for mid, c in rhs.items()]

    def _run_step(self, word, i, run):
        """Apply a swap or cancel rule to the runs ``word[i-1], word[i]``."""
        swap, c = run
        v, a = word[i - 1]
        u, b = word[i]
        if swap:
            rules = self.rules
            moved = b
            if b > 1 and ((u, u) in rules or (u, v) in rules
                          or (i > 1 and (word[i - 2][0], u) in rules)):
                moved = 1
            mid = ((u, moved), (v, a), (u, b - moved))
            power = a * moved
        else:
            power = min(a, b)
            mid = ((v, a - power), (u, b - power))
        return concat_words(word[:i - 1], mid, word[i + 1:]), c ** power

    # -- diagnostics ---------------------------------------------------------

    def check_confluence(self):
        """Return all local-confluence violations on length-three overlaps,
        and cache the verdict that ``is_confluent`` reads.

        An overlap is proved closed by its shape, without rewriting, when
        each of its two rules is the only one for its pair and the rules
        among the symbols of the bases of its letters have the shape that
        ``_ClosedForm.of`` accepts: a unit swap for every pair of those
        bases, the inverse swaps that ``_conjugated`` derives from it, and
        the cancels by 1 (``_q_commuting_shapes``).  That sub-presentation
        is q-commuting, so it is confluent by the diamond lemma, and its
        rules rewrite words over those symbols to words over them alone:
        both sides of the overlap reach one normal form.  Every other
        overlap is rewritten, so the list keeps its entries, witnesses and
        order.
        """
        violations = []
        bases, pairs = self._rule_shapes()
        base_of = self.table.base_index
        for (u, v), rhs_list in self.rules.items():
            if len(rhs_list) > 1:
                base = self.element(rhs_list[0])
                for other in rhs_list[1:]:
                    alt = self.element(other)
                    if not (base - alt).is_zero():
                        violations.append(ConfluenceViolation((u, v), base, alt))
            for (v2, w), rhs_list2 in self.rules.items():
                if v2 != v or _shaped({base_of[u], base_of[v], base_of[w]},
                                      bases, pairs):
                    continue
                for rhs1 in rhs_list:
                    for rhs2 in rhs_list2:
                        left = self.element(rhs1) * self.symbol_element(w)
                        right = self.symbol_element(u) * self.element(rhs2)
                        if not (left - right).is_zero():
                            violations.append(
                                ConfluenceViolation((u, v, w), left, right))
        self._confluent = not violations
        if self._confluent:
            self._closed()
        return violations

    def is_confluent(self) -> bool:
        """Whether ``check_confluence`` finds no violation; cached until the
        rules change."""
        if self._confluent is None:
            self.check_confluence()
        return self._confluent

    def _rule_shapes(self):
        """``_q_commuting_shapes`` of the rules, kept until they change."""
        if self._shapes is None:
            self._shapes = _q_commuting_shapes(self)
        return self._shapes

    def _run_layout(self):
        """``_RunTables.layout`` of the rules, or False where the tables
        refuse them; kept until the rules change."""
        if self._layout is None:
            self._layout = _RunTables.layout(self) or False
        return self._layout

    def _closed(self):
        """The closed form of a q-commuting algebra, else None; built from
        the shapes once per change of the rules.  A rule other than a unit
        swap or cancel refuses it at once; otherwise a refusal is read from
        the kept shapes.  Once it is built no lookup reads the memoized
        words, so they are dropped."""
        if self._closed_form is None and len(self._runs) == len(self.rules):
            self._closed_form = _ClosedForm.of(self)
            if self._closed_form is not None:
                self._nf_cache.clear()
        return self._closed_form

    def _normal_product(self):
        """The function ``(u, v) -> NF(u*v)`` of two normal words that
        ``Element._packed_power`` takes its normal forms from.

        A q-commuting algebra takes them all in closed form.  Otherwise each
        call builds run-pair tables of its own where they accept the rules,
        and ``normal_form_word`` takes every product where they refuse.
        """
        if self._closed() is None:
            layout = self._run_layout()
            if layout:
                return _RunTables(self, *layout).product
        normal_form_word = self.normal_form_word

        def product(u, v):
            return normal_form_word(_join_words(u, v))
        return product

    def verify_relations(self) -> bool:
        """Soundness: both sides of every declared relation have equal NF."""
        return all((self.element(lhs) - self.element(rhs)).is_zero()
                   for lhs, rhs in self.relations)


def _q_commuting_shapes(algebra: Algebra):
    """The base symbols and the pairs ``(h, b)`` of base symbols ``h > b``
    whose rules have the shape of a q-commuting algebra.

    A base is shaped when the rules among its own symbols are exactly the
    cancels of an invertible generator against its inverse, by 1 (none for
    a generator that is not invertible).  A pair is shaped when the rules
    between the symbols of ``h`` and those of ``b`` are exactly a unit swap
    ``h*b -> c*b*h`` and the swaps that ``_conjugated`` derives from it.
    Each of those pairs must hold that one rule and no other.
    """
    table, rules = algebra.table, algebra.rules
    runs = {p: run for p, run in algebra._runs.items() if len(rules[p]) == 1}
    base_of = table.base_index
    found = {}
    for pair in rules:
        h, b = base_of[pair[0]], base_of[pair[1]]
        found.setdefault((h,) if h == b else (max(h, b), min(h, b)),
                         set()).add(pair)
    cancel = (False, algebra._one)
    bases = set()
    for g in map(table.index, table.base_names):
        g_inv = table.inverse_index.get(g)
        expected = {} if g_inv is None else {(g, g_inv): cancel,
                                             (g_inv, g): cancel}
        if _exactly(found.get((g,), set()), expected, runs):
            bases.add(g)
    pairs = set()
    for key, have in found.items():
        run = runs.get(key) if len(key) == 2 else None
        if run is None or not run[0]:
            continue
        expected = {key: run}
        for pair, rhs in algebra._conjugated(key, rules[key][0]):
            expected[pair] = (True, *rhs.values())  # one swap
        if _exactly(have, expected, runs):
            pairs.add(key)
    return bases, pairs


def _exactly(have: set, expected: dict, runs: dict) -> bool:
    """Whether the rule pairs ``have`` are those of ``expected``, each with
    its run (kind and coefficient)."""
    return (have == expected.keys()
            and all(runs.get(pair) == run for pair, run in expected.items()))


def _shaped(bases: set, shaped_bases: set, shaped_pairs: set) -> bool:
    """Whether every base of a set and every pair of them is shaped."""
    ordered = sorted(bases, reverse=True)
    return (all(b in shaped_bases for b in ordered)
            and all((h, b) in shaped_pairs for i, h in enumerate(ordered)
                    for b in ordered[i + 1:]))


class _ClosedForm:
    """Normal forms and unit-monomial powers of a q-commuting algebra in
    closed form (see the module docstring).

    ``swaps`` is the table ``{(h, b): c_hb}`` over the base symbols
    ``h > b``.  Base generators are numbered by ``position`` in symbol
    order; a word's exponent vector holds one signed integer per base, an
    inverse symbol counting negative.  ``pairs`` lists, for each pair of
    bases ``h > b`` with a swap constant other than 1, the flat index
    ``h*size + b``, the exponent vector of the constant's monomial and its
    rational factor.  Products and powers of unit monomials are taken on
    triples (see the comment above ``vector``).
    """

    __slots__ = ("swaps", "size", "position", "sign", "letters", "pairs",
                 "params", "one")

    def __init__(self, algebra: "Algebra", swaps: dict):
        table = algebra.table
        bases = [table.index(name) for name in table.base_names]
        self.swaps = swaps
        self.size = len(bases)
        self.position = [bases.index(table.base_index[sym])
                         for sym in range(len(table.symbols))]
        self.sign = [-1 if table.is_inverse_symbol(sym) else 1
                     for sym in range(len(table.symbols))]
        self.letters = [(b, table.inverse_index.get(b)) for b in bases]
        self.pairs = []
        for (h, b), c in swaps.items():
            (mono, factor), = c.num.terms.items()
            if factor != 1 or any(mono):
                self.pairs.append((bases.index(h) * self.size + bases.index(b),
                                   mono, factor))
        self.params = algebra.params
        self.one = algebra._one

    @classmethod
    def of(cls, algebra: "Algebra"):
        """The closed form of a q-commuting algebra, else None.

        q-commuting means that the rules are exactly these, each a run rule
        and the only rule of its pair: a swap ``h*b -> c_hb*b*h`` for every
        pair of base generators ``h > b``; for their inverse symbols the
        swaps that ``_conjugated`` derives from it; and the cancels of each
        invertible generator against its inverse, by 1.  Such rules are
        confluent by the diamond lemma, so no verdict is needed.
        """
        table = algebra.table
        bases = [table.index(name) for name in table.base_names]
        shaped_bases, shaped_pairs = algebra._rule_shapes()
        if (len(shaped_bases) < len(bases) or len(shaped_pairs)
                < len(bases) * (len(bases) - 1) // 2):
            return None
        return cls(algebra, {(h, b): algebra._runs[h, b][1]
                             for i, b in enumerate(bases)
                             for h in bases[i + 1:]})

    def normal_form(self, word) -> dict:
        """The normal form of a word, in one pass over its runs."""
        if len(word) < 2:
            return {word: self.one}
        size, position, sign = self.size, self.position, self.sign
        totals = [0] * size
        crossed = [0] * (size * size)
        for sym, count in word:
            b = position[sym]
            if sign[sym] < 0:
                count = -count
            for h in range(b + 1, size):
                if totals[h]:
                    crossed[h * size + b] += totals[h] * count
            totals[b] += count
        return {self._word(totals): self._coefficient(*self._crossed(
            [0] * len(self.params), 1,
            [crossed[index] for index, _, _ in self.pairs]))}

    def power(self, word, coeff, n: int) -> dict:
        """The normal form of ``(coeff*word)**n`` for a normal-form word and
        a Laurent-unit coefficient."""
        (mono, factor), = coeff.num.terms.items()
        return self.monomial(self.raised((mono, factor, self.vector(word)), n))

    # A unit monomial ``c*m*x^e`` is the triple ``(m, c, e)``: the exponent
    # vector of its coefficient's monomial over the parameters, the
    # coefficient's rational factor, and the exponent vector of its word
    # over the bases, or None for a scalar.

    def vector(self, word) -> list:
        """The exponent vector of a normal-form word."""
        totals = [0] * self.size
        for sym, count in word:
            totals[self.position[sym]] = self.sign[sym] * count
        return totals

    def times(self, left, right):
        """The product of two unit monomials: ``x^m * x^n`` is
        ``prod c_hb^(m_h*n_b) * x^(m+n)``, each letter of ``h`` in the left
        factor crossing each letter of ``b`` in the right."""
        (mono, factor, m), (mono2, factor2, n) = left, right
        mono, factor = list(map(add, mono, mono2)), factor * factor2
        if m is None or n is None:
            return mono, factor, n if m is None else m
        size = self.size
        crossed = [m[index // size] * n[index % size]
                   for index, _, _ in self.pairs]
        if any(crossed):
            mono, factor = self._crossed(mono, factor, crossed)
        return mono, factor, list(map(add, m, n))

    def raised(self, base, n: int):
        """``(c*x^e)^n`` of a unit monomial, ``c^n * prod
        c_hb^(C(n, 2)*e_h*e_b) * x^(n*e)``; for ``n < 0`` only a single
        letter, which crosses nothing, is raised."""
        mono, factor, e = base
        if any(mono):
            mono = [n * k for k in mono]
        if factor != 1:
            factor = Fraction(factor) ** n
        if e is None:
            return mono, factor, None
        size, pairs = self.size, n * (n - 1) // 2
        crossed = [pairs * e[index // size] * e[index % size]
                   for index, _, _ in self.pairs]
        if any(crossed):
            mono, factor = self._crossed(mono, factor, crossed)
        return mono, factor, [n * k for k in e]

    def monomial(self, triple) -> dict:
        """The normal form of a unit monomial with a word."""
        mono, factor, e = triple
        return {self._word(e): self._coefficient(mono, factor)}

    def _coefficient(self, mono, factor):
        """A Laurent unit as rewriting stores it: one term over exactly 1,
        its factor an int when integral, and the algebra's 1 for 1."""
        if factor == 1 and not any(mono):
            return self.one
        if factor.__class__ is not int:
            factor = _exact(factor)
        return RationalFunction._make(Polynomial._make(
            self.params, {tuple(mono): factor}), self.one.den)

    def _word(self, totals):
        return tuple([(letters[0], t) if t > 0 else (letters[1], -t)
                      for letters, t in zip(self.letters, totals) if t])

    def _crossed(self, mono, factor, crossed):
        """``(mono, factor)`` times ``c_hb ** k`` for each pair of ``pairs``
        and its count ``k`` in ``crossed``."""
        for (_, pair_mono, pair_factor), k in zip(self.pairs, crossed):
            if k:
                mono = [m + k * e for m, e in zip(mono, pair_mono)]
                if pair_factor != 1:
                    factor *= Fraction(pair_factor) ** k
        return mono, factor


# The largest m + n of a block x^m * y^n under a rule other than a run rule
# that the tables fill; filling one nests a few calls per letter of x^m.
# Longer blocks are rewritten.
_TABLE_SPAN = 64


class _Unproved(Exception):
    """A context that the tables cannot prove; the block is rewritten."""


class _RunTables:
    """Normal forms of products of two normal words on an algebra with an
    ordered PBW shape, from one table per rule pair (see the module
    docstring); each is the one ``normal_form_by_rewriting`` stores.

    ``rank`` numbers the symbols by the position of their base.  ``left``
    bounds the ranks of a prefix and ``right`` those of a suffix that the
    tables carry past a block: every rule whose left-hand side has a letter
    of a prefix on its left, or of a suffix on its right, is a unit swap or
    cancel, and the bases of ranks below ``left`` are q-commuting among
    themselves.  ``entries`` maps ``(x, y, m, n)`` to ``NF(x^m * y^n)``.
    """

    __slots__ = ("algebra", "rules", "runs", "rank", "left", "right",
                 "entries", "one")

    def __init__(self, algebra: "Algebra", rank, left: int, right: int):
        self.algebra = algebra
        self.rules = algebra.rules
        self.runs = algebra._runs
        self.rank = rank
        self.left = left
        self.right = right
        self.entries = {}
        self.one = algebra._one

    @staticmethod
    def layout(algebra: "Algebra"):
        """``(rank, left, right)``, ``rank`` a tuple, the arguments of the
        tables of an algebra whose rules have an ordered PBW shape, else
        None; no confluence verdict is read (see the module docstring).

        The shape: every rule ``x*y`` has ``rank(x) > rank(y)``, or is a
        cancel of a generator against its inverse by a unit; every pair of
        symbols of falling rank has a rule, so that the normal words are the
        words of rising rank; and every right-hand side of a rule other
        than a unit swap is a sum of words of rising rank within
        ``rank(y)..rank(x)``.
        """
        table, rules, runs = algebra.table, algebra.rules, algebra._runs
        bases = [table.index(name) for name in table.base_names]
        position = {b: i for i, b in enumerate(bases)}
        rank = tuple(position[table.base_index[sym]]
                     for sym in range(len(table.symbols)))
        tails = []
        for (x, y), rhs_list in rules.items():
            run = runs.get((x, y))
            if rank[x] == rank[y]:
                # Else a generator and its inverse, whose first rule is
                # always the cancel by 1 that Algebra.__init__ writes.
                if x == y:
                    return None
            elif rank[x] < rank[y] or run is not None and not run[0]:
                return None
            elif run is None:
                for word in rhs_list[0]:
                    ranks = [rank[sym] for sym, _ in word]
                    if ranks and (ranks[0] < rank[y] or ranks[-1] > rank[x]
                                  or any(a >= b for a, b
                                         in zip(ranks, ranks[1:]))):
                        return None
                tails.append((x, y))
        symbols = range(len(table.symbols))
        if any(rank[x] > rank[y] and (x, y) not in rules
               for x in symbols for y in symbols):
            return None
        shaped_bases, shaped_pairs = algebra._rule_shapes()
        left = min((rank[x] for x, _ in tails), default=len(bases))
        for top in range(left):
            if not _shaped(set(bases[:top + 1]), shaped_bases, shaped_pairs):
                left = top
                break
        return rank, left, max((rank[y] for _, y in tails), default=-1)

    def product(self, u, v) -> dict:
        """NF(u*v) of two normal words, as ``normal_form_by_rewriting``
        stores it; callers must not mutate it."""
        if not (u and v):
            return {u or v: self.one}
        (x, m), (y, n) = u[-1], v[0]
        if (x, y) not in self.rules:
            return {_join_words(u, v): self.one}
        prefix, suffix = u[:-1], v[1:]
        if not self._carried(x, y, m + n, prefix, suffix):
            return self.algebra.normal_form_by_rewriting(_join_words(u, v))
        entry = self._entry(x, y, m, n)
        if not (prefix or suffix):
            return entry
        out = {}
        for word, c in entry.items():
            word, unit = self._moved(prefix, word, suffix)
            out[word] = c * unit
        return out

    def _carried(self, x, y, span: int, prefix, suffix) -> bool:
        """Whether the block ``x^m*y^n`` between prefix and suffix is taken
        from the tables.  Normal words rise in rank, so the last run of the
        prefix and the first of the suffix bound the ranks of the others."""
        rank = self.rank
        return ((span <= _TABLE_SPAN or (x, y) in self.runs)
                and not (prefix and rank[prefix[-1][0]] >= self.left)
                and not (suffix and rank[suffix[0][0]] <= self.right))

    def _entry(self, x, y, m: int, n: int) -> dict:
        """NF(x^m * y^n) for a rule x*y, filled on first use."""
        key = (x, y, m, n)
        entry = self.entries.get(key)
        if entry is None:
            run = self.runs.get((x, y))
            if run is None:
                # The leaves of the first y's reduction take the entries
                # with fewer y, so filling those first bounds the depth.
                for k in range(1, n):
                    for j in range(1, m + 1):
                        self._entry(x, y, j, k)
                try:
                    entry = self._block(x, y, m, n, None)
                except _Unproved:
                    entry = self.algebra.normal_form_by_rewriting(
                        ((x, m), (y, n)))
            elif run[0]:
                entry = {((y, n), (x, m)): run[1] ** (m * n)}
            else:
                k = min(m, n)
                entry = {word_from_runs(((x, m - k), (y, n - k))):
                         run[1] ** k}
            self.entries[key] = entry
        return entry

    def _block(self, x, y, m: int, n: int, leaf) -> dict:
        """The leftmost reduction of ``x^m * y^n`` under a rule other than a
        run rule, each normal word ``w`` it reaches taken to ``leaf(w)``
        (to ``{w: 1}`` for no leaf): the first step splices each term of the
        right-hand side between ``x^(m-1)`` and ``y^(n-1)``, whose prefix is
        reduced first."""
        head = ((x, m - 1),) if m > 1 else ()
        if n > 1:
            tail, outer = ((y, n - 1),), leaf

            def leaf(word):
                return self._tree(word, tail, outer)
        out = {}
        for mid, c in self.rules[x, y][0].items():
            _accumulate_scaled(out, self._tree(head, mid, leaf), c)
        return out

    def _tree(self, u, v, leaf) -> dict:
        """The leftmost reduction of ``u*v`` with each normal word ``w`` it
        reaches taken to ``leaf(w)``, accumulated as the reduction
        accumulates; ``product(u, v)`` for no leaf."""
        if leaf is None:
            return self.product(u, v)
        if not (u and v):
            return leaf(u or v)
        (x, m), (y, n) = u[-1], v[0]
        if (x, y) not in self.rules:
            return leaf(_join_words(u, v))
        prefix, suffix = u[:-1], v[1:]
        if not self._carried(x, y, m + n, prefix, suffix):
            raise _Unproved
        if prefix or suffix:
            outer = leaf

            def leaf(word):
                word, unit = self._moved(prefix, word, suffix)
                return _scaled(outer(word), unit)
        if (x, y) in self.runs:
            (word, c), = self._entry(x, y, m, n).items()
            return _scaled(leaf(word), c)
        return self._block(x, y, m, n, leaf)

    def _moved(self, prefix, word, suffix):
        """(NF word, unit) of ``prefix*word*suffix``, carried: one word times
        a Laurent unit, as carry steps alone reduce it (module docstring)."""
        unit = self.one
        if prefix:
            (word, unit), = self.product(prefix, word).items()
        if suffix:
            (word, c), = self.product(word, suffix).items()
            unit = unit * c
        return word, unit


def _scaled(terms: dict, unit) -> dict:
    """A normal form times a Laurent unit, word by word."""
    if unit.num.is_one():
        return terms
    return {word: c * unit for word, c in terms.items()}


def random_element(algebra: Algebra, rng) -> Element:
    """A random element: 1 to 3 words of 0 to 3 letters each, coefficients
    from a small pool."""
    return algebra.element(_random_terms(algebra, rng))


def _random_terms(algebra: Algebra, rng) -> dict:
    """The free sum of words that random_element normalizes: every draw
    from rng that random_element makes, and no normal form."""
    params = algebra.params
    # Of the pool 1, -1, p1, p2^-1 (the parameters where they exist) only
    # the drawn coefficient is built; choice draws an index as it would one.
    pool_size = 2 + min(2, len(params.names))
    n_symbols = len(algebra.table.symbols)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(0, 3)
        letters = [rng.randrange(n_symbols) for _ in range(length)]
        word = word_from_runs((s, 1) for s in letters)
        i = rng.choice(range(pool_size))
        sign = (1, -1)[i % 2]
        _accumulate(terms, word, RationalFunction.from_value(params, sign)
                    if i < 2 else RationalFunction.parameter(
                        params, params.names[i - 2], sign))
    return terms
