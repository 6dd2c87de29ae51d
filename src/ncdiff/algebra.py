"""Finitely presented algebras with two-letter rewriting rules.

Words over the generator alphabet are stored run-length encoded.  A
presentation is a list of relations whose orientation (largest word in the
degree-then-lexicographic order becomes the left-hand side) yields rewriting
rules with two-letter left-hand sides.  Local confluence is checked on all
length-three overlap words, which by the diamond lemma suffices for
confluence of a terminating two-letter system.

Normal forms are computed by leftmost reduction, always with the first
right-hand side listed for a pair, in the reduction system of Bergman's
diamond lemma.  The reduction is a loop over an explicit stack of frames,
one per word being reduced, so its depth is bounded by memory rather than by
the interpreter's recursion limit; rules decrease words in the deg-lex
order, so it terminates.  Every word whose normal form is computed is
memoized.

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
change the answer, so such powers, like all multi-term ones, multiply the
base in one factor at a time.  Squaring stops, and the power is taken again
one factor at a time, as soon as a product is not a single unit term.

Elements here, forms in ``calculus`` and tensors in ``geometry`` are all
finite linear combinations over a basis: words, theta monomials, and pairs
of basis forms.  ``LinearSum`` holds their vector-space arithmetic once;
each class adds its own product, scaling and printing.
"""

from __future__ import annotations

from fractions import Fraction

from . import render
from .coeff import ParameterSet, RationalFunction


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

    def __eq__(self, other):
        return (isinstance(other, GeneratorTable)
                and self.base_names == other.base_names
                and self.invertible == other.invertible)

    def __hash__(self):
        return hash((self.base_names, self.invertible))


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


class LinearSum:
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
    * ``_spelled(spell)``: its text in one spelling of ``render``.
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
        return render.render_plain(self)

    def __repr__(self):
        return self.__str__()


class Element(LinearSum):
    """A finite sum of words with rational-function coefficients.

    Every word of an element is in normal form and every coefficient is
    nonzero.  Arithmetic relies on this: a product by a lone scalar term and
    the image under a diagonal twist keep each word as it is.  Build
    elements from free sums of words with ``Algebra.element``.
    """

    __slots__ = ("algebra",)

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
        cache = alg._nf_cache
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                word = _join_words(w1, w2)
                nf = cache.get(word)
                if nf is None:
                    nf = alg.normal_form_word(word)
                _accumulate_scaled(out, nf, c1 * c2)
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
        if (n > 1 and self._is_unit_monomial()
                and self.algebra.is_confluent()):
            out = self._squared_power(n)
            if out is not None:
                return out
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

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

    def _spelled(self, spell) -> str:
        return spell.element(self)


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


class ConfluenceViolation:
    """A length-three overlap (or duplicated pair) with distinct normal forms."""

    __slots__ = ("word", "left", "right")

    def __init__(self, word, left: Element, right: Element):
        self.word = word
        self.left = left
        self.right = right

    def __repr__(self):
        return "ConfluenceViolation(word=%r, left=%s, right=%s)" % (
            self.word, self.left, self.right)


class Algebra:
    """An algebra presented by relations that orient to two-letter rules."""

    def __init__(self, params: ParameterSet, table: GeneratorTable,
                 relations=()):
        self.params = params
        self.table = table
        self._one = RationalFunction.from_value(params, 1)
        self.relations = []
        self.rules = {}
        self._runs = {}
        self._nf_cache = {}
        self._confluent = None
        self.reduction_count = 0
        for g in table.base_names:
            if g in table.invertible:
                i = table.index(g)
                j = table.inverse_index[i]
                unit = {(): self._one}
                self._add_rule((i, j), unit)
                self._add_rule((j, i), unit)
        for lhs, rhs in relations:
            self.add_relation(lhs, rhs)

    # -- presentation ----------------------------------------------------

    def _add_rule(self, pair, rhs_terms: dict) -> None:
        self.rules.setdefault(pair, []).append(dict(rhs_terms))
        self._index_run(pair)
        self._nf_cache.clear()
        self._confluent = None

    def rules_changed(self) -> None:
        """Rebuild what is derived from ``rules`` after an in-place change."""
        self._runs = {}
        for pair in self.rules:
            self._index_run(pair)
        self._nf_cache.clear()
        self._confluent = None

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
        """Orient lhs = rhs into a rule with a two-letter left-hand side."""
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
        lead_key = deg_lex_key(lead)
        for w in rhs:
            if deg_lex_key(w) >= lead_key:
                raise UnsupportedRelationError(
                    "rule right-hand side is not smaller than %s"
                    % render.render_word(self.table, lead))
        pair = (letters[0], letters[1])
        self.relations.append((dict(lhs_terms), dict(rhs_terms)))
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
        swap = concat_words(single_word(u), single_word(v))
        if len(rhs) != 1 or swap not in rhs:
            raise UnsupportedRelationError(
                "relation with a tail or non-swap shape on an invertible pair")
        c = rhs[swap]
        alpha = c.inverse()
        out = []
        if u_inv is not None:
            out.append(((v, u_inv),
                        {concat_words(single_word(u_inv), single_word(v)): alpha}))
        if v_inv is not None:
            out.append(((v_inv, u),
                        {concat_words(single_word(u), single_word(v_inv)): alpha}))
        if u_inv is not None and v_inv is not None:
            out.append(((v_inv, u_inv),
                        {concat_words(single_word(u_inv), single_word(v_inv)): c}))
        return out

    def normalize_rules(self) -> None:
        """Reduce every rule right-hand side to normal form."""
        for pair in list(self.rules):
            self.rules[pair] = [self.normal_form_terms(rhs)
                                for rhs in self.rules[pair]]
            self._index_run(pair)
        self._nf_cache.clear()
        self._confluent = None

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
        """The memoized normal form of a word; callers must not mutate it."""
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
        and cache the verdict that ``is_confluent`` reads."""
        violations = []
        for (u, v), rhs_list in self.rules.items():
            if len(rhs_list) > 1:
                base = self.element(rhs_list[0])
                for other in rhs_list[1:]:
                    alt = self.element(other)
                    if not (base - alt).is_zero():
                        violations.append(ConfluenceViolation((u, v), base, alt))
            for (v2, w), rhs_list2 in self.rules.items():
                if v2 != v:
                    continue
                for rhs1 in rhs_list:
                    for rhs2 in rhs_list2:
                        left = self.element(rhs1) * self.symbol_element(w)
                        right = self.symbol_element(u) * self.element(rhs2)
                        if not (left - right).is_zero():
                            violations.append(
                                ConfluenceViolation((u, v, w), left, right))
        self._confluent = not violations
        return violations

    def is_confluent(self) -> bool:
        """Whether ``check_confluence`` finds no violation; cached until the
        rules change."""
        if self._confluent is None:
            self.check_confluence()
        return self._confluent

    def verify_relations(self) -> bool:
        """Soundness: both sides of every declared relation have equal NF."""
        return all((self.element(lhs) - self.element(rhs)).is_zero()
                   for lhs, rhs in self.relations)


def random_element(algebra: Algebra, rng, max_terms: int = 3,
                   max_length: int = 3) -> Element:
    """A random element: short words, coefficients from a small pool."""
    params = algebra.params
    pool = [RationalFunction.from_value(params, 1),
            RationalFunction.from_value(params, -1)]
    pool += [RationalFunction.parameter(params, name, power)
             for name, power in zip(params.names, (1, -1))]
    n_symbols = len(algebra.table.symbols)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_length)
        letters = [rng.randrange(n_symbols) for _ in range(length)]
        word = word_from_runs((s, 1) for s in letters)
        _accumulate(terms, word, rng.choice(pool))
    return algebra.element(terms)
