"""Diagonal differential calculi twisted by automorphisms.

A calculus fixes an ordered family of basis one-forms theta^s, one weight
element and one twist automorphism per s.  Coefficients pass through basis
forms by the twist (theta^s a = phi_s(a) theta^s), products of basis forms
reduce by declared two-form rules, the differential on elements is
d(a) = sum_s e_s(a) theta^s with e_s the twisted derivation of weight a_s,
and d extends to higher grades as a graded commutator with the inner form
vtheta = sum_s a_s theta^s.
"""

from __future__ import annotations

from fractions import Fraction

from . import render
from .algebra import (Algebra, AlgebraError, Element, LinearSum,
                      _accumulate, _first_witness, random_element)
from .coeff import RationalFunction, solve_in_span
from .morphism import Endomorphism, TwistedDerivation


class CalculusError(AlgebraError):
    pass


class MissingThetaRuleError(CalculusError):
    """A product theta^s theta^s' has no declared reduction."""


class InexpressibleError(CalculusError):
    """A commutation relation has no solution in the candidate family."""


class Calculus:
    """A first-order calculus with a diagonal basis and its wedge rules."""

    def __init__(self, algebra: Algebra, labels, twists: dict, weights: dict,
                 theta_rules: dict):
        self.algebra = algebra
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise CalculusError("duplicate basis label")
        self._pos = {lab: i for i, lab in enumerate(self.labels)}
        self.twists = {}
        self.weights = {}
        for lab in self.labels:
            if lab not in twists:
                raise CalculusError("missing twist for %r" % lab)
            if lab not in weights:
                raise CalculusError("missing weight for %r" % lab)
            twist = twists[lab]
            if not isinstance(twist, Endomorphism) or twist.algebra is not algebra:
                raise CalculusError("twist of %r is not an endomorphism" % lab)
            weight = weights[lab]
            if not isinstance(weight, Element) or weight.algebra is not algebra:
                raise CalculusError("weight of %r is not an element" % lab)
            self.twists[lab] = twist
            self.weights[lab] = weight
        self.derivations = {lab: TwistedDerivation(self.twists[lab],
                                                   self.weights[lab])
                            for lab in self.labels}
        self.theta_rules = {}
        for (l1, l2), entries in theta_rules.items():
            i, j = self._pos[l1], self._pos[l2]
            if i < j:
                raise CalculusError(
                    "rule %s*%s does not rewrite a descent" % (l1, l2))
            converted = []
            for rf, (l3, l4) in entries:
                k, m = self._pos[l3], self._pos[l4]
                if k >= m:
                    raise CalculusError(
                        "rule %s*%s produces the non-ascending pair %s*%s"
                        % (l1, l2, l3, l4))
                if (k, m) >= (i, j):
                    raise CalculusError(
                        "rule %s*%s does not decrease the pair order" % (l1, l2))
                converted.append((rf, (k, m)))
            self.theta_rules[(i, j)] = tuple(converted)
        self._theta_cache = {}
        # map (None for the identity) -> terms of d(map(g)) per generator
        self._generator_d = {}
        self._one = RationalFunction.from_value(algebra.params, 1)

    # -- forms ------------------------------------------------------------

    def zero_form(self) -> "Form":
        return Form(self, {})

    def form(self, terms: dict) -> "Form":
        out = {}
        for key, coeff in terms.items():
            if not coeff.is_zero():
                out[key] = coeff
        return Form(self, out)

    def theta(self, label: str) -> "Form":
        return Form(self, {(self._pos[label],): self.algebra.one()})

    def embed(self, value) -> "Form":
        if isinstance(value, Form):
            if value.calculus is not self:
                raise CalculusError("form from a different calculus")
            return value
        if isinstance(value, (int, Fraction, RationalFunction)):
            value = self.algebra.scalar(value)
        if not isinstance(value, Element) or value.algebra is not self.algebra:
            raise CalculusError("cannot embed %r into the calculus" % (value,))
        if value.is_zero():
            return self.zero_form()
        return Form(self, {(): value})

    # -- multiplication ----------------------------------------------------

    def pass_coefficient(self, index, coeff: Element) -> Element:
        """Move an element from the right of theta^I to its left."""
        for pos in reversed(index):
            coeff = self.twists[self.labels[pos]].apply(coeff)
        return coeff

    def normalize_thetas(self, seq):
        """Rewrite a product of basis forms into ascending monomials."""
        cached = self._theta_cache.get(seq)
        if cached is not None:
            return cached
        result = self._reduce_thetas(seq)
        self._theta_cache[seq] = result
        return result

    def _reduce_thetas(self, seq):
        for i in range(len(seq) - 1):
            if seq[i] >= seq[i + 1]:
                rule = self.theta_rules.get((seq[i], seq[i + 1]))
                if rule is None:
                    raise MissingThetaRuleError(
                        "no rule for %s*%s" % (self.labels[seq[i]],
                                               self.labels[seq[i + 1]]))
                out = {}
                for rf, pair in rule:
                    spliced = seq[:i] + pair + seq[i + 2:]
                    for key, rf2 in self.normalize_thetas(spliced):
                        _accumulate(out, key, rf * rf2)
                return tuple(sorted(out.items()))
        return ((seq, self._one),)

    def wedge(self, left, right) -> "Form":
        left = self.embed(left)
        right = self.embed(right)
        out = {}
        for index1, a in left.terms.items():
            for index2, b in right.terms.items():
                passed = self.pass_coefficient(index1, b)
                coeff = a * passed
                if coeff.is_zero():
                    continue
                for key, rf in self.normalize_thetas(index1 + index2):
                    _accumulate(out, key, coeff.scale(rf))
        return Form(self, out)

    # -- differential --------------------------------------------------------

    def d_element(self, a: Element) -> "Form":
        terms = {}
        for i, lab in enumerate(self.labels):
            coeff = self.derivations[lab].apply(a)
            if not coeff.is_zero():
                terms[(i,)] = coeff
        return Form(self, terms)

    def generator_differentials(self, phi: Endomorphism = None) -> list:
        """d(phi(g)) for every generator symbol g, in symbol order; phi
        None is the identity.

        Each list is built on first use and kept, one per map asked about.
        A diagonal phi scales g by c_g, and d is linear, so where c_g is a
        Laurent unit the row is d(g) scaled by c_g: scaling by a unit
        commutes with normalization (see the ``coeff`` docstring), so the
        row is stored exactly as ``d_element(phi.apply(g))`` stores it.
        Other rows, and every row of a map that is not diagonal, take that
        direct path.  The table keeps each row's terms, not the form, so
        that it holds no reference back to the calculus and a calculus no
        longer used is freed at once, not at the next cycle collection.
        """
        kept = self._generator_d.get(phi)
        if kept is not None:
            return [Form(self, terms) for terms in kept]
        gens = self.generator_elements()
        if phi is None:
            rows = [self.d_element(g) for _, g in gens]
        else:
            plain = self.generator_differentials()
            scales = phi._scales
            rows = []
            for sym, (_, g) in enumerate(gens):
                if scales is not None and scales[sym]._is_unit():
                    rows.append(plain[sym].scale(scales[sym]))
                else:
                    rows.append(self.d_element(phi.apply(g)))
        self._generator_d[phi] = [row.terms for row in rows]
        return rows

    def inner_form(self) -> "Form":
        terms = {}
        for i, lab in enumerate(self.labels):
            w = self.weights[lab]
            if not w.is_zero():
                terms[(i,)] = w
        return Form(self, terms)

    def d(self, x) -> "Form":
        """d on elements, extended to forms as a graded commutator."""
        if not isinstance(x, Form):
            return self.d_element(self.embed(x).terms.get((), self.algebra.zero()))
        vt = self.inner_form()
        out = self.zero_form()
        for grade, part in x.by_grade().items():
            if grade == 0:
                out = out + self.d_element(part.terms.get((), self.algebra.zero()))
            elif grade % 2 == 0:
                out = out + (self.wedge(vt, part) - self.wedge(part, vt))
            else:
                out = out + (self.wedge(vt, part) + self.wedge(part, vt))
        return out

    # -- verification ----------------------------------------------------------

    def generator_elements(self):
        alg = self.algebra
        return [(name, alg.symbol_element(sym))
                for sym, name in enumerate(alg.table.symbols)]

    def is_inner(self, candidate: "Form" = None, rng=None, samples: int = 20):
        """Check d(x) = candidate x - x candidate; None means no witness."""
        if candidate is None:
            candidate = self.inner_form()
        probes = [(name, g, dg) for (name, g), dg in
                  zip(self.generator_elements(),
                      self.generator_differentials())]
        if rng is not None:
            probes += [("random-%d" % i, random_element(self.algebra, rng),
                        None) for i in range(samples)]
        return _first_witness(
            (name, (self.d_element(x) if dx is None else dx)
             - (self.wedge(candidate, x) - self.wedge(x, candidate)))
            for name, x, dx in probes)

    def basis_probes(self):
        """The generators, then the basis one-forms, each with its name."""
        return self.generator_elements() + [(lab, self.theta(lab))
                                            for lab in self.labels]

    def d_squared_witness(self):
        """None when vtheta^2 is graded-central (so d.d = 0), else a witness."""
        square = self.wedge(self.inner_form(), self.inner_form())
        return _first_witness(
            (name, self.wedge(square, x) - self.wedge(x, square))
            for name, x in self.basis_probes())

    # -- derived commutation relations ---------------------------------------

    def commutation_relations(self, forms: dict, elements: dict,
                              side: str = "element_first"):
        """Express products of the named forms and elements in the other order.

        side "element_first" solves e * w = sum of c * w' * e'; side
        "form_first" solves w * e = sum of c * e' * w'.  The coefficients c
        live in the coefficient field.  A product's coordinates are its
        (basis index, word) pairs, and every target is solved in the span of
        the candidate products in one elimination (``coeff.solve_in_span``).
        Targets are reported in order: the first with no solution raises
        InexpressibleError, and a solution that leaves the coefficient of a
        nonzero candidate free raises CalculusError as underdetermined.
        """
        if side not in ("element_first", "form_first"):
            raise ValueError("side must be element_first or form_first")
        names = []
        candidates = []
        for w_name, w in forms.items():
            for e_name, e in elements.items():
                if side == "element_first":
                    names.append((w_name, e_name))
                    candidates.append(self.wedge(w, e))
                else:
                    names.append((e_name, w_name))
                    candidates.append(self.wedge(self.embed(e), w))
        lefts = []
        targets = []
        # A target product that cannot be formed is reported after the
        # targets before it, as a solve of each target in turn reports it.
        unformed = None
        try:
            for e_name, e in elements.items():
                for w_name, w in forms.items():
                    if side == "element_first":
                        targets.append(self.wedge(self.embed(e), w))
                        lefts.append((e_name, w_name))
                    else:
                        targets.append(self.wedge(w, e))
                        lefts.append((w_name, e_name))
        except CalculusError as exc:
            unformed = exc
        solved = solve_in_span([_coordinates(c) for c in candidates],
                               [_coordinates(t) for t in targets],
                               self.algebra.params)
        results = []
        for left, found in zip(lefts, solved):
            if found is None:
                raise InexpressibleError(
                    "%s * %s has no expansion in the candidate products"
                    % left)
            solution, free = found
            if any(candidates[col].terms for col in free):
                raise CalculusError(
                    "%s * %s has an underdetermined expansion" % left)
            terms = [(coeff, name) for coeff, name in zip(solution, names)
                     if not coeff.is_zero()]
            results.append(DerivedRelation(side, left, terms))
        if unformed is not None:
            raise unformed
        return results


def _coordinates(form: "Form") -> dict:
    """A form's coefficients keyed by (basis index, word)."""
    return {(index, word): c for index, elt in form.terms.items()
            for word, c in elt.terms.items()}


class Form(LinearSum):
    """A graded form: ascending index tuples with element coefficients."""

    __slots__ = ("calculus",)

    def __init__(self, calculus: Calculus, terms: dict):
        self.calculus = calculus
        self.terms = terms

    def _with(self, terms: dict) -> "Form":
        return Form(self.calculus, terms)

    def by_grade(self) -> dict:
        out = {}
        for key, coeff in self.terms.items():
            out.setdefault(len(key), {})[key] = coeff
        return {g: Form(self.calculus, t) for g, t in sorted(out.items())}

    def coefficient(self, *labels) -> Element:
        key = tuple(self.calculus._pos[lab] for lab in labels)
        return self.terms.get(key, self.calculus.algebra.zero())

    def _coerce(self, other):
        try:
            return self.calculus.embed(other)
        except CalculusError:
            return None

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.calculus.wedge(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, RationalFunction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.calculus.wedge(other, self)

    def scale(self, factor) -> "Form":
        out = {}
        for key, coeff in self.terms.items():
            scaled = coeff.scale(factor)
            if not scaled.is_zero():
                out[key] = scaled
        return Form(self.calculus, out)

    def _spelled(self, spell) -> str:
        return spell.form(self)


class DerivedRelation:
    """One solved commutation relation between a named form and element."""

    __slots__ = ("side", "left", "terms")

    def __init__(self, side: str, left, terms):
        self.side = side
        self.left = left
        self.terms = terms

    def _spelled(self, spell) -> str:
        return spell.relation(self)

    def render(self) -> str:
        return render.render_plain(self)

    def __repr__(self):
        return self.render()
