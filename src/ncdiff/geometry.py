"""Metrics, connections and transport on a diagonal calculus.

Automorphisms extend to one-forms by an invertible scalar action on the
theta basis, kept as one n x n matrix whose row k holds the coefficients of
the image of theta^k; an extension is differentiable when it commutes with
d.  The left tensor basis theta^s (x)_L theta^s' = theta^s (x)_A phi_s^-1
theta^s' makes tensors left-linear in both slots, so a metric is a plain
table of element entries.  A connection is a family of transport operators
V_s with V_s(a w) = phi_s^-1(a) V_s(w); its covariant derivative is
nabla(w) = vtheta (x)_A w - sum_s theta^s (x)_A V_s(w), metric compatibility
is V_s(g) = g for every s, and torsion is d minus wedge-after-nabla.

The differentiability checks and the derived theta action compare
phi(d g) with d(phi g) on the generators.  Both sides read the calculus's
table of generator differentials (``Calculus.generator_differentials``),
built once per map: for a diagonal phi, phi(g) = c_g g and so
d(phi g) = c_g d(g), and no derivation runs again.  A geometry asks for
the identity, each twist and, only where its extension fails (the
inverse extension commutes with d exactly when the extension does), its
inverse (one per automorphism, ``Endomorphism.inverse``, shared with
transport), so the table holds at most
(twists + inverse twists + 1) x generator symbols rows.  The derived
action expresses every target label in the span of the same candidates,
so one elimination (``coeff.solve_in_span``) gives the whole matrix; the
same solver inverts an action, solving each unit vector in its columns.

The derived action has a closed form (``closed_theta_action``).  Let psi
be diagonal and multiplicative, let every twist be diagonal, so that psi
commutes with each phi_s, and let each weight be a psi-eigenvector,
psi(a_s) = lam_s a_s.  Then psi(e_s(g)) = lam_s a_s phi_s(psi g) -
psi(g) lam_s a_s = lam_s e_s(psi g): candidate s is lam_s times target s,
and the matrix is diag(lam_s^-1) when the candidates are independent.  A
diagonal psi scales every coordinate (generator, word) by a nonzero
scalar, which keeps independence, so the independence of the identity's
candidates e_s(g) decides it for every twist (``candidates_independent``,
kept on the calculus).  A candidate holding a coordinate that no other
holds takes a zero coefficient in any dependency, so such candidates are
dropped, again and again; only when some are left does an elimination
decide.  lam_s must be a Laurent unit, whose inverse is stored as the
elimination stores the same value.
"""

from __future__ import annotations

from .algebra import (AlgebraError, Element, LinearSum, _accumulate,
                      _first_witness)
from .calculus import Calculus, CalculusError, Form
from .coeff import RationalFunction, solve_in_span
from .morphism import Endomorphism


class GeometryError(AlgebraError):
    pass


class FormExtension:
    """An endomorphism extended to forms by a scalar action on the basis:
    row k of matrix holds the coefficients of the image of theta^k."""

    __slots__ = ("calculus", "base", "matrix")

    def __init__(self, calculus: Calculus, base: Endomorphism, matrix):
        self.calculus = calculus
        self.base = base
        self.matrix = matrix

    def theta_image(self, label: str) -> Form:
        k = self.calculus._pos[label]
        alg = self.calculus.algebra
        return self.calculus.form({
            (j,): alg.scalar(rf) for j, rf in enumerate(self.matrix[k])
            if not rf.is_zero()})

    def apply(self, form: Form) -> Form:
        if form.calculus is not self.calculus:
            raise GeometryError("form from a different calculus")
        out = self.calculus.zero_form()
        for index, coeff in form.terms.items():
            piece = self.calculus.embed(self.base.apply(coeff))
            for pos in index:
                piece = piece * self.theta_image(self.calculus.labels[pos])
            out = out + piece
        return out

    __call__ = apply

    def commutes_with_d(self):
        """None when the extension is differentiable, else a witness pair."""
        calc = self.calculus
        return _first_witness(
            (name, self.apply(dg) - d_phi_g)
            for (name, _), dg, d_phi_g in zip(
                calc.generator_elements(), calc.generator_differentials(),
                calc.generator_differentials(self.base)))


def _invert_matrix(matrix, params):
    """The inverse matrix, or None when it is singular.  Column k is
    candidate k of one span solve (``coeff.solve_in_span``); the solution
    for unit vector l is column l of the inverse, and a singular matrix
    leaves some unit vector out of its span."""
    n = len(matrix)
    one = RationalFunction.from_value(params, 1)
    solved = solve_in_span(
        [{i: row[k] for i, row in enumerate(matrix) if not row[k].is_zero()}
         for k in range(n)],
        [{l: one} for l in range(n)], params)
    if any(found is None for found in solved):
        return None
    return [[found[0][k] for found in solved] for k in range(n)]


def _label_coordinates(calculus: Calculus, rows, endo=None) -> list:
    """Per label k, the coordinates (generator index, word) of the theta^k
    coefficients of rows, one one-form per generator, each mapped by endo
    when one is given."""
    absent = calculus.algebra.zero()
    columns = [{} for _ in calculus.labels]
    for sym, row in enumerate(rows):
        for k, coords in enumerate(columns):
            coeff = row.terms.get((k,), absent)
            if endo is not None:
                coeff = endo.apply(coeff)
            for word, c in coeff.terms.items():
                coords[(sym, word)] = c
    return columns


def derive_theta_action(calculus: Calculus, endo: Endomorphism) -> list:
    """Solve phi(d g) = d(phi g) for the scalar action on the theta basis.

    The coordinates are (generator index, word).  Candidate k holds the
    coordinates of phi(e_k(g)), the image of the theta^k coefficient of
    d(g), over every generator g; target j holds those of the theta^j
    coefficient of d(phi g).  Every target is solved in the span of the
    candidates in one elimination (``coeff.solve_in_span``), and the
    solution for target j is column j of the action matrix.
    """
    candidates = _label_coordinates(
        calculus, calculus.generator_differentials(), endo)
    targets = _label_coordinates(calculus,
                                 calculus.generator_differentials(endo))
    solved = solve_in_span(candidates, targets, calculus.algebra.params)
    for lab_j, found in zip(calculus.labels, solved):
        if found is None:
            raise GeometryError(
                "endomorphism does not extend to the basis form %s" % lab_j)
    return [[found[0][k] for found in solved]
            for k in range(len(calculus.labels))]


def candidates_independent(calculus: Calculus) -> bool:
    """Whether the theta coefficients e_k(g) of d(g), over every generator
    g, are linearly independent: the candidates of derive_theta_action for
    the identity.  Candidates that _peeled drops entirely are independent
    (see the module docstring); others are eliminated.  The verdict is
    kept on the calculus."""
    if calculus._candidates_independent is None:
        candidates = _label_coordinates(calculus,
                                        calculus.generator_differentials())
        if _peeled(candidates):
            calculus._candidates_independent = True
        else:
            (_, free), = solve_in_span(candidates, [{}],
                                       calculus.algebra.params)
            calculus._candidates_independent = not free
    return calculus._candidates_independent


def _peeled(candidates) -> bool:
    """Whether repeatedly dropping every candidate that holds a coordinate
    no other remaining candidate holds drops them all."""
    holders = {}
    for k, coords in enumerate(candidates):
        for coord in coords:
            holders.setdefault(coord, set()).add(k)
    left = set(range(len(candidates)))
    while left:
        private = {k for k in left
                   if any(len(holders[coord]) == 1 for coord in candidates[k])}
        if not private:
            return False
        left -= private
        for k in private:
            for coord in candidates[k]:
                holders[coord].discard(k)
    return True


def closed_theta_action(calculus: Calculus, endo: Endomorphism):
    """derive_theta_action in closed form, diag(lam_s^-1), or None where
    the closed form does not apply.

    The caller vouches that endo is multiplicative on normal forms (the
    algebra passed its confluence check and endo its automorphism check).
    The form applies when endo and every twist are diagonal, each weight
    is an endo-eigenvector, endo(a_s) = lam_s a_s, with a Laurent unit
    lam_s, and the candidates are independent (candidates_independent).
    """
    if endo._scales is None or any(
            twist._scales is None for twist in calculus.twists.values()):
        return None
    lams = []
    for lab in calculus.labels:
        lam = _eigenvalue(endo, calculus.weights[lab])
        if lam is None or not lam._is_unit():
            return None
        lams.append(lam)
    if not candidates_independent(calculus):
        return None
    zero = RationalFunction.from_value(calculus.algebra.params, 0)
    return [[lam.inverse() if j == k else zero for j in range(len(lams))]
            for k, lam in enumerate(lams)]


def _eigenvalue(endo: Endomorphism, weight: Element):
    """lam with endo(weight) = lam * weight for a diagonal endo and a
    nonzero weight, else None: the scale every word of weight takes."""
    words = iter(weight.terms)
    first = next(words, None)
    if first is None:
        return None
    lam = endo._chi(first)
    return lam if all(endo._chi(word) == lam for word in words) else None


class TensorForm(LinearSum):
    """A sum of element multiples of theta^s (x)_L theta^s'."""

    __slots__ = ("calculus",)
    _SPELLING = "tensor"

    def __init__(self, calculus: Calculus, terms: dict):
        self.calculus = calculus
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def _with(self, terms: dict) -> "TensorForm":
        return TensorForm(self.calculus, terms)

    def _coerce(self, other):
        if isinstance(other, TensorForm) and other.calculus is self.calculus:
            return other
        return None

    def entry(self, lab1: str, lab2: str) -> Element:
        key = (self.calculus._pos[lab1], self.calculus._pos[lab2])
        return self.terms.get(key, self.calculus.algebra.zero())

    def __rmul__(self, other) -> "TensorForm":
        """Left multiplication by an element or scalar (left-linear slots)."""
        return TensorForm(self.calculus,
                          {k: other * v for k, v in self.terms.items()})


class Geometry:
    """A calculus with differentiable extensions of its twists."""

    def __init__(self, calculus: Calculus, extensions: dict):
        """extensions maps a label to an extension of its twist."""
        self.calculus = calculus
        for lab, ext in extensions.items():
            if ext.base is not calculus.twists.get(lab):
                raise GeometryError(
                    "extension for %r does not extend its twist" % lab)
        self.extensions = dict(extensions)

    def extension(self, label: str) -> FormExtension:
        ext = self.extensions.get(label)
        if ext is None:
            raise GeometryError("no extension for the twist of %r" % label)
        return ext

    def inverse_extension(self, label: str) -> FormExtension:
        """The inverse of extension(label), over the inverse of its twist."""
        matrix = _invert_matrix(self.extension(label).matrix,
                                self.calculus.algebra.params)
        if matrix is None:
            raise GeometryError("theta action is not invertible")
        return FormExtension(self.calculus,
                             self.calculus.twists[label].inverse(), matrix)

    # -- tensors -----------------------------------------------------------

    def tensor_L(self, left: Form, right: Form) -> TensorForm:
        """The left tensor product of two one-forms."""
        _require_grade_one(left)
        _require_grade_one(right)
        return TensorForm(self.calculus, {
            (s, k): a * b for (s,), a in left.terms.items()
            for (k,), b in right.terms.items()})

    def from_tensor_A(self, entries: dict) -> TensorForm:
        """Convert entries over theta^s (x)_A theta^k into the left basis."""
        calc = self.calculus
        out = {}
        for (s, k), coeff in entries.items():
            row = self.extension(calc.labels[s]).matrix[k]
            for j, rf in enumerate(row):
                if not rf.is_zero():
                    _accumulate(out, (s, j), coeff.scale(rf))
        return TensorForm(calc, out)

    def tensor_A(self, left: Form, right: Form) -> TensorForm:
        """theta^s a (x)_A theta^k b, re-expressed in the left basis."""
        _require_grade_one(left)
        _require_grade_one(right)
        calc = self.calculus
        return self.from_tensor_A({
            (s, k): a * calc.twists[calc.labels[s]].apply(b)
            for (s,), a in left.terms.items()
            for (k,), b in right.terms.items()})

    def wedge_project(self, tensor: TensorForm) -> Form:
        calc = self.calculus
        out = calc.zero_form()
        for (s, j), coeff in tensor.terms.items():
            basis = calc.wedge(calc.theta(calc.labels[s]),
                               calc.theta(calc.labels[j]))
            out = out + coeff * basis
        return out


def _require_grade_one(form: Form) -> None:
    for key in form.terms:
        if len(key) != 1:
            raise GeometryError("expected a one-form")


class Connection:
    """Transport operators V_s on one-forms, twisted-linear over the algebra."""

    def __init__(self, geometry: Geometry, table: dict):
        """table maps (direction label, basis label) to the transported form."""
        self.geometry = geometry
        calc = geometry.calculus
        self.table = {}
        for s in calc.labels:
            for k in calc.labels:
                if (s, k) not in table:
                    raise GeometryError("missing transport entry V_%s[%s]" % (s, k))
        for (s, k), form in table.items():
            if s not in calc._pos or k not in calc._pos:
                raise GeometryError("unknown label in transport entry")
            _require_grade_one(form)
            self.table[(s, k)] = form

    def transport(self, s: str, form: Form) -> Form:
        """V_s on a one-form: V_s(a theta^k) = phi_s^-1(a) V_s(theta^k)."""
        _require_grade_one(form)
        calc = self.geometry.calculus
        inv = calc.twists[s].inverse()
        out = calc.zero_form()
        for (k,), coeff in form.terms.items():
            out = out + inv.apply(coeff) * self.table[(s, calc.labels[k])]
        return out

    def transport_tensor(self, s: str, tensor: TensorForm) -> TensorForm:
        """V_s on a tensor, twisting entries and transporting both slots."""
        geo = self.geometry
        calc = geo.calculus
        inv = calc.twists[s].inverse()
        out = TensorForm(calc, {})
        for (k, k2), coeff in tensor.terms.items():
            left = self.table[(s, calc.labels[k])]
            right = self.table[(s, calc.labels[k2])]
            out = out + inv.apply(coeff) * geo.tensor_L(left, right)
        return out

    def nabla(self, form: Form) -> TensorForm:
        """nabla(w) = vtheta (x)_A w - sum_s theta^s (x)_A V_s(w)."""
        geo = self.geometry
        calc = geo.calculus
        out = geo.tensor_A(calc.inner_form(), form)
        for s in calc.labels:
            out = out - geo.tensor_A(calc.theta(s), self.transport(s, form))
        return out

    def torsion(self, form: Form) -> Form:
        """d(w) minus the wedge projection of nabla(w)."""
        return self.geometry.calculus.d(form) - \
            self.geometry.wedge_project(self.nabla(form))

    def metric_compatible(self, metric: TensorForm):
        """None when V_s(g) = g for every direction, else a witness."""
        return _first_witness((s, self.transport_tensor(s, metric) - metric)
                              for s in self.geometry.calculus.labels)
