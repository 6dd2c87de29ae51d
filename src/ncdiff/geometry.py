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
the identity, each twist and each inverse twist (one inverse map per
label, shared with transport), so the table holds at most
(twists + inverse twists + 1) x generator symbols rows.  The derived
action expresses every target label in the span of the same candidates,
so one elimination (``coeff.solve_in_span``) gives the whole matrix, and
an action is inverted in one elimination against the identity columns.
"""

from __future__ import annotations

from .algebra import AlgebraError, Element, LinearSum, _first_witness
from .calculus import Calculus, CalculusError, Form
from .coeff import RationalFunction, solve_in_span, solve_linear_columns
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
    """The inverse matrix, solved in one elimination against the identity
    columns, or None when the matrix is singular."""
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


def derive_theta_action(calculus: Calculus, endo: Endomorphism) -> list:
    """Solve phi(d g) = d(phi g) for the scalar action on the theta basis.

    The coordinates are (generator index, word).  Candidate k holds the
    coordinates of phi(e_k(g)), the image of the theta^k coefficient of
    d(g), over every generator g; target j holds those of the theta^j
    coefficient of d(phi g).  Every target is solved in the span of the
    candidates in one elimination (``coeff.solve_in_span``), and the
    solution for target j is column j of the action matrix.
    """
    labels = calculus.labels
    absent = calculus.algebra.zero()
    candidates = [{} for _ in labels]
    targets = [{} for _ in labels]
    for sym, (dg, d_phi_g) in enumerate(zip(
            calculus.generator_differentials(),
            calculus.generator_differentials(endo))):
        for k, coords in enumerate(candidates):
            for word, c in endo.apply(dg.terms.get((k,), absent)).terms.items():
                coords[(sym, word)] = c
        for j, coords in enumerate(targets):
            for word, c in d_phi_g.terms.get((j,), absent).terms.items():
                coords[(sym, word)] = c
    solved = solve_in_span(candidates, targets, calculus.algebra.params)
    for lab_j, found in zip(labels, solved):
        if found is None:
            raise GeometryError(
                "endomorphism does not extend to the basis form %s" % lab_j)
    return [[found[0][k] for found in solved] for k in range(len(labels))]


class TensorForm(LinearSum):
    """A sum of element multiples of theta^s (x)_L theta^s'."""

    __slots__ = ("calculus",)

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
        """Left multiplication by an element (both slots are left-linear)."""
        if isinstance(other, Element):
            return TensorForm(self.calculus,
                              {k: other * v for k, v in self.terms.items()})
        return TensorForm(self.calculus,
                          {k: v.scale(other) for k, v in self.terms.items()})

    def _spelled(self, spell) -> str:
        return spell.tensor(self)


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
        self._inverse_extensions = {}
        self._inverse_twists = {}

    def extension(self, label: str) -> FormExtension:
        ext = self.extensions.get(label)
        if ext is None:
            raise GeometryError("no extension for the twist of %r" % label)
        return ext

    def inverse_extension(self, label: str) -> FormExtension:
        """The inverse of extension(label), over inverse_twist(label)."""
        ext = self._inverse_extensions.get(label)
        if ext is None:
            matrix = _invert_matrix(self.extension(label).matrix,
                                    self.calculus.algebra.params)
            if matrix is None:
                raise GeometryError("theta action is not invertible")
            ext = FormExtension(self.calculus, self.inverse_twist(label),
                                matrix)
            self._inverse_extensions[label] = ext
        return ext

    def inverse_twist(self, label: str) -> Endomorphism:
        endo = self._inverse_twists.get(label)
        if endo is None:
            endo = self.calculus.twists[label].inverse()
            self._inverse_twists[label] = endo
        return endo

    # -- tensors -----------------------------------------------------------

    def tensor_L(self, left: Form, right: Form) -> TensorForm:
        """The left tensor product of two one-forms."""
        _require_grade_one(left)
        _require_grade_one(right)
        out = {}
        for (s,), a in left.terms.items():
            for (k,), b in right.terms.items():
                prev = out.get((s, k))
                prod = a * b
                out[(s, k)] = prod if prev is None else prev + prod
        return TensorForm(self.calculus, out)

    def from_tensor_A(self, entries: dict) -> TensorForm:
        """Convert entries over theta^s (x)_A theta^k into the left basis."""
        calc = self.calculus
        out = TensorForm(calc, {})
        for (s, k), coeff in entries.items():
            row = self.extension(calc.labels[s]).matrix[k]
            piece = {}
            for j, rf in enumerate(row):
                if not rf.is_zero():
                    piece[(s, j)] = coeff.scale(rf)
            out = out + TensorForm(calc, piece)
        return out

    def tensor_A(self, left: Form, right: Form) -> TensorForm:
        """theta^s a (x)_A theta^k b, re-expressed in the left basis."""
        _require_grade_one(left)
        _require_grade_one(right)
        calc = self.calculus
        entries = {}
        for (s,), a in left.terms.items():
            for (k,), b in right.terms.items():
                moved = calc.twists[calc.labels[s]].apply(b)
                prev = entries.get((s, k))
                entries[(s, k)] = a * moved if prev is None else prev + a * moved
        return self.from_tensor_A(entries)

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

    def __init__(self, geometry: Geometry, table: dict, name: str | None = None):
        """table maps (direction label, basis label) to the transported form."""
        self.geometry = geometry
        self.name = name
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
        inv = self.geometry.inverse_twist(s)
        out = calc.zero_form()
        for (k,), coeff in form.terms.items():
            out = out + inv.apply(coeff) * self.table[(s, calc.labels[k])]
        return out

    def transport_tensor(self, s: str, tensor: TensorForm) -> TensorForm:
        """V_s on a tensor, twisting entries and transporting both slots."""
        geo = self.geometry
        calc = geo.calculus
        inv = geo.inverse_twist(s)
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
