"""The model definition language: parsing, building, and export.

A model file declares parameters, generators, relations, automorphisms, a
calculus block, and optional named values, metrics, connections, and checks.
Statements are evaluated in source order; a ``subst`` statement changes how
parameter names evaluate in all later statements, which is how a model pins
a parameter combination (the shipped two-parameter model sets r = p*q after
its relations).  ``build_model`` turns a document into live objects; export
renders a document back to the text format so that parse, export, parse is
the identity on documents.
"""

from __future__ import annotations

from .algebra import (Algebra, AlgebraError, Element, GeneratorTable,
                      word_letters)
from .calculus import Calculus, CalculusError, Form
from .coeff import ParameterSet, RationalFunction
from .geometry import Connection, FormExtension, Geometry, GeometryError, TensorForm
from .morphism import Endomorphism, MorphismError


class ModelError(Exception):
    """A diagnostic tied to a source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, column %d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


class ModelSyntaxError(ModelError):
    pass


class ModelSemanticError(ModelError):
    pass


# -- tokens -------------------------------------------------------------------

_PUNCT = ("->", "==", "{", "}", "(", ")", "[", "]", ";", ",", ":",
          "^", "*", "/", "+", "-", "=")


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.value)


def tokenize(text: str):
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            chars = []
            while i < n and text[i] not in '"\n':
                if text[i] == "\\" and i + 1 < n and text[i + 1] == '"':
                    chars.append('"')
                    i += 2
                    col += 2
                    continue
                chars.append(text[i])
                i += 1
                col += 1
            if i >= n or text[i] != '"':
                raise ModelSyntaxError("unterminated string", start_line, start_col)
            i += 1
            col += 1
            tokens.append(_Token("string", "".join(chars), start_line, start_col))
            continue
        if ch.isdigit():
            start_col = col
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("number", int(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            start_col = col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        for punct in _PUNCT:
            if text.startswith(punct, i):
                tokens.append(_Token("punct", punct, line, col))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ModelSyntaxError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


# -- expression AST -----------------------------------------------------------
#
# Nodes are tuples whose last slot is the (line, col) location:
#   ("num", int, loc)          ("name", ident, loc)
#   ("call", fname, arg_or_None, loc)
#   ("neg", node, loc)         ("pow", node, exponent, loc)
#   ("bin", op, left, right, loc)

def _child_slots(node):
    """Tuple positions of the node's child expressions, left to right."""
    kind = node[0]
    if kind in ("num", "name"):
        return ()
    if kind == "call":
        return () if node[2] is None else (2,)
    if kind in ("neg", "pow"):
        return (1,)
    if kind == "bin":
        return (2, 3)
    raise ValueError("unknown node kind %r" % kind)


def _map_children(node, fn):
    """A copy of the node with fn applied to each child expression."""
    out = list(node)
    for i in _child_slots(node):
        out[i] = fn(node[i])
    return tuple(out)


def _iter_nodes(node):
    """Every node of the expression, parents first, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node[i] for i in reversed(_child_slots(node)))


def strip_locations(node):
    return _map_children(node, strip_locations)[:-1]


def node_location(node):
    return node[-1]


def rename_atoms(node, mapping: dict):
    """A copy of the expression with name atoms renamed."""
    if node[0] == "name" and node[1] in mapping:
        return ("name", mapping[node[1]], node[2])
    return _map_children(node, lambda child: rename_atoms(child, mapping))


def expression_names(node):
    return [(n[1], n[2]) for n in _iter_nodes(node) if n[0] == "name"]


def expression_calls(node):
    return [(n[1], n[3]) for n in _iter_nodes(node) if n[0] == "call"]


def expression_to_text(node, required: int = 0) -> str:
    """Render an expression; reparsing yields the identical tree."""
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind == "name":
        return node[1]
    if kind == "call":
        arg = node[2]
        return "%s(%s)" % (node[1],
                           "" if arg is None else expression_to_text(arg, 0))
    if kind == "neg":
        text = "-" + expression_to_text(node[1], 2)
        return "(%s)" % text if required > 2 else text
    if kind == "pow":
        base = expression_to_text(node[1], 4)
        text = "%s^%d" % (base, node[2])
        return "(%s)" % text if required > 3 else text
    if kind == "bin":
        op = node[1]
        if op in "+-":
            mine = 0
        else:
            mine = 1
        left = expression_to_text(node[2], mine)
        right = expression_to_text(node[3], mine + 1)
        text = "%s %s %s" % (left, op, right)
        return "(%s)" % text if required > mine else text
    raise ValueError("unknown node kind %r" % kind)


# -- statements ----------------------------------------------------------------

_STAGES = {"model": 0, "param": 1, "gen": 2, "invertible": 3, "rel": 4}
_LATE_KINDS = ("subst", "auto", "calc", "extension", "let", "metric",
               "connection", "check")


class Statement:
    __slots__ = ("kind", "data", "line", "col")

    def __init__(self, kind, data, line, col):
        self.kind = kind
        self.data = data
        self.line = line
        self.col = col


class ModelDocument:
    """The parsed form of a model file: ordered statements plus name tables."""

    def __init__(self, statements, name):
        self.statements = statements
        self.name = name
        self.params = []
        self.gens = []
        self.invertible = []
        self.theta_labels = []
        self.let_names = []
        self.auto_names = []
        self.check_names = []
        for stmt in statements:
            if stmt.kind == "param":
                self.params.extend(stmt.data)
            elif stmt.kind == "gen":
                self.gens.extend(stmt.data)
            elif stmt.kind == "invertible":
                self.invertible.extend(stmt.data)
            elif stmt.kind == "calc":
                self.theta_labels.extend(stmt.data["thetas"])
            elif stmt.kind == "let":
                self.let_names.append(stmt.data[0])
            elif stmt.kind == "auto":
                self.auto_names.append(stmt.data[0])
            elif stmt.kind == "check":
                self.check_names.append(stmt.data[0])

    def semantic_key(self):
        out = [self.name]
        for stmt in self.statements:
            out.append((stmt.kind, _stmt_key(stmt)))
        return tuple(out)

    def __eq__(self, other):
        return (isinstance(other, ModelDocument)
                and self.semantic_key() == other.semantic_key())

    def checks(self):
        return [stmt for stmt in self.statements if stmt.kind == "check"]


def _stmt_key(stmt: Statement):
    kind = stmt.kind
    data = stmt.data
    if kind == "model":
        return data
    if kind in ("param", "gen", "invertible"):
        return tuple(data)
    if kind == "rel":
        return (strip_locations(data[0]), strip_locations(data[1]))
    if kind == "subst":
        return (data[0], strip_locations(data[1]))
    if kind in ("auto", "extension"):
        return (data[0], tuple((n, strip_locations(e)) for n, e in data[1]))
    if kind == "calc":
        return (tuple(data["thetas"]),
                tuple(data["twists"]),
                tuple((lab, strip_locations(e)) for lab, e in data["weights"]),
                tuple((l1, l2, strip_locations(e))
                      for l1, l2, e in data["wedges"]))
    if kind == "let":
        return (data[0], strip_locations(data[1]))
    if kind == "metric":
        return (data[0], tuple((l1, l2, strip_locations(e))
                               for l1, l2, e in data[1]))
    if kind == "connection":
        return (data[0], tuple((s, k, strip_locations(e))
                               for s, k, e in data[1]))
    if kind == "check":
        return (data[0], strip_locations(data[1]), strip_locations(data[2]))
    raise ValueError("unknown statement kind %r" % kind)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            raise ModelSyntaxError("expected %r" % value, tok.line, tok.col)
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ModelSyntaxError("expected %s" % what, tok.line, tok.col)
        return self.advance()

    def expect_string(self) -> _Token:
        tok = self.peek()
        if tok.kind != "string":
            raise ModelSyntaxError("expected a quoted string", tok.line, tok.col)
        return self.advance()

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ModelSyntaxError("unexpected trailing input",
                                   tok.line, tok.col)

    # expression grammar:  expr > term > factor > power > atom

    def parse_expression(self):
        node = self.parse_term()
        while self.at_punct("+") or self.at_punct("-"):
            op = self.advance()
            right = self.parse_term()
            node = ("bin", op.value, node, right, (op.line, op.col))
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.at_punct("*") or self.at_punct("/"):
            op = self.advance()
            right = self.parse_factor()
            node = ("bin", op.value, node, right, (op.line, op.col))
        return node

    def parse_factor(self):
        if self.at_punct("-"):
            op = self.advance()
            return ("neg", self.parse_factor(), (op.line, op.col))
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.at_punct("^"):
            op = self.advance()
            sign = 1
            if self.at_punct("-"):
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "number":
                raise ModelSyntaxError("expected an integer exponent",
                                       tok.line, tok.col)
            self.advance()
            return ("pow", node, sign * tok.value, (op.line, op.col))
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return ("num", tok.value, (tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            if self.at_punct("("):
                self.advance()
                if self.at_punct(")"):
                    self.advance()
                    return ("call", tok.value, None, (tok.line, tok.col))
                arg = self.parse_expression()
                self.expect_punct(")")
                return ("call", tok.value, arg, (tok.line, tok.col))
            return ("name", tok.value, (tok.line, tok.col))
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            node = self.parse_expression()
            self.expect_punct(")")
            return node
        raise ModelSyntaxError("expected an expression", tok.line, tok.col)

    def parse_ident_list(self):
        names = [self.expect_ident().value]
        while self.at_punct(","):
            self.advance()
            names.append(self.expect_ident().value)
        return names


def parse_model(text: str) -> ModelDocument:
    """Parse and statically check a model file."""
    parser = _Parser(tokenize(text))
    statements = []
    name = "model"
    stage = 0
    checker = _StaticChecker()
    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind != "ident":
            raise ModelSyntaxError("expected a statement keyword",
                                   tok.line, tok.col)
        kind = tok.value
        if kind in _STAGES:
            required = _STAGES[kind]
            if required < stage:
                raise ModelSyntaxError(
                    "%r cannot appear after later sections" % kind,
                    tok.line, tok.col)
            stage = required
        elif kind in _LATE_KINDS:
            stage = 5
        else:
            raise ModelSyntaxError("unknown statement %r" % kind,
                                   tok.line, tok.col)
        parser.advance()
        stmt = _parse_statement(parser, kind, tok)
        if kind == "model":
            name = stmt.data
        checker.check(stmt)
        statements.append(stmt)
    doc = ModelDocument(statements, name)
    return doc


def parse_statement(text: str) -> Statement:
    """Parse the text of one statement, without the static name checks."""
    parser = _Parser(tokenize(text))
    tok = parser.advance()
    stmt = _parse_statement(parser, tok.value, tok)
    parser.expect_eof()
    return stmt


def _parse_statement(parser: _Parser, kind: str, tok: _Token) -> Statement:
    line, col = tok.line, tok.col
    if kind == "model":
        value = parser.expect_string().value
        parser.expect_punct(";")
        return Statement(kind, value, line, col)
    if kind in ("param", "gen", "invertible"):
        names = parser.parse_ident_list()
        parser.expect_punct(";")
        return Statement(kind, names, line, col)
    if kind == "rel":
        lhs = parser.parse_expression()
        parser.expect_punct("=")
        rhs = parser.parse_expression()
        parser.expect_punct(";")
        return Statement(kind, (lhs, rhs), line, col)
    if kind == "subst":
        target = parser.expect_ident("parameter name").value
        parser.expect_punct("=")
        value = parser.parse_expression()
        parser.expect_punct(";")
        return Statement(kind, (target, value), line, col)
    if kind in ("auto", "extension"):
        name = parser.expect_ident("name").value
        parser.expect_punct("{")
        entries = []
        while not parser.at_punct("}"):
            source = parser.expect_ident().value
            parser.expect_punct("->")
            image = parser.parse_expression()
            parser.expect_punct(";")
            entries.append((source, image))
        parser.expect_punct("}")
        return Statement(kind, (name, entries), line, col)
    if kind == "calc":
        parser.expect_punct("{")
        thetas = []
        twists = []
        weights = []
        wedges = []
        while not parser.at_punct("}"):
            item = parser.expect_ident("calc item").value
            if item == "theta":
                thetas.extend(parser.parse_ident_list())
                parser.expect_punct(";")
            elif item == "twist":
                lab = parser.expect_ident("basis label").value
                parser.expect_punct("=")
                auto = parser.expect_ident("automorphism name").value
                parser.expect_punct(";")
                twists.append((lab, auto))
            elif item == "weight":
                lab = parser.expect_ident("basis label").value
                parser.expect_punct("=")
                weights.append((lab, parser.parse_expression()))
                parser.expect_punct(";")
            elif item == "wedge":
                lab1 = parser.expect_ident("basis label").value
                parser.expect_punct("*")
                lab2 = parser.expect_ident("basis label").value
                parser.expect_punct("=")
                wedges.append((lab1, lab2, parser.parse_expression()))
                parser.expect_punct(";")
            else:
                raise ModelSyntaxError("unknown calc item %r" % item,
                                       parser.peek().line, parser.peek().col)
        parser.expect_punct("}")
        data = {"thetas": thetas, "twists": twists, "weights": weights,
                "wedges": wedges}
        return Statement(kind, data, line, col)
    if kind == "let":
        name = parser.expect_ident("name").value
        parser.expect_punct("=")
        value = parser.parse_expression()
        parser.expect_punct(";")
        return Statement(kind, (name, value), line, col)
    if kind == "metric":
        name = parser.expect_ident("name").value
        parser.expect_punct("{")
        entries = []
        while not parser.at_punct("}"):
            parser.expect_punct("[")
            lab1 = parser.expect_ident("basis label").value
            parser.expect_punct(",")
            lab2 = parser.expect_ident("basis label").value
            parser.expect_punct("]")
            parser.expect_punct("=")
            entries.append((lab1, lab2, parser.parse_expression()))
            parser.expect_punct(";")
        parser.expect_punct("}")
        return Statement(kind, (name, entries), line, col)
    if kind == "connection":
        name = parser.expect_ident("name").value
        parser.expect_punct("{")
        entries = []
        while not parser.at_punct("}"):
            key = parser.expect_ident("transport key")
            if not (key.value.startswith("V") and key.value[1:].isdigit()):
                raise ModelSyntaxError(
                    "transport key must look like V1", key.line, key.col)
            index = int(key.value[1:])
            parser.expect_punct("[")
            basis = parser.expect_ident("basis label").value
            parser.expect_punct("]")
            parser.expect_punct("=")
            entries.append((index, basis, parser.parse_expression()))
            parser.expect_punct(";")
        parser.expect_punct("}")
        return Statement(kind, (name, entries), line, col)
    if kind == "check":
        name = parser.expect_string().value
        parser.expect_punct(":")
        lhs = parser.parse_expression()
        parser.expect_punct("==")
        rhs = parser.parse_expression()
        parser.expect_punct(";")
        return Statement(kind, (name, lhs, rhs), line, col)
    raise ModelSyntaxError("unknown statement %r" % kind, line, col)


class _StaticChecker:
    """Name and shape checks that run while parsing."""

    def __init__(self):
        self.params = set()
        self.gens = set()
        self.invertible = set()
        self.thetas = []
        self.lets = set()
        self.autos = set()
        self.metrics = set()
        self.connections = set()
        self.checks = set()
        self.extensions = set()
        self.seen_model = False
        self.seen_calc = False

    def _dup(self, name, line, col):
        raise ModelSemanticError("duplicate name %r" % name, line, col)

    def _known(self, name):
        return (name in self.params or name in self.gens
                or name in self.thetas or name in self.lets)

    def _check_names(self, expr, allowed, what):
        for name, loc in expression_names(expr):
            if name not in allowed:
                raise ModelSemanticError(
                    "unknown name %r in %s" % (name, what), loc[0], loc[1])
        return expr

    def _no_calls(self, expr, what):
        calls = expression_calls(expr)
        if calls:
            fname, loc = calls[0]
            raise ModelSemanticError(
                "%s cannot use %s(...)" % (what, fname), loc[0], loc[1])

    def _check_calls(self, expr):
        for fname, loc in expression_calls(expr):
            if fname not in ("d", "inner"):
                raise ModelSemanticError(
                    "unknown function %r" % fname, loc[0], loc[1])

    def _no_basis_powers(self, expr, labels):
        """Reject a power whose base holds a basis form.

        Nested offenders report the innermost one, where evaluation stops.
        """
        found = None
        scope = expr
        while True:
            hit = next((n for n in _iter_nodes(scope) if n[0] == "pow"
                        and any(name in labels
                                for name, _ in expression_names(n[1]))),
                       None)
            if hit is None:
                break
            found, scope = hit, hit[1]
        if found is not None:
            loc = node_location(found)
            raise ModelSemanticError("cannot raise basis forms to a power",
                                     loc[0], loc[1])

    def check(self, stmt: Statement) -> None:
        kind = stmt.kind
        if kind == "model":
            if self.seen_model:
                raise ModelSemanticError("duplicate model statement",
                                         stmt.line, stmt.col)
            self.seen_model = True
        elif kind == "param":
            for n in stmt.data:
                if n in self.params:
                    self._dup(n, stmt.line, stmt.col)
                self.params.add(n)
        elif kind == "gen":
            for n in stmt.data:
                if n in self.params or n in self.gens:
                    self._dup(n, stmt.line, stmt.col)
                self.gens.add(n)
        elif kind == "invertible":
            for n in stmt.data:
                if n not in self.gens:
                    raise ModelSemanticError(
                        "invertible name %r is not a generator" % n,
                        stmt.line, stmt.col)
                if n in self.invertible:
                    self._dup(n, stmt.line, stmt.col)
                self.invertible.add(n)
        elif kind == "rel":
            allowed = self.params | self.gens
            for side in stmt.data:
                self._no_calls(side, "a relation")
                self._check_names(side, allowed, "a relation")
        elif kind == "subst":
            target, expr = stmt.data
            if target not in self.params:
                raise ModelSemanticError(
                    "subst target %r is not a parameter" % target,
                    stmt.line, stmt.col)
            self._no_calls(expr, "a substitution")
            self._check_names(expr, self.params, "a substitution")
        elif kind == "auto":
            name, entries = stmt.data
            if self._known(name) or name in self.autos:
                self._dup(name, stmt.line, stmt.col)
            self.autos.add(name)
            seen = set()
            for gen_name, expr in entries:
                if gen_name not in self.gens:
                    raise ModelSemanticError(
                        "image for unknown generator %r" % gen_name,
                        stmt.line, stmt.col)
                if gen_name in seen:
                    self._dup(gen_name, stmt.line, stmt.col)
                seen.add(gen_name)
                self._no_calls(expr, "an automorphism image")
                self._check_names(expr, self.params | self.gens,
                                  "an automorphism image")
            missing = self.gens - seen
            if missing:
                raise ModelSemanticError(
                    "automorphism %r has no image for %r"
                    % (name, sorted(missing)[0]), stmt.line, stmt.col)
        elif kind == "calc":
            if self.seen_calc:
                raise ModelSemanticError("duplicate calc block",
                                         stmt.line, stmt.col)
            self.seen_calc = True
            data = stmt.data
            for lab in data["thetas"]:
                if self._known(lab) or lab in self.autos:
                    self._dup(lab, stmt.line, stmt.col)
                self.thetas.append(lab)
            labels = set(self.thetas)
            twisted = set()
            for lab, auto in data["twists"]:
                if lab not in labels:
                    raise ModelSemanticError("unknown basis label %r" % lab,
                                             stmt.line, stmt.col)
                if auto not in self.autos:
                    raise ModelSemanticError("unknown automorphism %r" % auto,
                                             stmt.line, stmt.col)
                if lab in twisted:
                    self._dup(lab, stmt.line, stmt.col)
                twisted.add(lab)
            weighted = set()
            for lab, expr in data["weights"]:
                if lab not in labels:
                    raise ModelSemanticError("unknown basis label %r" % lab,
                                             stmt.line, stmt.col)
                if lab in weighted:
                    self._dup(lab, stmt.line, stmt.col)
                weighted.add(lab)
                self._no_calls(expr, "a weight")
                self._check_names(expr, self.params | self.gens | self.lets,
                                  "a weight")
            for lab in self.thetas:
                if lab not in twisted:
                    raise ModelSemanticError("missing twist for %r" % lab,
                                             stmt.line, stmt.col)
                if lab not in weighted:
                    raise ModelSemanticError("missing weight for %r" % lab,
                                             stmt.line, stmt.col)
            for lab1, lab2, expr in data["wedges"]:
                for lab in (lab1, lab2):
                    if lab not in labels:
                        raise ModelSemanticError(
                            "unknown basis label %r" % lab, stmt.line, stmt.col)
                self._no_calls(expr, "a wedge rule")
                self._check_names(expr, self.params | labels, "a wedge rule")
                self._no_basis_powers(expr, labels)
        elif kind == "extension":
            name, entries = stmt.data
            if name not in self.autos:
                raise ModelSemanticError("unknown automorphism %r" % name,
                                         stmt.line, stmt.col)
            if name in self.extensions:
                self._dup(name, stmt.line, stmt.col)
            self.extensions.add(name)
            labels = set(self.thetas)
            seen = set()
            for lab, expr in entries:
                if lab not in labels:
                    raise ModelSemanticError("unknown basis label %r" % lab,
                                             stmt.line, stmt.col)
                if lab in seen:
                    self._dup(lab, stmt.line, stmt.col)
                seen.add(lab)
                self._no_calls(expr, "an extension image")
                self._check_names(expr, self.params | labels,
                                  "an extension image")
        elif kind == "let":
            name, expr = stmt.data
            if self._known(name) or name in self.autos:
                self._dup(name, stmt.line, stmt.col)
            self._check_calls(expr)
            self._check_names(expr,
                              self.params | self.gens | set(self.thetas)
                              | self.lets, "a definition")
            self.lets.add(name)
        elif kind == "metric":
            name, entries = stmt.data
            if name in self.metrics:
                self._dup(name, stmt.line, stmt.col)
            self.metrics.add(name)
            labels = set(self.thetas)
            seen = set()
            for lab1, lab2, expr in entries:
                for lab in (lab1, lab2):
                    if lab not in labels:
                        raise ModelSemanticError(
                            "unknown basis label %r" % lab, stmt.line, stmt.col)
                if (lab1, lab2) in seen:
                    self._dup("%s,%s" % (lab1, lab2), stmt.line, stmt.col)
                seen.add((lab1, lab2))
                self._no_calls(expr, "a metric entry")
                self._check_names(expr, self.params | self.gens | self.lets,
                                  "a metric entry")
        elif kind == "connection":
            name, entries = stmt.data
            if name in self.connections:
                self._dup(name, stmt.line, stmt.col)
            self.connections.add(name)
            labels = set(self.thetas)
            seen = set()
            for index, basis, expr in entries:
                if not (1 <= index <= len(self.thetas)):
                    raise ModelSemanticError(
                        "transport direction V%d is out of range" % index,
                        stmt.line, stmt.col)
                if basis not in labels:
                    raise ModelSemanticError(
                        "unknown basis label %r" % basis, stmt.line, stmt.col)
                if (index, basis) in seen:
                    self._dup("V%d[%s]" % (index, basis), stmt.line, stmt.col)
                seen.add((index, basis))
                self._no_calls(expr, "a transport entry")
                self._check_names(expr,
                                  self.params | self.gens | labels | self.lets,
                                  "a transport entry")
        elif kind == "check":
            name, lhs, rhs = stmt.data
            if name in self.checks:
                self._dup(name, stmt.line, stmt.col)
            self.checks.add(name)
            allowed = self.params | self.gens | set(self.thetas) | self.lets
            for side in (lhs, rhs):
                self._check_calls(side)
                self._check_names(side, allowed, "a check")


# -- building -----------------------------------------------------------------

class CheckCase:
    """One named identity from a model file, evaluated on both sides."""

    __slots__ = ("name", "lhs", "rhs")

    def __init__(self, name: str, lhs, rhs):
        self.name = name
        self.lhs = lhs
        self.rhs = rhs

    def difference(self):
        return self.lhs - self.rhs

    def passed(self) -> bool:
        diff = self.difference()
        return diff.is_zero() if hasattr(diff, "is_zero") else diff == 0


class ModelBundle:
    """Built model objects: algebra, automorphisms, calculus, geometry."""

    def __init__(self, doc, name, params, algebra, autos, calculus, geometry,
                 named, metrics, connections, checks, substitutions, env):
        self.doc = doc
        self.name = name
        self.params = params
        self.algebra = algebra
        self.autos = autos
        self.calculus = calculus
        self.geometry = geometry
        self.named = named
        self.metrics = metrics
        self.connections = connections
        self.checks = checks
        self.substitutions = substitutions
        self._env = env
        self.extensions_by_auto = {}
        self.extras = {}

    def value(self, name: str):
        """The parameter, generator, basis form, or definition so named."""
        try:
            return self._env[name]
        except KeyError:
            raise KeyError("model has no value named %r" % name) from None

    def eval_expression(self, text: str):
        """Evaluate one expression in the model's environment."""
        parser = _Parser(tokenize(text))
        node = parser.parse_expression()
        parser.expect_eof()
        return _Evaluator(self._env, self.params, self.algebra,
                          self.calculus).eval(node)


class _Evaluator:
    """Evaluates expression trees into coefficients, elements, or forms."""

    def __init__(self, env: dict, params: ParameterSet, algebra, calculus):
        self.env = env
        self.params = params
        self.algebra = algebra
        self.calculus = calculus

    def eval(self, node):
        kind = node[0]
        loc = node_location(node)
        if kind == "num":
            return RationalFunction.from_value(self.params, node[1])
        if kind == "name":
            value = self.env.get(node[1])
            if value is None:
                raise ModelSemanticError("unknown name %r" % node[1],
                                         loc[0], loc[1])
            return value
        if kind == "call":
            return self._call(node)
        if kind == "neg":
            return -self.eval(node[1])
        if kind == "pow":
            return self._pow(node)
        if kind == "bin":
            return self._bin(node)
        raise ValueError("unknown node kind %r" % kind)

    def _call(self, node):
        fname, arg, loc = node[1], node[2], node_location(node)
        if fname == "inner":
            if arg is not None:
                raise ModelSemanticError("inner() takes no argument",
                                         loc[0], loc[1])
            if self.calculus is None:
                raise ModelSemanticError("inner() needs a calc block",
                                         loc[0], loc[1])
            return self.calculus.inner_form()
        if fname == "d":
            if arg is None:
                raise ModelSemanticError("d(...) needs an argument",
                                         loc[0], loc[1])
            if self.calculus is None:
                raise ModelSemanticError("d(...) needs a calc block",
                                         loc[0], loc[1])
            value = self.eval(arg)
            return self.calculus.d(self.calculus.embed(value))
        raise ModelSemanticError("unknown function %r" % fname, loc[0], loc[1])

    def _pow(self, node):
        base = self.eval(node[1])
        n = node[2]
        loc = node_location(node)
        if isinstance(base, RationalFunction):
            try:
                return base ** n
            except ZeroDivisionError:
                raise ModelSemanticError("zero raised to a negative power",
                                         loc[0], loc[1]) from None
        if isinstance(base, Element):
            if n >= 0:
                return base ** n
            return _invert_element(base, loc) ** (-n)
        raise ModelSemanticError("cannot raise a form to a power",
                                 loc[0], loc[1])

    def _bin(self, node):
        op = node[1]
        left = self.eval(node[2])
        right = self.eval(node[3])
        loc = node_location(node)
        if op == "/":
            if not isinstance(right, RationalFunction):
                raise ModelSemanticError(
                    "division by a noncommutative expression", loc[0], loc[1])
            if right.is_zero():
                raise ModelSemanticError("division by zero", loc[0], loc[1])
            if isinstance(left, RationalFunction):
                return left / right
            return left * right.inverse()
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
        except (AlgebraError, CalculusError) as exc:
            raise ModelSemanticError(str(exc), loc[0], loc[1]) from None
        raise ValueError("unknown operator %r" % op)


def _invert_element(element: Element, loc) -> Element:
    """The inverse of a lone generator symbol, which must be invertible."""
    if len(element.terms) == 1:
        (word, coeff), = element.terms.items()
        if len(word) == 1 and coeff.is_one():
            sym, count = word[0]
            table = element.algebra.table
            partner = table.inverse_index.get(sym)
            if partner is None:
                raise ModelSemanticError(
                    "generator %r is not invertible" % table.symbols[sym],
                    loc[0], loc[1])
            return Element(element.algebra, {((partner, count),): coeff})
    raise ModelSemanticError(
        "negative powers need a single invertible generator", loc[0], loc[1])


def _rule_free_algebra(params: ParameterSet, table: GeneratorTable) -> Algebra:
    """An algebra on the table whose products only concatenate words."""
    algebra = Algebra(params, table)
    algebra.rules.clear()
    algebra.rules_changed()
    return algebra


def _free_terms(node, free: Algebra, param_env: dict) -> dict:
    """Evaluate an expression over a rule-free algebra into a word sum."""
    env = dict(param_env)
    for name in free.table.base_names:
        env[name] = free.gen(name)
    value = _Evaluator(env, free.params, free, None).eval(node)
    if isinstance(value, RationalFunction):
        value = free.scalar(value)
    return value.terms


def build_model(doc: ModelDocument, substitute: bool = True,
                verify: bool = True) -> ModelBundle:
    """Evaluate a document into a bundle of live objects."""
    params = ParameterSet(doc.params)
    param_env = {n: RationalFunction.parameter(params, n) for n in doc.params}
    table = GeneratorTable(doc.gens, doc.invertible)
    algebra = Algebra(params, table)
    free_words = _rule_free_algebra(params, table)
    env = dict(param_env)
    for sym_name in table.symbols:
        env[sym_name] = algebra.symbol_element(table.index(sym_name))
    autos = {}
    calculus = None
    geometry = None
    extensions_by_auto = {}
    named = {}
    metrics = {}
    connections = {}
    checks = []
    substitutions = {}
    theta_positions = {}

    def evaluator():
        return _Evaluator(env, params, algebra, calculus)

    for stmt in doc.statements:
        kind = stmt.kind
        if kind == "model":
            continue
        if kind in ("param", "gen", "invertible"):
            continue
        if kind == "rel":
            lhs = _free_terms(stmt.data[0], free_words, param_env)
            rhs = _free_terms(stmt.data[1], free_words, param_env)
            try:
                algebra.add_relation(lhs, rhs)
            except AlgebraError as exc:
                raise ModelSemanticError(str(exc), stmt.line, stmt.col) from None
            continue
        if kind == "subst":
            if substitute:
                target, expr = stmt.data
                value = _Evaluator(param_env, params, None, None).eval(expr)
                param_env[target] = value
                env[target] = value
                substitutions[target] = value
            continue
        if kind == "auto":
            name, entries = stmt.data
            algebra.normalize_rules()
            images = {}
            for gen_name, expr in entries:
                value = evaluator().eval(expr)
                if isinstance(value, RationalFunction):
                    value = algebra.scalar(value)
                if not isinstance(value, Element):
                    raise ModelSemanticError(
                        "image of %r must be an element" % gen_name,
                        stmt.line, stmt.col)
                images[gen_name] = value
            try:
                endo = Endomorphism(algebra, images, name)
            except MorphismError as exc:
                raise ModelSemanticError(str(exc), stmt.line, stmt.col) from None
            if verify and not endo.respects_relations():
                raise ModelSemanticError(
                    "%r does not respect the relations" % name,
                    stmt.line, stmt.col)
            autos[name] = endo
            continue
        if kind == "calc":
            data = stmt.data
            labels = data["thetas"]
            theta_positions = {lab: i for i, lab in enumerate(labels)}
            twists = {lab: autos[a] for lab, a in data["twists"]}
            weights = {}
            for lab, expr in data["weights"]:
                value = evaluator().eval(expr)
                if isinstance(value, RationalFunction):
                    value = algebra.scalar(value)
                if not isinstance(value, Element):
                    raise ModelSemanticError(
                        "weight of %r must be an element" % lab,
                        stmt.line, stmt.col)
                weights[lab] = value
            free_thetas = _rule_free_algebra(params, GeneratorTable(labels))
            theta_rules = {}
            for lab1, lab2, expr in data["wedges"]:
                terms = _free_terms(expr, free_thetas, param_env)
                entries = []
                for word, rf in terms.items():
                    key = tuple(labels[s] for s in word_letters(word))
                    if len(key) != 2:
                        raise ModelSemanticError(
                            "wedge rule must be a sum of basis pairs",
                            stmt.line, stmt.col)
                    entries.append((rf, key))
                theta_rules[(lab1, lab2)] = sorted(entries, key=lambda e: e[1])
            try:
                calculus = Calculus(algebra, labels, twists, weights,
                                    theta_rules)
            except CalculusError as exc:
                raise ModelSemanticError(str(exc), stmt.line, stmt.col) from None
            for lab in labels:
                env[lab] = calculus.theta(lab)
            continue
        if kind == "extension":
            name, entries = stmt.data
            if calculus is None:
                raise ModelSemanticError("extension needs a calc block",
                                         stmt.line, stmt.col)
            action = {}
            for lab, expr in entries:
                value = evaluator().eval(expr)
                if not isinstance(value, Form):
                    raise ModelSemanticError(
                        "extension image of %r must be a one-form" % lab,
                        stmt.line, stmt.col)
                row = []
                for key, coeff in value.terms.items():
                    scalar = _scalar_of(coeff)
                    if len(key) != 1 or scalar is None:
                        raise ModelSemanticError(
                            "extension image of %r must be a coefficient "
                            "combination of basis forms" % lab,
                            stmt.line, stmt.col)
                    row.append((scalar, calculus.labels[key[0]]))
                action[lab] = sorted(row, key=lambda e: e[1])
            try:
                ext = FormExtension(calculus, autos[name], action)
            except GeometryError as exc:
                raise ModelSemanticError(str(exc), stmt.line, stmt.col) from None
            extensions_by_auto[name] = ext
            continue
        if kind == "let":
            name, expr = stmt.data
            value = evaluator().eval(expr)
            named[name] = value
            env[name] = value
            continue
        if kind == "metric":
            name, entries = stmt.data
            if calculus is None:
                raise ModelSemanticError("metric needs a calc block",
                                         stmt.line, stmt.col)
            terms = {}
            for lab1, lab2, expr in entries:
                value = evaluator().eval(expr)
                if isinstance(value, RationalFunction):
                    value = algebra.scalar(value)
                if not isinstance(value, Element):
                    raise ModelSemanticError(
                        "metric entries must be elements", stmt.line, stmt.col)
                key = (theta_positions[lab1], theta_positions[lab2])
                terms[key] = terms.get(key, algebra.zero()) + value
            metrics[name] = TensorForm(calculus, terms)
            continue
        if kind == "connection":
            name, entries = stmt.data
            if calculus is None:
                raise ModelSemanticError("connection needs a calc block",
                                         stmt.line, stmt.col)
            table_entries = {}
            for index, basis, expr in entries:
                value = evaluator().eval(expr)
                value = calculus.embed(value)
                direction = calculus.labels[index - 1]
                table_entries[(direction, basis)] = value
            geometry = _ensure_geometry(calculus, extensions_by_auto, doc,
                                        geometry)
            try:
                connections[name] = Connection(geometry, table_entries, name)
            except GeometryError as exc:
                raise ModelSemanticError(str(exc), stmt.line, stmt.col) from None
            continue
        if kind == "check":
            name, lhs_expr, rhs_expr = stmt.data
            lhs = evaluator().eval(lhs_expr)
            rhs = evaluator().eval(rhs_expr)
            lhs, rhs = _align_pair(lhs, rhs, algebra, calculus,
                                   stmt.line, stmt.col)
            checks.append(CheckCase(name, lhs, rhs))
            continue
        raise ModelSemanticError("unknown statement %r" % kind,
                                 stmt.line, stmt.col)

    algebra.normalize_rules()
    if calculus is not None:
        geometry = _ensure_geometry(calculus, extensions_by_auto, doc, geometry)
    bundle = ModelBundle(doc, doc.name, params, algebra, autos, calculus,
                         geometry, named, metrics, connections, checks,
                         substitutions, env)
    bundle.extensions_by_auto = extensions_by_auto
    return bundle


def _scalar_of(element: Element):
    if not element.terms:
        return RationalFunction.from_value(element.algebra.params, 0)
    if len(element.terms) != 1 or () not in element.terms:
        return None
    return element.terms[()]


def _align_pair(lhs, rhs, algebra, calculus, line, col):
    values = [lhs, rhs]
    if any(isinstance(v, Form) for v in values):
        if calculus is None:
            raise ModelSemanticError("form comparison needs a calc block",
                                     line, col)
        return calculus.embed(lhs), calculus.embed(rhs)
    out = []
    for v in values:
        if isinstance(v, RationalFunction):
            v = algebra.scalar(v)
        out.append(v)
    return out[0], out[1]


def _ensure_geometry(calculus, extensions_by_auto, doc, geometry):
    if geometry is not None:
        return geometry
    by_label = {}
    for lab in calculus.labels:
        endo = calculus.twists[lab]
        for auto_name, ext in extensions_by_auto.items():
            if ext.base is endo:
                by_label[lab] = ext
                break
    return Geometry(calculus, by_label)


def load_model(text: str, substitute: bool = True,
               verify: bool = True) -> ModelBundle:
    return build_model(parse_model(text), substitute, verify)


def parse_coefficient(text: str, params: ParameterSet) -> RationalFunction:
    """Parse a coefficient expression over the given parameters."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expression()
    parser.expect_eof()
    env = {n: RationalFunction.parameter(params, n) for n in params.names}
    value = _Evaluator(env, params, None, None).eval(node)
    if not isinstance(value, RationalFunction):
        raise ModelSemanticError("expected a coefficient", 1, 1)
    return value


# -- export -------------------------------------------------------------------

def export_model(doc: ModelDocument) -> str:
    """Render a document back to model-file text."""
    lines = []
    for stmt in doc.statements:
        kind = stmt.kind
        data = stmt.data
        if kind == "model":
            lines.append('model "%s";' % data.replace('"', '\\"'))
        elif kind in ("param", "gen", "invertible"):
            lines.append("%s %s;" % (kind, ", ".join(data)))
        elif kind == "rel":
            lines.append("rel %s = %s;" % (expression_to_text(data[0]),
                                           expression_to_text(data[1])))
        elif kind == "subst":
            lines.append("subst %s = %s;" % (data[0],
                                             expression_to_text(data[1])))
        elif kind in ("auto", "extension"):
            lines.append("%s %s {" % (kind, data[0]))
            for source, expr in data[1]:
                lines.append("  %s -> %s;" % (source, expression_to_text(expr)))
            lines.append("}")
        elif kind == "calc":
            lines.append("calc {")
            lines.append("  theta %s;" % ", ".join(data["thetas"]))
            for lab, auto in data["twists"]:
                lines.append("  twist %s = %s;" % (lab, auto))
            for lab, expr in data["weights"]:
                lines.append("  weight %s = %s;" % (lab,
                                                    expression_to_text(expr)))
            for lab1, lab2, expr in data["wedges"]:
                lines.append("  wedge %s*%s = %s;"
                             % (lab1, lab2, expression_to_text(expr)))
            lines.append("}")
        elif kind == "let":
            lines.append("let %s = %s;" % (data[0], expression_to_text(data[1])))
        elif kind == "metric":
            lines.append("metric %s {" % data[0])
            for lab1, lab2, expr in data[1]:
                lines.append("  [%s, %s] = %s;" % (lab1, lab2,
                                                   expression_to_text(expr)))
            lines.append("}")
        elif kind == "connection":
            lines.append("connection %s {" % data[0])
            for index, basis, expr in data[1]:
                lines.append("  V%d[%s] = %s;" % (index, basis,
                                                  expression_to_text(expr)))
            lines.append("}")
        elif kind == "check":
            lines.append('check "%s": %s == %s;'
                         % (data[0].replace('"', '\\"'),
                            expression_to_text(data[1]),
                            expression_to_text(data[2])))
        else:
            raise ValueError("unknown statement kind %r" % kind)
    return "\n".join(lines) + "\n"
