"""The model definition language: parsing, building, and export.

A model file declares parameters, generators, relations, automorphisms, a
calculus block, and optional named values, metrics, connections, and checks.
Statements are evaluated in source order; a ``subst`` statement changes how
parameter names evaluate in all later statements, which is how a model pins
a parameter combination (the shipped two-parameter model sets r = p*q after
its relations).  ``build_model`` turns a document into live objects; export
renders a document back to the text format so that parse, export, parse is
the identity on documents.

Documents are immutable: statements, name tables and every statement's
data are tuples, named tuples, strings, ints and expression trees.  So
parse_model memoizes on the source text, for the last _PARSE_MEMO_SIZE
texts parsed, and every parse of one text returns the one document; a
text that fails is parsed again and raises again on every call.

Two more memos keep values that depend only on immutable inputs, so
sharing them changes nothing a reader sees:

* ``_parse_expression_text`` (``nf -e``, ``ModelBundle.eval_expression``
  and ``parse_coefficient``) keeps the trees of the last
  _EXPRESSION_MEMO_SIZE (2048) texts of at most _EXPRESSION_MEMO_TEXT (32)
  characters it parsed.  A tree is tuples of strings, ints and tuples, so
  every parse of one text returns the one tree.  A tree takes about 1 KB,
  and at most about 160 bytes per character of its text, so the memo holds
  at most about 10 MB.  A longer text is parsed on every call: a fuzzed
  3000-term sum parses to a 0.9 MB tree.  A text that fails raises again
  on every call.
* ``build_model`` keeps, for each document it built to the end, its record
  (``_RECORDS``, see ``_Record``): over the document's ParameterSet and
  GeneratorTable, the free terms of its relations, the normalized rule
  table and its facts (the run index, the rule shapes as frozensets and the
  run-pair layout, see ``Algebra.rule_facts``), the terms of every value
  the build evaluated (automorphism images with each map's scales,
  weights, ``let`` values, wedge rules keyed by basis positions, extension
  rows, metric and connection entries), and the verdict of every check.
  All of it follows from the document alone, so every load, the first one
  included, constructs its bundle from the record: a fresh algebra on
  copies of the rules with empty memos, and fresh maps, calculus, geometry,
  environment and list of checks, each owning its dicts and lists.  A load
  evaluates no expression, normalizes, indexes or tests no rule, finds no
  scales, checks no wedge rule and subtracts no sides of a check; a
  ``verify=True`` load still checks its maps against the relations (on a
  first build, the evaluation checks the maps whose images the load's maps
  copy).  Besides its own dicts and lists a record holds only immutable
  values (words, coefficients, frozensets and tuples of ints, CheckCases,
  statements of the document and the two tables), so no load can change
  what another reads.  It is keyed on the document object and dropped with
  it, so there is at most one per live document; gl-pq2-localized's takes
  about 99 KB (tracemalloc), and the tests hold it under 150 KB.  A build
  that raises keeps no record, so every error and its location come from
  evaluation.

Every load still gets a bundle of its own: no algebra, element, map or memo
of the engine is shared between loads.
"""

from __future__ import annotations

import collections
import functools
import re
import weakref

from .algebra import (Algebra, AlgebraError, Element, GeneratorTable,
                      word_letters)
from .calculus import Calculus, Form, indexed_theta_rules
from .coeff import ParameterSet, RationalFunction, int_text, parse_int
from .geometry import Connection, FormExtension, Geometry, TensorForm
from .morphism import Endomorphism


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


def _error_at(stmt, message: str) -> ModelSemanticError:
    return ModelSemanticError(message, stmt.line, stmt.col)


# -- tokens -------------------------------------------------------------------

_PUNCT = {"->", "==", "{", "}", "(", ")", "[", "]", ";", ",", ":",
          "^", "*", "/", "+", "-", "="}


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
        if ch.isdecimal():
            start_col = col
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("number", parse_int(text[i:j]), line,
                                 start_col))
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
        punct = text[i:i + 2] if text[i:i + 2] in _PUNCT else ch
        if punct not in _PUNCT:
            raise ModelSyntaxError("unexpected character %r" % ch, line, col)
        tokens.append(_Token("punct", punct, line, col))
        i += len(punct)
        col += len(punct)
    tokens.append(_Token("eof", None, line, col))
    return tokens


# -- expression AST -----------------------------------------------------------
#
# Nodes are tuples whose last slot is the (line, col) location:
#   ("num", int, loc)          ("name", ident, loc)
#   ("call", fname, arg_or_None, loc)
#   ("neg", node, loc)         ("pow", node, exponent, loc)
#   ("chain", first, ((op, operand, op_loc), ...), loc)
# A chain is one whole sum (+ and -) or product (* and /), applied left to
# right, so no walker recurses once per operator.  Every walker recurses once
# per node level, and levels grow only through parentheses, call arguments
# and unary minus, which the parser bounds at _MAX_NESTING.


def _children(node):
    """The node's child expressions, left to right."""
    kind = node[0]
    if kind == "chain":
        return (node[1],) + tuple(link[1] for link in node[2])
    if kind in ("neg", "pow"):
        return (node[1],)
    if kind == "call" and node[2] is not None:
        return (node[2],)
    return ()


def _iter_nodes(node):
    """Every node of the expression, parents first, left to right."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def node_location(node):
    return node[-1]


def rename_atoms(node, mapping: dict):
    """A copy of the expression with name atoms renamed."""
    kind = node[0]
    if kind == "name":
        return ("name", mapping.get(node[1], node[1]), node[2])
    if kind == "chain":
        return ("chain", rename_atoms(node[1], mapping),
                tuple((op, rename_atoms(operand, mapping), loc)
                      for op, operand, loc in node[2]), node[3])
    if kind in ("neg", "pow"):
        return (kind, rename_atoms(node[1], mapping)) + node[2:]
    if kind == "call" and node[2] is not None:
        return ("call", node[1], rename_atoms(node[2], mapping), node[3])
    return node


def expression_to_text(node, required: int = 0) -> str:
    """Render an expression; reparsing yields the identical tree."""
    kind = node[0]
    if kind == "num":
        return int_text(node[1])
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
        text = "%s^%s" % (base, int_text(node[2]))
        return "(%s)" % text if required > 3 else text
    if kind == "chain":
        mine = 0 if node[2][0][0] in "+-" else 1
        text = expression_to_text(node[1], mine) + "".join(
            " %s %s" % (op, expression_to_text(operand, mine + 1))
            for op, operand, _ in node[2])
        return "(%s)" % text if required > mine else text
    raise ValueError("unknown node kind %r" % kind)


# -- statements ----------------------------------------------------------------

Statement = collections.namedtuple("Statement", "kind data line col")


class ModelDocument:
    """The parsed form of a model file: ordered statements plus the declared
    parameter, generator and invertible names, all tuples.  A document is
    immutable, so parses and loads share it."""

    def __init__(self, statements, name):
        self.statements = statements = tuple(statements)
        self.name = name
        self.params, self.gens, self.invertible = (
            tuple(n for stmt in statements if stmt.kind == kind
                  for n in stmt.data)
            for kind in ("param", "gen", "invertible"))

    def semantic_key(self):
        return (self.name, export_model(self))

    def __eq__(self, other):
        if other is self:
            return True
        return (isinstance(other, ModelDocument)
                and self.semantic_key() == other.semantic_key())


# The deepest nesting of parentheses, call arguments and unary minus an
# expression may have.  The parser and every expression walker recurse once
# per level, so past it a clean syntax error stands in for a RecursionError.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

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
        return self._chain(("+", "-"), self.parse_term)

    def parse_term(self):
        return self._chain(("*", "/"), self.parse_factor)

    def _chain(self, ops, operand):
        """operand (op operand)*, as one chain node.  A parenthesized chain
        of the same level in front is continued, not nested."""
        first = operand()
        links = []
        op = self.peek()
        while op.kind == "punct" and op.value in ops:
            self.advance()
            links.append((op.value, operand(), (op.line, op.col)))
            op = self.peek()
        if not links:
            return first
        if first[0] == "chain" and first[2][0][0] in ops:
            return ("chain", first[1], first[2] + tuple(links), first[3])
        return ("chain", first, tuple(links), links[0][2])

    def parse_factor(self):
        if self.at_punct("-"):
            op = self.advance()
            return ("neg", self._nested(op, self.parse_factor),
                    (op.line, op.col))
        return self.parse_power()

    def _nested(self, opener: _Token, parse):
        """parse() one nesting level below the opener token."""
        if self.depth == _MAX_NESTING:
            raise ModelSyntaxError("expression nests deeper than %d levels"
                                   % _MAX_NESTING, opener.line, opener.col)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

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
                opener = self.advance()
                if self.at_punct(")"):
                    self.advance()
                    return ("call", tok.value, None, (tok.line, tok.col))
                arg = self._nested(opener, self.parse_expression)
                self.expect_punct(")")
                return ("call", tok.value, arg, (tok.line, tok.col))
            return ("name", tok.value, (tok.line, tok.col))
        if tok.kind == "punct" and tok.value == "(":
            self.advance()
            node = self._nested(tok, self.parse_expression)
            self.expect_punct(")")
            return node
        raise ModelSyntaxError("expected an expression", tok.line, tok.col)

    def parse_ident_list(self):
        names = [self.expect_ident().value]
        while self.at_punct(","):
            self.advance()
            names.append(self.expect_ident().value)
        return tuple(names)

    def parse_transport_key(self) -> int:
        key = self.expect_ident("transport key")
        if not (key.value.startswith("V") and key.value[1:].isdecimal()):
            raise ModelSyntaxError(
                "transport key must look like V1", key.line, key.col)
        return parse_int(key.value[1:])


# Room for the builtins and a run's few generated texts; older texts are
# parsed again.
_PARSE_MEMO_SIZE = 32


@functools.lru_cache(maxsize=_PARSE_MEMO_SIZE)
def parse_model(text: str) -> ModelDocument:
    """Parse and statically check a model file, one statement at a time.
    Every parse of one text returns the one memoized, immutable document
    (see the module docstring)."""
    parser = _Parser(tokenize(text))
    statements = []
    stage = 0
    checker = _StaticChecker()
    while parser.peek().kind != "eof":
        stmt, spec = _parse_statement(parser, stage)
        stage = spec.stage
        spec.check(checker, stmt)
        statements.append(stmt)
    return ModelDocument(statements, "model" if checker.name is None
                         else checker.name)


def parse_statement(text: str) -> Statement:
    """Parse the text of one statement, without the static name checks."""
    parser = _Parser(tokenize(text))
    stmt, _ = _parse_statement(parser)
    parser.expect_eof()
    return stmt


def _parse_expression(text: str):
    parser = _Parser(tokenize(text))
    node = parser.parse_expression()
    parser.expect_eof()
    return node


# Room for the distinct short expressions of a long session: the nf-torus
# benchmark session meets about 1500 in 30 s, each under 16 characters.  The
# length limit bounds each tree (see the module docstring).
_EXPRESSION_MEMO_SIZE = 2048
_EXPRESSION_MEMO_TEXT = 32

_memoized_expression = functools.lru_cache(maxsize=_EXPRESSION_MEMO_SIZE)(
    _parse_expression)


def _parse_expression_text(text: str):
    """The expression tree of the text, memoized for short texts (see the
    module docstring)."""
    if len(text) > _EXPRESSION_MEMO_TEXT:
        return _parse_expression(text)
    return _memoized_expression(text)


def _parse_statement(parser: _Parser, stage: int = 0):
    """The statement at the parser and its entry in _KINDS; a kind whose
    stage is below ``stage`` is rejected before its body is read."""
    tok = parser.peek()
    if tok.kind != "ident":
        raise ModelSyntaxError("expected a statement keyword",
                               tok.line, tok.col)
    spec = _KINDS.get(tok.value)
    if spec is None:
        raise ModelSyntaxError("unknown statement %r" % tok.value,
                               tok.line, tok.col)
    if spec.stage < stage:
        raise ModelSyntaxError(
            "%r cannot appear after later sections" % tok.value,
            tok.line, tok.col)
    parser.advance()
    stmt = Statement(tok.value, spec.syntax.parse(parser), tok.line, tok.col)
    return stmt, spec


# -- surface syntax -----------------------------------------------------------
#
# Each statement kind writes its syntax once, as a template such as
# "<name> = <expr>;".  Punctuation in a template is expected literally and
# each <field> is read by its parser in _FIELDS; export substitutes the
# fields' printed texts into the same template, so reparsing exported text
# gives the same statements.

def _ident_field(what):
    return (lambda parser: parser.expect_ident(what).value, str)


_FIELDS = {
    "str": (lambda parser: parser.expect_string().value,
            lambda text: '"%s"' % text.replace('"', '\\"')),
    "ids": (_Parser.parse_ident_list, ", ".join),
    "expr": (_Parser.parse_expression, expression_to_text),
    "key": (_Parser.parse_transport_key, lambda index: "V" + int_text(index)),
    "ident": _ident_field("identifier"),
    "name": _ident_field("name"),
    "param": _ident_field("parameter name"),
    "label": _ident_field("basis label"),
    "auto": _ident_field("automorphism name"),
}

_TEMPLATE_TOKEN = re.compile(r"<(\w+)>|->|==|\S")


class _Line:
    """A template; one field parses to its value, several to a tuple."""

    def __init__(self, template: str):
        self.steps = [(_FIELDS[m.group(1)][0] if m.group(1) else None,
                       m.group())
                      for m in _TEMPLATE_TOKEN.finditer(template)]
        self.printers = [_FIELDS[f][1]
                         for f in re.findall(r"<(\w+)>", template)]
        self.format = re.sub(r"<\w+>", "%s", template)

    def parse(self, parser: _Parser):
        values = []
        for read, punct in self.steps:
            if read is None:
                parser.expect_punct(punct)
            else:
                values.append(read(parser))
        return values[0] if len(values) == 1 else tuple(values)

    def render(self, data) -> str:
        values = (data,) if len(self.printers) == 1 else data
        return self.format % tuple(
            show(value) for show, value in zip(self.printers, values))


class _Block:
    """``<name> { entry entry ... }``, parsed to (name, (entry, ...))."""

    _HEADER = _Line("<name> {")

    def __init__(self, entry: str):
        self.entry = _Line(entry)

    def parse(self, parser: _Parser):
        name = self._HEADER.parse(parser)
        entries = []
        while not parser.at_punct("}"):
            entries.append(self.entry.parse(parser))
        parser.expect_punct("}")
        return (name, tuple(entries))

    def render(self, data) -> str:
        name, entries = data
        lines = [self._HEADER.render(name)]
        lines += ["  " + self.entry.render(entry) for entry in entries]
        return "\n".join(lines + ["}"])


# A parsed calc block: theta labels, twists, weights and wedge rules.
_Calc = collections.namedtuple("_Calc", "thetas twists weights wedges")


class _CalcBlock:
    """``{ item item ... }`` with keyword-led items, grouped on parse.

    The parse gives a _Calc of tuples, one per item in ITEMS order; export
    prints one theta line (none for no labels), then each group in that
    order.
    """

    ITEMS = {"theta": _Line("<ids>;"),
             "twist": _Line("<label> = <auto>;"),
             "weight": _Line("<label> = <expr>;"),
             "wedge": _Line("<label>*<label> = <expr>;")}

    def parse(self, parser: _Parser):
        parser.expect_punct("{")
        groups = {item: [] for item in self.ITEMS}
        while not parser.at_punct("}"):
            item = parser.expect_ident("calc item").value
            if item not in self.ITEMS:
                tok = parser.peek()
                raise ModelSyntaxError("unknown calc item %r" % item,
                                       tok.line, tok.col)
            value = self.ITEMS[item].parse(parser)
            groups[item] += value if item == "theta" else [value]
        parser.expect_punct("}")
        return _Calc(*map(tuple, groups.values()))

    def render(self, data) -> str:
        lines = ["{"]
        for (item, syntax), entries in zip(self.ITEMS.items(), data):
            if item == "theta":
                entries = [entries] if entries else []
            lines += ["  %s %s" % (item, syntax.render(entry))
                      for entry in entries]
        return "\n".join(lines + ["}"])


# -- static checks ------------------------------------------------------------

class _StaticChecker:
    """Name and shape checks that run while parsing, one method per kind."""

    def __init__(self):
        self.name = None
        self.params = set()
        self.gens = set()
        self.invertible = set()
        self.thetas = set()
        self.lets = set()
        self.autos = set()
        self.seen = collections.defaultdict(set)
        self.seen_calc = False

    def _claim(self, seen, key, stmt, shown=None, clash=False):
        """Add key to seen; a repeat, or a clash elsewhere, is a duplicate."""
        if clash or key in seen:
            raise _error_at(stmt, "duplicate name %r"
                            % (key if shown is None else shown))
        seen.add(key)

    def _known(self, name):
        return (name in self.params or name in self.gens
                or name in self.thetas or name in self.lets)

    def _labels(self, stmt, *labels):
        for lab in labels:
            if lab not in self.thetas:
                raise _error_at(stmt, "unknown basis label %r" % lab)

    def _expression(self, expr, allowed, what, calls=False):
        """Names must be in allowed; calls must be d or inner, or absent.
        Every call is checked before any name."""
        unknown = None
        for node in _iter_nodes(expr):
            if node[0] == "call":
                if not calls:
                    raise ModelSemanticError(
                        "%s cannot use %s(...)" % (what, node[1]), *node[3])
                if node[1] not in ("d", "inner"):
                    raise ModelSemanticError(
                        "unknown function %r" % node[1], *node[3])
            elif (node[0] == "name" and unknown is None
                  and node[1] not in allowed):
                unknown = node
        if unknown is not None:
            raise ModelSemanticError(
                "unknown name %r in %s" % (unknown[1], what), *unknown[2])

    def _no_basis_powers(self, expr, labels):
        """Reject a power whose base holds a basis form.

        Nested offenders report the innermost one, where evaluation stops.
        """
        found = None
        scope = expr
        while True:
            hit = next((n for n in _iter_nodes(scope) if n[0] == "pow"
                        and any(m[0] == "name" and m[1] in labels
                                for m in _iter_nodes(n[1]))),
                       None)
            if hit is None:
                break
            found, scope = hit, hit[1]
        if found is not None:
            raise ModelSemanticError("cannot raise basis forms to a power",
                                     *node_location(found))

    def model(self, stmt):
        if self.name is not None:
            raise _error_at(stmt, "duplicate model statement")
        self.name = stmt.data

    def param(self, stmt):
        for n in stmt.data:
            self._claim(self.params, n, stmt)

    def gen(self, stmt):
        for n in stmt.data:
            self._claim(self.gens, n, stmt, clash=n in self.params)

    def invertible(self, stmt):
        for n in stmt.data:
            if n not in self.gens:
                raise _error_at(
                    stmt, "invertible name %r is not a generator" % n)
            self._claim(self.invertible, n, stmt)

    def rel(self, stmt):
        for side in stmt.data:
            self._expression(side, self.params | self.gens, "a relation")

    def subst(self, stmt):
        target, expr = stmt.data
        if target not in self.params:
            raise _error_at(
                stmt, "subst target %r is not a parameter" % target)
        self._expression(expr, self.params, "a substitution")

    def auto(self, stmt):
        name, entries = stmt.data
        self._claim(self.autos, name, stmt, clash=self._known(name))
        seen = set()
        for gen_name, expr in entries:
            if gen_name not in self.gens:
                raise _error_at(
                    stmt, "image for unknown generator %r" % gen_name)
            self._claim(seen, gen_name, stmt)
            self._expression(expr, self.params | self.gens,
                             "an automorphism image")
        missing = self.gens - seen
        if missing:
            raise _error_at(stmt, "automorphism %r has no image for %r"
                            % (name, sorted(missing)[0]))

    def calc(self, stmt):
        if self.seen_calc:
            raise _error_at(stmt, "duplicate calc block")
        self.seen_calc = True
        data = stmt.data
        for lab in data.thetas:
            self._claim(self.thetas, lab, stmt,
                        clash=self._known(lab) or lab in self.autos)
        twisted = set()
        for lab, auto in data.twists:
            self._labels(stmt, lab)
            if auto not in self.autos:
                raise _error_at(stmt, "unknown automorphism %r" % auto)
            self._claim(twisted, lab, stmt)
        weighted = set()
        for lab, expr in data.weights:
            self._labels(stmt, lab)
            self._claim(weighted, lab, stmt)
            self._expression(expr, self.params | self.gens | self.lets,
                             "a weight")
        for lab in data.thetas:
            if lab not in twisted:
                raise _error_at(stmt, "missing twist for %r" % lab)
            if lab not in weighted:
                raise _error_at(stmt, "missing weight for %r" % lab)
        for lab1, lab2, expr in data.wedges:
            self._labels(stmt, lab1, lab2)
            self._expression(expr, self.params | self.thetas, "a wedge rule")
            self._no_basis_powers(expr, self.thetas)

    def extension(self, stmt):
        name, entries = stmt.data
        if name not in self.autos:
            raise _error_at(stmt, "unknown automorphism %r" % name)
        self._claim(self.seen[stmt.kind], name, stmt)
        seen = set()
        for lab, expr in entries:
            self._labels(stmt, lab)
            self._claim(seen, lab, stmt)
            self._expression(expr, self.params | self.thetas,
                             "an extension image")

    def let(self, stmt):
        name, expr = stmt.data
        if self._known(name) or name in self.autos:
            raise _error_at(stmt, "duplicate name %r" % name)
        self._expression(expr, self.params | self.gens | self.thetas
                         | self.lets, "a definition", calls=True)
        self.lets.add(name)

    def metric(self, stmt):
        name, entries = stmt.data
        self._claim(self.seen[stmt.kind], name, stmt)
        seen = set()
        for lab1, lab2, expr in entries:
            self._labels(stmt, lab1, lab2)
            self._claim(seen, (lab1, lab2), stmt, "%s,%s" % (lab1, lab2))
            self._expression(expr, self.params | self.gens | self.lets,
                             "a metric entry")

    def connection(self, stmt):
        name, entries = stmt.data
        self._claim(self.seen[stmt.kind], name, stmt)
        seen = set()
        for index, basis, expr in entries:
            if not (1 <= index <= len(self.thetas)):
                raise _error_at(
                    stmt, "transport direction V%s is out of range"
                    % int_text(index))
            self._labels(stmt, basis)
            self._claim(seen, (index, basis), stmt,
                        "V%d[%s]" % (index, basis))
            self._expression(expr, self.params | self.gens | self.thetas
                             | self.lets, "a transport entry")

    def check(self, stmt):
        name, lhs, rhs = stmt.data
        self._claim(self.seen[stmt.kind], name, stmt)
        for side in (lhs, rhs):
            self._expression(side, self.params | self.gens | self.thetas
                             | self.lets, "a check", calls=True)


# -- building -----------------------------------------------------------------

# A named identity and its witness: None where it holds, else lhs - rhs.
CheckCase = collections.namedtuple("CheckCase", "name witness")


class ModelBundle:
    """Built model objects: algebra, automorphisms, calculus, geometry.

    A load fills the tables from its document's record, one step per
    statement (``_Filler``).  Every named value (parameter, generator, basis
    form, let definition) lives in one environment, read with value(name).

    ``checks`` lists the model's check statements as CheckCases, in
    statement order: the immutable verdicts of the document's first build,
    which evaluates both sides of every check at its statement, where an
    error is reported.
    """

    def __init__(self, doc, params, algebra, env):
        self.doc = doc
        self.name = doc.name
        self.params = params
        self.algebra = algebra
        self.autos = {}
        self.calculus = None
        self.geometry = None
        self.metrics = {}
        self.connections = {}
        self.checks = []
        self._env = env
        self.extras = {}

    def value(self, name: str):
        """The parameter, generator, basis form, or definition so named."""
        try:
            return self._env[name]
        except KeyError:
            raise KeyError("model has no value named %r" % name) from None

    def eval_expression(self, text: str):
        """Evaluate one expression in the model's environment."""
        return self._eval(_parse_expression_text(text))

    def _eval(self, node):
        return _Evaluator(self._env, self.params, self.calculus).eval(node)


class _Evaluator:
    """Evaluates expression trees into coefficients, elements, or forms."""

    def __init__(self, env: dict, params: ParameterSet, calculus):
        self.env = env
        self.params = params
        self.calculus = calculus

    def eval(self, node):
        kind = node[0]
        if kind == "num":
            return RationalFunction.from_value(self.params, node[1])
        if kind == "name":
            value = self.env.get(node[1])
            if value is None:
                raise ModelSemanticError("unknown name %r" % node[1], *node[2])
            return value
        if kind == "call":
            return self._call(node)
        if kind == "neg":
            return -self.eval(node[1])
        if kind == "pow":
            return self._pow(node)
        if kind == "chain":
            value = self.eval(node[1])
            for op, operand, loc in node[2]:
                value = self._apply(op, value, self.eval(operand), loc)
            return value
        raise ValueError("unknown node kind %r" % kind)

    def _call(self, node):
        fname, arg, loc = node[1], node[2], node_location(node)
        if fname == "inner":
            if arg is not None:
                raise ModelSemanticError("inner() takes no argument", *loc)
            if self.calculus is None:
                raise ModelSemanticError("inner() needs a calc block", *loc)
            return self.calculus.inner_form()
        if fname == "d":
            if arg is None:
                raise ModelSemanticError("d(...) needs an argument", *loc)
            if self.calculus is None:
                raise ModelSemanticError("d(...) needs a calc block", *loc)
            value = self.eval(arg)
            try:
                return self.calculus.d(value)
            except AlgebraError as exc:
                raise ModelSemanticError(str(exc), *loc) from None
        raise ModelSemanticError("unknown function %r" % fname, *loc)

    def _pow(self, node):
        base = self.eval(node[1])
        n = node[2]
        loc = node_location(node)
        if isinstance(base, RationalFunction):
            try:
                return base ** n
            except ZeroDivisionError:
                raise ModelSemanticError("zero raised to a negative power",
                                         *loc) from None
        if isinstance(base, Form):
            raise ModelSemanticError("cannot raise a form to a power", *loc)
        if n >= 0:
            return base ** n
        return _invert_element(base, loc) ** (-n)

    def _apply(self, op, left, right, loc):
        if op == "/":
            if not isinstance(right, RationalFunction):
                raise ModelSemanticError(
                    "division by a noncommutative expression", *loc)
            if right.is_zero():
                raise ModelSemanticError("division by zero", *loc)
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
        except AlgebraError as exc:
            raise ModelSemanticError(str(exc), *loc) from None
        raise ValueError("unknown operator %r" % op)


def _invert_element(element: Element, loc) -> Element:
    """The inverse of a lone generator symbol, which must be invertible."""
    if isinstance(element, Element) and len(element.terms) == 1:
        (word, coeff), = element.terms.items()
        if len(word) == 1 and coeff.is_one():
            sym, count = word[0]
            table = element.algebra.table
            partner = table.inverse_index.get(sym)
            if partner is None:
                raise ModelSemanticError("generator %r is not invertible"
                                         % table.symbols[sym], *loc)
            return element.algebra.element({((partner, count),): coeff})
    raise ModelSemanticError(
        "negative powers need a single invertible generator", *loc)


class _FreeAlgebra(Algebra):
    """An algebra on the table whose products only concatenate words, so
    that every word is its own normal form, with no rule scan and no memo."""

    def __init__(self, params: ParameterSet, table: GeneratorTable):
        super().__init__(params, table)
        self.rules.clear()
        self.rules_changed()

    def normal_form_word(self, word) -> dict:
        return {word: self._one}


def _free_terms(node, free: Algebra, param_env: dict) -> dict:
    """Evaluate an expression over a rule-free algebra into a word sum."""
    env = dict(param_env)
    for name in free.table.base_names:
        env[name] = free.gen(name)
    value = _Evaluator(env, free.params, None).eval(node)
    if isinstance(value, RationalFunction):
        value = free.scalar(value)
    return value.terms


def _located(stmt: Statement, make, *args):
    """make(*args), with an engine error reported at the statement."""
    try:
        return make(*args)
    except AlgebraError as exc:
        raise _error_at(stmt, str(exc)) from None


class _Record:
    """A document evaluated, free of any algebra: what every load of the
    document constructs its bundle from (see the module docstring).

    ``params`` and ``table`` are those every recorded value refers to, and
    ``names`` holds the value of each parameter name.  ``relations`` and
    ``rules`` are the free terms of the relations and the normalized rule
    table of the built algebra, and ``one`` is the algebra's 1, which its
    cancel rules hold: each load's algebra takes it as its own, so that
    a shape test after a later change of its rules finds it there by
    identity, as on the built algebra, and compares no coefficients.
    ``facts`` holds what
    depends on the rule table alone (``Algebra.rule_facts``): the run
    index, the rule shapes and the run-pair layout, which each load's
    algebra takes instead of deriving them again.  ``steps`` holds the
    rest, in statement order: each is the name of a _Filler method and its
    arguments, whose values are coefficients, recorded terms (``_kept``)
    or CheckCases.
    """

    __slots__ = ("params", "table", "names", "relations", "rules", "one",
                 "facts", "steps")

    def __init__(self, params: ParameterSet, table: GeneratorTable):
        self.params = params
        self.table = table
        self.names = {n: RationalFunction.parameter(params, n)
                      for n in params.names}
        self.relations = self.rules = self.one = self.facts = None
        self.steps = []


def _kept(value):
    """A value as a record keeps it: a coefficient as it is, an element as
    (Element, its terms), a form as (Form, the terms of each coefficient)."""
    if isinstance(value, Form):
        return Form, {key: elt.terms for key, elt in value.terms.items()}
    if isinstance(value, Element):
        return Element, value.terms
    return value


class _Filler:
    """Fills a bundle from the steps of a record, one method per step kind.

    Every element, form, map and table is made afresh from the recorded
    terms, so the bundle owns each dict and list it holds; it shares only
    immutable values with the record: words, coefficients, the
    ParameterSet and the GeneratorTable.
    """

    def __init__(self, doc: ModelDocument, record: _Record, algebra: Algebra,
                 verify: bool):
        self.verify = verify
        env = dict(record.names)
        for sym, sym_name in enumerate(record.table.symbols):
            env[sym_name] = algebra.symbol_element(sym)
        self.bundle = ModelBundle(doc, record.params, algebra, env)

    def _element(self, terms: dict) -> Element:
        return Element(self.bundle.algebra, dict(terms))

    def _made(self, kept):
        """The value that ``_kept`` recorded, made afresh."""
        if not isinstance(kept, tuple):
            return kept
        kind, terms = kept
        if kind is Element:
            return self._element(terms)
        return Form(self.bundle.calculus, {key: self._element(elt)
                                           for key, elt in terms.items()})

    def value(self, name: str, kept):
        self.bundle._env[name] = self._made(kept)

    def auto(self, stmt: Statement, images: dict, scales):
        name = stmt.data[0]
        algebra = self.bundle.algebra
        endo = Endomorphism.of_symbols(
            algebra, {sym: self._element(terms)
                      for sym, terms in images.items()}, scales, name)
        if self.verify and not endo.respects_relations():
            raise _error_at(stmt, "%r does not respect the relations" % name)
        self.bundle.autos[name] = endo

    def calc(self, stmt: Statement, weights: dict, theta_rules: dict):
        bundle = self.bundle
        labels = stmt.data.thetas
        twists = {lab: bundle.autos[a] for lab, a in stmt.data.twists}
        weights = {lab: self._element(terms)
                   for lab, terms in weights.items()}
        bundle.calculus = Calculus.of_indexed(bundle.algebra, labels, twists,
                                              weights, theta_rules)
        for lab in labels:
            bundle._env[lab] = bundle.calculus.theta(lab)
        bundle.geometry = Geometry(bundle.calculus, {})

    def extension(self, name: str, matrix: list):
        calculus = self.bundle.calculus
        base = self.bundle.autos[name]
        ext = FormExtension(calculus, base, [list(row) for row in matrix])
        for lab in calculus.labels:
            if calculus.twists[lab] is base:
                self.bundle.geometry.extensions[lab] = ext

    def metric(self, name: str, entries: dict):
        self.bundle.metrics[name] = TensorForm(
            self.bundle.calculus, {key: self._element(terms)
                                   for key, terms in entries.items()})

    def connection(self, stmt: Statement, entries: dict):
        bundle = self.bundle
        bundle.connections[stmt.data[0]] = _located(
            stmt, Connection, bundle.geometry,
            {key: self._made(kept) for key, kept in entries.items()})

    def check(self, case: CheckCase):
        self.bundle.checks.append(case)


class _Builder:
    """Evaluates a document into a _Record, one method per statement kind.

    Each statement's values become a record step, which fills the
    builder's own bundle as it will fill every load's, so each statement
    evaluates over the values that the statements before it give a load.
    """

    def __init__(self, doc: ModelDocument, verify: bool):
        self.doc = doc
        params = ParameterSet(doc.params)
        table = GeneratorTable(doc.gens, doc.invertible)
        self.record = _Record(params, table)
        self.param_env = dict(self.record.names)
        self.free_words = _FreeAlgebra(params, table)
        self.filler = _Filler(doc, self.record, Algebra(params, table), verify)
        self.bundle = self.filler.bundle

    def evaluate(self) -> _Record:
        """The document's record, evaluated one statement at a time, the
        rules normalized once where the relations end (stage 5 begins);
        the builder's bundle then holds what it gives a load."""
        statements = self.doc.statements
        late = next((i for i, stmt in enumerate(statements)
                     if _KINDS[stmt.kind].stage == 5), len(statements))
        for stmt in statements[:late]:
            _KINDS[stmt.kind].build(self, stmt)
        algebra = self.bundle.algebra
        algebra.normalize_rules()
        for stmt in statements[late:]:
            _KINDS[stmt.kind].build(self, stmt)
        self.record.relations = algebra.relations
        self.record.rules = algebra.rules
        self.record.one = algebra._one
        self.record.facts = algebra.rule_facts()
        return self.record

    def _step(self, kind: str, *args):
        self.record.steps.append((kind,) + args)
        getattr(self.filler, kind)(*args)

    def _element(self, expr, stmt: Statement, message: str, *args) -> Element:
        value = self.bundle._eval(expr)
        if isinstance(value, RationalFunction):
            value = self.bundle.algebra.scalar(value)
        if not isinstance(value, Element):
            raise _error_at(stmt, message % args)
        return value

    def _needs_calculus(self, stmt: Statement) -> Calculus:
        if self.bundle.calculus is None:
            raise _error_at(stmt, "%s needs a calc block" % stmt.kind)
        return self.bundle.calculus

    def rel(self, stmt):
        lhs, rhs = (_free_terms(side, self.free_words, self.param_env)
                    for side in stmt.data)
        _located(stmt, self.bundle.algebra.add_relation, lhs, rhs)

    def subst(self, stmt):
        target, expr = stmt.data
        value = _Evaluator(self.param_env, self.bundle.params, None).eval(expr)
        self.param_env[target] = value
        self._step("value", target, value)

    def auto(self, stmt):
        name, entries = stmt.data
        images = {gen_name: self._element(
                      expr, stmt, "image of %r must be an element", gen_name)
                  for gen_name, expr in entries}
        endo = _located(stmt, Endomorphism, self.bundle.algebra, images, name)
        self._step("auto", stmt, {sym: img.terms
                                  for sym, img in endo.images.items()},
                   endo._scales)

    def calc(self, stmt):
        data = stmt.data
        labels = data.thetas
        weights = {lab: self._element(expr, stmt, "weight of %r must be an "
                                      "element", lab).terms
                   for lab, expr in data.weights}
        free_thetas = _FreeAlgebra(self.bundle.params, GeneratorTable(labels))
        theta_rules = {}
        for lab1, lab2, expr in data.wedges:
            terms = _free_terms(expr, free_thetas, self.param_env)
            entries = []
            for word, rf in terms.items():
                key = tuple(labels[s] for s in word_letters(word))
                if len(key) != 2:
                    raise _error_at(
                        stmt, "wedge rule must be a sum of basis pairs")
                entries.append((rf, key))
            theta_rules[(lab1, lab2)] = sorted(entries, key=lambda e: e[1])
        self._step("calc", stmt, weights,
                   _located(stmt, indexed_theta_rules, labels, theta_rules))

    def extension(self, stmt):
        name, entries = stmt.data
        calculus = self._needs_calculus(stmt)
        zero = RationalFunction.from_value(self.bundle.params, 0)
        rows = {}
        for lab, expr in entries:
            value = self.bundle._eval(expr)
            if not isinstance(value, Form):
                raise _error_at(
                    stmt, "extension image of %r must be a one-form" % lab)
            row = rows[lab] = [zero] * len(calculus.labels)
            for key, coeff in value.terms.items():
                if len(key) != 1:
                    raise _error_at(stmt, "extension image of %r must be a "
                                    "coefficient combination of basis forms"
                                    % lab)
                row[key[0]] = coeff.terms[()]
        for lab in calculus.labels:
            if lab not in rows:
                raise _error_at(stmt, "missing theta image for %r" % lab)
        self._step("extension", name, [rows[lab] for lab in calculus.labels])

    def let(self, stmt):
        name, expr = stmt.data
        self._step("value", name, _kept(self.bundle._eval(expr)))

    def metric(self, stmt):
        name, entries = stmt.data
        calculus = self._needs_calculus(stmt)
        terms = {}
        for lab1, lab2, expr in entries:
            key = (calculus.labels.index(lab1), calculus.labels.index(lab2))
            terms[key] = self._element(
                expr, stmt, "metric entries must be elements").terms
        self._step("metric", name, terms)

    def connection(self, stmt):
        calculus = self._needs_calculus(stmt)
        table_entries = {}
        for index, basis, expr in stmt.data[1]:
            value = calculus.embed(self.bundle._eval(expr))
            table_entries[(calculus.labels[index - 1], basis)] = _kept(value)
        self._step("connection", stmt, table_entries)

    def check(self, stmt):
        """Record the check's verdict.  Subtraction embeds both sides as
        forms if either is a form, else a scalar as an element."""
        name, lhs, rhs = stmt.data
        difference = self.bundle._eval(lhs) - self.bundle._eval(rhs)
        if isinstance(difference, RationalFunction):
            difference = self.bundle.algebra.scalar(difference)
        self._step("check", CheckCase(
            name, None if difference.is_zero() else str(difference)))


def _construct(doc: ModelDocument, record: _Record,
               verify: bool) -> ModelBundle:
    """A bundle of its own for one load, made from the record: a fresh
    algebra on copies of the recorded rules and relations, with empty
    memos and the recorded facts of the rules, then every step in order.
    No expression is evaluated, no rule normalized or indexed, and no
    shape tested."""
    algebra = Algebra.presented(
        record.params, record.table, record.one,
        [(dict(lhs), dict(rhs)) for lhs, rhs in record.relations],
        {pair: [dict(rhs) for rhs in rhs_list]
         for pair, rhs_list in record.rules.items()}, record.facts)
    filler = _Filler(doc, record, algebra, verify)
    for kind, *args in record.steps:
        getattr(filler, kind)(*args)
    return filler.bundle


# The record of each document built to the end, keyed by its id.  An entry
# goes when its document does, so no id is read for another document.
_RECORDS = {}


def build_model(doc: ModelDocument, verify: bool = True) -> ModelBundle:
    """A bundle of live objects for the document, constructed from its
    record, which the document's first build evaluates.  A verified load
    checks its maps against the relations; on the first build the
    evaluation has checked the maps it made, whose images the load's maps
    copy, so they are not checked twice."""
    record = _RECORDS.get(id(doc))
    if record is None:
        record = _Builder(doc, verify).evaluate()
        _RECORDS[id(doc)] = record
        weakref.finalize(doc, _RECORDS.pop, id(doc), None)
        verify = False
    return _construct(doc, record, verify)


def load_model(text: str, verify: bool = True) -> ModelBundle:
    return build_model(parse_model(text), verify)


def parse_coefficient(text: str, params: ParameterSet) -> RationalFunction:
    """Parse a coefficient expression over the given parameters.  Every
    value there is a coefficient: names are parameters, and with no
    calculus every call raises."""
    env = {n: RationalFunction.parameter(params, n) for n in params.names}
    return _Evaluator(env, params, None).eval(_parse_expression_text(text))


# -- the statement kinds ------------------------------------------------------

# How each kind is written, checked and built.  ``stage`` orders the file:
# no statement may follow one of a higher stage.  The algebra's kinds have
# stages 0 to 4; every later kind has stage 5, so those come in any order,
# each name defined before use.  The declarations build nothing, since
# _Builder reads the declared names from the document up front.
_Kind = collections.namedtuple("_Kind", "stage syntax check build",
                               defaults=(lambda builder, stmt: None,))


_NAMES = _Line("<ids>;")
_IMAGES = _Block("<ident> -> <expr>;")

_KINDS = {
    "model": _Kind(0, _Line("<str>;"), _StaticChecker.model),
    "param": _Kind(1, _NAMES, _StaticChecker.param),
    "gen": _Kind(2, _NAMES, _StaticChecker.gen),
    "invertible": _Kind(3, _NAMES, _StaticChecker.invertible),
    "rel": _Kind(4, _Line("<expr> = <expr>;"), _StaticChecker.rel,
                 _Builder.rel),
    "subst": _Kind(5, _Line("<param> = <expr>;"), _StaticChecker.subst,
                   _Builder.subst),
    "auto": _Kind(5, _IMAGES, _StaticChecker.auto, _Builder.auto),
    "calc": _Kind(5, _CalcBlock(), _StaticChecker.calc, _Builder.calc),
    "extension": _Kind(5, _IMAGES, _StaticChecker.extension,
                       _Builder.extension),
    "let": _Kind(5, _Line("<name> = <expr>;"), _StaticChecker.let,
                 _Builder.let),
    "metric": _Kind(5, _Block("[<label>, <label>] = <expr>;"),
                    _StaticChecker.metric, _Builder.metric),
    "connection": _Kind(5, _Block("<key>[<label>] = <expr>;"),
                        _StaticChecker.connection, _Builder.connection),
    "check": _Kind(5, _Line("<str>: <expr> == <expr>;"),
                   _StaticChecker.check, _Builder.check),
}


def export_model(doc: ModelDocument) -> str:
    """Render a document back to model-file text."""
    return "\n".join("%s %s" % (stmt.kind,
                                _KINDS[stmt.kind].syntax.render(stmt.data))
                     for stmt in doc.statements) + "\n"
