"""Answer checks for the benchmark that owe nothing to the engine.

Every check reads the text the engine printed.  Expressions are read back
by a small evaluator of our own into sums of terms

    coefficient * (parameter monomial) * (generator word),

with words kept in order, so nothing from ncdiff is used to judge ncdiff.
Each check returns None for a right answer and a message otherwise.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|(.))")


def _tokens(text):
    out = []
    for number, name, punct in _TOKEN.findall(text):
        if number:
            out.append(("num", int(number)))
        elif name:
            out.append(("name", name))
        elif punct.strip():
            out.append(("op", punct))
    out.append(("end", None))
    return out


def _word_mul(left, right):
    runs = list(left)
    for gen, exp in right:
        if runs and runs[-1][0] == gen:
            total = runs[-1][1] + exp
            runs.pop()
            if total:
                runs.append((gen, total))
        else:
            runs.append((gen, exp))
    return tuple(runs)


def _mono_mul(left, right):
    exps = dict(left)
    for name, exp in right:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in exps.items() if e))


_ONE = ((), ())


def _terms(value):
    return value if isinstance(value, dict) else {_ONE: value}


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


def _mul(a, b):
    if not isinstance(a, dict) and not isinstance(b, dict):
        return a * b
    if not isinstance(b, dict):
        return _clean({k: c * b for k, c in a.items()})
    if not isinstance(a, dict):
        return _clean({k: a * c for k, c in b.items()})
    out = {}
    for (w1, m1), c1 in a.items():
        for (w2, m2), c2 in b.items():
            key = (_word_mul(w1, w2), _mono_mul(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return _clean(out)


def _add(a, b, sign=1):
    if not isinstance(a, dict) and not isinstance(b, dict):
        return a + sign * b
    out = dict(_terms(a))
    for key, c in _terms(b).items():
        out[key] = out.get(key, 0) + sign * c
    return _clean(out)


def _inverse(value):
    if not value:
        raise ValueError("division by zero")
    if not isinstance(value, dict):
        return 1 / Fraction(value)
    if len(value) != 1:
        raise ValueError("cannot invert a sum of %d terms" % len(value))
    ((word, mono), c), = value.items()
    return {(tuple((g, -e) for g, e in reversed(word)),
             tuple((n, -e) for n, e in mono)): 1 / Fraction(c)}


def _power(value, exp):
    if exp < 0:
        value, exp = _inverse(value), -exp
    if not isinstance(value, dict):
        return value ** exp
    if len(value) == 1:
        ((word, mono), c), = value.items()
        if len(word) <= 1:
            return {(tuple((g, e * exp) for g, e in word),
                     tuple((n, e * exp) for n, e in mono)): c ** exp}
    out = 1
    for _ in range(exp):
        out = _mul(out, value)
    return out


class _Reader:
    def __init__(self, text, generators, params_at_one):
        self.toks = _tokens(text)
        self.pos = 0
        self.generators = generators
        self.params_at_one = params_at_one

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None, value=None):
        tok = self.toks[self.pos]
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise ValueError("expected %s at token %d, got %r"
                             % (value or kind, self.pos, tok))
        self.pos += 1
        return tok

    def expression(self):
        value = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self.take()[1] == "+" else -1
            value = _add(value, self.term(), sign)
        return value

    def term(self):
        value = self.factor()
        while self.peek() in (("op", "*"), ("op", "/")):
            if self.take()[1] == "*":
                value = _mul(value, self.factor())
            else:
                value = _mul(value, _inverse(self.factor()))
        return value

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return _mul(-1, self.factor())
        value = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = -1 if self.peek() == ("op", "-") else 1
            if sign < 0:
                self.take()
            value = _power(value, sign * self.take("num")[1])
        return value

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return value
        if kind == "name":
            if value in self.generators:
                return {(((value, 1),), ()): 1}
            if self.params_at_one:
                return 1
            return {((), ((value, 1),)): 1}
        if (kind, value) == ("op", "("):
            inner = self.expression()
            self.take("op", ")")
            return inner
        raise ValueError("unexpected token %r" % ((kind, value),))


def read_value(text: str, generators, params_at_one=False) -> dict:
    """{(word, parameter monomial): Fraction} for one printed value.

    With params_at_one every parameter reads as 1, so the monomials are
    all empty.
    """
    reader = _Reader(text, frozenset(generators), params_at_one)
    value = reader.expression()
    reader.take("end")
    return _terms(value) if value else {}


def check_torus(code, text, expect):
    """A monomial product against its closed form q^e * word."""
    try:
        got = read_value(text, ("x", "y"))
    except ValueError as exc:
        return "unreadable output: %s" % exc
    want_mono = (("q", expect["q"]),) if expect["q"] else ()
    want = {(tuple(expect["word"]), want_mono): 1}
    if code != 0 or got != want:
        return "expected q^%d * %s" % (expect["q"], expect["word"])
    return None


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def multinomial(terms, k):
    """Commutative expansion of (sum c_i g_i)^k, keyed by letter multiset.

    The generators of one sum are distinct, so each exponent vector gives
    its own multiset.
    """
    out = {}
    for exps in _compositions(k, len(terms)):
        coeff = factorial(k)
        for e in exps:
            coeff //= factorial(e)
        for (_gen, c), e in zip(terms, exps):
            coeff *= c ** e
        key = tuple(sorted((gen, e) for (gen, _c), e in zip(terms, exps) if e))
        out[key] = Fraction(coeff)
    return out


def check_expand(code, text, expect, generators=("a", "b", "c", "d")):
    """At p = q = r = 1 the normal form collapses to the multinomial sums."""
    try:
        value = read_value(text, generators, params_at_one=True)
    except ValueError as exc:
        return "unreadable output: %s" % exc
    collapsed = {}
    for (word, _mono), c in value.items():
        exps = {}
        for gen, e in word:
            exps[gen] = exps.get(gen, 0) + e
        key = tuple(sorted(exps.items()))
        collapsed[key] = collapsed.get(key, 0) + c
    collapsed = {key: c for key, c in collapsed.items() if c}
    want = multinomial(list(expect["terms"]), expect["k"])
    if code != 0 or collapsed != want:
        wrong = sorted(set(collapsed.items()) ^ set(want.items()))[:3]
        return "multinomial mismatch, e.g. %s" % (wrong,)
    return None


_SUMMARY = re.compile(r"model (\S+): (\d+) passed, (\d+) failed$")


def verify_statuses(text):
    """{anchor: 'pass' | 'fail'} from plain `ncdiff verify` output."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    match = _SUMMARY.match(lines[-1])
    if match is None:
        raise ValueError("no summary line")
    statuses = {}
    for line in lines[:-1]:
        if line.startswith("     witness: "):
            continue
        status, _, anchor = line.partition(" ")
        anchor = anchor.strip()
        if status not in ("pass", "fail") or not anchor or anchor in statuses:
            raise ValueError("bad result line %r" % line)
        statuses[anchor] = status
    passed = sum(1 for s in statuses.values() if s == "pass")
    if (passed, len(statuses) - passed) != (int(match.group(2)),
                                            int(match.group(3))):
        raise ValueError("summary does not match the result lines")
    return statuses


def check_verify(code, text, expect):
    """The known verdict of a model: its exit code and check statuses."""
    try:
        statuses = verify_statuses(text)
    except ValueError as exc:
        return "unreadable output: %s" % exc
    failing = set(expect["failing"])
    if code != (1 if failing else 0):
        return "exit code %r" % code
    got_failing = {a for a, s in statuses.items() if s == "fail"}
    if failing and not failing <= got_failing:
        return "expected failures missing: %s" % sorted(failing - got_failing)
    if not failing and got_failing:
        return "unexpected failures: %s" % sorted(got_failing)
    for anchor in expect.get("passing", ()):
        if statuses.get(anchor) != "pass":
            return "%s should pass" % anchor
    if "checks" in expect and len(statuses) != expect["checks"]:
        return "expected %d checks, got %d" % (expect["checks"], len(statuses))
    return None


CHECKS = {"verify": check_verify, "nf-expand": check_expand,
          "nf-torus": check_torus}
