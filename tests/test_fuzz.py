"""Seeded fuzzer for the command line.

Three families of cases run through ``cli.main``:

* expressions drawn from the grammar over the shipped models: scalars,
  parameters, generators and their inverses, basis forms and named values,
  ``d(...)``, ``inner()``, sums, products, division by scalars, powers and
  unary minus, evaluated by ``nf`` in every output format;
* the stress classes of inputs that crashed the engine once: integers past
  Python's 4300-digit limit, huge exponents, digits from other scripts and
  superscripts, nesting around the 100-level bound, long flat sums and
  products, and huge powers inside a ``rel`` of a model text;
* one-token mutations of the shipped quantum-torus text (a token deleted,
  doubled, or replaced by another token), each run through all four
  subcommands.

Every run is checked by three oracles:

* ``cli.main`` returns 0, 1 or 2, and no exception escapes it;
* a nonzero exit that prints nothing on stdout writes exactly one line,
  ``error: ...``, on stderr;
* an exit-0 plain ``nf`` value, evaluated again in the same bundle,
  differs from the value of the expression by zero.

Huge exponents sit on one generator, one parameter or, on the torus, one
word, and outside any division but ``(p^N + 1)/(p - 1)`` and its inverse,
whose division fails at ``p = 1``.  ``(q^N - 1)/(q - 1)`` is exact with N
terms, so no engine prints it for N = 10^4400, and ``(q^N + 1)/(q^2 + 1)``
fails only after N steps; the cases must end.

The cases of one seed are fixed.  ``tools/fuzz_sweep.py --seed S --cases N``
runs more of them with the same generator and oracles.
"""

import contextlib
import io
import os
import random
import re
import tempfile
import traceback

from ncdiff import cli
from ncdiff.models import model_source

MODELS = ("quantum-torus", "gl-pq2", "gl-pq2-localized")

# Past the 4300-digit limit of int <-> str; "1" then zeros keeps it readable.
HUGE_INT = "1" + "0" * 4400
# A generator power squares once per bit of its exponent, about a second
# for a 4400-digit one, so generators take the shorter exponents.
HUGE_EXPONENTS = ("100000000000", "9" * 40)
# Arabic-Indic 3 and fullwidth 7 are decimal digits; superscripts are not.
OTHER_DIGITS = ("\u0663", "\uff17", "\u00b2", "\u2074")

_TEXT_TOKEN = re.compile(r'"[^"\n]*"|->|==|[A-Za-z_][A-Za-z0-9_]*|\d+|\S')


class Vocabulary:
    """The names of one shipped model that expressions may use."""

    def __init__(self, bundle):
        table = bundle.algebra.table
        self.generators = list(table.base_names)
        self.inverses = [g + "^-1" for g in table.base_names
                         if g in table.invertible]
        self.params = list(bundle.params.names)
        self.thetas = list(bundle.calculus.labels)
        self.named = sorted(bundle.named)


def _scalar(rng):
    value = rng.choice(("0", "1", "2", "3", "7", "12"))
    if rng.random() < 0.2:
        return "%s/%d" % (value, rng.randint(2, 5))
    return value


def _atom(rng, vocab):
    kind = rng.randrange(10)
    if kind < 2:
        return _scalar(rng)
    if kind < 3:
        return rng.choice(vocab.params)
    if kind < 6:
        return rng.choice(vocab.generators)
    if kind < 7:
        return rng.choice(vocab.inverses)
    if kind < 8:
        return rng.choice(vocab.thetas)
    if kind < 9:
        return "inner()"
    return rng.choice(vocab.named)


def expression(rng, vocab, depth=3):
    """A random expression over the vocabulary, at most depth levels of
    operators deep."""
    if depth == 0 or rng.random() < 0.25:
        return _atom(rng, vocab)
    kind = rng.randrange(8)
    sub = depth - 1
    if kind < 3:
        parts = [expression(rng, vocab, sub)
                 for _ in range(rng.randint(2, 4))]
        out = parts[0]
        for part in parts[1:]:
            out += rng.choice((" + ", " - ", " - ")) + part
        return "(%s)" % out if rng.random() < 0.5 else out
    if kind < 5:
        parts = [expression(rng, vocab, sub)
                 for _ in range(rng.randint(2, 3))]
        out = "(%s)" % parts[0]
        for part in parts[1:]:
            out += "*(%s)" % part
        if rng.random() < 0.2:
            out += "/(%s)" % rng.choice(
                [_scalar(rng)] + ["%s - 1" % p for p in vocab.params])
        return out
    if kind < 6:
        return "-" + expression(rng, vocab, sub)
    if kind < 7:
        if rng.random() < 0.5:
            base = _atom(rng, vocab)
            return "%s^%d" % (base, rng.randint(-3, 4))
        return "(%s)^%d" % (expression(rng, vocab, min(sub, 1)),
                            rng.randint(0, 3))
    return "d(%s)" % expression(rng, vocab, sub)


def stress_expression(rng, vocab):
    """An expression from one of the classes that once crashed the engine."""
    kind = rng.randrange(7)
    gens, params = vocab.generators, vocab.params
    # Where every generator is a unit (the torus), every word is one term,
    # so a huge power may meet any generator or d.  A huge run that cancels
    # across another letter, x^N * y * x^-N, is left out: the rewriting
    # moves it one letter at a time, in time and memory linear in N.
    units = len(vocab.inverses) == len(gens)
    if kind == 0:
        g, p = rng.choice(gens), rng.choice(params)
        return rng.choice((HUGE_INT, "%s * %s" % (HUGE_INT, g),
                           "-%s + %s" % (HUGE_INT, g),
                           "%s / %s" % (g, HUGE_INT),
                           "(%s - %s)^2" % (HUGE_INT, p)))
    if kind == 1:
        n = rng.choice(HUGE_EXPONENTS)
        g, h = rng.choice(gens), rng.choice(gens)
        p = rng.choice(params)
        forms = ["%s^%s" % (rng.choice(params), HUGE_INT),
                 "%s^-%s * %s" % (rng.choice(params), n, g),
                 "%s^%s" % (g, n), "%s^-%s" % (g, n),
                 "%s^%s + %s" % (g, n, h),
                 "(%s^%s + 1)/(%s - 1)" % (p, n, p),
                 "(%s - 1)/(%s^%s + 1)" % (p, p, n)]
        if units:
            forms += ["d(%s^%s)" % (g, n), "(%s*%s)^%s" % (h, g, n)]
        return rng.choice(forms)
    if kind == 2:
        text = expression(rng, vocab, 2)
        digits = [m.start() for m in re.finditer(r"\d", text)]
        if not digits:
            return rng.choice(OTHER_DIGITS) + " * " + text
        i = rng.choice(digits)
        return text[:i] + rng.choice(OTHER_DIGITS) + text[i + 1:]
    if kind == 3:
        depth = rng.randint(95, 105)
        core = _atom(rng, vocab)
        return rng.choice(("(" * depth + core + ")" * depth,
                           "-" * depth + core,
                           "d(" * depth + core + ")" * depth))
    if kind == 4:
        return " + ".join(rng.choice(gens + params + ["1"])
                          for _ in range(rng.randint(1000, 3000)))
    if kind == 5:
        # Units and their inverses swap and cancel by scalars, so a long
        # word of them has a one-term normal form.
        letters = [g for g in gens if g + "^-1" in vocab.inverses]
        letters += vocab.inverses
        return "*".join(rng.choice(letters)
                        for _ in range(rng.randint(200, 600)))
    return "%s - %s" % (expression(rng, vocab, 2), expression(rng, vocab, 2))


def mutated_text(rng, text):
    """text with one token deleted, doubled, or replaced."""
    spans = [m.span() for m in _TEXT_TOKEN.finditer(text)]
    start, stop = rng.choice(spans)
    op = rng.randrange(4)
    if op == 0:
        new = ""
    elif op == 1:
        new = text[start:stop] * 2
    elif op == 2:
        a, b = rng.choice(spans)
        new = text[a:b]
    else:
        before = text[:start].rstrip()
        pool = ["0", "2", "-", "(", ";"] + list(OTHER_DIGITS)
        # No huge exponent: a twist r^-N puts (r^-N - 1)/(1 - r), a sum of
        # N terms, into the checks of the model.
        if not (before.endswith("^") or before.endswith("^-")):
            pool.append(HUGE_INT)
        new = rng.choice(pool)
    return text[:start] + new + text[stop:]


def rel_power_text(rng, text):
    """text with a huge power in its relation."""
    n = rng.choice(HUGE_EXPONENTS)
    rel = rng.choice(("rel x^%s = q*y;" % n,
                      "rel x^%s*y = q*y*x^%s;" % (n, n),
                      "rel x*y = q^%s*y*x;" % n,
                      "rel y^%s*x = x*y;" % n))
    return text.replace("rel x*y = q*y*x;", rel)


def run_cli(argv):
    """(exit code, stdout, stderr, traceback or None) of one cli.main run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):
            return None, out.getvalue(), err.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), err.getvalue(), None


class Fuzzer:
    """Runs cases against the oracles and keeps the failures and counts."""

    def __init__(self):
        self.failures = []
        self.runs = 0
        self.values = 0
        self._bundles = {}
        self._vocab = {}

    def bundle(self, spec):
        """The model of spec, loaded as the command line loads it; each
        builtin is loaded once."""
        if not spec.startswith("builtin:"):
            return cli._load_bundle(spec)
        if spec not in self._bundles:
            self._bundles[spec] = cli._load_bundle(spec)
        return self._bundles[spec]

    def vocabulary(self, model):
        if model not in self._vocab:
            self._vocab[model] = Vocabulary(self.bundle("builtin:" + model))
        return self._vocab[model]

    def fail(self, argv, reason):
        shown = [a if len(a) < 200 else a[:200] + "..." for a in argv]
        self.failures.append("%s: %s" % (shown, reason))

    def check(self, argv, expr=None):
        """Run argv and apply the oracles; a plain nf run passes its
        expression for the parse-back oracle."""
        self.runs += 1
        rc, out, err, trace = run_cli(argv)
        if trace is not None:
            self.fail(argv, "exception escaped:\n" + trace)
            return
        if rc not in (0, 1, 2):
            self.fail(argv, "exit code %r" % (rc,))
            return
        lines = err.splitlines()
        if rc != 0 and not out and (
                len(lines) != 1 or not lines[0].startswith("error: ")):
            self.fail(argv, "exit %d with stderr %r" % (rc, err[:300]))
        if rc == 0 and expr is not None:
            self.parse_back(argv, expr, out.rstrip("\n"))

    def parse_back(self, argv, expr, printed):
        """Evaluate the printed value in the model of the run, argv[1]."""
        self.values += 1
        try:
            bundle = self.bundle(argv[1])
            diff = bundle.eval_expression(printed) - bundle.eval_expression(expr)
        except Exception:
            self.fail(argv, "printed %r does not evaluate:\n%s"
                      % (printed[:300], traceback.format_exc()))
            return
        if not diff.is_zero():
            self.fail(argv, "printed %r differs from the value by %s"
                      % (printed[:300], str(diff)[:300]))

    def nf(self, spec, expr, fmt):
        argv = ["nf", spec, "--expr=" + expr]
        if fmt == "plain":
            self.check(argv, expr)
        else:
            self.check(argv + ["--format", fmt])

    def text(self, rng, text, directory):
        """Write a model text and run all four subcommands on it."""
        path = os.path.join(directory, "case.ncd")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.nf(path, expression(rng, self.vocabulary("quantum-torus"), 2),
                "plain")
        self.check(["verify", path, "--samples", "3",
                    "--seed", str(rng.randrange(100))])
        self.check(["relations", path, "--forms", "dx,dy",
                    "--elements", "x,y"])
        self.check(["confluence", path])

    def run(self, seed, cases):
        """Run cases cases of the seed: in turn an expression on each model,
        a stress expression on the torus and on gl-pq2, and a model text."""
        rng = random.Random(seed)
        torus = re.sub(r"#[^\n]*", "", model_source("quantum-torus"))
        kinds = ([("expr", m) for m in MODELS]
                 + [("stress", "quantum-torus"), ("stress", "gl-pq2"),
                    ("text", None)])
        with tempfile.TemporaryDirectory() as directory:
            for i in range(cases):
                kind, model = kinds[i % len(kinds)]
                if kind == "text":
                    text = (rel_power_text(rng, torus) if rng.random() < 0.1
                            else mutated_text(rng, torus))
                    self.text(rng, text, directory)
                    continue
                vocab = self.vocabulary(model)
                if kind == "expr":
                    expr = expression(rng, vocab)
                    fmt = rng.choice(("plain", "plain", "plain", "latex",
                                      "json"))
                else:
                    expr = stress_expression(rng, vocab)
                    fmt = "plain"
                self.nf("builtin:" + model, expr, fmt)
        return self


def test_fuzz_cli():
    fuzzer = Fuzzer().run(seed=0, cases=450)
    assert fuzzer.values > 200
    assert not fuzzer.failures, "\n\n".join(fuzzer.failures[:5])


def test_parse_back_catches_a_wrong_print():
    fuzzer = Fuzzer()
    fuzzer.parse_back(["nf", "builtin:quantum-torus"], "t1 - 2 - x",
                      "-2 + x + t1")
    assert len(fuzzer.failures) == 1
