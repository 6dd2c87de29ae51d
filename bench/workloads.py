"""Seeded inputs and op runners for the ncdiff benchmark workloads.

Each workload turns a seed into an endless stream of rounds.  A round is a
fixed mix of ops whose order and details come from the seed, so every run
sees the same mix of op sizes whatever the seed.  round_seconds is the
nominal time of one round, measured when the benchmark was defined on a
shared 2-vCPU Xeon VM; a run of --seconds executes --seconds / round_seconds
rounds, a fixed amount of work whatever the speed of the commit.  The engine only ever receives
the generated inputs: model texts, command lines and expressions.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import random

# The twists of gl-pq2 scale every generator, so they respect the relations
# without the tail a*d = d*a + (p - 1/q)*b*c exactly when lam_a*lam_d equals
# lam_b*lam_c.  From the scalings in the model file, that holds identically
# for phi4 and phit1 and only on r = p*q for the other six, so dropping the
# substitution must fail exactly these six automorphism checks.
RFREE_FAILING = ("phi1", "phi2", "phi3", "phit2", "phit3", "phit4")
RFREE_PASSING = ("phi4", "phit1")

VERIFY_BUILTINS = ("quantum-torus", "gl-pq2", "gl-pq2-localized")
RANKS = (3, 4, 5)


class Op:
    """One closed-loop request: a command line or an expression."""

    __slots__ = ("label", "argv", "expr", "expect")

    def __init__(self, label, argv=None, expr=None, expect=None):
        self.label = label
        self.argv = argv
        self.expr = expr
        self.expect = expect


def rank_n_text(n: int, seed: int) -> str:
    """A rank-n quantum space with a suffix-twist calculus, as model text.

    Relations x_j*x_i = q_ij*x_i*x_j, twists phi_a scaling x_a..x_n by
    r^-1, inner weights 1, anticommuting basis forms and identity
    extensions.  The seed permutes the declaration order of the
    generators and parameters, which changes rule orientation and
    exponent-vector layout but not the verdict: the structural suite
    passes all 7n+6 of its checks.
    """
    rng = random.Random(seed)
    gens = ["x%d" % i for i in range(1, n + 1)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    params = ["q%d%d" % pair for pair in pairs] + ["r"]
    declared_gens = gens[:]
    rng.shuffle(declared_gens)
    rng.shuffle(params)
    thetas = ["t%d" % a for a in range(1, n + 1)]
    lines = ['model "rank-%d";' % n,
             "param %s;" % ", ".join(params),
             "gen %s;" % ", ".join(declared_gens)]
    for i, j in pairs:
        lines.append("rel x%d*x%d = q%d%d*x%d*x%d;" % (j, i, i, j, i, j))
    for a in range(1, n + 1):
        images = " ".join("x%d -> %sx%d;" % (i, "r^-1*" if i >= a else "", i)
                          for i in range(1, n + 1))
        lines.append("auto phi%d { %s }" % (a, images))
    lines.append("calc {")
    lines.append("  theta %s;" % ", ".join(thetas))
    lines.extend("  twist t%d = phi%d;" % (a, a) for a in range(1, n + 1))
    lines.extend("  weight %s = 1;" % t for t in thetas)
    for b in range(1, n + 1):
        for a in range(1, b + 1):
            rhs = "0" if a == b else "-t%d*t%d" % (a, b)
            lines.append("  wedge t%d*t%d = %s;" % (b, a, rhs))
    lines.append("}")
    identity = " ".join("%s -> %s;" % (t, t) for t in thetas)
    for a in range(1, n + 1):
        lines.append("extension phi%d { %s }" % (a, identity))
    return "\n".join(lines) + "\n"


def rfree_text(gl_source: str) -> str:
    """gl-pq2 with its r = p*q substitution removed."""
    kept = [line for line in gl_source.splitlines()
            if line.strip() != "subst r = p*q;"]
    if len(kept) != len(gl_source.splitlines()) - 1:
        raise ValueError("gl-pq2 source has no single 'subst r = p*q;' line")
    return "\n".join(kept) + "\n"


def run_cli(argv):
    """ncdiff's command line in process: exit code and captured stdout."""
    from ncdiff import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class VerifyWorkload:
    """`ncdiff verify` over builtins, a negative model and rank-n spaces."""

    name = "verify"
    round_seconds = 7.2
    trace_rounds = 1

    def __init__(self, seed: int, workdir: str):
        from ncdiff.models import model_source
        self.seed = seed
        self.files = {}
        os.makedirs(workdir, exist_ok=True)
        texts = {"gl-pq2-rfree": rfree_text(model_source("gl-pq2"))}
        for n in RANKS:
            texts["rank-%d" % n] = rank_n_text(n, seed * 1000 + n)
        for label, text in texts.items():
            path = os.path.join(workdir, "%s-seed%d.ncd" % (label, seed))
            with open(path, "w") as handle:
                handle.write(text)
            self.files[label] = path

    def setup_specs(self):
        return (["builtin:%s" % name for name in VERIFY_BUILTINS]
                + sorted(self.files.values()))

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            models = [("builtin:%s" % name, name, {"failing": ()})
                      for name in VERIFY_BUILTINS]
            models.append((self.files["gl-pq2-rfree"], "gl-pq2-rfree",
                           {"failing": tuple("automorphism/%s" % a
                                             for a in RFREE_FAILING),
                            "passing": tuple("automorphism/%s" % a
                                             for a in RFREE_PASSING)}))
            for n in RANKS:
                models.append((self.files["rank-%d" % n], "rank-%d" % n,
                               {"failing": (), "checks": 7 * n + 6}))
            rng.shuffle(models)
            yield [Op("verify %s" % label,
                      argv=["verify", spec, "--seed",
                            str(rng.randrange(1 << 30))],
                      expect=expect)
                   for spec, label, expect in models]

    def session(self):
        return lambda op: run_cli(op.argv)


class ExpandWorkload:
    """`ncdiff nf builtin:gl-pq2 -e "(sum)^k"` with a cold bundle per op."""

    name = "nf-expand"
    round_seconds = 3.6
    trace_rounds = 1
    generators = ("a", "b", "c", "d")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup_specs(self):
        return ["builtin:gl-pq2"]

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            ops = []
            for k in range(4, 9):
                for m in (2, 3, 4):
                    gens = rng.sample(self.generators, m)
                    coeffs = [rng.choice((1, 2, 3)) * rng.choice((1, -1))
                              for _ in gens]
                    expr = "(%s)^%d" % (linear_text(zip(gens, coeffs)), k)
                    ops.append(Op("nf %s" % expr,
                                  argv=["nf", "builtin:gl-pq2", "-e", expr],
                                  expect={"terms": list(zip(gens, coeffs)),
                                          "k": k}))
            rng.shuffle(ops)
            yield ops

    def session(self):
        return lambda op: run_cli(op.argv)


def linear_text(terms) -> str:
    out = []
    for gen, c in terms:
        sign = "-" if c < 0 else "+"
        body = gen if abs(c) == 1 else "%d*%s" % (abs(c), gen)
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(" %s %s" % (sign, body))
    return "".join(out)


# Today's rewriting recurses three Python frames per reduction along a chain,
# so the default recursion limit lets a chain run for about 330 reductions.
# Sizes stay clear of that edge on both sides: successful ops need at most
# 200 chained reductions, which still fits when a tracing wrapper adds a
# frame per level, and past-limit ops need at least 529.
_MAX_CHAIN = 200
_PAST_LIMIT = (23, 40)
_YX_BINS = ((20, 49), (50, 79), (80, 109), (110, 139), (140, 169), (170, 200))
_SWAP_BINS = ((2, 4), (5, 9), (10, 19), (20, 39), (40, 69), (70, 100))
_CONJ_BINS = ((2, 4), (5, 9), (10, 19), (20, 34), (35, 54), (55, 79), (80, 99))


class TorusWorkload:
    """A long-lived quantum-torus session evaluating monomial products."""

    name = "nf-torus"
    round_seconds = 0.11
    trace_rounds = 10

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup_specs(self):
        return ["builtin:quantum-torus"]

    def rounds(self):
        # Sizes are drawn within fixed strata, so every round has the same
        # spread of chain lengths and runs differ only in the draws.
        rng = random.Random(self.seed)
        while True:
            ops = [_yx_power(rng.randint(lo, hi)) for lo, hi in _YX_BINS]
            for lo, hi in _SWAP_BINS:
                n = rng.randint(lo, hi)
                ops.append(_swap(n, rng.randint(2, _MAX_CHAIN // n)))
            for lo, hi in _CONJ_BINS:
                n = rng.randint(lo, hi)
                ops.append(_conjugate(n, rng.randint(2, _MAX_CHAIN // (n + 1))))
            n, m = rng.randint(*_PAST_LIMIT), rng.randint(*_PAST_LIMIT)
            ops.append(rng.choice((_swap, _conjugate))(n, m))
            rng.shuffle(ops)
            yield ops

    def session(self):
        from ncdiff.models import build_quantum_torus
        bundle = build_quantum_torus()
        return lambda op: (0, str(bundle.eval_expression(op.expr)))


def _yx_power(n):
    # (y*x)^n = q^(-n(n+1)/2) x^n y^n
    return Op("(y*x)^%d" % n, expr="(y*x)^%d" % n,
              expect={"q": -n * (n + 1) // 2, "word": (("x", n), ("y", n))})


def _swap(n, m):
    # y^n x^m = q^(-nm) x^m y^n
    return Op("y^%d*x^%d" % (n, m), expr="y^%d*x^%d" % (n, m),
              expect={"q": -n * m, "word": (("x", m), ("y", n))})


def _conjugate(n, m):
    # x^-m y^n x^m = q^(-nm) y^n
    return Op("x^-%d*y^%d*x^%d" % (m, n, m), expr="x^-%d*y^%d*x^%d" % (m, n, m),
              expect={"q": -n * m, "word": (("y", n),)})


WORKLOADS = {w.name: w for w in (VerifyWorkload, ExpandWorkload, TorusWorkload)}
