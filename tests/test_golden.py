"""Golden CLI outputs: stdout and exit code, byte for byte.

Each case runs one ``ncdiff`` command line in process and compares its
stdout with ``tests/golden/<case>.txt`` and its exit code with the table
below.  The ``{rfree}`` placeholder stands for the gl-pq2 model file with
its ``subst r = p*q;`` line removed, whose twists then break the relations.
The ``{wrong-action}`` placeholder stands for the quantum torus file whose
extension of phi2 sends t2 to r*t2; its extension and theta-action records
over t2 fail, with the witnesses of the direct probes.
The ``{rank-5}`` placeholder stands for the rank-5 quantum space of the
benchmark, ``rank_n_text(5, 7)`` of ``bench/workloads.py``, on which the
suite decides every automorphism, theta-action, extension and inverse
extension record without a probe.
The ``{localized}`` placeholder stands for the exported document of the
builtin gl-pq2-localized; its case shares the builtin's golden file, which
the table ``_SHARED_GOLDEN`` records.
The ``{two-tail}`` placeholder stands for ``tests/data/two_tail.ncd``, a
PBW algebra with two tail rules, d*a and e*c, on which the run-pair tables
of a power rewrite the blocks whose context they cannot carry.
The ``{check-kinds}`` placeholder stands for ``tests/data/check_kinds.ncd``,
whose checks fail with a witness of every kind: a scalar, a quotient, an
element, a form, and a scalar against a form; one check passes.  Its
goldens were written when every load copied the recorded sides of each
check and the suite subtracted them.

Each case runs twice in a row, and the second run, whose load constructs
its bundle from the record the first one kept, must give the same bytes.

After an intended output change, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import importlib.util
import io
import pathlib

import pytest

from ncdiff import dsl
from ncdiff.cli import main
from ncdiff.dsl import export_model
from ncdiff.models import build_glpq, model_source

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
DATA_DIR = pathlib.Path(__file__).parent / "data"
WORKLOADS = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"

_EXPRESSIONS = {
    "quantum-torus": "d(x*y) + y^-1*x*t1 - (1 - r)^-2*x^2",
    "gl-pq2": "d(a*d) + v4*b - (q/p)*D*t1",
    "gl-pq2-localized": "Dinv*a*D + d(Dinv)*c",
}

# A power of a sum of generators, whose value has many multi-term
# coefficients.
_EXPANSION = "(b + 3*d - 2*a + 2*c)^5"

# A power of a sum that takes every kind of step of the packed power: a
# Fraction coefficient, a multi-term base coefficient beside single-term
# ones, a multi-letter base word and the multi-term coefficients of the
# tail rule d*a.  The golden was written before products were added in one
# pass.
_MIXED_EXPANSION = "(1/2*a + (q + 1)*d - b*c)^4"

# A power of a sum whose coefficients have multi-term denominators, whose
# monomials also occur in numerators.  Its base coefficients are not over 1,
# so the power multiplies one factor at a time.  The golden was written
# before a print sorted the monomials of a value once.
_DENOMINATOR_EXPANSION = "(a/(q + 1) + d - b/(p + q))^3"

# A power of a sum on the quantum torus, inverse symbols included: a cold
# process takes its products in closed form, and the golden was written when
# they were rewritten step by step.
_TORUS_EXPANSION = "(x + 2*y^-1 - x*y)^6"

# A power of a sum on the two-tail text, whose tables meet blocks they
# cannot prove and rewrite them.  The golden was written when the tables
# were kept on the algebra.
_TWO_TAIL_EXPANSION = "(a^2 + d^2 + c - e)^3"

_RELATIONS = {
    "quantum-torus": ["--forms", "dx,dy", "--elements", "x,y"],
    "gl-pq2": ["--forms", "v1,v2,v3,v4", "--elements", "a,b,c,d"],
    "gl-pq2-localized": ["--forms", "t1,t2,t3,t4",
                         "--elements", "Dinv,a,b,D"],
}


def _cases():
    cases = []
    for model in ("quantum-torus", "gl-pq2", "gl-pq2-localized"):
        spec = "builtin:" + model
        for fmt in ("plain", "latex", "json"):
            cases.append(("%s.nf.%s" % (model, fmt),
                          ["nf", spec, "-e", _EXPRESSIONS[model],
                           "--format", fmt], 0))
        for fmt in ("plain", "json"):
            cases.append(("%s.verify.%s" % (model, fmt),
                          ["verify", spec, "--format", fmt], 0))
        for fmt in ("plain", "latex", "json"):
            cases.append(("%s.relations.%s" % (model, fmt),
                          ["relations", spec] + _RELATIONS[model]
                          + ["--format", fmt], 0))
        for fmt in ("plain", "json"):
            cases.append(("%s.confluence.%s" % (model, fmt),
                          ["confluence", spec, "--format", fmt], 0))
    for fmt in ("plain", "latex"):
        cases.append(("gl-pq2-expand.nf.%s" % fmt,
                      ["nf", "builtin:gl-pq2", "-e", _EXPANSION,
                       "--format", fmt], 0))
    for fmt in ("plain", "latex", "json"):
        cases.append(("gl-pq2-mixed-expand.nf.%s" % fmt,
                      ["nf", "builtin:gl-pq2", "-e", _MIXED_EXPANSION,
                       "--format", fmt], 0))
    for fmt in ("plain", "latex"):
        cases.append(("gl-pq2-denominators-expand.nf.%s" % fmt,
                      ["nf", "builtin:gl-pq2", "-e", _DENOMINATOR_EXPANSION,
                       "--format", fmt], 0))
    cases.append(("quantum-torus-expand.nf.plain",
                  ["nf", "builtin:quantum-torus", "-e", _TORUS_EXPANSION], 0))
    cases.append(("two-tail-expand.nf.plain",
                  ["nf", "{two-tail}", "-e", _TWO_TAIL_EXPANSION], 0))
    cases.append(("gl-pq2-rfree.verify.plain", ["verify", "{rfree}"], 1))
    cases.append(("torus-wrong-action.verify.plain",
                  ["verify", "{wrong-action}"], 1))
    cases.append(("rank-5.verify.plain", ["verify", "{rank-5}"], 0))
    for fmt in ("plain", "json"):
        cases.append(("check-kinds.verify.%s" % fmt,
                      ["verify", "{check-kinds}", "--format", fmt], 1))
    cases.append(("gl-pq2-localized-exported.nf.plain",
                  ["nf", "{localized}", "-e",
                   _EXPRESSIONS["gl-pq2-localized"]], 0))
    return cases


_SHARED_GOLDEN = {
    "gl-pq2-localized-exported.nf.plain": "gl-pq2-localized.nf.plain",
}


CASES = _cases()


def _rfree_source() -> str:
    text = model_source("gl-pq2")
    assert "subst r = p*q;\n" in text
    return text.replace("subst r = p*q;\n", "")


def _wrong_action_source() -> str:
    text = model_source("quantum-torus")
    old = "extension phi2 {\n  t1 -> t1;\n  t2 -> t2;"
    assert text.count(old) == 1
    return text.replace(old, "extension phi2 {\n  t1 -> t1;\n  t2 -> r*t2;")


def _rank_5_source() -> str:
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.rank_n_text(5, 7)


_PLACEHOLDERS = {
    "{rfree}": ("gl_pq2_rfree.ncd", _rfree_source),
    "{wrong-action}": ("wrong_action.ncd", _wrong_action_source),
    "{rank-5}": ("rank_5.ncd", _rank_5_source),
    "{localized}": ("gl_pq2_localized.ncd",
                    lambda: export_model(
                        build_glpq(adjoin_det_inverse=True).doc)),
    "{two-tail}": ("two_tail.ncd",
                   lambda: (DATA_DIR / "two_tail.ncd").read_text()),
    "{check-kinds}": ("check_kinds.ncd",
                      lambda: (DATA_DIR / "check_kinds.ncd").read_text()),
}


def _run(argv, tmp_dir: pathlib.Path):
    for placeholder, (filename, source) in _PLACEHOLDERS.items():
        if placeholder in argv:
            path = tmp_dir / filename
            path.write_text(source())
            argv = [str(path) if a == placeholder else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(autouse=True)
def clean_seed(monkeypatch):
    monkeypatch.delenv("NCDIFF_SEED", raising=False)


@pytest.mark.parametrize("name,argv,exit_code", CASES,
                         ids=[case[0] for case in CASES])
def test_golden(name, argv, exit_code, tmp_path, monkeypatch):
    """The case, then the case again in the same process, whose load
    constructs its bundle from the record the first run kept: no document
    is evaluated the second time."""
    rc, out = _run(argv, tmp_path)
    golden = _SHARED_GOLDEN.get(name, name)
    expected = (GOLDEN_DIR / (golden + ".txt")).read_bytes()
    assert out.encode() == expected
    assert rc == exit_code
    evaluated = []
    evaluate = dsl._Builder.evaluate
    monkeypatch.setattr(dsl._Builder, "evaluate", lambda builder: (
        evaluated.append(builder.doc.name) or evaluate(builder)))
    assert _run(argv, tmp_path) == (exit_code, expected.decode())
    assert evaluated == []


def test_golden_warm_in_reverse_order(tmp_path):
    """Every case again, last first, in the process that ran them all: the
    parse and document memos are then warm in another order than in the
    first pass, and each case still gives its golden bytes and exit code."""
    for name, argv, exit_code in reversed(CASES):
        rc, out = _run(argv, tmp_path)
        golden = _SHARED_GOLDEN.get(name, name)
        expected = (GOLDEN_DIR / (golden + ".txt")).read_bytes()
        assert (out.encode(), rc) == (expected, exit_code), name


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("NCDIFF_SEED", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, exit_code in CASES:
            if name in _SHARED_GOLDEN:
                continue
            rc, out = _run(argv, pathlib.Path(tmp))
            (GOLDEN_DIR / (name + ".txt")).write_bytes(out.encode())
            note = "" if rc == exit_code else " (exit %d, expected %d)" % (
                rc, exit_code)
            print("%s: %d bytes%s" % (name, len(out), note))
