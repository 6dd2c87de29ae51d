"""Pinned output of ``ncdiff verify`` across seeds and sample counts.

The goldens pin one seed with the default sample count.  This file pins a
digest of the exit code and stdout of ``ncdiff verify MODEL --seed S
--samples N`` for every model below, seeds 0-5 and N in {0, 1, 20}, so a
change in which random elements the sampled laws draw, in the order the
checks run, or in a witness shows up as a named case.  The models are the
three builtins, gl-pq2 without ``subst r = p*q;`` (its twists break the
relations, so the sampled Leibniz laws fail with ``sample N`` witnesses),
rank-3 to rank-5 quantum spaces, three edited quantum tori (one with a swap
twist, one with a symmetric wedge rule, one whose extension of phi2 sends
t2 to r*t2, which the derived basis action refutes) and a non-confluent
algebra.

After an intended change of output, regenerate the file with
``PYTHONPATH=src python tests/test_verify_pins.py`` and review the diff.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest

from ncdiff.models import model_source

ROOT = pathlib.Path(__file__).parent.parent
PIN_FILE = ROOT / "tests" / "data" / "verify_pins.json"

SEEDS = range(6)
SAMPLES = (0, 1, 20)

NON_CONFLUENT = """model "non-confluent";
param q, r;
gen x, y;
rel x*x = y;
rel y*x = q*x*y;
auto phi { x -> r*x; y -> r^2*y; }
calc {
  theta t;
  twist t = phi;
  weight t = 1;
  wedge t*t = 0;
}
"""


def _edited(text, old, new):
    if text.count(old) != 1:
        raise ValueError("%r does not occur once" % old)
    return text.replace(old, new)


def wrong_action_text(torus):
    """The torus whose extension of phi2 sends t2 to r*t2, not to t2."""
    return _edited(torus, "extension phi2 {\n  t1 -> t1;\n  t2 -> t2;",
                   "extension phi2 {\n  t1 -> t1;\n  t2 -> r*t2;")


def model_texts(workloads):
    """Model file texts by case name; builtins are addressed by name."""
    torus = model_source("quantum-torus")
    # The swap twist has no inverse, so the geometry after the calculus
    # block is cut off.
    swap = _edited(torus, "  x -> x;\n  y -> r^-1*y;", "  x -> y;\n  y -> x;")
    texts = {
        "gl-pq2-rfree": workloads.rfree_text(model_source("gl-pq2")),
        "torus-swap-twist": swap[:swap.index("extension phi1")],
        "torus-symmetric-wedge": _edited(torus, "wedge t2*t1 = -t1*t2;",
                                         "wedge t2*t1 = t1*t2;"),
        "non-confluent": NON_CONFLUENT,
        "torus-wrong-action": wrong_action_text(torus),
    }
    for n in (3, 4, 5):
        texts["rank-%d" % n] = workloads.rank_n_text(n, 7)
    return texts


BUILTINS = ("quantum-torus", "gl-pq2", "gl-pq2-localized")
MODELS = BUILTINS + ("gl-pq2-rfree", "rank-3", "rank-4", "rank-5",
                     "torus-swap-twist", "torus-symmetric-wedge",
                     "non-confluent", "torus-wrong-action")


def case_id(model, seed, samples):
    return "%s/seed%d/samples%d" % (model, seed, samples)


def pins(workloads, workdir, models=MODELS):
    """The digest of every case of the given models, by case id."""
    texts = model_texts(workloads)
    out = {}
    for model in models:
        if model in BUILTINS:
            spec = "builtin:" + model
        else:
            path = pathlib.Path(workdir) / (model + ".ncd")
            path.write_text(texts[model])
            spec = str(path)
        for seed in SEEDS:
            for samples in SAMPLES:
                code, stdout = workloads.run_cli(
                    ["verify", spec, "--seed", str(seed),
                     "--samples", str(samples)])
                digest = hashlib.sha256(
                    ("%d\n%s" % (code, stdout)).encode()).hexdigest()[:16]
                out[case_id(model, seed, samples)] = digest
    return out


@pytest.fixture(scope="module")
def workloads(repo_module):
    return repo_module("bench/workloads.py")


def _expected():
    return json.loads(PIN_FILE.read_text())


def test_case_ids_match_the_pin_file():
    ids = [case_id(m, s, n) for m in MODELS for s in SEEDS for n in SAMPLES]
    assert ids == list(_expected())


@pytest.mark.parametrize("model", MODELS)
def test_verify_output_matches_its_pin(model, workloads, tmp_path):
    expected = _expected()
    got = pins(workloads, tmp_path, (model,))
    wrong = sorted(k for k, digest in got.items() if expected[k] != digest)
    assert wrong == []


if __name__ == "__main__":
    import tempfile
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with tempfile.TemporaryDirectory() as workdir:
        table = pins(module, workdir)
    PIN_FILE.write_text(json.dumps(table, indent=1) + "\n")
    print("%d cases pinned" % len(table))
