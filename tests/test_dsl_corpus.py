"""Diagnostic corpus: seeded model texts and the outcome of loading each.

Every case is one of the shipped models with its comments and blank lines
removed, then changed in one seeded way: a layout or order change that
keeps the model valid, or a one-fault mutant (a line dropped, duplicated or
swapped with another, two identifiers on a line swapped, a number or
parameter replaced by 0 or 1).  For each case ``load_model`` runs with
``verify`` on and off, and the outcome is compared with
``tests/data/dsl_corpus.json``: the exception class, message, line and
column, or, on success, a digest of the exported document.  An exception
other than a ``ModelError`` is recorded too, by class and text.

After an intended change of outcome, regenerate the file with
``PYTHONPATH=src python tests/test_dsl_corpus.py`` and review the diff.
"""

import hashlib
import json
import pathlib
import random
import re

import pytest

from ncdiff.dsl import ModelError, export_model, load_model
from ncdiff.models import model_source

CORPUS_FILE = pathlib.Path(__file__).parent / "data" / "dsl_corpus.json"

BASES = {"quantum-torus": 11, "gl-pq2": 12}
SAMPLES = {"quantum-torus": (None, 32), "gl-pq2": (64, 24)}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_STRING = re.compile(r'"[^"]*"')
_SPACED = re.compile(r"\s*(->|==|[-+*/^=;,:{}()\[\]])\s*")


def _statement_lines(name):
    return [line for line in model_source(name).splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


def _text(lines):
    return "\n".join(lines) + "\n"


def _outside_strings(line, pattern):
    quoted = [m.span() for m in _STRING.finditer(line)]
    return [m for m in pattern.finditer(line)
            if not any(a <= m.start() < b for a, b in quoted)]


def _blocks(lines, keyword):
    """(start, stop) line ranges of the statements opened by keyword."""
    out = []
    for i, line in enumerate(lines):
        if line.split(" ", 1)[0] == keyword:
            stop = i + 1
            if line.rstrip().endswith("{"):
                while lines[stop - 1].strip() != "}":
                    stop += 1
            out.append((i, stop))
    return out


def _reversed_blocks(lines, keyword):
    blocks = _blocks(lines, keyword)
    if len(blocks) < 2:
        return None
    first, last = blocks[0][0], blocks[-1][1]
    if any(b[0] != a[1] for a, b in zip(blocks, blocks[1:])):
        return None
    body = [lines[a:b] for a, b in reversed(blocks)]
    return lines[:first] + [line for block in body for line in block] \
        + lines[last:]


def _valid_variants(name, lines, rng):
    yield "original", model_source(name)
    yield "stripped", _text(lines)
    yield "one-line", " ".join(lines) + "\n"
    yield "indented", _text(["\t" * rng.randint(0, 2) + " " * rng.randint(0, 3)
                             + line for line in lines])
    yield "commented", _text([line + "  # note %d" % i if rng.random() < 0.3
                              else line for i, line in enumerate(lines)])
    yield "spaced", _text([line if '"' in line
                           else _SPACED.sub(r" \1 ", line).strip()
                           for line in lines])
    for keyword in ("auto", "extension", "check", "let"):
        moved = _reversed_blocks(lines, keyword)
        if moved is not None:
            yield "reversed-" + keyword, _text(moved)


def _swapped_identifiers(lines, rng, count):
    candidates = []
    for i, line in enumerate(lines):
        idents = _outside_strings(line, _IDENT)
        for a in range(len(idents)):
            for b in range(a + 1, len(idents)):
                if idents[a].group() != idents[b].group():
                    candidates.append((i, idents[a], idents[b]))
    for i, first, second in rng.sample(candidates,
                                       min(count, len(candidates))):
        line = lines[i]
        changed = (line[:first.start()] + second.group()
                   + line[first.end():second.start()] + first.group()
                   + line[second.end():])
        yield ("ident-%d-%d-%d" % (i + 1, first.start() + 1,
                                   second.start() + 1),
               _text(lines[:i] + [changed] + lines[i + 1:]))


def _replaced_scalars(lines, params, rng, count):
    word = re.compile(r"\b(\d+|%s)\b" % "|".join(params))
    candidates = [(i, m) for i, line in enumerate(lines)
                  for m in _outside_strings(line, word)]
    for i, match in rng.sample(candidates, min(count, len(candidates))):
        digit = rng.choice("01")
        line = lines[i]
        changed = line[:match.start()] + digit + line[match.end():]
        yield ("scalar-%d-%d-%s" % (i + 1, match.start() + 1, digit),
               _text(lines[:i] + [changed] + lines[i + 1:]))


def _mutants(lines, params, rng, drops, count):
    n = len(lines)
    dropped = range(n) if drops is None else sorted(rng.sample(range(n), drops))
    for i in dropped:
        yield "drop-%d" % (i + 1), _text(lines[:i] + lines[i + 1:])
    for i in sorted(rng.sample(range(n), count)):
        yield "dup-%d" % (i + 1), _text(lines[:i + 1] + lines[i:])
    for _ in range(count):
        i, j = sorted(rng.sample(range(n), 2))
        swapped = list(lines)
        swapped[i], swapped[j] = lines[j], lines[i]
        yield "swap-%d-%d" % (i + 1, j + 1), _text(swapped)
    yield from _swapped_identifiers(lines, rng, count)
    yield from _replaced_scalars(lines, params, rng, count)


def corpus_cases():
    """(case id, model text) pairs in a fixed order; ids and texts are
    distinct."""
    cases = []
    seen = set()
    for name, seed in BASES.items():
        rng = random.Random(seed)
        lines = _statement_lines(name)
        params = [p.strip(" ;") for line in lines if line.startswith("param ")
                  for p in line[len("param "):].split(",")]
        drops, count = SAMPLES[name]
        variants = list(_valid_variants(name, lines, rng))
        variants += list(_mutants(lines, params, rng, drops, count))
        for tag, text in variants:
            if text not in seen:
                seen.add(text)
                cases.append(("%s/%s" % (name, tag), text))
    assert len({case_id for case_id, _ in cases}) == len(cases)
    return cases


def outcome(text, verify):
    try:
        bundle = load_model(text, verify=verify)
    except ModelError as exc:
        return {"error": type(exc).__name__, "message": exc.message,
                "line": exc.line, "col": exc.col}
    except Exception as exc:  # recorded as it is, so a change shows up
        return {"error": type(exc).__name__, "message": str(exc)}
    exported = export_model(bundle.doc).encode()
    return {"ok": hashlib.sha256(exported).hexdigest()[:16]}


def outcomes(text):
    return {"verify": outcome(text, True), "no-verify": outcome(text, False)}


CASES = corpus_cases()


def _expected():
    return json.loads(CORPUS_FILE.read_text())


def test_case_ids_match_the_recorded_corpus():
    assert [case_id for case_id, _ in CASES] == list(_expected())


@pytest.mark.parametrize("base", list(BASES))
def test_outcomes_match_the_recorded_corpus(base):
    expected = _expected()
    wrong = {}
    for case_id, text in CASES:
        if case_id.startswith(base + "/"):
            got = outcomes(text)
            if got != expected.get(case_id):
                wrong[case_id] = {"got": got,
                                  "expected": expected.get(case_id)}
    assert wrong == {}


if __name__ == "__main__":
    CORPUS_FILE.parent.mkdir(exist_ok=True)
    table = {case_id: outcomes(text) for case_id, text in CASES}
    CORPUS_FILE.write_text(json.dumps(table, indent=1) + "\n")
    errors = sum("error" in row["verify"] for row in table.values())
    print("%d cases, %d fail to load with verify on" % (len(table), errors))
