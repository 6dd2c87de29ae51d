"""Run a longer seeded sweep of the command-line fuzzer.

    python3 tools/fuzz_sweep.py --seed 1 --cases 3000

The cases and the oracles are those of ``tests/test_fuzz.py``, which runs a
short sweep of seed 0 in the test suite: expressions over the shipped
models, the stress classes, and one-token mutations of the quantum-torus
text through all four subcommands, each expression case run twice, and
the nf and verify runs of each text that loads replayed over an empty
record table.  The sweep prints one line of counts and then every
failure, and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_fuzzer():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = importlib.util.spec_from_file_location(
        "test_fuzz", os.path.join(ROOT, "tests", "test_fuzz.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cases", type=int, default=3000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    fuzzer = load_fuzzer().Fuzzer().run(args.seed, args.cases)
    print("seed %d: %d cases, %d runs, %d values parsed back, %d texts "
          "loaded, %d checks read, %d repeats checked, %d replays "
          "checked, %d failures, %.1f s"
          % (args.seed, args.cases, fuzzer.runs, fuzzer.values,
             fuzzer.loaded, fuzzer.checks, fuzzer.repeats, fuzzer.replays,
             len(fuzzer.failures), time.perf_counter() - start))
    for failure in fuzzer.failures:
        print(failure)
    return 1 if fuzzer.failures else 0


if __name__ == "__main__":
    sys.exit(main())
