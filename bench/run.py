"""ncdiff benchmark: one workload, one seed, end to end or traced.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ncdiff is imported from its src/.  Each
workload is a closed loop with one caller and no threads: the next op starts
when the previous one has returned.  The loop runs a fixed number of whole
rounds (see workloads.py): --seconds divided by the workload's nominal round
time, so two commits compared on one seed run the identical op list.  It
checks every answer against an oracle that does not use the engine, and
prints a summary followed by one JSON line with the end-to-end metrics.

With --trace 1 it instead runs a fixed number of rounds twice, once plain
and once with every ncdiff module wrapped by layertrace.Tracer, and prints the
per-layer metrics of the traced pass.  The op list is fixed per seed, so
the counts repeat exactly.

Every run also writes bench/out/<workload>-seed<seed>-trace<0|1>.json with
the environment, the metrics and every op's time, status and output digest.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
P90_MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify", "nf-expand", "nf-torus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_ncdiff(root: str) -> None:
    """Import ncdiff from the checkout at root, or exit."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ncdiff", "__init__.py")):
        sys.exit("error: no ncdiff sources under %s; run from the root of "
                 "an ncdiff checkout" % src)
    sys.path.insert(0, src)
    import ncdiff
    where = os.path.dirname(os.path.realpath(ncdiff.__file__))
    if where != os.path.realpath(os.path.join(src, "ncdiff")):
        sys.exit("error: imported ncdiff from %s, not from %s" % (where, src))


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "loadavg_at_start": os.getloadavg(),
            "commit": git_commit(root)}


def setup_probe(specs) -> float:
    """Wall time of a fresh interpreter that imports ncdiff and builds once.

    No timeout: with one, subprocess polls for the exit every 50 ms and the
    times come out in 50 ms steps.  The probe builds what the ops build, so
    it cannot hang where the ops would not.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")]
                   + specs, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_ops(workload, ops, session, tracer=None):
    """Run ops in order; one record per op with time, status and digest."""
    from oracle import CHECKS, verify_statuses
    check = CHECKS[workload.name]
    records = []
    for op in ops:
        call = (lambda op=op: session(op))
        start = time.perf_counter()
        try:
            code, text = call() if tracer is None else tracer.run_op(call)
        except Exception as exc:  # an op the engine fails is a measured outcome
            records.append({"op": op.label,
                            "seconds": time.perf_counter() - start,
                            "status": "error", "detail": type(exc).__name__,
                            "digest": None, "checks": 0})
            continue
        seconds = time.perf_counter() - start
        problem = check(code, text, op.expect)
        checks = 0
        if workload.name == "verify" and problem is None:
            checks = len(verify_statuses(text))
        records.append({"op": op.label, "seconds": seconds,
                        "status": "ok" if problem is None else "wrong",
                        "detail": problem,
                        "digest": hashlib.sha256(text.encode()).hexdigest(),
                        "checks": checks})
    return records


def smoothed_median(values):
    """Mean of the values between the 40th and 60th percentiles.

    A plain median of a few dozen ops is one op's time, and on a noisy
    machine one op can be 10% off; averaging the middle fifth keeps the
    median's meaning at a fraction of its noise.
    """
    ordered = sorted(values)
    n = len(ordered)
    middle = ordered[int(0.4 * n):max(int(0.4 * n) + 1, math.ceil(0.6 * n))]
    return sum(middle) / len(middle)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_digest(records) -> str:
    joined = "\n".join("%s %s" % (r["op"], r["digest"]) for r in records)
    return hashlib.sha256(joined.encode()).hexdigest()


def timed_run(workload, seconds):
    """A fixed number of whole rounds; e2e metrics."""
    total = max(1, round(seconds / workload.round_seconds))
    specs = workload.setup_specs()
    setup = [setup_probe(specs)]
    session = workload.session()
    records = []
    for done, ops in enumerate(itertools.islice(workload.rounds(), total), 1):
        records.extend(run_ops(workload, ops, session))
        # Set-up probes are spread over the run, so their median sees the
        # same spells of machine speed as the ops do.
        while len(setup) < 1 + (SETUP_REPEATS - 1) * done / total:
            setup.append(setup_probe(specs))
    busy = sum(r["seconds"] for r in records)
    ok = [r for r in records if r["status"] == "ok"]
    # A failed op counts as slower than every success.
    latencies = [r["seconds"] if r["status"] == "ok" else math.inf
                 for r in records]
    metrics = {
        "ops_per_s": (len(ok) / busy, "1/s"),
        "op_s.p50": (smoothed_median(latencies), "s"),
        "success_rate": (len(ok) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {"rounds": total, "ops": len(records),
             "error_rate": (len(records) - len(ok)) / len(records)}
    if workload.name == "verify":
        extra["checks_per_s"] = sum(r["checks"] for r in ok) / busy
    if len(records) >= P90_MIN_OPS:
        extra["op_s.p90"] = percentile(latencies, 0.9)
    return records, metrics, extra


def traced_run(workload):
    """A fixed op list, plain then traced; per-layer metrics."""
    from layertrace import LAYERS, Tracer
    rounds = list(itertools.islice(workload.rounds(), workload.trace_rounds))
    ops = [op for ops in rounds for op in ops]
    plain = run_ops(workload, ops, workload.session())
    tracer = Tracer()
    session = workload.session()
    tracer.install()
    try:
        records = run_ops(workload, ops, session, tracer)
    finally:
        tracer.uninstall()
    for before, after in zip(plain, records):
        if (before["status"], before["digest"]) != (after["status"],
                                                    after["digest"]):
            after["status"] = "wrong"
            after["detail"] = "traced outcome differs from the plain one"
    count = tracer.count
    exact_div = count("coeff.Polynomial.try_exact_divide")
    metrics = {"%s.self_s" % layer: (tracer.self_s[i], "s")
               for i, layer in enumerate(LAYERS)}
    metrics.update({
        "coeff.rf_new": (count("coeff.RationalFunction.__init__"), "count"),
        "coeff.poly_mul": (count("coeff.Polynomial.__mul__"), "count"),
        "coeff.eq": (count("coeff.RationalFunction.__eq__"), "count"),
        "coeff.exact_div": (exact_div, "count"),
        "coeff.exact_div.hit_ratio": (
            tracer.exact_div_hits / exact_div if exact_div else 0.0, "ratio"),
        "algebra.mul": (count("algebra.Element.__mul__"), "count"),
        "algebra.nf": (count("algebra.Algebra.normal_form_word"), "count"),
        "algebra.nf.distinct": (tracer.nf_distinct, "count"),
        "algebra.reductions": (tracer.reductions, "count"),
        "morphism.apply": (count("morphism.Endomorphism.apply",
                                 "morphism.Endomorphism.__call__"), "count"),
        "calculus.wedge": (count("calculus.Calculus.wedge"), "count"),
        "calculus.d": (count("calculus.Calculus.d"), "count"),
        "geometry.calls": (tracer.layer_calls("geometry"), "count"),
        "models.checks": (count("models.CheckResult.__init__"), "count"),
        "render.bytes": (tracer.render_bytes, "bytes"),
        "trace.wall_s": (tracer.wall_s, "s"),
        "trace.ops": (tracer.ops, "count"),
        "trace.overhead": (tracer.wall_s
                           / sum(r["seconds"] for r in plain), "ratio"),
    })
    extra = {"rounds": len(rounds), "ops": len(ops),
             "spans_recorded": len(tracer.spans),
             "spans_total": tracer.span_count,
             "calls": {name: cell[0] for name, cell in tracer.cells.items()
                       if cell[0]}}
    return records, metrics, extra, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    import_ncdiff(root)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    env = environment(root)
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, os.path.join(OUT, "models"))
    if args.trace:
        records, metrics, extra, tracer = traced_run(workload)
        tracer.write_spans(os.path.join(
            OUT, "spans-%s-seed%d.json" % (args.workload, args.seed)))
    else:
        records, metrics, extra = timed_run(workload, args.seconds)

    failed = sum(1 for r in records if r["status"] != "ok")
    correct = not any(r["status"] == "wrong" for r in records)
    extra["digest"] = run_digest(records)
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(metrics.items())}}
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "extra": extra, "ops": records}, handle, indent=1)

    print("workload %s seed %d: %d ops in %d rounds, %d failed, correct=%s"
          % (args.workload, args.seed, len(records), extra["rounds"], failed,
             correct))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-26s %14.6g %s" % (name, value, unit))
    for name, unit in (("checks_per_s", "1/s"), ("error_rate", "ratio"),
                       ("op_s.p90", "s (%d ops)" % len(records))):
        if name in extra:
            print("  %-26s %14.6g %s" % (name, extra[name], unit))
    tally = collections.Counter((r["status"], r["detail"]) for r in records
                                if r["status"] != "ok")
    for (status, detail), n in sorted(tally.items()):
        print("  %d ops %s: %s" % (n, status, detail))
    print("  digest %s" % extra["digest"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
