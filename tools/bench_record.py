"""Summarize alternating parent/change benchmark runs in one JSON file.

    python3 tools/bench_record.py --parent p/nf-torus-seed1-trace0.json ... \
        --change c/nf-torus-seed1-trace0.json ... --out BENCH_<tag>.json

Each input is a run file that bench/run.py writes to bench/out/.  Runs are
grouped by workload; within a workload the i-th parent run is paired with
the i-th change run.  For each side the record holds the seeds, the commits,
the Python versions and os.cpu_count() of the runs, each run's load average
at its start, and the median, q1 and q3 of every metric.  For each metric
whose direction BENCHMARK.json gives, it counts the pairs the change wins
(ties count for neither) and compares the gap between the medians with the
parent's interquartile range.  It also records, per pair, whether the two
runs had the same seed and the same run digest, which covers every op's
output digest.  A top-level ``host`` names the CPU model and kernel release
of the machine making the record, so a change of host shows.

    python3 tools/bench_record.py --parent ... --change ... \
        --control p2/nf-torus-seed1-trace0.json ... --out BENCH_<tag>.json

With ``--control``, a second set of parent runs, paired with the parent
runs as the change runs are, gives an A/A comparison: each workload also
records the control side, and each metric's comparison holds the control's
median ratio to the parent and its win count under ``control``.  A claim
is then read against the noise of its own session: a ratio the change
reaches is no gain if the control reaches it too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(q1, median, q3) of a non-empty list, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench["per_layer"]}


def load_runs(paths):
    """Run files grouped by workload, in the order given.

    A run that records its commit as ``unknown`` came from a copy without
    ``.git``, so a record made from it could not say what was measured;
    such a run is refused.
    """
    runs = {}
    for path in paths:
        with open(path) as handle:
            run = json.load(handle)
        if run["environment"]["commit"] == "unknown":
            raise SystemExit("error: %s records commit unknown; run the "
                             "benchmark in a checkout with .git" % path)
        runs.setdefault(run["args"]["workload"], []).append(run)
    return runs


def distinct(values):
    return sorted(set(values), key=str)


def summarize_side(runs):
    names = sorted({name for run in runs for name in run["result"]["metrics"]})
    metrics = {}
    for name in names:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                         "median": median, "q1": q1, "q3": q3,
                         "values": values}
    env = [run["environment"] for run in runs]
    return {"runs": len(runs),
            "seeds": [run["args"]["seed"] for run in runs],
            "seconds": distinct(run["args"]["seconds"] for run in runs),
            "commits": distinct(e["commit"] for e in env),
            "python": distinct(e["python"] for e in env),
            "cpu_count": distinct(e["cpu_count"] for e in env),
            "loadavg_at_start": [e["loadavg_at_start"] for e in env],
            "correct": all(run["result"]["correct"] for run in runs),
            "failed_ops": sum(run["result"]["failed"] for run in runs),
            "metrics": metrics}


def compare(parent, change, better):
    """Per-metric wins of the change over paired parent runs."""
    out = {}
    for name, p in parent["metrics"].items():
        c = change["metrics"].get(name)
        if c is None or name not in better:
            continue
        sign = 1 if better[name] == "higher" else -1
        pairs = list(zip(p["values"], c["values"]))
        gap = sign * (c["median"] - p["median"])
        out[name] = {"better": better[name],
                     "pairs": len(pairs),
                     "change_wins": sum(1 for a, b in pairs
                                        if sign * (b - a) > 0),
                     "parent_wins": sum(1 for a, b in pairs
                                        if sign * (b - a) < 0),
                     "median_gap": gap,
                     "parent_iqr": p["q3"] - p["q1"],
                     "ratio": (c["median"] / p["median"]
                               if p["median"] else None)}
    return out


def host():
    """The CPU model (None where /proc/cpuinfo names none) and the kernel
    release of this machine."""
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "kernel": platform.release()}


def paired_runs(parent_runs, other_runs, workload, side):
    """The runs of a workload on one side, as many as the parent's."""
    p_runs = parent_runs.get(workload, [])
    o_runs = other_runs.get(workload, [])
    if len(p_runs) != len(o_runs):
        raise SystemExit("error: %s has %d parent runs and %d %s runs"
                         % (workload, len(p_runs), len(o_runs), side))
    return o_runs


def record(parent_paths, change_paths, control_paths=None):
    parent_runs = load_runs(parent_paths)
    change_runs = load_runs(change_paths)
    control_runs = None if control_paths is None else load_runs(control_paths)
    better = directions()
    workloads = {}
    names = set(parent_runs) | set(change_runs) | set(control_runs or ())
    for workload in sorted(names):
        p_runs = parent_runs.get(workload, [])
        c_runs = paired_runs(parent_runs, change_runs, workload, "change")
        parent, change = summarize_side(p_runs), summarize_side(c_runs)
        comparison = compare(parent, change, better)
        workloads[workload] = {
            "parent": parent,
            "change": change,
            "pairs": [{"seed": p["args"]["seed"],
                       "same_seed": p["args"]["seed"] == c["args"]["seed"],
                       "same_digest": (p["extra"]["digest"]
                                       == c["extra"]["digest"])}
                      for p, c in zip(p_runs, c_runs)],
            "comparison": comparison,
        }
        if control_runs is not None:
            control = summarize_side(paired_runs(parent_runs, control_runs,
                                                 workload, "control"))
            workloads[workload]["control"] = control
            for name, aa in compare(parent, control, better).items():
                if name in comparison:
                    comparison[name]["control"] = {
                        "ratio": aa["ratio"],
                        "control_wins": aa["change_wins"],
                        "parent_wins": aa["parent_wins"]}
    return {"host": host(), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="run files of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="run files of the change, in the same order")
    parser.add_argument("--control", nargs="+",
                        help="a second set of parent runs, in the same "
                             "order, for an A/A comparison")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    result = record(args.parent, args.change, args.control)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
