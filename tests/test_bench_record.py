import json
import platform

import pytest


def _run_file(tmp_path, name, seed, ops_per_s, digest="d", commit=None):
    run = {"args": {"workload": "nf-torus", "seed": seed, "seconds": 30,
                    "trace": 0},
           "environment": {"python": "3.11.0", "cpu_count": 2,
                           "loadavg_at_start": [seed, 0.5, 0.25],
                           "commit": commit or name.split("-")[0]},
           "result": {"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"ops_per_s": {"value": ops_per_s,
                                                "unit": "1/s"}}},
           "extra": {"digest": digest}}
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(run))
    return str(path)


@pytest.fixture()
def record_file(repo_module, tmp_path):
    """Run tools/bench_record.py; return the whole record."""
    main = repo_module("tools/bench_record.py").main

    def run(parent, change, control=()):
        out = tmp_path / "record.json"
        argv = ["--parent", *parent, "--change", *change, "--out", str(out)]
        if control:
            argv += ["--control", *control]
        assert main(argv) == 0
        return json.loads(out.read_text())
    return run


@pytest.fixture()
def record(record_file):
    """Run tools/bench_record.py; return its nf-torus record."""
    return lambda parent, change, control=(): \
        record_file(parent, change, control)["workloads"]["nf-torus"]


class TestBenchRecord:
    def test_quartiles_wins_and_digests(self, tmp_path, record):
        parent = [_run_file(tmp_path, "p-%d" % i, i, v)
                  for i, v in enumerate([10, 11, 12, 13, 14])]
        change = [_run_file(tmp_path, "c-%d" % i, i, v,
                            "x" if i == 4 else "d")
                  for i, v in enumerate([40, 41, 42, 43, 9])]
        torus = record(parent, change)
        metric = torus["parent"]["metrics"]["ops_per_s"]
        assert (metric["q1"], metric["median"], metric["q3"]) == (11, 12, 13)
        assert torus["parent"]["seeds"] == [0, 1, 2, 3, 4]
        assert torus["change"]["commits"] == ["c"]
        assert torus["change"]["python"] == ["3.11.0"]
        assert torus["change"]["cpu_count"] == [2]
        won = torus["comparison"]["ops_per_s"]
        assert (won["change_wins"], won["parent_wins"]) == (4, 1)
        assert (won["median_gap"], won["parent_iqr"]) == (29, 2)
        assert [p["same_digest"] for p in torus["pairs"]] == [True] * 4 + [
            False]

    def test_control_runs_give_an_aa_comparison(self, tmp_path, record):
        parent = [_run_file(tmp_path, "p-%d" % i, i, v)
                  for i, v in enumerate([10, 11, 12, 13, 14])]
        change = [_run_file(tmp_path, "c-%d" % i, i, v)
                  for i, v in enumerate([20, 22, 24, 26, 28])]
        control = [_run_file(tmp_path, "p2-%d" % i, i, v, commit="p")
                   for i, v in enumerate([11, 10, 12, 14, 15])]
        torus = record(parent, change, control)
        won = torus["comparison"]["ops_per_s"]
        assert (won["ratio"], won["change_wins"]) == (2, 5)
        assert won["control"] == {"ratio": 1, "control_wins": 3,
                                  "parent_wins": 1}
        assert torus["control"]["metrics"]["ops_per_s"]["median"] == 12
        assert torus["control"]["commits"] == ["p"]
        # Without --control the record has no control side.
        plain = record(parent, change)
        assert "control" not in plain
        assert "control" not in plain["comparison"]["ops_per_s"]

    def test_unpaired_control_runs_are_refused(self, tmp_path, record):
        run = _run_file(tmp_path, "p-0", 1, 5.0)
        with pytest.raises(SystemExit) as refused:
            record([run], [run], [run, run])
        assert str(refused.value) == (
            "error: nf-torus has 1 parent runs and 2 control runs")

    def test_load_averages_per_run(self, tmp_path, record):
        parent = [_run_file(tmp_path, "p-%d" % i, i, 5.0) for i in (3, 1)]
        change = [_run_file(tmp_path, "c-%d" % i, i, 6.0) for i in (3, 1)]
        torus = record(parent, change)
        for side in ("parent", "change"):
            assert torus[side]["loadavg_at_start"] == [[3, 0.5, 0.25],
                                                       [1, 0.5, 0.25]]

    def test_host_at_record_time(self, tmp_path, record_file):
        run = _run_file(tmp_path, "p-0", 1, 5.0)
        host = record_file([run], [run])["host"]
        assert sorted(host) == ["cpu_model", "kernel"]
        assert host["kernel"] == platform.release()
        if host["cpu_model"] is not None:
            with open("/proc/cpuinfo") as handle:
                assert "model name\t: %s\n" % host["cpu_model"] \
                    in handle.read()

    def test_one_run_per_side(self, tmp_path, record):
        run = _run_file(tmp_path, "p-0", 1, 5.0)
        metric = record([run], [run])["change"]["metrics"]["ops_per_s"]
        assert (metric["q1"], metric["median"], metric["q3"]) == (5, 5, 5)

    def test_unpaired_runs_are_refused(self, tmp_path, record):
        run = _run_file(tmp_path, "p-0", 1, 5.0)
        with pytest.raises(SystemExit):
            record([run, run], [run])

    def test_unknown_commit_is_refused(self, tmp_path, record):
        parent = _run_file(tmp_path, "p-0", 1, 5.0)
        change = _run_file(tmp_path, "c-0", 1, 6.0, commit="unknown")
        with pytest.raises(SystemExit) as refused:
            record([parent], [change])
        assert str(refused.value) == (
            "error: %s records commit unknown; run the benchmark in a "
            "checkout with .git" % change)
