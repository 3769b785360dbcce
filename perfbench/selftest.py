#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Run from the root of a checkout (takes about three minutes on 4 cores):

    python3 perfbench/selftest.py

It checks that
  1. every workload, at a short length, untraced and traced, runs clean
     (correct, no failed refresh) and prints every metric BENCHMARK.json
     names, with its unit;
  2. pipelined_ops with its product forecasts slowed through
     sleep_for_cycle, so both rotating groups stay busy, reports
     workflow.dropped > 0 and failed_share > 0;
  3. a second seed runs clean;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
SECONDS = "3"


def run(workload, seed, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p.returncode, p.stdout, p.stderr


def result(out):
    return json.loads(out.strip().splitlines()[-1])


def check_metrics(r, trace):
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    assert got == want, f"metric set differs: {sorted(set(got) ^ set(want))}"
    for k, v in r["metrics"].items():
        assert isinstance(v["value"], (int, float)), k


def clean(r, what):
    assert r["correct"], f"{what}: correct is false"
    assert r["attempted"] >= 1 and r["failed"] == 0, f"{what}: {r}"


def main():
    failures = []

    def case(name, fn):
        try:
            fn()
            print(f"ok    {name}")
        except Exception as e:  # report every case, then fail
            failures.append(name)
            print(f"FAIL  {name}: {e}")

    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            def short(w=w, trace=trace):
                rc, out, err = run(w, 1, trace)
                assert rc == 0, f"exit {rc}: {err[-400:]}"
                r = result(out)
                check_metrics(r, trace)
                clean(r, w)
            case(f"{w} trace={trace} prints every metric, runs clean", short)

    def slowed():
        rc, out, err = run("pipelined_ops", 1, 1, ["--slow-forecast-s", "1.0"])
        assert rc == 0, f"exit {rc}: {err[-400:]}"
        m = result(out)["metrics"]
        assert m["workflow.dropped"]["value"] > 0, m["workflow.dropped"]
        assert m["failed_share"]["value"] > 0, m["failed_share"]
    case("slowed pipelined_ops forecasts are dropped and counted", slowed)

    def second_seed():
        for w in (w["name"] for w in SPEC["workloads"]):
            rc, out, err = run(w, 2, 0)
            assert rc == 0, f"{w}: exit {rc}: {err[-400:]}"
            clean(result(out), w)
    case("seed 2 runs clean", second_seed)

    def bare():
        build = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        d = os.path.join(build, "selftest-bare")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        shutil.copytree(HERE, os.path.join(d, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, out, _ = run("serial_refresh", 1, 0, cwd=d)
        shutil.rmtree(d, ignore_errors=True)
        assert rc != 0, "exit 0 without the source tree"
        assert '"metrics"' not in out, "printed a result"
    case("without the source tree: non-zero exit, no result", bare)

    print("selftest: %d failed" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
