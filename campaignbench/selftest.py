#!/usr/bin/env python3
"""Self-test of the campaign benchmark at smoke scale (about a minute).

Run from the repository root:

    python3 campaignbench/selftest.py

Checks that:
  * BENCHMARK.json is well formed (keys, names, units, bounds);
  * for every workload, run.py --smoke prints every end-to-end metric with
    --trace 0 and every per-layer metric with --trace 1, each with the unit
    BENCHMARK.json gives it, and reports correct results;
  * each traced run's span file loads in tools/summarize_trace.py with the
    expected spans and a nonzero counter dump;
  * psched_lint finds nothing in the benchmark's C++ sources, nor in the tree.
"""

import glob
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (every workload run.py knows, listed or not)

NAME =re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TRACE_SPANS = {"paper": "workload-build,generate,cell,simulate,evaluate,store-write",
               "overload": "workload-build,generate,cell,simulate,evaluate,store-write",
               "archive": "workload-build,generate,swf-write,swf-read,cell,simulate,"
                          "evaluate,policy-fst,fork-probe,store-write"}

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL: " + message, file=sys.stderr)


def check_manifest(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in bench["workloads"]]
    check(len(names) >= 2 and set(names) <= set(WORKLOADS), "workload names")
    for entry in bench["workloads"]:
        check(set(entry) == {"name", "why"} and len(entry["why"]) <= 200
              and "\n" not in entry["why"], "workload entry " + entry["name"])
    seen = set()
    for entry in bench["end_to_end"] + bench["per_layer"]:
        name = entry["name"]
        check(NAME.match(name) and name not in seen, "metric name " + name)
        check(UNIT.match(entry["unit"]) is not None, "unit of " + name)
        check(entry["better"] in ("lower", "higher"), "better of " + name)
        seen.add(name)
    for entry in bench["end_to_end"]:
        check(set(entry) == {"name", "unit", "better", "bound"}
              and 0 < entry["bound"] <= 0.25, "end_to_end entry " + entry["name"])
    for entry in bench["per_layer"]:
        check(set(entry) == {"name", "unit", "better"}, "per_layer entry " + entry["name"])
    check(any(e["name"] == "setup_s" and e["unit"] == "s" and e["better"] == "lower"
              for e in bench["end_to_end"]), "setup_s present")


def run_bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           "11", "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(done.returncode == 0, "%s exited %d" % (" ".join(cmd), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None


def check_result(workload, trace, result, expected):
    label = "%s --trace %d" % (workload, trace)
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label + ": result keys")
    check(result["correct"] is True and result["failed"] == 0, label + ": results incorrect")
    check(result["attempted"] >= 1, label + ": nothing attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == expected, label + ": metrics differ from BENCHMARK.json: missing %s, extra %s, "
          "units %s" % (sorted(set(expected) - set(got)), sorted(set(got) - set(expected)),
                        sorted(n for n in got if n in expected and got[n] != expected[n])))
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)), label + ": value of " + name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    check_manifest(bench)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result = run_bench(workload, trace)
            if result is not None:
                check_result(workload, trace, result, expected)
        trace_file = os.path.join(ROOT, ".bench_out", workload + "-trace.json")
        done = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "summarize_trace.py"),
                               trace_file, "--require-spans", TRACE_SPANS[workload],
                               "--require-counters"],
                              cwd=ROOT, stdout=subprocess.DEVNULL)
        check(done.returncode == 0, workload + ": summarize_trace.py rejected " + trace_file)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "campaignbench")
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "psched_lint"],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    lint = os.path.join(build_dir, "psched", "psched_lint")
    sources = sorted(glob.glob(os.path.join(HERE, "src", "*")))
    for args in (sources, ["--root", ROOT]):
        done = subprocess.run([lint] + args, cwd=ROOT)
        check(done.returncode == 0, "psched_lint " + ("sources" if args is sources else "tree"))

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
