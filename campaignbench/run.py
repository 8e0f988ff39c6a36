#!/usr/bin/env python3
"""Campaign benchmark driver: build, run, check and report one workload.

Run from the repository root:

    python3 campaignbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Builds the psched library and the campaign_bench driver from source (CMake,
into $CARGO_TARGET_DIR or .bench_build), then repeats untraced end-to-end
campaign runs of the workload, each in a fresh process, for --seconds (it
stops before a repetition that would overrun, but always makes one). Every repetition's cells.csv is compared with the committed golden
bytes. With --trace 1 it then re-executes the workload once layer by layer
(campaign_bench traced) and reports per-layer metrics instead of end-to-end
ones; the spans go to .bench_out/<workload>-trace.json.

The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
where attempted/failed count campaign cells (a cell fails if it is not ok or
its cells.csv row differs from the golden row). See campaignbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "overload", "archive")
POOL_THREADS = "4"
# Set-ups timed per repetition: more where one set-up takes milliseconds.
SETUPS = {"paper": 15, "overload": 24, "archive": 5}

# Policies whose per-cell wall time is reported (the union over workloads).
PAPER_POLICIES = ("cplant24.nomax.all", "cplant24.nomax.fair", "cplant72.nomax.all",
                  "cplant24.72max.all", "cplant72.72max.fair", "cons.nomax",
                  "consdyn.nomax", "cons.72max", "consdyn.72max")

# Exact work counts that repeat on any host (full scale only). A change that
# moves one must say so and update the pin.
PINS = {
    "paper": {("events", "cplant24.nomax.fair"): 1644995,
              ("events", "cplant72.72max.fair"): 1934771},
    "archive": {("fst_forks", "cplant24.nomax.all"): 50299,
                ("fst_drained", "cplant24.nomax.all"): 12826},
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "jobs_per_s": "jobs/s",
                    "max_cell_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def fail(message):
    print("campaignbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt at %s: the library sources are missing" % ROOT)
    steps = [["cmake", "--build", build_dir, "-j", "4", "--target", "campaign_bench"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "campaign_bench")


def run_child(binary, mode, workload, seed, work, smoke, trace_out=None):
    """Runs one campaign_bench process; returns (parsed JSON, peak RSS MiB)."""
    os.makedirs(work, exist_ok=True)
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed), "--work", work,
           "--setups", str(SETUPS[workload])]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PSCHED_THREADS=POOL_THREADS)
    env.pop("PSCHED_TRACE", None)
    env.pop("PSCHED_FAULTS", None)
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    out = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail("%s exited with %d" % (" ".join(cmd), code))
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("%s printed nothing" % " ".join(cmd))
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def golden_rows(workload):
    with open(os.path.join(HERE, "golden", workload + ".cells.csv"), "rb") as handle:
        return handle.read().decode().splitlines()


def check_store(rep, golden):
    """Returns (attempted, failed, problems) for one untraced repetition."""
    problems = []
    with open(os.path.join(ROOT, rep["store"], "cells.csv"), "rb") as handle:
        rows = handle.read().decode().splitlines()
    with open(os.path.join(ROOT, rep["store"], "summary.json"), "r") as handle:
        summary = json.load(handle)
    if summary.get("status") != "complete":
        problems.append("summary.json status is %r" % summary.get("status"))
    cells = rep["cells"]
    failed = 0
    for i, cell in enumerate(cells):
        row = rows[i + 1] if i + 1 < len(rows) else None
        bad = cell["status"] != "ok"
        if golden is not None:
            bad = bad or row is None or i + 1 >= len(golden) or row != golden[i + 1]
        if bad:
            failed += 1
            problems.append("cell %d (%s): status %s or its row differs from the golden row"
                            % (i, cell["policy"], cell["status"]))
    if golden is not None and (rows[0] != golden[0] or len(rows) != len(golden)):
        problems.append("cells.csv header or row count differs from golden")
        failed = max(failed, 1)
    return len(cells), failed, problems


def fingerprint(rep):
    """Host and config fingerprint; never compare results across different ones."""
    digest = hashlib.sha256()
    for base in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        rev = ""
    info = dict(rep["fingerprint"])
    info.update({"nproc": os.cpu_count(), "git_rev": rev or "unknown",
                 "src_sha256": digest.hexdigest()[:16]})
    return info


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny traces, no golden or pin checks (self-test)")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "campaignbench")
    binary = build(build_dir)
    work_root = os.path.join(ROOT, ".bench_work", "%s-%d-%d"
                             % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    golden = None if args.smoke else golden_rows(args.workload)

    try:
        # Warm the binary, page cache and pool start-up on a tiny trace.
        run_child(binary, "untraced", args.workload, args.seed,
                  os.path.join(work_root, "warmup"), True)
        reps, rss, problems, durations = [], [], [], []
        attempted = failed = 0
        start = time.monotonic()
        # Repeat while another repetition of the average length still fits.
        while not reps or (time.monotonic() - start + statistics.mean(durations)
                           <= args.seconds):
            work = os.path.join(work_root, "rep%d" % len(reps))
            rep_start = time.monotonic()
            rep, peak = run_child(binary, "untraced", args.workload, args.seed, work,
                                  args.smoke)
            durations.append(time.monotonic() - rep_start)
            cells, bad, found = check_store(rep, golden)
            attempted += cells
            failed += bad
            problems += found
            reps.append(rep)
            rss.append(peak)
        info = fingerprint(reps[0])

        median = statistics.median
        wall = median(r["wall_s"] for r in reps)
        if args.trace == 0:
            metrics = {
                "wall_s": wall,
                "setup_s": median(s for r in reps for s in r["setup_s"]),
                "jobs_per_s": median(r["jobs_simulated"] / r["wall_s"] for r in reps),
                "max_cell_s": median(max(c["wall_s"] for c in r["cells"]) for r in reps),
                "cpu_s": median(r["cpu_s"] for r in reps),
                "peak_rss_mb": median(rss),
            }
            metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
            extra = {"cells_failed_ratio": failed / attempted, "repetitions": len(reps)}
        else:
            trace_out = os.path.join(out_dir, args.workload + "-trace.json")
            traced, _ = run_child(binary, "traced", args.workload, args.seed,
                                  os.path.join(work_root, "traced"), args.smoke, trace_out)
            metrics, extra = per_layer(args, reps, traced, wall, problems)
            with open(os.path.join(out_dir, args.workload + "-traced.json"), "w") as handle:
                json.dump({"fingerprint": info, "traced": traced}, handle, indent=1)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for problem in problems:
        print("campaignbench: FAIL: " + problem, file=sys.stderr)
    print("# fingerprint " + json.dumps(info, sort_keys=True))
    for name, entry in metrics.items():
        print("# %-34s %16.6g %s" % (name, entry["value"], entry["unit"]))
    for name, value in extra.items():
        print("# %-34s %16.6g" % (name, value))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer(args, reps, traced, wall, problems):
    """Per-layer metrics: the traced run's, plus what only untraced runs show."""
    median = statistics.median
    units = (("_per_s", "1/s"), ("_us", "us"), ("_mb", "MiB"), ("_ratio", "ratio"),
             ("_share", "ratio"), ("_s", "s"))
    metrics = {}
    for name, value in traced["metrics"].items():
        unit = next((u for suffix, u in units if name.endswith(suffix)), "count")
        metrics[name] = metric(value, unit)
    metrics["scenario.store_write_s"] = metric(median(r["store_write_s"] for r in reps), "s")
    metrics["scenario.self_s"] = metric(
        median(r["wall_s"] - r["sweep_s"] - r["store_write_s"] for r in reps), "s")
    for policy in PAPER_POLICIES:
        walls = [c["wall_s"] for r in reps for c in r["cells"] if c["policy"] == policy]
        metrics["cell.%s.wall_s" % policy] = metric(median(walls) if walls else 0.0, "s")
    metrics["bench.trace_overhead_ratio"] = metric(traced["traced_wall_s"] / wall, "ratio")

    problems += ["traced run: " + error for error in traced["errors"]]
    with open(os.path.join(ROOT, traced["store"]), "rb") as handle:
        traced_csv = handle.read()
    with open(os.path.join(ROOT, reps[-1]["store"], "cells.csv"), "rb") as handle:
        if handle.read() != traced_csv:
            problems.append("traced cells.csv differs from the untraced store")
    if not args.smoke:
        cells = {c["policy"]: c for c in traced["cells"]}
        for (field, policy), expected in PINS.get(args.workload, {}).items():
            actual = cells.get(policy, {}).get(field)
            if actual != expected:
                problems.append("count pin drifted: %s %s = %s, pinned %d"
                                % (policy, field, actual, expected))
    return metrics, {"repetitions": len(reps)}


if __name__ == "__main__":
    sys.exit(main())
