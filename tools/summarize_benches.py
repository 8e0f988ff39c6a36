#!/usr/bin/env python3
"""Condense google-benchmark JSON output into the committed BENCH_*.json
baselines: per-case ns/op plus speedup ratios for every optimized/reference
benchmark pair (BM_Foo vs BM_RefFoo).

Usage: summarize_benches.py OUT.json IN1.json [IN2.json ...]
"""

import json
import os
import re
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Reference -> optimized name prefixes for pairs that don't follow the plain
# BM_Foo / BM_RefFoo convention (argument suffixes like "/5000" are kept).
_PAIR_OVERRIDES = {
    "BM_RefPolicyFstNaive": "BM_PolicyFstForked",
    "BM_RefForkOverheadRecordCopy": "BM_ForkOverheadShared",
}


def load_cases(path):
    with open(path) as f:
        raw = json.load(f)
    context = raw.get("context", {})
    host = {key: context[key] for key in ("num_cpus", "mhz_per_cpu") if key in context}
    cases = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = _UNIT_NS[b.get("time_unit", "ns")]
        entry = {"ns_per_op": round(b["real_time"] * scale, 2)}
        if "items_per_second" in b:
            entry["items_per_second"] = round(b["items_per_second"], 1)
        # Context counters (e.g. perf_experiment records the pool size the
        # parallel sweep actually ran with; perf_fst records the fork-batch
        # cap and the peak batch/fork memory the bounded draining admitted).
        for counter in ("jobs", "pool_threads", "fork_batch", "peak_batch_bytes",
                        "peak_fork_bytes"):
            if counter in b:
                entry[counter] = round(b[counter], 1)
        cases[b["name"]] = entry
    return cases, host


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    out_path, in_paths = sys.argv[1], sys.argv[2:]
    cases = {}
    for path in in_paths:
        loaded, host = load_cases(path)
        cases.update(loaded)

    speedups = {}
    for name, entry in cases.items():
        if not name.startswith("BM_Ref"):
            continue
        # Run-modifier suffixes (e.g. "/iterations:1" on single-shot deep
        # cases) describe how the reference was run, not which case it is —
        # ignore them when hunting for the optimized twin.
        base = re.sub(r"/iterations:\d+", "", name)
        optimized = "BM_" + base[len("BM_Ref"):]
        # Some pairs carry descriptive suffixes instead of the bare BM_Foo /
        # BM_RefFoo convention (e.g. the policy-FST forked/naive pair, where
        # "Forked" vs "Naive" names the algorithm, not just the tier).
        for ref_prefix, opt_prefix in _PAIR_OVERRIDES.items():
            if base.startswith(ref_prefix):
                optimized = opt_prefix + base[len(ref_prefix):]
                break
        if optimized in cases and cases[optimized]["ns_per_op"] > 0:
            speedups[optimized] = round(entry["ns_per_op"] / cases[optimized]["ns_per_op"], 2)

    summary = {
        "generated_by": "tools/run_benches.sh",
        "note": "ns_per_op is wall time per benchmark iteration; "
                "speedup_vs_reference = reference ns_per_op / optimized ns_per_op "
                "(reference = preserved seed implementation, see oracles/reference_profile.hpp)",
        "host": host,
        "cases": dict(sorted(cases.items())),
        "speedup_vs_reference": dict(sorted(speedups.items())),
    }
    # Atomic + durable, mirroring util::atomic_write_file: a crash mid-write
    # must never leave a torn baseline for the diff tooling to chew on.
    tmp_path = f"{out_path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, out_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    print(f"wrote {out_path} ({len(cases)} cases, {len(speedups)} speedup pairs)")


if __name__ == "__main__":
    main()
