#!/usr/bin/env bash
# The whole CI gate in one script, runnable locally or from the workflow.
#
#   tools/run_ci.sh            tier-1 gate (default):
#     1. configure + build (-Werror -Wshadow are on by default)
#     2. psched-lint contract check over src/, oracles/, tools/, bench/, then
#        the test-only API guard: a public src/ name that only tests/ or
#        oracles/ use fails unless tools/test_only_api.allow lists it with a
#        reason
#     3. ctest (the correctness contract; includes the lint fixture tests)
#     4. compile-gate the opt-in experiment/example binaries under -Werror,
#        and parse every bench/figures/*.spec (the paper's policy figures
#        and knob ablations) with psched_campaign --dry-run, so a figure
#        spec that stops parsing fails here
#     5. a one-spec campaign smoke run (SWF replay of the committed sample
#        trace), checked for a non-empty results store
#     6. a kill-and-resume smoke: SIGKILL the campaign mid-cell (a
#        PSCHED_FAULTS-injected hang), then --resume and require the results
#        store to be byte-identical to the uninterrupted run in step 5
#     7. the chaos harness: psched_chaos re-runs the smoke campaign once per
#        registered fault point (hard-errno, transient and kill+resume legs)
#        and asserts every failure lands in the retried / degraded /
#        fail-loud trichotomy with byte-identical recovered stores
#     8. an archive-scale replay smoke: a ~50k-job synthetic trace exported
#        to SWF (psched_campaign --write-swf) and replayed once through a campaign with the forked
#        (policy-knowledge) FST under a wall budget, with --stats, failing
#        if a deterministic count (events, scheduler invocations, profile fit
#        calls and steps, CPlant queue entries read, forks, drained and
#        master-resolved forks) grows past bench/campaigns/archive_smoke.counts
#        or the run's peak RSS exceeds 64 MiB (tools/check_peak_rss.py)
#     9. a work-count gate: the conservative pair on a deep queue
#        (bench/campaigns/cons_deep_queue.spec) with --stats, failing if a
#        deterministic count (events, snapshot entries, full/incremental
#        replans, compression re-seats, priority re-sorts, profile fit calls
#        and steps) grows past bench/campaigns/cons_deep_queue.counts
#    10. the campaign benchmark driver's self-test at smoke scale
#        (campaignbench/selftest.py, about a minute): builds the driver
#        against the library, runs every workload and checks its results,
#        so a library change that breaks the driver fails here
#
#   tools/run_ci.sh sanitize   the sanitizer matrix (a separate workflow job
#     so tier-1 latency is unchanged): the FULL ctest suite under ASan and
#     UBSan via tools/run_sanitize.sh. TSan stays available as
#     tools/run_sanitize.sh thread.
#
#   tools/run_ci.sh all        both of the above.
#
# Env knobs:
#   PSCHED_CI_BUILD_DIR  tier-1 build directory (default build-ci)
#   PSCHED_CI_JOBS       parallel build/test jobs (default nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${PSCHED_CI_BUILD_DIR:-build-ci}"
JOBS="${PSCHED_CI_JOBS:-$(nproc)}"
STEP="${1:-tier1}"

run_sanitize_matrix() {
  echo "== sanitize: ASan full suite =="
  ./tools/run_sanitize.sh address
  echo "== sanitize: UBSan full suite =="
  ./tools/run_sanitize.sh undefined
}

run_tier1() {
  echo "== tier-1: configure + build (-Werror) =="
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "$BUILD" -j "$JOBS"

  echo "== psched-lint: contract check =="
  "$BUILD"/psched_lint --root .

  echo "== test-only API guard =="
  python3 tools/check_test_only_api.py

  echo "== tier-1: ctest =="
  ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

  echo "== experiments/examples compile gate =="
  ./tools/check_examples.sh

  echo "== figure specs parse =="
  for spec in bench/figures/*.spec; do
    "$BUILD"/psched_campaign "$spec" --dry-run >/dev/null
  done

  echo "== campaign smoke run =="
  SMOKE_OUT="$BUILD/campaign-smoke"
  rm -rf "$SMOKE_OUT"
  "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec --out "$SMOKE_OUT" --jobs 1
  test -s "$SMOKE_OUT/cells.csv" && test -s "$SMOKE_OUT/summary.json"
  # Two policies on the sample trace -> header + 2 rows.
  test "$(wc -l < "$SMOKE_OUT/cells.csv")" -eq 3

  echo "== observability smoke: traced run, byte-identical store =="
  # The obs contract: arming --trace/--stats changes NO result byte. Re-run
  # the smoke campaign traced, diff cells.csv bytewise against the untraced
  # run, diff summary.json after stripping the "breakdown" block only an
  # armed run emits, and validate the exported Perfetto JSON (span hierarchy
  # present, counters nonzero) with the stdlib-only summarizer.
  TRACE_OUT="$BUILD/campaign-trace-smoke"
  rm -rf "$TRACE_OUT"
  "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec --out "$TRACE_OUT" \
    --jobs 1 --trace "$TRACE_OUT/trace.json" --stats
  cmp "$SMOKE_OUT/cells.csv" "$TRACE_OUT/cells.csv"
  grep -q '^  "breakdown": \[$' "$TRACE_OUT/summary.json"  # armed run emits it
  sed '/^  "breakdown": \[$/,/^  \],$/d' "$TRACE_OUT/summary.json" \
    | cmp - "$SMOKE_OUT/summary.json"
  python3 tools/summarize_trace.py "$TRACE_OUT/trace.json" \
    --require-spans campaign,workload-build,group,sweep,cell,store-write \
    --require-counters

  echo "== campaign kill-and-resume smoke =="
  # Hang the second cell, SIGKILL the process once the first cell's journal
  # record is durable, then resume without the fault: the journal must replay
  # and the final store must be byte-identical to the uninterrupted run above.
  RESUME_OUT="$BUILD/campaign-resume-smoke"
  rm -rf "$RESUME_OUT"
  PSCHED_FAULTS="campaign.cell:hang:after=2" \
    "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec \
    --out "$RESUME_OUT" --jobs 1 --keep-going >/dev/null 2>&1 &
  CAMPAIGN_PID=$!
  for _ in $(seq 1 300); do
    [ "$(wc -l < "$RESUME_OUT/journal.jsonl" 2>/dev/null || echo 0)" -ge 2 ] && break
    sleep 0.1
  done
  test "$(wc -l < "$RESUME_OUT/journal.jsonl")" -ge 2  # cell 0 made it to disk
  kill -9 "$CAMPAIGN_PID"
  wait "$CAMPAIGN_PID" 2>/dev/null || true
  "$BUILD"/psched_campaign examples/campaigns/swf_replay.spec \
    --out "$RESUME_OUT" --jobs 1 --resume
  cmp "$SMOKE_OUT/cells.csv" "$RESUME_OUT/cells.csv"
  cmp "$SMOKE_OUT/summary.json" "$RESUME_OUT/summary.json"

  echo "== chaos harness: trichotomy over every fault point =="
  # Every registered point, three legs each (hard errno, transient EINTR,
  # hang+SIGKILL+resume), each child capped at 60s so a regressed hang cannot
  # stall the gate. The harness exits nonzero if any point has no plan, never
  # fires, or lands outside the trichotomy.
  CHAOS_OUT="$BUILD/chaos-smoke"
  rm -rf "$CHAOS_OUT"
  "$BUILD"/psched_chaos --campaign "$BUILD"/psched_campaign \
    --spec examples/campaigns/swf_replay.spec --out "$CHAOS_OUT" --timeout 60

  echo "== archive-scale replay smoke (~50k jobs, forked FST) =="
  # Export a ~50k-job synthetic trace to SWF with `psched_campaign
  # --write-swf` (a one-seed Ross spec, built as a campaign builds it), and
  # replay it through a campaign that selects the policy-knowledge
  # (forked-engine) FST.
  # scale 3.8 condenses ~3.8x the Ross trace into the same span, so the spec
  # stretches arrivals back (rescale_load 0.26) to keep the queue realistic.
  # --wall-budget is the perf guard: blowing it exits 4 (interrupted store)
  # and fails the gate. The uncontended run takes about 1.0 s at
  # PSCHED_THREADS=4 and 1.6 s on one thread (4-core 2.1 GHz Xeon host; 1.4 s
  # and 1.9 s while the cell simulated the trace a second time for the
  # policy FST), so 30 s fails a ~20x slowdown of the one-thread run.
  ARCHIVE_OUT="$BUILD/archive-smoke"
  rm -rf "$ARCHIVE_OUT"
  mkdir -p "$ARCHIVE_OUT"
  cat > "$ARCHIVE_OUT/export.spec" <<SPEC
[campaign]
name = archive_export
metrics = percent_unfair

[workload]
source = ross
seed = 42
scale = 3.8

[policies]
names = cplant24.nomax.all
SPEC
  "$BUILD"/psched_campaign "$ARCHIVE_OUT/export.spec" --write-swf "$ARCHIVE_OUT/archive.swf" \
    >/dev/null
  test "$(grep -cv '^[;#]' "$ARCHIVE_OUT/archive.swf")" -ge 50000  # archive-scale, not a toy
  cat > "$ARCHIVE_OUT/archive.spec" <<SPEC
[campaign]
name = archive_smoke
metrics = policy_percent_unfair, policy_avg_miss_all, percent_unfair, avg_wait, utilization

[workload]
source = swf
file = archive.swf
rescale_load = 0.26

[policies]
names = cplant24.nomax.all
SPEC
  # The fork batch grows with the pool (4 per thread, at least 16), and with
  # it the forks the master resolves without a drain, so the pool is pinned
  # at 4 threads to keep the fst counts exact on any host.
  # Peak-memory guard: the run's peak RSS (the child's ru_maxrss, as
  # campaignbench/run.py measures it) must stay at or under 64 MiB. Arrival
  # snapshots hold record ids, so the run peaks at about 37 MiB; snapshots
  # that copy each job's shape again (96 MiB) fail the bound.
  PSCHED_THREADS=4 python3 tools/check_peak_rss.py 64 "$BUILD"/psched_campaign \
    "$ARCHIVE_OUT/archive.spec" --out "$ARCHIVE_OUT/store" --jobs 1 --wall-budget 30 --stats \
    > "$ARCHIVE_OUT/work-counts.txt"
  # The forked FST actually ran: its metric columns are in the store.
  grep -q "policy_percent_unfair" "$ARCHIVE_OUT/store/cells.csv"
  # Work-count gate for the CPlant path and the forked FST (step 9 covers
  # the conservative pair).
  python3 tools/check_work_counts.py bench/campaigns/archive_smoke.counts \
    "$ARCHIVE_OUT/work-counts.txt"

  echo "== work-count gate: conservative pair on a deep queue =="
  # Deterministic counters are exact on any host and at any --jobs, so an
  # algorithmic regression (more replans, more re-sorts, more events) fails
  # here without timing noise. A count that shrinks is reported for a
  # baseline update and does not fail.
  "$BUILD"/psched_campaign bench/campaigns/cons_deep_queue.spec --jobs 2 --stats \
    > "$BUILD/work-counts.txt"
  python3 tools/check_work_counts.py bench/campaigns/cons_deep_queue.counts \
    "$BUILD/work-counts.txt"

  echo "== campaign benchmark driver self-test =="
  python3 campaignbench/selftest.py
}

case "$STEP" in
  tier1)
    run_tier1
    ;;
  sanitize)
    run_sanitize_matrix
    ;;
  all)
    run_tier1
    run_sanitize_matrix
    ;;
  *)
    echo "usage: $0 [tier1|sanitize|all]" >&2
    exit 2
    ;;
esac

echo "CI green ($STEP)"
