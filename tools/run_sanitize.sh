#!/usr/bin/env bash
# One sanitizer gate for all three instrumentations, sharing a single
# build-dir/flag path:
#
#   tools/run_sanitize.sh {thread|address|undefined}
#
# Configures a per-sanitizer build tree (-DPSCHED_SANITIZE=<kind>, benches
# off) and runs the FULL ctest suite under it — unit, property, campaign,
# journal, and the psched_lint tree check alike. Any report fails the suite
# loudly (halt_on_error).
#
# Env knobs:
#   PSCHED_SAN_BUILD_DIR  build directory (default build-san-<kind>)
#   PSCHED_SAN_JOBS       parallel build/test jobs (default nproc)
#   PSCHED_THREADS        pool size under test (default 4, so races surface
#                         even on small machines)
#   ASAN_OPTIONS / UBSAN_OPTIONS / TSAN_OPTIONS  override the strict defaults
set -euo pipefail
cd "$(dirname "$0")/.."

KIND="${1:-}"
case "$KIND" in
  thread|address|undefined) ;;
  *)
    echo "usage: $0 {thread|address|undefined}" >&2
    exit 2
    ;;
esac

BUILD="${PSCHED_SAN_BUILD_DIR:-build-san-$KIND}"
JOBS="${PSCHED_SAN_JOBS:-$(nproc)}"

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DPSCHED_SANITIZE="$KIND" \
  -DPSCHED_BUILD_BENCH=OFF >/dev/null
cmake --build "$BUILD" -j "$JOBS"

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
export PSCHED_THREADS="${PSCHED_THREADS:-4}"

ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"
echo "sanitize($KIND): full ctest suite clean ($BUILD)"
