#!/usr/bin/env bash
# Compile-gate for the opt-in binaries: the experiments no campaign spec can
# express (bench/exp_* for the workload characterization of Figures 3-7 and
# Tables 1-2, bench/abl_* for four ablations) and the examples/ programs only
# build under -DPSCHED_BUILD_EXPERIMENTS=ON, so nothing in the default tier-1
# build notices when an API change breaks them. This script configures a
# separate build tree with experiments enabled and builds everything; run it
# (or let the verify flow run it) whenever a public header changes. The
# paper's policy figures are campaign specs (bench/figures/), which
# tools/run_ci.sh parses instead.
#
# Env knobs:
#   PSCHED_EXAMPLES_BUILD_DIR  build directory (default build-exp)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${PSCHED_EXAMPLES_BUILD_DIR:-build-exp}"

# -Werror is the default, but pin it explicitly: the opt-in exp_*/abl_*
# binaries are exactly the ones that rot behind warnings nobody sees.
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DPSCHED_WERROR=ON \
  -DPSCHED_BUILD_EXPERIMENTS=ON -DPSCHED_BUILD_BENCH=OFF >/dev/null
cmake --build "$BUILD" -j "$(nproc)"
echo "examples + experiments compile clean under -Werror ($BUILD)"
