#!/usr/bin/env bash
# Budgeted fuzz smoke lane (target: under 60 seconds on the normal build):
#
#  1. the ctest `fuzz` label — generator determinism, the differential
#     corpus, forced-divergence minimization/repro round-trips, and a
#     slice of the fault-schedule grid including the sabotage self-test;
#  2. a fixed-seed 200-query differential campaign on both engines
#     (fails on any unexplained divergence; repro files land in $OUT);
#  3. a fixed-seed 400-schedule fault exploration asserting the four 2PC
#     invariants (at-most-once, all-or-nothing, no in-doubt leaks,
#     serial equivalence);
#  4. an elastic-membership chaos smoke at seeds 1-3 (peers joining and
#     leaving mid-run, shard rebalances, partitions healing) asserting
#     the six chaos invariants including no-lost-shard;
#  5. the same elastic smoke with --updates: a mid-schedule updating
#     broadcast rides the all-copies 2PC, and after quiesce+repair every
#     catalog-listed copy of every fragment must be byte-identical to the
#     chaos-free serial state (replica-convergence, DESIGN.md §17);
#  6. the membership-chaos explorer at seed 1, plain and with --updates:
#     catalog bumps, kills and revivals fire mid-scatter and mid-2PC, so
#     the StaleCatalog re-route policy of the shared ShardRouter is gated
#     (reads re-route once; an updating broadcast aborts, never re-routes).
#
# Long soak campaigns (thousands of queries/schedules, many seeds) run the
# same binaries by hand — see EXPERIMENTS.md.
#
# Usage: tools/check_fuzz.sh [build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD" -S "$ROOT" > /dev/null
cmake --build "$BUILD" -j --target \
      fuzz_differential fuzz_schedules differential_corpus_test \
      fuzz_smoke_test > /dev/null

(cd "$BUILD" && ctest --output-on-failure -L fuzz -j"$(nproc)")

"$BUILD/tools/fuzz_differential" --seed 1 --count 200 --out-dir "$OUT"
"$BUILD/tools/fuzz_schedules" --seed 1 --count 400 --out-dir "$OUT" \
    --wal-dir "$OUT"
for seed in 1 2 3; do
  "$BUILD/tools/fuzz_schedules" --chaos-elastic --seed "$seed" --count 60 \
      --out-dir "$OUT"
done
for seed in 1 2; do
  "$BUILD/tools/fuzz_schedules" --chaos-elastic --updates --seed "$seed" \
      --count 30 --out-dir "$OUT"
done

"$BUILD/tools/fuzz_schedules" --chaos --seed 1 --count 200 --out-dir "$OUT"
"$BUILD/tools/fuzz_schedules" --chaos --updates --seed 1 --count 200 \
    --out-dir "$OUT"

echo "fuzz smoke: OK"
