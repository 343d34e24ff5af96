#!/usr/bin/env bash
# Stress: re-runs the concurrency-heavy suites many times in shuffled order
# on 1, 2 and 4 CPUs, so interleavings that a single run (or a single
# core, where threads only interleave through preemption) never hits get
# a chance to show up. Any failing run fails the script; its log is kept
# and its tail printed.
#
#   ./scripts/stress.sh <build-dir> [repeats]    # repeats default: 50
#
# Works on any build type; CI also runs it on the ThreadSanitizer build.
# The binaries run one at a time, so memory stays that of one suite.
set -uo pipefail

BUILD_DIR="${1:?usage: $0 <build-dir> [repeats]}"
REPEATS="${2:-50}"
BINARIES=(race_test server_test cluster_net_test fault_tolerance_test)
CPU_SETS=(0 0-1 0-3)
LOG_DIR="$(mktemp -d "${TMPDIR:-/tmp}/tb_stress.XXXXXX")"

for bin in "${BINARIES[@]}"; do
  [ -x "$BUILD_DIR/$bin" ] || { echo "missing $BUILD_DIR/$bin" >&2; exit 2; }
done

failures=0
for cpus in "${CPU_SETS[@]}"; do
  for bin in "${BINARIES[@]}"; do
    log="$LOG_DIR/${bin}.cpus-${cpus}.log"
    start=$(date +%s)
    # A hang is a failure too: allow a generous minute per repeat.
    if timeout $((REPEATS * 60)) taskset -c "$cpus" "$BUILD_DIR/$bin" \
         --gtest_repeat="$REPEATS" --gtest_shuffle > "$log" 2>&1; then
      echo "PASS $bin cpus=$cpus x$REPEATS ($(( $(date +%s) - start )) s)"
      rm -f "$log"
    else
      failures=$((failures + 1))
      echo "FAIL $bin cpus=$cpus x$REPEATS; log: $log"
      # The shuffle seed of the failing iteration reproduces its order.
      grep -E '^Note: Randomizing|\[  FAILED  \]' "$log" | tail -n 20
      tail -n 40 "$log"
    fi
  done
done

if [ "$failures" -ne 0 ]; then
  echo "stress: $failures failing run(s); logs in $LOG_DIR" >&2
  exit 1
fi
rmdir "$LOG_DIR"
echo "stress: all runs passed"
