#!/usr/bin/env bash
# Builds and runs every benchmark, collecting the BENCH_<name>.json
# reports each one writes to its working directory into a single place.
# Every bench reports through the shared harness (bench/harness.h), so
# every report has the same {"bench", "figures", "series"} schema.
#
# A bench exits non-zero (failing this script) when its body fails or a
# gate does not hold. Wall-clock gates read medians over interleaved
# pairs or repeated runs: bench_profile (median profiling overhead over
# 101 off/on pairs <= 5%), bench_micro (median batched-over-row Tscan
# speedup over 11 pairs >= 2x), bench_overload (5 repetitions of the 2x
# overload scenario: typed sheds, golden hashes and the brownout ladder
# in each, median governed retention >= 70% and ungoverned < 40%) and
# bench_replication (standby apply rate >= 0.5x the primary commit rate,
# plus the failover scenario with its measured RTO). bench_learning
# gates convergence (warm median q-error <= 0.5x cold), >= 1 plan flip,
# byte-identical persistence and an inert controlled mode. bench_tactics,
# bench_host_variable, bench_or_coverage and bench_cache check every
# drained row count against a naive Tscan + filter over the same table.
#
# Usage: scripts/bench.sh [output-dir] [jobs]
#   output-dir   where benchmarks run and reports land (default:
#                bench-results/ at the repo root)
#   BENCH_ONLY   optional regex; only matching bench_* binaries run,
#                e.g. BENCH_ONLY='concurrency|cache' scripts/bench.sh
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$root/bench-results}"
jobs="${2:-$(nproc 2>/dev/null || echo 4)}"

cmake -S "$root" -B "$root/build" >/dev/null
cmake --build "$root/build" -j "$jobs"

sha="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
when="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

mkdir -p "$out"
cd "$out"
for exe in "$root/build/bench"/bench_*; do
  [[ -x "$exe" && ! -d "$exe" ]] || continue
  name="$(basename "$exe")"
  if [[ -n "${BENCH_ONLY:-}" && ! "$name" =~ ${BENCH_ONLY} ]]; then
    echo "-- skipping $name (BENCH_ONLY=${BENCH_ONLY})"
    continue
  fi
  echo "== $name =="
  "$exe"
  echo
done

# Stamp every collected report with the commit and run time, so a
# directory of reports from different checkouts stays attributable.
for json in "$out"/BENCH_*.json; do
  [[ -f "$json" ]] || continue
  grep -q '"git_sha"' "$json" && continue  # already stamped
  sed -i "s/^{/{\"git_sha\":\"$sha\",\"run_utc\":\"$when\",/" "$json"
done

echo "== reports in $out (stamped $sha @ $when) =="
ls -1 "$out"/BENCH_*.json 2>/dev/null || echo "(no reports written)"
