#!/usr/bin/env bash
# Runs the performance benches and aggregates their BENCH_JSON lines into
# BENCH_3.json (DES kernel + parallel scaling + the frozen visibility
# cache's steady-state allocation gate; the committed file is an older
# snapshot whose visibility_cache payload still has the retired
# uncached-vs-cached keys),
# BENCH_5.json (fault-injection engine), BENCH_6.json (SoA episode batching,
# ISSUE 6), BENCH_7.json (episode batching + span-profiler overhead,
# ISSUE 7), BENCH_8.json (BENCH_7's pair + the mega-constellation
# scale-out, ISSUE 8), BENCH_9.json (the same trio; the committed
# snapshot also holds the retired episode_interleave payload, ISSUE 9),
# and BENCH_10.json (BENCH_9's trio plus the chaos_soak
# stochastic-fault / self-healing-link harness, ISSUE 10) at the repo
# root. The committed BENCH_4.json is historical; nothing writes it.
#
#   tools/run_bench.sh [build-dir]
#
# Configures a Release build (default build-bench/), builds and runs the
# bench binaries, and joins their lines of the form
#   BENCH_JSON {...}
# into single JSON documents (see tools/README.md for the schemas). The
# des_kernel, fault_storm, episode_batch, span_overhead and
# constellation_scale binaries enforce their acceptance gates
# (>= 1.5-2x speedups, <= 5% overheads, zero steady-state allocations),
# so a failing gate fails this script (chaos_soak gates its clean-path
# overhead, expansion allocations, and invariant count likewise).
# Afterwards bench_trend compares BENCH_8 -> BENCH_9 -> BENCH_10 and
# fails on a gated throughput regression.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-bench"}"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" -j \
  --target des_kernel parallel_scaling fault_storm \
  episode_batch span_overhead constellation_scale chaos_soak \
  bench_trend >/dev/null

log3="$(mktemp)"
log5="$(mktemp)"
log6="$(mktemp)"
log7="$(mktemp)"
log8="$(mktemp)"
log9="$(mktemp)"
log10="$(mktemp)"
trap 'rm -f "${log3}" "${log5}" "${log6}" "${log7}" "${log8}" \
  "${log9}" "${log10}"' EXIT

# Join a log's BENCH_JSON payloads into {"benchmarks": [...]}.
aggregate() {
  grep '^BENCH_JSON ' "$1" | sed 's/^BENCH_JSON //' |
    awk 'BEGIN { printf "{\"schema\":\"oaq-bench-v1\",\"benchmarks\":[" }
         { printf "%s%s", (NR > 1 ? "," : ""), $0 }
         END { printf "]}\n" }' > "$2"
  echo "wrote $2" >&2
}

echo "== des_kernel ==" >&2
"${build_dir}/bench/des_kernel" | tee -a "${log3}" >&2
echo "== parallel_scaling ==" >&2
"${build_dir}/bench/parallel_scaling" | tee -a "${log3}" >&2
aggregate "${log3}" "${repo_root}/BENCH_3.json"

echo "== fault_storm ==" >&2
"${build_dir}/bench/fault_storm" | tee -a "${log5}" >&2
aggregate "${log5}" "${repo_root}/BENCH_5.json"

echo "== episode_batch ==" >&2
"${build_dir}/bench/episode_batch" | tee -a "${log6}" >&2
aggregate "${log6}" "${repo_root}/BENCH_6.json"

echo "== episode_batch + span_overhead ==" >&2
"${build_dir}/bench/episode_batch" | tee -a "${log7}" >&2
"${build_dir}/bench/span_overhead" | tee -a "${log7}" >&2
aggregate "${log7}" "${repo_root}/BENCH_7.json"

echo "== episode_batch + span_overhead + constellation_scale ==" >&2
"${build_dir}/bench/episode_batch" | tee -a "${log8}" >&2
"${build_dir}/bench/span_overhead" | tee -a "${log8}" >&2
"${build_dir}/bench/constellation_scale" | tee -a "${log8}" >&2
aggregate "${log8}" "${repo_root}/BENCH_8.json"

echo "== episode_batch + span_overhead + constellation_scale (BENCH_9) ==" >&2
"${build_dir}/bench/episode_batch" | tee -a "${log9}" >&2
"${build_dir}/bench/span_overhead" | tee -a "${log9}" >&2
"${build_dir}/bench/constellation_scale" | tee -a "${log9}" >&2
aggregate "${log9}" "${repo_root}/BENCH_9.json"

echo "== episode_batch + span_overhead + constellation_scale + chaos_soak ==" >&2
"${build_dir}/bench/episode_batch" | tee -a "${log10}" >&2
"${build_dir}/bench/span_overhead" | tee -a "${log10}" >&2
"${build_dir}/bench/constellation_scale" | tee -a "${log10}" >&2
"${build_dir}/bench/chaos_soak" | tee -a "${log10}" >&2
aggregate "${log10}" "${repo_root}/BENCH_10.json"

echo "== bench_trend BENCH_8 -> BENCH_9 -> BENCH_10 ==" >&2
"${build_dir}/tools/bench_trend" --max-regression 10 \
  "${repo_root}/BENCH_8.json" "${repo_root}/BENCH_9.json" \
  "${repo_root}/BENCH_10.json" >&2
