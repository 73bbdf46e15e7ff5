#!/usr/bin/env bash
# Runs the benchmark binaries and emits BENCH_<name>.json baselines for the
# perf trajectory (google-benchmark JSON; items_per_second on the fault-sweep
# benchmarks is fault-sets/sec, on the registry benchmarks requests/sec;
# /threads:N case names carry the worker count of the parallel sweep cases).
#
# Usage:
#   bench/run_benches.sh [build-dir] [out-dir]
#
# Defaults: build-dir = ./build, out-dir = repo root. Pass a filter via
# BENCH_FILTER to restrict which google-benchmark cases run (default runs
# the surviving-diameter/fault-sweep/registry throughput benches, which are
# the PR acceptance metric, and the planner build; set BENCH_FILTER=. to run
# everything). Each
# JSON's context block records host_cores next to google-benchmark's own
# num_cpus, plus max_resident_bytes — the peak RSS of the bench process
# (getrusage ru_maxrss of the child) — so memory-sensitive baselines like
# the table-registry warm/cold cases are comparable across hosts. Next to
# those, cpu_model (Linux) names the host's CPU, and an "ftroute" context
# object names the build that produced the numbers: CMake build type,
# compiler and version, the -m flags (global,
# and the per-ISA packed-kernel files), and the packed lane width the code
# resolved on this host (each bench binary records it as lane_width).
# Both injections need python3; without it those fields are simply absent.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"
FILTER="${BENCH_FILTER:-surviving_diameter|fault_sweep|componentwise_sweep|srg_kernels|table_registry|parallel_executor|dist_sweep|construction}"
HOST_CORES="$(nproc 2>/dev/null || echo 1)"
mkdir -p "${OUT_DIR}"

echo "host cores: ${HOST_CORES}"

# Build context, read from the build directory's CMake cache.
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "${BUILD_DIR}/CMakeCache.txt" 2>/dev/null | head -n 1
}
BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)"
CXX_BIN="$(cache_value CMAKE_CXX_COMPILER)"
CXX_VERSION="$("${CXX_BIN:-c++}" --version 2>/dev/null | head -n 1 || true)"
BUILD_TYPE_UPPER="$(printf '%s' "${BUILD_TYPE}" | tr '[:lower:]' '[:upper:]')"
GLOBAL_M_FLAGS="$(printf '%s\n' $(cache_value CMAKE_CXX_FLAGS) \
  $(cache_value "CMAKE_CXX_FLAGS_${BUILD_TYPE_UPPER}") | grep -- '^-m' \
  | tr '\n' ' ' | sed 's/ $//' || true)"
ISA_M_FLAGS=""
[[ "$(cache_value FTROUTE_COMPILER_HAS_MAVX2)" == "1" ]] && ISA_M_FLAGS+="-mavx2 "
[[ "$(cache_value FTROUTE_COMPILER_HAS_MAVX512F)" == "1" ]] && ISA_M_FLAGS+="-mavx512f"
ISA_M_FLAGS="${ISA_M_FLAGS% }"
echo "build: ${BUILD_TYPE:-unknown}, ${CXX_VERSION:-unknown compiler}," \
  "global -m flags: '${GLOBAL_M_FLAGS}', per-ISA files: '${ISA_M_FLAGS}'"

HAVE_PYTHON3=0
if command -v python3 >/dev/null 2>&1; then
  HAVE_PYTHON3=1
else
  echo "python3 not found; skipping max_resident_bytes capture" >&2
fi

# Runs the bench (stdout/stderr inherited) and writes the child's peak RSS
# in bytes to $1. ru_maxrss is kilobytes on Linux but BYTES on macOS —
# scale per platform so a mac-produced baseline isn't 1024x inflated.
run_with_rss() {
  local rss_file="$1"
  shift
  python3 - "${rss_file}" "$@" <<'PY'
import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
scale = 1 if sys.platform == "darwin" else 1024
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * scale
with open(sys.argv[1], "w") as f:
    f.write(str(rss))
sys.exit(rc)
PY
}

# Injects max_resident_bytes and the ftroute build context into the JSON's
# context block, next to host_cores / num_cpus / lane_width.
inject_context() {
  local json="$1" rss="$2"
  python3 - "${json}" "${rss}" "${BUILD_TYPE}" "${CXX_VERSION}" \
    "${GLOBAL_M_FLAGS}" "${ISA_M_FLAGS}" <<'PY'
import json, sys
path, rss, build_type, compiler, global_m, isa_m = sys.argv[1:7]
with open(path) as f:
    data = json.load(f)
context = data.setdefault("context", {})
context["max_resident_bytes"] = int(rss)
# The CPU model names the host next to num_cpus (Linux only; absent
# elsewhere).
cpu_model = ""
try:
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
if cpu_model:
    context["cpu_model"] = cpu_model
context["ftroute"] = {
    "build_type": build_type,
    "compiler": compiler,
    "global_m_flags": global_m,
    "packed_kernel_m_flags": isa_m,
    "lane_width": context.get("lane_width", ""),
}
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY
}

BENCHES=(bench_recovery bench_comparison bench_srg_kernels bench_table_registry bench_parallel_executor bench_dist_sweep bench_construction)
WRITTEN_JSONS=()

for bench in "${BENCHES[@]}"; do
  bin="${BUILD_DIR}/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "skipping ${bench}: ${bin} not built" >&2
    continue
  fi
  out="${OUT_DIR}/BENCH_${bench#bench_}.json"
  if [[ "${bench}" == "bench_parallel_executor" ]]; then
    # Short name for the baseline the perf trajectory tracks
    # (the stealing executor on uniform/skewed chunk costs).
    out="${OUT_DIR}/BENCH_parallel.json"
  elif [[ "${bench}" == "bench_dist_sweep" ]]; then
    # Short name for the multi-process fan-out overhead baseline.
    out="${OUT_DIR}/BENCH_dist.json"
  fi
  echo "== ${bench} -> ${out}"
  # The run writes to a temp file, which replaces ${out} only if the filter
  # matched something in this binary: a filtered run must not clobber the
  # baselines of the benches it did not select.
  run_out="$(mktemp)"
  bench_cmd=("${bin}"
    --benchmark_filter="${FILTER}"
    --benchmark_repetitions=3
    --benchmark_report_aggregates_only=true
    --benchmark_format=console
    --benchmark_out="${run_out}"
    --benchmark_out_format=json)
  # The executor bench compares uniform against skewed chunk costs, so
  # interleave its repetitions randomly and take more of them: sequential
  # case order would fold slow machine drift (cgroup throttling, frequency
  # scaling — easily 2x on shared containers) into whichever case happens
  # to run last. The later --benchmark_repetitions wins. (Appended conditionally rather than
  # via an empty-by-default array: bash 3.2 under `set -u` rejects
  # expanding an empty array, and macOS still ships 3.2.)
  if [[ "${bench}" == "bench_parallel_executor" ]]; then
    bench_cmd+=(--benchmark_enable_random_interleaving=true
      --benchmark_repetitions=9)
  fi
  rss_file="$(mktemp)"
  if [[ "${HAVE_PYTHON3}" -eq 1 ]]; then
    run_with_rss "${rss_file}" "${bench_cmd[@]}"
  else
    "${bench_cmd[@]}"
  fi
  if ! grep -q '"name": "' "${run_out}"; then
    echo "no benchmark in ${bench} matched; ${out} left as it was"
    rm -f "${run_out}" "${rss_file}"
    continue
  fi
  if [[ "${HAVE_PYTHON3}" -eq 1 ]]; then
    inject_context "${run_out}" "$(cat "${rss_file}")"
  fi
  rm -f "${rss_file}"
  mv "${run_out}" "${out}"
  WRITTEN_JSONS+=("${out}")
done

# A filter alternative that matches nothing is a silently skipped
# acceptance metric (a typo'd BENCH_FILTER, or a renamed benchmark, would
# otherwise just drop its baseline from the JSONs). Check post hoc against
# the names the runs actually recorded — cheaper than --benchmark_list_tests,
# which would execute every binary's expensive table preamble a second time.
if [[ "${#WRITTEN_JSONS[@]}" -gt 0 ]]; then
  IFS='|' read -r -a FILTER_ALTS <<< "${FILTER}"
  for alt in "${FILTER_ALTS[@]}"; do
    [[ -z "${alt}" ]] && continue
    matched=0
    for json in "${WRITTEN_JSONS[@]}"; do
      # The second grep reads the whole stream (no -q): exiting at its
      # first match would kill the first grep with SIGPIPE, and pipefail
      # would report that as no match.
      if grep -E -- '"name": "' "${json}" \
          | grep -E -- "${alt}" > /dev/null; then
        matched=1
        break
      fi
    done
    if [[ "${matched}" -eq 0 ]]; then
      echo "error: BENCH_FILTER alternative '${alt}' matched no benchmark" >&2
      echo "       in: ${WRITTEN_JSONS[*]}" >&2
      exit 1
    fi
  done
fi

echo "done; baselines:"
ls -1 "${OUT_DIR}"/BENCH_*.json
