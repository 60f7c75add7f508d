#!/usr/bin/env bash
# Runs the host-side simulator microbenchmarks (google-benchmark) and writes
# the JSON report to BENCH_sim_host.json at the repository root.
#
# Usage:
#   tools/run_host_bench.sh [build-dir] [extra google-benchmark flags...]
#
# The end-to-end Session benchmarks embed a run-twice determinism check
# (`run_twice_ok` counter): the JSON therefore carries, from the same run,
# both the launches/sec figures and the evidence that two fresh sessions
# produced bit-identical Reports and values. The host's CPU count and load
# average before and after the run are added to the JSON context, since
# host wall-clock figures mean little without them.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

bench_bin="$build_dir/bench/bench_sim_host"
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build it first:  cmake -B build -S . && cmake --build build --target bench_sim_host -j" >&2
  exit 1
fi

out_json="$repo_root/BENCH_sim_host.json"
load_before="$(cut -d' ' -f1-3 /proc/loadavg)"
"$bench_bin" \
  --benchmark_format=json \
  --benchmark_out="$out_json" \
  --benchmark_out_format=json \
  "$@"
load_after="$(cut -d' ' -f1-3 /proc/loadavg)"

echo
echo "Wrote $out_json"

# Record the host state and summarise the run if python3 is available.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$out_json" "$(nproc)" "$load_before" "$load_after" <<'PY'
import json, sys

path, nproc, before, after = sys.argv[1:5]
with open(path) as f:
    data = json.load(f)
ctx = data.setdefault("context", {})
ctx["nproc"] = int(nproc)
ctx["loadavg_1_5_15_before"] = [float(v) for v in before.split()]
ctx["loadavg_1_5_15_after"] = [float(v) for v in after.split()]
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")

print(f"host: nproc {nproc}, load average before {before}, after {after}")
for b in data.get("benchmarks", []):
    if "launches_per_s" in b:
        print(f"{b['name']}: {b['launches_per_s']:.0f} launches/s")
PY
fi
