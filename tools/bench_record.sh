#!/bin/sh
# Record the dispatch-engine A/B perf snapshot for this checkout.
#
# Usage: tools/bench_record.sh [BUILD_DIR] [OUT_FILE] [REPETITIONS]
#
#   BUILD_DIR    cmake build tree holding bench/bench_micro
#                (default: build)
#   OUT_FILE     where the snapshot lands (default: BENCH_9.json)
#   REPETITIONS  google-benchmark repetitions per benchmark
#                (default: 5; medians are recorded)
#
# Runs bench_micro's end-to-end and functional-emulation benchmarks
# on the predecoded emulator and on the test-only decode-as-you-go
# reference interpreter ("legacy") and writes one JSON document with
# the median times, simulation rates, wall-clock elapsed_seconds, and
# the build flags that produced the binary — a committed baseline
# future PRs can diff against on comparable hardware. Cross-machine
# numbers are not comparable; the predecoded-vs-legacy ratio on the
# same runner is the meaningful figure.
set -eu

build_dir=${1:-build}
out_file=${2:-BENCH_9.json}
reps=${3:-5}

bin="$build_dir/bench/bench_micro"
if [ ! -x "$bin" ]; then
    echo "error: $bin not found (run cmake --build first)" >&2
    exit 2
fi
cache="$build_dir/CMakeCache.txt"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

start=$(date +%s)
"$bin" \
    --benchmark_filter='BM_EndToEndSimulation|BM_FunctionalEmulation' \
    --benchmark_repetitions="$reps" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$raw"
end=$(date +%s)

RAW_JSON="$raw" CMAKE_CACHE="$cache" REPS="$reps" \
ELAPSED=$((end - start)) OUT_FILE="$out_file" python3 - <<'PY'
import json
import os
import re

with open(os.environ["RAW_JSON"]) as f:
    doc = json.load(f)

cache = {}
try:
    with open(os.environ["CMAKE_CACHE"]) as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
except OSError:
    pass

MODES = {
    "BM_EndToEndSimulation": ("end_to_end", "predecoded"),
    "BM_EndToEndSimulationLegacy": ("end_to_end", "legacy"),
    "BM_FunctionalEmulation": ("functional", "predecoded"),
    "BM_FunctionalEmulationLegacy": ("functional", "legacy"),
}

end_to_end, functional = {}, {}
for b in doc.get("benchmarks", []):
    if b.get("aggregate_name") != "median":
        continue
    base = b["name"].rsplit("_", 1)[0]
    if base not in MODES:
        continue
    group, mode = MODES[base]
    entry = {
        "time_ms": round(b["real_time"], 3),
        "cpu_ms": round(b["cpu_time"], 3),
    }
    if group == "end_to_end":
        entry["sim_inst_per_s"] = round(b.get("sim_inst_per_s", 0.0))
        end_to_end[mode] = entry
    else:
        entry["emu_inst_per_s"] = round(b.get("emu_inst_per_s", 0.0))
        functional[mode] = entry

out = {
    "bench": "bench_micro dispatch A/B",
    "workload": "026.compress",
    "repetitions": int(os.environ["REPS"]),
    "aggregate": "median",
    "elapsed_seconds": int(os.environ["ELAPSED"]),
    "host": {"cpus": os.cpu_count()},
    "build": {
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": cache.get("CMAKE_CXX_FLAGS", ""),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "lto": cache.get("ELAG_LTO", "") == "ON",
    },
    "end_to_end_simulation": end_to_end,
    "functional_emulation": functional,
}

# The same-runner step change: the predecoded emulator against the
# decode-as-you-go reference interpreter.
new = end_to_end.get("predecoded")
old = end_to_end.get("legacy")
if new and old and old["cpu_ms"] > 0:
    out["improvement_vs_legacy_percent"] = round(
        (1.0 - new["cpu_ms"] / old["cpu_ms"]) * 100.0, 1)

with open(os.environ["OUT_FILE"], "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {os.environ['OUT_FILE']}")
PY

# The table-pressure crossover capture rides along with the perf
# snapshot: both are committed-baseline artifacts future PRs diff
# against, and both need the same built tree.
xbin="$build_dir/bench/bench_crossover"
if [ -x "$xbin" ]; then
    xout="$(dirname "$out_file")/BENCH_crossover.json"
    echo "== bench_crossover -> $xout" >&2
    "$xbin" --json --out="$xout"
else
    echo "note: $xbin not built; skipping crossover capture" >&2
fi
