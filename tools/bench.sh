#!/usr/bin/env bash
# bench.sh — run the Table IV–VII reproduction benchmarks plus the
# pinned channel microbenchmarks and emit a machine-readable
# BENCH_<n>.json snapshot in the repo root.
#
# Usage:
#   tools/bench.sh [bench-regex]          run benches, write snapshot,
#                                         print a delta summary vs the
#                                         previous snapshot
#   tools/bench.sh --check [old] [new]    compare two snapshots only;
#                                         exit 1 if any benchmark
#                                         matching PIN_REGEX regressed
#                                         more than MAX_REGRESSION_PCT
#                                         (defaults: the two
#                                         highest-numbered BENCH_*.json)
#
# Environment:
#   BENCHTIME  per-benchmark -benchtime (default 20x)
#   COUNT      -count repetitions; the best (min ns/op) run per benchmark
#              is recorded, which is the stable statistic for short
#              benchmarks (default 5)
#   OUT        output file; default BENCH_<n>.json with the first free n
#   BASE       snapshot to diff against (default: highest-numbered
#              BENCH_*.json other than OUT)
#   PIN_REGEX  benchmarks gated by --check (default: the channel
#              microbenchmarks of internal/channel and the R-MAT and
#              Undirectify kernels of internal/graph)
#   MAX_REGRESSION_PCT  --check failure threshold (default 20)
#
# Each entry in "results" holds the benchmark name (GOMAXPROCS suffix
# stripped), iterations, ns/op, and every auxiliary metric the benchmark
# reports (sim-ms/op, msgMB/op, steps/op, B/op, allocs/op, ...).
# Successive snapshots (BENCH_0.json, BENCH_1.json, ...) form the
# benchmark trajectory of the repo; compare any two with e.g.
#   tools/bench.sh --check BENCH_1.json BENCH_2.json
set -euo pipefail

cd "$(dirname "$0")/.."

PIN_REGEX="${PIN_REGEX:-^Benchmark(DirectMessageRing|CombinedMessageFanIn|ScatterCombineRing|ScatterCombineFragment|ScatterCombineFragmentValues|AggregatorSum|RequestRespondHub|PropagationPath|PropagationFragment|MirrorHubBroadcast|LiveIngest|LiveCompact|LivePinRelease|TraceObserverOff|FlowStatsOff|DistributedExchange/(hub|hub-2x2)|RMAT|Undirectify)$}"
MAX_REGRESSION_PCT="${MAX_REGRESSION_PCT:-20}"

# latest_snapshots prints the two highest-numbered BENCH_<n>.json files
# (old then new), or fewer if they do not exist.
latest_snapshots() {
  ls BENCH_*.json 2>/dev/null | sed 's/BENCH_\([0-9]*\)\.json/\1 &/' | sort -n | awk '{print $2}' | tail -2
}

# extract FILE — print "name<TAB>ns/op" for every result in a snapshot
# (no jq dependency: the writer emits one result object per line).
extract() {
  grep -o '{"name": "[^"]*", "iterations": [0-9]*, [^}]*}' "$1" |
    sed 's/{"name": "\([^"]*\)".*"ns\/op": \([0-9.e+]*\).*/\1\t\2/'
}

# cpu_of FILE — the snapshot's recorded cpu model.
cpu_of() {
  sed -n 's/^  "cpu": "\(.*\)",$/\1/p' "$1" | head -1
}

# delta OLD NEW MODE — print ns/op deltas for benchmarks common to both
# snapshots; in MODE=check, exit 1 on pinned regressions — unless the
# snapshots were recorded on different CPUs, where ns/op is not
# comparable and the gate downgrades to a warning.
delta() {
  local old="$1" new="$2" mode="$3"
  if [ "$mode" = check ] && [ "$(cpu_of "$old")" != "$(cpu_of "$new")" ]; then
    echo "WARNING: $old and $new were recorded on different CPUs; ns/op not comparable, skipping regression gate" >&2
    mode=summary
  fi
  extract "$old" >"/tmp/bench_old.$$"
  extract "$new" >"/tmp/bench_new.$$"
  awk -F'\t' -v mode="$mode" -v pin="$PIN_REGEX" -v maxpct="$MAX_REGRESSION_PCT" -v oldf="$old" -v newf="$new" '
    NR == FNR { base[$1] = $2; next }
    {
      cur[$1] = $2
      if (!($1 in base)) { fresh[++nfresh] = $1; next }
      order[++n] = $1
    }
    END {
      printf "delta %s -> %s (ns/op):\n", oldf, newf
      bad = 0
      for (i = 1; i <= n; i++) {
        name = order[i]
        pct = (cur[name] - base[name]) / base[name] * 100
        flag = ""
        if (name ~ pin) {
          flag = " [pinned]"
          if (pct > maxpct) { flag = flag " REGRESSION"; bad++ }
        }
        printf "  %-55s %12.0f -> %12.0f  %+7.1f%%%s\n", name, base[name], cur[name], pct, flag
      }
      for (i = 1; i <= nfresh; i++)
        printf "  %-55s %12s -> %12.0f      new\n", fresh[i], "-", cur[fresh[i]]
      missing = 0
      for (name in base) {
        if (name in cur) continue
        flag = ""
        if (name ~ pin) { flag = " [pinned] MISSING"; missing++ }
        printf "  %-55s %12.0f -> %12s      removed%s\n", name, base[name], "-", flag
      }
      if (mode == "check") {
        if (bad > 0 || missing > 0) {
          printf "FAIL: %d pinned benchmark(s) regressed more than %s%%, %d missing from the newer snapshot\n", bad, maxpct, missing
          exit 1
        }
        printf "OK: no pinned benchmark regressed more than %s%% or went missing\n", maxpct
      }
    }
  ' "/tmp/bench_old.$$" "/tmp/bench_new.$$" && rc=0 || rc=$?
  rm -f "/tmp/bench_old.$$" "/tmp/bench_new.$$"
  return "$rc"
}

if [ "${1:-}" = "--check" ]; then
  old="${2:-}"
  new="${3:-}"
  if [ -z "$old" ] || [ -z "$new" ]; then
    set -- $(latest_snapshots)
    if [ $# -lt 2 ]; then
      echo "bench.sh --check: need two BENCH_<n>.json snapshots" >&2
      exit 0 # nothing to compare yet: not a failure
    fi
    old="$1"; new="$2"
  fi
  delta "$old" "$new" check && exit 0 || exit 1
fi

REGEX="${1:-^(BenchmarkTable[4-7]|BenchmarkDirectMessageRing|BenchmarkCombinedMessageFanIn|BenchmarkScatterCombineRing|BenchmarkScatterCombineFragment|BenchmarkScatterCombineFragmentValues|BenchmarkCombinerFold|BenchmarkAggregatorSum|BenchmarkRequestRespondHub|BenchmarkPropagationPath|BenchmarkPropagationFragment|BenchmarkMirrorHubBroadcast|BenchmarkLiveIngest|BenchmarkLiveCompact|BenchmarkLivePinRelease|BenchmarkTraceObserverOff|BenchmarkTraceObserverOn|BenchmarkFlowStatsOff|BenchmarkFlowStatsOn|BenchmarkCheckpoint|BenchmarkDistributedExchange|BenchmarkRMAT|BenchmarkUndirectify)$}"
BENCHTIME="${BENCHTIME:-20x}"
COUNT="${COUNT:-5}"

if [ -z "${OUT:-}" ]; then
  n=0
  while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
  OUT="BENCH_${n}.json"
fi
if [ -z "${BASE:-}" ]; then
  BASE="$(ls BENCH_*.json 2>/dev/null | grep -vx "$OUT" | sed 's/BENCH_\([0-9]*\)\.json/\1 &/' | sort -n | awk '{print $2}' | tail -1 || true)"
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "running: go test -run=NONE -bench \"$REGEX\" -benchtime=$BENCHTIME -count=$COUNT . ./internal/channel ./internal/live ./internal/algorithms ./internal/graph" >&2
go test -run=NONE -bench "$REGEX" -benchtime="$BENCHTIME" -count="$COUNT" . ./internal/channel ./internal/live ./internal/algorithms ./internal/graph | tee "$raw" >&2

awk -v benchtime="$BENCHTIME" -v count="$COUNT" -v regex="$REGEX" '
BEGIN {
  cmd = "date -u +%Y-%m-%dT%H:%M:%SZ"; cmd | getline ts; close(cmd)
  gv = ""
}
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)  # strip GOMAXPROCS suffix
  iters = $2 + 0
  ns = -1
  line = ""
  for (i = 3; i + 1 <= NF; i += 2) {
    val = $i + 0; unit = $(i + 1)
    if (unit == "ns/op") ns = val
    gsub(/"/, "", unit)
    line = line sprintf("%s\"%s\": %s", (line == "" ? "" : ", "), unit, val)
  }
  if (ns < 0) next
  if (!(name in best) || ns < bestNs[name]) {
    bestNs[name] = ns
    best[name] = sprintf("{\"name\": \"%s\", \"iterations\": %d, %s}", name, iters, line)
  }
  if (!(name in seen)) { order[++norder] = name; seen[name] = 1 }
}
END {
  printf "{\n"
  printf "  \"generated\": \"%s\",\n", ts
  printf "  \"goos\": \"%s\", \"goarch\": \"%s\",\n", goos, goarch
  printf "  \"cpu\": \"%s\",\n", cpu
  printf "  \"bench_regex\": \"%s\", \"benchtime\": \"%s\", \"count\": %d,\n", regex, benchtime, count
  printf "  \"results\": [\n"
  for (i = 1; i <= norder; i++)
    printf "    %s%s\n", best[order[i]], (i < norder ? "," : "")
  printf "  ]\n}\n"
}
' "$raw" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)" >&2
if [ -n "$BASE" ] && [ -e "$BASE" ]; then
  delta "$BASE" "$OUT" summary >&2
fi
