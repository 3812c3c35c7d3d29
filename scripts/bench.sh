#!/usr/bin/env bash
# bench.sh — run the root benchmark suite and emit a machine-readable
# JSON record of every result (iterations plus all metrics: ns/op,
# B/op, allocs/op, insts/s, and the figures' suite-geomean speedups).
#
# Usage:
#   scripts/bench.sh                      # full suite -> BENCH_local.json
#   BENCH_PATTERN='BenchmarkPipeline.*' \
#   BENCHTIME=5x COUNT=1 OUT=out.json scripts/bench.sh
#
# Environment:
#   BENCH_PATTERN  -bench regex            (default: . — the whole suite)
#   BENCHTIME      -benchtime per bench    (default: 1x)
#   COUNT          -count repetitions      (default: 1)
#   OUT            output JSON path        (default: BENCH_local.json,
#                                           untracked; BENCH_6.json is the
#                                           committed baseline bench_gate.sh
#                                           compares against)
#
# The JSON shape is stable for CI consumption:
#   { "generated": "...", "go": "...", "pattern": "...",
#     "benchtime": "...", "results": [
#       { "name": "BenchmarkPipelineOptimized", "iterations": 20,
#         "metrics": { "ns/op": 1.6e6, "insts/s": 3.2e6,
#                      "B/op": 513007, "allocs/op": 582 } }, ... ] }
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_PATTERN="${BENCH_PATTERN:-.}"
BENCHTIME="${BENCHTIME:-1x}"
COUNT="${COUNT:-1}"
OUT="${OUT:-BENCH_local.json}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$BENCH_PATTERN" -benchmem \
	-benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw" >&2

{
	printf '{\n'
	printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go version | sed 's/"/\\"/g')"
	printf '  "pattern": "%s",\n' "$BENCH_PATTERN"
	printf '  "benchtime": "%s",\n' "$BENCHTIME"
	printf '  "results": [\n'
	awk '
		/^Benchmark/ {
			# Fields: name iterations, then (value, unit) pairs.
			name = $1
			sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
			printf "%s    {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", sep, name, $2
			sep = ",\n"
			msep = ""
			for (i = 3; i < NF; i += 2) {
				printf "%s\"%s\":%s", msep, $(i+1), $i
				msep = ","
			}
			printf "}}"
		}
		END { printf "\n" }
	' "$raw"
	printf '  ]\n}\n'
} > "$OUT"

echo "wrote $OUT" >&2
