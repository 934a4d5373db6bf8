#!/bin/sh
# Emit the repository's benchmark baseline as JSON.
#
# Usage:
#   scripts/bench_baseline.sh [output.json] [bench-regexp] [count]
#
# Defaults write BENCH_seed.json in the repo root from the fast-path
# microbenchmarks that gate performance regressions (the experiment
# benchmarks are full runs and too slow for a routine baseline): the
# end-to-end translation benchmarks at the root plus the event-core and
# core-datapath benchmarks in internal packages. Compare a later run against
# the baseline with scripts/bench_check.sh (or any JSON-aware diff);
# ns_per_op within ~2% is noise.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_seed.json}"
# Every baseline benchmark is named explicitly and the pattern is anchored
# below: an unanchored `-bench BenchmarkEngineStep` also matches
# BenchmarkEngineStepDeep (go test matches substrings), which once let two
# names share one set of averaged numbers in the seed baseline.
pattern="${2:-BenchmarkAccessPath|BenchmarkAccessPathInflight|BenchmarkAttributedAccessPath|BenchmarkAllocDealloc|BenchmarkEngineStep|BenchmarkEngineStepDeep|BenchmarkFabricAccessPath|BenchmarkSMCHit|BenchmarkSMCMissWalk|BenchmarkSwapMigration|BenchmarkSerialRunAll|BenchmarkShardedRunAll|BenchmarkShardBarrier|BenchmarkTimelineRecord}"
count="${3:-5}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "^($pattern)\$" -benchmem -count "$count" ./... | tee "$tmp" >&2

# Parse `go test -bench` lines:
#   BenchmarkAccessPath-8   8242424   146.7 ns/op   0 B/op   0 allocs/op
# Repeated -count runs of the same benchmark are averaged.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v go="$(go version | awk '{print $3}')" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    n[name]++
    ns[name] += $3
    for (i = 4; i < NF; i++) {
        if ($(i+1) == "B/op")      bpo[name] += $i
        if ($(i+1) == "allocs/op") apo[name] += $i
    }
}
END {
    printf "{\n  \"generated\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", date, go
    first = 1
    for (name in n) names[++cnt] = name
    # Stable output order.
    for (i = 1; i <= cnt; i++)
        for (j = i + 1; j <= cnt; j++)
            if (names[j] < names[i]) { t = names[i]; names[i] = names[j]; names[j] = t }
    for (i = 1; i <= cnt; i++) {
        name = names[i]
        if (!first) printf ",\n"
        first = 0
        printf "    {\"name\": \"%s\", \"runs\": %d, \"ns_per_op\": %.2f, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f}", \
            name, n[name], ns[name] / n[name], bpo[name] / n[name], apo[name] / n[name]
    }
    printf "\n  ]\n}\n"
}' "$tmp" > "$out"

# Fail loudly if two entries carry verbatim-identical numbers: distinct
# benchmarks never tie to the hundredth of a nanosecond across averaged
# runs, so a duplicate means the pattern matched one benchmark under two
# names (or a copy-paste slipped into the baseline).
dupes="$(awk -F'"' '
/"name":/ {
    name = $4
    line = $0
    sub(/.*"ns_per_op": /, "", line)
    if (seen[line]) {
        printf "%s and %s share identical numbers: %s\n", seen[line], name, line
        bad = 1
    }
    seen[line] = name
}
END { exit bad }' "$out")" || {
    echo "bench_baseline.sh: duplicated benchmark entries in $out:" >&2
    echo "$dupes" >&2
    exit 1
}

echo "wrote $out" >&2
