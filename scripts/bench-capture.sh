#!/usr/bin/env sh
# bench-capture.sh — run the simulator and storage-layer benchmarks (sim,
# netsim, osd extent store, txn journal) and write BENCH_SIM.json: ns/op and
# allocs/op per benchmark, plus derived events/sec for the kernel dispatch
# path (the headline "how big a sweep can one wall-clock second
# push through" number). CI runs this for a well-formedness check; run it
# locally before and after kernel changes to compare.
#
# Usage: scripts/bench-capture.sh [output.json]
set -eu
out="${1:-BENCH_SIM.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# -benchtime default (1s) keeps numbers stable; override via BENCHTIME for
# the CI smoke (the smoke job runs `go test -bench` directly instead).
go test -bench . -benchmem -benchtime "${BENCHTIME:-1s}" -run '^$' \
	./internal/sim/ ./internal/netsim/ ./internal/osd/ ./internal/txn/ | tee "$tmp" >&2

# Parse `BenchmarkName-N  iters  ns/op  B/op  allocs/op` lines into JSON.
awk '
BEGIN { print "{"; n = 0 }
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = ""
	allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i - 1)
		if ($i == "allocs/op") allocs = $(i - 1)
	}
	if (ns == "") next
	if (n++) printf ",\n"
	printf "  \"%s\": {\"ns_per_op\": %s", name, ns
	if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
	if (name == "BenchmarkEventDispatch" && ns + 0 > 0)
		printf ", \"events_per_sec\": %d", 1e9 / ns
	printf "}"
}
END {
	if (n == 0) { print "parse error: no benchmark lines" > "/dev/stderr"; exit 1 }
	printf "\n}\n"
}
' "$tmp" >"$out"

echo "wrote $out" >&2
