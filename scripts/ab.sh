#!/usr/bin/env bash
# A/B the benchmark between two revisions of this repository.
#
#   scripts/ab.sh <rev-a> <rev-b> <workload> <pairs> [seed]
#   scripts/ab.sh <rev-a> <rev-b> experiment:<name> <pairs>
#
# A is the parent, B the change; seed defaults to 1. Each revision is checked
# out as a detached git worktree in a scratch directory and its bench/ built
# there by bench/run.sh, which keeps Go's build cache and GOPATH inside the
# worktree and sets GOPROXY=off. The script then runs
#
#   bench/run.sh --workload W --seed S --trace 0
#
# <pairs> times on each side, alternating which side runs first, and keeps the
# result line of every run. It prints, for each end-to-end metric in
# BENCHMARK.json, both sides' median and interquartile range and how many
# pairs B won (ties count for neither), then whether the virtual-time metrics
# (sim_*) were identical in every run and how many operations failed. README
# ("Perf claims") says how to read it.
#
# Given experiment:<name> in place of a workload, it builds cmd/lwfsbench on
# both sides instead and alternates `lwfsbench -experiment <name>` runs. It
# prints both sides' wall-clock median and IQR in seconds, with B's win count,
# and whether every run's stdout was byte-identical to A's first (the reports
# are deterministic, so a host-only change must leave them so). The worktrees
# and the scratch directory are removed on exit.
set -euo pipefail

usage() {
	echo "usage: scripts/ab.sh <rev-a> <rev-b> <workload> <pairs> [seed]" >&2
	echo "       scripts/ab.sh <rev-a> <rev-b> experiment:<name> <pairs>" >&2
	exit 2
}
if [ $# -lt 4 ] || [ $# -gt 5 ]; then
	usage
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=$4 seed=${5:-1}
experiment=
case $workload in experiment:*)
	experiment=${workload#experiment:}
	if [ -z "$experiment" ] || [ $# -gt 4 ]; then
		usage
	fi
	;;
esac
case $pairs in '' | *[!0-9]* | 0)
	echo "scripts/ab.sh: <pairs> must be a positive integer, got '$pairs'" >&2
	exit 2
	;;
esac
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
a=$(git -C "$repo" rev-parse --verify "$rev_a^{commit}")
b=$(git -C "$repo" rev-parse --verify "$rev_b^{commit}")

scratch=$(mktemp -d "${TMPDIR:-/tmp}/lwfs-ab.XXXXXX")
cleanup() {
	for side in a b; do
		[ -d "$scratch/$side" ] && git -C "$repo" worktree remove --force "$scratch/$side" >/dev/null 2>&1
	done
	git -C "$repo" worktree prune
	rm -rf "$scratch"
}
trap cleanup EXIT

export GOPROXY=off GOFLAGS=
for side in a b; do
	rev=$a
	[ $side = b ] && rev=$b
	git -C "$repo" worktree add --detach --quiet "$scratch/$side" "$rev"
	if [ -n "$experiment" ]; then
		if ! (cd "$scratch/$side" && go build -o "$scratch/$side.lwfsbench" ./cmd/lwfsbench); then
			echo "scripts/ab.sh: cmd/lwfsbench does not build at $rev" >&2
			exit 1
		fi
		continue
	fi
	# Build once before timing anything: -h makes the freshly built binary
	# print its usage and exit.
	bash "$scratch/$side/bench/run.sh" -h >/dev/null 2>&1 || true
	if [ ! -x "$scratch/$side/.bench_build/lwfs-bench" ]; then
		echo "scripts/ab.sh: bench/ does not build at $rev" >&2
		bash "$scratch/$side/bench/run.sh" -h >&2 || true
		exit 1
	fi
done

# Quartiles as bench/measure.go takes them, shared by both reports.
stats='
function sortn(x, n,   i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && x[j-1] > x[j]; j--) { t = x[j]; x[j] = x[j-1]; x[j-1] = t }
}
# the k-th of four cut points of sorted x[1..n]
function cut(x, n, k,   j, d) {
	if (n == 1) return x[1]
	j = int(k * (n + 1) / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
	d = k * (n + 1) - j * 4
	return (x[j] * (4 - d) + x[j+1] * d) / 4
}'

if [ -n "$experiment" ]; then
	run() { # side, pair: time one run, keep its stdout
		local t0 t1
		t0=$(date +%s%N)
		"$scratch/$1.lwfsbench" -experiment "$experiment" >"$scratch/$1.$2.out"
		t1=$(date +%s%N)
		echo $(((t1 - t0) / 1000000)) >>"$scratch/$1.wall"
	}
	echo "A=$rev_a ($a)  B=$rev_b ($b)  experiment=$experiment pairs=$pairs"
	for ((i = 1; i <= pairs; i++)); do
		if ((i % 2)); then run a $i && run b $i; else run b $i && run a $i; fi
		printf 'pair %d/%d done\n' "$i" "$pairs" >&2
	done
	awk "$stats"'
	FNR == 1 { f++ }
	{ w[f, FNR] = $1 / 1000; n = FNR }
	END {
		for (i = 1; i <= n; i++) { xa[i] = w[1, i]; xb[i] = w[2, i]; if (xb[i] < xa[i]) wins++ }
		sortn(xa, n); sortn(xb, n)
		printf "%-14s %12s %11s %12s %11s %7s %6s\n", "metric", "A median", "A IQR", "B median", "B IQR", "B/A", "B wins"
		ma = cut(xa, n, 2); mb = cut(xb, n, 2)
		printf "%-14s %12.6g %11.4g %12.6g %11.4g %7.3f %3d/%-3d (lower is better)\n", "wall_s",
			ma, cut(xa, n, 3) - cut(xa, n, 1), mb, cut(xb, n, 3) - cut(xb, n, 1), ma ? mb / ma : 0, wins + 0, n
	}' "$scratch/a.wall" "$scratch/b.wall"
	same=1
	for ((i = 1; i <= pairs; i++)); do
		for side in a b; do
			cmp -s "$scratch/a.1.out" "$scratch/$side.$i.out" || same=0
		done
	done
	if ((same)); then
		echo "stdout: identical in all $((2 * pairs)) runs ($(wc -c <"$scratch/a.1.out") bytes)"
	else
		echo "stdout: DIFFERS"
		diff "$scratch/a.1.out" "$scratch/b.1.out" | head -20 || true
	fi
	exit 0
fi

run() { # side: append one run's result line to side.jsonl
	bash "$scratch/$1/bench/run.sh" --workload "$workload" --seed "$seed" --trace 0 |
		tail -n 1 >>"$scratch/$1.jsonl"
}
echo "A=$rev_a ($a)  B=$rev_b ($b)  workload=$workload seed=$seed pairs=$pairs"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then run a && run b; else run b && run a; fi
	printf 'pair %d/%d done\n' "$i" "$pairs" >&2
done

# The end-to-end metrics and their directions, from B's manifest.
manifest=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$scratch/b/BENCHMARK.json")

echo "$manifest" | awk -v fa="$scratch/a.jsonl" -v fb="$scratch/b.jsonl" "$stats"'
# value of metric m in a result line, or "" when the line lacks it
function val(line, m,   s) {
	if (!match(line, "\"" m "\":\\{\"value\":[-+0-9.eE]+")) return ""
	s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s + 0
}
# field f ("failed", "attempted", "correct") of a result line
function field(line, f,   s) {
	if (!match(line, "\"" f "\":[a-z0-9]+")) return "?"
	s = substr(line, RSTART, RLENGTH); sub(/.*:/, "", s); return s
}
# x[1..n] = metric m of result lines line[1..n], sorted
function sorted(line, n, m, x,   i) {
	for (i = 1; i <= n; i++) x[i] = val(line[i], m)
	sortn(x, n)
}
# the virtual-time signature of a result line: its sim_* values and its check
function virtual(line,   s, out, rest) {
	out = "correct=" field(line, "correct")
	rest = line
	while (match(rest, /"sim_[a-z0-9_]+":\{"value":[-+0-9.eE]+/)) {
		s = substr(rest, RSTART, RLENGTH); gsub(/"|\{"value":/, "", s); sub(/:/, "=", s)
		out = out " " s
		rest = substr(rest, RSTART + RLENGTH)
	}
	return out
}
BEGIN {
	while ((getline l < fa) > 0) A[++na] = l
	while ((getline l < fb) > 0) B[++nb] = l
	n = na < nb ? na : nb
	printf "%-14s %12s %11s %12s %11s %7s %6s\n", "metric", "A median", "A IQR", "B median", "B IQR", "B/A", "B wins"
}
{
	m = $1; better = $2
	if (val(A[1], m) == "") next
	wins = 0
	for (i = 1; i <= n; i++) {
		va = val(A[i], m); vb = val(B[i], m)
		if ((better == "lower" && vb < va) || (better == "higher" && vb > va)) wins++
	}
	sorted(A, n, m, xa); sorted(B, n, m, xb)
	ma = cut(xa, n, 2); mb = cut(xb, n, 2)
	printf "%-14s %12.6g %11.4g %12.6g %11.4g %7.3f %3d/%-3d (%s is better)\n", m,
		ma, cut(xa, n, 3) - cut(xa, n, 1), mb, cut(xb, n, 3) - cut(xb, n, 1), ma ? mb / ma : 0, wins, n, better
}
END {
	for (i = 1; i <= n; i++) {
		fA += field(A[i], "failed"); tA += field(A[i], "attempted")
		fB += field(B[i], "failed"); tB += field(B[i], "attempted")
	}
	printf "failed operations: A %d of %d, B %d of %d\n", fA, tA, fB, tB
	ref = virtual(A[1]); same = 1
	for (i = 1; i <= n; i++) if (virtual(A[i]) != ref || virtual(B[i]) != ref) same = 0
	if (same) print "virtual time: identical in all " 2 * n " runs (" ref ")"
	else {
		print "virtual time: DIFFERS"
		print "  A run 1: " ref
		for (i = 1; i <= n; i++) if (virtual(B[i]) != ref) { print "  B run " i ": " virtual(B[i]); break }
	}
}'
