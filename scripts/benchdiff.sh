#!/bin/sh
# benchdiff.sh — diff, snapshot and gate `go test -bench` outputs.
#
#	benchdiff.sh old.txt new.txt          # diff two bench outputs
#	benchdiff.sh -snapshot new.txt        # emit a BENCH_<date>.json body
#	benchdiff.sh -gate new.txt [snap]     # fail on >10% regression vs snap
#
# Capture a side with e.g.
#
#	go test -run NONE -bench PipelineHotLoop -benchmem -benchtime 5x . > bench_new.txt
#
# Diff mode prints one row per (benchmark, metric) present in both files,
# with the old value, new value and the relative delta. Works on any Go
# benchmark output: ns/op, B/op, allocs/op and custom ReportMetric units.
#
# Snapshot mode renders the parsed output as the JSON kept in the repo's
# BENCH_<date>.json files (benchmark → {metric: value}), stamped with the
# host's CPU model and GOMAXPROCS; commit a fresh one whenever a deliberate
# performance change moves the numbers:
#
#	scripts/benchdiff.sh -snapshot bench_new.txt > BENCH_$(date +%F).json
#
# Gate mode compares a fresh run against a snapshot — by default the
# lexicographically newest BENCH_*.json in the repository root, which the
# date naming makes the chronologically newest — and exits 1 when any
# metric regressed by more than BENCH_GATE_PCT percent (default 10), or
# when a (benchmark, metric) the snapshot records is missing from the run:
# a renamed or deleted benchmark must ship a refreshed snapshot rather
# than drop out of the gate unnoticed.
# Regression direction is metric-aware:
#
#   - per-op costs regress UPWARD: ns/op, B/op, allocs/op, and cost-like
#     custom metrics (ipc-loss, missed-errors);
#   - rates and gains regress DOWNWARD: */s throughputs (Mcycles/s),
#     speedup, mitf-gain, sdc-avf-reduction, commit-coverage;
#   - environment facts are never gated: workers, benchmarks.
#
# Snapshots are machine-local baselines: regenerate after a hardware
# change, don't compare across machines.
set -eu

# Snapshots live in the repository root regardless of where the script is
# invoked from; explicit file arguments stay relative to the caller's cwd.
repo_root=$(dirname "$0")/..

# parse FILE — emit "name metric value" triples from go-bench output, one
# per metric, with the -N proc suffix stripped so runs at different
# GOMAXPROCS still align.
parse() {
	awk '/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		for (i = 3; i + 1 <= NF; i += 2)
			printf "%s %s %s\n", name, $(i + 1), $i
	}' "$1"
}

# unparse FILE — recover the same triples from a snapshot JSON written by
# snapshot_json (one benchmark per line; this script owns both sides).
unparse() {
	awk '
	/^    "/ {
		line = $0
		sub(/^    "/, "", line)
		name = line
		sub(/".*/, "", name)
		sub(/^[^{]*\{/, "", line)
		sub(/\}.*$/, "", line)
		n = split(line, pairs, /, /)
		for (i = 1; i <= n; i++) {
			split(pairs[i], kv, /": /)
			metric = kv[1]
			sub(/^"/, "", metric)
			printf "%s %s %s\n", name, metric, kv[2]
		}
	}' "$1"
}

# snapshot_json FILE — render FILE's benchmarks as a snapshot stamped with
# the host it ran on: the CPU model go test printed and GOMAXPROCS (the
# -N suffix of the benchmark names; absent means 1).
snapshot_json() {
	cpu=$(sed -n 's/^cpu: //p' "$1" | head -n 1)
	procs=$(awk '/^Benchmark/ && match($1, /-[0-9]+$/) { print substr($1, RSTART + 1); exit }' "$1")
	parse "$1" | sort | awk -v date="$(date +%Y-%m-%d)" -v cpu="$cpu" -v procs="${procs:-1}" '
	BEGIN {
		printf "{\n  \"generated\": \"%s\",\n", date
		printf "  \"host\": {\"cpu\": \"%s\", \"gomaxprocs\": %s},\n", cpu, procs
		printf "  \"benchmarks\": {\n"
	}
	{
		if ($1 != name) {
			if (name != "") printf "},\n"
			name = $1
			printf "    \"%s\": {", name
			first = 1
		}
		if (!first) printf ", "
		printf "\"%s\": %s", $2, $3
		first = 0
	}
	END { if (name != "") printf "}\n"; printf "  }\n}\n" }'
}

diff_triples() {
	# Join on (name, metric); report old, new and delta%.
	awk '
	NR == FNR { old[$1 " " $2] = $3; next }
	{
		key = $1 " " $2
		if (!(key in old)) next
		o = old[key] + 0
		n = $3 + 0
		delta = (o == 0) ? 0 : 100 * (n - o) / o
		printf "%-55s %-12s %14g %14g %+9.1f%%\n", $1, $2, o, n, delta
	}
	BEGIN { printf "%-55s %-12s %14s %14s %10s\n", "benchmark", "metric", "old", "new", "delta" }
	' "$1" "$2"
}

case "${1:-}" in
-snapshot)
	[ $# -eq 2 ] || { echo "usage: $0 -snapshot new.txt" >&2; exit 2; }
	snapshot_json "$2"
	;;
-gate)
	[ $# -eq 2 ] || [ $# -eq 3 ] || { echo "usage: $0 -gate new.txt [snapshot.json]" >&2; exit 2; }
	snap="${3:-}"
	if [ -z "$snap" ]; then
		snap=$(ls "$repo_root"/BENCH_*.json 2>/dev/null | sort | tail -1 || true)
	fi
	if [ -z "$snap" ]; then
		echo "benchdiff: no BENCH_*.json snapshot to gate against; bootstrap one with:" >&2
		echo "  scripts/benchdiff.sh -snapshot <bench-output> > BENCH_\$(date +%F).json" >&2
		exit 1
	fi
	old_tmp=$(mktemp)
	new_tmp=$(mktemp)
	trap 'rm -f "$old_tmp" "$new_tmp"' EXIT
	unparse "$snap" | sort > "$old_tmp"
	parse "$2" | sort > "$new_tmp"
	diff_triples "$old_tmp" "$new_tmp"
	awk -v pct="${BENCH_GATE_PCT:-10}" -v snap="$snap" '
	# worse_sign(metric): +1 when the metric regresses upward (a cost),
	# -1 when it regresses downward (a rate or gain), 0 to exempt it.
	function worse_sign(m) {
		if (m ~ /\/s$/) return -1
		if (m == "speedup" || m == "mitf-gain") return -1
		if (m == "sdc-avf-reduction" || m == "commit-coverage") return -1
		if (m == "workers" || m == "benchmarks") return 0
		return 1  # ns/op, B/op, allocs/op, ipc-loss, missed-errors, ...
	}
	NR == FNR { old[$1 " " $2] = $3; next }
	{
		key = $1 " " $2
		if (!(key in old)) next
		seen[key] = 1
		o = old[key] + 0
		n = $3 + 0
		if (o == 0) next
		delta = 100 * (n - o) / o
		worse = worse_sign($2) * delta
		if (worse > pct) {
			printf "REGRESSION %s %s: %g -> %g (%+.1f%%, gate %g%%)\n", $1, $2, o, n, delta, pct
			bad = 1
		}
	}
	END {
		for (key in old) {
			if (!(key in seen)) {
				split(key, kf, " ")
				printf "MISSING %s %s: in the snapshot, not in this run\n", kf[1], kf[2]
				bad = 1
			}
		}
		if (bad) {
			printf "benchdiff: performance regressed past the %g%% gate, or rows went missing, vs %s\n", pct, snap
			printf "benchdiff: if the change is deliberate, refresh the snapshot:\n"
			printf "  scripts/benchdiff.sh -snapshot <bench-output> > BENCH_$(date +%%F).json\n"
			exit 1
		}
		printf "benchdiff: within the %g%% gate vs %s\n", pct, snap
	}
	' "$old_tmp" "$new_tmp"
	;;
*)
	[ $# -eq 2 ] || { echo "usage: $0 [-snapshot|-gate] ... (see header comment)" >&2; exit 2; }
	old_tmp=$(mktemp)
	new_tmp=$(mktemp)
	trap 'rm -f "$old_tmp" "$new_tmp"' EXIT
	parse "$1" > "$old_tmp"
	parse "$2" > "$new_tmp"
	diff_triples "$old_tmp" "$new_tmp"
	;;
esac
