#!/usr/bin/env bash
# The benchmark's one entry point. It builds the harness and the daemon
# from the checkout it sits in, keeping every build product and scratch
# file under .bench_build/ and bench/out/, and then:
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is the result object
#   bench/run.sh [--seed n] [--seconds s] [--runs k]
#       every workload, untraced then traced
#   bench/run.sh --selfcheck [--seed n] [--seconds s] [--runs k]
#       every workload untraced, twice over; fails unless the two sets
#       agree within the bounds in BENCHMARK.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build=$PWD/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$build/bin/sigfiled" ./cmd/sigfiled
(cd bench && go build -o "$build/bin/bench" .)
bench=$build/bin/bench

mode=all seed=1 seconds=15 runs=1
case "${1:-}" in
--workload | -workload | --workload=* | -workload=* | --compare | -compare) exec "$bench" "$@" ;;
--selfcheck) mode=selfcheck runs=3 && shift ;;
esac
while [ $# -gt 0 ]; do
	case "$1" in
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	--runs) runs=$2 ;;
	*) echo "run.sh: unknown argument $1" >&2 && exit 2 ;;
	esac
	shift 2
done

workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)

# run_set <dir> <trace>: every workload $runs times, result lines
# appended to <dir>/<workload>.jsonl.
run_set() {
	rm -rf "$1" && mkdir -p "$1"
	for w in $workloads; do
		for _ in $(seq "$runs"); do
			"$bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$2" | tee "$build/last.txt"
			tail -n 1 "$build/last.txt" >>"$1/$w.jsonl"
		done
	done
}

if [ "$mode" = selfcheck ]; then
	(cd bench && go vet . && go test .)
	run_set "$build/out/a" 0
	run_set "$build/out/b" 0
	exec "$bench" --compare "$build/out/a,$build/out/b"
fi
run_set "$build/out/e2e" 0
run_set "$build/out/layers" 1
