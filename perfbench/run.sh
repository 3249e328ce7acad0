#!/usr/bin/env bash
# Repository benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload replay|fleet|query --seed N --seconds S --trace 0|1
#
# It builds perfbench from source into .bench_build/, generates the
# workload's seeded input into .bench_data/ in a separate process (so the
# measured process never holds the generated stream), then measures and
# prints one JSON result line as the last line of standard output. All
# build, cache and temporary files stay inside the checkout.
set -euo pipefail

workload="" seed="" seconds="10" traced="0"
while [ $# -gt 0 ]; do
	case "$1" in
	--workload) workload="$2"; shift 2 ;;
	--seed) seed="$2"; shift 2 ;;
	--seconds) seconds="$2"; shift 2 ;;
	--trace) traced="$2"; shift 2 ;;
	--workload=*) workload="${1#*=}"; shift ;;
	--seed=*) seed="${1#*=}"; shift ;;
	--seconds=*) seconds="${1#*=}"; shift ;;
	--trace=*) traced="${1#*=}"; shift ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done
if [ -z "$workload" ] || [ -z "$seed" ]; then
	echo "run.sh: --workload and --seed are required" >&2
	exit 2
fi

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOENV=off GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
export GOMAXPROCS=2

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
# Generated inputs are cached per workload and seed; keep only the six
# most recently written so runs over many seeds do not fill the disk.
# (ls fails on an empty directory, which pipefail would turn into an exit.)
mkdir -p "$root/.bench_data"
{ ls -1dt "$root/.bench_data"/*/ 2>/dev/null || true; } | tail -n +7 | xargs -r rm -rf
"$build/perfbench" gen -workload "$workload" -seed "$seed" -data "$root/.bench_data" >&2
exec "$build/perfbench" run -workload "$workload" -seed "$seed" -data "$root/.bench_data" \
	-seconds "$seconds" -trace "$traced"
