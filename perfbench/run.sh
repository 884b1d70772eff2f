#!/usr/bin/env bash
# Builds eventmatchd and the benchmark from the checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload fig12-exact20 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the repository root).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/eventmatchd" ]; then
	echo "run.sh: $root is not an eventmatch checkout" >&2
	exit 1
fi
mkdir -p "$build/bin" "$build/tmp" "$build/config" "$build/out"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off

(cd "$root" && go build -o "$build/bin/eventmatchd" ./cmd/eventmatchd)
(cd "$here" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -daemon "$build/bin/eventmatchd" -workdir "$build" "$@"
