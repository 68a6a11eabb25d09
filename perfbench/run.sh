#!/usr/bin/env bash
# Builds the benchmark and the hinriskd daemon from this checkout, then runs
# one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the two binaries, generated
# fixtures and trace files. The last line of stdout is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOCACHE="$out/gocache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTELEMETRY=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/hinriskd" github.com/hinpriv/dehin/cmd/hinriskd
) >&2

exec "$out/perfbench" -daemon "$out/hinriskd" -workdir "$out/tmp" "$@"
