#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload handoff --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# temporary files, toolchain config, the binary, span files) stays under
# .bench_build in the current directory. The build needs no network.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
