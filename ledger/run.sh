#!/usr/bin/env bash
# Builds the ledger benchmark from the checkout it sits in and runs it
# with the given flags, e.g.
#
#   bash ledger/run.sh --workload oltp --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, module path,
# configuration and telemetry directories, the binary and the
# benchmark's temporary databases all live under .bench_build/ in that
# directory, so nothing outside the checkout is written. Outside a
# checkout of the module (no ../go.mod) the build fails and so does
# this script.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build/ledger"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/ledger" .)
exec "$out/ledger" -tmp "$out/tmp" "$@"
