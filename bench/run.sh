#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the working
# directory (the root of a checkout) and runs it with the arguments given.
# Everything the build and the run write stays inside .bench_build/.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin"
(
	cd "$(dirname "${BASH_SOURCE[0]}")"
	HOME=$build/home XDG_CONFIG_HOME=$build/home/.config \
	GOCACHE=$build/go-cache GOPATH=$build/go-path GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/bin/bench" .
)
exec "$build/bin/bench" "$@"
