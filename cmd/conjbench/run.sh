#!/usr/bin/env bash
# Builds conjbench from source and runs it with the given flags, e.g.
#
#   bash cmd/conjbench/run.sh -workload grid-cold -seed 3
#
# Run it from the repository root. Everything the build and the run write
# (binary, Go build cache, temporary files, go's config and telemetry
# files, trace files) goes under $CARGO_TARGET_DIR, default .bench_build,
# so a checkout is only written inside itself. The build never touches
# the network.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export CARGO_TARGET_DIR="$build" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$build/conjbench" .)
exec "$build/conjbench" "$@"
