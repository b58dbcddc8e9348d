#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# root of the repository. Every file it writes stays under .bench_build/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/tmp" "$out/config"

export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/perfbench" .) >&2

# Relative, so the unix socket paths of the socket fabric stay short.
TMPDIR=.bench_build/tmp exec "$out/perfbench" "$@"
