#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it sits
# in, then runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload des-scaleout --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
rev="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$rev" -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
