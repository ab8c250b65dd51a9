#!/usr/bin/env bash
# Builds the transfer benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash _xferbench/run.sh --workload xfer_text --seed 1 --seconds 30 --trace 0
#
# Every build artifact, the Go build cache and the journal temp dirs live
# under the build directory ($CARGO_TARGET_DIR, default .bench_build), so
# the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

# The source digest names the code actually measured when the checkout
# carries no git metadata: a hash over every Go source and module file.
src=$(find . -path ./.git -prune -o -path ./.bench_build -prune -o -path "./${build#"$root"/}" -prune -o \
	-type f \( -name '*.go' -o -name go.mod -o -name go.sum \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

go -C _xferbench build -trimpath -ldflags "-X main.srcDigest=$src" -o "$build/xferbench" .
exec "$build/xferbench" --out-dir "$build" "$@"
