#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the root of
# a checkout:
#
#	bash perfbench/run.sh --workload loop --seed 1 --seconds 15 --trace 0
#
# Every build artefact, cache and trace file lands under .bench_build/ in
# the checkout. The build needs the repository's own sources next to
# perfbench/ (its go.mod replaces the stochsyn module with ../); without
# them it fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" -commit "$commit" -spans "$out/spans" "$@"
