#!/bin/sh
# Builds the benchmark from the enclosing checkout's sources and runs it.
#
#   sh perfbench/run.sh --workload analyze-hot --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the toolchain's
# scratch files and the binary all live under .bench_build/ in the
# current directory, so nothing is written outside the checkout. The
# benchmark module imports the repository's internal packages through a
# relative replace directive; without the repository around it the
# build fails and the script exits non-zero without printing a result.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The go command's caches, scratch files and telemetry counters stay in
# the checkout; it never fetches modules (the benchmark needs none).
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
# The ceiling keeps git from reporting an enclosing repository's commit
# when the checkout itself is not a git work tree.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo none)
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" --root "$root" "$@"
