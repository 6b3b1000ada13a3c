#!/usr/bin/env bash
# Builds the benchmark and the logitdynd daemon from the checkout it is run
# in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything it writes (Go build cache, binaries, temp stores, span files)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath"
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMAXPROCS=2

(cd "$root/perfbench" &&
	go build -o "$out/bin/perfbench" . &&
	go build -o "$out/bin/logitdynd" logitdyn/cmd/logitdynd) >&2

# The checkout the benchmark runs in is usually not a git repository; the
# ceiling keeps git from reporting an enclosing repository's commit.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

exec "$out/bin/perfbench" -daemon "$out/bin/logitdynd" -workdir "$out" -commit "$commit" "$@"
