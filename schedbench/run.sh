#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, e.g.
#
#   bash schedbench/run.sh --workload greedy-dense --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain state)
# goes under .bench_build/ at the repository root, which .gitignore names.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="${root}/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

# The commit goes into the provenance line; outside a git checkout it is
# "unknown". Only the checkout's own .git is consulted.
commit=unknown
if [ -e "$root/.git" ] && rev=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	commit=$rev
	git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$rev-dirty"
fi

(cd "$here" && go build -buildvcs=false -ldflags "-X main.commitID=$commit" -o "$out/schedbench" .) >&2
exec "$out/schedbench" "$@"
