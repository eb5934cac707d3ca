#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload fig4|sweep|fleet|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache, span
# files and CPU profiles go under $CARGO_TARGET_DIR (default .bench_build),
# inside the checkout; nothing is downloaded.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
