#!/usr/bin/env bash
# One command for the whole benchmark.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace]
#       every workload, each in its own process; with --trace, the traced
#       run of each as well. Results append to benchmark/out/results.jsonl.
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
#       one run of one workload (what BENCHMARK.json's command invokes).
#   benchmark/run.sh compare A B
#       noise-aware diff of two result files against BENCHMARK.json's bounds.
#
# Builds the crate first (offline; a no-op when it is already built), so a
# checkout that lacks the repository's crates fails here, before any output.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

export BENCH_OUT_DIR="${BENCH_OUT_DIR:-$here/out}"
export BENCH_RUSTC="${BENCH_RUSTC:-$(rustc --version 2>/dev/null || echo unknown)}"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"

if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi

trace=0
for arg in "$@"; do
    case "$arg" in
        --workload) exec "$bin" run "$@" ;;
        --trace) trace=1 ;;
    esac
done

# Every workload: `--trace` here means "the traced run too", so it is taken
# out of the arguments and passed explicitly.
args=()
for arg in "$@"; do
    [ "$arg" = --trace ] || args+=("$arg")
done
results="$BENCH_OUT_DIR/results.jsonl"
mkdir -p "$BENCH_OUT_DIR"
: > "$results"
status=0
for workload in $("$bin" list); do
    "$bin" run --workload "$workload" --trace 0 --out "$results" "${args[@]}" || status=$?
    if [ "$trace" = 1 ]; then
        "$bin" run --workload "$workload" --trace 1 --out "$results" "${args[@]}" || status=$?
    fi
done
exit "$status"
