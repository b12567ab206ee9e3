#!/usr/bin/env bash
# Single entry point of the benchmark (the command in BENCHMARK.json).
#
#   dnh-bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One workload in one mode, as the benchmark contract runs it: the
#       last line of standard output is the result object.
#   dnh-bench/run.sh [--quick] [--seed N] [--only WORKLOAD] [--no-trace]
#       Every workload, run as the contract runs it, plus one traced run per
#       distinct trace: runs the benchmark's unit tests, prints every metric
#       by name with its unit, verifies outputs, writes
#       dnh-bench/out/<sha>.json and dnh-bench/out/<sha>-spans-<trace>.json.
#   dnh-bench/run.sh compare A.json B.json
#
# Run from the root of the checkout. Builds release from source every time
# (a no-op when nothing changed); needs only cargo, offline.
set -euo pipefail

manifest=dnh-bench/Cargo.toml
target=${CARGO_TARGET_DIR:-dnh-bench/target}
export CARGO_TARGET_DIR=$target

cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin=$target/release/dnh-bench

case "${1:-}" in
compare)
    shift
    exec "$bin" compare "$@"
    ;;
esac
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" run "$@"
    fi
done

# The package is a workspace of its own, so no other command reaches its
# unit tests: recording a set is their gate.
cargo test --release --offline --quiet --manifest-path "$manifest" >&2
sha=$(git rev-parse --short HEAD 2>/dev/null || echo nogit)
exec "$bin" suite --git-sha "$sha" --rustc "$(rustc --version)" "$@"
