#!/usr/bin/env bash
# Builds the `ndl` binary and the benchmark from source, then runs one
# workload:
#
#   bash perfbench/run.sh --workload exchange|reason|serve --seed N \
#       --seconds S --trace 0|1
#   bash perfbench/run.sh --smoke        # every workload, tiny
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run files go to .bench_build/perfbench-out.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a full source checkout" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --offline --release -q --bin ndl >&2
cargo build --offline --release -q --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --ndl "$target/release/ndl" "$@"
