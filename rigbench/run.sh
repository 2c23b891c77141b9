#!/usr/bin/env bash
# Builds the rigmatch binary and the benchmark driver from this checkout,
# then runs the driver:
#   bash rigbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the result is the last line of standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --bin rigmatch >&2
cargo build --offline --release --quiet --manifest-path rigbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rigbench" "$@" --server "$CARGO_TARGET_DIR/release/rigmatch"
