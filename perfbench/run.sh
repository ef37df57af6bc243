#!/usr/bin/env bash
# Builds the `rlmul` binary and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sa-mbe16 --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin rlmul >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --rlmul "$CARGO_TARGET_DIR/release/rlmul" "$@"
