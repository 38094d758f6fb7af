#!/usr/bin/env bash
# Builds the benchmark and the repository's trace_check validator from
# source, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_engine --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p sgl-bench --bin trace_check >&2
out="$CARGO_TARGET_DIR/perfbench-out"
exec "$CARGO_TARGET_DIR/release/perfbench" --trace-check "$CARGO_TARGET_DIR/release/trace_check" \
    --out-dir "$out" "$@"
