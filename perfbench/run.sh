#!/usr/bin/env bash
# Builds emst-cli and the benchmark from source, then runs the benchmark.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <batch-hacc|serve-read|serve-mutate> \
#        --seed <n> --seconds <s> --trace <0|1>
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "perfbench/run.sh: run from the repository root (no Cargo.toml or crates/ here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin emst-cli 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/emst-perfbench" --cli "$CARGO_TARGET_DIR/release/emst-cli" "$@"
