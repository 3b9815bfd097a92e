#!/usr/bin/env bash
# Builds the `loadpart` server binary and the benchmark in release mode,
# then runs one workload:
#
#   bash loadbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the last line
# of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p loadpart --bin loadpart >&2
cargo build --release --offline --quiet --manifest-path loadbench/Cargo.toml >&2
exec "$target/release/loadbench" --server-bin "$target/release/loadpart" "$@"
