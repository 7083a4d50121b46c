#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload.
#
#   bash cstbench/run.sh --workload W --seed N --seconds S --trace 0|1 [--trace-out FILE]
#
# Run from the repository root. Both binaries go to $CARGO_TARGET_DIR
# (default .bench_build), where the benchmark finds `cstuner` next to
# itself. Build output goes to stderr; stdout is the benchmark's alone.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates || ! -f cstbench/Cargo.toml ]]; then
    echo "run.sh: run from the repository root (Cargo.toml, crates/, cstbench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin cstuner >&2
cargo build --release --offline --quiet --manifest-path cstbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/cstbench" "$@"
