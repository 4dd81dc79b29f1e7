#!/usr/bin/env bash
# Builds the benchmark and its fleet worker from source, then runs it with
# the given arguments. Run from the repository root:
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
set -euo pipefail
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench" "$@"
