#!/usr/bin/env bash
# The one entry point of the benchmark: builds the harness from source
# (offline, release) and runs it with the arguments given.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result as one JSON object
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       all five workloads, untraced then traced; prints every metric and
#       writes benchmark/out/latest.json and benchmark/out/trace-*.jsonl
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The repository's own target directory unless the caller chose one
# (relative to the repository root, where cargo is invoked from).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/occam-e2e-benchmark" "$@"
