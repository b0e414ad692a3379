#!/usr/bin/env bash
# Build the benchmark from the sources in this checkout, then run it.
#
#   bash perfbench/run.sh --workload <sketch_suite|sap_suite|svc_mixed> \
#        --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to stderr, so the last
# line on stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
