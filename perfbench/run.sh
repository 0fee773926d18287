#!/usr/bin/env bash
# Builds the release `repute` binary and the benchmark from source, then
# makes one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload map-100bp-d5 --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh --write-manifest    # rewrite BENCHMARK.json
#
# Build output goes to $CARGO_TARGET_DIR (default: target). Only the last
# line of stdout is the result; everything else goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p repute-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release"
if [ "${1:-}" = "--write-manifest" ]; then
    exec "$bin/perfbench" --write-manifest
fi
exec "$bin/perfbench" --repute "$bin/repute" "$@"
