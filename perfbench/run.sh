#!/usr/bin/env bash
# Build the release `dabs` binary and the benchmark from this checkout, then
# run the benchmark against that binary. Arguments pass through, e.g.
#   bash perfbench/run.sh --workload tts_paper --seed 1 --seconds 20 --trace 0
# Run it from the root of the repository.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p dabs-cli --bin dabs >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --dabs "$target/release/dabs" "$@"
