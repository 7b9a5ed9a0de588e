#!/usr/bin/env bash
# Smoke run of the benchmark for CI: the harness's unit tests, then every
# workload with a two-second window (a tenth of the sample counts, the same
# work per sample, at least one whole pass, every check on), then one traced
# run. About a minute in all. Exits non-zero when a test or a correctness
# check fails.
# Timings from a quick run are not comparable with full runs; they are not
# appended to results/HISTORY.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo test --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- --all --quick
cargo run --release --offline --quiet --manifest-path "$manifest" -- --workload vm_fig5 --quick --trace 1 >/dev/null
echo "benchmark smoke run: ok"
