#!/usr/bin/env bash
# The one command of the repo benchmark: builds the benchmark package in
# release mode (offline; every dependency is a path in this repository)
# and runs it from the repository root. Arguments are passed through; see
# `benchmark/README.md` or run with `--help`-less bad input for the usage.
#
#   benchmark/run.sh                      all five workloads, untraced then traced
#   benchmark/run.sh --smoke              1/50 size, checks BENCHMARK.json's metrics
#   benchmark/run.sh --twice              two sets, compared against the bounds
#   benchmark/run.sh --workload hit_hot --seed 7 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/placeless-benchmark" "$@"
