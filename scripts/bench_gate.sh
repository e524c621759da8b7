#!/usr/bin/env bash
# Perf-regression gate: run the pinned small benchmark suite and compare
# it exactly against the committed baseline (bench/baseline.json).
# Exits non-zero when any case differs.
#
#   ./scripts/bench_gate.sh          # run + compare
#   ./scripts/bench_gate.sh --write  # re-pin the baseline
#
# Extra flags are forwarded to the bench_gate binary (--baseline, --out,
# --incidents-diff).
set -euo pipefail

cd "$(dirname "$0")/.."

cargo run --release -p exo-bench --bin bench_gate -- "$@"
