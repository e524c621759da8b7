#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> exo-audit --deny (static determinism & safety audit)"
mkdir -p results
cargo run -q -p exo-audit -- --deny --json results/audit.json

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (broken or private doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark unit tests (separate package under benchmark/)"
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> bench_gate (perf-regression gate vs bench/baseline.json)"
./scripts/bench_gate.sh

echo "==> multi-tenant service smoke (open-loop 3-tenant job stream)"
cargo run --release -p exo-bench --bin multitenant -- --quick
grep -q '"isolation_violations":0' results/multitenant.json || {
    echo "FAIL: multi-tenant run reported isolation violations" >&2
    exit 1
}

echo "==> heterogeneous smoke (mixed HDD+SSD sort + g4dn/r6i ML loader)"
cargo run --release -p exo-bench --bin hetero -- --quick

echo "==> placement-policy smoke (load_balance vs bound_aware vs hybrid)"
cargo run --release -p exo-bench --bin hetero -- --compare --quick
grep -q '"bound_aware_not_worse":true' results/hetero_policy.json || {
    echo "FAIL: bound-aware placement regressed vs load_balance on mixed_hdd_ssd" >&2
    exit 1
}

echo "==> live-observability smoke (--live JSONL timeseries + live_check)"
cargo run --release -p exo-bench --bin fig4c -- --quick --live results/fig4c.live.jsonl
cargo run --release -p exo-bench --bin live_check -- \
    results/fig4c.live.jsonl results/fig4c.json

echo "==> cloudsort_xl smoke (throughput floor, rerun bit-identity, 400 → 800 partition scaling)"
cargo run --release -p exo-bench --bin cloudsort_xl -- --quick

echo "==> incident gate (bench_gate --incidents-diff vs bench/incidents.json)"
cargo run --release -p exo-bench --bin bench_gate -- --incidents-diff \
    --out results/INCIDENTS_ci.json

echo "==> watched fault-case smoke (--watch incident JSONL, validated twice for determinism)"
cargo run --release -p exo-bench --bin fig4_ft -- --quick --watch \
    --live results/fig4_ft.live.jsonl
cargo run --release -p exo-bench --bin fig4_ft -- --quick --watch \
    --live results/fig4_ft.live.rerun.jsonl
cargo run --release -p exo-bench --bin live_check -- \
    results/fig4_ft.live.jsonl results/fig4_ft.json \
    --rerun results/fig4_ft.live.rerun.jsonl
# results/*.jsonl (incident + snapshot lines) are uploaded as CI artifacts.

echo "==> CI OK"
