#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
# Every step writes into the temp dir, never into the checkout: the last
# step fails if the tree's status differs from this snapshot.
tree_before=$(git status --porcelain)

# The committed results/audit.json, results/*.live.jsonl and fig4_ft
# profile hold no host-dependent fields, so a rerun must reproduce them
# byte for byte; regenerate and commit them when they change on purpose.
observed=$(mktemp -d)
trap 'rm -rf "$observed"' EXIT
# The smoke bins run from the temp dir, so their results/<bin>.json land
# there, as scripts/run_experiments.sh does.
smoke() {
    (cd "$observed" && "$root/target/release/$@")
}
same_as_committed() {
    cmp "$observed/$1" "results/$2" || {
        echo "FAIL: $1 differs from the committed results/$2" >&2
        exit 1
    }
}
# A results JSON whose only host-dependent fields sit in its flat "perf"
# block (run wall, events/s, peak RSS) must match the committed copy
# once that block is removed from both.
same_but_perf() {
    local strip='s/,"perf":{[^}]*}//'
    cmp <(sed "$strip" "$observed/results/$1") <(sed "$strip" "results/$1") || {
        echo "FAIL: results/$1 differs from the committed copy outside its perf block;" \
            "regenerate it with this step's command, run from a scratch dir" >&2
        exit 1
    }
}

echo "==> exo-audit --deny (static determinism, safety and unused-surface audit; committed report)"
cargo run -q -p exo-audit -- --deny --json "$observed/audit.json"
same_as_committed audit.json audit.json

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (broken or private doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> benchmark unit tests (separate package under benchmark/)"
# Cargo rewrites benchmark/Cargo.lock, whose committed copy predates
# exo-prof's exo-live dependency; put it back once the tests ran.
cp benchmark/Cargo.lock "$observed/benchmark.Cargo.lock"
cargo test -q --manifest-path benchmark/Cargo.toml
cp "$observed/benchmark.Cargo.lock" benchmark/Cargo.lock

# `cargo test` above already ran gate_pin on every CPU, with compute
# helpers; this reruns the same exact comparison without them.
echo "==> bench_gate on one CPU vs bench/baseline.json (no compute helpers: every closure runs at its landing event)"
taskset -c 0 ./scripts/bench_gate.sh --out "$observed/BENCH_one_cpu.json"

cargo build --release -p exo-bench
echo "==> multi-tenant service smoke (open-loop 3-tenant job stream)"
smoke multitenant --quick
grep -q '"isolation_violations":0' "$observed/results/multitenant.json" || {
    echo "FAIL: multi-tenant run reported isolation violations" >&2
    exit 1
}
echo "==> multi-tenant service, default config (committed copy)"
smoke multitenant
same_but_perf multitenant.json

echo "==> ML loader comparison on a mixed cluster (committed copy)"
smoke fig8 --quick --mixed > /dev/null
same_but_perf fig8_mixed.json

echo "==> heterogeneous smoke (mixed HDD+SSD sort + g4dn/r6i ML loader, committed copies)"
smoke hetero --quick
same_but_perf hetero_sort.json
same_but_perf hetero_ml.json

echo "==> placement-policy smoke (load_balance vs bound_aware vs hybrid, committed copy)"
smoke hetero --compare --quick
grep -q '"bound_aware_not_worse":true' "$observed/results/hetero_policy.json" || {
    echo "FAIL: bound-aware placement regressed vs load_balance on mixed_hdd_ssd" >&2
    exit 1
}
same_but_perf hetero_policy.json

echo "==> live-observability smoke (--live JSONL timeseries + live_check, committed copy)"
smoke fig4c --quick --live "$observed/fig4c.live.jsonl"
smoke live_check "$observed/fig4c.live.jsonl" "$observed/results/fig4c.json"
same_as_committed fig4c.live.jsonl fig4c.live.jsonl
same_but_perf fig4c.json
smoke fig4a --quick --live "$observed/fig4a.live.jsonl"
smoke live_check "$observed/fig4a.live.jsonl" "$observed/results/fig4a.json"
same_as_committed fig4a.live.jsonl fig4a.live.jsonl
same_but_perf fig4a.json

echo "==> cloudsort_xl smoke (throughput floor, rerun bit-identity, 400 → 800 partition scaling)"
smoke cloudsort_xl --quick

echo "==> incident gate (bench_gate --incidents-diff vs bench/incidents.json)"
cargo run --release -p exo-bench --bin bench_gate -- --incidents-diff \
    --out "$observed/INCIDENTS.json"

echo "==> traced fault-case profile (stdout and profile JSON, committed copy)"
smoke fig4_ft --quick \
    --trace "$observed/fig4_ft.trace.json" \
    --profile="$observed/fig4_ft.profile.json" > "$observed/fig4_ft.profile.txt"
same_as_committed fig4_ft.profile.txt fig4_ft.profile.txt
same_as_committed fig4_ft.profile.json fig4_ft.profile.json

echo "==> watched fault-case smoke (--watch incident JSONL, validated twice for determinism, committed copy)"
smoke fig4_ft --quick --watch --live "$observed/fig4_ft.live.jsonl"
smoke fig4_ft --quick --watch --live "$observed/fig4_ft.live.rerun.jsonl"
smoke live_check "$observed/fig4_ft.live.jsonl" "$observed/results/fig4_ft.json" \
    --rerun "$observed/fig4_ft.live.rerun.jsonl"
same_as_committed fig4_ft.live.jsonl fig4_ft.live.jsonl
same_as_committed fig4_ft.live.rerun.jsonl fig4_ft.live.jsonl
same_but_perf fig4_ft.json

echo "==> committed results/*.txt (every default config rerun by scripts/run_experiments.sh)"
./scripts/run_experiments.sh "$observed/regen" > /dev/null
for txt in "$observed"/regen/results/*.txt; do
    name=$(basename "$txt")
    diff -u "results/$name" "$txt" || {
        echo "FAIL: the default config's output differs from the committed results/$name;" \
            "regenerate with scripts/run_experiments.sh" >&2
        exit 1
    }
done

echo "==> the checkout is as CI found it (every output went to the temp dir)"
[ "$(git status --porcelain)" = "$tree_before" ] || {
    echo "FAIL: CI changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
}

echo "==> CI OK"
