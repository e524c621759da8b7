#!/usr/bin/env bash
# Regenerate every paper artefact's printed output: each bin's stdout
# goes to DIR/results/<bin>.txt.
# Usage: scripts/run_experiments.sh [--quick] [DIR]
# DIR defaults to the repo root (a relative DIR is taken from there).
# The bins run in a temp dir, so the results/<bin>.json each one writes
# is discarded and no committed results JSON is touched: run a bin from
# a scratch dir to keep its JSON. A default-config run into the repo
# root reproduces the committed .txt files; give --quick another DIR.
# scripts/ci.sh runs the default configs into a temp dir and fails
# unless every .txt equals the committed results/<bin>.txt.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mode=""
dest=$root
for arg in "$@"; do
    case "$arg" in
        --quick) mode=--quick ;;
        *) dest=$arg ;;
    esac
done
cargo build --release -p exo-bench
mkdir -p "$dest/results"
dest=$(cd "$dest" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
for bin in fig4a fig4b fig4c fig4d fig4_ft table1 fig5 fig6 fig7 fig8 fig9 ablations cloudsort \
    multitenant hetero; do
    echo "=== $bin $mode ==="
    "$root/target/release/$bin" $mode | tee "$dest/results/$bin.txt"
done
