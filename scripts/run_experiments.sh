#!/usr/bin/env bash
# Regenerate every paper artefact: each bin's stdout goes to
# DIR/results/<bin>.txt and its results JSON to DIR/results/<bin>.json.
# Usage: scripts/run_experiments.sh [--quick] [DIR]
# DIR defaults to the repo root (a relative DIR is taken from there).
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
cd "$dest"
for bin in fig4a fig4b fig4c fig4d fig4_ft table1 fig5 fig6 fig7 fig8 fig9 ablations cloudsort; do
    echo "=== $bin $mode ==="
    "$root/target/release/$bin" $mode | tee "results/$bin.txt"
done
