#!/usr/bin/env bash
# Regenerates every paper table/figure with a single in-process run, so
# trace generation is shared across experiments. Quick mode by default,
# which reproduces the committed results/*.csv byte for byte;
# L2S_BENCH_FULL=1 for full-fidelity runs (their committed CSVs live in
# results/full/).
set -euo pipefail
mkdir -p results/logs
cargo run --release -p l2s-bench --bin all_figures | tee results/logs/all_figures.txt
