#!/usr/bin/env bash
# Builds the benchmark once, then runs all four workloads untraced and then
# traced with one seed. Results land in out/<workload>.json and
# out/<workload>.trace.json next to this script (about four minutes).
#
#   ./run.sh [seed]
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-20110926}"
cargo build --release --offline
exec cargo run --release --offline --quiet -- all --seed "$seed" --out-dir out
