#!/usr/bin/env bash
# Two full sets of runs of the same commit, compared with the benchmark's own
# bounds. Fails unless every (workload, end-to-end metric) row is `ok` and
# every exact count is identical in both sets.
#
#   benchmark/repeat.sh            # 5 end-to-end runs + 1 traced run per workload and set
#   RUNS=10 SEED=7 benchmark/repeat.sh
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${RUNS:-5}"
seed="${SEED:-1}"
bench=(cargo run --release --quiet --manifest-path benchmark/Cargo.toml --)

"${bench[@]}" all --seed "$seed" --runs "$runs" --out benchmark/out/set_a.json
"${bench[@]}" all --seed "$seed" --runs "$runs" --out benchmark/out/set_b.json
"${bench[@]}" compare benchmark/out/set_a.json benchmark/out/set_b.json
