#!/usr/bin/env bash
# Regenerate every reproduction artifact in results/ (deterministic).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p svsim-bench --bins
mkdir -p results
for b in tables fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 fig14 fig16 fig17 \
         qnn_usecase ablation_comm headline large_run batch; do
  echo "== $b =="
  ./target/release/$b > "results/$b.txt"
done
echo "done; outputs in results/"
