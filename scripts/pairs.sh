#!/usr/bin/env bash
# Alternating pairs of benchmark runs: a parent revision against the working
# tree. One run per side cannot tell a change from the host's swing (about
# 10 % between runs on a shared host); pairs run back to back can.
#
#   scripts/pairs.sh <parent-rev> [pairs] [workload...]
#   scripts/pairs.sh HEAD~1                        # 10 pairs of every workload
#   scripts/pairs.sh HEAD~1 3 deep_incache wide_stream
#
# Both sides' benchmark binaries are built once (release): the working
# tree's in benchmark/target, the parent's from a `git archive` of
# <parent-rev> unpacked in a temporary directory, with a target directory of
# its own there; the directory is removed on exit. Each pair runs a workload
# once per side at `--seed 1 --seconds 22 --trace 0` (about 26 s a run),
# the parent first in odd pairs, and reads the result object on the run's
# last line. For each workload and each end-to-end metric of BENCHMARK.json
# it prints every pair's change/parent ratio, the median ratio, the
# interquartile spread of the parent's runs as a fraction of their median,
# in how many pairs the change was better, and the metric's bound. Exits 1
# if a run fails or reports failed operations, 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [[ "${2:-1}" =~ [^0-9] ]] || [ "${2:-1}" -lt 1 ]; then
  echo "usage: scripts/pairs.sh <parent-rev> [pairs] [workload...]" >&2
  exit 2
fi
rev="$1"
pairs="${2:-10}"
shift $(($# < 2 ? $# : 2))
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$rev" | tar -x -C "$tmp/parent"

echo "== building the benchmark: working tree, then $rev"
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR="$tmp/target" \
  cargo build --release --quiet --manifest-path "$tmp/parent/benchmark/Cargo.toml"
declare -A root=([change]="$PWD" [parent]="$tmp/parent")
declare -A bin=(
  [change]="$PWD/benchmark/target/release/svsim-benchmark"
  [parent]="$tmp/target/release/svsim-benchmark"
)

# One line per run: workload, pair, side, exit status, the run's last line.
records="$tmp/records.tsv"
: >"$records"
for workload in "${workloads[@]}"; do
  for ((pair = 1; pair <= pairs; pair++)); do
    sides=(parent change)
    if ((pair % 2 == 0)); then sides=(change parent); fi
    for side in "${sides[@]}"; do
      out="$tmp/run.out"
      status=0
      (cd "${root[$side]}" &&
        "${bin[$side]}" --workload "$workload" --seed 1 --seconds 22 --trace 0) \
        >"$out" 2>"$tmp/run.err" || status=$?
      if [ "$status" -ne 0 ]; then
        echo "$workload pair $pair $side: exit $status" >&2
        tail -n 5 "$tmp/run.err" >&2
      fi
      printf '%s\t%s\t%s\t%s\t%s\n' "$workload" "$pair" "$side" "$status" \
        "$(tail -n 1 "$out")" >>"$records"
      echo "-- $workload pair $pair $side: exit $status"
    done
  done
done

python3 - "$records" BENCHMARK.json "$rev" <<'EOF'
import json, statistics, sys

records, spec, rev = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
runs, bad = {}, []
for line in open(records):
    workload, pair, side, status, last = line.rstrip("\n").split("\t", 4)
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if status != "0" or result is None or result.get("failed", 1) != 0:
        failed = result.get("failed") if result else "no result line"
        bad.append(f"{workload} pair {pair} {side}: exit {status}, failed {failed}")
        continue
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = result["metrics"]

print(f"\n== change / {rev}: ratio per pair, median ratio, parent IQR / median, pairs won")
for workload, by_pair in runs.items():
    both = [by_pair[p] for p in sorted(by_pair) if len(by_pair[p]) == 2]
    print(f"{workload} ({len(both)} pairs)")
    for m in metrics:
        name = m["name"]
        got = [(r["parent"][name]["value"], r["change"][name]["value"])
               for r in both if name in r["parent"] and name in r["change"]]
        if not got or any(p <= 0 for p, _ in got):
            continue
        ratios = [c / p for p, c in got]
        parent = [p for p, _ in got]
        iqr = 0.0
        if len(parent) > 1:
            q = statistics.quantiles(parent, n=4, method="inclusive")
            iqr = (q[2] - q[0]) / statistics.median(parent)
        lower = m["better"] == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in got)
        print(f"  {name:<16} {m['better']:<6} median {statistics.median(ratios):6.3f}"
              f"  iqr {iqr:6.1%}  won {won}/{len(got)}  bound {m['bound']:.0%}"
              f"  [{' '.join(f'{r:.3f}' for r in ratios)}]")
for b in bad:
    print(f"FAILED: {b}")
sys.exit(1 if bad else 0)
EOF
