#!/usr/bin/env bash
# Full CI gate: tier-1 verify (ROADMAP.md) + formatting + lints.
# Everything runs offline against the vendored-free, zero-dependency workspace.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: test suite (workspace) =="
cargo test --workspace -q

echo "== checkpoint tests leave no temp files =="
# The checkpoint store's unit tests write real generations to disk. Each
# test's scratch directory must be gone when the test ends, or every run
# leaves eight more in the OS temp dir: run them with TMPDIR pointed at an
# empty directory, and require it empty afterwards.
ckpt_tmp="$(mktemp -d)"
TMPDIR="$ckpt_tmp" cargo test -q -p svsim-core --lib checkpoint
left="$(ls -A "$ckpt_tmp")"
rm -rf "$ckpt_tmp"
if [ -n "$left" ]; then
  echo "the checkpoint tests left in TMPDIR:" >&2
  echo "$left" >&2
  exit 1
fi

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (warnings are errors) =="
# Every intra-doc link must resolve to an item the reader can reach, so a
# deletion can never leave a dangling reference in the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== analytic figures =="
# The 11 model-only binaries (Tables, Figs. 6-13, the headline, the SHMEM vs
# MPI ablation) print from the performance model alone: deterministic, and
# well under a second together. Each must print exactly its committed
# results/<bin>.txt, so a change to the model, to the plan it prices or to a
# calibration constant fails here unless the results are regenerated with it
# (scripts/regen_results.sh).
cargo build --release --quiet -p svsim-bench --bins
for bin in fig06 fig07 fig08 fig09 fig10 fig11 fig12 fig13 tables headline ablation_comm; do
  if ! "target/release/$bin" | diff -u "results/$bin.txt" -; then
    echo "$bin no longer prints results/$bin.txt" >&2
    exit 1
  fi
done
echo "analytic figures: 11 outputs match results/"

echo "== protocol model check (exhaustive, bounded) =="
# Prove the control-plane protocols — sense-reversing barrier (with
# kill + timeout injected before any step), respawn round handshake,
# symmetric-heap allocation, one-shot fault arming — exhaustively over
# every interleaving at 2-3 PEs. Prints the proof bound
# (states/transitions) per property; nonzero exit with a full
# interleaving trace on any violation. The checkpoint commit protocol is
# checked crash point by crash point in the test suite
# (crates/verify/tests/checkpoint_crash.rs).
cargo run --release --quiet -- verify --max-states 2000000

echo "== unsafe confinement =="
# Every package inherits the workspace lints, which deny `unsafe` (and so
# every FFI call); clippy above fails an `unsafe` block without a SAFETY
# comment. Only the files that own raw memory, process state or a wider
# CPU feature may lift the deny. The benchmark is a package of its own,
# outside those lints: only its counting allocator may say `unsafe`.
for manifest in Cargo.toml crates/*/Cargo.toml; do
  if ! grep -qzP '\n\[lints\]\nworkspace = true\n' "$manifest"; then
    echo "$manifest does not inherit the workspace lints" >&2
    exit 1
  fi
done
allowed='^(crates/shmem/src/(proc|shared|metrics)|crates/core/src/(exec|kernels))\.rs$'
stray="$(
  grep -rlE '(allow|expect)\([^)]*unsafe_code' --include='*.rs' crates src tests examples |
    grep -vE "$allowed"
  grep -rlw unsafe benchmark/src | grep -vx benchmark/src/alloc.rs
)" || true
if [ -n "$stray" ]; then
  echo "unsafe outside the files allowed it:" >&2
  echo "$stray" >&2
  exit 1
fi

echo "== access-protocol analysis (static, full suite) =="
# Prove every Table 4 schedule conflict-free symbolically — including the
# 20- and 23-qubit plans, which must analyze without touching amplitudes.
# The remapped schedules (relabeling exchange epochs included) must prove
# just as clean as the naive ones.
cargo run --release --quiet -- analyze --suite --pes 8
cargo run --release --quiet -- analyze --suite --pes 8 --remap

echo "== access-protocol analysis (dynamic cross-validation) =="
# Execute the smaller workloads under the runtime race detector and check
# the observed behaviour agrees with the static proof (nonzero exit if not).
cargo run --release --quiet -- analyze --suite --pes 2 --detect --max-qubits 14
# The benchmarked 2-PE remapped shape: its one-epoch in-place exchanges run
# under the detector too.
cargo run --release --quiet -- analyze --suite --pes 2 --detect --max-qubits 14 --remap
cargo run --release --quiet -- analyze --suite --pes 8 --detect --max-qubits 12
cargo run --release --quiet -- analyze --suite --pes 8 --detect --max-qubits 12 --remap
# The legs above stop where a PE's slab is at most one L2 tile (2^15), so the
# only tile runs in their epochs are the 2^11-wide runs of slabs wider than
# 2^11 (13- and 14-qubit circuits at 2 PEs). bigadder_n18 and cc_n18 at 2
# thread PEs hold runs at 2^15 with sub-runs at 2^11 (3 runs and 1): verdicts
# agree, the plan has fewer epochs than kernels, and the detected run walks
# what the plain one walks: the same tile runs, slab kernels and zero tiles
# skipped, and every counter, barriers included.
cargo test --release -p svsim-analyzer --lib tile_runs_cross_validate_under_the_detector -- --ignored --nocapture

echo "== CLI smoke: what ran =="
# One small run end to end; it must say which kernel bodies this CPU entered
# (`kernels: baseline`, `kernels: avx2`, ...), the level the vectorisation
# leg below then checks.
smoke="$(mktemp --suffix .qasm)"
trap 'rm -f "$smoke"' EXIT
printf 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[12];\ncreg c[1];\nh q[0];\ncx q[11],q[0];\nry(0.3) q[2];\nmeasure q[0] -> c[0];\n' >"$smoke"
isa="$(cargo run --release --quiet -- run "$smoke" --shots 4 | sed -n 's/^kernels: \([a-z0-9]*\)$/\1/p')"
[ -n "$isa" ] || { echo "sv-sim run printed no \`kernels: <level>\` line" >&2; exit 1; }
echo "kernels: $isa"

echo "== kernel paths (release) =="
# Every kernel's plain-memory walks (lent stretches in runs of 8 or more,
# or in chunks of 32 amplitudes of a constant shape when a qubit below 5 is
# involved: the code the optimizer vectorizes), through a view that counts
# what it lends and one that counts nothing, against its per-item path, bit
# for bit, in the build that ships and in every body it ships — baseline and
# each wider level this CPU has (a level it lacks prints a `skip:` line):
# every KernelId at lowest qubit 0-6 and n-2, every gate
# with two operands on qubits 0-2, x range split. Tier-1 runs the same test
# unoptimized.
cargo test --release -p svsim-core --lib run_path_is_bit_identical_to_the_per_item_path -- --nocapture
# Every KernelId through the lending ShmemView, in the scale-up and the
# scale-out shape, and the PE's slab over 2, 4 and 8 partitions against the
# word accessors of the views that lend nothing (PeerView::new,
# ShmemView::new), amplitudes bit for bit and every PE's counters field by
# field after every kernel; the relabeling exchange likewise against its
# get_slice / put_slice messages. Then the partitioned walk on thread PEs
# against the single device, with and without a never-firing fault plan or
# the race detector attached (forked PEs: the proc_backend gate below).
# Scale-up walks the same lent walk: a Put fault killed or dropped on a
# device is a typed error and resumes bit-identically, and square_root_n18
# on 2 devices runs under the detector with no race and every count equal.
cargo test --release -p svsim-core --lib lending_views_and_the_slab_count_what_the_word_accessors_count
cargo test --release -p svsim-core --lib lent_exchanges_move_and_count_what_the_messages_do
cargo test --release --test cross_backend plain_memory_paths_agree_with_the_single_device
cargo test --release -p svsim-core --lib put_faults_strike_scale_up_and_resume_bit_identically
cargo test --release --test cross_backend the_detector_watches_scale_up_on_square_root_n18
# The zero map's groups: for every kernel at the small widths [3, 1], [4, 2]
# and [5, 3], each group's item range touches exactly the finest tiles the
# group names, and no tile is in two groups. Then every step that must make
# the map forget (an X or a -0.0 writer on a high qubit, a reset, an IfEq,
# an exchange, a boundary kernel) and one that must not (a collapse: a lone
# kernel that keeps zero right after a measure leaves the known tiles
# alone) on every backend, against the kernel-major walk, amplitudes and
# counters.
cargo test --release -p svsim-core --lib groups_are_the_finest_tiles_a_kernel_pairs
cargo test --release -p svsim-core --lib zero_maps_forget_what_a_step_may_write

echo "== tile-major (release) =="
# Tile-major walks against kernel-major ones, bit for bit, in the build that
# ships: the crate-private identity matrix (tile runs lowered at the nested
# widths [3, 1], [4, 2] and [5, 3] against kernel-major and single-level
# walks, every KernelId around both tile boundaries, every backend, remap /
# checkpoint, all counters but barriers, one barrier per tile run where
# the kernel-major walk passes one per kernel); the race detector watching
# square_root_n18's tiled slab walk at 2 PEs, detected against plain (tile
# runs, slab kernels, zero tiles skipped and every counter equal, no race);
# and, at the shipped widths [15, 11], the 17-qubit single-device and thread-PE legs
# (square_root_n18 and dnn_layers, tiled vs runtime-parsed; at least 85 % of
# square_root_n18's kernels in L1 sub-runs). Zero tiles: the sparse twin of
# the identity matrix (from |0...0>, every backend, against kernel-major
# walks, counters included; some tiles skipped, and some runs
# walking theirs because a kernel writes -0.0), and every Table 4 circuit of
# at most 20 qubits skipping on one device against runtime parsing. Tier-1
# runs the same tests unoptimized; the process-PE leg is in the proc_backend
# gate below.
cargo test --release -p svsim-core --lib tile_major_walks_are_bit_identical_to_kernel_major_ones
cargo test --release --test cross_backend the_detector_watches_the_tiled_slab_walk_of_square_root_n18
cargo test --release -p svsim-core --lib zero_tiles_are_skipped_bit_identically
cargo test --release --test cross_backend tile_major
cargo test --release --test cross_backend zero_tile_skips_leave_the_suite_as_runtime_parsing_does

echo "== benchmark builds and gates against this API =="
# The benchmark (benchmark/, the one command in BENCHMARK.json) is a
# package of its own and reaches the simulator only through
# benchmark/src/api.rs; build and test it here so an API deletion that
# breaks it fails CI, not the benchmark pipeline. `selftest` runs a
# scale-out and the serving workload for a second each against a flipped
# reference and fails unless the correctness gate fires. Speed numbers
# come from the benchmark command, never from CI.
cargo test --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- selftest

echo "== pairs driver parses =="
# scripts/pairs.sh times the benchmark for minutes, alternating a parent
# revision with the working tree; CI checks only that it parses.
bash -n scripts/pairs.sh

echo "== kernel vectorisation (release) =="
# The speed of the kernel layer rests on the compiler keeping each body's
# loops whole and packed; nothing functional notices when it stops (a closure
# left out of line, a body inlined across the feature boundary). Disassemble
# the two binaries built above (the CLI and the benchmark: each is its own
# LTO unit and has lost its packed loops independently of the other) and
# require, for every view the dense, rotation and Hadamard-like bodies are
# instantiated at, packed multiplies on the path this CPU takes, in wide registers above
# the baseline. A view that lends nothing has no lent loop to pack: its body is
# the per-item loop alone. The CLI instantiates no such view; the benchmark
# instantiates one, the per-word `PeerView` its `view.peer*` rows price, so
# there, and only there, one body per kernel may be unpacked and a second
# fails. Every body is compiled once per view and level, so the kernel
# layer is most of what ships. The benchmark holds every `LocalView` and
# `ShmemView` body twice: its own `upload::<LocalView>` and
# `upload::<ShmemView>` calls (benchmark/src/api.rs) instantiate each kernel
# again in the benchmark crate, since a release build shares no generic
# instantiation across crates (with those two calls taken out of a copy, `nm`
# counts 88 `k_*` symbols / 971 238 B there, what `sv-sim` holds, against 198
# / 1 643 357 B). Print the symbol count and bytes per binary, and
# fail if a body that differs from another only in its footprint comes back
# (`k_swap` was `k_x`, `k_cphase` was `k_phase`: 13 % of the kernel text), or
# a fused window body (removed with gate fusion).
if [ "$(uname -m)" != x86_64 ] || ! command -v objdump >/dev/null || ! command -v nm >/dev/null; then
  echo "skipped: needs objdump, nm and an x86_64 host"
else
  for spec in "target/release/sv-sim 0" "benchmark/target/release/svsim-benchmark 1"; do
    read -r bin per_word <<<"$spec"
    nm -C -S -t d "$bin" | awk -v bin="$bin" '
      $4 ~ /^svsim_core::kernels::k_/ {
        symbols++; bytes += $2
        if ($4 ~ /::k_(swap|cphase|fused[0-9]*)(::|$)/) { print bin ": removed body is back: " $4; bad = 1 }
      }
      END {
        print bin ": " symbols + 0 " kernel symbols, " bytes + 0 " bytes of svsim_core::kernels::k_* text"
        exit bad
      }'
    objdump -d -C --no-show-raw-insn "$bin" | awk -v level="$isa" -v bin="$bin" -v per_word="$per_word" '
      /^[0-9a-f]+ <.*>:$/ {
        body = ($0 ~ "<svsim_core::kernels::k_(oneq|rzz|h|rz|ry|rx)::" level ">:$") ? $0 : ""
        if (body != "") { packed[body] += 0; match(body, /k_[a-z]+::/); kernel[body] = substr(body, RSTART, RLENGTH - 2) }
        next
      }
      body != "" && /mulpd/ && (level == "baseline" || /[yz]mm/) { packed[body]++ }
      END {
        for (b in packed) { bodies++; if (!packed[b]) unpacked[kernel[b]]++ }
        for (b in packed) if (!packed[b] && unpacked[kernel[b]] > per_word) { print bin ": not vectorised: " b; bad = 1 }
        if (bodies < 6) { print bin ": k_oneq / k_rzz / k_h / k_rz / k_ry / k_rx have no `" level "` bodies"; bad = 1 }
        for (k in unpacked) per_item += unpacked[k]
        print bin ": " bodies + 0 " kernel bodies at level `" level "` checked for packed multiplies, " per_item + 0 " per-item only"
        exit bad
      }'
  done
fi

echo "== engine serving stage (release) =="
# The one queue and its workers in the build that ships: drain and hard
# shutdown account for every job, a job parked behind a blocker reports its
# whole wait, so does a sweep point behind the members of its batch before
# it, cancellation and deadlines are re-checked at pickup, and a full queue
# rejects at admission. The blockers hold the worker by sleeping in a retry
# backoff, so the file takes about a second in either build; tier-1 runs it
# unoptimized.
cargo test --release -p svsim-engine --test pipeline

# One fault-bench leg: it must exit 0, and since every PE failure is a typed
# value and a panic in a PE is a bug, it must print no `panicked at` to
# stderr under RUST_BACKTRACE=1.
fault_bench() {
  local err status=0
  err="$(mktemp)"
  RUST_BACKTRACE=1 cargo run --release --quiet -- fault-bench "$@" 2>"$err" || status=$?
  cat "$err" >&2
  if grep -q "panicked at" "$err"; then
    echo "fault-bench $*: a panic reached stderr" >&2
    status=1
  fi
  rm -f "$err"
  [ "$status" -eq 0 ] || exit "$status"
}

echo "== fault-injection smoke matrix =="
# Seeded end-to-end recovery: every job checksum under injected faults
# must match the fault-free reference bit for bit (nonzero exit if not),
# with no panic on stderr (fault_bench above).
for seed in 7 23 101; do
  for fault in kill-pe drop-put poison-barrier torn-checkpoint; do
    echo "-- fault-bench --fault $fault --seed $seed"
    fault_bench --fault "$fault" --pes 4 --every 2 --seed "$seed" \
      --one-shots 2 --sweeps 2 --attempts 3
  done
done

echo "== process-backed PEs (memfd world) =="
# The forked-PE substrate end to end: quick integration tests (real
# fork/SIGKILL machinery, engine quarantine + checkpoint recovery, the
# /proc/self/fd memfd leak guard) plus the ignored full Table 4 gate —
# every workload bit-identical between thread and process PEs at 2/4/8,
# remapped runs bit-identical too at 4 PEs on both substrates and at 8 on
# thread PEs, and, on the 8-PE thread leg, the communication-avoiding remap
# gate: measured remote bytes <= 0.5x naive on every deep circuit (>= 100
# gates). The memfd guard also checks /proc/self/maps: the arena stays
# mapped past the reap until the host has read the state off the heap,
# and no longer. Then the failed-segment contract on both substrates: a
# scale-out PE killed mid-walk, or at the last barrier before the host
# reads the heap, is a typed error that leaves the host state at the
# committed checkpoint, and the resume is bit-identical.
cargo test --release --test proc_backend -- --include-ignored
cargo test --release -p svsim-core --lib scale_out_pe_failure_is_typed_and_resumes_bit_identically
# The world scenarios through the one constructor, launch_world, in the
# build that ships: ranks, heap, slices, reductions, allocation violations,
# fault epochs and one-shots and borrows on thread and process PEs alike,
# and the race detector the world owns (refused typed on process PEs).
cargo test --release -p svsim-shmem --lib world::

echo "== process-backend kill-fault smoke =="
# One real-SIGKILL recovery per seed: the injected kill-pe fault on forked
# PEs is a literal kill(2) of the child mid-put; the engine must retry from
# the last checkpoint and match the fault-free checksums bit for bit.
for seed in 7 23 101; do
  echo "-- fault-bench --fault kill-pe --pe-mode process --seed $seed"
  fault_bench --fault kill-pe --pes 4 --pe-mode process --every 2 --seed "$seed" \
    --one-shots 2 --sweeps 2 --attempts 3
done

echo "== self-healing chaos smoke =="
# The supervision layer end to end: hangs (watchdog + heartbeats), real
# SIGKILLs, and torn checkpoint generations, each healed by both recovery
# paths — in-place respawn and the halve-PEs degradation ladder. The bench
# exits nonzero unless every job's final checksum is bit-identical to the
# fault-free reference, so exit codes are the gate.
for seed in 7 23 101; do
  for fault in hang-pe kill-pe torn-checkpoint; do
    for recovery in respawn degrade; do
      echo "-- fault-bench --fault $fault --recovery $recovery --seed $seed"
      fault_bench --fault "$fault" --pes 4 --pe-mode process --every 2 --seed "$seed" \
        --hang-ms 1000 --one-shots 2 --sweeps 2 --attempts 3 \
        --recovery "$recovery"
    done
  done
  echo "-- fault-bench --chaos --recovery degrade --seed $seed"
  fault_bench --chaos --pes 4 --pe-mode process --every 2 --seed "$seed" \
    --hang-ms 1000 --one-shots 2 --sweeps 2 --attempts 3 \
    --recovery degrade
done

echo "== thread-PE degradation smoke =="
# The halve-PEs ladder on thread PEs, which run under the race detector:
# the degraded simulator keeps its checkpoint (and, for a torn write,
# resumes from the store's previous generation) and must still match the
# fault-free checksums with no race recorded.
for seed in 7 23 101; do
  for fault in kill-pe torn-checkpoint; do
    echo "-- fault-bench --fault $fault --recovery degrade --seed $seed"
    fault_bench --fault "$fault" --recovery degrade --pes 4 --every 2 --seed "$seed" \
      --one-shots 2 --sweeps 2 --attempts 3
  done
done

echo "ci: all gates passed"
