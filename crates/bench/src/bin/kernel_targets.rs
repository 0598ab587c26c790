//! Per-kernel cost by target qubit: ns per amplitude of `h`, `ry`, `rz`, `t`,
//! `cx` (control `q`, target `q + 1`), `ccx` (controls `q` and `q + 1`,
//! target `q + 2`), `cry` (control `q`, target `q + 1`), `rx` and `u3` (the
//! dense 2×2 reference) with their lowest qubit at 0-6, 8, 10 and the top,
//! swept over a `LocalView` of 2^11 (L1-resident) and 2^15 (L2-resident)
//! amplitudes, best of 5. The gates go through the public `compile_gate` /
//! `upload` path the benchmark's kernel probe uses.
//!
//! A ranking tool, not a gate: speed numbers come from the benchmark command.
//!
//! `cargo run --release -p svsim-bench --bin kernel_targets`

use std::hint::black_box;
use std::time::Instant;
use svsim_core::compile::compile_gate;
use svsim_core::dispatch::upload;
use svsim_core::LocalView;
use svsim_ir::{Gate, GateKind};

/// The gate classes, each with its kind and angles; the operands are its
/// lowest qubit and the ones right above it.
const CLASSES: [(&str, GateKind, &[f64]); 9] = [
    ("h", GateKind::H, &[]),
    ("ry", GateKind::RY, &[0.37]),
    ("rz", GateKind::RZ, &[0.37]),
    ("t", GateKind::T, &[]),
    ("cx", GateKind::CX, &[]),
    ("ccx", GateKind::CCX, &[]),
    ("cry", GateKind::CRY, &[0.37]),
    ("rx", GateKind::RX, &[0.37]),
    ("u3", GateKind::U3, &[0.37, 0.21, -0.55]),
];

/// Best of 5 samples of ns per amplitude, each sample about 2^24 amplitudes.
fn ns_per_amp(g: &Gate, n: u32) -> f64 {
    let dim = 1usize << n;
    let mut queue = Vec::new();
    compile_gate(g, n, true, &mut queue);
    let (mut re, mut im) = (vec![1.0 / (dim as f64).sqrt(); dim], vec![0.0; dim]);
    let view = LocalView::new(&mut re, &mut im);
    let ops = upload::<LocalView>(&queue);
    let reps = (1 << 24) / dim;
    let sample = || {
        let t0 = Instant::now();
        for _ in 0..reps {
            for op in &ops {
                op.exe_op(black_box(&view), 0..op.args.work);
            }
        }
        t0.elapsed().as_secs_f64()
    };
    sample(); // warm-up
    let best = (0..5).map(|_| sample()).fold(f64::INFINITY, f64::min);
    best * 1e9 / (reps * dim) as f64
}

fn main() {
    println!("kernels: {}", svsim_core::kernels::isa());
    for n in [11u32, 15] {
        let lows: Vec<u32> = [0, 1, 2, 3, 4, 5, 6, 8, 10]
            .into_iter()
            .filter(|&q| q < n - 1)
            .chain([n - 1])
            .collect();
        println!("\n2^{n} amplitudes, ns/amp by lowest qubit");
        print!("{:>4}", "q");
        for (name, ..) in CLASSES {
            print!("{name:>8}");
        }
        println!();
        for &q in &lows {
            print!("{q:>4}");
            for (_, kind, params) in CLASSES {
                // A gate on k qubits starts at most at `n - k`: the top row
                // places each at its highest.
                let k = kind.n_qubits() as u32;
                let qubits: Vec<u32> = (q.min(n - k)..).take(k as usize).collect();
                let gate = Gate::new(kind, &qubits, params).expect("a valid gate");
                print!("{:>8.3}", ns_per_amp(&gate, n));
            }
            println!();
        }
    }
}
