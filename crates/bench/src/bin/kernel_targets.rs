//! Per-kernel cost by target qubit: ns per amplitude of `h`, `ry`, `rz`, `t`
//! and `cx` (control `q`, target `q + 1`) with their lowest qubit at 0-6, 8,
//! 10 and the top, swept over a `LocalView` of 2^11 (L1-resident) and 2^15
//! (L2-resident) amplitudes, best of 5. The gates go through the public
//! `compile_gate` / `upload` path the benchmark's kernel probe uses.
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

/// The gate of class `name` whose lowest qubit is `q`.
fn gate(name: &str, q: u32) -> Gate {
    match name {
        "h" => Gate::new(GateKind::H, &[q], &[]),
        "ry" => Gate::new(GateKind::RY, &[q], &[0.37]),
        "rz" => Gate::new(GateKind::RZ, &[q], &[0.37]),
        "t" => Gate::new(GateKind::T, &[q], &[]),
        _ => Gate::new(GateKind::CX, &[q, q + 1], &[]),
    }
    .expect("a valid gate")
}

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
    const CLASSES: [&str; 5] = ["h", "ry", "rz", "t", "cx"];
    println!("kernels: {}", svsim_core::kernels::isa());
    for n in [11u32, 15] {
        // `cx` needs the qubit above its lowest: the top is `n - 2` for it.
        let lows: Vec<u32> = [0, 1, 2, 3, 4, 5, 6, 8, 10]
            .into_iter()
            .filter(|&q| q < n - 1)
            .chain([n - 1])
            .collect();
        println!("\n2^{n} amplitudes, ns/amp by lowest qubit");
        print!("{:>4}", "q");
        for name in CLASSES {
            print!("{name:>8}");
        }
        println!();
        for &q in &lows {
            print!("{q:>4}");
            for name in CLASSES {
                let q = if name == "cx" { q.min(n - 2) } else { q };
                print!("{:>8.3}", ns_per_amp(&gate(name, q), n));
            }
            println!();
        }
    }
}
