//! Gate fusion: collapse runs of adjacent kernels sharing a small qubit
//! window into one fused sweep.
//!
//! State-vector simulation is memory-bandwidth bound (arithmetic intensity
//! below 1/2 — PAPER.md §1), so the dominant single-node cost is *passes
//! over the `2^n` amplitudes*, not arithmetic. This pass rewrites a
//! compiled kernel queue so that a run of gates whose combined footprint
//! fits a window of `k ≤ 3` qubits executes as **one** sweep
//! ([`crate::kernels::k_fused1`]/`2`/`3`): each of the `2^{n-k}` windows is
//! gathered once, the constituent kernels are replayed over a
//! [`crate::view::LocalView`] of the window in window-local coordinates,
//! and the window is scattered back.
//!
//! Replaying the constituent kernels — instead of pre-multiplying one dense
//! `2^k × 2^k` matrix — is what keeps fusion **bit-identical**: every
//! amplitude goes through the exact floating-point expressions the unfused
//! schedule would have evaluated, in the same order (windows are disjoint,
//! so per-window replay commutes with the global gate-by-gate order).
//!
//! Fusion is traffic-monotone by construction: a run is only fused when
//! the amplitudes the fused sweep touches (`2^n`, always) do not exceed
//! the sum its constituents would have touched — so runs of half-touch
//! diagonal kernels (two `CPhase`s touching `2^{n-2}` each, say) are left
//! alone rather than inflated into a full pass.

use crate::compile::{CompiledGate, KernelId};
use crate::exec::Step;
use crate::kernels::GateArgs;
use svsim_types::Complex64;

/// Maximum fusion window the kernels support (an 8-amplitude gather).
pub const MAX_WINDOW: u8 = 3;

/// Amplitudes one work item of `id` touches (reads or writes).
fn amps_per_item(id: KernelId) -> u64 {
    match id {
        KernelId::Z | KernelId::Phase | KernelId::CPhase => 1,
        KernelId::X
        | KernelId::Y
        | KernelId::H
        | KernelId::OneQ
        | KernelId::Rz
        | KernelId::Cx
        | KernelId::Crz
        | KernelId::ControlledOneQ
        | KernelId::Swap
        | KernelId::CSwap => 2,
        KernelId::Rzz | KernelId::TwoQ => 4,
        KernelId::Fused1 => 2,
        KernelId::Fused2 => 4,
        KernelId::Fused3 => 8,
    }
}

/// Total amplitudes the gate touches across the whole state.
fn amps_touched(cg: &CompiledGate) -> u64 {
    cg.args.work.saturating_mul(amps_per_item(cg.id))
}

/// Whether this kernel can participate in a fused window of size `window`.
fn fusable(cg: &CompiledGate, window: u8) -> bool {
    !matches!(
        cg.id,
        KernelId::Fused1 | KernelId::Fused2 | KernelId::Fused3
    ) && cg.args.n_sorted <= window
}

/// Ascending union of two sorted qubit lists.
fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = a.to_vec();
    for &q in b {
        if let Err(pos) = out.binary_search(&q) {
            out.insert(pos, q);
        }
    }
    out
}

/// Rewrite a compiled gate into window-local coordinates: qubit `q`
/// becomes its index in the ascending `window` list, `work` becomes the
/// gate's work over the `2^k` window. Matrix and scalar payloads are
/// copied untouched — they are what the template patcher rewrites between
/// sweep members.
fn to_local(cg: &CompiledGate, window: &[u32]) -> CompiledGate {
    let k = window.len() as u32;
    let pos = |q: u32| -> u32 {
        window
            .iter()
            .position(|&w| w == q)
            .expect("window covers every involved qubit") as u32
    };
    let mut a = cg.args.clone();
    let involved = cg.args.sorted().to_vec();
    for (i, &q) in involved.iter().enumerate() {
        a.sorted[i] = pos(q);
    }
    // `target`/`aux` are only meaningful when they name an involved qubit
    // (diagonal kernels leave them at their default); map exactly those.
    if involved.contains(&cg.args.target) {
        a.target = pos(cg.args.target);
    }
    if involved.contains(&cg.args.aux) {
        a.aux = pos(cg.args.aux);
    }
    let mut mask = 0u64;
    for &q in &involved {
        if cg.args.ctrl_mask & (1 << q) != 0 {
            mask |= 1 << pos(q);
        }
    }
    a.ctrl_mask = mask;
    debug_assert!(cg.args.n_sorted as u32 <= k);
    a.work = 1u64 << (k - u32::from(cg.args.n_sorted));
    CompiledGate { id: cg.id, args: a }
}

/// Build the fused gate for `window` from its constituent kernels.
fn fused_gate(window: &[u32], parts: &[CompiledGate], n_qubits: u32) -> CompiledGate {
    let k = window.len();
    let id = match k {
        1 => KernelId::Fused1,
        2 => KernelId::Fused2,
        _ => KernelId::Fused3,
    };
    let mut sorted = [0u32; 5];
    sorted[..k].copy_from_slice(window);
    CompiledGate {
        id,
        args: GateArgs {
            sorted,
            n_sorted: k as u8,
            target: 0,
            aux: 0,
            ctrl_mask: 0,
            m: [Complex64::ZERO; 16],
            s0: 0.0,
            s1: 0.0,
            work: (1u64 << n_qubits) >> k,
            fused: parts.iter().map(|cg| to_local(cg, window)).collect(),
        },
    }
}

/// Whether fusing `parts` into one `|window|`-qubit sweep is worthwhile:
/// at least two kernels collapse into one pass, and the fused sweep's
/// amplitude traffic (`2^n`, always) does not exceed what the parts would
/// have touched separately.
fn worth_fusing(window: &[u32], parts: &[CompiledGate], n_qubits: u32) -> bool {
    if parts.len() < 2 || window.is_empty() || window.len() > MAX_WINDOW as usize {
        return false;
    }
    let fused_amps = 1u64 << n_qubits;
    let unfused: u64 = parts
        .iter()
        .map(amps_touched)
        .fold(0u64, u64::saturating_add);
    unfused >= fused_amps
}

/// Fuse a flat kernel run (no steps, no measurements).
/// Greedy: extend the current window while the union stays within
/// `window` qubits; flush when it would grow past it, emitting a fused
/// kernel when `worth_fusing` holds and the original kernels otherwise.
///
/// Returns the fused queue together with `micro_origin`: for each output
/// gate, the range of input-queue indices it covers.
#[must_use]
pub fn fuse_compiled(
    queue: &[CompiledGate],
    n_qubits: u32,
    window: u8,
) -> (Vec<CompiledGate>, Vec<std::ops::Range<usize>>) {
    let window = window.min(MAX_WINDOW);
    let mut out = Vec::with_capacity(queue.len());
    let mut origin: Vec<std::ops::Range<usize>> = Vec::with_capacity(queue.len());
    let mut pend: Vec<CompiledGate> = Vec::new();
    let mut pend_start = 0usize;
    let mut win: Vec<u32> = Vec::new();
    let flush = |pend: &mut Vec<CompiledGate>,
                 win: &mut Vec<u32>,
                 pend_start: usize,
                 out: &mut Vec<CompiledGate>,
                 origin: &mut Vec<std::ops::Range<usize>>| {
        if worth_fusing(win, pend, n_qubits) {
            out.push(fused_gate(win, pend, n_qubits));
            origin.push(pend_start..pend_start + pend.len());
        } else {
            for (j, cg) in pend.drain(..).enumerate() {
                out.push(cg);
                origin.push(pend_start + j..pend_start + j + 1);
            }
        }
        pend.clear();
        win.clear();
    };
    for (i, cg) in queue.iter().enumerate() {
        if window == 0 || !fusable(cg, window) {
            flush(&mut pend, &mut win, pend_start, &mut out, &mut origin);
            out.push(cg.clone());
            origin.push(i..i + 1);
            continue;
        }
        let merged = union_sorted(&win, cg.args.sorted());
        if merged.len() <= window as usize {
            if pend.is_empty() {
                pend_start = i;
            }
            win = merged;
            pend.push(cg.clone());
        } else {
            flush(&mut pend, &mut win, pend_start, &mut out, &mut origin);
            pend_start = i;
            win = cg.args.sorted().to_vec();
            pend.push(cg.clone());
        }
    }
    flush(&mut pend, &mut win, pend_start, &mut out, &mut origin);
    (out, origin)
}

/// Count the source (pre-fusion) kernels a queue represents: fused gates
/// count their constituents, everything else counts once. The
/// gates-per-amplitude-pass metric is this over `queue.len()`.
#[must_use]
pub fn source_kernels(queue: &[CompiledGate]) -> usize {
    queue
        .iter()
        .map(|cg| {
            if cg.args.fused.is_empty() {
                1
            } else {
                cg.args.fused.len()
            }
        })
        .sum()
}

/// Fuse a lowered segment in place: runs of adjacent [`Step::Gate`] steps
/// whose combined footprint fits the window collapse into [`Step::Fused`]
/// steps backed by one fused kernel each. Every other step breaks a run:
/// `Measure`/`Reset` (they consume randomness and collapse state), `IfEq`
/// (its execution depends on runtime classical bits) and `Exchange` (the
/// relabeling must run between the neighbouring kernels).
pub(crate) fn fuse_segment(
    steps: &mut Vec<Step>,
    queue: &mut Vec<CompiledGate>,
    n_qubits: u32,
    window: u8,
) {
    let window = window.min(MAX_WINDOW);
    if window == 0 || steps.is_empty() {
        return;
    }
    let old_steps = std::mem::take(steps);
    let old_queue = std::mem::take(queue);
    let kernels_of = |step: &Step| -> &[CompiledGate] {
        step.kernels().map_or(&[], |(_, r)| &old_queue[r.clone()])
    };
    // Emit one original step, rebasing its kernel range onto the new queue.
    let emit = |mut step: Step, steps: &mut Vec<Step>, queue: &mut Vec<CompiledGate>| {
        let first = queue.len();
        queue.extend_from_slice(kernels_of(&step));
        if let Some(r) = step.kernels_mut() {
            *r = first..queue.len();
        }
        steps.push(step);
    };
    // Emit the pending run of gate steps: as one fused step if worthwhile,
    // unchanged otherwise.
    let flush = |pend: &mut Vec<Step>,
                 win: &mut Vec<u32>,
                 steps: &mut Vec<Step>,
                 queue: &mut Vec<CompiledGate>| {
        let parts: Vec<CompiledGate> = pend.iter().flat_map(kernels_of).cloned().collect();
        if worth_fusing(win, &parts, n_qubits) {
            let (op, _) = pend[0].kernels().expect("pending runs hold gate steps");
            queue.push(fused_gate(win, &parts, n_qubits));
            steps.push(Step::Fused {
                op,
                compiled: queue.len() - 1..queue.len(),
            });
            pend.clear();
        } else {
            for step in pend.drain(..) {
                emit(step, steps, queue);
            }
        }
        win.clear();
    };

    let mut pend: Vec<Step> = Vec::new();
    let mut win: Vec<u32> = Vec::new();
    for step in old_steps {
        // The step's own window, if it is a gate step that fits one.
        let own = Some(kernels_of(&step))
            .filter(|gates| {
                matches!(step, Step::Gate { .. }) && gates.iter().all(|cg| fusable(cg, window))
            })
            .map(|gates| {
                gates
                    .iter()
                    .fold(Vec::new(), |w, cg| union_sorted(&w, cg.args.sorted()))
            })
            .filter(|w| !w.is_empty() && w.len() <= window as usize);
        let Some(own) = own else {
            flush(&mut pend, &mut win, steps, queue);
            emit(step, steps, queue);
            continue;
        };
        let merged = union_sorted(&win, &own);
        if merged.len() <= window as usize {
            win = merged;
        } else {
            flush(&mut pend, &mut win, steps, queue);
            win = own;
        }
        pend.push(step);
    }
    flush(&mut pend, &mut win, steps, queue);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_gates;
    use crate::dispatch::resolve;
    use crate::view::LocalView;
    use svsim_ir::{Circuit, Gate, GateKind};

    fn apply_queue(queue: &[CompiledGate], re: &mut [f64], im: &mut [f64]) {
        let v = LocalView::new(re, im);
        for cg in queue {
            resolve::<LocalView>(cg.id)(&v, &cg.args, 0..cg.args.work);
        }
    }

    fn random_state(n: u32, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = svsim_types::SvRng::seed_from_u64(seed);
        let dim = 1usize << n;
        let re: Vec<f64> = (0..dim).map(|_| rng.next_f64() - 0.5).collect();
        let im: Vec<f64> = (0..dim).map(|_| rng.next_f64() - 0.5).collect();
        (re, im)
    }

    #[test]
    fn fused_run_is_bit_identical_to_gate_by_gate() {
        let n = 6u32;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        c.apply(GateKind::T, &[0], &[]).unwrap();
        c.apply(GateKind::RX, &[0], &[0.37]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::T, &[1], &[]).unwrap();
        c.apply(GateKind::CCX, &[0, 1, 2], &[]).unwrap();
        c.apply(GateKind::RZZ, &[1, 2], &[0.9]).unwrap();
        c.apply(GateKind::SWAP, &[3, 4], &[]).unwrap();
        c.apply(GateKind::H, &[3], &[]).unwrap();
        let queue = compile_gates(c.gates(), n, true);
        for window in 1..=3u8 {
            let (fused, _) = fuse_compiled(&queue, n, window);
            assert!(fused.len() < queue.len(), "window {window} fused nothing");
            let (mut re_a, mut im_a) = random_state(n, 42);
            let (mut re_b, mut im_b) = (re_a.clone(), im_a.clone());
            apply_queue(&queue, &mut re_a, &mut im_a);
            apply_queue(&fused, &mut re_b, &mut im_b);
            assert_eq!(re_a, re_b, "window {window} re diverged");
            assert_eq!(im_a, im_b, "window {window} im diverged");
        }
    }

    #[test]
    fn property_random_runs_fuse_bit_identically() {
        // Seeded property test: random gate runs fused into dense windows
        // must equal gate-by-gate application amplitude-exactly.
        let n = 5u32;
        let mut rng = svsim_types::SvRng::seed_from_u64(20260808);
        for trial in 0..24 {
            let mut c = Circuit::new(n);
            for _ in 0..20 {
                let q0 = (rng.next_f64() * f64::from(n)) as u32 % n;
                let q1 = (q0 + 1 + (rng.next_f64() * f64::from(n - 1)) as u32 % (n - 1)) % n;
                let th = rng.next_f64() * 6.0 - 3.0;
                match (rng.next_f64() * 6.0) as u32 {
                    0 => c.apply(GateKind::H, &[q0], &[]).unwrap(),
                    1 => c.apply(GateKind::RX, &[q0], &[th]).unwrap(),
                    2 => c.apply(GateKind::RZ, &[q0], &[th]).unwrap(),
                    3 => c.apply(GateKind::CX, &[q0, q1], &[]).unwrap(),
                    4 => c.apply(GateKind::CU1, &[q0, q1], &[th]).unwrap(),
                    _ => c.apply(GateKind::RZZ, &[q0, q1], &[th]).unwrap(),
                };
            }
            let queue = compile_gates(c.gates(), n, true);
            let window = 1 + (trial % 3) as u8;
            let (fused, _) = fuse_compiled(&queue, n, window);
            let (mut re_a, mut im_a) = random_state(n, 1000 + trial);
            let (mut re_b, mut im_b) = (re_a.clone(), im_a.clone());
            apply_queue(&queue, &mut re_a, &mut im_a);
            apply_queue(&fused, &mut re_b, &mut im_b);
            assert_eq!(re_a, re_b, "trial {trial} re diverged");
            assert_eq!(im_a, im_b, "trial {trial} im diverged");
        }
    }

    #[test]
    fn half_touch_diagonal_runs_stay_unfused() {
        // Two CPhase kernels touch 2^{n-2} amplitudes each; a fused
        // 2-qubit sweep would touch all 2^n — fusing would *increase*
        // traffic, so the pass must leave them alone.
        let n = 8u32;
        let mut c = Circuit::new(n);
        c.apply(GateKind::CZ, &[0, 1], &[]).unwrap();
        c.apply(GateKind::CU1, &[0, 1], &[0.4]).unwrap();
        let queue = compile_gates(c.gates(), n, true);
        let (fused, _) = fuse_compiled(&queue, n, 2);
        assert_eq!(fused.len(), 2, "diagonal pair must not fuse");
        assert!(fused.iter().all(|cg| cg.args.fused.is_empty()));
    }

    #[test]
    fn wide_gates_break_runs() {
        let n = 7u32;
        let mut c = Circuit::new(n);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::C4X, &[0, 1, 2, 3, 4], &[]).unwrap();
        c.apply(GateKind::H, &[1], &[]).unwrap();
        c.apply(GateKind::H, &[1], &[]).unwrap();
        let queue = compile_gates(c.gates(), n, true);
        let (fused, _) = fuse_compiled(&queue, n, 3);
        // H;H fuse, C4X stays, H;H fuse.
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0].id, KernelId::Fused1);
        assert_eq!(fused[1].id, KernelId::ControlledOneQ);
        assert_eq!(fused[2].id, KernelId::Fused1);
        assert_eq!(source_kernels(&fused), queue.len());
    }

    #[test]
    fn micro_ops_are_window_local() {
        let n = 9u32;
        let mut c = Circuit::new(n);
        c.apply(GateKind::H, &[4], &[]).unwrap();
        c.apply(GateKind::CX, &[4, 7], &[]).unwrap();
        let queue = compile_gates(c.gates(), n, true);
        let (fused, origin) = fuse_compiled(&queue, n, 2);
        assert_eq!(fused.len(), 1);
        assert_eq!(origin, vec![0..2]);
        let f = &fused[0];
        assert_eq!(f.id, KernelId::Fused2);
        assert_eq!(f.args.sorted(), &[4, 7]);
        assert_eq!(f.args.work, (1 << n) / 4);
        let h = &f.args.fused[0];
        assert_eq!((h.args.target, h.args.work), (0, 2));
        let cx = &f.args.fused[1];
        assert_eq!(cx.args.sorted(), &[0, 1]);
        assert_eq!((cx.args.target, cx.args.ctrl_mask, cx.args.work), (1, 1, 1));
    }

    #[test]
    fn rccx_fuses_as_one_window() {
        // A compound gate lowering to many kernels over 3 qubits collapses
        // into a single fused-3 sweep.
        let g = Gate::new(GateKind::RCCX, &[0, 1, 2], &[]).unwrap();
        let queue = compile_gates([&g], 5, true);
        assert!(queue.len() > 5);
        let (fused, _) = fuse_compiled(&queue, 5, 3);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].id, KernelId::Fused3);
        assert_eq!(source_kernels(&fused), queue.len());
    }
}
