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
//! diagonal kernels (two controlled phases touching `2^{n-2}` each, say) are
//! left alone rather than inflated into a full pass.

use crate::compile::{CompiledGate, KernelId};
use crate::exec::Step;
use crate::kernels::GateArgs;
use std::ops::Range;
use svsim_types::bits::mask_of;
use svsim_types::Complex64;

/// Maximum fusion window the kernels support (an 8-amplitude gather).
pub const MAX_WINDOW: u8 = 3;

/// Total amplitudes the gate touches across the whole state: its footprint,
/// once per work item.
fn amps_touched(cg: &CompiledGate) -> u64 {
    cg.args.work.saturating_mul(u64::from(cg.args.n_offs))
}

/// The greedy window rule, in one place: a window is the ascending union
/// of the qubits of the gates riding it, at most `cap` of them. Extend it by
/// a gate's `qubits` (any order): `None` means the union fits and the window
/// grew to it — the gate rides; `Some(previous)` means it would overflow, so
/// the window restarted at `qubits` alone and the one it replaced is handed
/// back. The fuser below groups kernels with it and the remap planner's cost
/// scan ([`crate::remap`]) asks it which upcoming gates ride an already
/// paid-for sweep, so the two cannot disagree on where a window ends.
pub(crate) fn extend_window(window: &mut Vec<u32>, qubits: &[u32], cap: u8) -> Option<Vec<u32>> {
    let mut merged = window.clone();
    for &q in qubits {
        if let Err(pos) = merged.binary_search(&q) {
            merged.insert(pos, q);
        }
    }
    if merged.len() > usize::from(cap) {
        merged = qubits.to_vec();
        merged.sort_unstable();
        return Some(std::mem::replace(window, merged));
    }
    *window = merged;
    None
}

/// Bits at the ascending `window` positions, gathered down to local
/// positions `0..k` (`relabel(1 << window[i]) == 1 << i`).
fn relabel(bits: u64, window: &[u32]) -> u64 {
    debug_assert_eq!(bits & !mask_of(window), 0, "the window covers the bits");
    (window.iter().enumerate()).fold(0, |local, (i, &q)| local | (bits >> q & 1) << i)
}

/// Rewrite a compiled gate into window-local coordinates: one relabeling of
/// qubit positions — `q` becomes its index in the ascending `window` list —
/// applied to `sorted` and to every offset of the footprint; `work` becomes
/// the gate's work over the `2^k` window. Matrix and scalar payloads are
/// copied untouched — they are what the template patcher rewrites between
/// sweep members.
fn to_local(cg: &CompiledGate, window: &[u32]) -> CompiledGate {
    let mut a = cg.args.clone();
    let n = usize::from(a.n_sorted);
    debug_assert!(n <= window.len());
    for q in &mut a.sorted[..n] {
        *q = relabel(1 << *q, window).trailing_zeros();
    }
    for o in &mut a.offs[..usize::from(cg.args.n_offs)] {
        *o = relabel(*o, window);
    }
    a.work = 1 << (window.len() - n);
    CompiledGate { id: cg.id, args: a }
}

/// Build the fused gate for `window` from its constituent kernels. Its
/// footprint is the whole window — every setting of the window's qubits,
/// local index `j` with bit `b` at position `window[b]` — and the one place
/// that enumeration is written.
fn fused_gate(window: &[u32], parts: &[CompiledGate], n_qubits: u32) -> CompiledGate {
    let k = window.len();
    let id = match k {
        1 => KernelId::Fused1,
        2 => KernelId::Fused2,
        _ => KernelId::Fused3,
    };
    let mut sorted = [0u32; 5];
    sorted[..k].copy_from_slice(window);
    let mut offs = [0u64; 8];
    for (j, o) in offs[..1 << k].iter_mut().enumerate() {
        for (b, &q) in window.iter().enumerate() {
            *o |= (j as u64 >> b & 1) << q;
        }
    }
    CompiledGate {
        id,
        args: GateArgs {
            sorted,
            n_sorted: k as u8,
            offs,
            n_offs: 1 << k,
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

/// One output of [`fuse_runs`]: the input items it covers and, when they
/// fused, the sweep kernel replacing them (`None`: one item, left as it is).
type Run = (Range<usize>, Option<CompiledGate>);

/// The one greedy scan. Each item is the kernels of one indivisible unit (a
/// flat queue's kernel, a segment's gate step), or `None` for a unit that
/// must stay as it is and break any run around it. Extend the current
/// window while the union stays within `window` qubits; flush when it would
/// grow past it, emitting one fused kernel when `worth_fusing` holds and the
/// items unchanged otherwise. The runs cover the items in order.
fn fuse_runs<'a>(
    items: impl Iterator<Item = Option<&'a [CompiledGate]>>,
    n_qubits: u32,
    window: u8,
) -> Vec<Run> {
    let window = window.min(MAX_WINDOW);
    let mut runs: Vec<Run> = Vec::new();
    let mut win: Vec<u32> = Vec::new();
    // The pending run: the kernels riding `win`, from item `start` on.
    let mut pend: Vec<CompiledGate> = Vec::new();
    let mut start = 0;
    // The trailing `None` closes the last run.
    for (i, item) in items.map(Some).chain([None]).enumerate() {
        // The item's kernels and own window, if all of it fits one (a
        // kernel that is already a sweep rides none).
        let own = item.flatten().and_then(|gates| {
            let mut own = Vec::new();
            let fits = gates.iter().all(|cg| {
                cg.args.fused.is_empty()
                    && extend_window(&mut own, cg.args.sorted(), window).is_none()
            });
            (fits && !own.is_empty()).then_some((gates, own))
        });
        let closed = match &own {
            Some((_, own)) => extend_window(&mut win, own, window),
            None => Some(std::mem::take(&mut win)),
        };
        if let Some(closed) = closed {
            if worth_fusing(&closed, &pend, n_qubits) {
                runs.push((start..i, Some(fused_gate(&closed, &pend, n_qubits))));
            } else {
                runs.extend((start..i).map(|j| (j..j + 1, None)));
            }
            pend.clear();
            start = i;
        }
        match own {
            Some((gates, _)) => pend.extend_from_slice(gates),
            None if item.is_some() => {
                runs.push((i..i + 1, None));
                start = i + 1;
            }
            None => {}
        }
    }
    runs
}

/// Fuse a flat kernel run (no steps, no measurements) with the greedy scan
/// of this module, every kernel its own unit.
///
/// Returns the fused queue together with `micro_origin`: for each output
/// gate, the range of input-queue indices it covers.
#[must_use]
pub fn fuse_compiled(
    queue: &[CompiledGate],
    n_qubits: u32,
    window: u8,
) -> (Vec<CompiledGate>, Vec<Range<usize>>) {
    fuse_runs(
        queue.iter().map(|cg| Some(std::slice::from_ref(cg))),
        n_qubits,
        window,
    )
    .into_iter()
    .map(|(items, fused)| {
        let cg = fused.unwrap_or_else(|| queue[items.start].clone());
        (cg, items)
    })
    .unzip()
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
/// whose combined footprint fits the window collapse into one `Step::Gate`
/// with no raw gate, backed by one fused kernel. A gate step is one unit of
/// the scan (a compound gate's kernels fuse together or not at all). Every
/// other step breaks a run: `Measure`/`Reset` (they consume randomness and
/// collapse state), `IfEq` (its execution depends on runtime classical
/// bits) and `Exchange` (the relabeling must run between the neighbouring
/// kernels).
pub(crate) fn fuse_segment(
    steps: &mut Vec<Step>,
    queue: &mut Vec<CompiledGate>,
    n_qubits: u32,
    window: u8,
) {
    if window == 0 || steps.is_empty() {
        return;
    }
    let old_steps = std::mem::take(steps);
    let old_queue = std::mem::take(queue);
    let runs = fuse_runs(
        old_steps.iter().map(|step| match step {
            Step::Gate { compiled, .. } => Some(&old_queue[compiled.clone()]),
            _ => None,
        }),
        n_qubits,
        window,
    );
    let mut old_steps = old_steps.into_iter();
    for (items, fused) in runs {
        let mut step = old_steps.next().expect("runs cover the steps in order");
        let first = queue.len();
        match fused {
            Some(cg) => {
                let (op, _) = step.kernels().expect("fused runs hold gate steps");
                queue.push(cg);
                step = Step::Gate {
                    op,
                    raw: None,
                    compiled: first..queue.len(),
                };
                old_steps.by_ref().take(items.len() - 1).for_each(drop);
            }
            // An unfused step keeps its kernels, rebased onto the new queue.
            None => {
                if let Some(r) = step.kernels_mut() {
                    queue.extend_from_slice(&old_queue[r.clone()]);
                    *r = first..queue.len();
                }
            }
        }
        steps.push(step);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::resolve;
    use crate::fixtures::compile_all;
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
        let queue = compile_all(c.gates(), n, true);
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
            let queue = compile_all(c.gates(), n, true);
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
        // Two controlled phases touch 2^{n-2} amplitudes each; a fused
        // 2-qubit sweep would touch all 2^n — fusing would *increase*
        // traffic, so the pass must leave them alone.
        let n = 8u32;
        let mut c = Circuit::new(n);
        c.apply(GateKind::CZ, &[0, 1], &[]).unwrap();
        c.apply(GateKind::CU1, &[0, 1], &[0.4]).unwrap();
        let queue = compile_all(c.gates(), n, true);
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
        let queue = compile_all(c.gates(), n, true);
        let (fused, _) = fuse_compiled(&queue, n, 3);
        // H;H fuse, C4X stays, H;H fuse.
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0].id, KernelId::Fused1);
        assert_eq!(fused[1].id, KernelId::X);
        assert_eq!(fused[1].args.n_sorted, 5, "the C4X, as it was");
        assert_eq!(fused[2].id, KernelId::Fused1);
        assert_eq!(source_kernels(&fused), queue.len());
    }

    #[test]
    fn micro_ops_are_window_local() {
        let n = 9u32;
        let mut c = Circuit::new(n);
        c.apply(GateKind::H, &[4], &[]).unwrap();
        c.apply(GateKind::CX, &[4, 7], &[]).unwrap();
        let queue = compile_all(c.gates(), n, true);
        let (fused, origin) = fuse_compiled(&queue, n, 2);
        assert_eq!(fused.len(), 1);
        assert_eq!(origin, vec![0..2]);
        let f = &fused[0];
        assert_eq!(f.id, KernelId::Fused2);
        assert_eq!(f.args.sorted(), &[4, 7]);
        assert_eq!(f.args.work, (1 << n) / 4);
        assert_eq!(f.args.offs(), &[0, 1 << 4, 1 << 7, 1 << 4 | 1 << 7]);
        let h = &f.args.fused[0];
        assert_eq!(
            (h.id, h.args.sorted(), h.args.work),
            (KernelId::H, &[0][..], 2)
        );
        assert_eq!(h.args.offs(), &[0, 1]);
        // Control 4 -> local 0, target 7 -> local 1.
        let cx = &f.args.fused[1];
        assert_eq!(
            (cx.id, cx.args.sorted(), cx.args.work),
            (KernelId::X, &[0, 1][..], 1)
        );
        assert_eq!(cx.args.offs(), &[0b01, 0b11]);
    }

    #[test]
    fn rccx_fuses_as_one_window() {
        // A compound gate lowering to many kernels over 3 qubits collapses
        // into a single fused-3 sweep.
        let g = Gate::new(GateKind::RCCX, &[0, 1, 2], &[]).unwrap();
        let queue = compile_all([&g], 5, true);
        assert!(queue.len() > 5);
        let (fused, _) = fuse_compiled(&queue, 5, 3);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].id, KernelId::Fused3);
        assert_eq!(source_kernels(&fused), queue.len());
    }
}
