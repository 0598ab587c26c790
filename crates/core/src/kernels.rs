//! Specialized gate kernels, written once and monomorphized per memory
//! fabric ([`StateView`]).
//!
//! Mirrors the paper's *specialized gate implementation* (§3.2.1): each gate
//! family has its own kernel touching exactly the amplitudes it must (a
//! phase gate touches half the vector, CX permutes a quarter, a diagonal
//! controlled phase touches `2^{n-k}` amplitudes), instead of a generalized
//! dense-matrix application. The savings are real and measured — the
//! baselines crate provides the generalized implementation for comparison.
//!
//! Every kernel processes a caller-supplied sub-range of its *work-item
//! space*, so the same code serves the single device (full range), the
//! scale-up executor (one chunk per device thread) and the scale-out SPMD
//! PEs (one chunk per PE), exactly like the grid-strided loops of
//! Listings 3-5.

use crate::compile::CompiledGate;
use crate::dispatch::KernelFn;
use crate::view::{LocalView, StateView};
use std::ops::Range;
use svsim_types::bits::{insert_zero_bit, insert_zero_bits};
use svsim_types::Complex64;

/// Uniform argument block for every kernel (the analog of the paper's
/// fixed-format `Gate` object that makes device function pointers possible:
/// one parameter layout shared by all gate functions).
#[derive(Debug, Clone, PartialEq)]
pub struct GateArgs {
    /// Ascending positions of all involved qubits (for base-index
    /// enumeration via zero-bit insertion).
    pub sorted: [u32; 5],
    /// Number of valid entries in `sorted`.
    pub n_sorted: u8,
    /// Target qubit (payload bit for controlled/1q kernels; first operand
    /// for 2q matrix kernels).
    pub target: u32,
    /// Second operand (swap partner / second matrix qubit).
    pub aux: u32,
    /// OR of the control-qubit bit masks (or, for pure-diagonal phase
    /// kernels, of *all* involved qubits).
    pub ctrl_mask: u64,
    /// Payload matrix: 2×2 in `m[..4]` (row-major), 4×4 in `m[..16]`.
    pub m: [Complex64; 16],
    /// Scalar parameter (e.g. `cos`).
    pub s0: f64,
    /// Scalar parameter (e.g. `sin`).
    pub s1: f64,
    /// Number of work items for this kernel over the full state.
    pub work: u64,
    /// Constituent micro-ops of a fused window kernel, rewritten to
    /// window-local coordinates (empty for every ordinary kernel). The
    /// fused kernels gather one `2^k` window, replay these through the
    /// constituent kernels over a [`LocalView`] of the window, and scatter
    /// back — so the per-amplitude arithmetic is the exact expression the
    /// unfused gates would have evaluated, bit for bit.
    pub fused: Vec<CompiledGate>,
}

impl GateArgs {
    /// Sorted involved-qubit positions.
    #[inline]
    #[must_use]
    pub fn sorted(&self) -> &[u32] {
        &self.sorted[..self.n_sorted as usize]
    }
}

/// Contiguous work split: item range owned by `worker` of `n_workers`.
///
/// The intermediate product is widened to `u128`: the traffic model calls
/// this with Summit-scale `work` (up to `2^63` items), where
/// `work * worker` overflows `u64` long before the division brings the
/// quotient back in range.
#[inline]
#[must_use]
pub fn worker_range(work: u64, n_workers: u64, worker: u64) -> Range<u64> {
    let split = |w: u64| (u128::from(work) * u128::from(w) / u128::from(n_workers)) as u64;
    split(worker)..split(worker + 1)
}

/// Pauli-X: swap the amplitude pair.
pub fn k_x<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    for i in r {
        let i0 = insert_zero_bit(i, t);
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        let (r1, m1) = v.get(i1);
        v.set(i0, r1, m1);
        v.set(i1, r0, m0);
    }
}

/// Pauli-Y: swap with `±i` phases.
pub fn k_y<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    for i in r {
        let i0 = insert_zero_bit(i, t);
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        let (r1, m1) = v.get(i1);
        // |0> component <- -i * amp1 ; |1> component <- i * amp0
        v.set(i0, m1, -r1);
        v.set(i1, -m0, r0);
    }
}

/// Pauli-Z: negate the `|1>` half only (half the traffic of a generic 1q
/// gate — the paper's T-gate argument).
pub fn k_z<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    for i in r {
        let i1 = insert_zero_bit(i, t) | (1 << t);
        let (re, im) = v.get(i1);
        v.set(i1, -re, -im);
    }
}

/// Hadamard.
pub fn k_h<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    const S2I: f64 = svsim_types::S2I;
    let t = a.target;
    for i in r {
        let i0 = insert_zero_bit(i, t);
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        let (r1, m1) = v.get(i1);
        v.set(i0, S2I * (r0 + r1), S2I * (m0 + m1));
        v.set(i1, S2I * (r0 - r1), S2I * (m0 - m1));
    }
}

/// Phase gate `diag(1, s0 + i s1)`: S, SDG, T, TDG, U1. Touches only the
/// `|1>` half.
pub fn k_phase<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    let (c, s) = (a.s0, a.s1);
    for i in r {
        let i1 = insert_zero_bit(i, t) | (1 << t);
        let (re, im) = v.get(i1);
        v.set(i1, c * re - s * im, c * im + s * re);
    }
}

/// `RZ = diag(e^{-i th/2}, e^{i th/2})` with `s0 + i s1 = e^{i th/2}`.
pub fn k_rz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    let (c, s) = (a.s0, a.s1);
    for i in r {
        let i0 = insert_zero_bit(i, t);
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        v.set(i0, c * r0 + s * m0, c * m0 - s * r0); // conj(ph) * amp0
        let (r1, m1) = v.get(i1);
        v.set(i1, c * r1 - s * m1, c * m1 + s * r1); // ph * amp1
    }
}

/// Generic dense 2×2 gate (`U3`, `U2`, `RX`, `RY`, and the non-specialized
/// fallback).
pub fn k_oneq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    let m = &a.m;
    for i in r {
        let i0 = insert_zero_bit(i, t);
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        let (r1, m1) = v.get(i1);
        v.set(
            i0,
            m[0].re * r0 - m[0].im * m0 + m[1].re * r1 - m[1].im * m1,
            m[0].re * m0 + m[0].im * r0 + m[1].re * m1 + m[1].im * r1,
        );
        v.set(
            i1,
            m[2].re * r0 - m[2].im * m0 + m[3].re * r1 - m[3].im * m1,
            m[2].re * m0 + m[2].im * r0 + m[3].re * m1 + m[3].im * r1,
        );
    }
}

/// CNOT: permutes the quarter of amplitudes with the control set.
pub fn k_cx<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    let cm = a.ctrl_mask;
    let sorted = a.sorted();
    for i in r {
        let i0 = insert_zero_bits(i, sorted) | cm;
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        let (r1, m1) = v.get(i1);
        v.set(i0, r1, m1);
        v.set(i1, r0, m0);
    }
}

/// Diagonal controlled phase on the all-ones subspace of the involved
/// qubits: CZ, CU1 (and exact multi-controlled phases). Touches
/// `2^{n-k}` amplitudes only.
pub fn k_cphase<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1);
    let mask = a.ctrl_mask;
    let sorted = a.sorted();
    for i in r {
        let idx = insert_zero_bits(i, sorted) | mask;
        let (re, im) = v.get(idx);
        v.set(idx, c * re - s * im, c * im + s * re);
    }
}

/// Controlled-RZ: both target halves rotate under the control.
pub fn k_crz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    let cm = a.ctrl_mask;
    let (c, s) = (a.s0, a.s1);
    let sorted = a.sorted();
    for i in r {
        let i0 = insert_zero_bits(i, sorted) | cm;
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        v.set(i0, c * r0 + s * m0, c * m0 - s * r0);
        let (r1, m1) = v.get(i1);
        v.set(i1, c * r1 - s * m1, c * m1 + s * r1);
    }
}

/// Generic (multi-)controlled dense 2×2: CY, CH, CRX, CRY, CU3, CCX, C3X,
/// C4X, C3SQRTX.
pub fn k_controlled_oneq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let t = a.target;
    let cm = a.ctrl_mask;
    let m = &a.m;
    let sorted = a.sorted();
    for i in r {
        let i0 = insert_zero_bits(i, sorted) | cm;
        let i1 = i0 | (1 << t);
        let (r0, m0) = v.get(i0);
        let (r1, m1) = v.get(i1);
        v.set(
            i0,
            m[0].re * r0 - m[0].im * m0 + m[1].re * r1 - m[1].im * m1,
            m[0].re * m0 + m[0].im * r0 + m[1].re * m1 + m[1].im * r1,
        );
        v.set(
            i1,
            m[2].re * r0 - m[2].im * m0 + m[3].re * r1 - m[3].im * m1,
            m[2].re * m0 + m[2].im * r0 + m[3].re * m1 + m[3].im * r1,
        );
    }
}

/// SWAP: exchanges the `|01>` and `|10>` amplitudes (quarter of the vector).
pub fn k_swap<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (p, q) = (a.target, a.aux);
    let sorted = a.sorted();
    for i in r {
        let base = insert_zero_bits(i, sorted);
        let ia = base | (1 << p);
        let ib = base | (1 << q);
        let (ra, ma) = v.get(ia);
        let (rb, mb) = v.get(ib);
        v.set(ia, rb, mb);
        v.set(ib, ra, ma);
    }
}

/// Fredkin (controlled SWAP).
pub fn k_cswap<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (p, q) = (a.target, a.aux);
    let cm = a.ctrl_mask;
    let sorted = a.sorted();
    for i in r {
        let base = insert_zero_bits(i, sorted) | cm;
        let ia = base | (1 << p);
        let ib = base | (1 << q);
        let (ra, ma) = v.get(ia);
        let (rb, mb) = v.get(ib);
        v.set(ia, rb, mb);
        v.set(ib, ra, ma);
    }
}

/// `RZZ`: pure diagonal two-qubit rotation — phases by bit parity, no
/// mixing, no data exchange between amplitudes.
pub fn k_rzz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (p, q) = (a.target, a.aux);
    let (c, s) = (a.s0, a.s1); // e^{i th/2} = c + i s
    let sorted = a.sorted();
    for i in r {
        let base = insert_zero_bits(i, sorted);
        // Even parity (00, 11): e^{-i th/2}; odd parity (01, 10): e^{+i th/2}.
        for (idx, sign) in [
            (base, -1.0),
            (base | (1 << p), 1.0),
            (base | (1 << q), 1.0),
            (base | (1 << p) | (1 << q), -1.0),
        ] {
            let (re, im) = v.get(idx);
            let ss = s * sign;
            v.set(idx, c * re - ss * im, c * im + ss * re);
        }
    }
}

/// Generic dense 4×4 two-qubit gate (`RXX`, and the non-specialized CX
/// fallback). Local bit 0 of the matrix is `target` (first operand), local
/// bit 1 is `aux`.
pub fn k_twoq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (q0, q1) = (a.target, a.aux);
    let m = &a.m;
    let sorted = a.sorted();
    for i in r {
        let base = insert_zero_bits(i, sorted);
        let idx = [
            base,
            base | (1 << q0),
            base | (1 << q1),
            base | (1 << q0) | (1 << q1),
        ];
        let mut re = [0.0f64; 4];
        let mut im = [0.0f64; 4];
        for (k, &ix) in idx.iter().enumerate() {
            let (r_, i_) = v.get(ix);
            re[k] = r_;
            im[k] = i_;
        }
        for (row, &ix) in idx.iter().enumerate() {
            let mut ar = 0.0;
            let mut ai = 0.0;
            for col in 0..4 {
                let c = m[row * 4 + col];
                ar += c.re * re[col] - c.im * im[col];
                ai += c.re * im[col] + c.im * re[col];
            }
            v.set(ix, ar, ai);
        }
    }
}

/// Shared body of the fused window kernels: one pass over the `2^{n-k}`
/// windows of the `k` qubits in `sorted`. Each window's `2^k` amplitudes
/// are gathered into stack buffers, the constituent micro-ops in
/// `a.fused` (already rewritten to window-local coordinates) are replayed
/// through their own kernels over a [`LocalView`] of the window, and the
/// result is scattered back. Because every constituent runs its exact
/// per-amplitude arithmetic on the same values it would have seen running
/// gate by gate (windows are disjoint, so there is no cross-window
/// dataflow), the fused sweep is **bit-identical** to unfused execution —
/// while touching each amplitude once instead of once per gate.
#[inline]
fn k_fused_body<V: StateView, const DIM: usize>(v: &V, a: &GateArgs, r: Range<u64>) {
    let sorted = a.sorted();
    debug_assert_eq!(1usize << sorted.len(), DIM);
    // Local index j maps to the window offset with bit b of j at global
    // position sorted[b].
    let mut offs = [0u64; DIM];
    for (j, o) in offs.iter_mut().enumerate() {
        for (b, &q) in sorted.iter().enumerate() {
            if j & (1 << b) != 0 {
                *o |= 1 << q;
            }
        }
    }
    // One scratch window reused for every iteration, wrapped in a single
    // `LocalView` whose `Cell` planes let the gather/replay/scatter all go
    // through `&self` access. Resolving each micro-op's kernel once per
    // sweep (not once per window) keeps the dispatch lookup off the
    // 2^(n-k)-iteration hot loop.
    let mut re = [0.0f64; DIM];
    let mut im = [0.0f64; DIM];
    let lv = LocalView::new(&mut re, &mut im);
    type Micro<'q> = (KernelFn<LocalView<'q>>, &'q GateArgs);
    let micros: Vec<Micro<'_>> = a
        .fused
        .iter()
        .map(|cg| (crate::dispatch::resolve::<LocalView>(cg.id), &cg.args))
        .collect();
    for i in r {
        let base = insert_zero_bits(i, sorted);
        for (j, &o) in offs.iter().enumerate() {
            let (r_, i_) = v.get(base | o);
            lv.set(j as u64, r_, i_);
        }
        for (kernel, args) in &micros {
            kernel(&lv, args, 0..args.work);
        }
        for (j, &o) in offs.iter().enumerate() {
            let (r_, i_) = lv.get(j as u64);
            v.set(base | o, r_, i_);
        }
    }
}

/// Fused 1-qubit window: a run of gates sharing one qubit, one sweep.
pub fn k_fused1<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    k_fused_body::<V, 2>(v, a, r);
}

/// Fused 2-qubit window: a run of gates inside one 2-qubit window.
pub fn k_fused2<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    k_fused_body::<V, 4>(v, a, r);
}

/// Fused 3-qubit window: a run of gates inside one 3-qubit window.
pub fn k_fused3<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    k_fused_body::<V, 8>(v, a, r);
}

/// Collapse after measuring qubit `q` as `outcome`: zero the losing half,
/// scale the surviving half by `1/sqrt(p)`. Work-item space: `dim/2`
/// (each item handles one pair — all accesses are pair-local).
pub fn collapse_pairs<V: StateView>(v: &V, q: u32, outcome: u8, inv_sqrt_p: f64, r: Range<u64>) {
    for i in r {
        let i0 = insert_zero_bit(i, q);
        let i1 = i0 | (1 << q);
        let (keep, kill) = if outcome == 1 { (i1, i0) } else { (i0, i1) };
        let (re, im) = v.get(keep);
        v.set(keep, re * inv_sqrt_p, im * inv_sqrt_p);
        v.set(kill, 0.0, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::LocalView;

    fn zero_state(n: u32) -> (Vec<f64>, Vec<f64>) {
        let dim = 1usize << n;
        let mut re = vec![0.0; dim];
        let im = vec![0.0; dim];
        re[0] = 1.0;
        (re, im)
    }

    fn args_1q(t: u32, dim: u64) -> GateArgs {
        GateArgs {
            sorted: [t, 0, 0, 0, 0],
            n_sorted: 1,
            target: t,
            aux: 0,
            ctrl_mask: 0,
            m: [Complex64::ZERO; 16],
            s0: 0.0,
            s1: 0.0,
            work: dim / 2,
            fused: Vec::new(),
        }
    }

    #[test]
    fn worker_range_covers_exactly() {
        for n_workers in [1u64, 2, 3, 7, 16] {
            let mut total = 0;
            let mut prev_end = 0;
            for w in 0..n_workers {
                let r = worker_range(100, n_workers, w);
                assert_eq!(r.start, prev_end);
                prev_end = r.end;
                total += r.end - r.start;
            }
            assert_eq!(total, 100);
            assert_eq!(prev_end, 100);
        }
    }

    #[test]
    fn worker_range_survives_summit_scale_work() {
        // 2^63 items over 1024 PEs: `work * worker` overflows u64 for every
        // worker past the first — the u128 intermediate must keep the split
        // exact, contiguous, and covering.
        let work = 1u64 << 63;
        let n_workers = 1024u64;
        let mut prev_end = 0u64;
        for w in 0..n_workers {
            let r = worker_range(work, n_workers, w);
            assert_eq!(r.start, prev_end, "worker {w} must start where {w}-1 ended");
            assert_eq!(r.end - r.start, work / n_workers);
            prev_end = r.end;
        }
        assert_eq!(prev_end, work);
        // Uneven split at scale: ranges still partition the work exactly.
        let work = (1u64 << 63) + 12_345;
        let mut total = 0u64;
        let mut prev_end = 0u64;
        for w in 0..7 {
            let r = worker_range(work, 7, w);
            assert_eq!(r.start, prev_end);
            total += r.end - r.start;
            prev_end = r.end;
        }
        assert_eq!(total, work);
    }

    #[test]
    fn x_flips_basis_state() {
        let (mut re, mut im) = zero_state(3);
        let v = LocalView::new(&mut re, &mut im);
        let a = args_1q(1, 8);
        k_x(&v, &a, 0..4);
        assert_eq!(re[0b010], 1.0);
        assert_eq!(re[0], 0.0);
    }

    #[test]
    fn h_then_h_is_identity() {
        let (mut re, mut im) = zero_state(2);
        {
            let v = LocalView::new(&mut re, &mut im);
            let a = args_1q(0, 4);
            k_h(&v, &a, 0..2);
            k_h(&v, &a, 0..2);
        }
        assert!((re[0] - 1.0).abs() < 1e-15);
        assert!(re[1].abs() < 1e-15);
    }

    #[test]
    fn z_only_negates_one_half() {
        let dim = 8usize;
        let mut re: Vec<f64> = (0..dim).map(|i| i as f64).collect();
        let mut im = vec![0.0; dim];
        {
            let v = LocalView::new(&mut re, &mut im);
            let a = args_1q(2, 8);
            k_z(&v, &a, 0..4);
        }
        for (i, &r) in re.iter().enumerate() {
            let expect = if i & 0b100 != 0 {
                -(i as f64)
            } else {
                i as f64
            };
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn cx_permutes_controlled_quarter() {
        // state |01> (q0=1, q1=0) --CX(0,1)--> |11>
        let (mut re, mut im) = zero_state(2);
        re[0] = 0.0;
        re[0b01] = 1.0;
        {
            let v = LocalView::new(&mut re, &mut im);
            let a = GateArgs {
                sorted: [0, 1, 0, 0, 0],
                n_sorted: 2,
                target: 1,
                aux: 0,
                ctrl_mask: 0b1,
                m: [Complex64::ZERO; 16],
                s0: 0.0,
                s1: 0.0,
                work: 1,
                fused: Vec::new(),
            };
            k_cx(&v, &a, 0..1);
        }
        assert_eq!(re[0b11], 1.0);
        assert_eq!(re[0b01], 0.0);
    }

    #[test]
    fn swap_exchanges() {
        let (mut re, mut im) = zero_state(2);
        re[0] = 0.0;
        re[0b01] = 1.0;
        {
            let v = LocalView::new(&mut re, &mut im);
            let a = GateArgs {
                sorted: [0, 1, 0, 0, 0],
                n_sorted: 2,
                target: 0,
                aux: 1,
                ctrl_mask: 0,
                m: [Complex64::ZERO; 16],
                s0: 0.0,
                s1: 0.0,
                work: 1,
                fused: Vec::new(),
            };
            k_swap(&v, &a, 0..1);
        }
        assert_eq!(re[0b10], 1.0);
        assert_eq!(re[0b01], 0.0);
    }

    #[test]
    fn collapse_keeps_and_rescales_one_branch() {
        // |+> on qubit 0 of 2 qubits.
        let mut re = vec![svsim_types::S2I, svsim_types::S2I, 0.0, 0.0];
        let mut im = vec![0.0; 4];
        {
            let v = LocalView::new(&mut re, &mut im);
            collapse_pairs(&v, 0, 1, (1.0f64 / 0.5).sqrt(), 0..2);
        }
        assert_eq!(re[0], 0.0);
        assert!((re[1] - 1.0).abs() < 1e-12);
    }
}
