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
use crate::view::{LocalView, Plane, StateView};
use std::ops::Range;
use svsim_types::bits::insert_zero_bits;
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

/// One amplitude as `(re, im)`.
type Amp = (f64, f64);

/// Shortest run worth borrowing: below it (targets 0-2, and the ragged ends
/// of a range) the per-item loop is as fast and asks the view nothing.
const MIN_RUN: u64 = 8;

/// Ask `v` for the `want` amplitudes starting at each index of `at` as plain
/// memory, every plane cut to the length all of them could lend. `None` when
/// the view lends nothing.
#[inline(always)]
fn borrow<V: StateView, const N: usize>(v: &V, at: [u64; N], want: u64) -> Option<[Plane<'_>; N]> {
    let mut planes: [Plane<'_>; N] = [(&[], &[]); N];
    let mut n = want as usize;
    for j in 0..N {
        planes[j] = v.run(at[j], want)?;
        // Every index of `at` has the same bits below the lowest involved
        // qubit, so every lender clips at the same place.
        debug_assert!(j == 0 || planes[j].0.len() == n);
        n = n.min(planes[j].0.len()).min(planes[j].1.len());
    }
    (n > 0).then(|| planes.map(|(re, im)| (&re[..n], &im[..n])))
}

/// The sweep every gate kernel is an instance of: each work item of `r`
/// reads the `N` amplitudes at `insert_zero_bits(item, sorted) | offs[j]`,
/// applies `f` to them and writes the `N` results back in place. `N` is 1
/// for the diagonal single-amplitude kernels, 2 for the pair kernels and 4
/// for the two-qubit ones; `f` is the gate's arithmetic and appears nowhere
/// else.
///
/// Item bits below the lowest involved qubit `qmin = sorted[0]` stay where
/// they are, so consecutive items up to the next multiple of `2^qmin` reach
/// consecutive amplitudes at every offset. The range is walked as such
/// **runs**: the view is asked for each run as plain memory
/// ([`StateView::run`]) and `f` is applied down the borrowed planes — bounds
/// checked once per run, no index arithmetic per amplitude. A view that
/// lends nothing, a run shorter than `MIN_RUN` and every kernel with
/// `qmin < 3` take the per-item `get`/`set` loop instead; both ways evaluate
/// the same `f` on the same words, so they agree bit for bit.
#[inline(always)]
fn sweep<V: StateView, const N: usize>(
    v: &V,
    sorted: &[u32],
    r: Range<u64>,
    offs: [u64; N],
    f: impl Fn([Amp; N]) -> [Amp; N],
) {
    let item = |at: [u64; N]| {
        let out = f(at.map(|i| v.get(i)));
        for j in 0..N {
            v.set(at[j], out[j].0, out[j].1);
        }
    };
    let run_len = 1u64 << sorted[0];
    if run_len < MIN_RUN {
        // With the involved positions filled with ones, a carry out of the
        // item bits below a position ripples through it into the item bits
        // above: adding one steps to the next item's base index.
        let holes = sorted.iter().fold(0u64, |m, &q| m | 1 << q);
        let mut base = insert_zero_bits(r.start, sorted);
        for _ in r {
            item(offs.map(|o| base | o));
            base = ((base | holes) + 1) & !holes;
        }
        return;
    }
    let mut i = r.start;
    while i < r.end {
        let want = (run_len - (i & (run_len - 1))).min(r.end - i);
        let base = insert_zero_bits(i, sorted);
        let at = offs.map(|o| base | o);
        let lent = if want < MIN_RUN {
            None
        } else {
            borrow(v, at, want)
        };
        match lent {
            Some(planes) => {
                let n = planes[0].0.len();
                for k in 0..n {
                    let out = f(planes.map(|(re, im)| (re[k].get(), im[k].get())));
                    for (&(re, im), (x, y)) in planes.iter().zip(out) {
                        re[k].set(x);
                        im[k].set(y);
                    }
                }
                i += n as u64;
            }
            None => {
                for k in 0..want {
                    item(at.map(|x| x + k));
                }
                i += want;
            }
        }
    }
}

/// The two amplitudes of a (controlled) one-qubit kernel: target clear and
/// set, controls set.
#[inline(always)]
fn target_pair(a: &GateArgs) -> [u64; 2] {
    [a.ctrl_mask, a.ctrl_mask | (1 << a.target)]
}

/// The four amplitudes of a two-qubit kernel, `target` as local bit 0.
#[inline(always)]
fn operand_quad(a: &GateArgs) -> [u64; 4] {
    let (p, q) = (1u64 << a.target, 1u64 << a.aux);
    [0, p, q, p | q]
}

/// `(c + i s) * amp`.
#[inline(always)]
fn phased(c: f64, s: f64, (re, im): Amp) -> Amp {
    (c * re - s * im, c * im + s * re)
}

/// Pauli-X and CNOT: swap the amplitude pair (CX permutes only the quarter
/// with the control set).
pub fn k_x<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    sweep(v, a.sorted(), r, target_pair(a), |[a0, a1]| [a1, a0]);
}

/// Pauli-Y: swap with `±i` phases.
pub fn k_y<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    // |0> component <- -i * amp1 ; |1> component <- i * amp0
    sweep(v, a.sorted(), r, target_pair(a), |[(r0, m0), (r1, m1)]| {
        [(m1, -r1), (-m0, r0)]
    });
}

/// Pauli-Z: negate the `|1>` half only (half the traffic of a generic 1q
/// gate — the paper's T-gate argument).
pub fn k_z<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    sweep(v, a.sorted(), r, [1 << a.target], |[(re, im)]| [(-re, -im)]);
}

/// Hadamard.
pub fn k_h<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    const S2I: f64 = svsim_types::S2I;
    sweep(v, a.sorted(), r, target_pair(a), |[(r0, m0), (r1, m1)]| {
        [
            (S2I * (r0 + r1), S2I * (m0 + m1)),
            (S2I * (r0 - r1), S2I * (m0 - m1)),
        ]
    });
}

/// Phase gate `diag(1, s0 + i s1)`: S, SDG, T, TDG, U1. Touches only the
/// `|1>` half.
pub fn k_phase<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    sweep(v, a.sorted(), r, [1 << a.target], |[x]| {
        [phased(a.s0, a.s1, x)]
    });
}

/// Diagonal controlled phase on the all-ones subspace of the involved
/// qubits: CZ, CU1 (and exact multi-controlled phases). Touches
/// `2^{n-k}` amplitudes only.
pub fn k_cphase<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    sweep(v, a.sorted(), r, [a.ctrl_mask], |[x]| {
        [phased(a.s0, a.s1, x)]
    });
}

/// `RZ = diag(e^{-i th/2}, e^{i th/2})` with `s0 + i s1 = e^{i th/2}`, and
/// controlled-RZ: both target halves rotate (under the control).
pub fn k_rz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1);
    sweep(v, a.sorted(), r, target_pair(a), |[(r0, m0), a1]| {
        [(c * r0 + s * m0, c * m0 - s * r0), phased(c, s, a1)] // conj(ph) * amp0, ph * amp1
    });
}

/// Dense 2×2 gate, plain (`U3`, `U2`, `RX`, `RY`, and the non-specialized
/// fallback) or (multi-)controlled (CY, CH, CRX, CRY, CU3, CCX, C3X, C4X,
/// C3SQRTX).
pub fn k_oneq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let m = &a.m;
    sweep(v, a.sorted(), r, target_pair(a), |[(r0, m0), (r1, m1)]| {
        [
            (
                m[0].re * r0 - m[0].im * m0 + m[1].re * r1 - m[1].im * m1,
                m[0].re * m0 + m[0].im * r0 + m[1].re * m1 + m[1].im * r1,
            ),
            (
                m[2].re * r0 - m[2].im * m0 + m[3].re * r1 - m[3].im * m1,
                m[2].re * m0 + m[2].im * r0 + m[3].re * m1 + m[3].im * r1,
            ),
        ]
    });
}

/// SWAP and Fredkin: exchange the `|01>` and `|10>` amplitudes (a quarter of
/// the vector; under the control, an eighth).
pub fn k_swap<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let offs = [a.target, a.aux].map(|q| a.ctrl_mask | (1 << q));
    sweep(v, a.sorted(), r, offs, |[a0, a1]| [a1, a0]);
}

/// `RZZ`: pure diagonal two-qubit rotation — phases by bit parity, no
/// mixing, no data exchange between amplitudes.
pub fn k_rzz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1); // e^{i th/2} = c + i s
    sweep(v, a.sorted(), r, operand_quad(a), |amps| {
        // Even parity (00, 11): e^{-i th/2}; odd parity (01, 10): e^{+i th/2}.
        let signs = [-1.0, 1.0, 1.0, -1.0];
        std::array::from_fn(|k| phased(c, s * signs[k], amps[k]))
    });
}

/// Generic dense 4×4 two-qubit gate (`RXX`, and the non-specialized CX
/// fallback). Local bit 0 of the matrix is `target` (first operand), local
/// bit 1 is `aux`.
pub fn k_twoq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let m = &a.m;
    sweep(v, a.sorted(), r, operand_quad(a), |amps| {
        std::array::from_fn(|row| {
            let (mut ar, mut ai) = (0.0, 0.0);
            for (col, &(re, im)) in amps.iter().enumerate() {
                let c = m[row * 4 + col];
                ar += c.re * re - c.im * im;
                ai += c.re * im + c.im * re;
            }
            (ar, ai)
        })
    });
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
    let (keep, kill) = if outcome == 1 {
        (1 << q, 0)
    } else {
        (0, 1 << q)
    };
    sweep(v, &[q], r, [keep, kill], |[(re, im), _]| {
        [(re * inv_sqrt_p, im * inv_sqrt_p), (0.0, 0.0)]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

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
            k_x(&v, &a, 0..1);
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

    /// A [`LocalView`] that keeps its memory to itself: every kernel takes
    /// the per-item loop on it.
    struct NoLend<'a>(LocalView<'a>);

    impl StateView for NoLend<'_> {
        fn dim(&self) -> u64 {
            self.0.dim()
        }
        fn get(&self, idx: u64) -> (f64, f64) {
            self.0.get(idx)
        }
        fn set(&self, idx: u64, re: f64, im: f64) {
            self.0.set(idx, re, im);
        }
    }

    /// A [`LocalView`] that adds up how many amplitudes it lent.
    struct Lending<'a>(LocalView<'a>, Cell<u64>);

    impl StateView for Lending<'_> {
        fn dim(&self) -> u64 {
            self.0.dim()
        }
        fn get(&self, idx: u64) -> (f64, f64) {
            self.0.get(idx)
        }
        fn set(&self, idx: u64, re: f64, im: f64) {
            self.0.set(idx, re, im);
        }
        fn run(&self, start: u64, max: u64) -> Option<Plane<'_>> {
            let lent = self.0.run(start, max)?;
            self.1.set(self.1.get() + lent.0.len() as u64);
            Some(lent)
        }
    }

    /// Every kernel, its lowest qubit at `qmin` and the others above it in
    /// both operand orders (control below the target and above it), plus a
    /// fused window of each width anchored there. Gates that do not fit
    /// below `n` are left out.
    fn kernels_anchored_at(qmin: u32, n: u32) -> Vec<CompiledGate> {
        use svsim_ir::{Gate, GateKind::*};
        type Spec = (svsim_ir::GateKind, Vec<u32>, &'static [f64]);
        let up = |k: u32| qmin + k;
        let (a, b, c) = (qmin, up(1), up(2));
        let far = n - 1;
        let gates: Vec<Spec> = vec![
            (X, vec![a], &[]),
            (Y, vec![a], &[]),
            (Z, vec![a], &[]),
            (H, vec![a], &[]),
            (T, vec![a], &[]),
            (RZ, vec![a], &[0.3]),
            (U3, vec![a], &[0.1, 0.2, 0.3]),
            (CX, vec![a, far], &[]),
            (CX, vec![far, a], &[]),
            (CU1, vec![a, b], &[0.37]),
            (CRZ, vec![a, far], &[0.7]),
            (CRZ, vec![b, a], &[0.7]),
            (CRY, vec![far, a], &[0.9]),
            (CCX, vec![a, far, b], &[]),
            (CCX, vec![c, b, a], &[]),
            (C4X, vec![up(4), a, up(3), b, c], &[]),
            (SWAP, vec![a, far], &[]),
            (CSWAP, vec![b, a, c], &[]),
            (CSWAP, vec![a, c, b], &[]),
            (RZZ, vec![a, far], &[0.4]),
            (RXX, vec![b, a], &[0.9]),
        ];
        let compile = |gates: &[Spec]| {
            let mut queue = Vec::new();
            for (kind, qubits, params) in gates {
                let distinct = (1..qubits.len()).all(|i| !qubits[..i].contains(&qubits[i]));
                if distinct && qubits.iter().all(|&q| q < n) {
                    let gate = Gate::new(*kind, qubits, params).unwrap();
                    crate::compile::compile_gate(&gate, n, true, &mut queue);
                }
            }
            queue
        };
        let mut queue = compile(&gates);
        let windows: [&[Spec]; 3] = [
            &[(H, vec![a], &[]), (T, vec![a], &[]), (RY, vec![a], &[0.2])],
            &[
                (H, vec![b], &[]),
                (CX, vec![b, a], &[]),
                (RZ, vec![a], &[0.3]),
            ],
            &[
                (H, vec![a], &[]),
                (CX, vec![a, b], &[]),
                (RZ, vec![b], &[0.37]),
                (CX, vec![b, c], &[]),
                (H, vec![c], &[]),
            ],
        ];
        for window in windows {
            let plain = compile(window);
            if plain.len() == window.len() {
                queue.extend(crate::fuse::fuse_compiled(&plain, n, 3).0);
            }
        }
        queue
    }

    /// The run path against the per-item path: any kernel over any share of
    /// its work items leaves the same bits whether the view lends its memory
    /// or not — and where runs exist, the lending view really was swept as
    /// runs.
    #[test]
    fn run_path_is_bit_identical_to_the_per_item_path() {
        use crate::compile::KernelId;
        let n = 9u32;
        let dim = 1usize << n;
        let mut rng = svsim_types::SvRng::seed_from_u64(21);
        let mut amps = || -> Vec<f64> {
            let mut v: Vec<f64> = (0..dim).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            (v[1], v[8], v[dim - 1]) = (-0.0, 5e-324, -f64::MIN_POSITIVE / 4.0);
            v
        };
        let (re0, im0) = (amps(), amps());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seen = std::collections::HashSet::new();
        for qmin in [0, 1, 2, 3, 5, n - 2] {
            for cg in kernels_anchored_at(qmin, n) {
                assert_eq!(cg.args.sorted()[0], qmin);
                seen.insert(cg.id);
                let work = cg.args.work;
                let mut splits: Vec<Vec<Range<u64>>> = [1, 2, 3, 4, 8]
                    .iter()
                    .map(|&k| (0..k).map(|w| worker_range(work, k, w)).collect())
                    .collect();
                if work > 12 {
                    // Starts and ends off every run boundary.
                    splits.push(vec![3..7, 7..work - 5]);
                    splits.push(vec![work / 2 - 1..work / 2 + 2, 0..1]);
                }
                for split in splits {
                    let (mut re_a, mut im_a) = (re0.clone(), im0.clone());
                    let (mut re_b, mut im_b) = (re0.clone(), im0.clone());
                    let lending = Lending(LocalView::new(&mut re_a, &mut im_a), Cell::new(0));
                    let silent = NoLend(LocalView::new(&mut re_b, &mut im_b));
                    for r in &split {
                        crate::dispatch::resolve::<Lending>(cg.id)(&lending, &cg.args, r.clone());
                        crate::dispatch::resolve::<NoLend>(cg.id)(&silent, &cg.args, r.clone());
                    }
                    let fused = !cg.args.fused.is_empty();
                    if qmin >= 3 && !fused && split.len() == 1 && split[0] == (0..work) {
                        let touched = crate::traffic::kernel_access_patterns(&cg).0.len() as u64;
                        assert_eq!(lending.1.get(), work * touched, "{:?} lent in runs", cg.id);
                    }
                    if qmin < 3 || fused {
                        assert_eq!(lending.1.get(), 0, "{:?} has no runs to lend", cg.id);
                    }
                    let what = format!("{:?} at qmin {qmin} over {split:?}", cg.id);
                    assert_eq!(bits(&re_a), bits(&re_b), "re: {what}");
                    assert_eq!(bits(&im_a), bits(&im_b), "im: {what}");
                }
            }
        }
        for (qmin, outcome) in [(0, 1), (3, 0), (5, 1), (n - 1, 0)] {
            let (mut re_a, mut im_a) = (re0.clone(), im0.clone());
            let (mut re_b, mut im_b) = (re0.clone(), im0.clone());
            let lending = LocalView::new(&mut re_a, &mut im_a);
            let silent = NoLend(LocalView::new(&mut re_b, &mut im_b));
            for r in [0..77, 77..dim as u64 / 2] {
                collapse_pairs(&lending, qmin, outcome, 1.25, r.clone());
                collapse_pairs(&silent, qmin, outcome, 1.25, r);
            }
            assert_eq!(bits(&re_a), bits(&re_b), "collapse of {qmin} to {outcome}");
            assert_eq!(bits(&im_a), bits(&im_b), "collapse of {qmin} to {outcome}");
        }
        assert_eq!(seen.len(), 18, "every KernelId swept: {seen:?}");
        assert!(seen.contains(&KernelId::Fused3) && seen.contains(&KernelId::CSwap));
    }
}
