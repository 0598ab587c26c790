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
//! A kernel is a **body** — the arithmetic on the 1, 2 or 4 amplitudes of one
//! work item — swept over a **footprint**: which amplitudes those are, the
//! OR-offsets [`GateArgs::offs`] that [`crate::compile`] writes beside the
//! kernel's id. Gates that differ only in where their amplitudes sit share a
//! body: X, CNOT, SWAP and Fredkin all exchange two words (`k_x`); a phase
//! gate and a controlled phase multiply one (`k_phase`); a control is bits
//! set in every offset.
//!
//! Every kernel processes a caller-supplied sub-range of its *work-item
//! space*, so the same code serves the single device (full range), the
//! scale-up executor (one chunk per device thread) and the scale-out SPMD
//! PEs (one chunk per PE), exactly like the grid-strided loops of
//! Listings 3-5.
//!
//! One driver, `sweep`, walks a kernel's share three ways with the same
//! gate closure: contiguous **runs** of memory lent by the view
//! ([`StateView::run`]) where the lowest involved qubit is 3 or above; for a
//! pair kernel on one qubit below that, whole **stretches** up to the next
//! involved qubit walked in chunks of constant stride (`pair_chunks`); and
//! item by item through `get` / `set` for everything else and for views that
//! lend nothing.
//!
//! The paper's CPU kernels are written for the vector unit (Listing 2,
//! AVX-512). Here each kernel's one body is *compiled* for it: `kernel!`
//! stamps the public `k_*` out of the body at the build's baseline and, on
//! x86-64, under AVX2 and AVX-512F beside it, and the `k_*` enters the widest
//! one the CPU reports ([`isa`] names it). There is no build flag and no
//! switch, and the levels agree bit for bit: wider registers, the same IEEE
//! operations in the same order (no FMA contraction).

use crate::compile::{CompiledGate, KernelId};
use crate::dispatch::KernelFn;
use crate::view::{LocalView, Plane, StateView, LEND_ALIGN};
use std::ops::Range;
use svsim_types::bits::insert_zero_bits;
use svsim_types::Complex64;

/// Uniform argument block for every kernel (the analog of the paper's
/// fixed-format `Gate` object that makes device function pointers possible:
/// one parameter layout shared by all gate functions): where the kernel works
/// (`sorted`, `offs`, `work`) and what it applies there (`m`, `s0`, `s1`,
/// `fused`).
#[derive(Debug, Clone, PartialEq)]
pub struct GateArgs {
    /// Ascending positions of all involved qubits (for base-index
    /// enumeration via zero-bit insertion).
    pub sorted: [u32; 5],
    /// Number of valid entries in `sorted`.
    pub n_sorted: u8,
    /// The **footprint**: work item `i` reads and writes exactly the
    /// amplitudes `insert_zero_bits(i, sorted) | offs[j]`, in the order the
    /// kernel's closure takes them (target clear then set under the controls;
    /// the two words a swap exchanges; a two-qubit matrix's four with the
    /// first operand as local bit 0; a fused window's `2^k` in local order).
    /// Bits only at `sorted` positions, no two alike. Written where the block
    /// is built ([`crate::compile`], [`crate::fuse`]) and read by everything
    /// that asks which amplitudes the kernel touches: its body, the traffic
    /// model, the analyzer, the fuser, the executor's counters.
    pub offs: [u64; 8],
    /// Number of valid entries in `offs`.
    pub n_offs: u8,
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
    /// constituent kernels over a view of the window, and scatter
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

    /// The footprint: the OR-offsets one work item touches.
    #[inline]
    #[must_use]
    pub fn offs(&self) -> &[u64] {
        &self.offs[..self.n_offs as usize]
    }

    /// The footprint as the `N` offsets a body of that arity sweeps.
    #[inline(always)]
    fn footprint<const N: usize>(&self) -> [u64; N] {
        debug_assert_eq!(self.n_offs as usize, N, "a body of another arity");
        let mut offs = [0; N];
        offs.copy_from_slice(&self.offs[..N]);
        offs
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

/// Shortest run worth borrowing: below it (the ragged ends of a range) the
/// per-item loop is as fast. Kernels whose lowest qubit is below
/// `log2(MIN_RUN)` have no runs; the pair kernels among them borrow the
/// whole stretch up to their next involved qubit instead ([`pair_chunks`]).
const MIN_RUN: u64 = 8;

// The longest chunk, `2S` for target `log2(MIN_RUN) - 1`, is never cut by a
// lender ([`StateView::run`]).
const _: () = assert!(LEND_ALIGN.is_multiple_of(MIN_RUN));

/// The instruction-set levels the kernel bodies are compiled at, narrowest
/// first: the build's baseline, then the arms of [`kernel!`] on x86-64.
const LEVELS: [&str; 3] = ["baseline", "avx2", "avx512f"];

#[cfg(test)]
thread_local! {
    /// The widest level of [`LEVELS`] kernels on this thread may enter: the
    /// tests set the bodies against each other by lowering it.
    static CAP: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// The widest level of [`LEVELS`] kernels may enter: the widest there is,
/// outside this crate's own tests.
#[inline(always)]
fn cap() -> usize {
    #[cfg(test)]
    return CAP.get();
    #[cfg(not(test))]
    usize::MAX
}

/// The level every kernel runs at on this CPU: `"baseline"`, or the widest
/// instruction set the kernel bodies were also compiled for that the CPU
/// reports (`"avx2"`, `"avx512f"`: the checks of `kernel!`, in its order).
#[must_use]
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if cap() >= 2 && std::arch::is_x86_feature_detected!("avx512f") {
            return LEVELS[2];
        }
        if cap() >= 1 && std::arch::is_x86_feature_detected!("avx2") {
            return LEVELS[1];
        }
    }
    LEVELS[0]
}

/// One wider level of [`kernel!`]: `$body` compiled once more as `$wide`
/// under `#[target_feature(enable = $feature)]`, entered — and returned from
/// — when the CPU reports the feature. The one place a CPU feature is checked
/// and the one `unsafe` of the kernel layer.
#[cfg(target_arch = "x86_64")]
macro_rules! enter {
    ($level:literal, $feature:tt, $wide:ident = $body:ident($v:ident, $a:ident, $r:ident)) => {
        #[target_feature(enable = $feature)]
        fn $wide<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
            $body(v, a, r);
        }
        if cap() >= $level && std::arch::is_x86_feature_detected!($feature) {
            // SAFETY: the feature was detected on the line above.
            return unsafe { $wide($v, $a, $r) };
        }
    };
}
#[cfg(not(target_arch = "x86_64"))]
macro_rules! enter {
    ($($level:tt)*) => {};
}

/// Stamp the public kernel `$name` out of its one body `$body` (an
/// `#[inline(always)]` function of `(v, a, r)` that holds the gate's
/// arithmetic): the body compiled at the build's baseline and, on x86-64,
/// once more under each wider level of [`LEVELS`], entered widest first by
/// what the CPU reports. Each compiled body — the baseline one too — is a
/// function of its own whose direct parameters are `(v, a, r)`, and
/// everything below it ([`sweep`], the gate closure, [`items`],
/// [`pair_chunks`]) is forced inline, so a level's loops are compiled whole
/// under that level's features and no body's code quality depends on what
/// the inliner makes of another's. Both ways of putting the boundary lower
/// were measured and lose: inside `sweep` with the closure passed by value
/// the closure is outlined at the baseline (`k_oneq` 1.9 -> 5.4 ns/item);
/// at this function but with the per-item step a closure called from two
/// places, the
/// wide bodies vectorized in one binary and not in another and the baseline
/// bodies lost their packed multiplies under thin LTO.
macro_rules! kernel {
    ($(#[$doc:meta])* $name:ident = $body:ident) => {
        $(#[$doc])*
        #[allow(unsafe_code)]
        pub fn $name<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
            #[inline(never)]
            fn baseline<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
                $body(v, a, r);
            }
            enter!(2, "avx512f", avx512f = $body(v, a, r));
            enter!(1, "avx2", avx2 = $body(v, a, r));
            baseline(v, a, r);
        }
    };
}

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
    if n == 0 {
        return None;
    }
    for plane in &mut planes {
        *plane = (&plane.0[..n], &plane.1[..n]);
    }
    Some(planes)
}

/// The items of `r` through `get` / `set`, one by one.
#[inline(always)]
fn items<V: StateView, const N: usize>(
    v: &V,
    sorted: &[u32],
    r: Range<u64>,
    offs: [u64; N],
    f: &impl Fn([Amp; N]) -> [Amp; N],
) {
    // With the involved positions filled with ones, a carry out of the
    // item bits below a position ripples through it into the item bits
    // above: adding one steps to the next item's base index.
    let mut holes = 0u64;
    for &q in sorted {
        holes |= 1 << q;
    }
    let mut base = insert_zero_bits(r.start, sorted);
    for _ in r {
        let mut amps = [(0.0, 0.0); N];
        for j in 0..N {
            amps[j] = v.get(base | offs[j]);
        }
        let out = f(amps);
        for j in 0..N {
            v.set(base | offs[j], out[j].0, out[j].1);
        }
        base = ((base | holes) + 1) & !holes;
    }
}

/// One borrowed stretch of a pair kernel on target `log2(s)`: amplitude `k`
/// of every `2s` paired with amplitude `k + s`.
#[inline(always)]
fn pairs<const N: usize>((re, im): Plane<'_>, s: usize, f: &impl Fn([Amp; N]) -> [Amp; N]) {
    for (re, im) in re.chunks_exact(2 * s).zip(im.chunks_exact(2 * s)) {
        // Every load of a chunk before its first store, and the stores one
        // plane at a time: the planes are `Cell`s, which may alias as far
        // as the compiler knows, and it will not reorder around that.
        let mut out = [[(0.0, 0.0); N]; MIN_RUN as usize / 2];
        for k in 0..s {
            let mut amps = [(0.0, 0.0); N];
            amps[0] = (re[k].get(), im[k].get());
            amps[N - 1] = (re[k + s].get(), im[k + s].get());
            out[k] = f(amps);
        }
        for k in 0..s {
            re[k].set(out[k][0].0);
        }
        for k in 0..s {
            re[k + s].set(out[k][N - 1].0);
        }
        for k in 0..s {
            im[k].set(out[k][0].1);
        }
        for k in 0..s {
            im[k + s].set(out[k][N - 1].1);
        }
    }
}

/// The chunk walk of the pair kernels whose one low bit has no runs to lend:
/// `offs` are the target clear and set, the target `sorted[0]` is below
/// `log2(MIN_RUN)` and the next involved qubit leaves at least `MIN_RUN`
/// items below it (H / X / Y / RZ / dense 2×2 on targets 0-2, plain or under
/// high controls). Up to that next qubit the items' pairs fill one contiguous
/// **stretch** of memory, amplitude `k` of every `2S` (`S = 2^target`) paired
/// with amplitude `k + S`: borrow each stretch whole and walk it in chunks of
/// `2S` with `S` a literal, a constant interleave group for the loop
/// vectorizer. Sweeps the leading items of `r` that way and returns the first
/// item left over: `r.start` for any other pattern and for a view that lends
/// nothing, otherwise the start of a tail shorter than `MIN_RUN`.
///
/// `r.start` must be a multiple of `S`, or `r` empty.
#[inline(always)]
fn pair_chunks<V: StateView, const N: usize>(
    v: &V,
    sorted: &[u32],
    r: Range<u64>,
    offs: [u64; N],
    f: &impl Fn([Amp; N]) -> [Amp; N],
) -> u64 {
    let s = 1u64 << sorted[0];
    // Items below the next involved qubit: a power of two.
    let stretch = match sorted.get(1) {
        Some(&q) => 1 << (q - 1),
        None => u64::MAX,
    };
    if N != 2 || offs[0] & s != 0 || offs[N - 1] != offs[0] | s || stretch < MIN_RUN {
        return r.start;
    }
    let mut i = r.start;
    while i < r.end {
        let want = (stretch - (i & stretch.wrapping_sub(1))).min(r.end - i) & !(s - 1);
        if want < MIN_RUN {
            break;
        }
        debug_assert_eq!(i & (s - 1), 0);
        let Some((re, im)) = v.run(insert_zero_bits(i, sorted) | offs[0], 2 * want) else {
            break;
        };
        // A lender clips where its memory ends, at a multiple of
        // `LEND_ALIGN`: every amplitude it lent, and credited, is one of a
        // whole chunk and is swept here.
        let n = re.len().min(im.len());
        assert!(
            n > 0 && n as u64 & (2 * s - 1) == 0,
            "stretch clipped inside a chunk"
        );
        let plane = (&re[..n], &im[..n]);
        match s {
            1 => pairs(plane, 1, f),
            2 => pairs(plane, 2, f),
            _ => pairs(plane, 4, f),
        }
        i += n as u64 / 2;
    }
    i
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
/// checked once per run, no index arithmetic per amplitude. With `qmin < 3`
/// there are no runs: a pair kernel on that one low bit walks borrowed
/// stretches in chunks ([`pair_chunks`]), everything else there, a view that
/// lends nothing and a run shorter than `MIN_RUN` take the per-item
/// `get`/`set` loop. All three evaluate the same `f` on the same words, so
/// they agree bit for bit.
#[inline(always)]
fn sweep<V: StateView, const N: usize>(
    v: &V,
    sorted: &[u32],
    r: Range<u64>,
    offs: [u64; N],
    f: impl Fn([Amp; N]) -> [Amp; N],
) {
    let run_len = 1u64 << sorted[0];
    if run_len < MIN_RUN {
        let head = r.end.min((r.start + run_len - 1) & !(run_len - 1));
        let tail = pair_chunks(v, sorted, head..r.end, offs, &f);
        let mut rest = r;
        if tail > head {
            // Chunks were swept: the ragged head before them is left, and
            // the ragged tail after them.
            items(v, sorted, rest.start..head, offs, &f);
            rest.start = tail;
        }
        items(v, sorted, rest, offs, &f);
        return;
    }
    let mut i = r.start;
    while i < r.end {
        let want = (run_len - (i & (run_len - 1))).min(r.end - i);
        let lent = if want < MIN_RUN {
            None
        } else {
            let base = insert_zero_bits(i, sorted);
            let mut at = offs;
            for x in &mut at {
                *x |= base;
            }
            borrow(v, at, want)
        };
        let Some(planes) = lent else {
            items(v, sorted, i..i + want, offs, &f);
            i += want;
            continue;
        };
        let n = planes[0].0.len();
        for k in 0..n {
            let mut amps = [(0.0, 0.0); N];
            for j in 0..N {
                amps[j] = (planes[j].0[k].get(), planes[j].1[k].get());
            }
            let out = f(amps);
            for j in 0..N {
                planes[j].0[k].set(out[j].0);
                planes[j].1[k].set(out[j].1);
            }
        }
        i += n as u64;
    }
}

/// `(c + i s) * amp`.
#[inline(always)]
fn phased(c: f64, s: f64, (re, im): Amp) -> Amp {
    (c * re - s * im, c * im + s * re)
}

#[inline(always)]
fn x<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[a0, a1]| [a1, a0],
    );
}
kernel! {
    /// Exchange the footprint's two amplitudes. Pauli-X: target clear and set;
    /// CNOT: the same under the control (a quarter of the vector); SWAP: `|01>`
    /// and `|10>` of the operands (a quarter; Fredkin, an eighth).
    k_x = x
}

#[inline(always)]
fn y<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    // |0> component <- -i * amp1 ; |1> component <- i * amp0
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(r0, m0), (r1, m1)]| [(m1, -r1), (-m0, r0)],
    );
}
kernel! {
    /// Pauli-Y: swap with `±i` phases.
    k_y = y
}

#[inline(always)]
fn z<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(re, im)]| [(-re, -im)],
    );
}
kernel! {
    /// Pauli-Z: negate the `|1>` half only (half the traffic of a generic 1q
    /// gate — the paper's T-gate argument). Not `k_phase` at `-1 + 0i`: that
    /// multiplies through, and `-re - 0.0 * im` is not `-re` in the sign of a
    /// zero.
    k_z = z
}

#[inline(always)]
fn h<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    const S2I: f64 = svsim_types::S2I;
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(r0, m0), (r1, m1)]| {
            [
                (S2I * (r0 + r1), S2I * (m0 + m1)),
                (S2I * (r0 - r1), S2I * (m0 - m1)),
            ]
        },
    );
}
kernel! {
    /// Hadamard.
    k_h = h
}

#[inline(always)]
fn phase<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1);
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[x]| [phased(c, s, x)],
    );
}
kernel! {
    /// Multiply the footprint's one amplitude by `s0 + i s1`. Phase gate
    /// `diag(1, s0 + i s1)` (S, SDG, T, TDG, U1): the `|1>` half only; diagonal
    /// controlled phase (CZ, CU1): the all-ones subspace of the involved
    /// qubits, `2^{n-k}` amplitudes.
    k_phase = phase
}

#[inline(always)]
fn rz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1);
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(r0, m0), a1]| {
            [(c * r0 + s * m0, c * m0 - s * r0), phased(c, s, a1)] // conj(ph) * amp0, ph * amp1
        },
    );
}
kernel! {
    /// `RZ = diag(e^{-i th/2}, e^{i th/2})` with `s0 + i s1 = e^{i th/2}`, and
    /// controlled-RZ: both target halves rotate (under the control).
    k_rz = rz
}

#[inline(always)]
fn oneq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let m = &a.m;
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(r0, m0), (r1, m1)]| {
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
        },
    );
}
kernel! {
    /// Dense 2×2 gate, plain (`U3`, `U2`, `RX`, `RY`, and the non-specialized
    /// fallback) or (multi-)controlled (CY, CH, CRX, CRY, CU3, CCX, C3X, C4X,
    /// C3SQRTX).
    k_oneq = oneq
}

#[inline(always)]
fn rzz<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1); // e^{i th/2} = c + i s
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint::<4>(),
        #[inline(always)]
        |amps| {
            // Even parity (00, 11): e^{-i th/2}; odd parity (01, 10): e^{+i th/2}.
            let signs = [-1.0, 1.0, 1.0, -1.0];
            let mut out = amps;
            for k in 0..4 {
                out[k] = phased(c, s * signs[k], amps[k]);
            }
            out
        },
    );
}
kernel! {
    /// `RZZ`: pure diagonal two-qubit rotation — phases by bit parity, no
    /// mixing, no data exchange between amplitudes.
    k_rzz = rzz
}

#[inline(always)]
fn twoq<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let m = &a.m;
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint::<4>(),
        #[inline(always)]
        |amps| {
            let mut out = amps;
            for (row, out) in out.iter_mut().enumerate() {
                let (mut ar, mut ai) = (0.0, 0.0);
                for (col, &(re, im)) in amps.iter().enumerate() {
                    let c = m[row * 4 + col];
                    ar += c.re * re - c.im * im;
                    ai += c.re * im + c.im * re;
                }
                *out = (ar, ai);
            }
            out
        },
    );
}
kernel! {
    /// Generic dense 4×4 two-qubit gate (`RXX`, and the non-specialized CX
    /// fallback). Local bit 0 of the matrix is the gate's first operand, local
    /// bit 1 its second: the order of the footprint.
    k_twoq = twoq
}

/// The baseline body of kernel `id`, for the fused replay: a micro-op on a
/// window of 2-8 amplitudes has no loop for a wider body to widen, and the
/// per-call feature check of the public kernel measured 25 % of a fused
/// sweep (`kernel.fused3.*` 7.1 -> 8.9 ns/amp).
fn body<V: StateView>(id: KernelId) -> KernelFn<V> {
    match id {
        KernelId::X => x::<V>,
        KernelId::Y => y::<V>,
        KernelId::Z => z::<V>,
        KernelId::H => h::<V>,
        KernelId::Phase => phase::<V>,
        KernelId::Rz => rz::<V>,
        KernelId::OneQ => oneq::<V>,
        KernelId::Rzz => rzz::<V>,
        KernelId::TwoQ => twoq::<V>,
        KernelId::Fused1 => k_fused1::<V>,
        KernelId::Fused2 => k_fused2::<V>,
        KernelId::Fused3 => k_fused3::<V>,
    }
}

/// The scratch window of a fused kernel: a [`LocalView`] of 2-8 amplitudes
/// that lends nothing, so that its micro-ops are compiled as the per-item
/// loop alone (with the run and chunk walks compiled in beside it, unused,
/// a fused sweep measured 7.1 -> 9.7 ns/amp).
struct Window<'a>(LocalView<'a>);

impl StateView for Window<'_> {
    #[inline]
    fn dim(&self) -> u64 {
        self.0.dim()
    }

    #[inline]
    fn get(&self, idx: u64) -> (f64, f64) {
        self.0.get(idx)
    }

    #[inline]
    fn set(&self, idx: u64, re: f64, im: f64) {
        self.0.set(idx, re, im);
    }
}

/// Shared body of the fused window kernels: one pass over the `2^{n-k}`
/// windows of the `k` qubits in `sorted`. Each window's `2^k` amplitudes
/// (the footprint) are gathered into stack buffers, the constituent
/// micro-ops in `a.fused` (already rewritten to window-local coordinates)
/// are replayed through their own kernels' baseline bodies over a
/// [`Window`], and the result is scattered back. Because every constituent runs its exact
/// per-amplitude arithmetic on the same values it would have seen running
/// gate by gate (windows are disjoint, so there is no cross-window
/// dataflow), the fused sweep is **bit-identical** to unfused execution —
/// while touching each amplitude once instead of once per gate.
#[inline]
fn k_fused_body<V: StateView, const DIM: usize>(v: &V, a: &GateArgs, r: Range<u64>) {
    let sorted = a.sorted();
    // Local index j of the window is the amplitude at footprint offset j.
    let offs: [u64; DIM] = a.footprint();
    // One scratch window reused for every iteration, wrapped in a single
    // view whose `Cell` planes let the gather/replay/scatter all go through
    // `&self` access. Resolving each micro-op's kernel once per sweep (not
    // once per window) keeps the dispatch lookup off the 2^(n-k)-iteration
    // hot loop.
    let mut re = [0.0f64; DIM];
    let mut im = [0.0f64; DIM];
    let lv = Window(LocalView::new(&mut re, &mut im));
    type Micro<'q> = (KernelFn<Window<'q>>, &'q GateArgs);
    let micros: Vec<Micro<'_>> = a
        .fused
        .iter()
        .map(|cg| (body::<Window>(cg.id), &cg.args))
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
    sweep(
        v,
        &[q],
        r,
        [keep, kill],
        #[inline(always)]
        |[(re, im), _]| [(re * inv_sqrt_p, im * inv_sqrt_p), (0.0, 0.0)],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{accesses, compiled_one, kernels_anchored_at};
    use std::cell::Cell;
    use svsim_ir::GateKind;

    fn zero_state(n: u32) -> (Vec<f64>, Vec<f64>) {
        let dim = 1usize << n;
        let mut re = vec![0.0; dim];
        let im = vec![0.0; dim];
        re[0] = 1.0;
        (re, im)
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
        let a = compiled_one(GateKind::X, &[1], &[], 3).args;
        k_x(&v, &a, 0..4);
        assert_eq!(re[0b010], 1.0);
        assert_eq!(re[0], 0.0);
    }

    #[test]
    fn h_then_h_is_identity() {
        let (mut re, mut im) = zero_state(2);
        {
            let v = LocalView::new(&mut re, &mut im);
            let a = compiled_one(GateKind::H, &[0], &[], 2).args;
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
            let a = compiled_one(GateKind::Z, &[2], &[], 3).args;
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
            let a = compiled_one(GateKind::CX, &[0, 1], &[], 2).args;
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
            let a = compiled_one(GateKind::SWAP, &[0, 1], &[], 2).args;
            k_x(&v, &a, 0..1);
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

    /// The levels of [`LEVELS`] this CPU has, with a line for each it lacks.
    fn levels_here() -> Vec<usize> {
        let here = |&level: &usize| {
            CAP.set(level);
            let have = isa() == LEVELS[level];
            CAP.set(usize::MAX);
            if !have {
                eprintln!(
                    "skip: this CPU lacks {}; its kernel bodies are not compared",
                    LEVELS[level]
                );
            }
            have
        };
        (0..LEVELS.len()).filter(here).collect()
    }

    /// The plain-memory paths against the per-item path, at every level the
    /// kernels are compiled at: any kernel over any share of its work items
    /// leaves the same bits whether the view lends its memory (runs above
    /// `qmin` 3, chunks of a stretch for a pair kernel on one low bit) or
    /// not, in the baseline body and in every wider one — and where there is
    /// memory to lend, the lending view really was swept through it.
    #[test]
    fn run_path_is_bit_identical_to_the_per_item_path() {
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
        let levels = levels_here();
        assert_eq!(levels[0], 0, "the baseline body runs everywhere");
        let mut seen = std::collections::HashSet::new();
        let mut chunked = 0;
        for qmin in [0, 1, 2, 3, 5, n - 2] {
            for cg in kernels_anchored_at(qmin, n) {
                assert_eq!(cg.args.sorted()[0], qmin);
                seen.insert(cg.id);
                let work = cg.args.work;
                let fused = !cg.args.fused.is_empty();
                let touched = cg.args.offs();
                // A pair on the one low bit, with a stretch worth borrowing
                // below the next involved qubit.
                let low_pair = touched.len() == 2
                    && touched[1] == touched[0] | 1 << qmin
                    && touched[0] & 1 << qmin == 0
                    && cg.args.sorted().get(1).is_none_or(|&q| q > 3);
                let mut splits: Vec<Vec<Range<u64>>> = [1, 2, 3, 4, 8]
                    .iter()
                    .map(|&k| (0..k).map(|w| worker_range(work, k, w)).collect())
                    .collect();
                if work > 12 {
                    // Starts and ends off every run, chunk and stretch.
                    splits.push(vec![3..7, 7..work - 5]);
                    splits.push(vec![work / 2 - 1..work / 2 + 2, 0..1]);
                    splits.push(vec![0..5, 5..7, 7..work - 1, work - 1..work]);
                }
                for split in splits {
                    let whole = split.len() == 1 && split[0] == (0..work);
                    let (mut re_b, mut im_b) = (re0.clone(), im0.clone());
                    let silent = NoLend(LocalView::new(&mut re_b, &mut im_b));
                    CAP.set(0);
                    for r in &split {
                        crate::dispatch::resolve::<NoLend>(cg.id)(&silent, &cg.args, r.clone());
                    }
                    for &level in &levels {
                        let (mut re_a, mut im_a) = (re0.clone(), im0.clone());
                        let lending = Lending(LocalView::new(&mut re_a, &mut im_a), Cell::new(0));
                        CAP.set(level);
                        for r in &split {
                            crate::dispatch::resolve::<Lending>(cg.id)(
                                &lending,
                                &cg.args,
                                r.clone(),
                            );
                        }
                        CAP.set(usize::MAX);
                        let what = format!(
                            "{:?} at qmin {qmin} over {split:?}, {} body",
                            cg.id, LEVELS[level]
                        );
                        let lent = lending.1.get();
                        if fused || (qmin < 3 && !low_pair) {
                            assert_eq!(lent, 0, "nothing to lend: {what}");
                        } else if whole {
                            assert_eq!(lent, work * touched.len() as u64, "all lent: {what}");
                            chunked += usize::from(qmin < 3);
                        }
                        assert_eq!(bits(&re_a), bits(&re_b), "re: {what}");
                        assert_eq!(bits(&im_a), bits(&im_b), "im: {what}");
                    }
                }
            }
        }
        assert!(
            chunked >= 3 * 7 * levels.len(),
            "low pairs walked as chunks"
        );
        for (qmin, outcome) in [(0, 1), (1, 0), (3, 0), (5, 1), (n - 1, 0)] {
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
        assert_eq!(seen.len(), 12, "every KernelId swept: {seen:?}");
    }

    /// Bodies against footprints: over any share of its work items a kernel
    /// loads exactly the words `insert_zero_bits(i, sorted) | offs[j]`, once
    /// each, and stores exactly those, once each — every compiled gate of
    /// [`kernels_anchored_at`], and the window-local micro-ops of the fused
    /// ones over their `2^k`-amplitude window. Over the whole range no word
    /// comes up twice, so a footprint's offsets are distinct and sit on the
    /// kernel's own qubits. This is what lets the traffic model, the analyzer,
    /// the fuser and the counters read `offs` and never ask the body.
    #[test]
    fn every_body_sweeps_exactly_its_footprint() {
        fn check(cg: &CompiledGate, n: u32, what: &str) {
            let (a, dim) = (&cg.args, 1u64 << n);
            let work = a.work;
            assert_eq!(work, dim >> a.n_sorted, "{what}: one item per free setting");
            let mut splits: Vec<Vec<Range<u64>>> = [1, 2, 3, 4, 8]
                .iter()
                .map(|&k| (0..k).map(|w| worker_range(work, k, w)).collect())
                .collect();
            if work > 12 {
                splits.push(vec![3..7, work / 2 - 1..work / 2 + 2, work - 5..work]);
            }
            for range in splits.into_iter().flatten() {
                let mut want: Vec<u64> = range
                    .clone()
                    .flat_map(|i| {
                        let base = insert_zero_bits(i, a.sorted());
                        a.offs().iter().map(move |o| base | o)
                    })
                    .collect();
                want.sort_unstable();
                if range == (0..work) {
                    assert!(
                        want.windows(2).all(|w| w[0] < w[1]),
                        "{what}: two items, or two offsets, share a word"
                    );
                }
                let log = accesses(cg, dim, range.clone());
                for store in [false, true] {
                    let mut got: Vec<u64> =
                        (log.iter().filter(|x| x.0 == store)).map(|x| x.1).collect();
                    got.sort_unstable();
                    let verb = if store { "stored" } else { "loaded" };
                    assert_eq!(got, want, "{what}: words {verb} over {range:?}");
                }
            }
        }
        let n = 9u32;
        let mut seen = std::collections::HashSet::new();
        let mut micros = 0;
        for qmin in [0, 1, 2, 3, 5, n - 2] {
            for cg in kernels_anchored_at(qmin, n) {
                seen.insert(cg.id);
                let what = format!("{:?} on {:?} of {n}", cg.id, cg.args.sorted());
                check(&cg, n, &what);
                for micro in &cg.args.fused {
                    micros += 1;
                    let what = format!("{:?} on {:?} inside {what}", micro.id, micro.args.sorted());
                    check(micro, u32::from(cg.args.n_sorted), &what);
                }
            }
        }
        assert_eq!(seen.len(), 12, "every KernelId swept: {seen:?}");
        assert!(micros > 60, "{micros} window-local micro-ops");
    }
}
