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
//! body: X, CNOT, Toffoli, SWAP and Fredkin all exchange two words (`k_x`);
//! a phase gate and a controlled phase multiply one (`k_phase`); a control is
//! bits set in every offset. Each gate takes the cheapest body that computes
//! it: RY and RX are real-coefficient rotations (`k_ry`, `k_rx`), and only
//! gates with no cheaper form run the dense 2×2 `k_oneq`.
//!
//! Every kernel processes a caller-supplied sub-range of its *work-item
//! space*, so the same code serves the single device (full range), the
//! scale-up executor (one chunk per device thread) and the scale-out SPMD
//! PEs (one chunk per PE), exactly like the grid-strided loops of
//! Listings 3-5.
//!
//! One sweep, `sweep`, walks a kernel's share with the same gate closure
//! over memory the view lends ([`StateView::run`]), a **stretch** at a time:
//! the items below the next involved qubit at or above 5, whose amplitudes
//! fill one contiguous span of each plane, borrowed once. A kernel whose
//! involved qubits all sit at 3 or above walks a stretch as its **runs** of
//! `2^qmin` items; one with involved qubits below 5 walks it in **chunks**
//! of 32 amplitudes that hold those qubits in one pattern, each chunk in a
//! constant shape at the vector width: lanes down the planes, pairs at a
//! literal distance of 1 to 16, the quads of qubits 0 and 1. A chunk's
//! amplitudes outside the footprint (under a control that is off, in the
//! half a phase leaves alone) are selected back unchanged, and borrowed only
//! from a view that counts nothing ([`Lends`]). Ragged ends, footprints no
//! shape fits and views that lend nothing go item by item through `get` /
//! `set`.
//!
//! The paper's CPU kernels are written for the vector unit (Listing 2,
//! AVX-512). Here each kernel's one body is *compiled* for it: `kernel!`
//! stamps the public `k_*` out of the body at the build's baseline and, on
//! x86-64, under AVX2 and AVX-512F beside it, and the `k_*` enters the widest
//! one the CPU reports ([`isa`] names it). There is no build flag and no
//! switch, and the levels agree bit for bit: wider registers, the same IEEE
//! operations in the same order (no FMA contraction).

use crate::view::{Lends, Plane, StateView, LEND_ALIGN};
use std::ops::Range;
use svsim_types::bits::insert_zero_bits;
use svsim_types::Complex64;

/// Uniform argument block for every kernel (the analog of the paper's
/// fixed-format `Gate` object that makes device function pointers possible:
/// one parameter layout shared by all gate functions): where the kernel works
/// (`sorted`, `offs`, `work`) and what it applies there (`m`, `s0`, `s1`).
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// first operand as local bit 0). Bits only at `sorted` positions, no two
    /// alike. Written where the block is built ([`crate::compile`]) and read
    /// by everything that asks which amplitudes the kernel touches: its body,
    /// the traffic model, the analyzer, the executor's counters.
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

/// Shortest run of items worth borrowing for a kernel walked in runs: below
/// it (lowest qubits 0-2, the ragged ends of a range) the per-item loop is
/// as fast.
const MIN_RUN: u64 = 8;

/// Involved qubits below this one sit inside the **chunks** of `CHUNK`
/// amplitudes a stretch is walked in ([`sweep`]).
const CHUNK_QUBITS: u32 = 5;
const CHUNK: u64 = 1 << CHUNK_QUBITS;

// No lender cuts a chunk ([`StateView::run`]).
const _: () = assert!(LEND_ALIGN.is_multiple_of(CHUNK));

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
        /// # Safety
        /// Call only where the CPU reports the feature this body is
        /// compiled for.
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
/// everything below it ([`sweep`], the gate closure, [`items`], the walk
/// and its shapes) is forced inline, so a level's loops are compiled whole
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

/// `new` where `keep`, else `old`: a select, never arithmetic (`1·x − 0·y`
/// can flip the sign of a zero).
#[inline(always)]
fn sel(keep: bool, new: f64, old: f64) -> f64 {
    if keep {
        new
    } else {
        old
    }
}

/// How [`sweep`] walks a kernel over lent memory. `low` are its involved
/// qubits below `CHUNK_QUBITS`, as index bits; every whole chunk of a stretch
/// holds them in the same pattern. `pair` are those its offsets differ in —
/// one, for a pair kernel ([`pairs`]), or 3 for qubits 0 and 1 ([`quads`]) —
/// and `mask` the others with the value every offset gives them: a chunk's
/// amplitudes that do not match it are not the kernel's and keep their
/// bits. `low == 0`: runs.
#[derive(Clone, Copy)]
struct Chunks {
    low: u64,
    pair: u64,
    mask: (u64, u64),
}

impl Chunks {
    /// No involved qubit inside a chunk: runs of `2^qmin` items.
    const RUNS: Self = Self {
        low: 0,
        pair: 0,
        mask: (0, 0),
    };

    /// The chunks a view of type `V` lends a kernel on `sorted` with
    /// footprint `offs` in, or [`RUNS`](Self::RUNS). A chunk holding
    /// amplitudes outside the footprint is lent only by a view that counts
    /// nothing ([`Lends::Free`]) and holds at most three of them for each
    /// of the footprint's. A kernel with runs of 8 or more that no pair
    /// shape fits walks its runs where they cost less than what its chunks
    /// waste: with two masked qubits, and with one over two or four planes
    /// of runs of 16 (`cx 4,5`: 0.15 ns/amp in runs, 0.23 in chunks). A
    /// swap of qubits 0 and 1 under a control below 5 measured slower in
    /// chunks than item by item.
    #[inline(always)]
    fn of<V: StateView, const N: usize>(sorted: &[u32], offs: [u64; N]) -> Self {
        if sorted[0] >= CHUNK_QUBITS {
            return Self::RUNS;
        }
        let low = (sorted.iter())
            .take_while(|&&q| q < CHUNK_QUBITS)
            .fold(0, |m, &q| m | 1u64 << q);
        // One low qubit the two offsets of a pair differ in; or qubits 0 and
        // 1, which a two-qubit matrix on them or a swap of them differs in.
        let pair = offs[0] ^ offs[N - 1];
        let pair = if N == 2 && pair & low == pair && pair.is_power_of_two() && offs[0] & pair == 0
        {
            pair
        } else if pair == 3
            && low & 3 == 3
            && match N {
                2 => offs[0] & 3 != 0,
                4 => low == 3 && offs[0] == 0 && offs[1 % N] ^ offs[2 % N] == 3,
                _ => false,
            }
        {
            3
        } else {
            0
        };
        let mask = low & !pair;
        // The words borrowed per footprint word: a chunk holds `2^a`
        // amplitudes of each of its items, one plane or one per offset.
        let a = low.count_ones();
        let planes = if pair == 0 { N } else { 1 };
        let waste = (1 << a) * planes / N;
        let fits = offs.iter().all(|&o| o & mask == offs[0] & mask)
            && waste <= 4
            && (waste == 1 || V::LENDS == Lends::Free)
            && match (pair, sorted[0]) {
                // Lanes: below qubit 3 there are no runs of 8 to walk
                // instead; a run of 16 of one plane, measured, is not
                // vectorized whole.
                (0, 0..=2) => true,
                (0, q) => waste == 2 && (q == 3 || N == 1),
                (3, _) => mask == 0,
                _ => true,
            };
        if low == 0 || !fits {
            return Self::RUNS;
        }
        Self {
            low,
            pair,
            mask: (mask, offs[0] & mask),
        }
    }
}

/// Amplitude `k` of every one of `planes` together as one work item, `k`
/// down the planes, for the loop vectorizer; `MASKED`, only where plane
/// position `at + k` matches `want` on the bits of `mask`, the other words
/// kept as they are.
#[inline(always)]
fn lanes<const N: usize, const MASKED: bool>(
    planes: [Plane<'_>; N],
    at: u64,
    (mask, want): (u64, u64),
    f: &impl Fn([Amp; N]) -> [Amp; N],
) {
    let n = planes[0].0.len();
    for k in 0..n {
        let keep = !MASKED || (at + k as u64) & mask == want;
        let mut amps = [(0.0, 0.0); N];
        for j in 0..N {
            amps[j] = (planes[j].0[k].get(), planes[j].1[k].get());
        }
        let out = f(amps);
        for j in 0..N {
            planes[j].0[k].set(sel(keep, out[j].0, amps[j].0));
            planes[j].1[k].set(sel(keep, out[j].1, amps[j].1));
        }
    }
}

/// One lent stretch of a pair kernel on target `log2(s)`: amplitude `k` of
/// every chunk of `2s` paired with amplitude `k + s`, `s` a literal;
/// `MASKED`, only where the position of the first matches `want` on the bits
/// of `mask`.
#[inline(always)]
fn pairs<const N: usize, const MASKED: bool>(
    (re, im): Plane<'_>,
    s: usize,
    (mask, want): (u64, u64),
    f: &impl Fn([Amp; N]) -> [Amp; N],
) {
    if s == 16 {
        // Halves of 16 are lanes long enough for the loop vectorizer.
        for c in 0..re.len() / 32 {
            let mut halves = [(&re[..0], &im[..0]); N];
            halves[0] = (&re[32 * c..][..16], &im[32 * c..][..16]);
            halves[N - 1] = (&re[32 * c + 16..][..16], &im[32 * c + 16..][..16]);
            lanes::<N, MASKED>(halves, 32 * c as u64, (mask, want), f);
        }
        return;
    }
    if s == 1 {
        // Vectorized across the chunks of 2, by strided loads.
        for (c, (re, im)) in re.chunks_exact(2).zip(im.chunks_exact(2)).enumerate() {
            let keep = !MASKED || (2 * c) as u64 & mask == want;
            let mut amps = [(0.0, 0.0); N];
            amps[0] = (re[0].get(), im[0].get());
            amps[N - 1] = (re[1].get(), im[1].get());
            let out = f(amps);
            re[0].set(sel(keep, out[0].0, amps[0].0));
            re[1].set(sel(keep, out[N - 1].0, amps[N - 1].0));
            im[0].set(sel(keep, out[0].1, amps[0].1));
            im[1].set(sel(keep, out[N - 1].1, amps[N - 1].1));
        }
        return;
    }
    // Targets 1-3 within blocks of 16 amplitudes, 8 pairs, as wide loads
    // and shuffles of the block; a stride the compiler cannot see keeps it
    // from vectorizing across blocks with gathers.
    const W: usize = 16;
    let step = std::hint::black_box(W);
    let pos = |l: usize| l / s * 2 * s + l % s;
    for c in 0..re.len() / W {
        let (re, im) = (&re[c * step..][..W], &im[c * step..][..W]);
        // Every load of a block before its first store, and the stores one
        // plane at a time: the planes are `Cell`s, which may alias as far as
        // the compiler knows, and it will not reorder around that.
        let mut amps = [[(0.0, 0.0); N]; W / 2];
        let mut out = amps;
        for l in 0..W / 2 {
            amps[l][0] = (re[pos(l)].get(), im[pos(l)].get());
            amps[l][N - 1] = (re[pos(l) + s].get(), im[pos(l) + s].get());
            out[l] = f(amps[l]);
        }
        // Whether the word at `p` is the kernel's, asked word by word in
        // memory order: the order the stores are vectorized in.
        let keep = |p: usize| !MASKED || (W * c + p) as u64 & mask == want;
        for l in 0..W / 2 {
            let (p, q) = (pos(l), pos(l) + s);
            re[p].set(sel(keep(p), out[l][0].0, amps[l][0].0));
            re[q].set(sel(keep(q), out[l][N - 1].0, amps[l][N - 1].0));
        }
        for l in 0..W / 2 {
            let (p, q) = (pos(l), pos(l) + s);
            im[p].set(sel(keep(p), out[l][0].1, amps[l][0].1));
            im[q].set(sel(keep(q), out[l][N - 1].1, amps[l][N - 1].1));
        }
    }
}

/// One lent stretch of a kernel whose offsets differ in qubits 0 and 1: the
/// amplitudes of every chunk of 4 in footprint order — all four for a
/// two-qubit matrix (`flip`: qubit 1 is its first operand), the middle two
/// for a swap (`flip`: swapped from the high one) — and the others kept;
/// `MASKED`, only where the chunk matches `want` on the bits of `mask`.
#[inline(always)]
fn quads<const N: usize, const MASKED: bool>(
    (re, im): Plane<'_>,
    flip: bool,
    (mask, want): (u64, u64),
    f: &impl Fn([Amp; N]) -> [Amp; N],
) {
    // Where amplitude `j` of the footprint sits in the chunk.
    let at = |j: usize| match (N, flip) {
        (4, false) => j,
        (4, true) => [0, 2, 1, 3][j],
        (_, false) => 1 + j,
        (_, true) => 2 - j,
    };
    for (c, (re, im)) in re.chunks_exact(4).zip(im.chunks_exact(4)).enumerate() {
        let keep = !MASKED || (4 * c) as u64 & mask == want;
        let old: [Amp; 4] = std::array::from_fn(|k| (re[k].get(), im[k].get()));
        let mut amps = [(0.0, 0.0); N];
        for j in 0..N {
            amps[j] = old[at(j)];
        }
        let out = f(amps);
        let mut new = old;
        for j in 0..N {
            new[at(j)] = out[j];
        }
        for k in 0..4 {
            re[k].set(sel(keep, new[k].0, old[k].0));
        }
        for k in 0..4 {
            im[k].set(sel(keep, new[k].1, old[k].1));
        }
    }
}

/// The sweep every gate kernel is an instance of: each work item of `r`
/// reads the `N` amplitudes at `insert_zero_bits(item, sorted) | offs[j]`,
/// applies `f` to them and writes the `N` results back in place. `N` is 1
/// for the diagonal single-amplitude kernels, 2 for the pair kernels and 4
/// for the two-qubit ones; `f` is the gate's arithmetic and appears nowhere
/// else.
///
/// A view that lends nothing takes the per-item loop alone. Otherwise the
/// share is walked in lent stretches ([`walk`]), in runs or in chunks
/// ([`Chunks`]); what it leaves, the per-item loop takes. Every way
/// evaluates the same `f` on the same words with the same IEEE operations,
/// and a word outside the footprint is only ever selected back, so all
/// agree bit for bit.
#[inline(always)]
fn sweep<V: StateView, const N: usize>(
    v: &V,
    sorted: &[u32],
    r: Range<u64>,
    offs: [u64; N],
    f: impl Fn([Amp; N]) -> [Amp; N],
) {
    if V::LENDS == Lends::Nothing {
        items(v, sorted, r, offs, &f);
        return;
    }
    let chunks = Chunks::of::<V, N>(sorted, offs);
    let left = if chunks.low == 0 {
        walk::<V, N, false, false>(v, sorted, r, offs, &f, Chunks::RUNS)
    } else if chunks.mask.0 == 0 || V::LENDS != Lends::Free {
        walk::<V, N, true, false>(v, sorted, r, offs, &f, chunks)
    } else {
        walk::<V, N, true, true>(v, sorted, r, offs, &f, chunks)
    };
    for r in left {
        items(v, sorted, r, offs, &f);
    }
}

/// [`sweep`] in lent stretches, in their runs or (`CHUNKED`) their `chunks`,
/// each a constant shape. Returns the items it left to the per-item loop: a
/// ragged head, and a ragged tail or everything from where the view stopped
/// lending.
#[inline(always)]
fn walk<V: StateView, const N: usize, const CHUNKED: bool, const MASKED: bool>(
    v: &V,
    sorted: &[u32],
    r: Range<u64>,
    offs: [u64; N],
    f: &impl Fn([Amp; N]) -> [Amp; N],
    chunks: Chunks,
) -> [Range<u64>; 2] {
    let chunks = if CHUNKED { chunks } else { Chunks::RUNS };
    let a = chunks.low.count_ones();
    // The items of a chunk, the fewest worth borrowing, and the items of a
    // stretch: those below the next involved qubit outside the chunks.
    let (unit, min) = if CHUNKED {
        (CHUNK >> a, CHUNK >> a)
    } else {
        (1, MIN_RUN)
    };
    let stretch = sorted.get(a as usize).map_or(u64::MAX, |&q| 1 << (q - a));
    let stretch_end = |i: u64| r.end.min((i | (stretch - 1)).saturating_add(1));
    // Item by item up to the first whole chunk, or past a first stretch too
    // short to lend.
    let mut i = r.start.next_multiple_of(unit).min(r.end);
    if stretch < min || stretch_end(i) - i < min {
        i = if stretch < min { r.end } else { stretch_end(i) };
    }
    let head = r.start..i;
    // `base` is item `i`'s first amplitude, stepped along with `i`: with the
    // involved positions filled with ones, adding the amplitudes passed over
    // carries through them.
    let holes = sorted.iter().fold(0u64, |m, &q| m | 1 << q);
    let mut base = insert_zero_bits(i, sorted);
    while i < r.end {
        let end = stretch_end(i);
        let stop = i + ((end - i) & !(unit - 1));
        if stop - i < min {
            break;
        }
        let words = (stop - i) << a;
        let at = offs.map(|o| o & !chunks.low | base);
        let lent = if CHUNKED && chunks.pair != 0 {
            v.run(at[0], words).map(|(re, im)| {
                let n = re.len().min(im.len());
                [(&re[..n], &im[..n]); N]
            })
        } else {
            borrow(v, at, words)
        };
        let Some(planes) = lent else {
            break;
        };
        match if CHUNKED { chunks.pair } else { 0 } {
            3 if N > 1 => quads::<N, MASKED>(planes[0], offs[N / 4] & 3 == 2, chunks.mask, f),
            1 if N == 2 => pairs::<N, MASKED>(planes[0], 1, chunks.mask, f),
            2 if N == 2 => pairs::<N, MASKED>(planes[0], 2, chunks.mask, f),
            4 if N == 2 => pairs::<N, MASKED>(planes[0], 4, chunks.mask, f),
            8 if N == 2 => pairs::<N, MASKED>(planes[0], 8, chunks.mask, f),
            16 if N == 2 => pairs::<N, MASKED>(planes[0], 16, chunks.mask, f),
            _ => lanes::<N, MASKED>(planes, 0, chunks.mask, f),
        }
        let n = planes[0].0.len() as u64;
        // A lender clips where its memory ends, at a multiple of
        // `LEND_ALIGN`: every amplitude it lent, and credited, is one of a
        // whole chunk and is swept here.
        assert!(n & ((unit << a) - 1) == 0, "stretch clipped inside a chunk");
        base = ((base | holes) + n) & !holes;
        i += n >> a;
    }
    [head, i..r.end]
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
    /// CNOT: the same under the control (a quarter of the vector; CCX, C3X,
    /// C4X: under every control); SWAP: `|01>` and `|10>` of the operands (a
    /// quarter; Fredkin, an eighth).
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
    /// Pauli-Y, and controlled-Y: swap with `±i` phases.
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
    /// Hadamard, and controlled-H.
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
fn ry<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1);
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(r0, m0), (r1, m1)]| {
            [
                (c * r0 - s * r1, c * m0 - s * m1),
                (s * r0 + c * r1, s * m0 + c * m1),
            ]
        },
    );
}
kernel! {
    /// `RY = [[c, -s], [s, c]]` with `s0 + i s1 = e^{i th/2}`, and
    /// controlled-RY: one real rotation of the pair (under the control), the
    /// same on both planes — 12 flops where the dense 2×2 spends 28.
    k_ry = ry
}

#[inline(always)]
fn rx<V: StateView>(v: &V, a: &GateArgs, r: Range<u64>) {
    let (c, s) = (a.s0, a.s1);
    sweep(
        v,
        a.sorted(),
        r,
        a.footprint(),
        #[inline(always)]
        |[(r0, m0), (r1, m1)]| {
            [
                (c * r0 + s * m1, c * m0 - s * r1),
                (s * m0 + c * r1, c * m1 - s * r0),
            ]
        },
    );
}
kernel! {
    /// `RX = [[c, -i s], [-i s, c]]` with `s0 + i s1 = e^{i th/2}`, and
    /// controlled-RX: each amplitude keeps `c` of itself and takes `-i s` of
    /// the other — 12 flops where the dense 2×2 spends 28.
    k_rx = rx
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
    /// Dense 2×2 gate, plain (`U3`, `U2`, and the non-specialized fallback)
    /// or controlled (CU3, C3SQRTX).
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
    use crate::compile::CompiledGate;
    use crate::fixtures::{accesses, compiled_one, kernels_anchored_at, low_pairs};
    use crate::view::LocalView;
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

    /// A [`LocalView`] that adds up how many amplitudes it lent, and lends
    /// them as a view that counts them (`FREE == false`, like a partitioned
    /// view) or as one that counts nothing (like a PE's own slab).
    struct Lending<'a, const FREE: bool>(LocalView<'a>, Cell<u64>);

    impl<const FREE: bool> StateView for Lending<'_, FREE> {
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
        const LENDS: Lends = if FREE { Lends::Free } else { Lends::Counted };
    }

    /// The kernels the walks are held to: every body anchored at each lowest
    /// qubit 0-6 and `n - 2`, and every gate with two operands on qubits 0-2.
    fn walked_kernels(n: u32) -> Vec<CompiledGate> {
        let anchored = (0..=6)
            .chain([n - 2])
            .flat_map(|qmin| kernels_anchored_at(qmin, n));
        anchored.chain(low_pairs(n)).collect()
    }

    /// Ranges of `work` items: worker splits, and ragged ones that start and
    /// end off every run, chunk and stretch.
    fn splits(work: u64) -> Vec<Vec<Range<u64>>> {
        let mut splits: Vec<Vec<Range<u64>>> = [1, 2, 3, 4, 8]
            .iter()
            .map(|&k| (0..k).map(|w| worker_range(work, k, w)).collect())
            .collect();
        if work > 12 {
            splits.push(vec![3..7, 7..work - 5]);
            splits.push(vec![work / 2 - 1..work / 2 + 2, 0..1]);
            splits.push(vec![0..5, 5..7, 7..work - 1, work - 1..work]);
        }
        splits
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

    /// The plain-memory walks against the per-item path, at every level the
    /// kernels are compiled at: any kernel over any share of its work items
    /// leaves the same bits whether the view lends its memory or not, and
    /// whether it counts what it lends or not, in the baseline body and in
    /// every wider one. A word outside the footprint that a walk borrows
    /// keeps its bits: the per-item path never touches it.
    ///
    /// What is borrowed, and from which view, over a whole range: a view
    /// that counts is lent exactly the footprint — every amplitude of it when
    /// the kernel's runs are 8 items or longer, it is a pair on a lone qubit
    /// below 5 or a two-qubit matrix on qubits 0 and 1, none otherwise — and
    /// a view that counts nothing is lent
    /// at least that, plus at most whole chunks of 32 amplitudes holding
    /// three words outside the footprint for each one in it.
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
        // Kernels below qubit 5 lent their footprint exactly, and lent whole
        // chunks with words outside it.
        let (mut exact, mut wider) = (0, 0);
        for cg in walked_kernels(n) {
            seen.insert(cg.id);
            let (sorted, offs) = (cg.args.sorted(), cg.args.offs());
            let (qmin, work) = (sorted[0], cg.args.work);
            let footprint = work * offs.len() as u64;
            // A pair on one qubit below 5 that no other involved qubit below
            // 5 shares its chunks with.
            let lone_pair = offs.len() == 2
                && (offs[0] ^ offs[1]).is_power_of_two()
                && (offs[0] ^ offs[1]) < CHUNK
                && sorted.iter().filter(|&&q| q < CHUNK_QUBITS).count() == 1;
            // A two-qubit matrix on qubits 0 and 1 fills its chunks.
            let low_quad = offs.len() == 4 && sorted == [0, 1];
            let lent_exactly = qmin >= 3 || lone_pair || low_quad;
            for split in splits(work) {
                let whole = split.len() == 1 && split[0] == (0..work);
                let (mut re_b, mut im_b) = (re0.clone(), im0.clone());
                let silent = NoLend(LocalView::new(&mut re_b, &mut im_b));
                CAP.set(0);
                for r in &split {
                    crate::dispatch::resolve::<NoLend>(cg.id)(&silent, &cg.args, r.clone());
                }
                for &level in &levels {
                    let what = format!(
                        "{:?} on {sorted:?} over {split:?}, {} body",
                        cg.id, LEVELS[level]
                    );
                    let (mut re_c, mut im_c) = (re0.clone(), im0.clone());
                    let (mut re_f, mut im_f) = (re0.clone(), im0.clone());
                    let counting =
                        Lending::<false>(LocalView::new(&mut re_c, &mut im_c), Cell::new(0));
                    let free = Lending::<true>(LocalView::new(&mut re_f, &mut im_f), Cell::new(0));
                    CAP.set(level);
                    for r in &split {
                        crate::dispatch::resolve::<Lending<false>>(cg.id)(
                            &counting,
                            &cg.args,
                            r.clone(),
                        );
                        crate::dispatch::resolve::<Lending<true>>(cg.id)(
                            &free,
                            &cg.args,
                            r.clone(),
                        );
                    }
                    CAP.set(usize::MAX);
                    let (counted, lent) = (counting.1.get(), free.1.get());
                    if whole {
                        let want = if lent_exactly { footprint } else { 0 };
                        assert_eq!(counted, want, "lent by a counting view: {what}");
                        assert!(lent >= counted, "lent less freely: {what}");
                        assert!(
                            lent == counted || lent % CHUNK == 0 && lent <= 4 * footprint,
                            "{lent} lent for a footprint of {footprint}: {what}"
                        );
                        exact += usize::from(qmin < CHUNK_QUBITS && counted > 0);
                        wider += usize::from(lent > footprint);
                    }
                    for (re_a, im_a, view) in [(&re_c, &im_c, "counting"), (&re_f, &im_f, "free")] {
                        assert_eq!(bits(re_a), bits(&re_b), "re, {view} view: {what}");
                        assert_eq!(bits(im_a), bits(&im_b), "im, {view} view: {what}");
                    }
                }
            }
        }
        assert!(exact >= 60 * levels.len(), "{exact} exact low walks");
        assert!(
            wider >= 60 * levels.len(),
            "{wider} walks in chunks wider than the footprint"
        );
        for qmin in (0..=6).chain([n - 1]) {
            for outcome in [0, 1] {
                let (mut re_a, mut im_a) = (re0.clone(), im0.clone());
                let (mut re_b, mut im_b) = (re0.clone(), im0.clone());
                let lending = LocalView::new(&mut re_a, &mut im_a);
                let silent = NoLend(LocalView::new(&mut re_b, &mut im_b));
                for r in [0..77, 77..dim as u64 / 2] {
                    collapse_pairs(&lending, qmin, outcome, 1.25, r.clone());
                    collapse_pairs(&silent, qmin, outcome, 1.25, r);
                }
                let what = format!("collapse of {qmin} to {outcome}");
                assert_eq!(bits(&re_a), bits(&re_b), "{what}");
                assert_eq!(bits(&im_a), bits(&im_b), "{what}");
            }
        }
        assert_eq!(seen.len(), 11, "every KernelId swept: {seen:?}");
    }

    /// Bodies against footprints: over any share of its work items a kernel
    /// loads exactly the words `insert_zero_bits(i, sorted) | offs[j]`, once
    /// each, and stores exactly those, once each — every compiled gate of
    /// [`kernels_anchored_at`]. Over the whole range no word comes up twice,
    /// so a footprint's offsets are distinct and sit on the kernel's own
    /// qubits. This is what lets the traffic model, the analyzer and the
    /// counters read `offs` and never ask the body.
    #[test]
    fn every_body_sweeps_exactly_its_footprint() {
        fn check(cg: &CompiledGate, n: u32, what: &str) {
            let (a, dim) = (&cg.args, 1u64 << n);
            let work = a.work;
            assert_eq!(work, dim >> a.n_sorted, "{what}: one item per free setting");
            for range in splits(work).into_iter().flatten() {
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
        for cg in walked_kernels(n) {
            seen.insert(cg.id);
            let what = format!("{:?} on {:?} of {n}", cg.id, cg.args.sorted());
            check(&cg, n, &what);
        }
        assert_eq!(seen.len(), 11, "every KernelId swept: {seen:?}");
    }
}
