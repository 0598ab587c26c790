//! The `StateView` memory-fabric abstraction.
//!
//! Every gate kernel in [`crate::kernels`] is written once, generic over a
//! [`StateView`]. Monomorphization then produces the fused backends, the
//! exact structure of the paper's unified framework:
//!
//! - [`LocalView`]: a plain slice — the single-device path (§3.2.1).
//! - [`PeerView`]: a partitioned pointer array — the scale-up path over
//!   GPUDirect-style peer access (§3.2.2, Listing 4): the global index is
//!   split into `(partition, offset)` and dereferenced through the peer
//!   table — the partitions of the SHMEM world's symmetric arrays
//!   ([`SymF64::partitions`]), reached as plain memory.
//! - [`ShmemView`]: one-sided `get`/`put` through the SHMEM runtime — the
//!   scale-out path (§3.2.3, Listing 5), with traffic accounting.
//!
//! A kernel walks its work items as contiguous runs and asks the view for
//! each run as plain memory ([`StateView::run`]): a `LocalView` lends
//! sub-slices of itself. `PeerView` and the `ShmemView` built by `new` lend
//! nothing — every access is one `get` or `set`, counted (and on a
//! `ShmemView` traced and fault-checked) word by word. The view the
//! executor walks both partitioned backends through is a lending
//! `ShmemView`: it lends each run from the partition that owns it
//! (`shmem_ptr`; [`Plane`]), each one [`ShmemCtx::borrow`] counted in the
//! backend's `Shape`. A PE's own partition is then simply a `LocalView`
//! over its lent planes.

use std::cell::Cell;
use std::ops::Range;
use svsim_shmem::{PeCounters, SharedF64Vec, ShmemCtx, SymF64};
use svsim_types::PeOp;

/// One partition's real and imaginary words lent as plain memory
/// ([`SharedF64Vec::as_cells`]).
pub type Plane<'a> = (&'a [Cell<f64>], &'a [Cell<f64>]);

/// Read/write access to the distributed (or local) state vector.
///
/// `set` takes `&self` because the scale-up/scale-out fabrics are inherently
/// shared; data-race freedom is guaranteed by the work partitioning (each
/// amplitude pair has exactly one owner per gate) plus the inter-gate
/// barrier, exactly as on real SHMEM hardware.
pub trait StateView {
    /// Total number of amplitudes.
    fn dim(&self) -> u64;
    /// Load amplitude `idx` as `(re, im)`.
    fn get(&self, idx: u64) -> (f64, f64);
    /// Store amplitude `idx`.
    fn set(&self, idx: u64, re: f64, im: f64);
    /// Lend the amplitudes from `start` on as plain memory — real words,
    /// imaginary words, equally long: up to `max` of them, fewer where the
    /// lender's contiguous memory ends first. `max` may span many of a
    /// kernel's runs (a kernel whose lowest qubit is below 5 asks for the
    /// whole stretch up to its next involved qubit at once), so a lender
    /// whose memory is cut into partitions clips at the owning partition's
    /// end, and every such end inside the state must be a multiple of
    /// [`LEND_ALIGN`] amplitudes (views over shorter partitions lend
    /// nothing): a borrower that walks aligned chunks of up to that many is
    /// then never cut inside one. What the borrower may do with the memory
    /// is [`LENDS`](Self::LENDS). `None`: this view lends nothing here and
    /// every access goes through [`get`](Self::get) / [`set`](Self::set).
    #[inline]
    fn run(&self, _start: u64, _max: u64) -> Option<Plane<'_>> {
        None
    }

    /// What [`run`](Self::run) may lend; a view that overrides `run` sets
    /// it.
    const LENDS: Lends = Lends::Nothing;
}

/// What a [`StateView`] lends through [`StateView::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lends {
    /// Nothing: `run` is never asked, every access is a `get` or `set`.
    Nothing,
    /// Memory whose every lent amplitude the view credits to counters as
    /// one load and one store: a borrower loads and stores each exactly
    /// once, so it borrows only amplitudes it touches.
    Counted,
    /// Plain memory that counts nothing: a borrower may also borrow
    /// amplitudes it does not touch, and store them back unchanged.
    Free,
}

/// Every place a lender's contiguous memory may end is a multiple of this
/// many amplitudes ([`StateView::run`]): the longest chunk a kernel walks a
/// lent stretch in.
pub const LEND_ALIGN: u64 = 32;

/// The part of partition `start >> shift` of `parts` that begins at `start`
/// and holds at most `max` amplitudes, and that partition's rank. Nothing
/// when the partitions are shorter than [`LEND_ALIGN`].
#[inline]
fn lend<'a>(parts: &[Plane<'a>], shift: u32, start: u64, max: u64) -> Option<(usize, Plane<'a>)> {
    if 1 << shift < LEND_ALIGN {
        return None;
    }
    let owner = (start >> shift) as usize;
    let off = (start & ((1 << shift) - 1)) as usize;
    let (re, im) = parts[owner];
    let end = re.len().min(off + max as usize);
    Some((owner, (&re[off..end], &im[off..end])))
}

/// Single-device view over two local slices (SoA).
///
/// `Cell` gives shared in-place mutation with zero overhead on a single
/// thread (plain loads/stores after optimization).
pub struct LocalView<'a> {
    re: &'a [Cell<f64>],
    im: &'a [Cell<f64>],
}

impl<'a> LocalView<'a> {
    /// Wrap mutable slices.
    #[must_use]
    pub fn new(re: &'a mut [f64], im: &'a mut [f64]) -> Self {
        Self::over((
            Cell::from_mut(re).as_slice_of_cells(),
            Cell::from_mut(im).as_slice_of_cells(),
        ))
    }

    /// View memory that is already shared cells: a PE's own partition.
    #[must_use]
    pub fn over((re, im): Plane<'a>) -> Self {
        assert_eq!(re.len(), im.len());
        Self { re, im }
    }

    /// Tile `index` of this memory cut into tiles of `2^qubits` amplitudes,
    /// as a view of its own: amplitude `i` of the tile is amplitude
    /// `index << qubits | i` here.
    #[must_use]
    pub fn tile(&self, index: u64, qubits: u32) -> Self {
        let at = (index as usize) << qubits..(index as usize + 1) << qubits;
        Self {
            re: &self.re[at.clone()],
            im: &self.im[at],
        }
    }

    /// Whether every word of both planes is `+0.0`; a `-0.0` is not. Reads
    /// 32 amplitudes at a time and stops at the first block that is not.
    #[must_use]
    pub(crate) fn is_zero(&self) -> bool {
        let bits = |plane: &[Cell<f64>]| plane.iter().fold(0, |or, x| or | x.get().to_bits());
        (self.re.chunks(32).zip(self.im.chunks(32))).all(|(re, im)| bits(re) | bits(im) == 0)
    }
}

impl StateView for LocalView<'_> {
    #[inline]
    fn dim(&self) -> u64 {
        self.re.len() as u64
    }

    #[inline]
    fn get(&self, idx: u64) -> (f64, f64) {
        (self.re[idx as usize].get(), self.im[idx as usize].get())
    }

    #[inline]
    fn set(&self, idx: u64, re: f64, im: f64) {
        self.re[idx as usize].set(re);
        self.im[idx as usize].set(im);
    }

    #[inline]
    fn run(&self, start: u64, max: u64) -> Option<Plane<'_>> {
        let start = start as usize;
        let end = self.re.len().min(start + max as usize);
        Some((&self.re[start..end], &self.im[start..end]))
    }

    const LENDS: Lends = Lends::Free;
}

/// Scale-up view: the state vector partitioned evenly across `n_dev`
/// device partitions, addressed through a shared pointer table.
///
/// This is the Rust analog of Listing 4's `sv_real_ptr[pos_gid][pos]`:
/// `partition = idx >> log2(per_dev)`, `offset = idx & (per_dev - 1)`.
pub struct PeerView<'a> {
    re_parts: &'a [SharedF64Vec],
    im_parts: &'a [SharedF64Vec],
    /// log2 of the per-device amplitude count.
    shift: u32,
    mask: u64,
    dim: u64,
    /// Which partition this executor thread is pinned to (for traffic
    /// classification); access to any other partition is "remote".
    my_dev: usize,
    counters: Option<&'a PeCounters>,
}

impl<'a> PeerView<'a> {
    /// Build over per-device partitions (all equal power-of-two length).
    /// Every access is one `get` or `set` of 16 bytes, counted if
    /// `counters` is given; nothing is lent.
    #[must_use]
    pub fn new(
        re_parts: &'a [SharedF64Vec],
        im_parts: &'a [SharedF64Vec],
        my_dev: usize,
        counters: Option<&'a PeCounters>,
    ) -> Self {
        assert_eq!(re_parts.len(), im_parts.len());
        assert!(!re_parts.is_empty());
        let per_dev = re_parts[0].len() as u64;
        assert!(per_dev.is_power_of_two());
        assert!(re_parts.iter().all(|p| p.len() as u64 == per_dev));
        Self {
            re_parts,
            im_parts,
            shift: per_dev.trailing_zeros(),
            mask: per_dev - 1,
            dim: per_dev * re_parts.len() as u64,
            my_dev,
            counters,
        }
    }
}

impl StateView for PeerView<'_> {
    #[inline]
    fn dim(&self) -> u64 {
        self.dim
    }

    #[inline]
    fn get(&self, idx: u64) -> (f64, f64) {
        let dev = (idx >> self.shift) as usize;
        let off = (idx & self.mask) as usize;
        if let Some(c) = self.counters {
            c.count_get(dev != self.my_dev, 16);
        }
        (self.re_parts[dev].load(off), self.im_parts[dev].load(off))
    }

    #[inline]
    fn set(&self, idx: u64, re: f64, im: f64) {
        let dev = (idx >> self.shift) as usize;
        let off = (idx & self.mask) as usize;
        if let Some(c) = self.counters {
            c.count_put(dev != self.my_dev, 16);
        }
        self.re_parts[dev].store(off, re);
        self.im_parts[dev].store(off, im);
    }
}

/// How a lending [`ShmemView`] counts one amplitude access each way:
/// `Shape(messages, bytes)` is that many messages of that many bytes each —
/// all a partitioned walk still knows of its backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Shape(u64, u64);

impl Shape {
    /// Scale-up: one 16-byte access per amplitude, what a peer load or
    /// store of the complex counts ([`PeerView`]).
    pub(crate) const AMPLITUDE: Self = Self(1, 16);
    /// Scale-out: two 8-byte words per amplitude, the real and the
    /// imaginary one-sided word ([`ShmemView::new`]).
    pub(crate) const WORDS: Self = Self(2, 8);
}

/// Scale-out view: one-sided SHMEM access to a symmetric-heap state vector.
pub struct ShmemView<'a, 'w> {
    ctx: &'a ShmemCtx<'w>,
    re: &'a SymF64,
    im: &'a SymF64,
    shift: u32,
    mask: u64,
    dim: u64,
    /// Every PE's partition as plain memory, when this view lends runs.
    lent: Option<&'a [Plane<'a>]>,
    /// How a lent access counts.
    shape: Shape,
}

impl<'a, 'w> ShmemView<'a, 'w> {
    /// Build over symmetric arrays (power-of-two words per PE). Every
    /// access is two one-sided words through the ctx; nothing is lent.
    #[must_use]
    pub fn new(ctx: &'a ShmemCtx<'w>, re: &'a SymF64, im: &'a SymF64) -> Self {
        let per_pe = re.len_per_pe() as u64;
        assert!(per_pe.is_power_of_two());
        assert_eq!(im.len_per_pe() as u64, per_pe);
        Self {
            ctx,
            re,
            im,
            shift: per_pe.trailing_zeros(),
            mask: per_pe - 1,
            dim: per_pe * ctx.n_pes() as u64,
            lent: None,
            shape: Shape::WORDS,
        }
    }

    /// Given `lent`, the same partitions as plain memory, reach every
    /// amplitude through them instead of the ctx's word accessors — runs
    /// lent whole, single amplitudes dereferenced — each run or amplitude
    /// one [`ShmemCtx::borrow`] that counts each amplitude in each
    /// direction as `shape` says: on scale-out the two 8-byte words the
    /// accessors would have counted, on scale-up the one 16-byte access a
    /// [`PeerView`] would have.
    #[must_use]
    pub(crate) fn lending(mut self, lent: &'a [Plane<'a>], shape: Shape) -> Self {
        assert_eq!(lent.len(), self.ctx.n_pes());
        (self.lent, self.shape) = (Some(lent), shape);
        self
    }

    /// The partition holding `idx` and the offset in it.
    #[inline]
    fn locate(&self, idx: u64) -> (usize, usize) {
        ((idx >> self.shift) as usize, (idx & self.mask) as usize)
    }

    /// [`ShmemCtx::borrow`] of words `words` of `pe`'s partition of both
    /// planes, as `n` accesses each way of `amps` amplitudes each: in the
    /// view's shape, `messages` messages of `amps * bytes` per access.
    #[inline]
    pub(crate) fn borrow(&self, pe: usize, words: Range<usize>, ops: &[PeOp], n: u64, amps: u64) {
        let (Shape(messages, bytes), syms) = (self.shape, [self.re, self.im]);
        ShmemCtx::borrow(self.ctx, &syms, pe, words, ops, messages * n, bytes * amps);
    }
}

impl<'a> ShmemView<'a, '_> {
    /// Bulk slab exchange realizing a relabeling SWAP of physical qubit
    /// positions `a` (below the partition boundary) and `b` (at/above it),
    /// in place, in one barrier epoch.
    ///
    /// Every PE is paired with `partner = pe ^ (1 << (b - shift))`; the
    /// amplitude pairs to exchange sit in runs of `2^a` contiguous words:
    /// the `bit_a = 1` runs of the pair's lo-side PE trade places with the
    /// `bit_a = 0` runs of its hi-side PE, run `r` with run `r`. The pair
    /// splits that work in two shares — the lo-side PE takes the first
    /// `per_pe / 4` of the `per_pe / 2` amplitude pairs, the hi-side PE the
    /// rest (all of them on partitions of two amplitudes), in pieces that
    /// never cross a run — and each PE swaps its pieces directly between
    /// its own partition and its partner's: per piece and component it
    /// reads both sides (one local, one remote `get_slice`) and writes both
    /// (one local, one remote `put_slice`). One barrier closes the epoch.
    ///
    /// The epoch is race-free by construction: every word of the pair has
    /// exactly one accessor, the PE whose share holds it, and pairing is an
    /// involution, so no third PE comes near the pair's words.
    ///
    /// A view the executor builds lends the partitions as plain memory: it
    /// swaps each piece by plain loads and stores through them instead, in
    /// the same epoch with the same barrier, after borrowing both sides of
    /// the piece ([`ShmemCtx::borrow`]: fault point, race trace, and the
    /// side's piece as one access in the view's `Shape` — on scale-out
    /// exactly what its two messages count).
    ///
    /// `_xch_re` / `_xch_im` are unused: the swap needs no staging buffer.
    /// They are kept so existing callers that still allocate one compile.
    ///
    /// All PEs must call this collectively with identical arguments.
    ///
    /// # Panics
    /// If `a` is not below the per-PE boundary or `b` not at/above it.
    pub fn exchange_pair(&self, a: u32, b: u32, _xch_re: &SymF64, _xch_im: &SymF64) {
        assert!(a < self.shift, "low position must be intra-partition");
        assert!(b >= self.shift, "high position must be partition-indexing");
        let pe = self.ctx.my_pe();
        let pe_bit = b - self.shift;
        let partner = pe ^ (1usize << pe_bit);
        let my_hi = (pe >> pe_bit) & 1 == 1;
        let run = 1usize << a;
        // Amplitude `w` of either PE's half of the pair sits in run
        // `w >> a`, one run further on the lo-side PE than on the hi-side.
        let at = |w: usize, lo_side: bool| w + (((w >> a) + usize::from(lo_side)) << a);
        let half = (self.mask + 1) as usize / 2;
        let share = if my_hi { half / 2..half } else { 0..half / 2 };
        let piece = run.min(share.len().max(1));
        let pieces = (share.step_by(piece)).map(|w| (at(w, !my_hi), at(w, my_hi)));
        if let Some(lent) = self.lent {
            let side = |(re, im): Plane<'a>, at: usize| re[at..at + piece].iter().zip(&im[at..]);
            for (m, t) in pieces {
                for (owner, at) in [(pe, m), (partner, t)] {
                    let words = at..at + piece;
                    self.borrow(owner, words, &[PeOp::Get, PeOp::Put], 1, piece as u64);
                }
                for ((xr, xi), (yr, yi)) in side(lent[pe], m).zip(side(lent[partner], t)) {
                    let (r, i) = (xr.get(), xi.get());
                    xr.set(yr.get());
                    xi.set(yi.get());
                    yr.set(r);
                    yi.set(i);
                }
            }
        } else {
            let (mut x, mut y) = (vec![0.0f64; piece], vec![0.0f64; piece]);
            for (m, t) in pieces {
                for sym in [self.re, self.im] {
                    self.ctx.get_slice_f64(sym, pe, m, &mut x);
                    self.ctx.get_slice_f64(sym, partner, t, &mut y);
                    self.ctx.put_slice_f64(sym, pe, m, &y);
                    self.ctx.put_slice_f64(sym, partner, t, &x);
                }
            }
        }
        self.ctx.barrier_all();
    }
}

impl StateView for ShmemView<'_, '_> {
    #[inline]
    fn dim(&self) -> u64 {
        self.dim
    }

    #[inline]
    fn get(&self, idx: u64) -> (f64, f64) {
        let (pe, off) = self.locate(idx);
        match self.lent {
            Some(lent) => {
                self.borrow(pe, off..off + 1, &[PeOp::Get], 1, 1);
                (lent[pe].0[off].get(), lent[pe].1[off].get())
            }
            None => (
                self.ctx.get_f64(self.re, pe, off),
                self.ctx.get_f64(self.im, pe, off),
            ),
        }
    }

    #[inline]
    fn set(&self, idx: u64, re: f64, im: f64) {
        let (pe, off) = self.locate(idx);
        match self.lent {
            Some(lent) => {
                self.borrow(pe, off..off + 1, &[PeOp::Put], 1, 1);
                lent[pe].0[off].set(re);
                lent[pe].1[off].set(im);
            }
            None => {
                self.ctx.put_f64(self.re, pe, off, re);
                self.ctx.put_f64(self.im, pe, off, im);
            }
        }
    }

    #[inline]
    fn run(&self, start: u64, max: u64) -> Option<Plane<'_>> {
        let (pe, (re, im)) = lend(self.lent?, self.shift, start, max)?;
        let (off, len) = ((start & self.mask) as usize, re.len());
        self.borrow(pe, off..off + len, &[PeOp::Get, PeOp::Put], len as u64, 1);
        Some((re, im))
    }

    const LENDS: Lends = Lends::Counted;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_view_roundtrip() {
        let mut re = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        let v = LocalView::new(&mut re, &mut im);
        assert_eq!(v.dim(), 8);
        v.set(3, 0.5, -0.5);
        assert_eq!(v.get(3), (0.5, -0.5));
        assert_eq!(re[3], 0.5);
        assert_eq!(im[3], -0.5);
    }

    #[test]
    fn local_view_lends_what_it_has() {
        let mut re: Vec<f64> = (0..8).map(f64::from).collect();
        let mut im = vec![0.0; 8];
        let v = LocalView::new(&mut re, &mut im);
        let (r, i) = v.run(2, 3).unwrap();
        assert_eq!((r.len(), i.len()), (3, 3));
        assert_eq!(r[0].get(), 2.0);
        r[2].set(-0.0);
        assert!(
            v.get(4).0.is_sign_negative(),
            "the lent cells are the state"
        );
        assert_eq!(v.run(6, 5).unwrap().0.len(), 2, "clipped at the end");
    }

    /// `n` partitions of `per` amplitudes holding their global index, negated
    /// in the imaginary plane.
    fn numbered(n: usize, per: usize) -> [Vec<Vec<f64>>; 2] {
        [1.0, -1.0].map(|sign| {
            (0..n)
                .map(|p| (0..per).map(|o| sign * (p * per + o) as f64).collect())
                .collect()
        })
    }

    fn shared(parts: &[Vec<f64>]) -> Vec<SharedF64Vec> {
        let part = |vals: &Vec<f64>| {
            let part = SharedF64Vec::new(vals.len(), 0.0);
            part.store_slice(0, vals);
            part
        };
        parts.iter().map(part).collect()
    }

    /// Both planes of `parts` as plain memory, partition by partition.
    fn planes<'a>([re, im]: &'a mut [Vec<Vec<f64>>; 2]) -> Vec<Plane<'a>> {
        let cells = |part: &'a mut Vec<f64>| Cell::from_mut(&mut part[..]).as_slice_of_cells();
        re.iter_mut()
            .map(cells)
            .zip(im.iter_mut().map(cells))
            .collect()
    }

    /// Run `walk` on PE 1 of a world of 4 thread PEs over symmetric arrays of
    /// `per` words per PE, and return what it returned.
    fn on_pe_1<T: Send>(
        per: usize,
        walk: impl Fn(&ShmemCtx<'_>, &SymF64, &SymF64) -> T + Sync,
    ) -> T {
        let out = svsim_shmem::launch(4, |ctx| {
            let re = ctx.malloc_f64(per).expect("alloc");
            let im = ctx.malloc_f64(per).expect("alloc");
            (ctx.my_pe() == 1).then(|| walk(ctx, &re, &im))
        })
        .unwrap();
        out.results.into_iter().nth(1).flatten().unwrap()
    }

    #[test]
    fn a_lent_run_clips_where_the_owning_partition_ends() {
        // 7 qubits over 4 partitions of 32, lent as plain memory to PE 1's
        // lending `ShmemView` in the scale-up shape. A Hadamard on the top
        // qubit pairs index i with i + 64; one worker walking all 64 items
        // asks for runs of 64 and is lent 32 at a time, from partitions
        // (0, 2) then (1, 3).
        let t = on_pe_1(32, |ctx, re, im| {
            let mut parts = numbered(4, 32);
            let lent = planes(&mut parts);
            let v = ShmemView::new(ctx, re, im).lending(&lent, Shape::AMPLITUDE);
            let (r, i) = v.run(4, 64).unwrap();
            assert_eq!((r.len(), i.len()), (28, 28), "partition 0 ends at 32");
            assert_eq!((r[0].get(), i[3].get()), (4.0, -7.0));
            let (r, _) = v.run(32, 64).unwrap();
            assert_eq!(r.len(), 32, "all of partition 1, not into partition 2");
            ctx.counters().snapshot()
        });
        // Credited as the per-word path would have counted: 28 remote and 32
        // local amplitudes, one get and one put of 16 bytes each.
        assert_eq!((t.remote_gets, t.remote_puts), (28, 28));
        assert_eq!((t.remote_get_bytes, t.remote_put_bytes), (448, 448));
        assert_eq!((t.local_gets, t.local_puts), (32, 32));

        // The kernels on top of it, on the top qubit (runs) and on qubit 0
        // (chunks of a stretch): the amplitudes and the counts of the
        // scale-up view that lends nothing.
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for target in [6, 0] {
            let gate = svsim_ir::Gate::new(svsim_ir::GateKind::H, &[target], &[]).unwrap();
            let mut queue = Vec::new();
            crate::compile::compile_gate(&gate, 7, true, &mut queue);
            let (id, args) = (queue[0].id, &queue[0].args);
            let [re, im] = numbered(4, 32);
            let (parts_re, parts_im) = (shared(&re), shared(&im));
            let by_word = PeCounters::default();
            crate::dispatch::resolve::<PeerView>(id)(
                &PeerView::new(&parts_re, &parts_im, 1, Some(&by_word)),
                args,
                0..args.work,
            );
            let (bulk, lent) = on_pe_1(32, |ctx, re, im| {
                let mut parts = numbered(4, 32);
                let lent = planes(&mut parts);
                let v = ShmemView::new(ctx, re, im).lending(&lent, Shape::AMPLITUDE);
                crate::dispatch::resolve::<ShmemView>(id)(&v, args, 0..args.work);
                let snapshot = ctx.counters().snapshot();
                (snapshot, parts)
            });
            let barriers = 0;
            assert_eq!(
                svsim_shmem::TrafficSnapshot { barriers, ..bulk },
                by_word.snapshot(),
                "H on {target}"
            );
            let words = |part: &SharedF64Vec| {
                let mut words = vec![0.0; part.len()];
                part.load_slice(0, &mut words);
                bits(words)
            };
            let [lent_re, lent_im] = lent;
            for p in 0..4 {
                assert_eq!(bits(lent_re[p].clone()), words(&parts_re[p]));
                assert_eq!(bits(lent_im[p].clone()), words(&parts_im[p]));
            }
        }

        // Partitions shorter than a chunk lend nothing.
        let half = LEND_ALIGN as usize / 2;
        let lends = on_pe_1(half, |ctx, re, im| {
            let mut parts = numbered(4, half);
            let lent = planes(&mut parts);
            let v = ShmemView::new(ctx, re, im).lending(&lent, Shape::AMPLITUDE);
            v.run(0, 4).is_some()
        });
        assert!(!lends);
    }

    #[test]
    fn peer_view_partition_arithmetic() {
        // 2 partitions of 4 amplitudes: idx 5 lands in partition 1, offset 1.
        let re: Vec<SharedF64Vec> = (0..2).map(|_| SharedF64Vec::new(4, 0.0)).collect();
        let im: Vec<SharedF64Vec> = (0..2).map(|_| SharedF64Vec::new(4, 0.0)).collect();
        let v = PeerView::new(&re, &im, 0, None);
        assert_eq!(v.dim(), 8);
        v.set(5, 1.25, 2.5);
        assert_eq!(re[1].load(1), 1.25);
        assert_eq!(im[1].load(1), 2.5);
        assert_eq!(v.get(5), (1.25, 2.5));
    }

    #[test]
    fn peer_view_counts_remote_accesses() {
        let re: Vec<SharedF64Vec> = (0..4).map(|_| SharedF64Vec::new(2, 0.0)).collect();
        let im: Vec<SharedF64Vec> = (0..4).map(|_| SharedF64Vec::new(2, 0.0)).collect();
        let counters = svsim_shmem::PeCounters::default();
        let v = PeerView::new(&re, &im, 1, Some(&counters));
        v.get(2); // partition 1: local
        v.get(0); // partition 0: remote
        v.set(7, 0.0, 0.0); // partition 3: remote
        let s = counters.snapshot();
        assert_eq!(s.local_gets, 1);
        assert_eq!(s.remote_gets, 1);
        assert_eq!(s.remote_puts, 1);
    }

    #[test]
    fn exchange_pair_realizes_a_physical_swap() {
        // 4 qubits over 4 PEs (per_pe = 4, boundary at position 2):
        // exchanging positions (0, 3) must permute amplitudes exactly like
        // a SWAP(0, 3) gate, using only bulk slab messages.
        let out = svsim_shmem::launch(4, |ctx| {
            let pe = ctx.my_pe();
            let re = ctx.malloc_f64(4).expect("alloc");
            let im = ctx.malloc_f64(4).expect("alloc");
            let xr = ctx.malloc_f64(2).expect("alloc");
            let xi = ctx.malloc_f64(2).expect("alloc");
            for off in 0..4 {
                let g = (pe * 4 + off) as f64;
                re.partition(pe).store(off, g);
                im.partition(pe).store(off, -g);
            }
            ctx.barrier_all();
            let v = ShmemView::new(ctx, &re, &im);
            v.exchange_pair(0, 3, &xr, &xi);
        })
        .unwrap();
        // Read after the join, from the heap the PEs left behind.
        let (re, im) = (&out.heap[0], &out.heap[1]);
        for i in 0u64..16 {
            let j = if (i & 1) != ((i >> 3) & 1) {
                i ^ 0b1001
            } else {
                i
            };
            let (pe, off) = ((i >> 2) as usize, (i & 3) as usize);
            assert_eq!(re.partition(pe).load(off), j as f64, "re at {i}");
            assert_eq!(im.partition(pe).load(off), -(j as f64), "im at {i}");
        }
        // Each PE swaps one of its pair's two amplitude pairs: per
        // component one remote get and one remote put of 8 bytes (run
        // length 2^0 = 1 word), as many bytes as the half it gives away.
        for t in &out.traffic {
            assert_eq!(t.remote_puts, 2);
            assert_eq!(t.remote_put_bytes, 16);
            assert_eq!(t.remote_gets, 2);
            assert_eq!(t.remote_get_bytes, 16);
        }
    }

    #[test]
    fn shmem_view_roundtrip() {
        let out = svsim_shmem::launch(2, |ctx| {
            let re = ctx.malloc_f64(4).expect("alloc");
            let im = ctx.malloc_f64(4).expect("alloc");
            let v = ShmemView::new(ctx, &re, &im);
            assert_eq!(v.dim(), 8);
            if ctx.my_pe() == 0 {
                v.set(6, 3.0, 4.0); // lands on PE 1, offset 2
            }
            ctx.barrier_all();
            v.get(6)
        })
        .unwrap();
        assert_eq!(out.results, vec![(3.0, 4.0), (3.0, 4.0)]);
        // PE0's set crossed the fabric: 2 remote puts (re + im).
        assert_eq!(out.traffic[0].remote_puts, 2);
    }
}
