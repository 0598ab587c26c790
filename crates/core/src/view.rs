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
//! On a PE of either partitioned backend a kernel therefore reaches `sv[i]`
//! one of three ways: through the peer table, through one-sided words, or —
//! when index arithmetic says every access of the PE's share stays in its
//! own partition ([`crate::traffic::partition_local`]) — through a
//! [`SlabView`] of that partition alone, a pointer dereference with no
//! partition arithmetic and no per-access accounting (the paper's
//! local-versus-remote split, Listings 4-5).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use svsim_shmem::{SharedF64Vec, ShmemCtx, SymF64};

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
        assert_eq!(re.len(), im.len());
        Self {
            re: Cell::from_mut(re).as_slice_of_cells(),
            im: Cell::from_mut(im).as_slice_of_cells(),
        }
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
}

/// One PE's own partition of a symmetric-heap state vector as plain memory:
/// indices are partition-local (`0..dim()` is the slab, not the state), every
/// access is one relaxed load or store of the partition's own words, and
/// nothing is counted, traced or fault-checked per access — whoever runs a
/// kernel on it credits the PE's counters once for the whole kernel. Only a
/// kernel whose share of the work never leaves the partition may run on it;
/// the words stay relaxed atomics, so even a misuse is a wrong answer, never
/// undefined behaviour.
pub struct SlabView<'a> {
    re: &'a [AtomicU64],
    im: &'a [AtomicU64],
}

impl<'a> SlabView<'a> {
    /// View one PE's partitions of the real and imaginary planes
    /// ([`SymF64::partition`]).
    #[must_use]
    pub fn new(re: &'a SharedF64Vec, im: &'a SharedF64Vec) -> Self {
        assert_eq!(re.len(), im.len());
        Self {
            re: re.words(),
            im: im.words(),
        }
    }
}

impl StateView for SlabView<'_> {
    #[inline]
    fn dim(&self) -> u64 {
        self.re.len() as u64
    }

    #[inline]
    fn get(&self, idx: u64) -> (f64, f64) {
        (
            f64::from_bits(self.re[idx as usize].load(Ordering::Relaxed)),
            f64::from_bits(self.im[idx as usize].load(Ordering::Relaxed)),
        )
    }

    #[inline]
    fn set(&self, idx: u64, re: f64, im: f64) {
        self.re[idx as usize].store(re.to_bits(), Ordering::Relaxed);
        self.im[idx as usize].store(im.to_bits(), Ordering::Relaxed);
    }
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
    counters: Option<&'a svsim_shmem::PeCounters>,
}

impl<'a> PeerView<'a> {
    /// Build over per-device partitions (all equal power-of-two length).
    #[must_use]
    pub fn new(
        re_parts: &'a [SharedF64Vec],
        im_parts: &'a [SharedF64Vec],
        my_dev: usize,
        counters: Option<&'a svsim_shmem::PeCounters>,
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

/// Scale-out view: one-sided SHMEM access to a symmetric-heap state vector.
pub struct ShmemView<'a, 'w> {
    ctx: &'a ShmemCtx<'w>,
    re: &'a SymF64,
    im: &'a SymF64,
    shift: u32,
    mask: u64,
    dim: u64,
}

impl<'a, 'w> ShmemView<'a, 'w> {
    /// Build over symmetric arrays (power-of-two words per PE).
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
        }
    }
}

impl ShmemView<'_, '_> {
    /// Bulk slab exchange realizing a relabeling SWAP of physical qubit
    /// positions `a` (below the partition boundary) and `b` (at/above it).
    ///
    /// Every PE is paired with `partner = pe ^ (1 << (b - shift))`; the
    /// amplitude pairs to exchange sit in runs of `2^a` contiguous words
    /// (bit `a` of the local offset selects the outgoing half: hi-side PEs
    /// send their `bit_a = 0` runs, lo-side PEs their `bit_a = 1` runs).
    /// Two barrier epochs stage the move through the symmetric exchange
    /// buffers `xch_re`/`xch_im` (each `per_pe / 2` words):
    ///
    /// 1. each PE packs its outgoing runs into its *partner's* exchange
    ///    buffer — one `put_slice` message per run per component (the only
    ///    remote traffic of the whole swap); barrier;
    /// 2. each PE unpacks its own exchange buffer into the slots it just
    ///    sent away — purely local; barrier.
    ///
    /// Both epochs are race-free by construction: in epoch 1 every
    /// exchange-buffer word has exactly one writer (the owner's unique
    /// partner) and every state word one reader (its owner); epoch 2 is
    /// PE-local.
    ///
    /// All PEs must call this collectively with identical arguments.
    ///
    /// # Panics
    /// If `a` is not below the per-PE boundary or `b` not at/above it.
    pub fn exchange_pair(&self, a: u32, b: u32, xch_re: &SymF64, xch_im: &SymF64) {
        let per_pe = (self.mask + 1) as usize;
        assert!(a < self.shift, "low position must be intra-partition");
        assert!(b >= self.shift, "high position must be partition-indexing");
        let pe = self.ctx.my_pe();
        let pe_bit = b - self.shift;
        let partner = pe ^ (1usize << pe_bit);
        let my_hi = (pe >> pe_bit) & 1 == 1;
        let run = 1usize << a;
        let n_runs = per_pe / (2 * run);
        let mut buf = vec![0.0f64; run];
        for r in 0..n_runs {
            let src = 2 * r * run + if my_hi { 0 } else { run };
            for (sym, xch) in [(self.re, xch_re), (self.im, xch_im)] {
                self.ctx.get_slice_f64(sym, pe, src, &mut buf);
                self.ctx.put_slice_f64(xch, partner, r * run, &buf);
            }
        }
        self.ctx.barrier_all();
        for r in 0..n_runs {
            // Incoming data lands exactly where the outgoing data left:
            // the partner's run r is this PE's run r with bit `a` flipped.
            let dst = 2 * r * run + if my_hi { 0 } else { run };
            for (sym, xch) in [(self.re, xch_re), (self.im, xch_im)] {
                self.ctx.get_slice_f64(xch, pe, r * run, &mut buf);
                self.ctx.put_slice_f64(sym, pe, dst, &buf);
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
        let pe = (idx >> self.shift) as usize;
        let off = (idx & self.mask) as usize;
        (
            self.ctx.get_f64(self.re, pe, off),
            self.ctx.get_f64(self.im, pe, off),
        )
    }

    #[inline]
    fn set(&self, idx: u64, re: f64, im: f64) {
        let pe = (idx >> self.shift) as usize;
        let off = (idx & self.mask) as usize;
        self.ctx.put_f64(self.re, pe, off, re);
        self.ctx.put_f64(self.im, pe, off, im);
    }
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
    fn slab_view_is_the_partition_at_local_indices() {
        let re = SharedF64Vec::new(4, 0.0);
        let im = SharedF64Vec::new(4, 0.0);
        let v = SlabView::new(&re, &im);
        assert_eq!(v.dim(), 4);
        v.set(3, 0.5, -0.0);
        assert_eq!(v.get(3), (0.5, 0.0));
        assert_eq!(re.load(3), 0.5);
        assert!(im.load(3).is_sign_negative(), "bits stored as they are");
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
            (re.partition(pe).to_vec(), im.partition(pe).to_vec())
        })
        .unwrap();
        for i in 0u64..16 {
            let j = if (i & 1) != ((i >> 3) & 1) {
                i ^ 0b1001
            } else {
                i
            };
            let (pe, off) = ((i >> 2) as usize, (i & 3) as usize);
            assert_eq!(out.results[pe].0[off], j as f64, "re at {i}");
            assert_eq!(out.results[pe].1[off], -(j as f64), "im at {i}");
        }
        // Remote traffic is the phase-1 puts only: 2 runs x 2 components
        // per PE, 8 bytes each (run length 2^0 = 1 word).
        for t in &out.traffic {
            assert_eq!(t.remote_puts, 4);
            assert_eq!(t.remote_put_bytes, 32);
            assert_eq!(t.remote_gets, 0);
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
