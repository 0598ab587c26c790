//! Per-PE communication traffic counters.
//!
//! Every one-sided access through a [`crate::ShmemCtx`] is classified as
//! local (lands in the calling PE's own partition) or remote. The resulting
//! traffic profile is what drives the interconnect performance model in
//! `svsim-perfmodel`: the functional run *measures* the message counts and
//! volumes; the model prices them for a given fabric.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads and aligns a value to 128 bytes so adjacent per-PE counter blocks
/// never share a cache line (the `crossbeam` `CachePadded` idea, inlined
/// here to keep the workspace dependency-free). 128 covers the spatial
/// prefetcher pairing on x86 and the 128-byte lines on POWER/apple-silicon.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Mutable per-PE counters (cache-padded to avoid false sharing between PEs).
///
/// **One writer per block.** Only the PE that owns a block bumps it — its
/// own [`crate::ShmemCtx`] accessors and barrier, or a view crediting
/// [`crate::ShmemCtx::counters`] itself — so a bump is a relaxed load and a
/// relaxed store, not a locked read-modify-write on the per-word hot path.
/// Anyone may [`snapshot`](Self::snapshot) concurrently and reads each word
/// whole; two writers on one block would lose counts, so never hand one
/// block to two threads.
///
/// `repr(C)` with a fixed field order so a zero-initialized block of a
/// `MAP_SHARED` arena can host a counter block directly (the process-backed
/// world of [`crate::proc`] places one per PE in the shared mapping; an
/// all-zero byte pattern is exactly the `Default` state).
#[derive(Debug, Default)]
#[repr(C)]
pub struct PeCounters {
    local_gets: AtomicU64,
    remote_gets: AtomicU64,
    local_puts: AtomicU64,
    remote_puts: AtomicU64,
    remote_get_bytes: AtomicU64,
    remote_put_bytes: AtomicU64,
    barriers: AtomicU64,
}

/// The single writer's bump (see [`PeCounters`]); wraps like `fetch_add`.
#[inline]
fn bump(word: &AtomicU64, by: u64) {
    word.store(
        word.load(Ordering::Relaxed).wrapping_add(by),
        Ordering::Relaxed,
    );
}

impl PeCounters {
    /// Count one get; remote gets also accumulate transferred bytes.
    #[inline]
    pub fn count_get(&self, remote: bool, bytes: u64) {
        self.count_gets(remote, 1, bytes);
    }

    /// Count one put; remote puts also accumulate transferred bytes.
    #[inline]
    pub fn count_put(&self, remote: bool, bytes: u64) {
        self.count_puts(remote, 1, bytes);
    }

    /// Count `ops` gets of `bytes` each at once, as [`Self::count_get`]
    /// would one by one.
    #[inline]
    pub fn count_gets(&self, remote: bool, ops: u64, bytes: u64) {
        if remote {
            bump(&self.remote_gets, ops);
            bump(&self.remote_get_bytes, ops * bytes);
        } else {
            bump(&self.local_gets, ops);
        }
    }

    /// Count `ops` puts of `bytes` each at once, as [`Self::count_put`]
    /// would one by one.
    #[inline]
    pub fn count_puts(&self, remote: bool, ops: u64, bytes: u64) {
        if remote {
            bump(&self.remote_puts, ops);
            bump(&self.remote_put_bytes, ops * bytes);
        } else {
            bump(&self.local_puts, ops);
        }
    }

    /// Credit `ops` gets and as many puts of `bytes` each at once: what a
    /// kernel that reached a partition as plain memory — its own, or one it
    /// borrowed a run of — would have counted access by access.
    #[inline]
    pub fn credit(&self, remote: bool, ops: u64, bytes: u64) {
        self.count_gets(remote, ops, bytes);
        self.count_puts(remote, ops, bytes);
    }

    /// Count one barrier crossing.
    #[inline]
    pub fn count_barrier(&self) {
        bump(&self.barriers, 1);
    }

    /// Immutable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> TrafficSnapshot {
        TrafficSnapshot {
            local_gets: self.local_gets.load(Ordering::Relaxed),
            remote_gets: self.remote_gets.load(Ordering::Relaxed),
            local_puts: self.local_puts.load(Ordering::Relaxed),
            remote_puts: self.remote_puts.load(Ordering::Relaxed),
            remote_get_bytes: self.remote_get_bytes.load(Ordering::Relaxed),
            remote_put_bytes: self.remote_put_bytes.load(Ordering::Relaxed),
            barriers: self.barriers.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one PE's traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSnapshot {
    /// One-sided loads resolved within the PE's own partition.
    pub local_gets: u64,
    /// One-sided loads that crossed to another PE.
    pub remote_gets: u64,
    /// One-sided stores resolved locally.
    pub local_puts: u64,
    /// One-sided stores that crossed to another PE.
    pub remote_puts: u64,
    /// Bytes moved by remote gets.
    pub remote_get_bytes: u64,
    /// Bytes moved by remote puts.
    pub remote_put_bytes: u64,
    /// `barrier_all` calls.
    pub barriers: u64,
}

impl TrafficSnapshot {
    /// Total one-sided operations.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.local_gets + self.remote_gets + self.local_puts + self.remote_puts
    }

    /// Total remote operations (messages on the fabric).
    #[must_use]
    pub fn remote_ops(&self) -> u64 {
        self.remote_gets + self.remote_puts
    }

    /// Total bytes crossing the fabric.
    #[must_use]
    pub fn remote_bytes(&self) -> u64 {
        self.remote_get_bytes + self.remote_put_bytes
    }

    /// Fraction of operations that were remote (0 when idle).
    #[must_use]
    pub fn remote_fraction(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 {
            0.0
        } else {
            self.remote_ops() as f64 / total as f64
        }
    }

    /// Element-wise sum (for aggregating a whole job).
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            local_gets: self.local_gets + other.local_gets,
            remote_gets: self.remote_gets + other.remote_gets,
            local_puts: self.local_puts + other.local_puts,
            remote_puts: self.remote_puts + other.remote_puts,
            remote_get_bytes: self.remote_get_bytes + other.remote_get_bytes,
            remote_put_bytes: self.remote_put_bytes + other.remote_put_bytes,
            barriers: self.barriers + other.barriers,
        }
    }
}

/// Where a [`MetricsTable`]'s counter blocks live: process-private (the
/// thread-backed world) or inside an OS-shared mapping (the process-backed
/// world, where every PE process and the launcher must see one table).
#[derive(Debug)]
enum TableStore {
    Owned(Vec<CachePadded<PeCounters>>),
    Mapped {
        base: *const u8,
        n: usize,
        stride: usize,
    },
}

// SAFETY: Owned blocks are atomics; Mapped points into a MAP_SHARED arena
// the owning `World` keeps alive, and every access is atomic.
#[allow(unsafe_code)]
unsafe impl Send for TableStore {}
// SAFETY: shared references only ever read `Mapped`'s fields and reach the
// arena through atomics, as above.
#[allow(unsafe_code)]
unsafe impl Sync for TableStore {}

/// The metrics table for a whole world: one padded counter block per PE.
#[derive(Debug)]
pub struct MetricsTable {
    store: TableStore,
}

impl MetricsTable {
    /// Table for `n_pes` PEs.
    #[must_use]
    pub fn new(n_pes: usize) -> Self {
        Self {
            store: TableStore::Owned(
                (0..n_pes)
                    .map(|_| CachePadded::new(PeCounters::default()))
                    .collect(),
            ),
        }
    }

    /// View `n` counter blocks of `stride` bytes each inside an OS-shared
    /// mapping starting at `base`.
    ///
    /// # Safety
    /// `base` must point at `n * stride` zero-initialized, readable and
    /// writable bytes that stay mapped for the lifetime of the owning
    /// `World`; `stride` must be at least `size_of::<PeCounters>()` and a
    /// multiple of the counter alignment.
    #[allow(unsafe_code)]
    pub(crate) unsafe fn from_raw(base: *const u8, n: usize, stride: usize) -> Self {
        debug_assert!(stride >= std::mem::size_of::<PeCounters>());
        debug_assert_eq!(base.align_offset(std::mem::align_of::<PeCounters>()), 0);
        Self {
            store: TableStore::Mapped { base, n, stride },
        }
    }

    /// Number of PEs covered.
    #[must_use]
    pub fn n_pes(&self) -> usize {
        match &self.store {
            TableStore::Owned(v) => v.len(),
            TableStore::Mapped { n, .. } => *n,
        }
    }

    /// Counters of one PE.
    #[must_use]
    pub fn pe(&self, pe: usize) -> &PeCounters {
        match &self.store {
            TableStore::Owned(v) => &v[pe],
            TableStore::Mapped { base, n, stride } => {
                assert!(pe < *n, "PE {pe} out of range for {n} counter blocks");
                // SAFETY: in-bounds per the assert; the block is a
                // zero-initialized repr(C) PeCounters in a live mapping
                // (see from_raw's contract), and all-zero is a valid state.
                #[allow(unsafe_code)]
                unsafe {
                    &*base.add(pe * stride).cast::<PeCounters>()
                }
            }
        }
    }

    /// Snapshot of every PE.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<TrafficSnapshot> {
        (0..self.n_pes()).map(|p| self.pe(p).snapshot()).collect()
    }

    /// Aggregate over all PEs.
    #[must_use]
    pub fn aggregate(&self) -> TrafficSnapshot {
        self.snapshot_all()
            .iter()
            .fold(TrafficSnapshot::default(), |acc, s| acc.merged(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_aggregation() {
        let t = MetricsTable::new(2);
        t.pe(0).count_get(false, 8);
        t.pe(0).count_get(true, 8);
        t.pe(1).count_put(true, 8);
        t.pe(1).count_barrier();
        t.pe(1).credit(false, 5, 8);
        assert_eq!(t.pe(1).snapshot().local_gets, 5);
        assert_eq!(t.pe(1).snapshot().local_puts, 5);
        let s0 = t.pe(0).snapshot();
        assert_eq!(s0.local_gets, 1);
        assert_eq!(s0.remote_gets, 1);
        assert_eq!(s0.remote_get_bytes, 8);
        let agg = t.aggregate();
        assert_eq!(agg.total_ops(), 13);
        assert_eq!(agg.remote_ops(), 2);
        assert_eq!(agg.remote_bytes(), 16);
        assert_eq!(agg.barriers, 1);
    }

    #[test]
    fn bulk_credit_equals_counting_one_by_one() {
        let (bulk, single) = (PeCounters::default(), PeCounters::default());
        for remote in [false, true] {
            bulk.credit(remote, 3, 16);
            for _ in 0..3 {
                single.count_get(remote, 16);
                single.count_put(remote, 16);
            }
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
        assert_eq!(bulk.snapshot().remote_bytes(), 96);
    }

    #[test]
    fn mapped_table_counts_like_owned() {
        // Two 128-byte blocks of zeroed atomic words standing in for an
        // arena (atomics, so interior mutability through the view is sound).
        let backing: Box<[AtomicU64]> = (0..2 * 16).map(|_| AtomicU64::new(0)).collect();
        #[allow(unsafe_code)]
        // SAFETY: `backing` outlives `t`, is zeroed, and 128 >= block size.
        let t = unsafe { MetricsTable::from_raw(backing.as_ptr().cast(), 2, 128) };
        assert_eq!(t.n_pes(), 2);
        t.pe(0).count_get(true, 8);
        t.pe(1).count_put(false, 8);
        t.pe(1).count_barrier();
        let agg = t.aggregate();
        assert_eq!(agg.remote_gets, 1);
        assert_eq!(agg.local_puts, 1);
        assert_eq!(agg.barriers, 1);
        // Writes land in the backing words, not a private copy.
        assert!(backing.iter().any(|w| w.load(Ordering::Relaxed) != 0));
    }

    #[test]
    fn remote_fraction() {
        let t = MetricsTable::new(1);
        assert_eq!(t.aggregate().remote_fraction(), 0.0);
        t.pe(0).count_get(true, 8);
        t.pe(0).count_get(false, 8);
        t.pe(0).count_get(false, 8);
        t.pe(0).count_get(false, 8);
        assert!((t.aggregate().remote_fraction() - 0.25).abs() < 1e-12);
    }
}
