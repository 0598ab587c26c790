//! Epoch-scoped dynamic race detection for the one-sided access protocol.
//!
//! SHMEM's correctness contract (paper §2.2) is that one-sided accesses
//! between two barriers must be conflict-free: the fabric orders nothing,
//! so a conflicting `put`/`get` pair is a silent amplitude corruption. This
//! module is the TSan-style runtime half of the access-protocol analysis
//! subsystem (the static half lives in `svsim-analyzer`): every word of an
//! instrumented symmetric array carries two shadow cells — the last writer
//! and the *full set* of readers in the current barrier epoch — and every
//! ctx access is checked against them.
//!
//! Because all synchronization in this model is the global sense-reversing
//! barrier, each PE's vector clock collapses to a single component: the
//! number of barriers it has passed ([`crate::world::ShmemCtx::barrier_epoch`]).
//! Two accesses to the same word are concurrent exactly when they carry the
//! same epoch and different PEs; the shadow cells therefore store
//! epoch-tagged PE sets and conflicts are classified as write/write or
//! read/write ([`ConflictKind`]).
//!
//! The detector *accumulates* [`RaceReport`]s instead of panicking, so
//! fault-injected runs can distinguish injected faults (typed `PeFailed`
//! errors) from genuine protocol violations (non-empty race reports).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use svsim_types::{SvError, SvResult};

/// Width of the PE field in a shadow stamp: `stamp = (epoch + 1) *
/// PE_STRIDE + pe + 1`, with 0 reserved for "untouched".
pub const PE_STRIDE: u64 = 1 << 16;

/// Largest PE count the reader-set shadow cells can track exactly (a
/// 20-bit PE mask below a 24-bit epoch tag in one `u64`).
pub const MAX_TRACKED_PES: usize = 20;

/// Reports kept verbatim per detector; beyond this only the total count
/// advances (a racy program produces unbounded duplicates otherwise).
const MAX_REPORTS: usize = 256;

/// Encode a `(barrier epoch, pe)` pair into a nonzero shadow stamp.
///
/// The all-zero stamp is reserved for "untouched", so both fields are
/// biased by one. The PE field holds `pe + 1` in `PE_STRIDE` values; a PE
/// rank of `PE_STRIDE - 1` or above would carry into the epoch field
/// (see [`decode_stamp`]), which is why detectors refuse worlds larger
/// than [`MAX_TRACKED_PES`].
#[inline]
#[must_use]
pub fn encode_stamp(epoch: u64, pe: usize) -> u64 {
    debug_assert!(
        (pe as u64) + 1 < PE_STRIDE,
        "PE rank {pe} overflows the stamp PE field"
    );
    (epoch + 1) * PE_STRIDE + pe as u64 + 1
}

/// Decode a shadow stamp back into `(barrier epoch, pe)`.
///
/// Returns `None` for the reserved untouched stamp (0) and for any stamp
/// whose PE field is 0 — the encoding a rank of `PE_STRIDE - 1` would
/// alias into; a bare `stamp % PE_STRIDE - 1` would underflow on exactly
/// these stamps.
#[inline]
#[must_use]
pub fn decode_stamp(stamp: u64) -> Option<(u64, usize)> {
    let pe_field = stamp % PE_STRIDE;
    if stamp == 0 || pe_field == 0 {
        return None;
    }
    Some((stamp / PE_STRIDE - 1, (pe_field - 1) as usize))
}

/// How two same-epoch accesses to one word conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictKind {
    /// Two plain writes from different PEs.
    WriteWrite,
    /// A plain write and a plain read from different PEs (either order).
    ReadWrite,
}

impl std::fmt::Display for ConflictKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::WriteWrite => "write/write",
            Self::ReadWrite => "read/write",
        })
    }
}

/// One side of a detected conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceAccess {
    /// The accessing PE.
    pub pe: usize,
    /// Whether the access wrote the word.
    pub is_write: bool,
}

impl std::fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PE {} {}",
            self.pe,
            if self.is_write { "write" } else { "read" }
        )
    }
}

/// One detected protocol violation: two same-epoch accesses to the same
/// symmetric-heap word from different PEs, at least one of them a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceReport {
    /// Conflict classification.
    pub kind: ConflictKind,
    /// Allocation id of the symmetric array (assigned per detector, in
    /// shadow-creation order).
    pub array: u32,
    /// PE whose partition holds the conflicted word.
    pub owner_pe: usize,
    /// Word index within that partition.
    pub index: usize,
    /// Barrier epoch both accesses carried.
    pub epoch: u64,
    /// The earlier access (recovered from the shadow state).
    pub first: RaceAccess,
    /// The access that tripped the detector.
    pub second: RaceAccess,
}

impl std::fmt::Display for RaceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} conflict on word {}@PE{} of array #{}: {} vs {} in barrier epoch {}",
            self.kind, self.index, self.owner_pe, self.array, self.second, self.first, self.epoch
        )
    }
}

/// Shared accumulation sink: total count plus the first [`MAX_REPORTS`]
/// reports verbatim.
#[derive(Debug, Default)]
struct ReportSink {
    total: AtomicU64,
    reports: Mutex<Vec<RaceReport>>,
}

impl ReportSink {
    fn push(&self, r: RaceReport) {
        self.total.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut g) = self.reports.lock() {
            if g.len() < MAX_REPORTS {
                g.push(r);
            }
        }
    }
}

/// Epoch tag stored in the high 24 bits of a reader cell; always nonzero
/// so an all-zero cell means "untouched". Tags alias every `2^24 - 1`
/// epochs, which only matters for a word left untouched for exactly that
/// many barriers — accepted and documented.
#[inline]
fn epoch_tag(epoch: u64) -> u64 {
    (epoch % 0x00FF_FFFF) + 1
}

const READER_MASK: u64 = (1 << MAX_TRACKED_PES) - 1;

/// Per-allocation shadow state: one writer cell and one reader-set cell
/// per symmetric word, across all partitions.
///
/// Writer cell: `encode_stamp(epoch, pe)`, 0 untouched.
/// Reader cell: bits 0..20 reader PE mask, bits 40..64 epoch tag.
#[derive(Debug)]
pub struct ShadowArray {
    array: u32,
    len_per_pe: usize,
    writes: Box<[AtomicU64]>,
    reads: Box<[AtomicU64]>,
    sink: Arc<ReportSink>,
}

impl ShadowArray {
    #[inline]
    fn word(&self, owner_pe: usize, idx: usize) -> usize {
        debug_assert!(idx < self.len_per_pe);
        owner_pe * self.len_per_pe + idx
    }

    fn report(
        &self,
        kind: ConflictKind,
        owner_pe: usize,
        idx: usize,
        epoch: u64,
        first: RaceAccess,
        second: RaceAccess,
    ) -> RaceReport {
        let r = RaceReport {
            kind,
            array: self.array,
            owner_pe,
            index: idx,
            epoch,
            first,
            second,
        };
        self.sink.push(r);
        r
    }

    /// Record a write of `owner_pe`'s word `idx` by PE `me` in `epoch`.
    /// Returns the first conflict this access produced, if any (all
    /// conflicts are accumulated in the detector regardless).
    pub fn record_write(
        &self,
        me: usize,
        epoch: u64,
        owner_pe: usize,
        idx: usize,
    ) -> Option<RaceReport> {
        let w = self.word(owner_pe, idx);
        let mine = RaceAccess {
            pe: me,
            is_write: true,
        };
        let prev = self.writes[w].swap(encode_stamp(epoch, me), Ordering::AcqRel);
        let mut hit = None;
        if let Some((pepoch, ppe)) = decode_stamp(prev) {
            if pepoch == epoch && ppe != me {
                let first = RaceAccess {
                    pe: ppe,
                    is_write: true,
                };
                hit =
                    Some(self.report(ConflictKind::WriteWrite, owner_pe, idx, epoch, first, mine));
            }
        }
        // A write also conflicts with every same-epoch reader on another
        // PE (full reader set — not the old single-reader approximation).
        let readers = self.reads[w].load(Ordering::Relaxed);
        if readers >> 40 == epoch_tag(epoch) {
            let mut mask = readers & READER_MASK & !(1u64 << me);
            while mask != 0 {
                let pe = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let first = RaceAccess {
                    pe,
                    is_write: false,
                };
                let r = self.report(ConflictKind::ReadWrite, owner_pe, idx, epoch, first, mine);
                hit.get_or_insert(r);
            }
        }
        hit
    }

    /// Record a read of `owner_pe`'s word `idx` by PE `me` in `epoch`.
    pub fn record_read(
        &self,
        me: usize,
        epoch: u64,
        owner_pe: usize,
        idx: usize,
    ) -> Option<RaceReport> {
        let w = self.word(owner_pe, idx);
        let tag = epoch_tag(epoch);
        let my_bit = 1u64 << me;
        // Join the epoch's reader set (CAS loop: readers from many PEs
        // accumulate; a stale epoch's set is replaced wholesale).
        let cell = &self.reads[w];
        let mut cur = cell.load(Ordering::Relaxed);
        loop {
            let new = if cur >> 40 == tag {
                cur | my_bit
            } else {
                (tag << 40) | my_bit
            };
            match cell.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        // Check against the epoch's last writer.
        let (wepoch, wpe) = decode_stamp(self.writes[w].load(Ordering::Relaxed))?;
        if wepoch != epoch || wpe == me {
            return None;
        }
        let first = RaceAccess {
            pe: wpe,
            is_write: true,
        };
        let mine = RaceAccess {
            pe: me,
            is_write: false,
        };
        Some(self.report(ConflictKind::ReadWrite, owner_pe, idx, epoch, first, mine))
    }
}

/// The dynamic race detector: a factory for per-allocation shadow state
/// plus the shared report sink. A world launched with
/// [`crate::world::WorldOptions::detect_races`] creates one and owns it.
#[derive(Debug)]
pub(crate) struct RaceDetector {
    n_pes: usize,
    next_array: AtomicU32,
    sink: Arc<ReportSink>,
}

impl RaceDetector {
    /// Create a detector for an `n_pes`-PE world.
    ///
    /// # Errors
    /// [`SvError::InvalidConfig`] when `n_pes` exceeds
    /// [`MAX_TRACKED_PES`] (the reader-set shadow cells track at most
    /// that many PEs exactly).
    pub fn new(n_pes: usize) -> SvResult<Arc<Self>> {
        if n_pes == 0 || n_pes > MAX_TRACKED_PES {
            return Err(SvError::InvalidConfig(format!(
                "race detector supports 1..={MAX_TRACKED_PES} PEs, got {n_pes}"
            )));
        }
        Ok(Arc::new(Self {
            n_pes,
            next_array: AtomicU32::new(0),
            sink: Arc::new(ReportSink::default()),
        }))
    }

    /// Create shadow state for one symmetric allocation of `len_per_pe`
    /// words per PE. Called once per allocation (by PE 0 at publication).
    #[must_use]
    pub fn shadow(&self, len_per_pe: usize) -> Arc<ShadowArray> {
        let total = self.n_pes * len_per_pe;
        Arc::new(ShadowArray {
            array: self.next_array.fetch_add(1, Ordering::Relaxed),
            len_per_pe,
            writes: (0..total).map(|_| AtomicU64::new(0)).collect(),
            reads: (0..total).map(|_| AtomicU64::new(0)).collect(),
            sink: Arc::clone(&self.sink),
        })
    }

    /// Total conflicts recorded (including any beyond the report cap).
    #[cfg(test)]
    pub fn race_count(&self) -> u64 {
        self.sink.total.load(Ordering::Relaxed)
    }

    /// Snapshot of the accumulated reports (first `MAX_REPORTS` kept).
    #[cfg(test)]
    pub fn reports(&self) -> Vec<RaceReport> {
        self.sink
            .reports
            .lock()
            .map(|g| g.clone())
            .unwrap_or_default()
    }

    /// Drain the accumulated reports and reset the count.
    #[must_use]
    pub fn take_reports(&self) -> Vec<RaceReport> {
        self.sink.total.store(0, Ordering::Relaxed);
        self.sink
            .reports
            .lock()
            .map(|mut g| std::mem::take(&mut *g))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_roundtrip_and_untouched() {
        // Satellite hardening: the untouched stamp must decode to None
        // instead of underflowing `stamp % PE_STRIDE - 1`.
        assert_eq!(decode_stamp(0), None);
        for (epoch, pe) in [(0u64, 0usize), (1, 3), (41, 19), (1 << 30, 7)] {
            assert_eq!(decode_stamp(encode_stamp(epoch, pe)), Some((epoch, pe)));
        }
        // Largest encodable rank round-trips exactly.
        let max_pe = (PE_STRIDE - 2) as usize;
        assert_eq!(decode_stamp(encode_stamp(5, max_pe)), Some((5, max_pe)));
    }

    #[test]
    fn stamp_pe_overflow_is_rejected_not_misdecoded() {
        // A world of PE_STRIDE PEs would encode rank PE_STRIDE-1 as the
        // *next* epoch's reserved zero slot: `(e+1)*S + S = (e+2)*S`.
        // decode_stamp must refuse that stamp rather than invent epoch
        // e+1 / PE "-1"; detectors additionally refuse such worlds.
        let aliased = (5 + 1) * PE_STRIDE + (PE_STRIDE - 1) + 1;
        assert_eq!(aliased % PE_STRIDE, 0);
        assert_eq!(decode_stamp(aliased), None);
        assert!(RaceDetector::new(MAX_TRACKED_PES + 1).is_err());
        assert!(RaceDetector::new(0).is_err());
    }

    fn det2() -> (Arc<RaceDetector>, Arc<ShadowArray>) {
        let d = RaceDetector::new(4).unwrap();
        let s = d.shadow(8);
        (d, s)
    }

    #[test]
    fn disjoint_and_cross_epoch_accesses_are_clean() {
        let (d, s) = det2();
        assert!(s.record_write(0, 0, 0, 0).is_none());
        assert!(s.record_write(1, 0, 0, 1).is_none()); // other word
        assert!(s.record_write(1, 1, 0, 0).is_none()); // other epoch
        assert!(s.record_read(2, 2, 0, 0).is_none()); // after barrier
        assert!(s.record_read(3, 2, 0, 0).is_none()); // read/read ok
        assert_eq!(d.race_count(), 0);
    }

    #[test]
    fn write_write_same_epoch_is_flagged() {
        let (d, s) = det2();
        assert!(s.record_write(0, 3, 1, 5).is_none());
        let r = s.record_write(2, 3, 1, 5).expect("conflict");
        assert_eq!(r.kind, ConflictKind::WriteWrite);
        assert_eq!((r.first.pe, r.second.pe), (0, 2));
        assert_eq!((r.owner_pe, r.index, r.epoch), (1, 5, 3));
        assert_eq!(d.race_count(), 1);
    }

    #[test]
    fn full_reader_set_catches_what_single_reader_missed() {
        // The old single-reader shadow lost reader A once reader B (== the
        // later writer) overwrote the cell. The set-based cells keep both.
        let (d, s) = det2();
        assert!(s.record_read(0, 1, 0, 2).is_none()); // reader A
        assert!(s.record_read(1, 1, 0, 2).is_none()); // reader B
        let r = s.record_write(1, 1, 0, 2).expect("A vs B's write");
        assert_eq!(r.kind, ConflictKind::ReadWrite);
        assert_eq!(
            r.first,
            RaceAccess {
                pe: 0,
                is_write: false
            }
        );
        assert_eq!(r.second.pe, 1);
        assert_eq!(d.race_count(), 1);
    }

    #[test]
    fn read_after_write_and_write_after_read_are_flagged() {
        let (_, s) = det2();
        s.record_write(0, 0, 0, 0);
        let r = s.record_read(1, 0, 0, 0).expect("r after w");
        assert_eq!(r.kind, ConflictKind::ReadWrite);
        assert!(r.first.is_write && !r.second.is_write);

        s.record_read(2, 1, 3, 4);
        let r = s.record_write(3, 1, 3, 4).expect("w after r");
        assert_eq!(r.kind, ConflictKind::ReadWrite);
        assert_eq!((r.first.pe, r.second.pe), (2, 3));
    }

    #[test]
    fn same_pe_rmw_never_conflicts_with_itself() {
        let (d, s) = det2();
        s.record_read(1, 0, 0, 0);
        assert!(s.record_write(1, 0, 0, 0).is_none());
        assert!(s.record_read(1, 0, 0, 0).is_none());
        assert_eq!(d.race_count(), 0);
    }

    #[test]
    fn reports_accumulate_and_drain() {
        let (d, s) = det2();
        for i in 0..3 {
            s.record_write(0, 0, 0, i);
            s.record_write(1, 0, 0, i);
        }
        assert_eq!(d.race_count(), 3);
        let all = d.reports();
        assert_eq!(all.len(), 3);
        assert_eq!(d.take_reports().len(), 3);
        assert_eq!(d.race_count(), 0);
        assert!(d.reports().is_empty());
    }
}
