//! Shared word-addressable buffers backing the symmetric heap.
//!
//! Real SHMEM exposes remote memory through plain one-sided loads/stores
//! with *no* implied synchronization — data races between barriers are the
//! programmer's responsibility. To model those semantics soundly in Rust,
//! every word is a relaxed atomic: on mainstream ISAs a relaxed `load`/
//! `store` compiles to a plain `mov`, so this costs nothing while keeping
//! the behaviour defined.
//!
//! A buffer's words live in one of two places, invisible to every caller:
//!
//! - **Owned** — a heap allocation in this process (the thread-backed
//!   world, where PEs are threads of one address space).
//! - **Mapped** — a window into a `MAP_SHARED` arena (the process-backed
//!   world of [`crate::proc`], where PEs are forked OS processes and the
//!   symmetric heap is a `memfd` mapping every PE sees at the same bytes).
//!
//! All accessors are identical across the two, which is what lets the same
//! SPMD body run on either backend.

use std::any::Any;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a shared buffer's words live.
enum Storage {
    /// Process-private heap words (thread-backed world).
    Owned(Box<[AtomicU64]>),
    /// A window into an OS-shared mapping (process-backed world). The
    /// keepalive pins the mapping for as long as any handle is alive, so
    /// the raw pointer cannot dangle.
    Mapped {
        ptr: *const AtomicU64,
        len: usize,
        _keep: Arc<dyn Any + Send + Sync>,
    },
}

// SAFETY: Owned is Send+Sync by construction (AtomicU64 words). Mapped
// points into a MAP_SHARED region whose lifetime is pinned by `_keep`; all
// access goes through atomics, so sharing across threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for Storage {}
// SAFETY: as for `Send`: every access through a shared reference is atomic,
// and `_keep` pins the mapping.
#[allow(unsafe_code)]
unsafe impl Sync for Storage {}

impl Storage {
    #[inline]
    fn cells(&self) -> &[AtomicU64] {
        match self {
            Self::Owned(words) => words,
            // SAFETY: `ptr` points at `len` initialized AtomicU64 words in
            // a mapping that `_keep` holds alive; AtomicU64 has no padding
            // or invalid bit patterns, and the arena zero-initializes.
            #[allow(unsafe_code)]
            Self::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Owned(w) => write!(f, "Owned({} words)", w.len()),
            Self::Mapped { len, .. } => write!(f, "Mapped({len} words)"),
        }
    }
}

/// A fixed-length shared buffer of `f64` words with one-sided access.
#[derive(Debug)]
pub struct SharedF64Vec {
    storage: Storage,
}

impl SharedF64Vec {
    /// Allocate, initialized to `init`.
    #[must_use]
    pub fn new(len: usize, init: f64) -> Self {
        let bits = init.to_bits();
        Self {
            storage: Storage::Owned((0..len).map(|_| AtomicU64::new(bits)).collect()),
        }
    }

    /// Wrap `len` words of an OS-shared mapping starting at `ptr`.
    ///
    /// # Safety
    /// `ptr` must point at `len` readable+writable `u64` words that stay
    /// mapped for as long as `keep` is alive, and the words must only ever
    /// be accessed atomically (which every mapping produced by
    /// [`crate::proc`] guarantees).
    #[allow(unsafe_code)]
    pub(crate) unsafe fn from_raw(
        ptr: *const AtomicU64,
        len: usize,
        keep: Arc<dyn Any + Send + Sync>,
    ) -> Self {
        Self {
            storage: Storage::Mapped {
                ptr,
                len,
                _keep: keep,
            },
        }
    }

    #[inline]
    fn cells(&self) -> &[AtomicU64] {
        self.storage.cells()
    }

    /// Length in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// True if empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells().is_empty()
    }

    /// One-sided load (relaxed; `shmem_double_g` semantics).
    #[inline]
    #[must_use]
    pub fn load(&self, idx: usize) -> f64 {
        f64::from_bits(self.cells()[idx].load(Ordering::Relaxed))
    }

    /// One-sided store (relaxed; `shmem_double_p` semantics).
    #[inline]
    pub fn store(&self, idx: usize, v: f64) {
        self.cells()[idx].store(v.to_bits(), Ordering::Relaxed);
    }

    /// The buffer's words as plain memory (the `shmem_ptr` analog): the same
    /// words [`load`](Self::load) and [`store`](Self::store) reach, an
    /// `f64` each, for kernels to sweep without an atomic access — which the
    /// compiler will not vectorize — per word.
    ///
    /// Accesses through the returned cells are ordinary, non-atomic loads
    /// and stores; keeping them free of data races is the caller's part.
    ///
    /// # Safety
    /// While a thread or process reads or writes a word through these cells,
    /// no other may write it (nor read it, if this one writes) by any means
    /// — these cells, the atomic accessors, another mapping of the memory —
    /// without a happens-before edge in between, such as a world barrier's
    /// release/acquire pair. The SHMEM contract, one owner per word per
    /// barrier epoch, is exactly that.
    #[inline]
    #[must_use]
    #[allow(unsafe_code)]
    pub unsafe fn as_cells(&self) -> &[Cell<f64>] {
        let words = self.cells();
        // SAFETY: `AtomicU64` has the size and bit validity of `u64` and at
        // least its alignment, `Cell<f64>` those of `f64`, and every 64-bit
        // pattern is a valid `f64`; both permit mutation through a shared
        // reference, and the slice covers exactly the words `cells` borrows
        // for `&self`'s lifetime. The caller answers for data races.
        unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<Cell<f64>>(), words.len()) }
    }

    /// Copy `dst.len()` words starting at `src_start` into `dst`.
    pub fn load_slice(&self, src_start: usize, dst: &mut [f64]) {
        let src = &self.cells()[src_start..src_start + dst.len()];
        for (d, w) in dst.iter_mut().zip(src) {
            *d = f64::from_bits(w.load(Ordering::Relaxed));
        }
    }

    /// Copy `src` into the buffer starting at `dst_start`.
    pub fn store_slice(&self, dst_start: usize, src: &[f64]) {
        let dst = &self.cells()[dst_start..dst_start + src.len()];
        for (w, &v) in dst.iter().zip(src) {
            w.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn f64_roundtrip_and_init() {
        let v = SharedF64Vec::new(4, 1.5);
        assert_eq!(v.len(), 4);
        assert_eq!(v.load(2), 1.5);
        v.store(2, -0.25);
        assert_eq!(v.load(2), -0.25);
        assert_eq!(v.load(1), 1.5);
    }

    #[test]
    fn f64_slices() {
        let v = SharedF64Vec::new(8, 0.0);
        v.store_slice(2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0; 3];
        v.load_slice(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        let mut head = [1.0; 2];
        v.load_slice(0, &mut head);
        assert_eq!(head, [0.0, 0.0]);
    }

    #[test]
    fn nan_and_negative_zero_bits_preserved() {
        let v = SharedF64Vec::new(1, 0.0);
        v.store(0, -0.0);
        assert!(v.load(0).is_sign_negative());
        v.store(0, f64::NAN);
        assert!(v.load(0).is_nan());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_panics() {
        let v = SharedF64Vec::new(2, 0.0);
        let _ = v.load(2);
    }

    #[test]
    fn mapped_storage_matches_owned_behaviour() {
        // An owned buffer standing in for an arena: view its words through
        // a Mapped handle and check every accessor agrees.
        let backing: Arc<Box<[AtomicU64]>> = Arc::new((0..8).map(|_| AtomicU64::new(0)).collect());
        let keep: Arc<dyn std::any::Any + Send + Sync> = Arc::clone(&backing) as _;
        #[allow(unsafe_code)]
        // SAFETY: `backing` outlives the view via the keepalive clone.
        let v = unsafe { SharedF64Vec::from_raw(backing.as_ptr(), 8, keep) };
        assert_eq!(v.len(), 8);
        v.store(3, 2.5);
        assert_eq!(v.load(3), 2.5);
        v.store_slice(0, &[1.0, 2.0]);
        let mut head = [0.0; 2];
        v.load_slice(0, &mut head);
        assert_eq!(head, [1.0, 2.0]);
        // SAFETY: this thread is the only one touching `v`.
        #[allow(unsafe_code)]
        let cells = unsafe { v.as_cells() };
        assert_eq!(cells[1].get(), 2.0);
        cells[1].set(-0.0);
        assert!(v.load(1).is_sign_negative(), "bits stored as they are");
        // The mapped view writes through to the backing words.
        assert_eq!(f64::from_bits(backing[3].load(Ordering::Relaxed)), 2.5);
    }
}
