//! Process-backed SPMD world: PEs as forked OS processes over a shared
//! `memfd` mapping.
//!
//! The thread-backed world of [`crate::world`] models OpenSHMEM faithfully
//! for traffic and synchronization, but its PEs share one address space —
//! a "killed" PE is a thread that reports a typed failure and stops, not a
//! dead process. This module promotes the symmetric heap to a real
//! OS-shared mapping and the PEs to real processes, which buys the failure
//! mode the paper's scale (Summit/Theta/DGX pods) actually exhibits: a rank
//! can be `kill -9`-ed mid-epoch and the launcher, barrier, and engine
//! recovery path all keep working. Every other failure of a forked PE is a
//! typed value its run returns, exactly as on threads: no PE panics by
//! design, so children need no panic hook of their own.
//!
//! The substitution, piece by piece:
//!
//! - **Symmetric heap** — one `memfd_create` + `mmap(MAP_SHARED)` arena,
//!   laid out as a fixed header (barrier words, per-PE epoch/status slots,
//!   traffic counter blocks, reduction scratch, an allocation table) plus
//!   a bump-allocated heap of per-PE partitions. Every PE maps the region
//!   at the same address (inherited across `fork`), so the one-sided
//!   accessors are the *same code* as the thread backend — only the words
//!   live in OS-shared memory instead of a process-private `Box`.
//! - **PE launch** — [`launch_world`] on [`ShmemBackend::Process`] forks
//!   one child per PE; each child runs the same closure-driven SPMD body in
//!   the same PE harness as a thread PE, encodes its result into its arena
//!   slot and `_exit`s. The parent reaps with `waitpid` and maps an
//!   abnormal exit (signal, nonzero code) to a typed
//!   [`SvError::PeFailed`] carrying the signal number and the barrier
//!   epoch the child had reached when it died. After the reap the parent
//!   reads the symmetric heap the children left in the still-mapped arena
//!   ([`SpmdOutput::heap`]); the arena is unmapped when the last of those
//!   windows drops.
//! - **Barrier** — the same wait loop as the thread world
//!   ([`crate::barrier`]'s `wait_epoch`) over arena words, given a
//!   bounded-wait timeout and the PE's heartbeat word, so surviving PEs of
//!   a killed peer fail typed instead of hanging even if the reaper is
//!   slow.
//! - **Fault injection** — the same per-spec check routine as the thread
//!   world, over arena mirrors of a [`FaultPlan`]'s one-shot words: seeded
//!   from the plan's own words before forking and absorbed back into them
//!   after reaping, so cross-launch accumulation (checkpoint segments) and
//!   global one-shot disarming behave exactly as in the thread world. An
//!   injected [`FaultAction::Kill`] raises a *real* `SIGKILL` on the
//!   child; a [`FaultAction::Hang`] wedges it without dying.
//! - **Supervision** — the parent runs a supervisor combining WNOHANG
//!   reaping with a progress watchdog over per-PE heartbeat words (bumped
//!   at every barrier epoch, inside barrier waits, at fault points, and in
//!   the respawn park loop). A PE whose heartbeat stalls past
//!   [`ProcOptions::hang_deadline_ms`] is killed and reported as the typed
//!   [`SvError::PeHung`] — distinct from `PeFailed` (a reaped death) and
//!   from [`SvError::BarrierTimeout`] (a bounded barrier wait expiring).
//! - **In-place respawn** — with [`ProcOptions::respawn_max`] > 0, a death
//!   or hang does not tear the world down: surviving PEs park at the
//!   poisoned barrier, the parent resets the arena round state, re-forks
//!   *only* the dead/hung PEs, and every PE re-runs the SPMD body from its
//!   segment-initial state (the body closure captures it, so a re-run is
//!   bit-identical). Fired fault counters stay disarmed across rounds, so
//!   a one-shot fault cannot re-kill the respawned PE.
//!
//! Not supported here (thread-backend only, rejected with a typed error):
//! the vector-clock race detector — its shadow state is inherently
//! single-address-space (`Arc`s cannot cross a `fork`).

// The process backend is the one place in the workspace that must talk to
// the OS directly (memfd/mmap/fork/waitpid have no std equivalents and the
// workspace is dependency-free). All unsafety is confined to this module
// and the raw-window constructors it calls in `shared`/`metrics`.
#![allow(unsafe_code)]

use crate::barrier::{wait_epoch, BarrierToken, BarrierWaitError};
use crate::fault::{copy_words, FaultAction, FaultPlan};
use crate::metrics::MetricsTable;
use crate::proto::{self, MemOrder, ProtoMem};
use crate::shared::SharedF64Vec;
use crate::world::{call_order_violated, launch_world, ShmemCtx, SpmdOutput, World, WorldOptions};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svsim_types::{PeOp, SvError, SvResult};

/// Which substrate runs the SPMD PEs of a scale-out job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShmemBackend {
    /// PEs are threads of this process sharing a heap-allocated symmetric
    /// heap (the default; supports race detection).
    #[default]
    Thread,
    /// PEs are forked OS processes sharing a `memfd` arena (true crash
    /// isolation; a PE can be `kill -9`-ed without poisoning the host).
    Process,
}

/// Tuning for a process-backed launch.
#[derive(Debug, Clone)]
pub struct ProcOptions {
    /// Symmetric-heap capacity per PE, in 8-byte words. The arena reserves
    /// `n_pes * heap_words_per_pe` words; collective allocations that
    /// exceed it fail with a typed error instead of growing.
    pub heap_words_per_pe: usize,
    /// Capacity of each PE's result slot in bytes (the encoded return
    /// value of the SPMD body must fit).
    pub result_bytes_per_pe: usize,
    /// Bounded wait for the shared-memory barrier: a waiter that spins
    /// longer than this poisons the barrier and fails typed, so a lost
    /// peer can never hang the world even if the reaper is delayed.
    pub barrier_timeout_ms: u64,
    /// Watchdog deadline: a PE whose heartbeat words stall for longer than
    /// this is killed by the parent supervisor and reported as the typed
    /// `SvError::PeHung`. Heartbeats bump at every barrier epoch and
    /// inside barrier waits, so a PE legitimately blocked on a slow peer
    /// never trips the watchdog — only a truly wedged one does.
    pub hang_deadline_ms: u64,
    /// In-place respawn budget: how many recovery rounds the supervisor
    /// may run before giving up. `0` (the default) disables respawn — any
    /// PE failure fails the launch exactly as before. Each round re-forks
    /// only the dead/hung PEs and re-runs the SPMD body on every PE from
    /// its segment-initial state, preserving surviving processes.
    pub respawn_max: u32,
}

impl Default for ProcOptions {
    fn default() -> Self {
        Self {
            heap_words_per_pe: 1 << 16,
            result_bytes_per_pe: 1 << 16,
            barrier_timeout_ms: 30_000,
            hang_deadline_ms: 30_000,
            respawn_max: 0,
        }
    }
}

impl ProcOptions {
    /// Options sized for an SPMD body that allocates about
    /// `words_per_pe` symmetric f64 words and returns about
    /// `result_words_per_pe` words of data per PE (both padded with slack
    /// for headers and alignment).
    #[must_use]
    pub fn sized_for(words_per_pe: usize, result_words_per_pe: usize) -> Self {
        Self {
            heap_words_per_pe: words_per_pe + 1024,
            result_bytes_per_pe: 8 * result_words_per_pe + 4096,
            ..Self::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Raw OS bindings (glibc). The workspace is dependency-free, so the handful
// of syscalls the backend needs are declared directly.
// ---------------------------------------------------------------------------

mod sys {
    //! Minimal glibc bindings + decoded wrappers for the process backend.

    /// OS process id.
    pub type Pid = i32;

    pub const SIGKILL: i32 = 9;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;
    const MFD_CLOEXEC: u32 = 1;
    const WNOHANG: i32 = 1;

    extern "C" {
        fn memfd_create(name: *const u8, flags: u32) -> i32;
        fn ftruncate(fd: i32, length: i64) -> i32;
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
        fn close(fd: i32) -> i32;
        fn fork() -> Pid;
        fn waitpid(pid: Pid, status: *mut i32, options: i32) -> Pid;
        fn kill(pid: Pid, sig: i32) -> i32;
        fn getpid() -> Pid;
        fn _exit(code: i32) -> !;
        fn __errno_location() -> *mut i32;
    }

    fn errno() -> i32 {
        // SAFETY: glibc guarantees a valid thread-local errno pointer.
        unsafe { *__errno_location() }
    }

    /// Create an anonymous shared memory file of `bytes` bytes, map it
    /// `MAP_SHARED`, and close the fd immediately — forked children
    /// inherit the *mapping*, not the descriptor, so repeated launches
    /// cannot leak memfds by construction.
    pub fn map_shared_memfd(bytes: usize) -> Result<*mut u8, String> {
        // SAFETY: plain syscalls; the name is NUL-terminated and static.
        unsafe {
            let fd = memfd_create(c"svsim-symheap".as_ptr().cast(), MFD_CLOEXEC);
            if fd < 0 {
                return Err(format!("memfd_create failed (errno {})", errno()));
            }
            if ftruncate(fd, bytes as i64) != 0 {
                let e = errno();
                close(fd);
                return Err(format!("ftruncate({bytes}) failed (errno {e})"));
            }
            let p = mmap(
                std::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                fd,
                0,
            );
            close(fd);
            if p as isize == -1 {
                return Err(format!("mmap({bytes}) failed (errno {})", errno()));
            }
            Ok(p)
        }
    }

    /// Unmap a region produced by [`map_shared_memfd`].
    pub fn unmap(base: *mut u8, bytes: usize) {
        // SAFETY: only called from ShmArena::drop with its own mapping.
        unsafe {
            let _ = munmap(base, bytes);
        }
    }

    /// Fork: `Ok(0)` in the child, `Ok(pid)` in the parent.
    pub fn spawn() -> Result<Pid, String> {
        // SAFETY: plain fork; the child only runs the async-signal-tolerant
        // SPMD body and never returns to the caller's frame.
        let pid = unsafe { fork() };
        if pid < 0 {
            Err(format!("fork failed (errno {})", errno()))
        } else {
            Ok(pid)
        }
    }

    /// One non-blocking wait status probe.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Wait {
        /// Child still running.
        Running,
        /// Child exited normally with this code.
        Exited(i32),
        /// Child was killed by this signal.
        Signaled(i32),
        /// `waitpid` itself failed with this errno.
        Failed(i32),
    }

    /// Non-blocking `waitpid(pid, WNOHANG)` with the status decoded.
    pub fn try_wait(pid: Pid) -> Wait {
        let mut status: i32 = 0;
        // SAFETY: status points at a live i32.
        let r = unsafe { waitpid(pid, &mut status, WNOHANG) };
        if r == 0 {
            Wait::Running
        } else if r == pid {
            if status & 0x7f == 0 {
                Wait::Exited((status >> 8) & 0xff)
            } else {
                Wait::Signaled(status & 0x7f)
            }
        } else {
            Wait::Failed(errno())
        }
    }

    /// Blocking wait, ignoring the status (cleanup paths).
    pub fn wait_discard(pid: Pid) {
        let mut status: i32 = 0;
        // SAFETY: status points at a live i32.
        let _ = unsafe { waitpid(pid, &mut status, 0) };
    }

    /// Send a signal to a process (cleanup paths).
    pub fn kill_process(pid: Pid, sig: i32) {
        // SAFETY: plain kill on a child we spawned.
        let _ = unsafe { kill(pid, sig) };
    }

    /// Terminate the calling process with a real `SIGKILL` — the injected
    /// [`crate::FaultAction::Kill`] of the process backend. Never returns.
    pub fn die_by_sigkill() -> ! {
        // SAFETY: kill(self, SIGKILL) does not return; _exit is the
        // unreachable fallback that keeps the signature honest.
        unsafe {
            let _ = kill(getpid(), SIGKILL);
            _exit(137)
        }
    }

    /// `_exit` without running destructors or atexit handlers — the only
    /// safe way out of a forked child that shares pages with its parent.
    pub fn exit_now(code: i32) -> ! {
        // SAFETY: plain _exit.
        unsafe { _exit(code) }
    }
}

// ---------------------------------------------------------------------------
// Arena: the memfd-backed symmetric heap and its fixed header.
// ---------------------------------------------------------------------------

/// Max collective allocations per launch.
const MAX_ALLOCS: usize = 64;
/// Max fault specs mirrored into the arena.
const MAX_FAULT_SPECS: usize = 64;
/// Words per 128-byte block (cache-line pair padding).
const BLOCK_WORDS: usize = 16;
/// Child result slot states (a zeroed slot means still pending).
const RESULT_DONE: u64 = 1;
const RESULT_OVERFLOW: u64 = 2;

/// The `MAP_SHARED` region. Dropping the last handle unmaps it; the kernel
/// frees the memfd pages once no mapping remains in any PE.
#[derive(Debug)]
pub(crate) struct ShmArena {
    base: *mut u8,
    bytes: usize,
}

// SAFETY: the mapping is valid for the arena's lifetime and all word
// access goes through atomics (or happens-before-ordered byte copies).
unsafe impl Send for ShmArena {}
unsafe impl Sync for ShmArena {}

impl ShmArena {
    fn create(bytes: usize) -> SvResult<Self> {
        let base = sys::map_shared_memfd(bytes)
            .map_err(|e| SvError::Shmem(format!("process world arena: {e}")))?;
        Ok(Self { base, bytes })
    }

    /// The `idx`-th 8-byte word as an atomic.
    #[inline]
    fn word(&self, idx: usize) -> &AtomicU64 {
        assert!((idx + 1) * 8 <= self.bytes, "arena word {idx} out of range");
        // SAFETY: in-bounds (asserted), 8-aligned (mmap is page-aligned and
        // idx counts whole words), and the mapping lives as long as self.
        unsafe { &*self.base.add(idx * 8).cast::<AtomicU64>() }
    }

    /// Raw pointer to the `idx`-th word (for shared-buffer windows).
    #[inline]
    fn word_ptr(&self, idx: usize) -> *const AtomicU64 {
        assert!((idx + 1) * 8 <= self.bytes, "arena word {idx} out of range");
        // SAFETY: in-bounds per the assert.
        unsafe { self.base.add(idx * 8).cast::<AtomicU64>() }
    }

    /// Raw byte pointer at `off` (result-slot copies).
    #[inline]
    fn byte_ptr(&self, off: usize, len: usize) -> *mut u8 {
        assert!(off + len <= self.bytes, "arena bytes out of range");
        // SAFETY: in-bounds per the assert.
        unsafe { self.base.add(off) }
    }
}

impl Drop for ShmArena {
    fn drop(&mut self) {
        sys::unmap(self.base, self.bytes);
    }
}

/// Word/byte offsets of every arena section.
#[derive(Debug, Clone)]
struct ArenaLayout {
    n_pes: usize,
    heap_words_per_pe: usize,
    result_bytes_per_pe: usize,
    w_bump: usize,
    w_bar_count: usize,
    w_bar_sense: usize,
    w_alloc_table: usize,
    w_epochs: usize,
    w_status: usize,
    w_heartbeats: usize,
    w_round: usize,
    w_abort: usize,
    w_round_ack: usize,
    w_faults: usize,
    w_coll_f64: usize,
    w_counters: usize,
    w_heap: usize,
    b_results: usize,
    total_bytes: usize,
}

fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

impl ArenaLayout {
    fn new(n_pes: usize, opts: &ProcOptions) -> Self {
        fn take(w: &mut usize, words: usize) -> usize {
            let at = *w;
            *w += words;
            at
        }
        let mut w = 0usize;
        let _magic_and_npes = take(&mut w, 2);
        let w_bump = take(&mut w, 1);
        w = round_up(w, BLOCK_WORDS);
        let w_bar_count = take(&mut w, 1);
        let w_bar_sense = take(&mut w, 1);
        w = round_up(w, BLOCK_WORDS);
        let w_alloc_table = take(&mut w, MAX_ALLOCS * 3);
        let w_epochs = take(&mut w, n_pes);
        let w_status = take(&mut w, n_pes * 2);
        let w_heartbeats = take(&mut w, n_pes);
        let w_round = take(&mut w, 1);
        let w_abort = take(&mut w, 1);
        let w_round_ack = take(&mut w, n_pes);
        let w_faults = take(&mut w, MAX_FAULT_SPECS * 2);
        let w_coll_f64 = take(&mut w, n_pes);
        w = round_up(w, BLOCK_WORDS);
        let w_counters = take(&mut w, n_pes * BLOCK_WORDS);
        w = round_up(w, BLOCK_WORDS);
        let w_heap = take(&mut w, n_pes * opts.heap_words_per_pe);
        let b_results = round_up(w * 8, 128);
        let total_bytes = round_up(b_results + n_pes * opts.result_bytes_per_pe, 4096);
        Self {
            n_pes,
            heap_words_per_pe: opts.heap_words_per_pe,
            result_bytes_per_pe: opts.result_bytes_per_pe,
            w_bump,
            w_bar_count,
            w_bar_sense,
            w_alloc_table,
            w_epochs,
            w_status,
            w_heartbeats,
            w_round,
            w_abort,
            w_round_ack,
            w_faults,
            w_coll_f64,
            w_counters,
            w_heap,
            b_results,
            total_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Protocol-slot views of the arena.
// ---------------------------------------------------------------------------

/// A [`ProtoMem`] window over the arena: logical protocol slot `i` maps
/// to arena word `map[i]`. This is how the process substrate hands its
/// words to the drivers of the pure state machines of [`crate::proto`]
/// (the thread substrate hands them [`crate::proto::AtomicWords`]; the
/// model checker instantiates the *same machines* over a model vector).
#[derive(Debug)]
struct ArenaWords<'a, const K: usize> {
    arena: &'a ShmArena,
    map: [usize; K],
}

/// As [`ArenaWords`], for protocols whose slot count depends on `n_pes`
/// (the respawn round handshake carries one ack slot per PE).
#[derive(Debug)]
struct ArenaVecWords<'a> {
    arena: &'a ShmArena,
    map: Vec<usize>,
}

macro_rules! impl_arena_protomem {
    ($({$($gen:tt)*})? $ty:ty) => {
        impl $(<$($gen)*>)? ProtoMem for $ty {
            #[inline]
            fn load(&self, slot: usize, order: MemOrder) -> u64 {
                self.arena.word(self.map[slot]).load(order.to_atomic())
            }

            #[inline]
            fn store(&self, slot: usize, v: u64, order: MemOrder) {
                self.arena.word(self.map[slot]).store(v, order.to_atomic());
            }

            #[inline]
            fn fetch_add(&self, slot: usize, delta: u64, order: MemOrder) -> u64 {
                self.arena
                    .word(self.map[slot])
                    .fetch_add(delta, order.to_atomic())
            }

            #[inline]
            fn compare_exchange(
                &self,
                slot: usize,
                current: u64,
                new: u64,
                order: MemOrder,
            ) -> Result<u64, u64> {
                self.arena.word(self.map[slot]).compare_exchange(
                    current,
                    new,
                    order.to_atomic(),
                    Ordering::Relaxed,
                )
            }
        }
    };
}

impl_arena_protomem!({const K: usize} ArenaWords<'_, K>);
impl_arena_protomem!(ArenaVecWords<'_>);

// ---------------------------------------------------------------------------
// ProcWorld: everything world.rs needs to run over the arena.
// ---------------------------------------------------------------------------

/// The process-backed world state: arena handle + layout. The process arm
/// of [`World`]'s substrate (the launcher keeps a second handle for
/// supervision), inherited by every forked PE — same mapping, same
/// addresses.
#[derive(Debug, Clone)]
pub(crate) struct ProcWorld {
    arena: Arc<ShmArena>,
    layout: ArenaLayout,
    timeout: Duration,
}

impl ProcWorld {
    pub(crate) fn new(n_pes: usize, opts: &ProcOptions) -> SvResult<Self> {
        let layout = ArenaLayout::new(n_pes, opts);
        let arena = Arc::new(ShmArena::create(layout.total_bytes)?);
        arena
            .word(0)
            .store(0x5653_494d_5348_4d00, Ordering::Relaxed); // "SVSIMSHM"
        arena.word(1).store(n_pes as u64, Ordering::Relaxed);
        Ok(Self {
            arena,
            layout,
            timeout: Duration::from_millis(opts.barrier_timeout_ms.max(1)),
        })
    }

    fn keepalive(&self) -> Arc<dyn Any + Send + Sync> {
        Arc::clone(&self.arena) as Arc<dyn Any + Send + Sync>
    }

    /// The [`ProtoMem`] window of the barrier pair, in the slot order
    /// [`proto::bar`] expects.
    fn bar_mem(&self) -> ArenaWords<'_, 2> {
        ArenaWords {
            arena: &self.arena,
            map: [self.layout.w_bar_count, self.layout.w_bar_sense],
        }
    }

    /// One barrier epoch for `pe` over the arena words: the shared wait
    /// loop with this world's bounded-wait timeout (surviving PEs of a
    /// killed peer fail typed instead of hanging even if the reaper is
    /// slow) and the PE's heartbeat word.
    pub(crate) fn barrier_wait(
        &self,
        token: &mut BarrierToken,
        pe: usize,
    ) -> Result<(), BarrierWaitError> {
        let sm = proto::bar::BarrierSm {
            n: self.layout.n_pes as u64,
            timeout_recheck: true,
        };
        wait_epoch(
            &sm,
            &self.bar_mem(),
            token,
            Some(self.timeout),
            Some(self.arena.word(self.layout.w_heartbeats + pe)),
        )
    }

    pub(crate) fn poison_barrier(&self) {
        proto::bar::post_poison(&self.bar_mem());
    }

    pub(crate) fn metrics_table(&self) -> MetricsTable {
        // SAFETY: the counter blocks are zero-initialized, 128-byte
        // strided, in a mapping the owning World keeps alive.
        unsafe {
            MetricsTable::from_raw(
                self.arena.byte_ptr(
                    self.layout.w_counters * 8,
                    self.layout.n_pes * BLOCK_WORDS * 8,
                ),
                self.layout.n_pes,
                BLOCK_WORDS * 8,
            )
        }
    }

    pub(crate) fn coll_f64(&self) -> SharedF64Vec {
        // SAFETY: n_pes zeroed words inside the arena, pinned by keepalive.
        unsafe {
            SharedF64Vec::from_raw(
                self.arena.word_ptr(self.layout.w_coll_f64),
                self.layout.n_pes,
                self.keepalive(),
            )
        }
    }

    /// Record that `pe` completed barrier epoch `epoch` (read back by the
    /// reaper to stamp epoch-at-death on abnormal exits).
    pub(crate) fn set_epoch(&self, pe: usize, epoch: u64) {
        self.arena
            .word(self.layout.w_epochs + pe)
            .store(epoch, Ordering::Relaxed);
    }

    fn epoch(&self, pe: usize) -> u64 {
        self.arena
            .word(self.layout.w_epochs + pe)
            .load(Ordering::Relaxed)
    }

    /// Bump `pe`'s progress heartbeat — called at barrier epochs, inside
    /// barrier waits, at fault points and in the respawn park loop, so the
    /// parent watchdog only ever flags a PE that is truly wedged.
    ///
    /// Ordering audit (ISSUE 9): `Relaxed` is correct here. A heartbeat
    /// word is a monotonic progress counter that only the owning PE
    /// writes; the watchdog compares successive reads of the *same* word
    /// for inequality and never infers anything about other memory from
    /// the value, so no acquire/release edge is needed. Single-word RMW
    /// atomicity (which `Relaxed` already guarantees) is the whole
    /// contract. The false-positive direction (a bump the watchdog sees
    /// "late") only delays the stall verdict by one poll interval — it
    /// cannot kill a live PE, because the next poll re-reads the word.
    pub(crate) fn heartbeat(&self, pe: usize) {
        self.arena
            .word(self.layout.w_heartbeats + pe)
            .fetch_add(1, Ordering::Relaxed);
    }

    fn read_heartbeat(&self, pe: usize) -> u64 {
        self.arena
            .word(self.layout.w_heartbeats + pe)
            .load(Ordering::Relaxed)
    }

    fn barrier_poisoned(&self) -> bool {
        proto::bar::is_poisoned(&self.bar_mem())
    }

    /// The [`ProtoMem`] window of the respawn round handshake: round and
    /// abort words, the barrier words the supervisor resets (count, and
    /// sense with its poison bit), then one ack slot per PE — the slot
    /// order [`proto::round`] expects.
    fn round_mem(&self) -> ArenaVecWords<'_> {
        let l = &self.layout;
        let mut map = vec![l.w_round, l.w_abort, l.w_bar_count, l.w_bar_sense];
        map.extend((0..l.n_pes).map(|pe| l.w_round_ack + pe));
        ArenaVecWords {
            arena: &self.arena,
            map,
        }
    }

    /// Current respawn round (generation counter; bumped by the parent to
    /// release parked survivors into a re-run).
    fn round(&self) -> u64 {
        self.arena.word(self.layout.w_round).load(Ordering::Acquire)
    }

    fn set_abort(&self) {
        proto::round::post_abort(&self.round_mem());
    }

    fn abort(&self) -> bool {
        self.arena.word(self.layout.w_abort).load(Ordering::Acquire) != 0
    }

    /// Reset the per-round arena state for an in-place respawn: the heap
    /// bump pointer, the allocation table, epochs and result slots all
    /// go back to launch-initial values so the re-run of the SPMD body
    /// allocates and synchronizes exactly as the first run did. The
    /// barrier words are *not* reset here — that is the release
    /// machine's job ([`proto::round::Release`]), which orders them
    /// before the round bump that publishes everything to survivors.
    /// Heartbeats, traffic counters, and fault mirrors are
    /// deliberately *not* reset — they are monotonic across rounds (fired
    /// faults stay disarmed, so a one-shot fault cannot re-fire).
    ///
    /// Only called while every surviving PE is parked (acknowledged) and
    /// every dead PE is reaped, so nothing races these plain stores.
    fn reset_tables_for_round(&self) {
        let l = &self.layout;
        self.arena.word(l.w_bump).store(0, Ordering::Relaxed);
        for i in 0..MAX_ALLOCS * 3 {
            self.arena
                .word(l.w_alloc_table + i)
                .store(0, Ordering::Relaxed);
        }
        for pe in 0..l.n_pes {
            self.arena.word(l.w_epochs + pe).store(0, Ordering::Relaxed);
            self.arena
                .word(l.w_status + pe * 2)
                .store(0, Ordering::Relaxed);
            self.arena
                .word(l.w_status + pe * 2 + 1)
                .store(0, Ordering::Relaxed);
            self.arena
                .word(l.w_coll_f64 + pe)
                .store(0, Ordering::Release);
        }
    }

    /// The [`ProtoMem`] window of allocation entry `seq`: the shared bump
    /// pointer plus the entry's `{len, off, ready}` table triple, in the
    /// slot order [`proto::alloc`] expects.
    fn alloc_mem(&self, seq: usize) -> ArenaWords<'_, 4> {
        let entry = self.layout.w_alloc_table + seq * 3;
        ArenaWords {
            arena: &self.arena,
            map: [self.layout.w_bump, entry, entry + 1, entry + 2],
        }
    }

    /// PE 0 publishes collective allocation `seq`: bump-allocate
    /// `n_pes * len_per_pe` words and expose `{len, offset}` in the
    /// table, driving the shared [`proto::alloc::Publish`] machine (the
    /// ready flag's release store is what makes a concurrent observer
    /// see the entry fully published or not at all).
    pub(crate) fn publish_alloc(&self, seq: usize, len_per_pe: usize) -> SvResult<()> {
        if seq >= MAX_ALLOCS {
            return Err(SvError::Shmem(format!(
                "process world: more than {MAX_ALLOCS} collective allocations"
            )));
        }
        let need = len_per_pe * self.layout.n_pes;
        let cap = self.layout.n_pes * self.layout.heap_words_per_pe;
        let mem = self.alloc_mem(seq);
        let mut publish = proto::alloc::Publish::new(
            need as u64,
            cap as u64,
            len_per_pe as u64,
            self.layout.w_heap as u64,
        );
        loop {
            match publish.step(&mem) {
                proto::alloc::PublishStep::Pending => {}
                proto::alloc::PublishStep::Published(_) => return Ok(()),
                proto::alloc::PublishStep::Exhausted { used } => {
                    return Err(SvError::Shmem(format!(
                        "process world: symmetric heap exhausted ({used} + {need} > {cap} words)"
                    )));
                }
            }
        }
    }

    /// Every PE resolves allocation `seq` after the collective barrier,
    /// driving the shared [`proto::alloc::Lookup`] machine, and gets the
    /// per-PE partition windows of the published region.
    pub(crate) fn lookup_alloc(
        &self,
        pe: usize,
        seq: usize,
        len_per_pe: usize,
    ) -> SvResult<Vec<SharedF64Vec>> {
        if seq >= MAX_ALLOCS {
            return Err(SvError::Shmem(format!(
                "process world: more than {MAX_ALLOCS} collective allocations"
            )));
        }
        let mem = self.alloc_mem(seq);
        let mut lookup = proto::alloc::Lookup::new(len_per_pe as u64);
        loop {
            match lookup.step(&mem) {
                proto::alloc::LookupStep::Pending => {}
                #[allow(clippy::cast_possible_truncation)]
                proto::alloc::LookupStep::Resolved(off) => {
                    return Ok(self.f64_partitions(off as usize, len_per_pe))
                }
                proto::alloc::LookupStep::NotPublished => {
                    return Err(call_order_violated(pe, seq, "was never published"));
                }
                proto::alloc::LookupStep::Mismatch { .. } => {
                    return Err(call_order_violated(pe, seq, "size mismatch"));
                }
            }
        }
    }

    /// Every allocation published in the table, in call order: its length
    /// per PE and its partition windows, which keep the arena mapped for as
    /// long as they live. The parent reads them after reaping every PE, so
    /// the table holds the last round's allocations and nothing writes it.
    pub(crate) fn published_allocs(&self) -> Vec<(usize, Vec<SharedF64Vec>)> {
        (0..MAX_ALLOCS)
            .map(|seq| self.alloc_mem(seq))
            .take_while(|mem| mem.load(proto::alloc::READY, MemOrder::Acquire) != 0)
            .map(|mem| {
                #[allow(clippy::cast_possible_truncation)]
                let [len, off] = [proto::alloc::LEN, proto::alloc::OFF]
                    .map(|slot| mem.load(slot, MemOrder::Relaxed) as usize);
                (len, self.f64_partitions(off, len))
            })
            .collect()
    }

    /// Per-PE partition windows of an allocation resolved by
    /// [`lookup_alloc`](Self::lookup_alloc).
    fn f64_partitions(&self, off_words: usize, len_per_pe: usize) -> Vec<SharedF64Vec> {
        (0..self.layout.n_pes)
            .map(|p| {
                // SAFETY: the window was bump-allocated inside the heap
                // region (publish_alloc checked capacity) and the arena is
                // pinned by the keepalive.
                unsafe {
                    SharedF64Vec::from_raw(
                        self.arena.word_ptr(off_words + p * len_per_pe),
                        len_per_pe,
                        self.keepalive(),
                    )
                }
            })
            .collect()
    }

    fn write_result(&self, pe: usize, bytes: &[u8]) -> bool {
        let status = self.arena.word(self.layout.w_status + pe * 2);
        if bytes.len() > self.layout.result_bytes_per_pe {
            status.store(RESULT_OVERFLOW, Ordering::Release);
            return false;
        }
        let dst = self.arena.byte_ptr(
            self.layout.b_results + pe * self.layout.result_bytes_per_pe,
            bytes.len(),
        );
        // SAFETY: dst is an in-bounds, PE-exclusive slot; the Release store
        // of the status word below publishes the bytes to the reaper.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len());
        }
        self.arena
            .word(self.layout.w_status + pe * 2 + 1)
            .store(bytes.len() as u64, Ordering::Relaxed);
        status.store(RESULT_DONE, Ordering::Release);
        true
    }

    fn read_result(&self, pe: usize) -> Option<Vec<u8>> {
        let status = self
            .arena
            .word(self.layout.w_status + pe * 2)
            .load(Ordering::Acquire);
        if status != RESULT_DONE {
            return None;
        }
        let len = self
            .arena
            .word(self.layout.w_status + pe * 2 + 1)
            .load(Ordering::Relaxed) as usize;
        if len > self.layout.result_bytes_per_pe {
            return None;
        }
        let src = self.arena.byte_ptr(
            self.layout.b_results + pe * self.layout.result_bytes_per_pe,
            len,
        );
        let mut out = vec![0u8; len];
        // SAFETY: in-bounds slot; the Acquire load of the status word
        // ordered these bytes before this copy.
        unsafe {
            std::ptr::copy_nonoverlapping(src, out.as_mut_ptr(), len);
        }
        Some(out)
    }

    fn seed_faults(&self, plan: &FaultPlan) -> SvResult<()> {
        if plan.specs().len() > MAX_FAULT_SPECS {
            return Err(SvError::Shmem(format!(
                "process world: more than {MAX_FAULT_SPECS} fault specs"
            )));
        }
        for (i, s) in plan.specs().iter().enumerate() {
            copy_words(s.words(), &self.fault_mem(i));
        }
        Ok(())
    }

    fn absorb_faults(&self, plan: &FaultPlan) {
        for (i, s) in plan.specs().iter().enumerate() {
            copy_words(&self.fault_mem(i), s.words());
        }
    }

    /// The [`ProtoMem`] window of spec `i`'s arena mirror, in the slot
    /// order [`proto::fault`] expects. All PE processes count against
    /// these words — a process-private copy of the plan's own would let
    /// every child fire its own copy of a wildcard fault.
    fn fault_mem(&self, i: usize) -> ArenaWords<'_, 2> {
        let at = self.layout.w_faults + 2 * i;
        ArenaWords {
            arena: &self.arena,
            map: [at, at + 1],
        }
    }

    /// [`FaultPlan::check`] against the arena mirrors instead of the
    /// plan's own words (same per-spec routine, same first-fired rule).
    pub(crate) fn check_faults(
        &self,
        plan: &FaultPlan,
        pe: usize,
        op: PeOp,
    ) -> Option<FaultAction> {
        plan.specs()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.observe(pe, op, &self.fault_mem(i)))
            .reduce(|first, _| first)
    }
}

/// Raise a real `SIGKILL` on the calling PE process (the process-backed
/// meaning of [`FaultAction::Kill`]). Never returns.
pub(crate) fn die_by_sigkill() -> ! {
    sys::die_by_sigkill()
}

// ---------------------------------------------------------------------------
// Wire codec: child → parent results without serde.
// ---------------------------------------------------------------------------

/// Self-describing little-endian encoding for values that cross the
/// child→parent result channel of a process world: what the SPMD bodies
/// in this codebase return. The partitioned executor's returns
/// `SvResult<(u64, (usize, usize))>` (the classical register and its walk's
/// counts; the state itself stays on the symmetric heap), a benchmark's
/// per-PE timings `SvResult<Vec<f64>>`, and the substrate's own tests
/// scalars, `bool`s, `f64` vectors, pairs and triples of them. The error
/// side is the workspace error type, whose messages are strings and whose
/// PE operations are [`PeOp`]s.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `buf`, advancing it. `None` on
    /// truncated or malformed input.
    fn decode(buf: &mut &[u8]) -> Option<Self>;
}

fn take_bytes<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &mut &[u8]) -> Option<u64> {
    take_bytes(buf, 8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

impl Wire for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_u64(buf)
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_u64(buf).map(|v| v as usize)
    }
}

impl Wire for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_u64(buf).map(|v| v as i64)
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        take_bytes(buf, 1).map(|b| b[0] != 0)
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.to_bits());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        get_u64(buf).map(f64::from_bits)
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = get_u64(buf)? as usize;
        let bytes = take_bytes(buf, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl Wire for Vec<f64> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for v in self {
            put_u64(out, v.to_bits());
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = get_u64(buf)? as usize;
        if buf.len() < len.checked_mul(8)? {
            return None;
        }
        (0..len).map(|_| get_u64(buf).map(f64::from_bits)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match take_bytes(buf, 1)?[0] {
            0 => Some(Ok(T::decode(buf)?)),
            1 => Some(Err(E::decode(buf)?)),
            _ => None,
        }
    }
}

impl Wire for PeOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::Put => out.push(0),
            Self::Get => out.push(1),
            Self::Barrier => out.push(2),
            Self::Exec => out.push(3),
            Self::Checkpoint => out.push(5),
            Self::Term {
                signal,
                code,
                epoch,
            } => {
                out.push(4);
                i64::from(*signal).encode(out);
                i64::from(*code).encode(out);
                epoch.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match take_bytes(buf, 1)?[0] {
            0 => Some(Self::Put),
            1 => Some(Self::Get),
            2 => Some(Self::Barrier),
            3 => Some(Self::Exec),
            4 => {
                let signal = i32::try_from(i64::decode(buf)?).ok()?;
                let code = i32::try_from(i64::decode(buf)?).ok()?;
                let epoch = u64::decode(buf)?;
                Some(Self::Term {
                    signal,
                    code,
                    epoch,
                })
            }
            5 => Some(Self::Checkpoint),
            _ => None,
        }
    }
}

impl Wire for SvError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::QubitOutOfRange { qubit, n_qubits } => {
                out.push(0);
                qubit.encode(out);
                n_qubits.encode(out);
            }
            Self::DuplicateQubit { qubit } => {
                out.push(1);
                qubit.encode(out);
            }
            Self::InvalidConfig(msg) => {
                out.push(2);
                msg.encode(out);
            }
            Self::Parse { line, col, msg } => {
                out.push(3);
                line.encode(out);
                col.encode(out);
                msg.encode(out);
            }
            Self::Undefined(name) => {
                out.push(4);
                name.encode(out);
            }
            Self::Arity {
                gate,
                expected,
                got,
            } => {
                out.push(5);
                gate.encode(out);
                expected.encode(out);
                got.encode(out);
            }
            Self::Shmem(msg) => {
                out.push(6);
                msg.encode(out);
            }
            Self::PeFailed { pe, op } => {
                out.push(7);
                pe.encode(out);
                op.encode(out);
            }
            Self::Numeric(msg) => {
                out.push(8);
                msg.encode(out);
            }
            Self::PeHung {
                pe,
                epoch,
                stalled_ms,
            } => {
                out.push(9);
                pe.encode(out);
                epoch.encode(out);
                stalled_ms.encode(out);
            }
            Self::BarrierTimeout {
                pe,
                epoch,
                waited_ms,
            } => {
                out.push(10);
                pe.encode(out);
                epoch.encode(out);
                waited_ms.encode(out);
            }
            Self::Checkpoint(msg) => {
                out.push(11);
                msg.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match take_bytes(buf, 1)?[0] {
            0 => Some(Self::QubitOutOfRange {
                qubit: u64::decode(buf)?,
                n_qubits: u64::decode(buf)?,
            }),
            1 => Some(Self::DuplicateQubit {
                qubit: u64::decode(buf)?,
            }),
            2 => Some(Self::InvalidConfig(String::decode(buf)?)),
            3 => Some(Self::Parse {
                line: usize::decode(buf)?,
                col: usize::decode(buf)?,
                msg: String::decode(buf)?,
            }),
            4 => Some(Self::Undefined(String::decode(buf)?)),
            5 => Some(Self::Arity {
                gate: String::decode(buf)?,
                expected: usize::decode(buf)?,
                got: usize::decode(buf)?,
            }),
            6 => Some(Self::Shmem(String::decode(buf)?)),
            7 => Some(Self::PeFailed {
                pe: usize::decode(buf)?,
                op: PeOp::decode(buf)?,
            }),
            8 => Some(Self::Numeric(String::decode(buf)?)),
            9 => Some(Self::PeHung {
                pe: usize::decode(buf)?,
                epoch: u64::decode(buf)?,
                stalled_ms: u64::decode(buf)?,
            }),
            10 => Some(Self::BarrierTimeout {
                pe: usize::decode(buf)?,
                epoch: u64::decode(buf)?,
                waited_ms: u64::decode(buf)?,
            }),
            11 => Some(Self::Checkpoint(String::decode(buf)?)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Launch: fork, run, supervise (reap + watchdog), respawn.
// ---------------------------------------------------------------------------

/// One in-place respawn performed by the supervisor: PE `pe` was re-forked
/// (old process dead or hung, new process takes its rank) while every
/// surviving PE kept its original process. Reported in
/// [`SpmdOutput::respawns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RespawnEvent {
    /// Rank that was re-forked.
    pub pe: usize,
    /// Recovery round that re-forked it (1-based: the first respawn round
    /// of a launch is round 1).
    pub round: u64,
    /// Pid of the dead/hung incarnation.
    pub old_pid: i32,
    /// Pid of the replacement incarnation.
    pub new_pid: i32,
    /// Why the old incarnation was replaced (`PeFailed` for a reaped
    /// death, `PeHung` for a watchdog kill).
    pub cause: SvError,
}

/// [`launch_world`] on process PEs with `opts` and `faults`.
///
/// # Errors
/// As [`launch_world`].
pub fn launch_process<T, F>(
    n_pes: usize,
    opts: &ProcOptions,
    faults: Option<Arc<FaultPlan>>,
    body: F,
) -> SvResult<SpmdOutput<T>>
where
    T: Wire + Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    let world = WorldOptions {
        backend: ShmemBackend::Process,
        process: opts.clone(),
        faults,
        detect_races: false,
    };
    launch_world(n_pes, &world, body)
}

/// Run `body` on one forked OS process per PE of `world`, whose arena is
/// `pw`, and reap them with `waitpid`. An abnormal child exit (a real
/// `SIGKILL`, a panic-turned-abort, a nonzero exit) surfaces as
/// [`SvError::PeFailed`] with [`PeOp::Term`] carrying the signal/exit code
/// and the barrier epoch the PE had reached when it died; surviving peers
/// observe the poisoned arena barrier and shut down typed, exactly as in
/// the thread-backed world.
pub(crate) fn run_processes<T, F>(
    world: World,
    pw: &ProcWorld,
    world_opts: &WorldOptions,
    body: F,
) -> SvResult<SpmdOutput<T>>
where
    T: Wire + Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    let (n_pes, opts, faults) = (pw.layout.n_pes, &world_opts.process, &world_opts.faults);
    if let Some(plan) = faults {
        pw.seed_faults(plan)?;
    }
    let respawn_enabled = opts.respawn_max > 0;

    // Fork one child for rank `pe`; the child never returns from this call.
    let fork_pe = |pe: usize| -> Result<sys::Pid, String> {
        match sys::spawn() {
            Ok(0) => {
                // CHILD: run the SPMD body, publish, _exit.
                child_run(&world, pw, pe, &body, respawn_enabled);
            }
            Ok(pid) => Ok(pid),
            Err(e) => Err(e),
        }
    };

    let mut pids: Vec<sys::Pid> = vec![0; n_pes]; // running pid, 0 once reaped
    let mut pid_of: Vec<i32> = vec![0; n_pes]; // current incarnation per rank
    for pe in 0..n_pes {
        match fork_pe(pe) {
            Ok(pid) => {
                pids[pe] = pid;
                pid_of[pe] = pid;
            }
            Err(e) => {
                // Fork failed mid-flight: tear down what exists.
                pw.poison_barrier();
                for &p in &pids[..pe] {
                    sys::kill_process(p, sys::SIGKILL);
                }
                for &p in &pids[..pe] {
                    sys::wait_discard(p);
                }
                return Err(SvError::Shmem(format!("process world: {e}")));
            }
        }
    }

    // PARENT supervisor: WNOHANG reaping + heartbeat watchdog + recovery.
    // An abnormal exit poisons the barrier so survivors release promptly
    // and synthesizes the typed death record; a stalled heartbeat gets the
    // PE killed and pre-recorded as PeHung; with respawn enabled, a
    // poisoned round is retried in place instead of failing the launch.
    let hang_deadline = Duration::from_millis(opts.hang_deadline_ms.max(1));
    // A recovery round must outlast one bounded barrier wait (parked
    // survivors drain through it) plus one watchdog deadline (a straggler
    // may still need to be flagged) before the supervisor declares it stuck.
    let recovery_deadline =
        Duration::from_millis(opts.barrier_timeout_ms.max(1)) + 2 * hang_deadline;
    let mut deaths: Vec<Option<SvError>> = (0..n_pes).map(|_| None).collect();
    let mut exited_ok = vec![false; n_pes];
    let mut live = n_pes;
    let mut respawn_active = respawn_enabled;
    let mut respawn_budget = opts.respawn_max;
    let mut respawns: Vec<RespawnEvent> = Vec::new();
    let mut round: u64 = 0;
    let hb_now = Instant::now();
    let mut hb_last: Vec<(u64, Instant)> = (0..n_pes)
        .map(|pe| (pw.read_heartbeat(pe), hb_now))
        .collect();
    let mut recovery_started: Option<Instant> = None;
    while live > 0 {
        let mut progressed = false;
        // Reap pass.
        for pe in 0..n_pes {
            if pids[pe] == 0 {
                continue;
            }
            let status = sys::try_wait(pids[pe]);
            if status == sys::Wait::Running {
                continue;
            }
            pids[pe] = 0;
            live -= 1;
            progressed = true;
            match status {
                sys::Wait::Running => unreachable!("filtered above"),
                sys::Wait::Exited(0) => {
                    // The child published a result and left cleanly; a
                    // stale hang verdict (decided just as it finished) is
                    // overruled by the clean exit.
                    deaths[pe] = None;
                    exited_ok[pe] = true;
                }
                sys::Wait::Exited(code) => {
                    pw.poison_barrier();
                    if deaths[pe].is_none() {
                        deaths[pe] = Some(pe_death(pw, pe, 0, code));
                    }
                }
                sys::Wait::Signaled(signal) => {
                    pw.poison_barrier();
                    if deaths[pe].is_none() {
                        deaths[pe] = Some(pe_death(pw, pe, signal, 0));
                    }
                }
                sys::Wait::Failed(errno) => {
                    if deaths[pe].is_none() {
                        deaths[pe] = Some(SvError::Shmem(format!(
                            "process world: waitpid(PE {pe}) failed (errno {errno})"
                        )));
                    }
                }
            }
        }
        // Watchdog pass: kill a PE whose heartbeat stalled past the
        // deadline, recording the PeHung verdict *before* the SIGKILL so
        // the subsequent reap keeps it instead of synthesizing PeFailed.
        for pe in 0..n_pes {
            if pids[pe] == 0 || deaths[pe].is_some() {
                continue;
            }
            let hb = pw.read_heartbeat(pe);
            if hb != hb_last[pe].0 {
                hb_last[pe] = (hb, Instant::now());
            } else if hb_last[pe].1.elapsed() >= hang_deadline {
                let stalled_ms = hb_last[pe].1.elapsed().as_millis() as u64;
                deaths[pe] = Some(SvError::PeHung {
                    pe,
                    epoch: pw.epoch(pe),
                    stalled_ms,
                });
                pw.poison_barrier();
                sys::kill_process(pids[pe], sys::SIGKILL);
                progressed = true;
            }
        }
        // Recovery: once the barrier is poisoned, choose between an
        // in-place respawn round and aborting into the plain error path.
        if respawn_active && pw.barrier_poisoned() {
            let started = *recovery_started.get_or_insert_with(Instant::now);
            if exited_ok.iter().any(|&ok| ok)
                || respawn_budget == 0
                || started.elapsed() > recovery_deadline
            {
                // A PE already exited with this round's result (a re-run
                // would fork its timeline), the budget ran dry, or the
                // world never quiesced: give up on respawn and let the
                // round's typed errors stand. The abort word releases
                // parked survivors into publishing their results.
                respawn_active = false;
                pw.set_abort();
            } else {
                let victims: Vec<usize> = (0..n_pes)
                    .filter(|&pe| pids[pe] == 0 && !exited_ok[pe])
                    .collect();
                // One release attempt of the shared round machine: check
                // every survivor's ack, and if all are parked, reset the
                // barrier words and bump the round — with the
                // non-protocol arena resets slotted between the ack check
                // and the barrier reset, before anything is published.
                let round_mem = pw.round_mem();
                let survivor_acks: Vec<usize> = (0..n_pes)
                    .filter(|&pe| pids[pe] != 0)
                    .map(|pe| proto::round::ACK_BASE + pe)
                    .collect();
                let mut release = proto::round::Release::new(survivor_acks, round);
                let released = loop {
                    if release.phase() == proto::round::ReleasePhase::ResetCount {
                        // Every survivor is parked and every victim
                        // reaped: nothing races the table resets, and the
                        // machine's round bump publishes them.
                        pw.reset_tables_for_round();
                    }
                    match release.step(&round_mem) {
                        proto::round::ReleaseStep::Pending => {}
                        proto::round::ReleaseStep::NotParked => break false,
                        proto::round::ReleaseStep::Released => break true,
                    }
                };
                if released {
                    // Survivors are re-running; re-fork only the victims.
                    respawn_budget -= 1;
                    recovery_started = None;
                    round += 1;
                    let mut fork_failed = false;
                    for &pe in &victims {
                        let cause = deaths[pe].take().unwrap_or_else(|| {
                            SvError::Shmem(format!(
                                "process world: PE {pe} lost without a death record"
                            ))
                        });
                        match fork_pe(pe) {
                            Ok(pid) => {
                                respawns.push(RespawnEvent {
                                    pe,
                                    round,
                                    old_pid: pid_of[pe],
                                    new_pid: pid,
                                    cause,
                                });
                                pids[pe] = pid;
                                pid_of[pe] = pid;
                                live += 1;
                            }
                            Err(e) => {
                                deaths[pe] = Some(SvError::Shmem(format!("process world: {e}")));
                                fork_failed = true;
                            }
                        }
                    }
                    if fork_failed {
                        pw.poison_barrier();
                        respawn_active = false;
                        pw.set_abort();
                    }
                    let now = Instant::now();
                    for (pe, slot) in hb_last.iter_mut().enumerate() {
                        *slot = (pw.read_heartbeat(pe), now);
                    }
                    progressed = true;
                }
            }
        }
        if !progressed && live > 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    // Results: synthesized deaths win; otherwise decode the arena slot.
    let results: Vec<SvResult<T>> = deaths
        .iter_mut()
        .enumerate()
        .map(|(pe, death)| {
            if let Some(e) = death.take() {
                return Err(e);
            }
            match pw.read_result(pe) {
                Some(bytes) => {
                    let mut cursor = bytes.as_slice();
                    match <SvResult<T> as Wire>::decode(&mut cursor) {
                        Some(r) => r,
                        None => Err(SvError::Shmem(format!(
                            "process world: PE {pe} returned an undecodable result"
                        ))),
                    }
                }
                None => Err(SvError::Shmem(format!(
                    "process world: PE {pe} exited without publishing a result \
                     (result slot overflow or silent death)"
                ))),
            }
        })
        .collect();

    if let Some(plan) = faults {
        pw.absorb_faults(plan);
    }
    Ok(world.output(results, pid_of, respawns))
}

/// Typed record of an abnormal child death, stamped with the barrier epoch
/// the PE had completed (read from its arena epoch word).
fn pe_death(pw: &ProcWorld, pe: usize, signal: i32, code: i32) -> SvError {
    SvError::PeFailed {
        pe,
        op: PeOp::Term {
            signal,
            code,
            epoch: pw.epoch(pe),
        },
    }
}

/// The child side of a fork: run the body in the PE harness thread PEs run
/// in ([`World::run_pe`]), publish the encoded result, and `_exit` without
/// unwinding into the inherited parent state.
///
/// With `respawn` enabled the body runs in *rounds*: when a round is
/// wrecked (the barrier got poisoned), the child parks — acknowledging the
/// round and keeping its heartbeat alive — until the supervisor either
/// releases the next round (re-run the body against the reset arena) or
/// aborts (publish this round's result as-is). The body closure captures
/// its segment-initial inputs, so a re-run reproduces the segment exactly.
fn child_run<T, F>(world: &World, pw: &ProcWorld, pe: usize, body: &F, respawn: bool) -> !
where
    T: Wire + Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    pw.heartbeat(pe);
    let mut parked_round = pw.round();
    let res = loop {
        let round_res = world.run_pe(pe, body);
        if !(respawn && pw.barrier_poisoned() && !pw.abort()) {
            break round_res;
        }
        // Park: the round is wrecked but the supervisor may retry it.
        // Drive the shared survivor machine — ack the wrecked round, then
        // poll for a release (re-run) or an abort (publish as-is); the
        // heartbeat and sleep between polls are this driver's policy.
        let round_mem = pw.round_mem();
        let mut survivor = proto::round::Survivor::new(parked_round, pe);
        let decision = loop {
            match survivor.step(&round_mem) {
                proto::round::SurvivorStep::Pending => {
                    pw.heartbeat(pe);
                    if survivor.is_waiting() {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                decided => break decided,
            }
        };
        match decision {
            proto::round::SurvivorStep::Released(r) => {
                parked_round = r; // released: re-run the body
            }
            proto::round::SurvivorStep::Publish => break round_res,
            // Abort raced a release we missed: re-run; the sticky
            // poisoned barrier bounces the body straight back here.
            proto::round::SurvivorStep::ReRunStale | proto::round::SurvivorStep::Pending => {}
        }
    };
    let mut buf = Vec::new();
    res.encode(&mut buf);
    let _ = pw.write_result(pe, &buf);
    sys::exit_now(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use svsim_types::SvRng;

    /// A process world tuned by `process`, under `faults`.
    fn world(process: &ProcOptions, faults: Option<Arc<FaultPlan>>) -> WorldOptions {
        WorldOptions {
            backend: ShmemBackend::Process,
            process: process.clone(),
            faults,
            detect_races: false,
        }
    }

    fn opts() -> ProcOptions {
        ProcOptions {
            heap_words_per_pe: 1 << 12,
            result_bytes_per_pe: 1 << 12,
            barrier_timeout_ms: 20_000,
            hang_deadline_ms: 30_000,
            respawn_max: 0,
        }
    }

    #[test]
    fn wire_roundtrips() {
        fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(T::decode(&mut cursor), Some(v));
            assert!(cursor.is_empty(), "trailing bytes");
        }
        rt(());
        rt(42u64);
        rt(7usize);
        rt(-3i64);
        rt(true);
        rt(-0.5f64);
        rt(String::from("héllo"));
        rt(vec![1.0f64, f64::NAN.to_bits() as f64, -0.0]);
        rt((3usize, 4.5f64));
        rt((1u64, vec![2.0f64], vec![3.0f64]));
        rt(Ok::<u64, SvError>(9));
        rt(Err::<u64, SvError>(SvError::Shmem("x".into())));
        rt(Err::<(), SvError>(SvError::PeFailed {
            pe: 2,
            op: PeOp::Term {
                signal: 9,
                code: 0,
                epoch: 17,
            },
        }));
        rt(PeOp::Checkpoint);
        rt(Err::<u64, SvError>(SvError::PeHung {
            pe: 3,
            epoch: 12,
            stalled_ms: 1500,
        }));
        rt(Err::<u64, SvError>(SvError::BarrierTimeout {
            pe: 1,
            epoch: 4,
            waited_ms: 250,
        }));
        rt(Err::<u64, SvError>(SvError::Checkpoint("torn".into())));
        rt(Ok::<SvResult<(u64, (usize, usize))>, SvError>(Ok((
            5,
            (3, 2),
        ))));
    }

    #[test]
    fn wire_rejects_truncation() {
        let mut buf = Vec::new();
        vec![1.0f64; 4].encode(&mut buf);
        let mut cursor = &buf[..buf.len() - 1];
        assert_eq!(<Vec<f64> as Wire>::decode(&mut cursor), None);
        // A length prefix larger than the payload must not allocate blindly.
        let mut bogus = Vec::new();
        put_u64(&mut bogus, u64::MAX);
        let mut cursor = bogus.as_slice();
        assert_eq!(<Vec<f64> as Wire>::decode(&mut cursor), None);
    }

    #[test]
    fn layout_sections_do_not_overlap() {
        let o = ProcOptions {
            heap_words_per_pe: 100,
            result_bytes_per_pe: 256,
            ..ProcOptions::default()
        };
        let l = ArenaLayout::new(8, &o);
        let heap_end = (l.w_heap + 8 * 100) * 8;
        assert!(l.w_bar_count > l.w_bump);
        assert!(l.w_alloc_table > l.w_bar_sense);
        // Supervision words: heartbeats, round/abort/ack sit strictly
        // between the status slots and the fault mirror.
        assert!(l.w_heartbeats >= l.w_status + 8 * 2);
        assert!(l.w_round >= l.w_heartbeats + 8);
        assert_eq!(l.w_abort, l.w_round + 1);
        assert!(l.w_round_ack > l.w_abort);
        assert!(l.w_faults >= l.w_round_ack + 8);
        assert!(l.w_heap > l.w_counters);
        assert!(l.b_results >= heap_end);
        assert!(l.total_bytes >= l.b_results + 8 * 256);
        assert_eq!(l.total_bytes % 4096, 0);
    }

    #[test]
    fn process_panic_becomes_typed_error_without_poisoning_host() {
        let out = launch_world(3, &world(&opts(), None), |ctx| {
            if ctx.my_pe() == 1 {
                panic!("PE 1 exploded");
            }
            let _ = ctx.try_barrier_all();
            ctx.my_pe()
        })
        .unwrap();
        let root = out.first_failure().expect("PE 1 failed");
        assert!(root.to_string().contains("PE 1"), "got: {root}");
        // The launcher process is fine: a fresh world works.
        let again = launch_world(2, &world(&opts(), None), |ctx| ctx.my_pe())
            .unwrap()
            .into_result()
            .unwrap();
        assert_eq!(again.results, vec![0, 1]);
    }

    #[test]
    fn injected_kill_is_a_real_sigkill_with_epoch_at_death() {
        // Kill PE 2 at its 3rd put: the child dies by actual SIGKILL, the
        // parent synthesizes PeFailed{Term{signal: 9}} with the barrier
        // epoch the child had completed (1: the malloc barrier).
        let plan = Arc::new(FaultPlan::new().with(2, PeOp::Put, 3, FaultAction::Kill));
        let out = launch_world(4, &world(&opts(), Some(Arc::clone(&plan))), |ctx| {
            let sym = ctx.malloc_f64(4)?;
            for i in 0..4 {
                ctx.put_f64(&sym, (ctx.my_pe() + 1) % ctx.n_pes(), i, 1.0);
            }
            ctx.try_barrier_all()?;
            Ok::<_, SvError>(ctx.my_pe())
        })
        .unwrap();
        match out.results[2].as_ref().unwrap_err() {
            SvError::PeFailed {
                pe: 2,
                op:
                    PeOp::Term {
                        signal: sys::SIGKILL,
                        code: 0,
                        epoch: 1,
                    },
            } => {}
            other => panic!("expected SIGKILL Term record, got {other:?}"),
        }
        // Survivors fail typed (poisoned barrier), not hang.
        for pe in [0usize, 1, 3] {
            match &out.results[pe] {
                Ok(Err(SvError::Shmem(msg))) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("PE {pe}: expected clean poison report, got {other:?}"),
            }
        }
        // One-shot disarm propagated back to the parent's plan.
        assert_eq!(plan.armed_remaining(), 0);
    }

    #[test]
    fn barrier_contention_2_4_8_pes_1k_barriers() {
        // 1k barriers per PE count with randomized per-PE stalls: phases
        // must stay separated (each PE stores round * (rank+1) into its
        // slot of PE 0's partition every epoch; after the barrier the sum
        // over the slots must be exact).
        for n_pes in [2usize, 4, 8] {
            const ROUNDS: u64 = 1000;
            let out = launch_world(n_pes, &world(&opts(), None), move |ctx| {
                let acc = ctx.malloc_f64(ctx.n_pes()).expect("alloc");
                let mut rng = SvRng::seed_from_u64(0xba44 ^ ctx.my_pe() as u64);
                let mut clean = 0u64;
                for round in 1..=ROUNDS {
                    if rng.next_f64() < 0.02 {
                        std::thread::sleep(Duration::from_micros((rng.next_f64() * 200.0) as u64));
                    }
                    ctx.put_f64(
                        &acc,
                        0,
                        ctx.my_pe(),
                        (round * (ctx.my_pe() as u64 + 1)) as f64,
                    );
                    ctx.try_barrier_all().expect("barrier");
                    let expect = (round * (ctx.n_pes() * (ctx.n_pes() + 1) / 2) as u64) as f64;
                    let total: f64 = (0..ctx.n_pes()).map(|p| ctx.get_f64(&acc, 0, p)).sum();
                    if total == expect {
                        clean += 1;
                    }
                    ctx.try_barrier_all().expect("barrier");
                }
                clean
            })
            .unwrap()
            .into_result()
            .unwrap();
            assert_eq!(
                out.results,
                vec![ROUNDS; n_pes],
                "{n_pes} PEs: phase leak under contention"
            );
        }
    }

    #[test]
    fn killing_a_pe_mid_barrier_releases_survivors_typed() {
        // PE 1 SIGKILLs itself (via an injected kill at its 5th barrier)
        // while peers head into the same barrier: survivors must get a
        // typed error within the bounded wait, never hang, and the root
        // cause must name the dead PE with a Term record.
        let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, 5, FaultAction::Kill));
        let start = Instant::now();
        let out = launch_world(4, &world(&opts(), Some(plan)), |ctx| {
            for _ in 0..16 {
                if let Err(e) = ctx.try_barrier_all() {
                    let timed_out = matches!(e, SvError::BarrierTimeout { .. });
                    return (ctx.barrier_epoch(), timed_out);
                }
            }
            (u64::MAX, false)
        })
        .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "survivors must be released promptly, took {:?}",
            start.elapsed()
        );
        match out.first_failure() {
            Some(SvError::PeFailed {
                pe: 1,
                op: PeOp::Term {
                    signal: 9, epoch, ..
                },
            }) => assert_eq!(*epoch, 4, "epoch at death"),
            other => panic!("expected PE 1 Term death, got {other:?}"),
        }
        for pe in [0usize, 2, 3] {
            let (epoch, timed_out) = out.results[pe].as_ref().expect("survivor reports");
            assert_eq!(*epoch, 4, "PE {pe} must stop in the poisoned epoch");
            // A reaped peer death must surface as the poisoned release,
            // never as the survivor's own bounded-wait timeout — the two
            // are distinct typed conditions.
            assert!(!timed_out, "PE {pe} misreported the death as a timeout");
        }
    }

    #[test]
    fn slow_peer_surfaces_as_typed_barrier_timeout() {
        // PE 0 dawdles for far longer than the barrier timeout: PE 1's
        // bounded wait must expire as the typed BarrierTimeout (with the
        // wait measured), not as a peer death or a generic poison report.
        let o = ProcOptions {
            barrier_timeout_ms: 200,
            ..opts()
        };
        let out = launch_world(2, &world(&o, None), |ctx| {
            if ctx.my_pe() == 0 {
                std::thread::sleep(Duration::from_millis(1200));
            }
            ctx.try_barrier_all()
        })
        .unwrap();
        match &out.results[1] {
            Ok(Err(SvError::BarrierTimeout {
                pe: 1,
                epoch: 0,
                waited_ms,
            })) => assert!(*waited_ms >= 200, "waited {waited_ms} ms"),
            other => panic!("expected typed barrier timeout, got {other:?}"),
        }
        // The late PE observes the poison at entry — a poisoned-peer
        // report, distinct from the timeout.
        match &out.results[0] {
            Ok(Err(SvError::Shmem(msg))) => assert!(msg.contains("poisoned"), "{msg}"),
            other => panic!("expected poison report, got {other:?}"),
        }
    }

    #[test]
    fn hung_pe_is_killed_and_reported_within_deadline() {
        // An injected Hang wedges PE 1 at its 2nd put (no heartbeat, no
        // death): the parent watchdog must SIGKILL it and report the typed
        // PeHung — with the stall measured and the epoch at the hang —
        // well within the barrier timeout the survivors would otherwise
        // burn.
        let plan = Arc::new(FaultPlan::new().with(1, PeOp::Put, 2, FaultAction::Hang));
        let o = ProcOptions {
            hang_deadline_ms: 600,
            barrier_timeout_ms: 15_000,
            ..opts()
        };
        let start = Instant::now();
        let out = launch_world(3, &world(&o, Some(plan)), |ctx| {
            let sym = ctx.malloc_f64(2)?;
            for i in 0..2 {
                ctx.put_f64(&sym, (ctx.my_pe() + 1) % ctx.n_pes(), i, 1.0);
            }
            ctx.try_barrier_all()?;
            Ok::<_, SvError>(ctx.my_pe())
        })
        .unwrap();
        let elapsed = start.elapsed();
        match out.results[1].as_ref().unwrap_err() {
            SvError::PeHung {
                pe: 1,
                epoch: 1,
                stalled_ms,
            } => assert!(*stalled_ms >= 600, "stalled {stalled_ms} ms"),
            other => panic!("expected PeHung, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(10),
            "watchdog must fire within the deadline, took {elapsed:?}"
        );
        // Survivors observe the poisoned barrier, not their own timeout.
        for pe in [0usize, 2] {
            match &out.results[pe] {
                Ok(Err(SvError::Shmem(msg))) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("PE {pe}: expected poison report, got {other:?}"),
            }
        }
    }

    #[test]
    fn in_place_respawn_preserves_survivors_by_pid() {
        // Kill PE 1 at its 2nd barrier; with a respawn budget the
        // supervisor re-forks only PE 1 and re-runs the round. Every PE
        // returns its pid from the successful round: survivors must report
        // the pid of their original fork (same process ran both rounds),
        // and the victim the new pid of its respawn event.
        let plan = Arc::new(FaultPlan::new().with(1, PeOp::Barrier, 2, FaultAction::Kill));
        let o = ProcOptions {
            respawn_max: 2,
            barrier_timeout_ms: 15_000,
            ..opts()
        };
        let out = launch_world(4, &world(&o, Some(Arc::clone(&plan))), |ctx| {
            let sym = ctx.malloc_f64(1)?;
            ctx.put_f64(&sym, (ctx.my_pe() + 1) % ctx.n_pes(), 0, ctx.my_pe() as f64);
            ctx.try_barrier_all()?;
            Ok::<_, SvError>((
                u64::from(std::process::id()),
                ctx.get_f64(&sym, ctx.my_pe(), 0),
            ))
        })
        .unwrap();
        assert_eq!(out.respawns.len(), 1, "one respawn: {:?}", out.respawns);
        let ev = &out.respawns[0];
        assert_eq!((ev.pe, ev.round), (1, 1));
        assert_ne!(ev.old_pid, ev.new_pid, "victim must get a fresh process");
        assert!(
            matches!(
                ev.cause,
                SvError::PeFailed {
                    pe: 1,
                    op: PeOp::Term { signal: 9, .. }
                }
            ),
            "cause: {:?}",
            ev.cause
        );
        for pe in 0..4 {
            let &(pid, val) = out.results[pe]
                .as_ref()
                .expect("recovered round succeeds")
                .as_ref()
                .expect("SPMD body succeeds");
            // Ring value from the re-run round proves the segment was
            // reproduced, not resumed mid-wreck.
            assert_eq!(val, ((pe + 3) % 4) as f64, "PE {pe} ring value");
            assert_eq!(pid, out.pids[pe] as u64, "PE {pe} pid stability");
        }
        // The parent reads the re-run round's one allocation off the arena.
        assert_eq!(out.heap.len(), 1);
        for pe in 0..4 {
            assert_eq!(out.heap[0].partition(pe).load(0), ((pe + 3) % 4) as f64);
        }
        assert_eq!(
            out.results[1].as_ref().unwrap().as_ref().unwrap().0,
            ev.new_pid as u64
        );
        assert_eq!(
            plan.armed_remaining(),
            0,
            "one-shot stayed disarmed across rounds"
        );
    }

    #[test]
    fn respawn_budget_exhaustion_falls_back_to_typed_errors() {
        // Two kills but a budget of one: the first round respawns, the
        // second aborts recovery and the launch reports the second death
        // typed, exactly as a respawn-disabled launch would.
        let plan = Arc::new(
            FaultPlan::new()
                .with(1, PeOp::Barrier, 2, FaultAction::Kill)
                .with(2, PeOp::Barrier, 5, FaultAction::Kill),
        );
        let o = ProcOptions {
            respawn_max: 1,
            barrier_timeout_ms: 15_000,
            ..opts()
        };
        let out = launch_world(4, &world(&o, Some(plan)), |ctx| {
            for _ in 0..3 {
                ctx.try_barrier_all()?;
            }
            Ok::<_, SvError>(ctx.my_pe())
        })
        .unwrap();
        assert_eq!(out.respawns.len(), 1, "{:?}", out.respawns);
        match out.first_failure() {
            Some(SvError::PeFailed { pe: 2, .. }) => {}
            other => panic!("expected PE 2 death after budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn poison_fault_respawns_with_zero_victims() {
        // A Poison wrecks the round without killing any process: recovery
        // re-runs the body on the surviving (= all) PEs with no re-fork.
        let plan = Arc::new(FaultPlan::new().with(0, PeOp::Barrier, 2, FaultAction::Poison));
        let o = ProcOptions {
            respawn_max: 1,
            barrier_timeout_ms: 15_000,
            ..opts()
        };
        let out = launch_world(2, &world(&o, Some(plan)), |ctx| {
            for _ in 0..3 {
                ctx.try_barrier_all()?;
            }
            Ok::<_, SvError>(ctx.my_pe())
        })
        .unwrap();
        assert!(out.respawns.is_empty(), "no process was re-forked");
        for (pe, r) in out.results.iter().enumerate() {
            assert_eq!(
                r.as_ref()
                    .expect("no deaths")
                    .as_ref()
                    .expect("re-run succeeds"),
                &pe
            );
        }
    }

    #[test]
    fn heap_exhaustion_is_a_typed_error_on_every_pe() {
        let small = ProcOptions {
            heap_words_per_pe: 8,
            ..opts()
        };
        let out = launch_world(2, &world(&small, None), |ctx| match ctx.malloc_f64(64) {
            Err(SvError::Shmem(msg)) => msg.contains("exhausted") || msg.contains("published"),
            other => panic!("expected typed exhaustion, got {other:?}"),
        })
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(out.results, vec![true, true]);
    }

    #[test]
    fn zero_pes_rejected() {
        assert!(launch_world::<(), _>(0, &world(&opts(), None), |_| ()).is_err());
    }
}
