//! Process-backed SPMD world: PEs as forked OS processes over a shared
//! `memfd` mapping.
//!
//! The thread-backed world of [`crate::world`] models OpenSHMEM faithfully
//! for traffic and synchronization, but its PEs share one address space —
//! a "killed" PE is a panicked thread, not a dead process. This module
//! promotes the symmetric heap to a real OS-shared mapping and the PEs to
//! real processes, which buys the failure mode the paper's scale
//! (Summit/Theta/DGX pods) actually exhibits: a rank can be `kill -9`-ed
//! mid-epoch and the launcher, barrier, and engine recovery path all keep
//! working.
//!
//! The substitution, piece by piece:
//!
//! - **Symmetric heap** — one `memfd_create` + `mmap(MAP_SHARED)` arena,
//!   laid out as a fixed header (barrier words, per-PE epoch/status slots,
//!   traffic counter blocks, collective scratch, an allocation table) plus
//!   a bump-allocated heap of per-PE partitions. Every PE maps the region
//!   at the same address (inherited across `fork`), so the one-sided
//!   accessors are the *same code* as the thread backend — only the words
//!   live in OS-shared memory instead of a process-private `Box`.
//! - **PE launch** — [`launch_process`] forks one child per PE; each child
//!   runs the same closure-driven SPMD body, encodes its result into its
//!   arena slot and `_exit`s. The parent reaps with `waitpid` and maps an
//!   abnormal exit (signal, nonzero code) to a typed
//!   [`SvError::PeFailed`] carrying the signal number and the barrier
//!   epoch the child had reached when it died.
//! - **Barrier** — the same sense-reversing protocol as
//!   [`crate::barrier::SenseBarrier`], rebuilt on arena atomics with a
//!   spin→yield waiter and a bounded-wait timeout, so surviving PEs of a
//!   killed peer fail typed instead of hanging even if the reaper is slow.
//! - **Fault injection** — a [`FaultPlan`]'s one-shot counters are
//!   mirrored into the arena before forking and absorbed back after
//!   reaping, so cross-launch accumulation (checkpoint segments) and
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

use crate::barrier::{BarrierToken, BarrierWaitError};
use crate::fault::{FaultAction, FaultPlan};
use crate::metrics::MetricsTable;
use crate::proto::{self, MemOrder, ProtoMem};
use crate::shared::{SharedF64Vec, SharedU64Vec};
use crate::world::{ShmemCtx, SpmdOutput, World};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// `words_per_pe` symmetric f64/u64 words and returns about
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

/// Max collective allocations per element kind per launch.
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
    w_bar_poison: usize,
    w_f64_table: usize,
    w_u64_table: usize,
    w_epochs: usize,
    w_status: usize,
    w_heartbeats: usize,
    w_round: usize,
    w_abort: usize,
    w_round_ack: usize,
    w_faults: usize,
    w_coll_f64: usize,
    w_coll_u64: usize,
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
        let w_bar_poison = take(&mut w, 1);
        w = round_up(w, BLOCK_WORDS);
        let w_f64_table = take(&mut w, MAX_ALLOCS * 3);
        let w_u64_table = take(&mut w, MAX_ALLOCS * 3);
        let w_epochs = take(&mut w, n_pes);
        let w_status = take(&mut w, n_pes * 2);
        let w_heartbeats = take(&mut w, n_pes);
        let w_round = take(&mut w, 1);
        let w_abort = take(&mut w, 1);
        let w_round_ack = take(&mut w, n_pes);
        let w_faults = take(&mut w, MAX_FAULT_SPECS * 2);
        let w_coll_f64 = take(&mut w, n_pes);
        let w_coll_u64 = take(&mut w, n_pes);
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
            w_bar_poison,
            w_f64_table,
            w_u64_table,
            w_epochs,
            w_status,
            w_heartbeats,
            w_round,
            w_abort,
            w_round_ack,
            w_faults,
            w_coll_f64,
            w_coll_u64,
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
/// to arena word `map[i]`. This is how the production process backend
/// instantiates the pure state machines of [`crate::proto`] — the model
/// checker instantiates the *same machines* over a model vector instead.
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
// Barrier over arena words.
// ---------------------------------------------------------------------------

/// Sense-reversing barrier on shared-arena atomics, with a spin→yield
/// waiter and a bounded-wait timeout. Reproduces
/// [`crate::barrier::SenseBarrier::try_wait`]'s exact epoch semantics —
/// including the released-epoch rule: an epoch that fully released before
/// a poison landed still completes, so every PE observes a failure in the
/// *same* epoch (the first one that can no longer finish).
#[derive(Debug)]
pub(crate) struct ProcBarrier {
    arena: Arc<ShmArena>,
    w_count: usize,
    w_sense: usize,
    w_poison: usize,
    w_heartbeats: usize,
    n: u64,
    timeout: Duration,
}

impl ProcBarrier {
    pub(crate) fn try_wait(
        &self,
        token: &mut BarrierToken,
        pe: usize,
    ) -> Result<(), BarrierWaitError> {
        let heartbeat = self.arena.word(self.w_heartbeats + pe);
        heartbeat.fetch_add(1, Ordering::Relaxed);
        let mem = ArenaWords {
            arena: &self.arena,
            map: [self.w_count, self.w_sense, self.w_poison],
        };
        // timeout_recheck: the expiry is one decisive compare-exchange,
        // so a bounded wait that loses its race against the release
        // reports the release — the model checker proved the old blind
        // poison could fail an epoch a peer had already completed.
        let sm = proto::bar::BarrierSm {
            n: self.n,
            timeout_recheck: true,
        };
        let mut actor = proto::bar::Actor::new(token.sense());
        let mut spins = 0u32;
        let mut wait: Option<(Instant, Instant)> = None;
        loop {
            match sm.step(&mut actor, &mem) {
                proto::bar::Step::Released => {
                    token.set_sense(actor.sense());
                    return Ok(());
                }
                proto::bar::Step::Poisoned => return Err(BarrierWaitError::Poisoned),
                proto::bar::Step::TimedOut => {
                    // Bounded wait: a peer is gone and nobody told us. The
                    // machine poisoned the barrier so the whole world fails
                    // typed, us included, instead of hanging — and the
                    // expiry is reported as a *timeout*, not a peer death.
                    let (started, _) = wait.unwrap_or_else(|| {
                        let now = Instant::now();
                        (now, now)
                    });
                    return Err(BarrierWaitError::TimedOut {
                        waited: started.elapsed(),
                    });
                }
                proto::bar::Step::Pending => {
                    if !actor.is_waiting() {
                        continue;
                    }
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        // One core may host every PE process: yield or the
                        // releasing PE never runs. Waiting here is progress —
                        // keep the heartbeat alive so the parent watchdog
                        // only ever flags a PE that is truly wedged, never
                        // one legitimately blocked on a slow peer.
                        std::thread::yield_now();
                        heartbeat.fetch_add(1, Ordering::Relaxed);
                        let (_, d) = *wait.get_or_insert_with(|| {
                            let now = Instant::now();
                            (now, now + self.timeout)
                        });
                        if Instant::now() > d {
                            sm.request_timeout(&mut actor);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn poison(&self) {
        proto::bar::post_poison(&ArenaWords {
            arena: &self.arena,
            map: [self.w_count, self.w_sense, self.w_poison],
        });
    }
}

// ---------------------------------------------------------------------------
// Arena-mirrored fault plan.
// ---------------------------------------------------------------------------

/// A [`FaultPlan`] view whose one-shot counters live in the arena, so all
/// PE processes count against the *same* words (a process-private copy
/// would let every child fire its own copy of a wildcard fault).
#[derive(Debug)]
pub(crate) struct ArenaFaults {
    arena: Arc<ShmArena>,
    base: usize,
    specs: Vec<(Option<usize>, PeOp, u64, FaultAction)>,
}

impl ArenaFaults {
    /// Mirror of [`FaultPlan::check`] against the arena counters, driving
    /// the shared [`proto::fault`] machine per matching spec (the CAS
    /// disarm is what makes a wildcard one-shot fire exactly once
    /// world-wide; the model checker proves it under every interleaving).
    pub(crate) fn check(&self, pe: usize, op: PeOp) -> Option<FaultAction> {
        let mut fired = None;
        for (i, &(spec_pe, spec_op, at, action)) in self.specs.iter().enumerate() {
            if spec_op != op || spec_pe.is_some_and(|p| p != pe) {
                continue;
            }
            let mem = ArenaWords {
                arena: &self.arena,
                map: [self.base + 2 * i, self.base + 2 * i + 1],
            };
            let mut check = proto::fault::Check::new(at);
            loop {
                match check.step(&mem) {
                    proto::fault::Step::Pending => {}
                    proto::fault::Step::Fired => {
                        fired.get_or_insert(action);
                        break;
                    }
                    proto::fault::Step::Skip
                    | proto::fault::Step::Counted
                    | proto::fault::Step::Lost => break,
                }
            }
        }
        fired
    }
}

// ---------------------------------------------------------------------------
// ProcWorld: everything world.rs needs to run over the arena.
// ---------------------------------------------------------------------------

/// The process-backed world state: arena handle + layout. Lives inside
/// [`World`] and is inherited by every forked PE (same mapping, same
/// addresses).
#[derive(Debug)]
pub(crate) struct ProcWorld {
    arena: Arc<ShmArena>,
    layout: ArenaLayout,
    timeout: Duration,
}

impl ProcWorld {
    fn new(n_pes: usize, opts: &ProcOptions) -> SvResult<Self> {
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

    pub(crate) fn barrier(&self) -> ProcBarrier {
        ProcBarrier {
            arena: Arc::clone(&self.arena),
            w_count: self.layout.w_bar_count,
            w_sense: self.layout.w_bar_sense,
            w_poison: self.layout.w_bar_poison,
            w_heartbeats: self.layout.w_heartbeats,
            n: self.layout.n_pes as u64,
            timeout: self.timeout,
        }
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

    pub(crate) fn coll_u64(&self) -> SharedU64Vec {
        // SAFETY: as coll_f64.
        unsafe {
            SharedU64Vec::from_raw(
                self.arena.word_ptr(self.layout.w_coll_u64),
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
        proto::bar::is_poisoned(&ArenaWords {
            arena: &self.arena,
            map: [
                self.layout.w_bar_count,
                self.layout.w_bar_sense,
                self.layout.w_bar_poison,
            ],
        })
    }

    /// The [`ProtoMem`] window of the respawn round handshake: round and
    /// abort words, the barrier triple the supervisor resets, then one
    /// ack slot per PE — the slot order [`proto::round`] expects.
    fn round_mem(&self) -> ArenaVecWords<'_> {
        let l = &self.layout;
        let mut map = vec![
            l.w_round,
            l.w_abort,
            l.w_bar_count,
            l.w_bar_sense,
            l.w_bar_poison,
        ];
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
    /// bump pointer, both allocation tables, epochs and result slots all
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
        for t in [l.w_f64_table, l.w_u64_table] {
            for i in 0..MAX_ALLOCS * 3 {
                self.arena.word(t + i).store(0, Ordering::Relaxed);
            }
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
                .store(0, Ordering::Relaxed);
            self.arena
                .word(l.w_coll_u64 + pe)
                .store(0, Ordering::Release);
        }
    }

    fn table_base(&self, is_f64: bool) -> usize {
        if is_f64 {
            self.layout.w_f64_table
        } else {
            self.layout.w_u64_table
        }
    }

    /// The [`ProtoMem`] window of allocation entry `seq`: the shared bump
    /// pointer plus the entry's `{len, off, ready}` table triple, in the
    /// slot order [`proto::alloc`] expects.
    fn alloc_mem(&self, is_f64: bool, seq: usize) -> ArenaWords<'_, 4> {
        let entry = self.table_base(is_f64) + seq * 3;
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
    pub(crate) fn publish_alloc(
        &self,
        is_f64: bool,
        seq: usize,
        len_per_pe: usize,
    ) -> SvResult<()> {
        if seq >= MAX_ALLOCS {
            return Err(SvError::Shmem(format!(
                "process world: more than {MAX_ALLOCS} collective allocations"
            )));
        }
        let need = len_per_pe * self.layout.n_pes;
        let cap = self.layout.n_pes * self.layout.heap_words_per_pe;
        let mem = self.alloc_mem(is_f64, seq);
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
    /// driving the shared [`proto::alloc::Lookup`] machine.
    pub(crate) fn lookup_alloc(
        &self,
        pe: usize,
        is_f64: bool,
        seq: usize,
        len_per_pe: usize,
    ) -> SvResult<usize> {
        if seq >= MAX_ALLOCS {
            return Err(SvError::Shmem(format!(
                "process world: more than {MAX_ALLOCS} collective allocations"
            )));
        }
        let mem = self.alloc_mem(is_f64, seq);
        let mut lookup = proto::alloc::Lookup::new(len_per_pe as u64);
        loop {
            match lookup.step(&mem) {
                proto::alloc::LookupStep::Pending => {}
                #[allow(clippy::cast_possible_truncation)]
                proto::alloc::LookupStep::Resolved(off) => return Ok(off as usize),
                proto::alloc::LookupStep::NotPublished => {
                    return Err(SvError::Shmem(format!(
                        "PE {pe}: allocation #{seq} was never published \
                         (collective call order violated)"
                    )));
                }
                proto::alloc::LookupStep::Mismatch { .. } => {
                    return Err(SvError::Shmem(format!(
                        "PE {pe}: collective allocation #{seq} size mismatch \
                         (collective call order violated)"
                    )));
                }
            }
        }
    }

    /// Per-PE partition windows of an allocation resolved by
    /// [`lookup_alloc`].
    pub(crate) fn f64_partitions(&self, off_words: usize, len_per_pe: usize) -> Vec<SharedF64Vec> {
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

    /// As [`f64_partitions`](Self::f64_partitions), for `u64` words.
    pub(crate) fn u64_partitions(&self, off_words: usize, len_per_pe: usize) -> Vec<SharedU64Vec> {
        (0..self.layout.n_pes)
            .map(|p| {
                // SAFETY: as f64_partitions.
                unsafe {
                    SharedU64Vec::from_raw(
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
            let (seen, armed) = s.state();
            self.arena
                .word(self.layout.w_faults + 2 * i)
                .store(seen, Ordering::Relaxed);
            self.arena
                .word(self.layout.w_faults + 2 * i + 1)
                .store(u64::from(armed), Ordering::Release);
        }
        Ok(())
    }

    fn absorb_faults(&self, plan: &FaultPlan) {
        for (i, s) in plan.specs().iter().enumerate() {
            let seen = self
                .arena
                .word(self.layout.w_faults + 2 * i)
                .load(Ordering::Acquire);
            let armed = self
                .arena
                .word(self.layout.w_faults + 2 * i + 1)
                .load(Ordering::Acquire)
                != 0;
            s.set_state(seen, armed);
        }
    }

    pub(crate) fn arena_faults(&self, plan: &FaultPlan) -> ArenaFaults {
        ArenaFaults {
            arena: Arc::clone(&self.arena),
            base: self.layout.w_faults,
            specs: plan
                .specs()
                .iter()
                .map(|s| (s.pe, s.op, s.at, s.action))
                .collect(),
        }
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
/// child→parent result channel of [`launch_process`]. Implemented for the
/// primitives, strings, vectors, tuples, `Result`, and the workspace error
/// type — everything an SPMD body in this codebase returns.
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

impl Wire for Vec<u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for v in self {
            put_u64(out, *v);
        }
    }
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        let len = get_u64(buf)? as usize;
        if buf.len() < len.checked_mul(8)? {
            return None;
        }
        (0..len).map(|_| get_u64(buf)).collect()
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

/// [`crate::launch_with_faults`] with OS processes as PEs over a shared
/// `memfd` arena: forks one child per PE, runs the same closure-driven
/// SPMD body in each, and reaps them with `waitpid`. An abnormal child
/// exit (a real `SIGKILL`, a panic-turned-abort, a nonzero exit) surfaces
/// as [`SvError::PeFailed`] with [`PeOp::Term`] carrying the signal/exit
/// code and the barrier epoch the PE had reached when it died; surviving
/// peers observe the poisoned arena barrier and shut down typed, exactly
/// as in the thread-backed world.
///
/// The body's return type crosses a process boundary, so it must implement
/// [`Wire`] (every production body returns word/vector data). Race
/// detection is not available on this backend.
///
/// # Errors
/// [`SvError::InvalidConfig`] when `n_pes == 0`; [`SvError::Shmem`] when
/// the arena cannot be created or a fork fails. Per-PE failures are
/// reported in [`SpmdOutput::results`], not as a top-level error.
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
    if n_pes == 0 {
        return Err(SvError::InvalidConfig("n_pes must be >= 1".into()));
    }
    silence_child_panics();
    let pw = ProcWorld::new(n_pes, opts)?;
    if let Some(plan) = &faults {
        pw.seed_faults(plan)?;
    }
    let world = World::new_process(n_pes, pw, faults.as_deref());
    let pw = world.proc().expect("process world");
    let respawn_enabled = opts.respawn_max > 0;

    // Fork one child for rank `pe`; the child never returns from this call.
    let fork_pe = |pe: usize| -> Result<sys::Pid, String> {
        match sys::spawn() {
            Ok(0) => {
                // CHILD: run the SPMD body, publish, _exit.
                child_run::<T, F>(&world, pe, &body, respawn_enabled);
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
                world.poison_barrier();
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
                    world.poison_barrier();
                    if deaths[pe].is_none() {
                        deaths[pe] = Some(pe_death(&world, pe, 0, code));
                    }
                }
                sys::Wait::Signaled(signal) => {
                    world.poison_barrier();
                    if deaths[pe].is_none() {
                        deaths[pe] = Some(pe_death(&world, pe, signal, 0));
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
                world.poison_barrier();
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
                        world.poison_barrier();
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

    if let Some(plan) = &faults {
        pw.absorb_faults(plan);
    }
    let traffic = world.snapshot_traffic();
    Ok(SpmdOutput {
        results,
        traffic,
        pids: pid_of,
        respawns,
    })
}

/// Typed record of an abnormal child death, stamped with the barrier epoch
/// the PE had completed (read from its arena epoch word).
fn pe_death(world: &World, pe: usize, signal: i32, code: i32) -> SvError {
    let epoch = world.proc().map_or(0, |pw| pw.epoch(pe));
    SvError::PeFailed {
        pe,
        op: PeOp::Term {
            signal,
            code,
            epoch,
        },
    }
}

/// True only in a forked PE (the store happens after the fork, in the
/// child's copy of the flag).
static FORKED_CHILD: AtomicBool = AtomicBool::new(false);

/// Keep panics in forked PEs silent and cheap: children share the parent's
/// stderr, expected failures (injected faults, poisoned barriers) are
/// panics by design, and a backtrace would stall the PE's heartbeat past a
/// short watchdog deadline. Installed once, by the *parent*, as a wrapper
/// that defers to the hook it found unless [`FORKED_CHILD`] is set. The
/// child itself must not call `panic::set_hook`: that takes std's
/// process-global hook lock for writing, and a fork taken while another
/// parent thread is mid-panic inherits the lock read-held by a thread that
/// does not exist in the child — it would deadlock before its first
/// heartbeat. Reading the flag takes no lock at all.
fn silence_child_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let parent_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !FORKED_CHILD.load(Ordering::Relaxed) {
                parent_hook(info);
            }
        }));
    });
}

/// The child side of a fork: run the body, convert panics into the same
/// typed errors the thread backend produces, publish the encoded result,
/// and `_exit` without unwinding into the inherited parent state.
///
/// With `respawn` enabled the body runs in *rounds*: when a round is
/// wrecked (the barrier got poisoned), the child parks — acknowledging the
/// round and keeping its heartbeat alive — until the supervisor either
/// releases the next round (re-run the body against the reset arena) or
/// aborts (publish this round's result as-is). The body closure captures
/// its segment-initial inputs, so a re-run reproduces the segment exactly.
fn child_run<T, F>(world: &World, pe: usize, body: &F, respawn: bool) -> !
where
    T: Wire + Send,
    F: Fn(&ShmemCtx<'_>) -> T + Sync,
{
    FORKED_CHILD.store(true, Ordering::Relaxed);
    let pw = world.proc().expect("child of a process world");
    pw.heartbeat(pe);
    let mut parked_round = pw.round();
    let res: SvResult<T> = loop {
        let ctx = world.make_ctx(pe);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
        let round_res: SvResult<T> = match r {
            Ok(v) => Ok(v),
            Err(payload) => {
                // Poison first so peers spinning in the barrier fail fast.
                world.poison_barrier();
                Err(crate::world::classify_panic(pe, payload.as_ref()))
            }
        };
        pw.set_epoch(pe, ctx.barrier_epoch());
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
        rt(vec![1u64, u64::MAX]);
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
        rt(Ok::<SvResult<(u64, Vec<f64>, Vec<f64>)>, SvError>(Ok((
            5,
            vec![0.25; 3],
            vec![-1.0; 2],
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
        assert_eq!(<Vec<u64> as Wire>::decode(&mut cursor), None);
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
        assert!(l.w_f64_table > l.w_bar_poison);
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
    fn process_ranks_and_ring_exchange() {
        // The thread-backend ring-exchange smoke, verbatim, on processes.
        let out = launch_process(4, &opts(), None, |ctx| {
            let sym = ctx.malloc_f64(1).expect("alloc");
            let right = (ctx.my_pe() + 1) % ctx.n_pes();
            ctx.put_f64(&sym, right, 0, ctx.my_pe() as f64);
            ctx.barrier_all();
            ctx.get_f64(&sym, ctx.my_pe(), 0)
        })
        .unwrap()
        .into_result()
        .unwrap();
        assert_eq!(out.results, vec![3.0, 0.0, 1.0, 2.0]);
        // Traffic counters live in the arena and survive the children.
        assert_eq!(out.total_traffic().remote_puts, 4);
    }

    #[test]
    fn process_collectives_and_atomics() {
        let out = launch_process(4, &opts(), None, |ctx| {
            let sum = ctx.sum_reduce_f64(ctx.my_pe() as f64 + 1.0);
            let max = ctx.max_reduce_f64(ctx.my_pe() as f64);
            let b = ctx.broadcast_f64(2, if ctx.my_pe() == 2 { 42.0 } else { 0.0 });
            let cnt = ctx.malloc_u64(1).expect("alloc");
            ctx.atomic_fetch_add_u64(&cnt, 0, 0, 1);
            ctx.barrier_all();
            (sum, max, (b, ctx.get_u64(&cnt, 0, 0)))
        })
        .unwrap()
        .into_result()
        .unwrap();
        for &(sum, max, (b, cnt)) in &out.results {
            assert_eq!(sum, 10.0);
            assert_eq!(max, 3.0);
            assert_eq!(b, 42.0);
            assert_eq!(cnt, 4);
        }
    }

    #[test]
    fn process_multiple_allocations_slices_and_order() {
        let out = launch_process(2, &opts(), None, |ctx| {
            let a = ctx.malloc_f64(2).expect("alloc");
            let b = ctx.malloc_f64(8).expect("alloc");
            let f = ctx.malloc_u64(1).expect("alloc");
            if ctx.my_pe() == 0 {
                ctx.put_slice_f64(&b, 1, 2, &[5.0, 6.0, 7.0]);
            }
            ctx.put_f64(&a, ctx.my_pe(), 0, 1.0);
            ctx.atomic_fetch_add_u64(&f, 0, 0, 1);
            ctx.barrier_all();
            let mut buf = vec![0.0; 3];
            ctx.get_slice_f64(&b, 1, 2, &mut buf);
            (buf, (a.len_per_pe(), ctx.get_u64(&f, 0, 0)))
        })
        .unwrap()
        .into_result()
        .unwrap();
        for (buf, (len_a, cnt)) in &out.results {
            assert_eq!(buf, &[5.0, 6.0, 7.0]);
            assert_eq!((*len_a, *cnt), (2, 2));
        }
    }

    #[test]
    fn process_panic_becomes_typed_error_without_poisoning_host() {
        let out = launch_process(3, &opts(), None, |ctx| {
            if ctx.my_pe() == 1 {
                panic!("PE 1 exploded");
            }
            ctx.barrier_all();
            ctx.my_pe()
        })
        .unwrap();
        let root = out.first_failure().expect("PE 1 failed");
        assert!(root.to_string().contains("PE 1"), "got: {root}");
        // The launcher process is fine: a fresh world works.
        let again = launch_process(2, &opts(), None, |ctx| ctx.my_pe())
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
        let out = launch_process(4, &opts(), Some(Arc::clone(&plan)), |ctx| {
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
    fn epoch_agreement_under_injected_barrier_faults() {
        // The thread-backend epoch-agreement property on processes: a
        // Poison at the victim's 10th barrier is observed by every PE in
        // epoch 9.
        const AT: u64 = 10;
        let plan = Arc::new(FaultPlan::new().with(2, PeOp::Barrier, AT, FaultAction::Poison));
        let out = launch_process(4, &opts(), Some(plan), |ctx| {
            for _ in 0..32 {
                if ctx.try_barrier_all().is_err() {
                    return ctx.barrier_epoch();
                }
            }
            u64::MAX
        })
        .unwrap();
        for pe in 0..4 {
            match &out.results[pe] {
                Ok(e) => assert_eq!(*e, AT - 1, "PE {pe} epoch"),
                Err(SvError::PeFailed { pe: 2, .. }) => {}
                other => panic!("PE {pe}: {other:?}"),
            }
        }
    }

    #[test]
    fn barrier_contention_2_4_8_pes_1k_barriers() {
        // 1k barriers per PE count with randomized per-PE stalls: phases
        // must stay separated (each PE adds its rank+1 to a shared word
        // every epoch; after the barrier the total must be exact).
        for n_pes in [2usize, 4, 8] {
            const ROUNDS: u64 = 1000;
            let out = launch_process(n_pes, &opts(), None, move |ctx| {
                let acc = ctx.malloc_f64(1).expect("alloc");
                let mut rng = SvRng::seed_from_u64(0xba44 ^ ctx.my_pe() as u64);
                let mut clean = 0u64;
                for round in 1..=ROUNDS {
                    if rng.next_f64() < 0.02 {
                        std::thread::sleep(Duration::from_micros((rng.next_f64() * 200.0) as u64));
                    }
                    ctx.atomic_fetch_add_f64(&acc, 0, 0, (ctx.my_pe() + 1) as f64);
                    ctx.barrier_all();
                    let expect = (round * (ctx.n_pes() * (ctx.n_pes() + 1) / 2) as u64) as f64;
                    if ctx.get_f64(&acc, 0, 0) == expect {
                        clean += 1;
                    }
                    ctx.barrier_all();
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
        let out = launch_process(4, &opts(), Some(plan), |ctx| {
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
        let out = launch_process(2, &o, None, |ctx| {
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
        let out = launch_process(3, &o, Some(plan), |ctx| {
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
        let out = launch_process(4, &o, Some(Arc::clone(&plan)), |ctx| {
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
        let out = launch_process(4, &o, Some(plan), |ctx| {
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
        let out = launch_process(2, &o, Some(plan), |ctx| {
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
    fn fault_counts_accumulate_across_process_launches() {
        // A kill at the 5th barrier, run as two launches of 3 barriers
        // each (a checkpointed run's segments): the fault must fire in the
        // second launch, at the 2nd barrier (global count 5).
        let plan = Arc::new(FaultPlan::new().with(0, PeOp::Barrier, 5, FaultAction::Poison));
        let first = launch_process(2, &opts(), Some(Arc::clone(&plan)), |ctx| {
            for _ in 0..3 {
                ctx.barrier_all();
            }
        })
        .unwrap();
        assert!(first.first_failure().is_none(), "{first:?}");
        assert_eq!(plan.armed_remaining(), 1);
        let second = launch_process(2, &opts(), Some(Arc::clone(&plan)), |ctx| {
            for _ in 0..3 {
                ctx.barrier_all();
            }
        })
        .unwrap();
        match second.first_failure() {
            Some(SvError::PeFailed { pe: 0, .. }) => {}
            other => panic!("expected PE 0 barrier fault in launch 2, got {other:?}"),
        }
        assert_eq!(plan.armed_remaining(), 0);
    }

    #[test]
    fn heap_exhaustion_is_a_typed_error_on_every_pe() {
        let small = ProcOptions {
            heap_words_per_pe: 8,
            ..opts()
        };
        let out = launch_process(2, &small, None, |ctx| match ctx.malloc_f64(64) {
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
        assert!(launch_process::<(), _>(0, &opts(), None, |_| ()).is_err());
    }
}
