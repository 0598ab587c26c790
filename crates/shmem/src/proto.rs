//! Pure protocol state machines over an abstract word memory.
//!
//! The control-plane protocols of this crate — the sense-reversing
//! barrier, the respawn round handshake, the symmetric-heap allocation
//! publish/lookup, and the one-shot fault-word disarm — are hand-rolled
//! lock-free protocols over raw shared words. They run in two very
//! different hosts:
//!
//! - **Production**: over real atomics (struct fields for the thread
//!   backend — the barrier's two words and every fault spec's word pair
//!   are [`AtomicWords`] banks — and `memfd` arena words for the process
//!   backend), driven by one spin/yield/timeout loop per protocol that
//!   both backends share.
//! - **The model checker** (`crates/verify`): over a plain `Vec<u64>`
//!   model memory, driven by an exhaustive DFS scheduler that interleaves
//!   actors one shared-memory operation at a time and injects kills.
//!
//! To make the checked code *the* shipped code (not a copy that can
//! drift), each protocol is expressed here as a pure state machine:
//! every call to `step` performs **exactly one** shared-memory operation
//! through the [`ProtoMem`] trait and advances the actor's private phase.
//! The hosts differ only in how they instantiate `ProtoMem` and in the
//! waiting policy between `Pending` steps (spinning, heartbeats and
//! timeouts are driver concerns, not protocol state).
//!
//! The checker explores sequentially-consistent interleavings, which is
//! *stronger* than the release/acquire orderings production requests via
//! [`MemOrder`] — so a checker pass proves the protocol logic under SC,
//! while the ordering annotations (same-location coherence for the
//! barrier count, release/acquire pairs for every flag publication)
//! carry the argument down to the weaker real model. Both are documented
//! per transition below.

/// Memory-ordering request for one [`ProtoMem`] operation.
///
/// Production impls map these onto [`std::sync::atomic::Ordering`];
/// the model checker ignores them (it explores SC, a superset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrder {
    /// No ordering beyond same-location coherence.
    Relaxed,
    /// Acquire load: see everything published before the matching release.
    Acquire,
    /// Release store: publish everything sequenced before it.
    Release,
    /// Both, for read-modify-write operations.
    AcqRel,
}

/// A word-addressed shared memory the protocol machines run against.
///
/// Slots are *logical* indices local to one protocol instance; each host
/// maps them onto its real storage (struct atomics, arena word offsets,
/// or a model vector). All operations are atomic at word granularity.
pub trait ProtoMem {
    /// Atomic load of `slot`.
    fn load(&self, slot: usize, order: MemOrder) -> u64;
    /// Atomic store of `v` into `slot`.
    fn store(&self, slot: usize, v: u64, order: MemOrder);
    /// Atomic fetch-add; returns the previous value.
    fn fetch_add(&self, slot: usize, delta: u64, order: MemOrder) -> u64;
    /// Atomic compare-exchange; `Ok(previous)` on success, `Err(actual)`
    /// on mismatch (failure ordering is the host's relaxed).
    fn compare_exchange(
        &self,
        slot: usize,
        current: u64,
        new: u64,
        order: MemOrder,
    ) -> Result<u64, u64>;

    /// Atomic fetch-or; returns the previous value. The default is a
    /// compare-exchange loop, which every host's single word supports;
    /// hosts with a native or may override.
    fn fetch_or(&self, slot: usize, bits: u64, order: MemOrder) -> u64 {
        loop {
            let cur = self.load(slot, MemOrder::Relaxed);
            match self.compare_exchange(slot, cur, cur | bits, order) {
                Ok(prev) => return prev,
                Err(_) => continue,
            }
        }
    }
}

/// A fixed-size bank of process-local atomic words implementing
/// [`ProtoMem`] — the thread backend's storage (and handy in tests).
#[derive(Debug)]
pub struct AtomicWords<const K: usize> {
    words: [std::sync::atomic::AtomicU64; K],
}

impl<const K: usize> Default for AtomicWords<K> {
    fn default() -> Self {
        Self {
            words: std::array::from_fn(|_| std::sync::atomic::AtomicU64::new(0)),
        }
    }
}

impl MemOrder {
    /// The [`std::sync::atomic::Ordering`] this request maps to on real
    /// atomics (for hosts implementing [`ProtoMem`] over them).
    #[inline]
    #[must_use]
    pub fn to_atomic(self) -> std::sync::atomic::Ordering {
        use std::sync::atomic::Ordering;
        match self {
            MemOrder::Relaxed => Ordering::Relaxed,
            MemOrder::Acquire => Ordering::Acquire,
            MemOrder::Release => Ordering::Release,
            MemOrder::AcqRel => Ordering::AcqRel,
        }
    }
}

impl<const K: usize> ProtoMem for AtomicWords<K> {
    #[inline]
    fn load(&self, slot: usize, order: MemOrder) -> u64 {
        self.words[slot].load(order.to_atomic())
    }

    #[inline]
    fn store(&self, slot: usize, v: u64, order: MemOrder) {
        self.words[slot].store(v, order.to_atomic());
    }

    #[inline]
    fn fetch_add(&self, slot: usize, delta: u64, order: MemOrder) -> u64 {
        self.words[slot].fetch_add(delta, order.to_atomic())
    }

    #[inline]
    fn compare_exchange(
        &self,
        slot: usize,
        current: u64,
        new: u64,
        order: MemOrder,
    ) -> Result<u64, u64> {
        self.words[slot].compare_exchange(
            current,
            new,
            order.to_atomic(),
            std::sync::atomic::Ordering::Relaxed,
        )
    }
}

// ---------------------------------------------------------------------------
// Sense-reversing barrier.
// ---------------------------------------------------------------------------

/// The barrier protocol's state machine. Slot layout: [`bar::BAR_COUNT`],
/// [`bar::BAR_SENSE`].
///
/// The sense word carries *both* the epoch sense ([`bar::SENSE_BIT`]) and
/// the poison flag ([`bar::POISON_BIT`]). Keeping them in one atomic word
/// totally orders every release against every poison: a release is a
/// compare-exchange that fails if poison landed first, a poison is a
/// fetch-or that a released epoch survives, and a waiter's single load
/// decides released-vs-poisoned with no window in between. The checker
/// proved the previous two-word layout wrong three ways (split-epoch
/// failures from blind timeouts, from the timeout re-check, and from a
/// reap racing a full epoch's release); all three are impossible on one
/// word.
pub mod bar {
    use super::{MemOrder, ProtoMem};

    /// Arrival counter slot.
    pub const BAR_COUNT: usize = 0;
    /// Combined sense + poison slot; see [`SENSE_BIT`] and [`POISON_BIT`].
    pub const BAR_SENSE: usize = 1;
    /// Number of slots the barrier protocol uses.
    pub const BAR_WORDS: usize = 2;

    /// Epoch sense bit of the [`BAR_SENSE`] word (flips each epoch).
    pub const SENSE_BIT: u64 = 1;
    /// Poison bit of the [`BAR_SENSE`] word (set once a peer failed).
    pub const POISON_BIT: u64 = 2;

    /// The barrier protocol over `n` participants.
    #[derive(Debug, Clone)]
    pub struct BarrierSm {
        /// Number of participants.
        pub n: u64,
        /// Whether the timeout path re-checks the sense before poisoning.
        ///
        /// `true` makes the expiry a single decisive compare-exchange:
        /// poison the epoch only if it is still unflipped and clean, and
        /// otherwise report what actually happened (release or a peer's
        /// poison) — so a completed epoch can never be failed
        /// retroactively by a slow clock. `false` reproduces the
        /// historical behavior (blind poison on expiry), kept so the
        /// model checker can demonstrate the race it fixes.
        pub timeout_recheck: bool,
    }

    /// Where one participant is inside the current epoch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Phase {
        /// About to load the sense word's poison bit (epoch entry).
        CheckPoison,
        /// About to fetch-add the arrival counter.
        Arrive,
        /// Last arriver: about to reset the counter.
        ResetCount,
        /// Last arriver: about to flip the sense (the release) with a
        /// compare-exchange that fails iff poison landed first.
        ReleaseSense,
        /// Waiter: about to poll the sense word — one load decides
        /// released vs poisoned vs still waiting.
        PollSense,
        /// Driver-requested timeout; about to decide the epoch's fate
        /// with one compare-exchange (only reachable with
        /// `timeout_recheck`).
        TimeoutRecheck,
        /// About to blindly set the poison bit and report the timeout
        /// (the historical `timeout_recheck: false` path).
        PoisonTimeout,
    }

    /// One participant's private barrier state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Actor {
        sense: bool,
        phase: Phase,
    }

    /// Result of one protocol step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Step {
        /// Not done; step again (the driver may spin/yield/heartbeat
        /// when [`Actor::is_waiting`]).
        Pending,
        /// The epoch released; the actor's sense has flipped.
        Released,
        /// A peer poisoned the barrier before this epoch released.
        Poisoned,
        /// The driver-requested bounded wait expired; this actor poisoned
        /// the barrier on the way out.
        TimedOut,
    }

    impl Actor {
        /// Fresh participant with the given starting sense.
        #[must_use]
        pub fn new(sense: bool) -> Self {
            Self {
                sense,
                phase: Phase::CheckPoison,
            }
        }

        /// Current sense (flips on every released epoch).
        #[must_use]
        pub fn sense(&self) -> bool {
            self.sense
        }

        /// Current phase (exposed for checker state hashing).
        #[must_use]
        pub fn phase(&self) -> Phase {
            self.phase
        }

        /// True while parked in the waiter poll loop — the only phase
        /// where a driver may spin, yield, bump heartbeats, or request a
        /// timeout between steps.
        #[must_use]
        pub fn is_waiting(&self) -> bool {
            matches!(self.phase, Phase::PollSense)
        }
    }

    impl BarrierSm {
        /// Advance `a` by exactly one shared-memory operation.
        pub fn step(&self, a: &mut Actor, mem: &impl ProtoMem) -> Step {
            let cur_w = u64::from(a.sense);
            let next_w = u64::from(!a.sense);
            match a.phase {
                Phase::CheckPoison => {
                    // Acquire pairs with the failing peer's poison or-in.
                    if mem.load(BAR_SENSE, MemOrder::Acquire) & POISON_BIT != 0 {
                        return Step::Poisoned;
                    }
                    a.phase = Phase::Arrive;
                    Step::Pending
                }
                Phase::Arrive => {
                    // AcqRel: arrivals are ordered against each other and
                    // against the previous epoch's reset (same location).
                    if mem.fetch_add(BAR_COUNT, 1, MemOrder::AcqRel) + 1 == self.n {
                        a.phase = Phase::ResetCount;
                    } else {
                        a.phase = Phase::PollSense;
                    }
                    Step::Pending
                }
                Phase::ResetCount => {
                    // Relaxed is enough: the release CAS of the sense
                    // below publishes this reset to every waiter (their
                    // next-epoch fetch_add is same-location ordered after
                    // their acquire of the sense).
                    mem.store(BAR_COUNT, 0, MemOrder::Relaxed);
                    a.phase = Phase::ReleaseSense;
                    Step::Pending
                }
                Phase::ReleaseSense => {
                    // Only the clean, unflipped word releases; the single
                    // failure cause is poison landing first, in which case
                    // this epoch failed before it completed — consistently
                    // for every participant, because both outcomes are
                    // writes to one location.
                    match mem.compare_exchange(BAR_SENSE, cur_w, next_w, MemOrder::AcqRel) {
                        Ok(_) => {
                            a.sense = !a.sense;
                            a.phase = Phase::CheckPoison;
                            Step::Released
                        }
                        Err(_) => Step::Poisoned,
                    }
                }
                Phase::PollSense => {
                    // One load decides. A flipped sense means the epoch
                    // completed — even if poison arrived after the flip
                    // (released-epoch rule; the next epoch's entry check
                    // reports the failure instead).
                    let w = mem.load(BAR_SENSE, MemOrder::Acquire);
                    if w & SENSE_BIT == next_w {
                        a.sense = !a.sense;
                        a.phase = Phase::CheckPoison;
                        return Step::Released;
                    }
                    if w & POISON_BIT != 0 {
                        return Step::Poisoned;
                    }
                    Step::Pending
                }
                Phase::TimeoutRecheck => {
                    // The decisive expiry: poison the epoch only if it is
                    // still unflipped and clean. A failed exchange tells
                    // us what happened instead — the epoch released (report
                    // the release, never fail a completed epoch) or a peer
                    // poisoned it first.
                    match mem.compare_exchange(
                        BAR_SENSE,
                        cur_w,
                        cur_w | POISON_BIT,
                        MemOrder::AcqRel,
                    ) {
                        Ok(_) => Step::TimedOut,
                        Err(actual) if actual & SENSE_BIT == next_w => {
                            a.sense = !a.sense;
                            a.phase = Phase::CheckPoison;
                            Step::Released
                        }
                        Err(_) => Step::Poisoned,
                    }
                }
                Phase::PoisonTimeout => {
                    // Historical blind expiry: set the poison bit without
                    // looking, so a release that already happened gets a
                    // timeout reported against it anyway. Kept only so the
                    // checker can reproduce the split-epoch race that
                    // `timeout_recheck: true` closes.
                    mem.fetch_or(BAR_SENSE, POISON_BIT, MemOrder::AcqRel);
                    Step::TimedOut
                }
            }
        }

        /// The driver's bounded wait expired: redirect a waiting actor
        /// onto the timeout path. Returns `false` (no-op) unless the
        /// actor is in a waiting phase.
        pub fn request_timeout(&self, a: &mut Actor) -> bool {
            if !a.is_waiting() {
                return false;
            }
            a.phase = if self.timeout_recheck {
                Phase::TimeoutRecheck
            } else {
                Phase::PoisonTimeout
            };
            true
        }
    }

    /// Poison the barrier from outside the protocol — the launcher's
    /// reap path and a panicking PE's unwind both publish the failure
    /// through this single helper. An or-in rather than a store: it
    /// must not clobber a release it lost the race to (the flipped
    /// sense survives, so the failure lands on the next epoch).
    pub fn post_poison(mem: &impl ProtoMem) {
        mem.fetch_or(BAR_SENSE, POISON_BIT, MemOrder::AcqRel);
    }

    /// True once the barrier is poisoned (current or pending epoch).
    pub fn is_poisoned(mem: &impl ProtoMem) -> bool {
        mem.load(BAR_SENSE, MemOrder::Acquire) & POISON_BIT != 0
    }
}

// ---------------------------------------------------------------------------
// Respawn round handshake.
// ---------------------------------------------------------------------------

/// The respawn round protocol: parked survivors acknowledge a wrecked
/// round and wait for the supervisor to either release the next round
/// (re-run) or abort (publish as-is). Slot layout: [`round::ROUND`],
/// [`round::ABORT`], then one ack slot per PE at [`round::ACK_BASE`]` + pe`;
/// the barrier words the supervisor resets live at [`round::RB_COUNT`] /
/// [`round::RB_SENSE`] (poison is the sense word's
/// [`crate::proto::bar::POISON_BIT`], so resetting the sense clears it
/// too).
pub mod round {
    use super::{MemOrder, ProtoMem};

    /// Round generation counter slot.
    pub const ROUND: usize = 0;
    /// Abort flag slot (sticky; only ever set under a poisoned barrier).
    pub const ABORT: usize = 1;
    /// Barrier count slot as seen by the supervisor's reset.
    pub const RB_COUNT: usize = 2;
    /// Barrier sense slot as seen by the supervisor's reset: the sense
    /// word, which also holds the poison ([`super::bar::POISON_BIT`]).
    pub const RB_SENSE: usize = 3;
    /// First ack slot; survivor `pe` acks at `ACK_BASE + pe`.
    pub const ACK_BASE: usize = 4;

    /// Phases of a parked survivor (the child-side park loop).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SurvivorPhase {
        /// About to publish the ack for the wrecked round.
        Ack,
        /// About to poll the round counter.
        LoadRound,
        /// Round unchanged; about to poll the abort flag.
        LoadAbort,
        /// Saw the abort flag; about to confirm it (the historical
        /// double-check before publishing).
        ConfirmAbort,
        /// Abort confirmed; about to confirm the round is still ours.
        ConfirmRound,
    }

    /// One parked survivor's private state.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Survivor {
        /// The round this survivor parked in.
        pub parked: u64,
        /// Which ack slot is ours.
        pub ack_slot: usize,
        phase: SurvivorPhase,
    }

    /// Result of one survivor step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum SurvivorStep {
        /// Not decided; step again (the driver sleeps and bumps its
        /// heartbeat while [`Survivor::is_waiting`]).
        Pending,
        /// The supervisor released this round: re-run the body against
        /// the reset arena, parked at the new round.
        Released(u64),
        /// The supervisor aborted while the round is still ours: publish
        /// the wrecked round's result as-is.
        Publish,
        /// Abort and a newer round raced: re-run the body *without*
        /// updating the parked round — the re-run hits the (sticky)
        /// poisoned barrier and converges to `Publish` on the next park.
        ReRunStale,
    }

    impl Survivor {
        /// Park in round `parked`, acking at `ACK_BASE + pe`.
        #[must_use]
        pub fn new(parked: u64, pe: usize) -> Self {
            Self {
                parked,
                ack_slot: ACK_BASE + pe,
                phase: SurvivorPhase::Ack,
            }
        }

        /// Current phase (exposed for checker state hashing).
        #[must_use]
        pub fn phase(&self) -> SurvivorPhase {
            self.phase
        }

        /// True while polling for a release/abort — where the driver
        /// sleeps between steps.
        #[must_use]
        pub fn is_waiting(&self) -> bool {
            matches!(
                self.phase,
                SurvivorPhase::LoadRound | SurvivorPhase::LoadAbort
            )
        }

        /// Advance by exactly one shared-memory operation.
        pub fn step(&mut self, mem: &impl ProtoMem) -> SurvivorStep {
            match self.phase {
                SurvivorPhase::Ack => {
                    // Release: the supervisor's acquire of this ack also
                    // sees every arena write the survivor made this round.
                    mem.store(self.ack_slot, self.parked + 1, MemOrder::Release);
                    self.phase = SurvivorPhase::LoadRound;
                    SurvivorStep::Pending
                }
                SurvivorPhase::LoadRound => {
                    // Acquire pairs with the supervisor's release bump, so
                    // a released survivor sees the whole arena reset.
                    let r = mem.load(ROUND, MemOrder::Acquire);
                    if r > self.parked {
                        self.parked = r;
                        SurvivorStep::Released(r)
                    } else {
                        self.phase = SurvivorPhase::LoadAbort;
                        SurvivorStep::Pending
                    }
                }
                SurvivorPhase::LoadAbort => {
                    if mem.load(ABORT, MemOrder::Acquire) == 0 {
                        self.phase = SurvivorPhase::LoadRound;
                    } else {
                        self.phase = SurvivorPhase::ConfirmAbort;
                    }
                    SurvivorStep::Pending
                }
                SurvivorPhase::ConfirmAbort => {
                    if mem.load(ABORT, MemOrder::Acquire) == 0 {
                        // Unreachable with today's sticky abort flag, but
                        // the historical re-check is part of the protocol:
                        // a non-abort here re-runs the body.
                        SurvivorStep::ReRunStale
                    } else {
                        self.phase = SurvivorPhase::ConfirmRound;
                        SurvivorStep::Pending
                    }
                }
                SurvivorPhase::ConfirmRound => {
                    if mem.load(ROUND, MemOrder::Acquire) == self.parked {
                        SurvivorStep::Publish
                    } else {
                        // Abort raced with a release we missed: re-run; the
                        // poisoned barrier (abort implies poison) bounces
                        // the body straight back to publishing.
                        SurvivorStep::ReRunStale
                    }
                }
            }
        }
    }

    /// Phases of the supervisor's release attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ReleasePhase {
        /// About to read survivor `i`'s ack slot.
        CheckAck(usize),
        /// All survivors parked: about to reset the barrier count.
        ResetCount,
        /// About to reset the barrier sense word, poison included.
        ResetSense,
        /// About to bump the round counter (the release itself).
        Bump,
    }

    /// The supervisor side of one release attempt over a fixed survivor
    /// set. Non-protocol arena resets (heap bump, allocation tables,
    /// epochs, result slots) are the driver's job and must complete
    /// *before* stepping past [`ReleasePhase::CheckAck`]; the machine
    /// owns the ordering that matters — barrier words reset before the
    /// round bump that releases survivors.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct Release {
        /// Ack slots of the surviving PEs (already-reaped victims have
        /// no say).
        pub survivor_acks: Vec<usize>,
        /// The wrecked round being retired; survivors must have acked
        /// `round + 1`.
        pub round: u64,
        phase: ReleasePhase,
    }

    /// Result of one supervisor release step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ReleaseStep {
        /// Not decided; step again.
        Pending,
        /// Some survivor has not acked the wrecked round yet: give up on
        /// this attempt (the supervisor retries on its next tick).
        NotParked,
        /// Barrier reset and round bumped: survivors are released.
        Released,
    }

    impl Release {
        /// A release attempt for `round` over the given survivor acks.
        #[must_use]
        pub fn new(survivor_acks: Vec<usize>, round: u64) -> Self {
            Self {
                survivor_acks,
                round,
                phase: ReleasePhase::CheckAck(0),
            }
        }

        /// Current phase (exposed for checker state hashing).
        #[must_use]
        pub fn phase(&self) -> ReleasePhase {
            self.phase
        }

        /// Advance by exactly one shared-memory operation.
        pub fn step(&mut self, mem: &impl ProtoMem) -> ReleaseStep {
            match self.phase {
                ReleasePhase::CheckAck(i) => match self.survivor_acks.get(i) {
                    Some(&slot) => {
                        if mem.load(slot, MemOrder::Acquire) != self.round + 1 {
                            return ReleaseStep::NotParked;
                        }
                        self.phase = ReleasePhase::CheckAck(i + 1);
                        ReleaseStep::Pending
                    }
                    None => {
                        self.phase = ReleasePhase::ResetCount;
                        ReleaseStep::Pending
                    }
                },
                ReleasePhase::ResetCount => {
                    mem.store(RB_COUNT, 0, MemOrder::Relaxed);
                    self.phase = ReleasePhase::ResetSense;
                    ReleaseStep::Pending
                }
                ReleasePhase::ResetSense => {
                    mem.store(RB_SENSE, 0, MemOrder::Relaxed);
                    self.phase = ReleasePhase::Bump;
                    ReleaseStep::Pending
                }
                ReleasePhase::Bump => {
                    // Release: survivors' acquire of the bumped round sees
                    // every reset above (and the driver's table resets,
                    // which are sequenced before this machine ran).
                    let r = mem.load(ROUND, MemOrder::Acquire);
                    mem.store(ROUND, r + 1, MemOrder::Release);
                    ReleaseStep::Released
                }
            }
        }
    }

    /// The supervisor abandons respawn: set the sticky abort flag,
    /// releasing parked survivors into publishing their wrecked-round
    /// results. Only ever posted under a poisoned barrier (abort implies
    /// poison), which [`Survivor::step`]'s `ReRunStale` path relies on.
    pub fn post_abort(mem: &impl ProtoMem) {
        mem.store(ABORT, 1, MemOrder::Release);
    }
}

// ---------------------------------------------------------------------------
// Symmetric-heap allocation publish/lookup.
// ---------------------------------------------------------------------------

/// The heap-lock protocol: PE 0 bump-allocates and publishes an
/// allocation table entry; peers resolve it after the collective barrier.
/// Slot layout: [`alloc::BUMP`], [`alloc::LEN`], [`alloc::OFF`],
/// [`alloc::READY`].
pub mod alloc {
    use super::{MemOrder, ProtoMem};

    /// Heap bump-pointer slot (words used so far).
    pub const BUMP: usize = 0;
    /// Published per-PE length slot of this entry.
    pub const LEN: usize = 1;
    /// Published word-offset slot of this entry.
    pub const OFF: usize = 2;
    /// Ready flag slot: 1 once the entry is fully published.
    pub const READY: usize = 3;
    /// Number of slots the allocation protocol uses per entry.
    pub const ALLOC_WORDS: usize = 4;

    /// Phases of PE 0's publish.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PublishPhase {
        /// About to read the bump pointer.
        LoadBump,
        /// About to advance the bump pointer.
        StoreBump,
        /// About to publish the entry length.
        StoreLen,
        /// About to publish the entry offset.
        StoreOff,
        /// About to set the ready flag (the publication).
        StoreReady,
    }

    /// PE 0's publish of one allocation entry.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Publish {
        /// Words needed (`len_per_pe * n_pes`).
        pub need: u64,
        /// Heap capacity in words.
        pub cap: u64,
        /// Per-PE length to publish.
        pub len_per_pe: u64,
        /// Word offset of the heap region (published offsets are
        /// heap-base-relative plus this).
        pub heap_base: u64,
        used: u64,
        phase: PublishPhase,
    }

    /// Result of one publish step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum PublishStep {
        /// Not done; step again.
        Pending,
        /// Entry fully published at this word offset.
        Published(u64),
        /// The heap cannot hold the request (`used + need > cap`).
        Exhausted {
            /// Words already allocated before this request.
            used: u64,
        },
    }

    impl Publish {
        /// Publish `need = len_per_pe * n_pes` words against `cap`.
        #[must_use]
        pub fn new(need: u64, cap: u64, len_per_pe: u64, heap_base: u64) -> Self {
            Self {
                need,
                cap,
                len_per_pe,
                heap_base,
                used: 0,
                phase: PublishPhase::LoadBump,
            }
        }

        /// Current phase (exposed for checker state hashing).
        #[must_use]
        pub fn phase(&self) -> PublishPhase {
            self.phase
        }

        /// Advance by exactly one shared-memory operation.
        pub fn step(&mut self, mem: &impl ProtoMem) -> PublishStep {
            match self.phase {
                PublishPhase::LoadBump => {
                    // Relaxed: only PE 0 ever touches the bump pointer,
                    // and always between barriers.
                    self.used = mem.load(BUMP, MemOrder::Relaxed);
                    if self.used + self.need > self.cap {
                        return PublishStep::Exhausted { used: self.used };
                    }
                    self.phase = PublishPhase::StoreBump;
                    PublishStep::Pending
                }
                PublishPhase::StoreBump => {
                    mem.store(BUMP, self.used + self.need, MemOrder::Relaxed);
                    self.phase = PublishPhase::StoreLen;
                    PublishStep::Pending
                }
                PublishPhase::StoreLen => {
                    mem.store(LEN, self.len_per_pe, MemOrder::Relaxed);
                    self.phase = PublishPhase::StoreOff;
                    PublishStep::Pending
                }
                PublishPhase::StoreOff => {
                    mem.store(OFF, self.heap_base + self.used, MemOrder::Relaxed);
                    self.phase = PublishPhase::StoreReady;
                    PublishStep::Pending
                }
                PublishPhase::StoreReady => {
                    // Release: a peer's acquire of the ready flag sees the
                    // len/off stores above — the entry is never observed
                    // half-published.
                    mem.store(READY, 1, MemOrder::Release);
                    PublishStep::Published(self.heap_base + self.used)
                }
            }
        }
    }

    /// Phases of a peer's lookup.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum LookupPhase {
        /// About to read the ready flag.
        LoadReady,
        /// About to read the published length.
        LoadLen,
        /// About to read the published offset.
        LoadOff,
    }

    /// A peer's resolution of one allocation entry (after the barrier).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Lookup {
        /// Per-PE length the caller expects.
        pub len_per_pe: u64,
        phase: LookupPhase,
    }

    /// Result of one lookup step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum LookupStep {
        /// Not done; step again.
        Pending,
        /// Entry resolved at this word offset.
        Resolved(u64),
        /// The ready flag was never set (collective call order violated,
        /// or the publisher died before publishing).
        NotPublished,
        /// The published length differs from the caller's expectation.
        Mismatch {
            /// The length actually published.
            published: u64,
        },
    }

    impl Lookup {
        /// Resolve an entry expected to hold `len_per_pe` words per PE.
        #[must_use]
        pub fn new(len_per_pe: u64) -> Self {
            Self {
                len_per_pe,
                phase: LookupPhase::LoadReady,
            }
        }

        /// Current phase (exposed for checker state hashing).
        #[must_use]
        pub fn phase(&self) -> LookupPhase {
            self.phase
        }

        /// Advance by exactly one shared-memory operation.
        pub fn step(&mut self, mem: &impl ProtoMem) -> LookupStep {
            match self.phase {
                LookupPhase::LoadReady => {
                    // Acquire pairs with the publisher's release of READY.
                    if mem.load(READY, MemOrder::Acquire) != 1 {
                        return LookupStep::NotPublished;
                    }
                    self.phase = LookupPhase::LoadLen;
                    LookupStep::Pending
                }
                LookupPhase::LoadLen => {
                    let published = mem.load(LEN, MemOrder::Relaxed);
                    if published != self.len_per_pe {
                        return LookupStep::Mismatch { published };
                    }
                    self.phase = LookupPhase::LoadOff;
                    LookupStep::Pending
                }
                LookupPhase::LoadOff => LookupStep::Resolved(mem.load(OFF, MemOrder::Relaxed)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// One-shot fault-word disarm.
// ---------------------------------------------------------------------------

/// The fault-injection counter protocol: every PE counts a matching op
/// against the same shared words; the `at`-th hit races a one-shot CAS
/// disarm so a wildcard fault fires exactly once world-wide. Slot
/// layout: [`fault::SEEN`], [`fault::ARMED`].
pub mod fault {
    use super::{MemOrder, ProtoMem};

    /// Matching-op counter slot.
    pub const SEEN: usize = 0;
    /// Armed flag slot (1 while the fault can still fire).
    pub const ARMED: usize = 1;
    /// Number of slots the fault protocol uses per spec.
    pub const FAULT_WORDS: usize = 2;

    /// Phases of one fault check.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Phase {
        /// About to read the armed flag.
        LoadArmed,
        /// About to count this op.
        CountOp,
        /// Threshold reached: about to race the one-shot disarm.
        Disarm,
    }

    /// One PE's check of one fault spec.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Check {
        /// Fire once the counter reaches this value.
        pub at: u64,
        phase: Phase,
    }

    /// Result of one fault-check step.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Step {
        /// Not done; step again.
        Pending,
        /// Spec already disarmed — nothing to do.
        Skip,
        /// Op counted below the threshold — no fire.
        Counted,
        /// Won the disarm race: this PE fires the fault action.
        Fired,
        /// Reached the threshold but another PE won the disarm.
        Lost,
    }

    impl Check {
        /// Check one op against a spec firing at `at`.
        #[must_use]
        pub fn new(at: u64) -> Self {
            Self {
                at,
                phase: Phase::LoadArmed,
            }
        }

        /// Current phase (exposed for checker state hashing).
        #[must_use]
        pub fn phase(&self) -> Phase {
            self.phase
        }

        /// Advance by exactly one shared-memory operation.
        pub fn step(&mut self, mem: &impl ProtoMem) -> Step {
            match self.phase {
                Phase::LoadArmed => {
                    if mem.load(ARMED, MemOrder::Acquire) == 0 {
                        return Step::Skip;
                    }
                    self.phase = Phase::CountOp;
                    Step::Pending
                }
                Phase::CountOp => {
                    let n = mem.fetch_add(SEEN, 1, MemOrder::AcqRel) + 1;
                    if n < self.at {
                        return Step::Counted;
                    }
                    self.phase = Phase::Disarm;
                    Step::Pending
                }
                Phase::Disarm => {
                    // The CAS is what makes a wildcard fault fire exactly
                    // once: every PE at/past the threshold races it, one
                    // wins.
                    if mem.compare_exchange(ARMED, 1, 0, MemOrder::AcqRel).is_ok() {
                        Step::Fired
                    } else {
                        Step::Lost
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::bar::{Actor, BarrierSm, Step};
    use super::*;

    /// Drive `n` actors round-robin to completion over one memory.
    fn run_barrier(n: usize, epochs: usize) {
        let mem = AtomicWords::<2>::default();
        let sm = BarrierSm {
            n: n as u64,
            timeout_recheck: true,
        };
        let mut actors: Vec<Actor> = (0..n).map(|_| Actor::new(false)).collect();
        for _ in 0..epochs {
            let mut released = vec![false; n];
            while released.iter().any(|&r| !r) {
                for (i, a) in actors.iter_mut().enumerate() {
                    if released[i] {
                        continue;
                    }
                    match sm.step(a, &mem) {
                        Step::Released => released[i] = true,
                        Step::Pending => {}
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn barrier_round_robin_epochs() {
        run_barrier(1, 4);
        run_barrier(2, 4);
        run_barrier(5, 3);
    }

    #[test]
    fn barrier_poison_observed_at_entry() {
        let mem = AtomicWords::<2>::default();
        let sm = BarrierSm {
            n: 2,
            timeout_recheck: true,
        };
        bar::post_poison(&mem);
        let mut a = Actor::new(false);
        assert_eq!(sm.step(&mut a, &mem), Step::Poisoned);
    }

    #[test]
    fn timeout_recheck_sees_late_release() {
        // A waiter whose clock expired just as the epoch released must
        // report the release, not a timeout.
        let mem = AtomicWords::<2>::default();
        let sm = BarrierSm {
            n: 2,
            timeout_recheck: true,
        };
        let mut w = Actor::new(false);
        assert_eq!(sm.step(&mut w, &mem), Step::Pending); // poison check
        assert_eq!(sm.step(&mut w, &mem), Step::Pending); // arrive
        assert!(w.is_waiting());
        // Peer arrives and releases the epoch.
        let mut p = Actor::new(false);
        while sm.step(&mut p, &mem) != Step::Released {}
        // Now the waiter's bounded wait "expires".
        assert!(sm.request_timeout(&mut w));
        assert_eq!(sm.step(&mut w, &mem), Step::Released);
        assert!(!bar::is_poisoned(&mem));
    }

    #[test]
    fn timeout_without_release_poisons() {
        let mem = AtomicWords::<2>::default();
        let sm = BarrierSm {
            n: 2,
            timeout_recheck: true,
        };
        let mut w = Actor::new(false);
        assert_eq!(sm.step(&mut w, &mem), Step::Pending);
        assert_eq!(sm.step(&mut w, &mem), Step::Pending);
        assert!(sm.request_timeout(&mut w));
        // One decisive exchange: unflipped and clean, so poison + report.
        assert_eq!(sm.step(&mut w, &mem), Step::TimedOut);
        assert!(bar::is_poisoned(&mem));
    }

    #[test]
    fn alloc_publish_then_lookup() {
        let mem = AtomicWords::<4>::default();
        let mut p = alloc::Publish::new(8, 64, 4, 100);
        let off = loop {
            match p.step(&mem) {
                alloc::PublishStep::Pending => {}
                alloc::PublishStep::Published(off) => break off,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(off, 100);
        let mut l = alloc::Lookup::new(4);
        let resolved = loop {
            match l.step(&mem) {
                alloc::LookupStep::Pending => {}
                alloc::LookupStep::Resolved(off) => break off,
                other => panic!("unexpected {other:?}"),
            }
        };
        assert_eq!(resolved, 100);
        // Second publish bumps past the first.
        let mut p2 = alloc::Publish::new(8, 64, 4, 100);
        loop {
            match p2.step(&mem) {
                alloc::PublishStep::Pending => {}
                alloc::PublishStep::Published(off) => {
                    assert_eq!(off, 108);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn alloc_exhaustion_reports_used() {
        let mem = AtomicWords::<4>::default();
        mem.store(alloc::BUMP, 60, MemOrder::Relaxed);
        let mut p = alloc::Publish::new(8, 64, 4, 100);
        assert_eq!(p.step(&mem), alloc::PublishStep::Exhausted { used: 60 });
    }

    #[test]
    fn fault_one_shot_fires_once() {
        let mem = AtomicWords::<2>::default();
        mem.store(fault::ARMED, 1, MemOrder::Release);
        let mut fired = 0;
        for _ in 0..5 {
            let mut c = fault::Check::new(3);
            loop {
                match c.step(&mem) {
                    fault::Step::Pending => {}
                    fault::Step::Fired => {
                        fired += 1;
                        break;
                    }
                    _ => break,
                }
            }
        }
        assert_eq!(fired, 1, "one-shot fault must fire exactly once");
    }
}
