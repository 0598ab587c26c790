//! Amplitude checkpointing for fault-tolerant long runs.
//!
//! The paper's target machines run state-vector jobs for hours across many
//! PEs; a single failed rank must not lose the whole run. A [`Checkpoint`]
//! captures everything needed to resume a circuit bit-identically from an
//! op boundary: the amplitudes, the classical register, the op index, and
//! a *clone of the RNG* (measurement randomness is part of the state — a
//! resumed run must draw the same stream it would have drawn uninterrupted).
//!
//! Integrity is guarded by a [`Digest`] over the amplitude bits and
//! metadata, verified on [`Checkpoint::verify`] before a restore — a
//! checkpoint corrupted in flight fails loudly instead of resuming into a
//! silently wrong state.
//!
//! [`CheckpointStore`] persists checkpoints to disk crash-consistently:
//! each save is a new *generation* written to a temporary file, `fsync`ed,
//! then atomically renamed into place — a crash at any instant leaves
//! either the complete new generation or the untouched previous one, never
//! a half-written file under a valid name. Loads verify a whole-file
//! checksum trailer plus the embedded generation number and fall back to
//! the previous generation when the newest is corrupt (bit flip,
//! truncation, torn write) or was written by another circuit.

use crate::state::StateVector;
use std::io::Write;
use std::path::{Path, PathBuf};
use svsim_ir::Circuit;
use svsim_types::{SvError, SvResult, SvRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The workspace's one digest: state checksums, checkpoint payloads,
/// generation-file trailers, [`circuit_digest`] and the engine's job keys
/// all hash through it.
///
/// Four independent FNV-style lanes absorb 64-bit words; every
/// [`absorb`](Self::absorb) call starts at lane 0 and deals its words
/// round-robin, a whole word per step: xor, multiply by the FNV prime, fold
/// the high half into the low. Each step is a bijection of the lane for any
/// word, so one differing word always changes its lane; the fold carries a
/// difference in a word's top bits (a flipped sign, `-0.0` for `0.0`) down
/// where the next multiply spreads it, so two of them cannot cancel. The
/// multiplies of different lanes overlap, so a sweep runs at memory speed
/// rather than at the latency of one serial multiply chain.
/// [`finish`](Self::finish) folds the four lanes byte-wise into one word.
#[derive(Debug, Clone, Copy)]
pub struct Digest([u64; 4]);

impl Default for Digest {
    fn default() -> Self {
        Self([0u64, 1, 2, 3].map(|lane| FNV_OFFSET ^ lane))
    }
}

impl Digest {
    /// Absorb `items`, each as the word `bits` makes of it, the first into
    /// lane 0.
    #[must_use]
    pub fn absorb<T: Copy>(mut self, items: &[T], bits: impl Fn(T) -> u64) -> Self {
        let step = |lane: &mut u64, item: &T| {
            let x = (*lane ^ bits(*item)).wrapping_mul(FNV_PRIME);
            *lane = x ^ (x >> 32);
        };
        let mut quads = items.chunks_exact(4);
        for quad in &mut quads {
            self.0.iter_mut().zip(quad).for_each(|(l, v)| step(l, v));
        }
        self.0
            .iter_mut()
            .zip(quads.remainder())
            .for_each(|(l, v)| step(l, v));
        self
    }

    /// The digest of everything absorbed: FNV-1a over the lanes' bytes.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
            .iter()
            .flat_map(|lane| lane.to_le_bytes())
            .fold(FNV_OFFSET, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
            })
    }
}

/// Digest of a state vector's amplitude bits — the "final state checksum"
/// that fault-bench compares between faulted and fault-free runs.
/// Bit-identical states ⇔ equal checksums.
#[must_use]
pub fn state_checksum(state: &StateVector) -> u64 {
    Digest::default()
        .absorb(state.re(), f64::to_bits)
        .absorb(state.im(), f64::to_bits)
        .finish()
}

/// Structural identity of a circuit: the [`Digest`] of its complete debug
/// rendering (ops, qubit/cbit counts, every gate argument). Two
/// independent parses of the same source agree; any one-gate edit differs.
/// It names the circuit a [`Checkpoint`] belongs to, and keys the engine's
/// plan cache and quarantine.
#[must_use]
pub fn circuit_digest(circuit: &Circuit) -> u64 {
    Digest::default()
        .absorb(format!("{circuit:?}").as_bytes(), u64::from)
        .finish()
}

/// A resumable snapshot of a simulation at an op boundary.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    circuit: u64,
    op_index: usize,
    cbits: u64,
    rng: SvRng,
    re: Vec<f64>,
    im: Vec<f64>,
    checksum: u64,
}

impl Checkpoint {
    /// Capture the simulation state after `op_index` ops of the circuit
    /// whose [`circuit_digest`] is `circuit`.
    #[must_use]
    pub fn capture(
        circuit: u64,
        op_index: usize,
        cbits: u64,
        rng: &SvRng,
        state: &StateVector,
    ) -> Self {
        let mut cp = Self {
            circuit,
            op_index,
            cbits,
            rng: rng.clone(),
            re: state.re().to_vec(),
            im: state.im().to_vec(),
            checksum: 0,
        };
        cp.checksum = cp.payload_checksum();
        cp
    }

    /// The checksum the payload should carry: the [`Digest`] of the
    /// amplitude planes, then the op index and classical register.
    fn payload_checksum(&self) -> u64 {
        Digest::default()
            .absorb(&self.re, f64::to_bits)
            .absorb(&self.im, f64::to_bits)
            .absorb(&[self.op_index as u64, self.cbits], u64::from)
            .finish()
    }

    /// The [`circuit_digest`] of the circuit this checkpoint belongs to.
    #[must_use]
    pub(crate) fn circuit(&self) -> u64 {
        self.circuit
    }

    /// Ops of the circuit already executed when this checkpoint was taken.
    #[must_use]
    pub fn op_index(&self) -> usize {
        self.op_index
    }

    /// Classical register at the checkpoint.
    #[must_use]
    pub fn cbits(&self) -> u64 {
        self.cbits
    }

    /// Stored payload checksum.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Payload size in bytes: the amplitudes plus the op index, classical
    /// register and checksum, reported as `RunSummary::checkpoint_bytes`. A
    /// store generation holds this and 12 more words (magic, generation,
    /// circuit, RNG state, amplitude count, trailer).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.re.len() + self.im.len()) as u64 * 8 + 3 * 8
    }

    /// Recompute the checksum and compare with the stored one.
    ///
    /// # Errors
    /// [`SvError::Numeric`] on mismatch (the checkpoint is corrupt and
    /// must not be restored).
    pub fn verify(&self) -> SvResult<()> {
        let got = self.payload_checksum();
        if got != self.checksum {
            return Err(SvError::Numeric(format!(
                "checkpoint checksum mismatch at op {}: stored {:#018x}, computed {got:#018x}",
                self.op_index, self.checksum
            )));
        }
        Ok(())
    }

    /// Restore amplitudes, classical bits and RNG into the simulator's
    /// parts. The caller must [`verify`](Self::verify) first.
    ///
    /// # Errors
    /// [`SvError::InvalidConfig`] when the state dimensions disagree.
    pub(crate) fn restore_into(
        &self,
        state: &mut StateVector,
        cbits: &mut u64,
        rng: &mut SvRng,
    ) -> SvResult<()> {
        if state.re().len() != self.re.len() {
            return Err(SvError::InvalidConfig(format!(
                "checkpoint holds {} amplitudes, simulator has {}",
                self.re.len(),
                state.re().len()
            )));
        }
        let (re, im) = state.parts_mut();
        re.copy_from_slice(&self.re);
        im.copy_from_slice(&self.im);
        *cbits = self.cbits;
        *rng = self.rng.clone();
        Ok(())
    }

    /// Corrupt one amplitude in place — test-only hook for exercising the
    /// checksum-mismatch path.
    #[cfg(test)]
    pub(crate) fn corrupt_for_test(&mut self) {
        if let Some(v) = self.re.first_mut() {
            *v += 1.0;
        }
    }

    /// Serialize into the on-disk generation format: little-endian 64-bit
    /// words, self-describing, with the [`Digest`] of every word before it
    /// appended last so any torn prefix fails verification.
    fn to_bytes(&self, generation: u64) -> Vec<u8> {
        let (s, spare) = self.rng.state();
        let mut buf = Vec::with_capacity((self.re.len() + self.im.len()) * 8 + 15 * 8);
        let push = |buf: &mut Vec<u8>, w: u64| buf.extend_from_slice(&w.to_le_bytes());
        push(&mut buf, STORE_MAGIC);
        push(&mut buf, generation);
        push(&mut buf, self.circuit);
        push(&mut buf, self.op_index as u64);
        push(&mut buf, self.cbits);
        for w in s {
            push(&mut buf, w);
        }
        push(&mut buf, u64::from(spare.is_some()));
        push(&mut buf, spare.unwrap_or(0.0).to_bits());
        push(&mut buf, self.re.len() as u64);
        for &v in &self.re {
            push(&mut buf, v.to_bits());
        }
        for &v in &self.im {
            push(&mut buf, v.to_bits());
        }
        push(&mut buf, self.checksum);
        let trailer = Digest::default()
            .absorb(buf.as_chunks::<8>().0, u64::from_le_bytes)
            .finish();
        push(&mut buf, trailer);
        buf
    }

    /// Parse and fully verify a serialized generation: length, magic,
    /// whole-file trailer, embedded generation number, and the payload
    /// checksum must all hold. The magic is checked first, so a file of a
    /// retired format reads as such rather than as corrupt.
    fn from_bytes(bytes: &[u8], expect_generation: u64) -> SvResult<Self> {
        let corrupt =
            |what: &str| SvError::Checkpoint(format!("generation {expect_generation}: {what}"));
        if !bytes.len().is_multiple_of(8) || bytes.len() < 15 * 8 {
            return Err(corrupt("truncated (not a whole number of records)"));
        }
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        if words[0] != STORE_MAGIC {
            return Err(corrupt("bad magic (not a checkpoint generation)"));
        }
        let (&trailer, head) = words.split_last().expect("at least 15 words");
        if Digest::default().absorb(head, u64::from).finish() != trailer {
            return Err(corrupt("file checksum mismatch (bit flip or torn write)"));
        }
        if words[1] != expect_generation {
            return Err(corrupt(&format!(
                "stale generation: file claims generation {}",
                words[1]
            )));
        }
        let op_index = usize::try_from(words[3])
            .map_err(|_| corrupt("op index does not fit this platform"))?;
        let cbits = words[4];
        let s = [words[5], words[6], words[7], words[8]];
        let spare = (words[9] != 0).then(|| f64::from_bits(words[10]));
        let n = usize::try_from(words[11]).map_err(|_| corrupt("amplitude count overflow"))?;
        let body = &words[12..words.len() - 2];
        // `2 * n` could wrap for a hostile count; halving the length cannot.
        if !body.len().is_multiple_of(2) || body.len() / 2 != n {
            return Err(corrupt("truncated amplitude payload"));
        }
        let (re, im) = body.split_at(n);
        let planes = |ws: &[u64]| ws.iter().map(|&w| f64::from_bits(w)).collect();
        let cp = Self {
            circuit: words[2],
            op_index,
            cbits,
            rng: SvRng::from_state(s, spare),
            re: planes(re),
            im: planes(im),
            checksum: words[words.len() - 2],
        };
        cp.verify()
            .map_err(|e| corrupt(&format!("payload digest mismatch: {e}")))?;
        Ok(cp)
    }
}

/// First word of every on-disk generation (`b"SVCKPT03"` little-endian).
/// Bumped whenever the word layout or the digest changes, so a generation
/// of an older format reads as bad magic.
const STORE_MAGIC: u64 = u64::from_le_bytes(*b"SVCKPT03");

/// Generations retained after a save: the newest plus its predecessor, so
/// a corrupt newest generation always has a fallback.
const KEEP_GENERATIONS: usize = 2;

/// Where a simulated crash interrupts the commit protocol — used by the
/// `svsim-verify` crash-at-any-write checker, which drives the *same*
/// commit code [`CheckpointStore::save`] runs in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitCrash {
    /// Die right after creating the temp file (zero bytes written).
    AfterCreate,
    /// Die mid-write: only the first `n` bytes of the temp file land.
    AfterTempBytes(usize),
    /// Die after the full write and fsync, before the rename — the temp
    /// file is durable but no generation name points at it.
    BeforeRename,
}

/// Crash-consistent on-disk checkpoint store.
///
/// Each [`save`](Self::save) writes a new numbered generation with the
/// write-temp → `fsync` → atomic-rename protocol; loads are fully verified
/// and [`load_latest`](Self::load_latest) falls back to the previous
/// generation when the newest is corrupt or another circuit's.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_gen: u64,
}

impl CheckpointStore {
    /// Open (creating if needed) a store rooted at `dir`, resuming the
    /// generation counter after the newest file already present.
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] when the directory cannot be created or
    /// scanned.
    pub fn open(dir: impl Into<PathBuf>) -> SvResult<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            SvError::Checkpoint(format!("cannot create store at {}: {e}", dir.display()))
        })?;
        let mut store = Self { dir, next_gen: 0 };
        store.next_gen = store.generations()?.last().map_or(0, |g| g + 1);
        Ok(store)
    }

    /// Directory the store persists into.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn gen_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:06}.ckpt"))
    }

    /// Generation numbers currently on disk, ascending (no validity check —
    /// a listed generation may still fail to load).
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] when the directory cannot be read.
    pub fn generations(&self) -> SvResult<Vec<u64>> {
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| SvError::Checkpoint(format!("cannot scan {}: {e}", self.dir.display())))?;
        let mut gens: Vec<u64> = entries
            .filter_map(Result::ok)
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_str()?;
                let digits = name.strip_prefix("gen-")?.strip_suffix(".ckpt")?;
                digits.parse().ok()
            })
            .collect();
        gens.sort_unstable();
        Ok(gens)
    }

    /// Persist `cp` as the next generation and prune old ones, returning
    /// the generation number written.
    ///
    /// The bytes land in `gen-N.tmp` first, are `fsync`ed, then renamed to
    /// `gen-N.ckpt` — the store never exposes a partially written file
    /// under a valid generation name.
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] on any I/O failure (the store is left with
    /// its previous generations intact).
    pub fn save(&mut self, cp: &Checkpoint) -> SvResult<u64> {
        Ok(self
            .commit(cp, None)?
            .expect("commit without crash injection always completes"))
    }

    /// Run the *real* commit protocol but stop dead at `crash`, as if the
    /// process died at that instant — the `svsim-verify` checker calls
    /// this for every possible crash point and proves
    /// [`load_latest`](Self::load_latest) never returns an uncommitted
    /// generation. The store must be treated as lost afterwards (a real
    /// crash kills the process); recovery reopens the directory with
    /// [`open`](Self::open).
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] on I/O failure before the crash point.
    pub fn save_crashed(&mut self, cp: &Checkpoint, crash: CommitCrash) -> SvResult<()> {
        self.commit(cp, Some(crash)).map(|_| ())
    }

    /// The commit protocol: write `gen-N.tmp`, `fsync`, rename into
    /// place. `crash` simulates dying at a protocol step (`None` on the
    /// production path — [`save`](Self::save) is this code, so what the
    /// checker crashes is exactly what ships).
    fn commit(&mut self, cp: &Checkpoint, crash: Option<CommitCrash>) -> SvResult<Option<u64>> {
        let generation = self.next_gen;
        let bytes = cp.to_bytes(generation);
        let tmp = self.dir.join(format!("gen-{generation:06}.tmp"));
        let io_err = |what: &str, e: std::io::Error| {
            SvError::Checkpoint(format!("generation {generation}: {what}: {e}"))
        };
        let mut f = std::fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        if crash == Some(CommitCrash::AfterCreate) {
            return Ok(None);
        }
        if let Some(CommitCrash::AfterTempBytes(n)) = crash {
            f.write_all(&bytes[..n.min(bytes.len())])
                .map_err(|e| io_err("write", e))?;
            return Ok(None);
        }
        f.write_all(&bytes).map_err(|e| io_err("write", e))?;
        // The barrier that makes the rename atomic in the crash sense:
        // the data must be durable before the name is.
        f.sync_all().map_err(|e| io_err("fsync", e))?;
        drop(f);
        if crash == Some(CommitCrash::BeforeRename) {
            return Ok(None);
        }
        std::fs::rename(&tmp, self.gen_path(generation)).map_err(|e| io_err("rename", e))?;
        self.next_gen = generation + 1;
        self.prune();
        Ok(Some(generation))
    }

    /// Simulate a mid-write crash for fault injection
    /// ([`svsim_shmem::FaultAction::TornCheckpoint`]): half the serialized
    /// bytes are written *directly at the final generation name*, skipping
    /// the temp + fsync + rename protocol — exactly the torn state that
    /// protocol exists to prevent. The next [`load_latest`](Self::load_latest)
    /// must reject this generation and fall back to its predecessor.
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] on I/O failure.
    pub fn save_torn(&mut self, cp: &Checkpoint) -> SvResult<u64> {
        let generation = self.next_gen;
        let bytes = cp.to_bytes(generation);
        std::fs::write(self.gen_path(generation), &bytes[..bytes.len() / 2]).map_err(|e| {
            SvError::Checkpoint(format!("generation {generation}: torn write: {e}"))
        })?;
        self.next_gen = generation + 1;
        Ok(generation)
    }

    /// Delete everything but the newest [`KEEP_GENERATIONS`] generations.
    /// Best-effort: a file that cannot be deleted is simply retained.
    fn prune(&self) {
        if let Ok(gens) = self.generations() {
            for &g in gens.iter().rev().skip(KEEP_GENERATIONS) {
                let _ = std::fs::remove_file(self.gen_path(g));
            }
        }
    }

    /// Load and fully verify one specific generation.
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] when the file is missing, truncated, fails
    /// the whole-file checksum, carries the wrong embedded generation
    /// number (stale file under a renamed path), or fails the payload
    /// digest.
    fn load_generation(&self, generation: u64) -> SvResult<Checkpoint> {
        let bytes = std::fs::read(self.gen_path(generation)).map_err(|e| {
            SvError::Checkpoint(format!("generation {generation}: cannot read: {e}"))
        })?;
        Checkpoint::from_bytes(&bytes, generation)
    }

    /// Load the newest generation that verifies and belongs to the circuit
    /// whose [`circuit_digest`] is `circuit`, falling back through older
    /// ones — the crash-recovery entry point. Another circuit's generation
    /// is passed over like a corrupt one. Returns `Ok(None)` when the store
    /// holds no generations at all.
    ///
    /// # Errors
    /// [`SvError::Checkpoint`] when generations exist but none of them
    /// verifies and belongs to `circuit`.
    pub fn load_latest(&self, circuit: u64) -> SvResult<Option<(u64, Checkpoint)>> {
        let gens = self.generations()?;
        if gens.is_empty() {
            return Ok(None);
        }
        let mut last_err = None;
        for &g in gens.iter().rev() {
            match self.load_generation(g) {
                Ok(cp) if cp.circuit == circuit => return Ok(Some((g, cp))),
                Ok(_) => {
                    last_err = Some(SvError::Checkpoint(format!(
                        "generation {g}: written by another circuit"
                    )))
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| SvError::Checkpoint("no loadable generation".into())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The circuit digest the sample checkpoints claim.
    const CIRCUIT: u64 = 0x5eed;

    #[test]
    fn state_checksum_values_are_pinned() {
        let one = StateVector::zero_state(1).unwrap();
        let mut two = StateVector::zero_state(2).unwrap();
        {
            let (re, im) = two.parts_mut();
            re[0] = std::f64::consts::FRAC_1_SQRT_2;
            im[3] = -std::f64::consts::FRAC_1_SQRT_2;
        }
        let mut five = StateVector::zero_state(5).unwrap();
        {
            let (re, im) = five.parts_mut();
            re[0] = 0.5;
            re[7] = -0.25;
            re[30] = 1e-300;
            im[13] = 0.125;
            im[31] = -0.0;
        }
        assert_eq!(state_checksum(&one), 0xe9c4_2d07_2fa0_2874);
        assert_eq!(state_checksum(&two), 0x8ffa_abbd_2d43_c7b0);
        assert_eq!(state_checksum(&five), 0xc340_429a_74ba_f518);
    }

    #[test]
    fn state_checksum_tells_bit_patterns_apart() {
        // 1 qubit (no full quad of words) up to several quads per plane.
        for n in [1u32, 2, 5] {
            let mut state = StateVector::zero_state(n).unwrap();
            let clean = state_checksum(&state);
            let dim = state.dim();
            let mut seen = std::collections::HashSet::from([clean]);
            // One sign of zero anywhere, in either plane.
            for i in 0..2 * dim {
                let (re, im) = state.parts_mut();
                let word = if i < dim {
                    &mut re[i]
                } else {
                    &mut im[i - dim]
                };
                let was = std::mem::replace(word, if *word == 0.0 { -0.0 } else { -1.0 });
                assert!(seen.insert(state_checksum(&state)), "n {n} word {i}");
                let (re, im) = state.parts_mut();
                *(if i < dim {
                    &mut re[i]
                } else {
                    &mut im[i - dim]
                }) = was;
            }
            assert_eq!(state_checksum(&state), clean);
            // Two sign flips in one lane do not cancel; nor does a swap.
            if dim >= 8 {
                let (_, im) = state.parts_mut();
                (im[1], im[5]) = (-0.0, -0.0);
                assert!(seen.insert(state_checksum(&state)));
                let (re, _) = state.parts_mut();
                re.swap(0, 4);
                assert!(seen.insert(state_checksum(&state)));
            }
        }
    }

    #[test]
    fn capture_verify_restore_roundtrip() {
        let mut state = StateVector::zero_state(3).unwrap();
        {
            let (re, im) = state.parts_mut();
            re[3] = 0.25;
            im[5] = -0.5;
        }
        let rng = SvRng::seed_from_u64(7);
        let cp = Checkpoint::capture(CIRCUIT, 4, 0b101, &rng, &state);
        cp.verify().unwrap();
        assert_eq!(cp.op_index(), 4);
        assert_eq!(cp.cbits(), 0b101);
        assert_eq!(cp.bytes(), 16 * 8 + 24);

        let mut other = StateVector::zero_state(3).unwrap();
        let mut cbits = 0u64;
        let mut rng2 = SvRng::seed_from_u64(999);
        cp.restore_into(&mut other, &mut cbits, &mut rng2).unwrap();
        assert_eq!(other.re(), state.re());
        assert_eq!(other.im(), state.im());
        assert_eq!(cbits, 0b101);
        assert_eq!(state_checksum(&other), state_checksum(&state));
    }

    #[test]
    fn corruption_is_detected() {
        let state = StateVector::zero_state(2).unwrap();
        let rng = SvRng::seed_from_u64(1);
        let mut cp = Checkpoint::capture(CIRCUIT, 0, 0, &rng, &state);
        cp.corrupt_for_test();
        let err = cp.verify().unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let state = StateVector::zero_state(2).unwrap();
        let rng = SvRng::seed_from_u64(1);
        let cp = Checkpoint::capture(CIRCUIT, 0, 0, &rng, &state);
        let mut small = StateVector::zero_state(1).unwrap();
        let mut cbits = 0;
        let mut r = SvRng::seed_from_u64(2);
        assert!(cp.restore_into(&mut small, &mut cbits, &mut r).is_err());
    }

    /// A scratch directory under the OS temp root, removed when the guard
    /// drops (also when its test fails).
    struct TmpStore {
        path: PathBuf,
    }

    impl Drop for TmpStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }

    /// Fresh scratch directory for one test; removed up front so reruns
    /// start clean, and again when the returned guard drops.
    fn tmp_store(tag: &str) -> TmpStore {
        let path = std::env::temp_dir().join(format!("svsim-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TmpStore { path }
    }

    fn sample_checkpoint(op: usize, salt: u64) -> Checkpoint {
        let mut state = StateVector::zero_state(3).unwrap();
        {
            let (re, im) = state.parts_mut();
            re[1] = 0.5 + salt as f64;
            im[6] = -0.25;
        }
        let mut rng = SvRng::seed_from_u64(salt);
        let _ = rng.next_gaussian(); // cache a Box-Muller spare
        Checkpoint::capture(CIRCUIT, op, salt, &rng, &state)
    }

    fn assert_same(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.circuit, b.circuit);
        assert_eq!(a.op_index, b.op_index);
        assert_eq!(a.cbits, b.cbits);
        assert_eq!(a.rng.state(), b.rng.state());
        assert_eq!(a.re, b.re);
        assert_eq!(a.im, b.im);
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn store_save_load_roundtrip_including_rng_spare() {
        let dir = tmp_store("roundtrip");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        let cp = sample_checkpoint(4, 7);
        let g = store.save(&cp).unwrap();
        assert_eq!(g, 0);
        let loaded = store.load_generation(0).unwrap();
        assert_same(&cp, &loaded);
        let (g2, latest) = store.load_latest(CIRCUIT).unwrap().expect("one generation");
        assert_eq!(g2, 0);
        assert_same(&cp, &latest);
        // Reopening resumes the counter after the newest file.
        let mut reopened = CheckpointStore::open(&dir.path).unwrap();
        assert_eq!(reopened.save(&sample_checkpoint(8, 9)).unwrap(), 1);
    }

    #[test]
    fn store_prunes_to_two_generations() {
        let dir = tmp_store("prune");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        for op in 0..5 {
            store.save(&sample_checkpoint(op, op as u64)).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![3, 4]);
        assert_eq!(store.load_latest(CIRCUIT).unwrap().unwrap().0, 4);
    }

    #[test]
    fn bit_flip_is_rejected_and_previous_generation_recovers() {
        let dir = tmp_store("bitflip");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        let good = sample_checkpoint(2, 1);
        store.save(&good).unwrap();
        store.save(&sample_checkpoint(6, 2)).unwrap();
        // Flip one bit in the middle of the newest generation.
        let path = store.gen_path(1);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load_generation(1).unwrap_err();
        assert!(
            matches!(&err, SvError::Checkpoint(m) if m.contains("checksum mismatch")),
            "{err}"
        );
        let (g, cp) = store.load_latest(CIRCUIT).unwrap().expect("fallback");
        assert_eq!(g, 0, "must fall back to the previous generation");
        assert_same(&good, &cp);
    }

    #[test]
    fn retired_format_reads_as_bad_magic() {
        let dir = tmp_store("magic");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        store.save(&sample_checkpoint(2, 1)).unwrap();
        let path = store.gen_path(0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"SVCKPT01");
        std::fs::write(&path, &bytes).unwrap();
        let err = store.load_generation(0).unwrap_err();
        assert!(
            matches!(&err, SvError::Checkpoint(m) if m.contains("bad magic")),
            "{err}"
        );
    }

    #[test]
    fn hostile_amplitude_count_fails_typed() {
        // A count whose double wraps to the two body words present, under a
        // trailer that verifies.
        let mut words = vec![
            STORE_MAGIC,
            0,
            CIRCUIT,
            0,
            0,
            1,
            2,
            3,
            4,
            0,
            0,
            (1 << 63) + 1,
        ];
        words.extend([0, 0, 0]);
        words.push(Digest::default().absorb(&words, u64::from).finish());
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let err = Checkpoint::from_bytes(&bytes, 0).unwrap_err();
        assert!(
            matches!(&err, SvError::Checkpoint(m) if m.contains("truncated amplitude payload")),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_rejected_and_previous_generation_recovers() {
        let dir = tmp_store("trunc");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        let good = sample_checkpoint(2, 3);
        store.save(&good).unwrap();
        store.save(&sample_checkpoint(6, 4)).unwrap();
        let path = store.gen_path(1);
        let bytes = std::fs::read(&path).unwrap();
        // Both torn shapes: mid-record (ragged) and record-aligned.
        for cut in [bytes.len() / 2 + 3, bytes.len() - 8] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let err = store.load_generation(1).unwrap_err();
            assert!(matches!(err, SvError::Checkpoint(_)), "{err}");
            assert_eq!(store.load_latest(CIRCUIT).unwrap().unwrap().0, 0);
        }
    }

    #[test]
    fn stale_generation_under_a_renamed_path_is_rejected() {
        let dir = tmp_store("stale");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        let good = sample_checkpoint(2, 5);
        store.save(&good).unwrap();
        store.save(&sample_checkpoint(6, 6)).unwrap();
        // An operator "restores" an old file under the newest name: the
        // embedded generation number betrays it.
        std::fs::copy(store.gen_path(0), store.gen_path(1)).unwrap();
        let err = store.load_generation(1).unwrap_err();
        assert!(
            matches!(&err, SvError::Checkpoint(m) if m.contains("stale generation")),
            "{err}"
        );
        let (g, cp) = store.load_latest(CIRCUIT).unwrap().expect("fallback");
        assert_eq!(g, 0);
        assert_same(&good, &cp);
    }

    #[test]
    fn torn_save_is_rejected_and_previous_generation_recovers() {
        let dir = tmp_store("torn");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        let good = sample_checkpoint(2, 8);
        store.save(&good).unwrap();
        store.save_torn(&sample_checkpoint(6, 9)).unwrap();
        assert!(store.load_generation(1).is_err());
        let (g, cp) = store.load_latest(CIRCUIT).unwrap().expect("fallback");
        assert_eq!(g, 0);
        assert_same(&good, &cp);
    }

    #[test]
    fn another_circuits_generation_is_passed_over() {
        let dir = tmp_store("circuit");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        let mine = sample_checkpoint(2, 11);
        store.save(&mine).unwrap();
        let state = StateVector::zero_state(3).unwrap();
        let theirs = Checkpoint::capture(CIRCUIT + 1, 4, 12, &SvRng::seed_from_u64(0), &state);
        store.save(&theirs).unwrap();
        let (g, cp) = store.load_latest(CIRCUIT).unwrap().expect("fallback");
        assert_eq!(g, 0, "must pass over the other circuit's generation");
        assert_same(&mine, &cp);
        assert_eq!(store.load_latest(CIRCUIT + 1).unwrap().unwrap().0, 1);
        let err = store.load_latest(CIRCUIT + 2).unwrap_err();
        assert!(
            matches!(&err, SvError::Checkpoint(m) if m.contains("another circuit")),
            "{err}"
        );
    }

    #[test]
    fn empty_store_and_all_corrupt_store_are_distinguished() {
        let dir = tmp_store("empty");
        let mut store = CheckpointStore::open(&dir.path).unwrap();
        assert!(
            store.load_latest(CIRCUIT).unwrap().is_none(),
            "empty store is Ok(None)"
        );
        store.save_torn(&sample_checkpoint(1, 10)).unwrap();
        assert!(
            store.load_latest(CIRCUIT).is_err(),
            "only-corrupt store is an error"
        );
    }
}
