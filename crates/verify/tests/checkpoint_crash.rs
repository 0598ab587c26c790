//! Crash-at-any-write checking of the checkpoint commit protocol
//! (ISSUE 9, property d): for every possible crash point of the *real*
//! [`CheckpointStore`] commit path — temp file created empty, every torn
//! byte prefix, full write with no rename, and a torn write at the final
//! name — a reopened store must never surface the uncommitted
//! generation: `load_latest` returns the previous committed generation
//! bit-identically, or `None` when nothing was ever committed.

use std::path::PathBuf;
use svsim_core::{Checkpoint, CheckpointStore, CommitCrash, StateVector};
use svsim_types::SvRng;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svsim-verify-ckpt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The circuit digest every checkpoint here claims.
const CIRCUIT: u64 = 0x5eed;

fn checkpoint(op_index: usize, cbits: u64, seed: u64) -> Checkpoint {
    let rng = SvRng::seed_from_u64(seed);
    let state = StateVector::zero_state(3).unwrap();
    Checkpoint::capture(CIRCUIT, op_index, cbits, &rng, &state)
}

fn assert_recovers_committed(dir: &PathBuf, committed: &Checkpoint) {
    // A real crash killed the process: recovery reopens the directory.
    let store = CheckpointStore::open(dir).unwrap();
    let (generation, loaded) = store
        .load_latest(CIRCUIT)
        .expect("a committed generation must verify")
        .expect("the committed generation must still be listed");
    assert_eq!(generation, 0, "recovery must fall back to generation 0");
    assert_eq!(loaded.op_index(), committed.op_index());
    assert_eq!(loaded.cbits(), committed.cbits());
    assert_eq!(
        loaded.checksum(),
        committed.checksum(),
        "recovered checkpoint must be bit-identical to what was committed"
    );
    loaded.verify().unwrap();
}

#[test]
fn crash_at_every_commit_step_never_surfaces_uncommitted() {
    let committed = checkpoint(1, 0b01, 7);
    let doomed = checkpoint(2, 0b10, 23);
    // `bytes()` is the payload footprint; pad past the serialization
    // header so the sweep provably covers every byte of the real file
    // (`AfterTempBytes` clamps to the actual length).
    let doomed_len = usize::try_from(doomed.bytes()).unwrap() + 128;

    let mut crashes = vec![CommitCrash::AfterCreate, CommitCrash::BeforeRename];
    // Exhaustive over every torn temp-file prefix, including 0 and full.
    crashes.extend((0..=doomed_len).map(CommitCrash::AfterTempBytes));

    for crash in crashes {
        let dir = fresh_dir(&format!("{crash:?}").replace(['(', ')'], "-"));
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save(&committed).unwrap();
        store.save_crashed(&doomed, crash).unwrap();
        drop(store);
        assert_recovers_committed(&dir, &committed);

        // And the reopened store must keep working: the next save lands
        // as a fresh generation above the committed one.
        let mut store = CheckpointStore::open(&dir).unwrap();
        let g = store.save(&doomed).unwrap();
        assert!(g >= 1, "post-recovery save must not reuse generation 0");
        let (latest, cp) = store.load_latest(CIRCUIT).unwrap().unwrap();
        assert_eq!(latest, g);
        assert_eq!(cp.checksum(), doomed.checksum());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_write_at_final_name_falls_back() {
    let committed = checkpoint(1, 0b01, 7);
    let doomed = checkpoint(2, 0b10, 23);
    let dir = fresh_dir("torn-final");
    let mut store = CheckpointStore::open(&dir).unwrap();
    store.save(&committed).unwrap();
    // Half the bytes land directly at the committed generation name —
    // the torn state the temp+fsync+rename protocol exists to prevent.
    store.save_torn(&doomed).unwrap();
    drop(store);
    assert_recovers_committed(&dir, &committed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_with_nothing_committed_recovers_empty() {
    for crash in [
        CommitCrash::AfterCreate,
        CommitCrash::AfterTempBytes(16),
        CommitCrash::BeforeRename,
    ] {
        let dir = fresh_dir(&format!("empty-{crash:?}").replace(['(', ')'], "-"));
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.save_crashed(&checkpoint(2, 0b10, 23), crash).unwrap();
        drop(store);
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(
            store.load_latest(CIRCUIT).unwrap().is_none(),
            "an uncommitted generation must never load ({crash:?})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
