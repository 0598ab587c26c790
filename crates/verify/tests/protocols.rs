//! Exhaustive protocol checks: the CI property runs plus regression
//! tests pinning the checker's findings against historical protocol
//! configurations.

use svsim_shmem::proto::bar::BarrierSm;
use svsim_verify::harness::{barrier, fault, heap, round};
use svsim_verify::{check_all, explore};

const MAX_STATES: usize = 2_000_000;

#[test]
fn ci_property_suite_passes() {
    let bounds = check_all(MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
    assert_eq!(bounds.len(), 5, "expected five proof bounds: {bounds:?}");
    for b in &bounds {
        assert!(b.states > 0 && b.edges > b.states / 2, "{b}");
        println!("{b}");
    }
}

#[test]
fn barrier_survives_kill_and_timeout_anywhere() {
    for model in barrier::ci_models() {
        let r = explore(&model, MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
        assert!(r.accepting > 0);
    }
}

/// The checker's first finding: with the historical blind timeout
/// (`timeout_recheck: false`, what the process barrier first shipped), a
/// bounded wait that expires while the releasing PE is mid-release
/// poisons an epoch the peer already completed — a split-epoch failure.
#[test]
fn finds_blind_timeout_split_epoch() {
    let model = barrier::BarrierModel {
        sm: BarrierSm {
            n: 2,
            timeout_recheck: false,
        },
        n: 2,
        epochs: 1,
        kills: 0,
        timeouts: 1,
    };
    let v = explore(&model, MAX_STATES).expect_err("blind timeout must split epochs");
    assert!(
        v.message.contains("released-epoch rule") || v.message.contains("split-epoch"),
        "unexpected violation: {v}"
    );
    println!("finding reproduced:\n{v}");
}

/// The checker's second finding, now closed: with sense and poison on
/// *one* word, the timeout re-check is a decisive CAS — it either claims
/// the poison or observes the committed flip, so an expiring wait can
/// never fail an epoch whose release already committed. Exhaustively
/// proven over every interleaving of a 2-PE epoch with a timeout.
#[test]
fn timeout_recheck_race_is_closed() {
    let model = barrier::BarrierModel {
        sm: BarrierSm {
            n: 2,
            timeout_recheck: true,
        },
        n: 2,
        epochs: 1,
        kills: 0,
        timeouts: 1,
    };
    let r = explore(&model, MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
    assert!(r.accepting > 0);
}

/// The checker's third finding, now closed: the reaper's poison is a
/// `fetch_or` into the sense word, so it totally orders against the
/// release CAS — a poison that lands after the flip can no longer fail
/// an epoch a peer completed. Exhaustively proven over every
/// interleaving of a 3-PE epoch with a kill + reap.
#[test]
fn reap_after_arrival_race_is_closed() {
    let model = barrier::BarrierModel {
        sm: BarrierSm {
            n: 3,
            timeout_recheck: true,
        },
        n: 3,
        epochs: 1,
        kills: 1,
        timeouts: 0,
    };
    let r = explore(&model, MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
    assert!(r.accepting > 0);
}

#[test]
fn round_recovery_passes() {
    let r = explore(&round::ci_model(), MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
    assert!(r.accepting > 0);
}

#[test]
fn heap_alloc_kill_anywhere_passes() {
    let r = explore(&heap::ci_model(), MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
    assert!(r.accepting > 0);
}

#[test]
fn fault_oneshot_fires_exactly_once() {
    let r = explore(&fault::ci_model(), MAX_STATES).unwrap_or_else(|v| panic!("{v}"));
    assert!(r.accepting > 0);
}
