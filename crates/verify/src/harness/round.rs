//! Respawn-round harness: parked survivors and the supervisor's release
//! attempt, stepping the production [`Survivor`] and [`Release`] machines
//! with kills injectable while parked and an optional abort path.
//!
//! Checked properties (ISSUE 9, property b):
//! - a released survivor rejoins at the *last released epoch*: when it
//!   observes the round bump, the barrier words are reset and the
//!   driver's table reset for that round already happened;
//! - a survivor never acks two rounds from one park (exactly one ack
//!   write per park, and only ever `parked + 1`);
//! - `Publish` happens only under a confirmed abort for the survivor's
//!   own round; `ReRunStale` only when a newer round raced past it;
//! - the recovery always completes: released, published, or killed — no
//!   livelock even when a survivor dies mid-park and the supervisor's
//!   in-flight attempt holds a stale survivor list.

use crate::mem::ModelMem;
use crate::Model;
use svsim_shmem::proto::bar::POISON_BIT;
use svsim_shmem::proto::round::{
    self, Release, ReleasePhase, ReleaseStep, Survivor, SurvivorPhase, SurvivorStep,
};

/// Scenario: `survivors` parked PEs, one supervisor, `kills` kill budget,
/// `regens` additional whole-world re-wrecks after a successful release.
#[derive(Debug, Clone)]
pub struct RoundModel {
    /// Parked PEs.
    pub survivors: usize,
    /// How many parked survivors may be killed.
    pub kills: u8,
    /// Whether the supervisor may abandon respawn and post the abort.
    pub allow_abort: bool,
    /// How many times the released world may wreck again and re-park.
    pub regens: u8,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Sv {
    Parked(Survivor),
    /// Released into round `r`, body re-run cleanly.
    Rejoined(u64),
    /// Published the wrecked round `r`'s result after an abort.
    Published(u64),
    Killed,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Sup {
    Idle,
    Releasing {
        m: Release,
        round: u64,
    },
    /// Posted the abort; never releases again.
    Aborted,
}

/// Global model state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RoundState {
    mem: Vec<u64>,
    svs: Vec<Sv>,
    sup: Sup,
    /// The supervisor's current wrecked-round number.
    round: u64,
    kills_left: u8,
    regens_left: u8,
    /// Ack-slot writes per survivor in its *current* park.
    ack_writes: Vec<u8>,
    /// The new round whose driver-side table reset has completed.
    tables_reset_for: Option<u64>,
    /// A transition-level property broken while generating this state.
    broke: Option<String>,
}

fn wrecked_mem(survivors: usize) -> Vec<u64> {
    let mut mem = vec![0; round::ACK_BASE + survivors];
    // A wrecked epoch: one arrival absorbed, barrier poisoned.
    mem[round::RB_COUNT] = 1;
    mem[round::RB_SENSE] = POISON_BIT;
    mem
}

impl RoundModel {
    fn step_survivor(&self, s: &RoundState, i: usize, sv: Survivor) -> (String, RoundState) {
        let mut t = s.clone();
        let mem = ModelMem::new(std::mem::take(&mut t.mem));
        let mut m = sv;
        let phase = m.phase();
        if phase == SurvivorPhase::Ack {
            t.ack_writes[i] += 1;
        }
        let step = m.step(&mem);
        t.mem = mem.into_words();
        t.svs[i] = match step {
            SurvivorStep::Pending => Sv::Parked(m),
            SurvivorStep::Released(r) => {
                if t.mem[round::RB_COUNT] != 0 || t.mem[round::RB_SENSE] != 0 {
                    t.broke = Some(format!(
                        "pe{i} released into round {r} with barrier words not reset \
                         (count={} sense={})",
                        t.mem[round::RB_COUNT],
                        t.mem[round::RB_SENSE]
                    ));
                }
                if t.tables_reset_for != Some(r) {
                    t.broke = Some(format!(
                        "pe{i} released into round {r} before the driver's table reset \
                         for it (reset done for {:?})",
                        t.tables_reset_for
                    ));
                }
                Sv::Rejoined(r)
            }
            SurvivorStep::Publish => {
                if t.mem[round::ABORT] != 1 || t.mem[round::ROUND] != sv.parked {
                    t.broke = Some(format!(
                        "pe{i} publishing round {} without a confirmed abort for it \
                         (abort={} round={})",
                        sv.parked,
                        t.mem[round::ABORT],
                        t.mem[round::ROUND]
                    ));
                }
                Sv::Published(sv.parked)
            }
            SurvivorStep::ReRunStale => {
                if t.mem[round::ROUND] <= sv.parked {
                    t.broke = Some(format!(
                        "pe{i} told to re-run a stale round but round {} is not newer \
                         than its parked {}",
                        t.mem[round::ROUND],
                        sv.parked
                    ));
                }
                // The re-run hits the (sticky) poisoned barrier and parks
                // again at the same round.
                t.ack_writes[i] = 0;
                Sv::Parked(Survivor::new(sv.parked, i))
            }
        };
        (format!("pe{i}:{phase:?}"), t)
    }

    fn step_sup(&self, s: &RoundState, m: &Release, round: u64) -> (String, RoundState) {
        let mut t = s.clone();
        let mut m = m.clone();
        let phase = m.phase();
        if phase == ReleasePhase::ResetCount {
            // The driver resets the heap bump, allocation tables, epochs
            // and result slots exactly when the machine reaches the
            // barrier-word resets (all survivor acks verified).
            t.tables_reset_for = Some(round + 1);
        }
        let mem = ModelMem::new(std::mem::take(&mut t.mem));
        let step = m.step(&mem);
        t.mem = mem.into_words();
        t.sup = match step {
            ReleaseStep::Pending => Sup::Releasing { m, round },
            ReleaseStep::NotParked => Sup::Idle,
            ReleaseStep::Released => {
                t.round = round + 1;
                Sup::Idle
            }
        };
        (format!("sup:{phase:?}"), t)
    }
}

impl Model for RoundModel {
    type State = RoundState;

    fn init(&self) -> Vec<RoundState> {
        vec![RoundState {
            mem: wrecked_mem(self.survivors),
            svs: (0..self.survivors)
                .map(|pe| Sv::Parked(Survivor::new(0, pe)))
                .collect(),
            sup: Sup::Idle,
            round: 0,
            kills_left: self.kills,
            regens_left: self.regens,
            ack_writes: vec![0; self.survivors],
            tables_reset_for: None,
            broke: None,
        }]
    }

    fn successors(&self, s: &RoundState) -> Vec<(String, RoundState)> {
        let mut out = Vec::new();
        for (i, sv) in s.svs.iter().enumerate() {
            if let Sv::Parked(m) = sv {
                out.push(self.step_survivor(s, i, *m));
            }
        }
        let parked = s.svs.iter().filter(|v| matches!(v, Sv::Parked(_))).count();
        match &s.sup {
            Sup::Idle if parked > 0 => {
                // Recompute the live survivor set at attempt time, exactly
                // as the production supervisor recomputes victims per tick.
                let acks: Vec<usize> = s
                    .svs
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !matches!(v, Sv::Killed))
                    .map(|(pe, _)| round::ACK_BASE + pe)
                    .collect();
                let mut t = s.clone();
                t.sup = Sup::Releasing {
                    m: Release::new(acks, s.round),
                    round: s.round,
                };
                out.push(("sup:attempt".into(), t));
                if self.allow_abort {
                    let mut t = s.clone();
                    let mem = ModelMem::new(std::mem::take(&mut t.mem));
                    round::post_abort(&mem);
                    t.mem = mem.into_words();
                    t.sup = Sup::Aborted;
                    out.push(("sup:abort".into(), t));
                }
            }
            Sup::Releasing { m, round } => out.push(self.step_sup(s, m, *round)),
            Sup::Idle | Sup::Aborted => {}
        }
        if s.kills_left > 0 {
            for (i, sv) in s.svs.iter().enumerate() {
                if matches!(sv, Sv::Parked(_)) {
                    let mut t = s.clone();
                    t.svs[i] = Sv::Killed;
                    t.kills_left -= 1;
                    out.push((format!("kill:pe{i}"), t));
                }
            }
        }
        // The released world wrecks again: every rejoined survivor hits
        // the re-poisoned barrier and parks at the new round together.
        if s.regens_left > 0
            && s.svs
                .iter()
                .all(|v| matches!(v, Sv::Rejoined(_) | Sv::Killed))
            && s.svs.iter().any(|v| matches!(v, Sv::Rejoined(_)))
        {
            let mut t = s.clone();
            t.regens_left -= 1;
            t.mem[round::RB_SENSE] |= POISON_BIT;
            t.mem[round::RB_COUNT] = 1;
            for (i, sv) in s.svs.iter().enumerate() {
                if let Sv::Rejoined(r) = sv {
                    t.svs[i] = Sv::Parked(Survivor::new(*r, i));
                    t.ack_writes[i] = 0;
                }
            }
            out.push(("world:wreck".into(), t));
        }
        out
    }

    fn invariant(&self, s: &RoundState) -> Result<(), String> {
        if let Some(broke) = &s.broke {
            return Err(broke.clone());
        }
        if let Some(i) = s.ack_writes.iter().position(|&w| w > 1) {
            return Err(format!("pe{i} acked twice in one park"));
        }
        for (i, sv) in s.svs.iter().enumerate() {
            let ack = s.mem[round::ACK_BASE + i];
            let valid = match sv {
                // Mid-park: the ack slot holds 0 (not written yet), the
                // current park's ack, or a stale one from an earlier round.
                Sv::Parked(m) => ack <= m.parked + 1,
                // A survivor released into round `r` last acked `r` at most.
                Sv::Rejoined(r) => ack <= *r,
                // Publishing round `r` required acking `r + 1` first.
                Sv::Published(r) => ack <= *r + 1,
                Sv::Killed => true,
            };
            if !valid {
                return Err(format!("pe{i} ack slot holds {ack}, acking a future round"));
            }
        }
        Ok(())
    }

    fn accepting(&self, s: &RoundState) -> bool {
        s.svs
            .iter()
            .all(|v| matches!(v, Sv::Rejoined(_) | Sv::Published(_) | Sv::Killed))
            && !matches!(s.sup, Sup::Releasing { .. })
    }
}

/// The configuration `sv-sim verify` proves in CI: two survivors, a kill
/// anywhere while parked, the abort path enabled, and one extra
/// whole-world wreck after a successful release (so "never acks two
/// rounds" is checked across two parks).
#[must_use]
pub fn ci_model() -> RoundModel {
    RoundModel {
        survivors: 2,
        kills: 1,
        allow_abort: true,
        regens: 1,
    }
}
