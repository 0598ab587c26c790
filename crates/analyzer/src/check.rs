//! The static communication-plan checker.
//!
//! Proves, per barrier epoch, that no two PEs touch the same amplitude —
//! the §2.2 contract of the one-sided SHMEM protocol — *symbolically*, by
//! pair-index arithmetic over qubit masks, never by enumerating the `2^n`
//! amplitudes.
//!
//! # The index-set algebra
//!
//! Every kernel's accesses follow one formula (shared verbatim with the
//! traffic model through [`kernel_access_patterns`]): work item `i` at
//! access pattern `pat` touches amplitude
//! `insert_zero_bits(i, sorted) | pat`, where `sorted` are the kernel's
//! involved-qubit positions. Item bits land injectively at the non-involved
//! positions; pattern bits live only at involved positions. Two structural
//! facts follow:
//!
//! 1. **A single-kernel epoch is safe by injectivity.** The map
//!    `(item, pat) -> index` is injective, each item belongs to exactly one
//!    PE's contiguous [`worker_range`], so every amplitude is touched by at
//!    most one PE. No arithmetic needed — `O(1)` per epoch.
//!
//! 2. **A PE's index set is a finite union of rectangular blocks.** With
//!    `work >= n_pes` (both powers of two), PE `p` owns items
//!    `[p·w/P, (p+1)·w/P)`: the low item bits range freely, the top
//!    `log2(P)` item bits are pinned to `p`. Mapped through the zero-bit
//!    insertion, the set of indices PE `p` touches through pattern `pat` is
//!    exactly `{ idx : idx & mask == value }` with
//!    `mask = dim_mask & !insert_zero_bits(w/P - 1, sorted)` and
//!    `value = insert_zero_bits(p·w/P, sorted) | pat`. When `work < n_pes`
//!    each PE has at most one item and blocks pin every bit.
//!
//! Two blocks `(mA, vA)` and `(mB, vB)` intersect iff their pinned bits
//! agree: `(vA ^ vB) & mA & mB == 0`, and then `vA | vB` is a concrete
//! witness amplitude in the intersection. Since every kernel both reads and
//! writes each index it touches, any cross-PE intersection is a
//! write/write conflict. Checking an epoch is `O(gates² · P² · patterns²)`
//! block pairs — independent of the amplitude count, so a 23-qubit plan
//! checks as fast as a 4-qubit one.
//!
//! 3. **A confined epoch is safe block by block.** If every block PE `p`
//!    touches pins the top `log2(P)` index bits to `p` — it lies in `p`'s
//!    own partition — no two PEs' blocks can intersect, and no pair needs
//!    comparing: `O(gates · P · patterns)`. That is the shape of every tile
//!    run's epoch (its kernels are all partition-local), so long runs cost
//!    the checker no more than their kernels do; an epoch that is not
//!    confined is compared pair by pair.

use crate::plan::{CommPlan, EpochKind};
use std::fmt;
use svsim_core::compile::{CompiledGate, KernelId};
use svsim_core::kernels::worker_range;
use svsim_core::traffic::kernel_access_patterns;
use svsim_ir::GateKind;
use svsim_types::bits::insert_zero_bits;
use svsim_types::{SvError, SvResult};

/// Outcome of analyzing one epoch (or a whole plan: the worst epoch wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Every cross-PE access pair was proven disjoint.
    ProvenSafe,
    /// The pair budget ran out before the epoch was fully checked.
    Unknown,
    /// At least one cross-PE overlap exists; see [`AnalysisReport::conflicts`].
    Conflicting,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::ProvenSafe => "proven-safe",
            Self::Unknown => "unknown",
            Self::Conflicting => "CONFLICTING",
        })
    }
}

/// A proven cross-PE overlap: two kernels in one epoch whose index sets
/// intersect, with a concrete witness amplitude.
#[derive(Debug, Clone)]
pub struct Conflict {
    /// Epoch index in the plan.
    pub epoch: usize,
    /// First plan-gate index ([`CommPlan::gates`]).
    pub gate_a: usize,
    /// Second plan-gate index.
    pub gate_b: usize,
    /// Source gate of the first kernel ([`crate::plan::PlanGate::gate`]).
    pub source_a: Option<GateKind>,
    /// Source gate of the second kernel.
    pub source_b: Option<GateKind>,
    /// Kernel body of the first gate.
    pub kernel_a: KernelId,
    /// Kernel body of the second gate.
    pub kernel_b: KernelId,
    /// Involved qubits of the first gate.
    pub qubits_a: Vec<u32>,
    /// Involved qubits of the second gate.
    pub qubits_b: Vec<u32>,
    /// Source-circuit op index of the first gate.
    pub source_op_a: usize,
    /// Source-circuit op index of the second gate.
    pub source_op_b: usize,
    /// PE executing the first gate's overlapping items.
    pub pe_a: u64,
    /// PE executing the second gate's overlapping items.
    pub pe_b: u64,
    /// A concrete amplitude index both PEs touch.
    pub witness_index: u64,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The source gate where there is one: a body alone does not tell a
        // CNOT from a SWAP.
        let named = |source: Option<GateKind>, kernel: KernelId| match source {
            Some(gate) => format!("{gate} ({kernel:?} kernel)"),
            None => format!("{kernel:?} kernel"),
        };
        write!(
            f,
            "write/write conflict in epoch {}: {} on q{:?} (gate #{}, op #{}) by PE {} and \
             {} on q{:?} (gate #{}, op #{}) by PE {} both touch amplitude {:#x}",
            self.epoch,
            named(self.source_a, self.kernel_a),
            self.qubits_a,
            self.gate_a,
            self.source_op_a,
            self.pe_a,
            named(self.source_b, self.kernel_b),
            self.qubits_b,
            self.gate_b,
            self.source_op_b,
            self.pe_b,
            self.witness_index
        )
    }
}

/// Per-epoch analysis outcome.
#[derive(Debug, Clone)]
pub struct EpochSummary {
    /// Epoch index.
    pub epoch: usize,
    /// Epoch kind.
    pub kind: EpochKind,
    /// Number of gate kernels inside.
    pub n_gates: usize,
    /// Verdict for this epoch.
    pub verdict: Verdict,
    /// Block pairs compared, plus blocks tested for confinement (0 for
    /// epochs safe by injectivity/locality).
    pub pairs_checked: u64,
}

/// The full analysis of a communication plan at one partitioning.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Circuit width.
    pub n_qubits: u32,
    /// Partition count analyzed.
    pub n_pes: u64,
    /// Per-epoch outcomes, in schedule order.
    pub epochs: Vec<EpochSummary>,
    /// Every recorded conflict (capped per epoch; the verdict is exact).
    pub conflicts: Vec<Conflict>,
}

impl AnalysisReport {
    /// Worst epoch verdict (a plan is only as safe as its worst epoch).
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        self.epochs
            .iter()
            .map(|e| e.verdict)
            .max()
            .unwrap_or(Verdict::ProvenSafe)
    }

    /// True when every epoch was proven conflict-free.
    #[must_use]
    pub fn is_proven_safe(&self) -> bool {
        self.verdict() == Verdict::ProvenSafe
    }

    /// Number of epochs with the given verdict.
    #[must_use]
    pub fn count(&self, v: Verdict) -> usize {
        self.epochs.iter().filter(|e| e.verdict == v).count()
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: {} qubits at {} PEs, {} epochs ({} proven-safe, {} unknown, {} conflicting) => {}",
            self.n_qubits,
            self.n_pes,
            self.epochs.len(),
            self.count(Verdict::ProvenSafe),
            self.count(Verdict::Unknown),
            self.count(Verdict::Conflicting),
            self.verdict()
        )?;
        for c in &self.conflicts {
            writeln!(f, "  {c}")?;
        }
        Ok(())
    }
}

/// Default block-pair budget per plan: far above any realistic schedule,
/// low enough to bound a degenerate merged epoch at huge PE counts.
pub const DEFAULT_PAIR_BUDGET: u64 = 50_000_000;

/// Most conflicts recorded per epoch; the verdict stays exact past the cap.
const MAX_CONFLICTS_PER_EPOCH: usize = 8;

/// One rectangular index set `{ idx : idx & mask == value }`.
#[derive(Clone, Copy)]
struct Block {
    mask: u64,
    value: u64,
}

/// The blocks of indices PE `pe` touches executing `cg`, one per
/// (owned-item-group, access pattern).
fn blocks_for(
    cg: &CompiledGate,
    patterns: &[u64],
    n_qubits: u32,
    n_pes: u64,
    pe: u64,
    out: &mut Vec<Block>,
) {
    out.clear();
    let dim_mask = (1u64 << n_qubits) - 1;
    let sorted = cg.args.sorted();
    let work = cg.args.work;
    if work >= n_pes {
        // Power-of-two partitioning: the low log2(work/n_pes) item bits
        // range freely over PE `pe`'s chunk, the rest are pinned.
        let per_pe = work / n_pes;
        let free = insert_zero_bits(per_pe - 1, sorted);
        let mask = dim_mask & !free;
        let base = insert_zero_bits(pe * per_pe, sorted);
        for &pat in patterns {
            out.push(Block {
                mask,
                value: base | pat,
            });
        }
    } else {
        // Fewer items than PEs: each PE has at most one concrete item.
        for i in worker_range(work, n_pes, pe) {
            let base = insert_zero_bits(i, sorted);
            for &pat in patterns {
                out.push(Block {
                    mask: dim_mask,
                    value: base | pat,
                });
            }
        }
    }
}

/// Check all cross-PE block pairs between two distinct gates of one epoch.
#[allow(clippy::too_many_arguments)]
fn check_gate_pair(
    plan: &CommPlan,
    epoch: usize,
    ga: usize,
    gb: usize,
    n_pes: u64,
    pairs: &mut u64,
    budget: u64,
    conflicts: &mut Vec<Conflict>,
    epoch_conflicts: &mut usize,
) -> Verdict {
    let a = &plan.gates[ga];
    let b = &plan.gates[gb];
    let (pats_a, _) = kernel_access_patterns(&a.cg);
    let (pats_b, _) = kernel_access_patterns(&b.cg);
    let mut ba = Vec::new();
    let mut bb = Vec::new();
    let mut verdict = Verdict::ProvenSafe;
    for p in 0..n_pes {
        blocks_for(&a.cg, pats_a, plan.n_qubits, n_pes, p, &mut ba);
        if ba.is_empty() {
            continue;
        }
        for q in 0..n_pes {
            if q == p {
                continue; // same-PE accesses are sequential, never a race
            }
            blocks_for(&b.cg, pats_b, plan.n_qubits, n_pes, q, &mut bb);
            for blk_a in &ba {
                for blk_b in &bb {
                    *pairs += 1;
                    if *pairs > budget {
                        return Verdict::Unknown;
                    }
                    if (blk_a.value ^ blk_b.value) & blk_a.mask & blk_b.mask == 0 {
                        verdict = Verdict::Conflicting;
                        if *epoch_conflicts < MAX_CONFLICTS_PER_EPOCH {
                            *epoch_conflicts += 1;
                            conflicts.push(Conflict {
                                epoch,
                                gate_a: ga,
                                gate_b: gb,
                                source_a: a.gate,
                                source_b: b.gate,
                                kernel_a: a.kernel,
                                kernel_b: b.kernel,
                                qubits_a: a.qubits.clone(),
                                qubits_b: b.qubits.clone(),
                                source_op_a: a.source_op,
                                source_op_b: b.source_op,
                                pe_a: p,
                                pe_b: q,
                                witness_index: blk_a.value | blk_b.value,
                            });
                        }
                    }
                }
            }
        }
    }
    verdict
}

/// Whether every block each PE touches in the epoch's `gates` lies in that
/// PE's own partition (fact 3 of the module docs), spending one unit of
/// `budget` per block examined; `None` when the budget runs out first.
fn confined(
    plan: &CommPlan,
    gates: &[usize],
    n_pes: u64,
    spent: &mut u64,
    budget: u64,
) -> Option<bool> {
    let shift = plan.n_qubits - n_pes.trailing_zeros();
    let partition = (n_pes - 1) << shift;
    let mut blocks = Vec::new();
    for &g in gates {
        let cg = &plan.gates[g].cg;
        let (patterns, _) = kernel_access_patterns(cg);
        for pe in 0..n_pes {
            blocks_for(cg, patterns, plan.n_qubits, n_pes, pe, &mut blocks);
            for blk in &blocks {
                *spent += 1;
                if *spent > budget {
                    return None;
                }
                if blk.mask & partition != partition || blk.value & partition != pe << shift {
                    return Some(false);
                }
            }
        }
    }
    Some(true)
}

/// A PE count must be a nonzero power of two no larger than the state
/// dimension.
pub(crate) fn check_pes(n_qubits: u32, n_pes: u64) -> SvResult<()> {
    if n_pes == 0 || !n_pes.is_power_of_two() {
        return Err(SvError::InvalidConfig(format!(
            "PE count must be a nonzero power of two, got {n_pes}"
        )));
    }
    if n_qubits >= 64 || n_pes > (1u64 << n_qubits) {
        return Err(SvError::InvalidConfig(format!(
            "{n_pes} PEs cannot partition a {n_qubits}-qubit state"
        )));
    }
    Ok(())
}

/// Check a plan with the default pair budget.
///
/// # Errors
/// [`SvError::InvalidConfig`] on a PE count that is zero, not a power of
/// two, or larger than the state dimension.
pub fn check_plan(plan: &CommPlan, n_pes: u64) -> SvResult<AnalysisReport> {
    check_plan_with_budget(plan, n_pes, DEFAULT_PAIR_BUDGET)
}

/// Check a plan, bounding the symbolic work to `budget` block pairs; an
/// epoch that exhausts the budget is reported [`Verdict::Unknown`] instead
/// of grinding on.
///
/// # Errors
/// [`SvError::InvalidConfig`] on an invalid PE count (see [`check_plan`]).
pub fn check_plan_with_budget(
    plan: &CommPlan,
    n_pes: u64,
    budget: u64,
) -> SvResult<AnalysisReport> {
    check_pes(plan.n_qubits, n_pes)?;
    let mut pairs_spent = 0u64;
    let mut epochs = Vec::with_capacity(plan.epochs.len());
    let mut conflicts = Vec::new();
    for (ei, ep) in plan.epochs.iter().enumerate() {
        let before = pairs_spent;
        let verdict = match ep.kind {
            // Collapse epochs only write each PE's own partition; the
            // probability reduction synchronizes internally.
            EpochKind::Collapse => Verdict::ProvenSafe,
            // Exchange epochs are safe by the pairing construction: every
            // word of a pair has exactly one accessor per epoch (the PE of
            // the pair `pe ^ (1 << pe_bit)` whose half of the swap holds
            // it). See `EpochKind::Exchange`.
            EpochKind::Exchange => Verdict::ProvenSafe,
            EpochKind::Kernel if ep.gates.len() <= 1 => {
                // Safe by injectivity of (item, pattern) -> index.
                Verdict::ProvenSafe
            }
            EpochKind::Kernel => match confined(plan, &ep.gates, n_pes, &mut pairs_spent, budget) {
                Some(true) => Verdict::ProvenSafe,
                None => Verdict::Unknown,
                Some(false) => {
                    let mut v = Verdict::ProvenSafe;
                    let mut epoch_conflicts = 0usize;
                    'pairs: for (i, &ga) in ep.gates.iter().enumerate() {
                        for &gb in &ep.gates[i + 1..] {
                            let pv = check_gate_pair(
                                plan,
                                ei,
                                ga,
                                gb,
                                n_pes,
                                &mut pairs_spent,
                                budget,
                                &mut conflicts,
                                &mut epoch_conflicts,
                            );
                            v = v.max(pv);
                            if pv == Verdict::Unknown {
                                break 'pairs;
                            }
                        }
                    }
                    v
                }
            },
        };
        epochs.push(EpochSummary {
            epoch: ei,
            kind: ep.kind,
            n_gates: ep.gates.len(),
            verdict,
            pairs_checked: pairs_spent - before,
        });
    }
    Ok(AnalysisReport {
        n_qubits: plan.n_qubits,
        n_pes,
        epochs,
        conflicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CommPlan;
    use svsim_core::{CompiledPlan, SimConfig};
    use svsim_ir::{Circuit, GateKind};

    fn plan_of(n: u32, gates: &[(GateKind, &[u32], &[f64])]) -> CommPlan {
        let mut c = Circuit::new(n);
        for (k, q, p) in gates {
            c.apply(*k, q, p).unwrap();
        }
        CommPlan::from_plan(&CompiledPlan::compile(&c, n, &SimConfig::single_device()))
    }

    /// Membership oracle: does `(gate, pe)` touch `idx`? Walks the PE's
    /// items directly — fine at test sizes, never used by the checker.
    fn touches(plan: &CommPlan, gi: usize, n_pes: u64, pe: u64, idx: u64) -> bool {
        let cg = &plan.gates[gi].cg;
        let (pats, _) = kernel_access_patterns(cg);
        worker_range(cg.args.work, n_pes, pe).any(|i| {
            let base = insert_zero_bits(i, cg.args.sorted());
            pats.iter().any(|&p| base | p == idx)
        })
    }

    #[test]
    fn unmerged_plans_are_safe_in_constant_time() {
        let plan = plan_of(
            20,
            &[
                (GateKind::H, &[19], &[]),
                (GateKind::CX, &[0, 19], &[]),
                (GateKind::RZZ, &[10, 19], &[0.3]),
            ],
        );
        let rep = check_plan(&plan, 8).unwrap();
        assert!(rep.is_proven_safe());
        assert!(rep.epochs.iter().all(|e| e.pairs_checked == 0));
    }

    #[test]
    fn merged_overlapping_hadamards_conflict_with_exact_attribution() {
        // H(0);H(3) at n=4, 2 PEs: H(3) makes PE1 write into PE0's half
        // while PE0's H(0) is writing it — the worked example of the docs.
        let mut plan = plan_of(4, &[(GateKind::H, &[0], &[]), (GateKind::H, &[3], &[])]);
        plan.merge_epochs(0).unwrap();
        let rep = check_plan(&plan, 2).unwrap();
        assert_eq!(rep.verdict(), Verdict::Conflicting);
        let c = &rep.conflicts[0];
        assert_eq!(c.epoch, 0);
        assert_eq!((c.gate_a, c.gate_b), (0, 1));
        assert_eq!((c.source_op_a, c.source_op_b), (0, 1));
        assert_eq!(c.qubits_a, vec![0]);
        assert_eq!(c.qubits_b, vec![3]);
        assert_ne!(c.pe_a, c.pe_b);
        // The witness must be real: both PEs actually touch it.
        assert!(touches(&plan, c.gate_a, 2, c.pe_a, c.witness_index));
        assert!(touches(&plan, c.gate_b, 2, c.pe_b, c.witness_index));
    }

    #[test]
    fn merged_low_qubit_gates_stay_provably_safe() {
        // H(0);H(1) at n=6, 2 PEs: both all-local, the merged epoch is
        // genuinely fine and the checker must prove it (not just give up).
        let mut plan = plan_of(6, &[(GateKind::H, &[0], &[]), (GateKind::H, &[1], &[])]);
        plan.merge_epochs(0).unwrap();
        let rep = check_plan(&plan, 2).unwrap();
        assert!(rep.is_proven_safe());
        assert!(rep.epochs[0].pairs_checked > 0, "actually compared blocks");
    }

    #[test]
    fn identical_gates_merged_do_not_self_conflict() {
        let mut plan = plan_of(6, &[(GateKind::H, &[5], &[]), (GateKind::H, &[5], &[])]);
        plan.merge_epochs(0).unwrap();
        // Both gates make the same remote accesses, but item-for-item from
        // the same owning PE — no *cross-PE* overlap exists.
        let rep = check_plan(&plan, 4).unwrap();
        assert!(rep.is_proven_safe());
    }

    #[test]
    fn tiny_work_gates_are_checked_by_exact_enumeration() {
        // C4X has work=2 < 4 PEs; merged with H(0) it collides: PE1's C4X
        // item writes amplitude 0b001111 inside PE0's partition while PE0's
        // H(0) writes it too.
        let mut plan = plan_of(
            6,
            &[
                (GateKind::C4X, &[0, 1, 2, 3, 4], &[]),
                (GateKind::H, &[0], &[]),
            ],
        );
        plan.merge_epochs(0).unwrap();
        let rep = check_plan(&plan, 4).unwrap();
        assert_eq!(rep.verdict(), Verdict::Conflicting);
        let c = rep
            .conflicts
            .iter()
            .find(|c| c.witness_index == 0b00_1111)
            .expect("the hand-computed witness");
        assert!(touches(&plan, c.gate_a, 4, c.pe_a, c.witness_index));
        assert!(touches(&plan, c.gate_b, 4, c.pe_b, c.witness_index));
    }

    #[test]
    fn exhausted_budget_reports_unknown_not_wrong() {
        let mut plan = plan_of(6, &[(GateKind::H, &[0], &[]), (GateKind::H, &[1], &[])]);
        plan.merge_epochs(0).unwrap();
        let rep = check_plan_with_budget(&plan, 2, 1).unwrap();
        assert_eq!(rep.verdict(), Verdict::Unknown);
        assert_eq!(rep.count(Verdict::Unknown), 1);
    }

    #[test]
    fn invalid_pe_counts_are_rejected() {
        let plan = plan_of(3, &[(GateKind::H, &[0], &[])]);
        assert!(check_plan(&plan, 0).is_err());
        assert!(check_plan(&plan, 3).is_err());
        assert!(check_plan(&plan, 16).is_err(), "more PEs than amplitudes");
    }

    #[test]
    fn conflict_display_names_everything_needed_to_fix_the_schedule() {
        let mut plan = plan_of(4, &[(GateKind::H, &[0], &[]), (GateKind::H, &[3], &[])]);
        plan.merge_epochs(0).unwrap();
        let rep = check_plan(&plan, 2).unwrap();
        let msg = rep.conflicts[0].to_string();
        for needle in [
            "epoch 0",
            "h (H kernel)",
            "q[0]",
            "q[3]",
            "PE",
            "write/write",
        ] {
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
        // Gates that share a body are told apart by name.
        let mut plan = plan_of(
            4,
            &[(GateKind::SWAP, &[0, 3], &[]), (GateKind::CX, &[0, 1], &[])],
        );
        plan.merge_epochs(0).unwrap();
        let msg = check_plan(&plan, 2).unwrap().conflicts[0].to_string();
        assert!(
            msg.contains("swap (X kernel) on q[0, 3] (gate #0, op #0)"),
            "{msg}"
        );
        assert!(
            msg.contains("cx (X kernel) on q[0, 1] (gate #1, op #1)"),
            "{msg}"
        );
    }
}
