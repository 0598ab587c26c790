//! Communication plans: the barrier-epoch structure of a compiled circuit.
//!
//! The scale-out executor (`svsim_core::exec`'s step interpreter) interleaves
//! compiled kernels with barriers in a fixed, data-independent order, and the
//! lowering fixes it: a `sync()` follows every compiled kernel the schedule
//! marks with a barrier — every kernel but those of a tile run before its
//! last, so a tile run's kernels share one epoch — measurement/reset
//! collapse is likewise fenced before classical bits update, and a
//! relabeling exchange is one barrier-fenced in-place swap. A [`CommPlan`]
//! is the static image of that schedule — one [`Epoch`] per barrier-to-barrier
//! window, each holding the gate kernels that run inside it — and it is read,
//! never re-derived: [`CommPlan::from_plan`] maps the schedule of the very
//! [`CompiledPlan`] the executor runs ([`CompiledPlan::schedule`]) entry by
//! entry, so whatever the lowering does with fusion, remapping,
//! specialization, checkpoint segmentation or tile runs is what gets proven.
//!
//! The plan is what the static checker ([`crate::check`]) consumes: it never
//! looks at amplitudes, only at which kernels share an epoch.
//! [`CommPlan::merge_epochs`] deliberately removes a barrier so tests (and
//! the CLI's `--merge-epochs` flag) can exercise the checker against a
//! mis-scheduled plan.

use svsim_core::compile::{CompiledGate, KernelId};
use svsim_core::{CompiledPlan, Scheduled};
use svsim_ir::GateKind;
use svsim_types::{SvError, SvResult};

/// Why an epoch exists — which kind of synchronized step it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// The gate kernels between two barriers: one, or a whole tile run (or
    /// more, after a deliberate [`CommPlan::merge_epochs`]).
    Kernel,
    /// Measurement/reset collapse: each PE rescales only its own partition,
    /// and the probability reduction is internally synchronized.
    Collapse,
    /// A relabeling slab exchange (`ShmemView::exchange`): one
    /// barrier-fenced epoch per swap, in which each PE and its unique
    /// partner `pe ^ (1 << (b - shift))` swap their halves of the pair's
    /// runs in place, each reading and writing both partitions.
    /// Conflict-free by construction: every word of the pair has exactly
    /// one accessor per epoch, and pairing is an involution, so no other
    /// PE touches the pair's words.
    Exchange,
}

/// One gate kernel as scheduled: the compiled kernel plus its provenance in
/// the source circuit.
#[derive(Debug, Clone)]
pub struct PlanGate {
    /// Index of the originating op in `Circuit::ops()`.
    pub source_op: usize,
    /// The source gate (`None`: the X a reset applies).
    pub gate: Option<GateKind>,
    /// Which kernel body runs: several gate families share one, told apart
    /// by the footprint in `cg`.
    pub kernel: KernelId,
    /// Involved qubits, ascending.
    pub qubits: Vec<u32>,
    /// True when execution depends on classical bits (an `IfEq` gate, or
    /// the outcome-dependent X that restores `|0>` after a reset).
    pub conditional: bool,
    /// The compiled argument block (work size, footprint, sorted qubits).
    pub cg: CompiledGate,
}

/// One barrier epoch: the plan gates running between two barriers.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// What closes this epoch.
    pub kind: EpochKind,
    /// Indices into [`CommPlan::gates`]; empty for collapse epochs.
    pub gates: Vec<usize>,
}

/// The barrier-epoch schedule of a whole circuit.
#[derive(Debug, Clone)]
pub struct CommPlan {
    /// Circuit width.
    pub n_qubits: u32,
    /// Every scheduled gate kernel, in execution order.
    pub gates: Vec<PlanGate>,
    /// The epochs, in execution order.
    pub epochs: Vec<Epoch>,
}

impl CommPlan {
    /// The epoch structure of `plan`, entry for entry: a kernel epoch closed
    /// at every kernel the schedule marks with a barrier — one per kernel
    /// outside tile runs, one per tile run — one
    /// collapse epoch per measurement or reset, and one
    /// [`EpochKind::Exchange`] epoch (the one barrier of
    /// `ShmemView::exchange`) per relabeling swap. Conditional kernels
    /// are planned as if they execute — the conservative choice for safety
    /// analysis.
    #[must_use]
    pub fn from_plan(plan: &CompiledPlan) -> Self {
        let mut gates = Vec::new();
        let mut epochs = Vec::new();
        let mut epoch = |kind: EpochKind, gates: Vec<usize>| epochs.push(Epoch { kind, gates });
        // The kernels since the last barrier.
        let mut open = Vec::new();
        for item in plan.schedule() {
            match item {
                Scheduled::Exchange { .. } => epoch(EpochKind::Exchange, vec![]),
                Scheduled::Collapse => epoch(EpochKind::Collapse, vec![]),
                Scheduled::Kernel {
                    cg,
                    source_op,
                    gate,
                    conditional,
                    barrier,
                } => {
                    open.push(gates.len());
                    if barrier {
                        epoch(EpochKind::Kernel, std::mem::take(&mut open));
                    }
                    gates.push(PlanGate {
                        source_op,
                        gate,
                        kernel: cg.id,
                        qubits: cg.args.sorted().to_vec(),
                        conditional,
                        cg: cg.clone(),
                    });
                }
            }
        }
        Self {
            n_qubits: plan.n_qubits(),
            gates,
            epochs,
        }
    }

    /// Merge epoch `i + 1` into epoch `i`, modelling a schedule that omits
    /// the barrier between two kernels. Both epochs must be kernel epochs.
    ///
    /// # Errors
    /// If `i + 1` is out of range or either epoch is a collapse epoch.
    pub fn merge_epochs(&mut self, i: usize) -> SvResult<()> {
        if i + 1 >= self.epochs.len() {
            return Err(SvError::InvalidConfig(format!(
                "cannot merge epochs {i} and {}: plan has {} epochs",
                i + 1,
                self.epochs.len()
            )));
        }
        if self.epochs[i].kind != EpochKind::Kernel || self.epochs[i + 1].kind != EpochKind::Kernel
        {
            return Err(SvError::InvalidConfig(format!(
                "cannot merge epochs {i} and {}: only kernel epochs can merge",
                i + 1
            )));
        }
        let moved = self.epochs.remove(i + 1);
        self.epochs[i].gates.extend(moved.gates);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_core::SimConfig;
    use svsim_ir::{Circuit, GateKind};

    fn plan_of(c: &Circuit, config: SimConfig) -> CommPlan {
        CommPlan::from_plan(&CompiledPlan::compile(c, c.n_qubits(), &config))
    }

    #[test]
    fn one_epoch_per_compiled_kernel() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
        c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        let plan = plan_of(&c, SimConfig::single_device());
        assert_eq!(plan.gates.len(), 3);
        assert_eq!(plan.epochs.len(), 3);
        assert!(plan
            .epochs
            .iter()
            .all(|e| e.kind == EpochKind::Kernel && e.gates.len() == 1));
    }

    #[test]
    fn compound_gates_expand_to_their_own_epochs() {
        let mut c = Circuit::new(3);
        c.apply(GateKind::RCCX, &[0, 1, 2], &[]).unwrap();
        let plan = plan_of(&c, SimConfig::single_device());
        assert!(plan.epochs.len() > 5, "RCCX lowers to a kernel sequence");
        assert!(plan.gates.iter().all(|g| g.source_op == 0));
    }

    #[test]
    fn measure_and_reset_produce_collapse_epochs() {
        let mut c = Circuit::with_cbits(2, 1);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.measure(0, 0).unwrap();
        c.reset(1).unwrap();
        let plan = plan_of(&c, SimConfig::single_device());
        let kinds: Vec<EpochKind> = plan.epochs.iter().map(|e| e.kind).collect();
        // H kernel, measure collapse, reset collapse, conditional X kernel.
        assert_eq!(
            kinds,
            vec![
                EpochKind::Kernel,
                EpochKind::Collapse,
                EpochKind::Collapse,
                EpochKind::Kernel
            ]
        );
        assert!(plan.gates[1].conditional, "reset X is outcome-dependent");
    }

    #[test]
    fn remapped_plans_mirror_the_executor_schedule() {
        // n=4 at 4 PEs: boundary = 2, so H(3) triggers one relabeling swap
        // = one Exchange epoch before its kernel epoch, and the kernel is
        // planned at the swapped-in LOW physical position.
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[3], &[]).unwrap();
        let plan = plan_of(
            &c,
            SimConfig {
                remap: true,
                ..SimConfig::scale_out(4)
            },
        );
        let kinds: Vec<EpochKind> = plan.epochs.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EpochKind::Exchange, EpochKind::Kernel]);
        assert!(plan.gates[0].qubits[0] < 2, "gate localized below boundary");
    }

    #[test]
    fn remapped_exchange_epochs_cannot_merge() {
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[3], &[]).unwrap();
        let mut plan = plan_of(
            &c,
            SimConfig {
                remap: true,
                ..SimConfig::scale_out(4)
            },
        );
        assert!(plan.merge_epochs(0).is_err(), "exchange epochs never merge");
    }

    #[test]
    fn merge_validates_its_arguments() {
        let mut c = Circuit::with_cbits(2, 1);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.measure(0, 0).unwrap();
        let mut plan = plan_of(&c, SimConfig::single_device());
        assert!(plan.merge_epochs(5).is_err(), "out of range");
        assert!(plan.merge_epochs(0).is_err(), "kernel + collapse");

        let mut c2 = Circuit::new(2);
        c2.apply(GateKind::H, &[0], &[]).unwrap();
        c2.apply(GateKind::H, &[1], &[]).unwrap();
        let mut plan2 = plan_of(&c2, SimConfig::single_device());
        plan2.merge_epochs(0).unwrap();
        assert_eq!(plan2.epochs.len(), 1);
        assert_eq!(plan2.epochs[0].gates, vec![0, 1]);
    }
}
