//! Batched variational simulation — the paper's stated future work
//! ("further parallelizing the variational optimization loop", §7) built
//! on its own flexibility goal: simulate dynamically generated circuits
//! *without* re-parsing or recompiling per trial.
//!
//! A [`ParamCircuit`] is a circuit template whose rotation angles may be
//! variational parameters. A [`CompiledTemplate`] is that circuit lowered
//! exactly once — by the same `build_segment` every run goes through
//! ([`crate::plan`]) — into a `PlanSegment` plus its *patch sites*: the
//! queue entries of the parameterized kernels. Each trial only rewrites the
//! scalar/matrix payloads at those sites (through the payload writer
//! `compile_gate` itself uses, [`crate::compile`]) and re-runs the segment
//! on the single-device interpreter ([`crate::exec`]) — the paper's
//! device-resident circuit buffer re-executed with new angles. For VQA
//! loops that synthesize thousands of near-identical circuits (the QNN use
//! case evaluates 28,641 per epoch), this removes the entire per-trial
//! synthesis cost.

use crate::compile::write_payload;
use crate::exec::{run_solo, Step};
use crate::plan::{build_segment, preserves_zero, PlanSegment};
use crate::sim::SimConfig;
use crate::state::StateVector;
use std::ops::Range;
use svsim_ir::{Circuit, Gate, GateKind};
use svsim_types::{SvError, SvResult};

/// A gate parameter: fixed at template-build time or bound per trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// A constant angle.
    Fixed(f64),
    /// The `i`-th variational parameter.
    Var(usize),
}

/// One templated gate.
#[derive(Debug, Clone)]
struct ParamGateSpec {
    kind: GateKind,
    qubits: Vec<u32>,
    params: Vec<ParamValue>,
}

impl ParamGateSpec {
    /// The gate's angles with `values` substituted for its variables.
    fn angles(&self, values: &[f64]) -> Vec<f64> {
        self.params
            .iter()
            .map(|p| match p {
                ParamValue::Fixed(v) => *v,
                ParamValue::Var(i) => values[*i],
            })
            .collect()
    }
}

/// A parameterized circuit template (unitary gates only).
#[derive(Debug, Clone, Default)]
pub struct ParamCircuit {
    n_qubits: u32,
    gates: Vec<ParamGateSpec>,
    n_vars: usize,
}

impl ParamCircuit {
    /// Empty template over `n_qubits`.
    #[must_use]
    pub fn new(n_qubits: u32) -> Self {
        Self {
            n_qubits,
            gates: Vec::new(),
            n_vars: 0,
        }
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Number of variational parameters referenced.
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Append a gate. Gates with a `Var` parameter must compile to exactly
    /// one kernel (true for every parameterized ISA gate).
    ///
    /// # Errors
    /// Arity/range errors, or a `Var` on a non-parameterized gate.
    pub fn push(&mut self, kind: GateKind, qubits: &[u32], params: &[ParamValue]) -> SvResult<()> {
        if params.len() != kind.n_params() {
            return Err(SvError::Arity {
                gate: format!("{kind}(params)"),
                expected: kind.n_params(),
                got: params.len(),
            });
        }
        let has_var = params.iter().any(|p| matches!(p, ParamValue::Var(_)));
        if has_var && matches!(kind, GateKind::RCCX | GateKind::RC3X) {
            return Err(SvError::InvalidConfig(format!(
                "{kind} lowers to a sequence and cannot carry variational parameters"
            )));
        }
        // Validate structure eagerly with zero angles.
        let zeros = vec![0.0; params.len()];
        let probe = Gate::new(kind, qubits, &zeros)?;
        if probe.max_qubit() >= self.n_qubits {
            return Err(SvError::QubitOutOfRange {
                qubit: u64::from(probe.max_qubit()),
                n_qubits: u64::from(self.n_qubits),
            });
        }
        for p in params {
            if let ParamValue::Var(i) = p {
                self.n_vars = self.n_vars.max(i + 1);
            }
        }
        self.gates.push(ParamGateSpec {
            kind,
            qubits: qubits.to_vec(),
            params: params.to_vec(),
        });
        Ok(())
    }

    /// Fixed-gate convenience.
    ///
    /// # Errors
    /// As [`Self::push`].
    pub fn push_fixed(&mut self, kind: GateKind, qubits: &[u32], params: &[f64]) -> SvResult<()> {
        let wrapped: Vec<ParamValue> = params.iter().map(|&p| ParamValue::Fixed(p)).collect();
        self.push(kind, qubits, &wrapped)
    }

    /// Materialize a plain circuit at `values` (the reference path that
    /// [`CompiledTemplate`] is tested against).
    ///
    /// # Errors
    /// Parameter-count mismatch.
    pub fn bind(&self, values: &[f64]) -> SvResult<Circuit> {
        if values.len() < self.n_vars {
            return Err(SvError::InvalidConfig(format!(
                "need {} parameters, got {}",
                self.n_vars,
                values.len()
            )));
        }
        let mut c = Circuit::new(self.n_qubits);
        for g in &self.gates {
            c.apply(g.kind, &g.qubits, &g.angles(values))?;
        }
        Ok(c)
    }

    /// Lower the structure once for batched execution: bind placeholder
    /// angles, lower under the plain single-device config
    /// (`TEMPLATE_CONFIG`), and record where each parameterized gate's
    /// kernel landed.
    ///
    /// # Errors
    /// Propagates compilation errors.
    pub fn compile(&self) -> SvResult<CompiledTemplate> {
        let ops = self.bind(&vec![0.0; self.n_vars])?;
        let ops = ops.ops();
        let seg = build_segment(ops, 0, ops.len(), self.n_qubits, &TEMPLATE_CONFIG);
        let mut patches = Vec::new();
        for step in &seg.steps {
            let Step::Gate { op, compiled, .. } = step else {
                unreachable!("a template holds unitary gates only")
            };
            let g = &self.gates[*op];
            if g.params.iter().any(|p| matches!(p, ParamValue::Var(_))) {
                debug_assert_eq!(compiled.len(), 1, "parameterized gates are one kernel");
                patches.push((compiled.start, g.clone()));
            }
        }
        Ok(CompiledTemplate {
            n_qubits: self.n_qubits,
            n_vars: self.n_vars,
            seg,
            patches,
        })
    }
}

/// What a template is lowered and run under: the plain single-device path,
/// where every gate step holds its own kernels in the segment's queue, so a
/// patch site is one kernel's argument block.
const TEMPLATE_CONFIG: SimConfig = SimConfig::single_device();

/// A structure-compiled template — a lowered segment plus its patch sites:
/// execute many parameter sets without recompiling. `Clone` is cheap
/// relative to compilation and lets a serving engine hand each worker its
/// own patchable copy.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    n_qubits: u32,
    n_vars: usize,
    seg: PlanSegment,
    /// Patch sites: the queue index of each parameterized gate's kernel.
    patches: Vec<(usize, ParamGateSpec)>,
}

impl CompiledTemplate {
    /// Number of variational parameters.
    #[must_use]
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Run one trial: patch, execute from `|0...0>`, return the state.
    ///
    /// # Errors
    /// Parameter-count mismatch or width failures.
    pub fn run(&mut self, values: &[f64]) -> SvResult<StateVector> {
        let mut state = StateVector::zero_state(self.n_qubits)?;
        self.run_into(values, &mut state)?;
        Ok(state)
    }

    /// Run one trial into a caller-provided state buffer, which is reset to
    /// `|0...0>` in place first. The allocation-reuse hook for pooled
    /// serving: a batch of trials can cycle one buffer instead of
    /// allocating `2^n` doubles per trial.
    ///
    /// # Errors
    /// Parameter-count or width mismatch, or a value that makes some gate's
    /// angle non-finite (as [`Gate::new`] refuses one).
    pub fn run_into(&mut self, values: &[f64], state: &mut StateVector) -> SvResult<()> {
        if values.len() < self.n_vars {
            return Err(SvError::InvalidConfig(format!(
                "need {} parameters, got {}",
                self.n_vars,
                values.len()
            )));
        }
        if state.n_qubits() != self.n_qubits {
            return Err(SvError::InvalidConfig(format!(
                "template is over {} qubits, buffer has {}",
                self.n_qubits,
                state.n_qubits()
            )));
        }
        // A patched kernel may now write `-0.0` where its placeholder did
        // not, or the other way round: its verdict is decided again, and so
        // is its run's.
        for (at, gate) in &self.patches {
            let angles = gate.angles(values);
            gate.kind.check_params(&angles)?;
            let cg = &mut self.seg.queue[*at];
            write_payload(gate.kind, &angles, &mut cg.args);
            if let Some(keeps) = self.seg.keeps_zero.get_mut(*at) {
                *keeps = preserves_zero(cg);
            }
        }
        let patched = |kernels: &Range<usize>| {
            let first = self.patches.partition_point(|(at, _)| *at < kernels.start);
            self.patches
                .get(first)
                .is_some_and(|(at, _)| *at < kernels.end)
        };
        for run in &mut self.seg.runs {
            if patched(&run.kernels) {
                run.decide_zero(&self.seg.keeps_zero);
            }
        }
        state.reset_zero();
        run_solo(state, &self.seg, &TEMPLATE_CONFIG, &[], 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SimConfig, Simulator};
    use svsim_types::SvRng;

    /// A little variational ansatz exercising every patchable gate kind.
    fn template() -> ParamCircuit {
        let mut t = ParamCircuit::new(4);
        t.push_fixed(GateKind::H, &[0], &[]).unwrap();
        t.push(GateKind::RY, &[0], &[ParamValue::Var(0)]).unwrap();
        t.push(GateKind::RZ, &[1], &[ParamValue::Var(1)]).unwrap();
        t.push_fixed(GateKind::CX, &[0, 1], &[]).unwrap();
        t.push(GateKind::CRY, &[1, 2], &[ParamValue::Var(2)])
            .unwrap();
        t.push(GateKind::CU1, &[2, 3], &[ParamValue::Var(3)])
            .unwrap();
        t.push(GateKind::RZZ, &[0, 3], &[ParamValue::Var(4)])
            .unwrap();
        t.push(GateKind::RXX, &[1, 2], &[ParamValue::Var(5)])
            .unwrap();
        t.push(
            GateKind::U3,
            &[3],
            &[
                ParamValue::Var(6),
                ParamValue::Fixed(0.2),
                ParamValue::Var(7),
            ],
        )
        .unwrap();
        t
    }

    #[test]
    fn template_matches_naive_rebuild() {
        let t = template();
        let mut compiled = t.compile().unwrap();
        let mut rng = SvRng::seed_from_u64(5);
        for _ in 0..8 {
            let values: Vec<f64> = (0..t.n_vars()).map(|_| rng.range_f64(-3.0, 3.0)).collect();
            let fast = compiled.run(&values).unwrap();
            let circuit = t.bind(&values).unwrap();
            let mut sim = Simulator::new(4, SimConfig::single_device()).unwrap();
            sim.run(&circuit).unwrap();
            assert_eq!(
                fast.re(),
                sim.state().re(),
                "template diverged from rebuild"
            );
            assert_eq!(
                fast.im(),
                sim.state().im(),
                "template diverged from rebuild"
            );
            // The trial just patched in, walked tile-major in tiles of four
            // amplitudes (the shipped width tiles no 4-qubit state).
            let mut tiled = StateVector::zero_state(4).unwrap();
            let mut seg = compiled.seg.clone();
            seg.tile(4, &TEMPLATE_CONFIG, &[2]);
            assert!(!seg.runs.is_empty());
            run_solo(&mut tiled, &seg, &TEMPLATE_CONFIG, &[], 0).unwrap();
            let bits = |s: &StateVector| -> Vec<u64> {
                s.re().iter().chain(s.im()).map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&tiled), bits(&fast), "tile-major template trial");
        }
    }

    #[test]
    fn every_parameterised_kind_patches_bit_identically() {
        // Whatever `GateKind` carries angles must be patchable: the
        // template has to equal a fresh compile of the bound circuit bit
        // for bit (the serving benchmark gates on exactly that), so a new
        // parameterised kind the payload writer misses fails here.
        let kinds: Vec<GateKind> = GateKind::ALL
            .into_iter()
            .filter(|k| k.n_params() > 0)
            .collect();
        assert!(
            kinds.len() >= 13,
            "U1 U2 U3 RX RY RZ CRX CRY CRZ CU1 CU3 RXX RZZ"
        );
        let mut rng = SvRng::seed_from_u64(18);
        for kind in kinds {
            let mut t = ParamCircuit::new(3);
            t.push_fixed(GateKind::H, &[0], &[]).unwrap();
            t.push_fixed(GateKind::CX, &[0, 1], &[]).unwrap();
            // A multi-kernel step ahead of the patch site.
            t.push_fixed(GateKind::RCCX, &[0, 1, 2], &[]).unwrap();
            let qubits: Vec<u32> = (0..kind.n_qubits() as u32).collect();
            let vars: Vec<ParamValue> = (0..kind.n_params()).map(ParamValue::Var).collect();
            t.push(kind, &qubits, &vars).unwrap();
            t.push_fixed(GateKind::H, &[1], &[]).unwrap();
            t.push_fixed(GateKind::CX, &[1, 2], &[]).unwrap();
            let mut compiled = t.compile().unwrap();
            let mut buf = StateVector::zero_state(3).unwrap();
            for _ in 0..8 {
                let values: Vec<f64> = (0..t.n_vars()).map(|_| rng.range_f64(-3.0, 3.0)).collect();
                compiled.run_into(&values, &mut buf).unwrap();
                let mut sim = Simulator::new(3, SimConfig::single_device()).unwrap();
                sim.run(&t.bind(&values).unwrap()).unwrap();
                assert_eq!(buf.re(), sim.state().re(), "{kind} at {values:?}");
                assert_eq!(buf.im(), sim.state().im(), "{kind} at {values:?}");
            }
        }
    }

    #[test]
    fn patched_runs_decide_zero_again() {
        // Two RYs on qubits 0 and 1 form a run in tiles of four amplitudes,
        // lowered with placeholder angles of 0, which keep zero. RY at 4.0
        // writes `-0.0` into the three tiles `|0000>` leaves all `+0.0`, so
        // a trial at 4.0 must walk them and one at 0.3 may skip them again:
        // both bit-identical to the rebuild, which does not tile.
        let mut t = ParamCircuit::new(4);
        t.push(GateKind::RY, &[0], &[ParamValue::Var(0)]).unwrap();
        t.push(GateKind::RY, &[1], &[ParamValue::Var(1)]).unwrap();
        let mut compiled = t.compile().unwrap();
        compiled.seg.tile(4, &TEMPLATE_CONFIG, &[2]);
        assert!(compiled.seg.runs[0].keeps_zero, "lowered at angle 0");
        let bits = |plane: &[f64]| plane.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut negative_zeros = false;
        for (values, keeps) in [([0.3, 0.3], true), ([4.0, 0.3], false), ([0.3, 0.3], true)] {
            let trial = compiled.run(&values).unwrap();
            assert_eq!(compiled.seg.runs[0].keeps_zero, keeps, "{values:?}");
            let mut sim = Simulator::new(4, SimConfig::single_device()).unwrap();
            sim.run(&t.bind(&values).unwrap()).unwrap();
            assert_eq!(bits(trial.re()), bits(sim.state().re()), "{values:?}");
            assert_eq!(bits(trial.im()), bits(sim.state().im()), "{values:?}");
            negative_zeros |= trial.re().iter().any(|x| *x == 0.0 && x.is_sign_negative());
        }
        assert!(negative_zeros, "the trial at 4.0 wrote -0.0");
    }

    #[test]
    fn repeated_runs_do_not_accumulate_state() {
        let t = template();
        let mut compiled = t.compile().unwrap();
        let v = vec![0.3; t.n_vars()];
        let a = compiled.run(&v).unwrap();
        let _ = compiled.run(&vec![1.7; t.n_vars()]).unwrap();
        let b = compiled.run(&v).unwrap();
        assert!(a.max_diff(&b) < 1e-15, "runs must be independent");
    }

    #[test]
    fn run_into_reuses_buffer_exactly() {
        let t = template();
        let mut compiled = t.compile().unwrap();
        let v = vec![0.4; t.n_vars()];
        let fresh = compiled.run(&v).unwrap();
        let mut buf = StateVector::zero_state(4).unwrap();
        // Dirty the buffer with another trial, then rerun the target one.
        compiled.run_into(&vec![1.1; t.n_vars()], &mut buf).unwrap();
        compiled.run_into(&v, &mut buf).unwrap();
        assert_eq!(buf.re(), fresh.re(), "reused buffer must be bit-identical");
        assert_eq!(buf.im(), fresh.im());
        let mut wrong_width = StateVector::zero_state(3).unwrap();
        assert!(compiled.run_into(&v, &mut wrong_width).is_err());
    }

    #[test]
    fn non_finite_values_fail_typed_and_leave_the_template_usable() {
        let t = template();
        let mut compiled = t.compile().unwrap();
        let good = vec![0.3; t.n_vars()];
        let want = compiled.run(&good).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values = good.clone();
            values[2] = bad;
            let err = compiled.run(&values).unwrap_err();
            let what = format!("gate cry: parameter 0 is {bad}");
            assert!(
                matches!(&err, SvError::Numeric(msg) if msg.starts_with(&what)),
                "{err:?}"
            );
            assert_eq!(
                t.bind(&values).unwrap_err(),
                err,
                "the rebuild refuses it too"
            );
        }
        let mut fixed = ParamCircuit::new(1);
        fixed.push_fixed(GateKind::RX, &[0], &[f64::NAN]).unwrap();
        assert!(matches!(fixed.compile(), Err(SvError::Numeric(_))));
        assert_eq!(compiled.run(&good).unwrap().re(), want.re());
    }

    #[test]
    fn validation() {
        let mut t = ParamCircuit::new(2);
        // Var on a parameterless gate is an arity error.
        assert!(t.push(GateKind::H, &[0], &[ParamValue::Var(0)]).is_err());
        // Out-of-range qubit.
        assert!(t.push(GateKind::RZ, &[5], &[ParamValue::Var(0)]).is_err());
        // Missing values at bind time.
        t.push(GateKind::RZ, &[0], &[ParamValue::Var(3)]).unwrap();
        assert_eq!(t.n_vars(), 4);
        assert!(t.bind(&[0.0, 0.0]).is_err());
        let mut compiled = t.compile().unwrap();
        assert!(compiled.run(&[0.0]).is_err());
    }
}
