//! Batched variational simulation — the paper's stated future work
//! ("further parallelizing the variational optimization loop", §7) built
//! on its own flexibility goal: simulate dynamically generated circuits
//! *without* re-parsing or recompiling per trial.
//!
//! A [`ParamCircuit`] is a circuit template whose rotation angles may be
//! variational parameters. [`CompiledTemplate`] compiles the structure
//! exactly once (kernel resolution, index layout, control masks); each
//! trial then only *patches* the scalar/matrix payloads of the
//! parameterized kernels and re-executes the preloaded queue. For VQA
//! loops that synthesize thousands of near-identical circuits (the QNN use
//! case evaluates 28,641 per epoch), this removes the entire per-trial
//! synthesis cost.

use crate::compile::{compile_gate, CompiledGate};
use crate::dispatch::resolve;
use crate::state::StateVector;
use crate::view::LocalView;
use svsim_ir::{matrices, Circuit, Gate, GateKind};
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
            let params: Vec<f64> = g
                .params
                .iter()
                .map(|p| match p {
                    ParamValue::Fixed(v) => *v,
                    ParamValue::Var(i) => values[*i],
                })
                .collect();
            c.apply(g.kind, &g.qubits, &params)?;
        }
        Ok(c)
    }

    /// Compile the structure once for batched execution.
    ///
    /// # Errors
    /// Propagates compilation errors.
    pub fn compile(&self) -> SvResult<CompiledTemplate> {
        let mut queue: Vec<CompiledGate> = Vec::new();
        let mut patches: Vec<Patch> = Vec::new();
        for g in &self.gates {
            let zeros: Vec<f64> = g
                .params
                .iter()
                .map(|p| match p {
                    ParamValue::Fixed(v) => *v,
                    ParamValue::Var(_) => 0.0,
                })
                .collect();
            let gate = Gate::new(g.kind, &g.qubits, &zeros)?;
            let start = queue.len();
            compile_gate(&gate, self.n_qubits, true, &mut queue);
            let has_var = g.params.iter().any(|p| matches!(p, ParamValue::Var(_)));
            if has_var {
                debug_assert_eq!(
                    queue.len(),
                    start + 1,
                    "parameterized gates compile to one kernel"
                );
                patches.push(Patch {
                    gate_idx: start,
                    kind: g.kind,
                    params: g.params.clone(),
                });
            }
        }
        Ok(CompiledTemplate {
            n_qubits: self.n_qubits,
            n_vars: self.n_vars,
            queue,
            patches,
        })
    }
}

/// A pending parameter substitution into the payload of `queue[gate_idx]`.
#[derive(Debug, Clone)]
struct Patch {
    gate_idx: usize,
    kind: GateKind,
    params: Vec<ParamValue>,
}

/// A structure-compiled template: execute many parameter sets without
/// recompiling. `Clone` is cheap relative to compilation and lets a
/// serving engine hand each worker its own patchable copy.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    n_qubits: u32,
    n_vars: usize,
    queue: Vec<CompiledGate>,
    patches: Vec<Patch>,
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

    /// Patch the queue payloads for `values`.
    fn apply_patches(&mut self, values: &[f64]) {
        for patch in &self.patches {
            let resolved: Vec<f64> = patch
                .params
                .iter()
                .map(|p| match p {
                    ParamValue::Fixed(v) => *v,
                    ParamValue::Var(i) => values[*i],
                })
                .collect();
            let args = &mut self.queue[patch.gate_idx].args;
            match patch.kind {
                GateKind::U1 | GateKind::CU1 => {
                    args.s0 = resolved[0].cos();
                    args.s1 = resolved[0].sin();
                }
                GateKind::RZ | GateKind::CRZ | GateKind::RZZ => {
                    args.s0 = (resolved[0] / 2.0).cos();
                    args.s1 = (resolved[0] / 2.0).sin();
                }
                GateKind::RX | GateKind::RY | GateKind::U2 | GateKind::U3 => {
                    let m = matrices::single_qubit(patch.kind, &resolved);
                    args.m[..4].copy_from_slice(m.data());
                }
                GateKind::CRX => {
                    let m = matrices::rx(resolved[0]);
                    args.m[..4].copy_from_slice(m.data());
                }
                GateKind::CRY => {
                    let m = matrices::ry(resolved[0]);
                    args.m[..4].copy_from_slice(m.data());
                }
                GateKind::CU3 => {
                    let m = matrices::u3(resolved[0], resolved[1], resolved[2]);
                    args.m[..4].copy_from_slice(m.data());
                }
                GateKind::RXX => {
                    let m = matrices::rxx(resolved[0]);
                    args.m[..16].copy_from_slice(m.data());
                }
                // Non-parameterized kinds never carry Var values.
                _ => unreachable!("validated at push time"),
            }
        }
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
    /// Parameter-count or width mismatch.
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
        self.apply_patches(values);
        state.reset_zero();
        {
            let (re, im) = state.parts_mut();
            let view = LocalView::new(re, im);
            for cg in &self.queue {
                resolve::<LocalView>(cg.id)(&view, &cg.args, 0..cg.args.work);
            }
        }
        Ok(())
    }

    /// Run a whole batch, returning one state per parameter set.
    ///
    /// # Errors
    /// As [`Self::run`].
    pub fn run_batch(&mut self, param_sets: &[Vec<f64>]) -> SvResult<Vec<StateVector>> {
        param_sets.iter().map(|v| self.run(v)).collect()
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
            assert!(
                fast.max_diff(sim.state()) < 1e-12,
                "template diverged from rebuild"
            );
        }
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
    fn batch_api() {
        let t = template();
        let mut compiled = t.compile().unwrap();
        let sets: Vec<Vec<f64>> = (0..5).map(|i| vec![0.1 * i as f64; t.n_vars()]).collect();
        let states = compiled.run_batch(&sets).unwrap();
        assert_eq!(states.len(), 5);
        for s in &states {
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        }
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
