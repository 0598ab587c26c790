//! Stochastic Pauli noise via quantum trajectories.
//!
//! The paper's motivation (§1) leans on NISQ devices "incorporating high
//! error rate" — validating an algorithm means checking how it degrades
//! under noise. Full density-matrix simulation doubles the qubit count
//! (the authors' DM-Sim is a separate system); the state-vector-friendly
//! alternative implemented here is the standard Monte-Carlo trajectory
//! method: after each gate, each touched qubit suffers an X/Y/Z error with
//! the configured probability, and observables are averaged over
//! trajectories.

use crate::sim::{RunSummary, SimConfig, Simulator};
use svsim_ir::{Circuit, Gate, GateKind, Op};
use svsim_types::{SvResult, SvRng};

/// Depolarizing-style stochastic Pauli noise model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Per-qubit error probability after a 1-qubit gate.
    pub p1: f64,
    /// Per-qubit error probability after a >=2-qubit gate.
    pub p2: f64,
}

impl NoiseModel {
    /// Noise-free model.
    #[must_use]
    pub fn noiseless() -> Self {
        Self { p1: 0.0, p2: 0.0 }
    }

    /// Uniform depolarizing with 2q errors 10x the 1q rate (typical NISQ
    /// calibration shape).
    #[must_use]
    pub fn depolarizing(p1: f64) -> Self {
        Self { p1, p2: 10.0 * p1 }
    }
}

/// Sample one noisy realization of `circuit`: after every gate, insert
/// random X/Y/Z errors on its operands with the model's probabilities.
///
/// # Errors
/// Range errors (never in practice — operands come from a valid circuit).
pub fn sample_noisy_circuit(
    circuit: &Circuit,
    model: &NoiseModel,
    rng: &mut SvRng,
) -> SvResult<Circuit> {
    let mut out = Circuit::with_cbits(circuit.n_qubits(), circuit.n_cbits());
    let inject = |out: &mut Circuit, qubits: &[u32], p: f64, rng: &mut SvRng| -> SvResult<()> {
        for &q in qubits {
            if rng.bernoulli(p) {
                let kind = match rng.range_usize(0, 3) {
                    0 => GateKind::X,
                    1 => GateKind::Y,
                    _ => GateKind::Z,
                };
                out.push_gate(Gate::new(kind, &[q], &[])?)?;
            }
        }
        Ok(())
    };
    for op in circuit.ops() {
        match op {
            Op::Gate(g) => {
                out.push_gate(*g)?;
                let p = if g.kind().n_qubits() == 1 {
                    model.p1
                } else {
                    model.p2
                };
                inject(&mut out, g.qubits(), p, rng)?;
            }
            Op::Measure { qubit, cbit } => out.measure(*qubit, *cbit)?,
            Op::Reset { qubit } => out.reset(*qubit)?,
            Op::Barrier(qs) => out.barrier(qs),
            Op::IfEq {
                creg_lo,
                creg_len,
                value,
                gate,
            } => {
                out.if_eq(*creg_lo, *creg_len, *value, *gate)?;
                let p = if gate.kind().n_qubits() == 1 {
                    model.p1
                } else {
                    model.p2
                };
                inject(&mut out, gate.qubits(), p, rng)?;
            }
        }
    }
    Ok(out)
}

/// Average an observable over `trajectories` noisy realizations.
///
/// `observable` receives the simulator after each trajectory run.
///
/// # Errors
/// Propagates simulation failures.
pub fn trajectory_average(
    circuit: &Circuit,
    model: &NoiseModel,
    config: SimConfig,
    trajectories: usize,
    seed: u64,
    observable: impl Fn(&Simulator) -> f64,
) -> SvResult<f64> {
    let mut rng = SvRng::seed_from_u64(seed);
    let mut acc = 0.0;
    for t in 0..trajectories {
        let noisy = sample_noisy_circuit(circuit, model, &mut rng)?;
        let mut sim = Simulator::new(
            circuit.n_qubits(),
            SimConfig {
                seed: seed ^ t as u64,
                ..config
            },
        )?;
        let _: RunSummary = sim.run(&noisy)?;
        acc += observable(&sim);
    }
    Ok(acc / trajectories as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::PauliString;

    fn ghz(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        for q in 0..n - 1 {
            c.apply(GateKind::CX, &[q, q + 1], &[]).unwrap();
        }
        c
    }

    #[test]
    fn zero_noise_is_exact() {
        let c = ghz(4);
        let zz = PauliString::parse("ZZII").unwrap();
        let avg = trajectory_average(
            &c,
            &NoiseModel::noiseless(),
            SimConfig::single_device(),
            5,
            3,
            |sim| sim.expval_pauli(&zz),
        )
        .unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_degrades_ghz_correlations_monotonically() {
        let c = ghz(4);
        let zz = PauliString::parse("ZZII").unwrap();
        let corr = |p: f64| {
            trajectory_average(
                &c,
                &NoiseModel::depolarizing(p),
                SimConfig::single_device(),
                200,
                17,
                |sim| sim.expval_pauli(&zz),
            )
            .unwrap()
        };
        let clean = corr(0.0);
        let mild = corr(0.01);
        let heavy = corr(0.10);
        assert!((clean - 1.0).abs() < 1e-12);
        assert!(mild < clean && mild > 0.5, "mild noise: {mild}");
        assert!(heavy < mild, "heavy noise must degrade further: {heavy}");
    }

    #[test]
    fn sampled_circuits_grow_by_injected_errors() {
        let c = ghz(6);
        let mut rng = SvRng::seed_from_u64(5);
        let noisy = sample_noisy_circuit(&c, &NoiseModel { p1: 1.0, p2: 1.0 }, &mut rng).unwrap();
        // Every gate injects one error per operand at p = 1.
        let expected = c.stats().gates + c.gates().map(|g| g.qubits().len()).sum::<usize>();
        assert_eq!(noisy.stats().gates, expected);
    }

    #[test]
    fn trajectories_are_seed_deterministic() {
        let c = ghz(3);
        let z = PauliString::parse("ZII").unwrap();
        let run = || {
            trajectory_average(
                &c,
                &NoiseModel::depolarizing(0.05),
                SimConfig::single_device(),
                50,
                7,
                |sim| sim.expval_pauli(&z),
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
