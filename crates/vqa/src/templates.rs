//! Parameterized-circuit templates for the serving engine.
//!
//! The optimizer loops in this crate synthesize a fresh [`svsim_ir::Circuit`] per
//! trial. For engine-served sweeps that is the wrong shape: the structure
//! never changes, only the angles. These builders express the QAOA and QNN
//! ansätze as [`ParamCircuit`] templates so the engine can compile once and
//! patch per trial.

use svsim_core::{ParamCircuit, ParamValue};
use svsim_ir::GateKind;
use svsim_types::SvResult;
use svsim_workloads::qaoa::Graph;

/// QAOA MaxCut ansatz as a template with `2 * p_layers` variational
/// parameters, interleaved per layer as `(gamma_l, mixer_l)`.
///
/// Note `mixer_l` is the *full* `RX` angle — `2 * beta_l` in the usual
/// convention. Use [`qaoa_params`] to interleave `(gammas, betas)` into the
/// template's parameter order; bound that way the template reproduces
/// [`svsim_workloads::qaoa::qaoa_maxcut`] exactly.
///
/// # Errors
/// Width errors from the underlying builder.
pub fn qaoa_template(graph: &Graph, p_layers: usize) -> SvResult<ParamCircuit> {
    let n = graph.n_vertices();
    let mut t = ParamCircuit::new(n);
    for q in 0..n {
        t.push_fixed(GateKind::H, &[q], &[])?;
    }
    for layer in 0..p_layers {
        let gamma = ParamValue::Var(2 * layer);
        let mixer = ParamValue::Var(2 * layer + 1);
        for &(a, b) in graph.edges() {
            t.push(GateKind::RZZ, &[a, b], &[gamma])?;
        }
        for q in 0..n {
            t.push(GateKind::RX, &[q], &[mixer])?;
        }
    }
    Ok(t)
}

/// Interleave `(gammas, betas)` into [`qaoa_template`] parameter order,
/// applying the `2 * beta` mixer-angle convention.
///
/// # Panics
/// If the slices differ in length.
#[must_use]
pub fn qaoa_params(gammas: &[f64], betas: &[f64]) -> Vec<f64> {
    assert_eq!(gammas.len(), betas.len(), "need one beta per gamma");
    gammas
        .iter()
        .zip(betas)
        .flat_map(|(&g, &b)| [g, 2.0 * b])
        .collect()
}

/// The power-grid QNN ansatz as a template over `n_data + 1` qubits
/// (readout last), with features *and* weights variational:
/// parameters `0..n_data` are the encoding angles (`pi * x_i` in the
/// [`svsim_workloads::qnn::qnn_classifier`] convention — the caller applies
/// the `pi` scaling), followed by the
/// [`svsim_workloads::qnn::qnn_n_weights`] trainable weights in layer
/// order. Unlike the one-shot classifier the template has no final
/// measurement: engine sweeps read the readout qubit via an expectation
/// mask instead of collapsing it.
///
/// # Errors
/// Width errors from the underlying builder.
pub fn qnn_template(n_data: u32, layers: u32) -> SvResult<ParamCircuit> {
    assert!(n_data >= 2, "need at least two features");
    let readout = n_data;
    let mut t = ParamCircuit::new(n_data + 1);
    let mut var = 0usize;
    let mut next = || {
        let v = ParamValue::Var(var);
        var += 1;
        v
    };
    for q in 0..n_data {
        t.push(GateKind::RY, &[q], &[next()])?;
    }
    for _ in 0..layers {
        for q in 0..n_data {
            t.push(GateKind::RY, &[q], &[next()])?;
            t.push(GateKind::RZ, &[q], &[next()])?;
        }
        for q in 0..n_data {
            t.push_fixed(GateKind::CX, &[q, (q + 1) % n_data], &[])?;
        }
        for q in 0..n_data {
            t.push(GateKind::CRY, &[q, readout], &[next()])?;
        }
        t.push(GateKind::RY, &[readout], &[next()])?;
    }
    Ok(t)
}

/// Parameter vector for [`qnn_template`]: scaled encodings first, then the
/// weights.
#[must_use]
pub fn qnn_params(features: &[f64], weights: &[f64]) -> Vec<f64> {
    features
        .iter()
        .map(|&x| std::f64::consts::PI * x)
        .chain(weights.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_core::{SimConfig, Simulator};
    use svsim_ir::{Circuit, Op};
    use svsim_types::SvRng;
    use svsim_workloads::qaoa::qaoa_maxcut;
    use svsim_workloads::qnn::{qnn_classifier, qnn_n_weights};

    #[test]
    fn qaoa_template_matches_circuit_builder() {
        let g = Graph::random(7, 0.5, 21);
        let t = qaoa_template(&g, 2).unwrap();
        assert_eq!(t.n_vars(), 4);
        let mut compiled = t.compile().unwrap();
        let mut rng = SvRng::seed_from_u64(9);
        for _ in 0..4 {
            let gammas = [rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)];
            let betas = [rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)];
            let state = compiled.run(&qaoa_params(&gammas, &betas)).unwrap();
            let reference = qaoa_maxcut(&g, &gammas, &betas).unwrap();
            let mut sim = Simulator::new(7, SimConfig::single_device()).unwrap();
            sim.run(&reference).unwrap();
            assert!(
                state.max_diff(sim.state()) < 1e-12,
                "template must match the circuit builder"
            );
        }
    }

    #[test]
    fn qnn_template_matches_classifier_gates() {
        let features = [0.3, 0.7, 0.15];
        let layers = 2;
        let n_w = qnn_n_weights(3, layers);
        let mut rng = SvRng::seed_from_u64(31);
        let weights: Vec<f64> = (0..n_w).map(|_| rng.range_f64(-1.5, 1.5)).collect();

        let t = qnn_template(3, layers).unwrap();
        assert_eq!(t.n_vars(), 3 + n_w);
        let mut compiled = t.compile().unwrap();
        let state = compiled.run(&qnn_params(&features, &weights)).unwrap();

        // Reference: the classifier circuit with its measurement stripped.
        let classifier = qnn_classifier(&features, &weights, layers).unwrap();
        let mut unmeasured = Circuit::new(4);
        for op in classifier.ops() {
            if let Op::Gate(g) = op {
                unmeasured.push_gate(*g).unwrap();
            }
        }
        let mut sim = Simulator::new(4, SimConfig::single_device()).unwrap();
        sim.run(&unmeasured).unwrap();
        assert!(
            state.max_diff(sim.state()) < 1e-12,
            "template must match the classifier ansatz"
        );
    }
}
