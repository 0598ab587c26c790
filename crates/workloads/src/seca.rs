//! `seca`: Shor's error-correction code applied to teleportation
//! (the Table 4 `seca_n11` routine).
//!
//! Structure: a payload state is encoded into the 9-qubit Shor code, a
//! correctable error is injected, the code is decoded (majority-corrected),
//! and the recovered payload is teleported onto a fresh qubit through a
//! Bell pair with coherent (CX/CZ) corrections — 9 + 2 = 11 qubits.

use svsim_ir::{Circuit, GateKind};
use svsim_types::SvResult;

/// Encode qubit 0 into the Shor 9-qubit code over qubits `0..9`.
///
/// # Errors
/// Width errors.
pub fn append_shor_encode(c: &mut Circuit) -> SvResult<()> {
    // Phase-flip layer: qubit 0 -> blocks {0,3,6}.
    c.apply(GateKind::CX, &[0, 3], &[])?;
    c.apply(GateKind::CX, &[0, 6], &[])?;
    for b in [0u32, 3, 6] {
        c.apply(GateKind::H, &[b], &[])?;
        // Bit-flip layer inside each block.
        c.apply(GateKind::CX, &[b, b + 1], &[])?;
        c.apply(GateKind::CX, &[b, b + 2], &[])?;
    }
    Ok(())
}

/// Decode the Shor code (inverse of encode with majority-vote correction
/// folded in as Toffoli gates).
///
/// # Errors
/// Width errors.
pub fn append_shor_decode(c: &mut Circuit) -> SvResult<()> {
    for b in [0u32, 3, 6] {
        c.apply(GateKind::CX, &[b, b + 1], &[])?;
        c.apply(GateKind::CX, &[b, b + 2], &[])?;
        // Majority correction within the block.
        c.apply(GateKind::CCX, &[b + 1, b + 2, b], &[])?;
        c.apply(GateKind::H, &[b], &[])?;
    }
    c.apply(GateKind::CX, &[0, 3], &[])?;
    c.apply(GateKind::CX, &[0, 6], &[])?;
    // Majority correction across blocks.
    c.apply(GateKind::CCX, &[3, 6, 0], &[])?;
    Ok(())
}

/// The kind of error injected into the encoded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedError {
    /// No error.
    None,
    /// Bit flip on a code qubit.
    X(u32),
    /// Phase flip on a code qubit.
    Z(u32),
    /// Both.
    Y(u32),
}

/// Build the full `seca` routine: encode, inject `error`, decode/correct,
/// then teleport the payload from qubit 0 to qubit 10 with coherent
/// corrections.
///
/// The payload is prepared as `RY(theta)|0>` so the test can verify an
/// arbitrary superposition survives.
///
/// # Errors
/// Width errors.
pub fn seca(theta: f64, error: InjectedError) -> SvResult<Circuit> {
    let mut c = Circuit::with_cbits(11, 2);
    // Payload.
    c.apply(GateKind::RY, &[0], &[theta])?;
    append_shor_encode(&mut c)?;
    match error {
        InjectedError::None => {}
        InjectedError::X(q) => c.apply(GateKind::X, &[q], &[])?,
        InjectedError::Z(q) => c.apply(GateKind::Z, &[q], &[])?,
        InjectedError::Y(q) => c.apply(GateKind::Y, &[q], &[])?,
    }
    append_shor_decode(&mut c)?;
    // Teleport qubit 0 -> qubit 10 via Bell pair (9, 10), with the
    // measurement-free coherent-correction formulation used by deferred-
    // measurement benchmarks.
    c.apply(GateKind::H, &[9], &[])?;
    c.apply(GateKind::CX, &[9, 10], &[])?;
    c.apply(GateKind::CX, &[0, 9], &[])?;
    c.apply(GateKind::H, &[0], &[])?;
    c.apply(GateKind::CX, &[9, 10], &[])?;
    c.apply(GateKind::CZ, &[0, 10], &[])?;
    Ok(c)
}

/// The Table 4 `seca_n11` instance: an equal-superposition payload with a
/// bit-flip error on code qubit 4.
///
/// # Errors
/// Width errors.
pub fn seca_n11() -> SvResult<Circuit> {
    seca(std::f64::consts::FRAC_PI_3, InjectedError::X(4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_core::{measure, SimConfig, Simulator};
    use svsim_ir::PauliString;

    /// After seca, qubit 10 must hold RY(theta)|0>, whatever error was
    /// injected: <Z_10> = cos(theta).
    fn check_recovered(theta: f64, error: InjectedError) {
        let c = seca(theta, error).unwrap();
        let mut sim = Simulator::new(
            11,
            SimConfig {
                seed: 3,
                ..SimConfig::single_device()
            },
        )
        .unwrap();
        sim.run(&c).unwrap();
        let z10 = PauliString::new(&[(svsim_ir::Pauli::Z, 10)]).unwrap();
        let expect = theta.cos();
        let got = sim.expval_pauli(&z10);
        assert!(
            (got - expect).abs() < 1e-9,
            "{error:?}: <Z10> = {got}, expected {expect}"
        );
        // And <X_10> = sin(theta) pins the phase too.
        let x10 = PauliString::new(&[(svsim_ir::Pauli::X, 10)]).unwrap();
        let got_x = sim.expval_pauli(&x10);
        assert!(
            (got_x - theta.sin()).abs() < 1e-9,
            "{error:?}: <X10> = {got_x}, expected {}",
            theta.sin()
        );
    }

    #[test]
    fn no_error_teleports() {
        check_recovered(0.7, InjectedError::None);
    }

    #[test]
    fn corrects_any_single_x_error() {
        for q in 0..9 {
            check_recovered(0.7, InjectedError::X(q));
        }
    }

    #[test]
    fn corrects_any_single_z_error() {
        for q in 0..9 {
            check_recovered(1.1, InjectedError::Z(q));
        }
    }

    #[test]
    fn corrects_y_errors() {
        for q in [0, 4, 8] {
            check_recovered(0.4, InjectedError::Y(q));
        }
    }

    #[test]
    fn footprint_matches_table4() {
        let c = seca_n11().unwrap();
        assert_eq!(c.n_qubits(), 11);
        let mut sim = Simulator::new(11, SimConfig::single_device()).unwrap();
        sim.run(&c).unwrap();
        let p1 = measure::prob_one(sim.state(), 10);
        // RY(pi/3) payload: P(1) = sin^2(pi/6) = 0.25.
        assert!((p1 - 0.25).abs() < 1e-9);
    }
}
