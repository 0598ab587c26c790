//! Pauli operators, Pauli strings, and exact Pauli-exponential circuits.
//!
//! `exp(-i theta/2 * P)` for a Pauli string `P` is the workhorse of both the
//! QIR `Exp` functor (Table 2) and the UCCSD-VQE ansatz (§5): each term
//! lowers to a basis change, a CX parity ladder, and one `RZ`.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use crate::linalg::Mat;
use svsim_types::{Complex64, SvResult};

/// Single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// 2×2 matrix.
    #[must_use]
    pub fn matrix(self) -> Mat {
        match self {
            Pauli::I => Mat::identity(2),
            Pauli::X => crate::matrices::single_qubit(GateKind::X, &[]),
            Pauli::Y => crate::matrices::single_qubit(GateKind::Y, &[]),
            Pauli::Z => crate::matrices::single_qubit(GateKind::Z, &[]),
        }
    }

    /// Parse from a character (`I`, `X`, `Y`, `Z`, case-insensitive).
    #[must_use]
    pub fn from_char(c: char) -> Option<Self> {
        match c.to_ascii_uppercase() {
            'I' => Some(Pauli::I),
            'X' => Some(Pauli::X),
            'Y' => Some(Pauli::Y),
            'Z' => Some(Pauli::Z),
            _ => None,
        }
    }
}

/// A Pauli string: a list of non-identity Pauli factors on distinct qubits,
/// e.g. `X0 Y2 Z3`.
#[derive(Debug, Clone, PartialEq)]
pub struct PauliString {
    factors: Vec<(Pauli, u32)>,
}

impl PauliString {
    /// Build from factors; identity factors are dropped, qubits must be
    /// distinct.
    ///
    /// # Errors
    /// [`svsim_types::SvError::DuplicateQubit`] on repeated qubits.
    pub fn new(factors: &[(Pauli, u32)]) -> SvResult<Self> {
        let mut kept: Vec<(Pauli, u32)> = Vec::new();
        for &(p, q) in factors {
            if p == Pauli::I {
                continue;
            }
            if kept.iter().any(|&(_, q2)| q2 == q) {
                return Err(svsim_types::SvError::DuplicateQubit {
                    qubit: u64::from(q),
                });
            }
            kept.push((p, q));
        }
        kept.sort_by_key(|&(_, q)| q);
        Ok(Self { factors: kept })
    }

    /// Parse a label like `"XIYZ"`: character `i` acts on qubit `i`.
    ///
    /// # Errors
    /// [`svsim_types::SvError::Undefined`] on bad characters.
    pub fn parse(label: &str) -> SvResult<Self> {
        let mut factors = Vec::new();
        for (i, c) in label.chars().enumerate() {
            let p = Pauli::from_char(c)
                .ok_or_else(|| svsim_types::SvError::Undefined(format!("Pauli '{c}'")))?;
            factors.push((p, i as u32));
        }
        Self::new(&factors)
    }

    /// Factors, sorted by qubit.
    #[must_use]
    pub fn factors(&self) -> &[(Pauli, u32)] {
        &self.factors
    }

    /// True when the string is the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.factors.is_empty()
    }

    /// Weight (number of non-identity factors).
    #[must_use]
    pub fn weight(&self) -> usize {
        self.factors.len()
    }

    /// Dense matrix over `n` qubits (tests only; exponential in `n`).
    #[must_use]
    pub fn matrix(&self, n_qubits: u32) -> Mat {
        let mut m = Mat::identity(1);
        // Build kron from the highest qubit down so that qubit 0 is the
        // least-significant local bit.
        for q in (0..n_qubits).rev() {
            let p = self
                .factors
                .iter()
                .find(|&&(_, fq)| fq == q)
                .map_or(Pauli::I, |&(p, _)| p);
            m = m.kron(&p.matrix());
        }
        m
    }
}

/// Append the exact circuit of `exp(-i theta/2 * P)` to `circuit`.
///
/// For the identity string this is a global phase `e^{-i theta/2}`, which is
/// unobservable and therefore skipped (the controlled variant in
/// [`crate::qir`] does emit it as a controlled phase).
///
/// # Errors
/// Range errors if the string touches qubits outside the circuit.
pub fn append_exp_pauli(circuit: &mut Circuit, theta: f64, string: &PauliString) -> SvResult<()> {
    if string.is_identity() {
        return Ok(());
    }
    let gates = exp_pauli_gates(theta, string);
    for g in gates {
        circuit.push_gate(g)?;
    }
    Ok(())
}

/// The gate sequence of `exp(-i theta/2 * P)`.
#[must_use]
pub fn exp_pauli_gates(theta: f64, string: &PauliString) -> Vec<Gate> {
    let mut out = Vec::new();
    if string.is_identity() {
        return out;
    }
    basis_change(&mut out, string, false);
    parity_ladder(&mut out, string, theta);
    basis_change(&mut out, string, true);
    out
}

/// Basis change into (or out of) the Z frame: `B Z B† = P` per factor with
/// `B = H` for X and `B = S·H` for Y.
fn basis_change(out: &mut Vec<Gate>, string: &PauliString, undo: bool) {
    for &(p, q) in string.factors() {
        match (p, undo) {
            (Pauli::X, _) => {
                out.push(Gate::new(GateKind::H, &[q], &[]).expect("h"));
            }
            // Entering the Z frame applies B† = H·S† (circuit: sdg, h);
            // leaving applies B = S·H (circuit: h, s).
            (Pauli::Y, false) => {
                out.push(Gate::new(GateKind::SDG, &[q], &[]).expect("sdg"));
                out.push(Gate::new(GateKind::H, &[q], &[]).expect("h"));
            }
            (Pauli::Y, true) => {
                out.push(Gate::new(GateKind::H, &[q], &[]).expect("h"));
                out.push(Gate::new(GateKind::S, &[q], &[]).expect("s"));
            }
            _ => {}
        }
    }
}

/// CX parity ladder onto the last factor qubit, RZ, and the unladder.
fn parity_ladder(out: &mut Vec<Gate>, string: &PauliString, theta: f64) {
    let qs: Vec<u32> = string.factors().iter().map(|&(_, q)| q).collect();
    let last = *qs.last().expect("non-identity string");
    for w in qs.windows(2) {
        out.push(Gate::new(GateKind::CX, &[w[0], w[1]], &[]).expect("cx"));
    }
    out.push(Gate::new(GateKind::RZ, &[last], &[theta]).expect("rz"));
    for w in qs.windows(2).rev() {
        out.push(Gate::new(GateKind::CX, &[w[0], w[1]], &[]).expect("cx"));
    }
}

/// Closed form `exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P`
/// (valid because `P^2 = I`). Tests compare circuits against this.
#[must_use]
pub fn exp_pauli_matrix(theta: f64, string: &PauliString, n_qubits: u32) -> Mat {
    let dim = 1usize << n_qubits;
    let p = string.matrix(n_qubits);
    let c = Complex64::real((theta / 2.0).cos());
    let s = Complex64::new(0.0, -(theta / 2.0).sin());
    let mut m = Mat::zeros(dim);
    for i in 0..dim {
        for j in 0..dim {
            let id = if i == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            };
            m[(i, j)] = c * id + s * p[(i, j)];
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::gates_unitary;

    const EPS: f64 = 1e-11;

    #[test]
    fn parse_and_weight() {
        let s = PauliString::parse("XIYZ").unwrap();
        assert_eq!(s.weight(), 3);
        assert_eq!(s.factors(), &[(Pauli::X, 0), (Pauli::Y, 2), (Pauli::Z, 3)]);
        assert!(PauliString::parse("II").unwrap().is_identity());
        assert!(PauliString::parse("XQ").is_err());
    }

    #[test]
    fn duplicate_qubit_rejected() {
        assert!(PauliString::new(&[(Pauli::X, 1), (Pauli::Z, 1)]).is_err());
        // Identity factors never clash.
        assert!(PauliString::new(&[(Pauli::I, 1), (Pauli::Z, 1)]).is_ok());
    }

    #[test]
    fn string_matrix_kron_order() {
        // Z on qubit 0 of 2: diag(1,-1,1,-1) (qubit 0 = low bit).
        let s = PauliString::parse("ZI").unwrap();
        let m = s.matrix(2);
        assert_eq!(m[(0, 0)], Complex64::ONE);
        assert_eq!(m[(1, 1)], -Complex64::ONE);
        assert_eq!(m[(2, 2)], Complex64::ONE);
        assert_eq!(m[(3, 3)], -Complex64::ONE);
    }

    #[test]
    fn exp_single_paulis_match_rotations() {
        for (label, kind) in [
            ("X", GateKind::RX),
            ("Y", GateKind::RY),
            ("Z", GateKind::RZ),
        ] {
            let s = PauliString::parse(label).unwrap();
            let gates = exp_pauli_gates(0.83, &s);
            let got = gates_unitary(&gates, 1);
            let rot = gates_unitary(&[Gate::new(kind, &[0], &[0.83]).unwrap()], 1);
            assert!(
                got.approx_eq(&rot, EPS),
                "{label}: diff {}",
                got.max_diff(&rot)
            );
        }
    }

    #[test]
    fn exp_matches_closed_form_multi_qubit() {
        for label in ["ZZ", "XX", "XY", "YZX", "XIZ", "YY"] {
            let s = PauliString::parse(label).unwrap();
            let n = label.len() as u32;
            let theta = 1.37;
            let gates = exp_pauli_gates(theta, &s);
            let got = gates_unitary(&gates, n);
            let expect = exp_pauli_matrix(theta, &s, n);
            assert!(
                got.approx_eq(&expect, EPS),
                "{label}: diff {}",
                got.max_diff(&expect)
            );
        }
    }

    #[test]
    fn exp_zero_angle_is_identity() {
        let s = PauliString::parse("XYZ").unwrap();
        let gates = exp_pauli_gates(0.0, &s);
        let got = gates_unitary(&gates, 3);
        assert!(got.approx_eq(&Mat::identity(8), EPS));
    }

    #[test]
    fn append_into_circuit() {
        let mut c = Circuit::new(4);
        let s = PauliString::parse("XIYZ").unwrap();
        append_exp_pauli(&mut c, 0.5, &s).unwrap();
        assert!(!c.is_empty());
        // Identity string appends nothing.
        let before = c.len();
        append_exp_pauli(&mut c, 0.5, &PauliString::parse("IIII").unwrap()).unwrap();
        assert_eq!(c.len(), before);
    }
}
