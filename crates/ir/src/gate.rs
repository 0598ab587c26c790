//! The SV-Sim gate ISA.
//!
//! [`GateKind`] enumerates the 34 gates of the IBM OpenQASM standard
//! (paper Table 1): 5 *basic* gates natively executed by IBM-Q hardware,
//! 11 *standard* gates defined atomically, and 18 *compound* gates defined
//! by composition. [`Gate`] is the runtime gate object: kind + qubit
//! operands + real parameters, compact enough to sit in the circuit queue
//! that is shipped to the device in one transfer (paper §3.2.2).

use std::fmt;
use svsim_types::{SvError, SvResult};

/// Maximum operand count of any ISA gate (`C4X` uses 5 qubits).
pub const MAX_GATE_QUBITS: usize = 5;
/// Maximum parameter count of any ISA gate (`U3`/`CU3` use 3).
pub const MAX_GATE_PARAMS: usize = 3;

/// Every gate of the SV-Sim ISA (paper Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum GateKind {
    /// 3-parameter 2-pulse single-qubit gate.
    U3,
    /// 2-parameter 1-pulse single-qubit gate.
    U2,
    /// 1-parameter 0-pulse single-qubit phase gate.
    U1,
    /// Controlled-NOT.
    CX,
    /// Idle / identity.
    ID,
    /// Pauli-X bit flip.
    X,
    /// Pauli-Y bit and phase flip.
    Y,
    /// Pauli-Z phase flip.
    Z,
    /// Hadamard.
    H,
    /// sqrt(Z) phase gate.
    S,
    /// Conjugate of sqrt(Z).
    SDG,
    /// sqrt(S) phase gate.
    T,
    /// Conjugate of sqrt(S).
    TDG,
    /// X-axis rotation.
    RX,
    /// Y-axis rotation.
    RY,
    /// Z-axis rotation.
    RZ,
    /// Controlled phase (controlled-Z).
    CZ,
    /// Controlled Y.
    CY,
    /// Swap.
    SWAP,
    /// Controlled H.
    CH,
    /// Toffoli (controlled-controlled-X).
    CCX,
    /// Fredkin (controlled swap).
    CSWAP,
    /// Controlled RX rotation.
    CRX,
    /// Controlled RY rotation.
    CRY,
    /// Controlled RZ rotation.
    CRZ,
    /// Controlled phase rotation.
    CU1,
    /// Controlled U3.
    CU3,
    /// Two-qubit XX rotation.
    RXX,
    /// Two-qubit ZZ rotation.
    RZZ,
    /// Relative-phase Toffoli.
    RCCX,
    /// Relative-phase 3-controlled X.
    RC3X,
    /// 3-controlled X.
    C3X,
    /// 3-controlled sqrt(X).
    C3SQRTX,
    /// 4-controlled X.
    C4X,
}

/// Classification of a gate within the OpenQASM standard (Table 1 layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateClass {
    /// Natively executed by IBM-Q machines (U3, U2, U1, CX, ID).
    Basic,
    /// Defined atomically, lowered to basic gates by hardware assemblers.
    Standard,
    /// Constituted from basic and standard gates.
    Compound,
}

impl GateKind {
    /// All 34 ISA gates, in Table 1 order.
    pub const ALL: [GateKind; 34] = [
        GateKind::U3,
        GateKind::U2,
        GateKind::U1,
        GateKind::CX,
        GateKind::ID,
        GateKind::X,
        GateKind::Y,
        GateKind::Z,
        GateKind::H,
        GateKind::S,
        GateKind::SDG,
        GateKind::T,
        GateKind::TDG,
        GateKind::RX,
        GateKind::RY,
        GateKind::RZ,
        GateKind::CZ,
        GateKind::CY,
        GateKind::SWAP,
        GateKind::CH,
        GateKind::CCX,
        GateKind::CSWAP,
        GateKind::CRX,
        GateKind::CRY,
        GateKind::CRZ,
        GateKind::CU1,
        GateKind::CU3,
        GateKind::RXX,
        GateKind::RZZ,
        GateKind::RCCX,
        GateKind::RC3X,
        GateKind::C3X,
        GateKind::C3SQRTX,
        GateKind::C4X,
    ];

    /// Number of qubit operands.
    #[must_use]
    pub const fn n_qubits(self) -> usize {
        match self {
            GateKind::U3
            | GateKind::U2
            | GateKind::U1
            | GateKind::ID
            | GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::H
            | GateKind::S
            | GateKind::SDG
            | GateKind::T
            | GateKind::TDG
            | GateKind::RX
            | GateKind::RY
            | GateKind::RZ => 1,
            GateKind::CX
            | GateKind::CZ
            | GateKind::CY
            | GateKind::SWAP
            | GateKind::CH
            | GateKind::CRX
            | GateKind::CRY
            | GateKind::CRZ
            | GateKind::CU1
            | GateKind::CU3
            | GateKind::RXX
            | GateKind::RZZ => 2,
            GateKind::CCX | GateKind::CSWAP | GateKind::RCCX => 3,
            GateKind::RC3X | GateKind::C3X | GateKind::C3SQRTX => 4,
            GateKind::C4X => 5,
        }
    }

    /// Number of real parameters.
    #[must_use]
    pub const fn n_params(self) -> usize {
        match self {
            GateKind::U3 | GateKind::CU3 => 3,
            GateKind::U2 => 2,
            GateKind::U1
            | GateKind::RX
            | GateKind::RY
            | GateKind::RZ
            | GateKind::CRX
            | GateKind::CRY
            | GateKind::CRZ
            | GateKind::CU1
            | GateKind::RXX
            | GateKind::RZZ => 1,
            _ => 0,
        }
    }

    /// Table 1 classification.
    #[must_use]
    pub const fn class(self) -> GateClass {
        match self {
            GateKind::U3 | GateKind::U2 | GateKind::U1 | GateKind::CX | GateKind::ID => {
                GateClass::Basic
            }
            GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::H
            | GateKind::S
            | GateKind::SDG
            | GateKind::T
            | GateKind::TDG
            | GateKind::RX
            | GateKind::RY
            | GateKind::RZ => GateClass::Standard,
            _ => GateClass::Compound,
        }
    }

    /// OpenQASM mnemonic (lowercase).
    #[must_use]
    pub const fn mnemonic(self) -> &'static str {
        match self {
            GateKind::U3 => "u3",
            GateKind::U2 => "u2",
            GateKind::U1 => "u1",
            GateKind::CX => "cx",
            GateKind::ID => "id",
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::SDG => "sdg",
            GateKind::T => "t",
            GateKind::TDG => "tdg",
            GateKind::RX => "rx",
            GateKind::RY => "ry",
            GateKind::RZ => "rz",
            GateKind::CZ => "cz",
            GateKind::CY => "cy",
            GateKind::SWAP => "swap",
            GateKind::CH => "ch",
            GateKind::CCX => "ccx",
            GateKind::CSWAP => "cswap",
            GateKind::CRX => "crx",
            GateKind::CRY => "cry",
            GateKind::CRZ => "crz",
            GateKind::CU1 => "cu1",
            GateKind::CU3 => "cu3",
            GateKind::RXX => "rxx",
            GateKind::RZZ => "rzz",
            GateKind::RCCX => "rccx",
            GateKind::RC3X => "rc3x",
            GateKind::C3X => "c3x",
            GateKind::C3SQRTX => "c3sqrtx",
            GateKind::C4X => "c4x",
        }
    }

    /// Look a gate up by OpenQASM mnemonic.
    #[must_use]
    pub fn from_mnemonic(name: &str) -> Option<Self> {
        GateKind::ALL.iter().copied().find(|k| k.mnemonic() == name)
    }

    /// True if this is a diagonal gate in the computational basis — diagonal
    /// gates never mix amplitudes, which the specialized kernels exploit.
    #[must_use]
    pub const fn is_diagonal(self) -> bool {
        matches!(
            self,
            GateKind::ID
                | GateKind::Z
                | GateKind::S
                | GateKind::SDG
                | GateKind::T
                | GateKind::TDG
                | GateKind::U1
                | GateKind::RZ
                | GateKind::CZ
                | GateKind::CRZ
                | GateKind::CU1
                | GateKind::RZZ
        )
    }

    /// True for the entangling two-or-more-qubit gates counted in the "CX"
    /// column of the paper's Table 4 once compounds are lowered.
    #[must_use]
    pub const fn is_entangling(self) -> bool {
        self.n_qubits() >= 2
    }

    /// Whether `params` can be angles of this gate: every one finite. An
    /// infinite or NaN angle would turn every amplitude it touches into NaN.
    ///
    /// # Errors
    /// [`SvError::Numeric`] naming the gate, the parameter and its value.
    pub fn check_params(self, params: &[f64]) -> SvResult<()> {
        match params.iter().position(|p| !p.is_finite()) {
            Some(i) => Err(SvError::Numeric(format!(
                "gate {self}: parameter {i} is {}, not a finite angle",
                params[i]
            ))),
            None => Ok(()),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A gate instance: kind, qubit operands and parameters.
///
/// Kept at a fixed small size (no heap) so a circuit is a flat contiguous
/// queue, mirroring the paper's device-resident circuit buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    kind: GateKind,
    qubits: [u32; MAX_GATE_QUBITS],
    params: [f64; MAX_GATE_PARAMS],
    n_qubits: u8,
    n_params: u8,
}

impl Gate {
    /// Build a gate, validating arity, operand distinctness and parameters.
    ///
    /// # Errors
    /// [`SvError::Arity`] on operand/parameter count mismatch,
    /// [`SvError::DuplicateQubit`] if a qubit repeats, [`SvError::Numeric`]
    /// on a parameter that is not finite ([`GateKind::check_params`]).
    pub fn new(kind: GateKind, qubits: &[u32], params: &[f64]) -> SvResult<Self> {
        if qubits.len() != kind.n_qubits() {
            return Err(SvError::Arity {
                gate: kind.mnemonic().to_string(),
                expected: kind.n_qubits(),
                got: qubits.len(),
            });
        }
        if params.len() != kind.n_params() {
            return Err(SvError::Arity {
                gate: format!("{}(params)", kind.mnemonic()),
                expected: kind.n_params(),
                got: params.len(),
            });
        }
        kind.check_params(params)?;
        for (i, &q) in qubits.iter().enumerate() {
            if qubits[..i].contains(&q) {
                return Err(SvError::DuplicateQubit {
                    qubit: u64::from(q),
                });
            }
        }
        let mut qs = [0u32; MAX_GATE_QUBITS];
        qs[..qubits.len()].copy_from_slice(qubits);
        let mut ps = [0f64; MAX_GATE_PARAMS];
        ps[..params.len()].copy_from_slice(params);
        Ok(Self {
            kind,
            qubits: qs,
            params: ps,
            n_qubits: qubits.len() as u8,
            n_params: params.len() as u8,
        })
    }

    /// Gate kind.
    #[inline]
    #[must_use]
    pub const fn kind(&self) -> GateKind {
        self.kind
    }

    /// Qubit operands. For controlled gates, controls come first and the
    /// target is last (OpenQASM convention).
    #[inline]
    #[must_use]
    pub fn qubits(&self) -> &[u32] {
        &self.qubits[..self.n_qubits as usize]
    }

    /// Real parameters.
    #[inline]
    #[must_use]
    pub fn params(&self) -> &[f64] {
        &self.params[..self.n_params as usize]
    }

    /// The target qubit (last operand).
    #[inline]
    #[must_use]
    pub fn target(&self) -> u32 {
        self.qubits[self.n_qubits as usize - 1]
    }

    /// Control qubits (all but the last operand) for controlled gates; for
    /// non-controlled multi-qubit gates this is a structural prefix only.
    #[inline]
    #[must_use]
    pub fn controls(&self) -> &[u32] {
        &self.qubits[..self.n_qubits as usize - 1]
    }

    /// Highest qubit index used.
    #[must_use]
    pub fn max_qubit(&self) -> u32 {
        *self.qubits().iter().max().expect("gates have >= 1 operand")
    }

    /// Rewrite operands through `f` (used when inlining circuits at offsets).
    #[must_use]
    pub fn map_qubits(mut self, f: impl Fn(u32) -> u32) -> Self {
        for q in &mut self.qubits[..self.n_qubits as usize] {
            *q = f(*q);
        }
        self
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind.mnemonic())?;
        if !self.params().is_empty() {
            write!(f, "(")?;
            for (i, p) in self.params().iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{p}")?;
            }
            write!(f, ")")?;
        }
        for (i, q) in self.qubits().iter().enumerate() {
            write!(f, "{}q[{q}]", if i == 0 { " " } else { ", " })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_34_gates() {
        assert_eq!(GateKind::ALL.len(), 34);
        // 5 basic + 11 standard + 18 compound, per the paper.
        let basic = GateKind::ALL
            .iter()
            .filter(|k| k.class() == GateClass::Basic)
            .count();
        let standard = GateKind::ALL
            .iter()
            .filter(|k| k.class() == GateClass::Standard)
            .count();
        let compound = GateKind::ALL
            .iter()
            .filter(|k| k.class() == GateClass::Compound)
            .count();
        assert_eq!((basic, standard, compound), (5, 11, 18));
    }

    #[test]
    fn mnemonic_roundtrip() {
        for k in GateKind::ALL {
            assert_eq!(GateKind::from_mnemonic(k.mnemonic()), Some(k));
        }
        assert_eq!(GateKind::from_mnemonic("nope"), None);
    }

    #[test]
    fn arity_validation() {
        assert!(Gate::new(GateKind::H, &[0], &[]).is_ok());
        assert!(matches!(
            Gate::new(GateKind::H, &[0, 1], &[]),
            Err(SvError::Arity { .. })
        ));
        assert!(matches!(
            Gate::new(GateKind::RX, &[0], &[]),
            Err(SvError::Arity { .. })
        ));
        assert!(matches!(
            Gate::new(GateKind::CX, &[2, 2], &[]),
            Err(SvError::DuplicateQubit { qubit: 2 })
        ));
    }

    #[test]
    fn non_finite_parameters_are_refused_naming_the_gate() {
        for (kind, params, at) in [
            (GateKind::RZ, vec![f64::NAN], 0),
            (GateKind::RZ, vec![f64::INFINITY], 0),
            (GateKind::U3, vec![0.1, 0.2, f64::NEG_INFINITY], 2),
            (GateKind::CRX, vec![f64::NAN], 0),
        ] {
            let err = Gate::new(kind, &[0, 1][..kind.n_qubits()], &params).unwrap_err();
            let SvError::Numeric(msg) = &err else {
                panic!("{kind}: {err:?}")
            };
            assert!(
                msg.starts_with(&format!("gate {kind}: parameter {at} is ")),
                "{msg}"
            );
        }
        // Large finite angles are angles.
        assert!(Gate::new(GateKind::RZ, &[0], &[1e300]).is_ok());
        let mut c = crate::Circuit::new(1);
        assert!(c.apply(GateKind::RY, &[0], &[f64::NAN]).is_err());
        assert!(c.ops().is_empty());
    }

    #[test]
    fn operand_roles() {
        let g = Gate::new(GateKind::CCX, &[4, 2, 7], &[]).unwrap();
        assert_eq!(g.controls(), &[4, 2]);
        assert_eq!(g.target(), 7);
        assert_eq!(g.max_qubit(), 7);
    }

    #[test]
    fn gate_is_small_and_copy() {
        // The circuit queue stays flat; keep the object well under a cache line pair.
        assert!(std::mem::size_of::<Gate>() <= 64);
    }

    #[test]
    fn display_format() {
        let g = Gate::new(GateKind::CRZ, &[0, 3], &[1.5]).unwrap();
        assert_eq!(g.to_string(), "crz(1.5) q[0], q[3]");
    }

    #[test]
    fn diagonal_classification() {
        assert!(GateKind::RZ.is_diagonal());
        assert!(GateKind::CZ.is_diagonal());
        assert!(GateKind::RZZ.is_diagonal());
        assert!(!GateKind::H.is_diagonal());
        assert!(!GateKind::CX.is_diagonal());
    }

    #[test]
    fn map_qubits_offsets() {
        let g = Gate::new(GateKind::CX, &[0, 1], &[])
            .unwrap()
            .map_qubits(|q| q + 5);
        assert_eq!(g.qubits(), &[5, 6]);
    }
}
