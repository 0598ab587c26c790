//! Common foundation types for the SV-Sim reproduction.
//!
//! This crate is dependency-free and holds everything the rest of the
//! workspace agrees on: complex arithmetic ([`Complex64`]), the strided
//! index mathematics of state-vector gate application ([`bits`]), a
//! deterministic RNG ([`rng`]) so every experiment is reproducible, and the
//! shared error type ([`SvError`]).

pub mod bits;
pub mod complex;
pub mod error;
pub mod numeric;
pub mod rng;

pub use complex::Complex64;
pub use error::{PeOp, SvError, SvResult};
pub use rng::SvRng;

/// Index type for amplitudes and qubits, matching the paper's `IdxType`.
pub type IdxType = u64;

/// The most qubits a state vector holds: its `2^63` amplitudes are numbered
/// by an [`IdxType`] with a bit to spare.
pub const MAX_QUBITS: u32 = IdxType::BITS - 1;

/// Scalar type for amplitudes, matching the paper's `ValType`
/// (double-precision floating point).
pub type ValType = f64;

/// `1/sqrt(2)`, the paper's `S2I` constant used by H, T and friends.
pub const S2I: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Bytes needed to store the state vector of `n` qubits
/// (`16 * 2^n`: a real and an imaginary `f64` per amplitude).
#[must_use]
pub fn state_bytes(n_qubits: usize) -> u128 {
    16u128 << n_qubits
}

/// Number of amplitudes of an `n`-qubit register.
#[must_use]
pub fn dim(n_qubits: usize) -> usize {
    1usize << n_qubits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_bytes_matches_paper_formula() {
        // The paper: a 24-qubit state costs 16 * 2^24 = 256 MiB.
        assert_eq!(state_bytes(24), 16 * (1u128 << 24));
        assert_eq!(state_bytes(0), 16);
        // 45 qubits is the Cori record from related work: ~0.5 PB.
        assert_eq!(state_bytes(45), 16u128 << 45);
    }

    #[test]
    fn dim_is_power_of_two() {
        assert_eq!(dim(0), 1);
        assert_eq!(dim(3), 8);
        assert_eq!(dim(15), 32768);
    }
}
