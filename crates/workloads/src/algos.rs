//! Textbook quantum algorithm circuits (the small-structure half of
//! Table 4): Bernstein-Vazirani, QFT, GHZ/cat states, counterfeit-coin,
//! and the compiled QPE instance used for factoring 21.

use svsim_ir::{Circuit, GateKind};
use svsim_types::SvResult;

/// Bernstein-Vazirani over `n` qubits (`n-1` data + 1 oracle ancilla),
/// recovering `secret` (must fit in `n-1` bits).
///
/// # Errors
/// Width errors.
pub fn bv(n: u32, secret: u64) -> SvResult<Circuit> {
    assert!(n >= 2, "bv needs a data register and an ancilla");
    assert!(secret < (1 << (n - 1)), "secret must fit in n-1 bits");
    let mut c = Circuit::with_cbits(n, n - 1);
    let anc = n - 1;
    // Ancilla in |->.
    c.apply(GateKind::X, &[anc], &[])?;
    c.apply(GateKind::H, &[anc], &[])?;
    for q in 0..n - 1 {
        c.apply(GateKind::H, &[q], &[])?;
    }
    // Oracle: f(x) = secret . x
    for q in 0..n - 1 {
        if (secret >> q) & 1 == 1 {
            c.apply(GateKind::CX, &[q, anc], &[])?;
        }
    }
    for q in 0..n - 1 {
        c.apply(GateKind::H, &[q], &[])?;
    }
    for q in 0..n - 1 {
        c.measure(q, q)?;
    }
    Ok(c)
}

/// Quantum Fourier transform on `n` qubits (with the final reversal swaps).
///
/// # Errors
/// Width errors.
pub fn qft(n: u32) -> SvResult<Circuit> {
    let mut c = Circuit::new(n);
    append_qft(&mut c, 0, n, false)?;
    Ok(c)
}

/// Append a QFT (or its inverse) on qubits `[base, base + width)`.
///
/// # Errors
/// Width errors.
pub fn append_qft(c: &mut Circuit, base: u32, width: u32, inverse: bool) -> SvResult<()> {
    if inverse {
        for i in 0..width / 2 {
            c.apply(GateKind::SWAP, &[base + i, base + width - 1 - i], &[])?;
        }
        for i in (0..width).rev() {
            for j in (i + 1..width).rev() {
                let angle = -std::f64::consts::PI / f64::from(1u32 << (j - i));
                c.apply(GateKind::CU1, &[base + j, base + i], &[angle])?;
            }
            c.apply(GateKind::H, &[base + i], &[])?;
        }
    } else {
        for i in 0..width {
            c.apply(GateKind::H, &[base + i], &[])?;
            for j in i + 1..width {
                let angle = std::f64::consts::PI / f64::from(1u32 << (j - i));
                c.apply(GateKind::CU1, &[base + j, base + i], &[angle])?;
            }
        }
        for i in 0..width / 2 {
            c.apply(GateKind::SWAP, &[base + i, base + width - 1 - i], &[])?;
        }
    }
    Ok(())
}

/// GHZ state over `n` qubits: `(|0...0> + |1...1>)/sqrt(2)`.
///
/// # Errors
/// Width errors.
pub fn ghz(n: u32) -> SvResult<Circuit> {
    let mut c = Circuit::new(n);
    c.apply(GateKind::H, &[0], &[])?;
    for q in 0..n - 1 {
        c.apply(GateKind::CX, &[q, q + 1], &[])?;
    }
    Ok(c)
}

/// Cat state: coherent superposition with opposite phase,
/// `(|0...0> - |1...1>)/sqrt(2)`.
///
/// # Errors
/// Width errors.
pub fn cat_state(n: u32) -> SvResult<Circuit> {
    let mut c = Circuit::new(n);
    c.apply(GateKind::X, &[0], &[])?;
    c.apply(GateKind::H, &[0], &[])?; // |-> on the seed qubit
    for q in 0..n - 1 {
        c.apply(GateKind::CX, &[q, q + 1], &[])?;
    }
    Ok(c)
}

/// Counterfeit-coin finding over `n` qubits: `n-1` coins + 1 balance
/// ancilla (the QASMBench `cc` structure: one H and one CX per coin).
///
/// # Errors
/// Width errors.
pub fn counterfeit_coin(n: u32) -> SvResult<Circuit> {
    assert!(n >= 2);
    let mut c = Circuit::with_cbits(n, n);
    let balance = n - 1;
    for q in 0..n - 1 {
        c.apply(GateKind::H, &[q], &[])?;
    }
    for q in 0..n - 1 {
        c.apply(GateKind::CX, &[q, balance], &[])?;
    }
    c.apply(GateKind::H, &[balance], &[])?;
    c.measure(balance, balance)?;
    Ok(c)
}

/// Compiled quantum phase estimation for factoring 21 (order finding of
/// `a = 2 mod 21`, order `r = 6`).
///
/// `n` qubits: `n-1` counting + 1 work qubit. The controlled modular
/// exponentiation is replaced by its eigenphase action on a prepared
/// eigenstate (phase `s/6`), the standard compiled-QPE shortcut also used
/// by the QASMBench `qf21` instance — the counting register statistics are
/// exactly those of full order finding on the chosen eigenstate.
///
/// # Errors
/// Width errors.
pub fn qf21(n: u32) -> SvResult<Circuit> {
    assert!(n >= 3);
    let counting = n - 1;
    let work = n - 1; // index of the work qubit
    let mut c = Circuit::with_cbits(n, counting);
    // Eigenstate |u_1> of the order-6 multiplication operator: phase 1/6.
    c.apply(GateKind::X, &[work], &[])?;
    for q in 0..counting {
        c.apply(GateKind::H, &[q], &[])?;
    }
    // Controlled-U^{2^k}: kick back phase 2*pi*2^k/6. Our QFT uses the
    // MSB-first convention (qubit 0 is the most significant counting bit),
    // so qubit j carries significance k = counting - 1 - j.
    for j in 0..counting {
        let k = counting - 1 - j;
        // 2^k mod 6, computed in modular arithmetic to avoid overflow.
        let pow_mod = {
            let mut v = 1u64;
            for _ in 0..k {
                v = (v * 2) % 6;
            }
            v
        };
        let phase = 2.0 * std::f64::consts::PI * pow_mod as f64 / 6.0;
        c.apply(GateKind::CU1, &[j, work], &[phase])?;
    }
    append_qft(&mut c, 0, counting, true)?;
    // Qubit 0 is the estimate's MSB: store it in the top classical bit.
    for q in 0..counting {
        c.measure(q, counting - 1 - q)?;
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_core::{SimConfig, Simulator};

    #[test]
    fn bv_recovers_secret() {
        for secret in [0b101101u64, 0, 0b11111] {
            let c = bv(7, secret).unwrap();
            let mut sim = Simulator::new(
                7,
                SimConfig {
                    seed: 1,
                    ..SimConfig::single_device()
                },
            )
            .unwrap();
            let summary = sim.run(&c).unwrap();
            assert_eq!(summary.cbits, secret, "BV must output the secret");
        }
    }

    #[test]
    fn bv_rejects_oversized_secret() {
        let r = std::panic::catch_unwind(|| bv(3, 0b100));
        assert!(r.is_err());
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let c = qft(4).unwrap();
        let mut sim = Simulator::new(4, SimConfig::single_device()).unwrap();
        sim.run(&c).unwrap();
        for p in sim.probabilities() {
            assert!((p - 1.0 / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn qft_inverse_roundtrip() {
        let mut c = Circuit::new(5);
        // Some arbitrary state prep.
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::CX, &[0, 3], &[]).unwrap();
        c.apply(GateKind::T, &[3], &[]).unwrap();
        let prep = c.clone();
        append_qft(&mut c, 0, 5, false).unwrap();
        append_qft(&mut c, 0, 5, true).unwrap();
        let mut sim1 = Simulator::new(5, SimConfig::single_device()).unwrap();
        sim1.run(&c).unwrap();
        let mut sim2 = Simulator::new(5, SimConfig::single_device()).unwrap();
        sim2.run(&prep).unwrap();
        assert!(sim1.state().max_diff(sim2.state()) < 1e-10);
    }

    #[test]
    fn ghz_and_cat_probabilities() {
        for (builder, name) in [
            (ghz as fn(u32) -> SvResult<Circuit>, "ghz"),
            (cat_state, "cat"),
        ] {
            let c = builder(6).unwrap();
            let mut sim = Simulator::new(6, SimConfig::single_device()).unwrap();
            sim.run(&c).unwrap();
            let p = sim.probabilities();
            assert!((p[0] - 0.5).abs() < 1e-12, "{name}");
            assert!((p[63] - 0.5).abs() < 1e-12, "{name}");
        }
        // Cat has the opposite relative phase: <GHZ|CAT> = 0.
        let mut a = Simulator::new(6, SimConfig::single_device()).unwrap();
        a.run(&ghz(6).unwrap()).unwrap();
        let mut b = Simulator::new(6, SimConfig::single_device()).unwrap();
        b.run(&cat_state(6).unwrap()).unwrap();
        assert!(a.state().fidelity(b.state()) < 1e-12);
    }

    #[test]
    fn cc_structure_matches_qasmbench() {
        // cc_n12: 22 gates, 11 CX in the paper's Table 4 (+1 final H here).
        let c = counterfeit_coin(12).unwrap();
        let s = c.stats();
        assert_eq!(s.qubits, 12);
        assert_eq!(s.cx, 11);
        assert!(s.gates >= 22);
    }

    #[test]
    fn qf21_peaks_at_multiples_of_one_sixth() {
        // Small instance: 6 counting bits + 1 work qubit.
        let c = qf21(7).unwrap();
        let mut sim = Simulator::new(
            7,
            SimConfig {
                seed: 2,
                ..SimConfig::single_device()
            },
        )
        .unwrap();
        // Strip the measurements so we can look at the counting register
        // distribution directly.
        let mut unmeasured = Circuit::new(7);
        for op in c.ops() {
            if let svsim_ir::Op::Gate(g) = op {
                unmeasured.push_gate(*g).unwrap();
            }
        }
        sim.run(&unmeasured).unwrap();
        let probs = sim.probabilities();
        // Marginal over the work qubit: counting value k has probability
        // concentrated near k ~ 64/6 = 10.67 and its multiples.
        let mut counting = vec![0.0; 64];
        for (idx, p) in probs.iter().enumerate() {
            // Qubit j is bit (5 - j) of the estimate (MSB-first convention).
            let mut k = 0usize;
            for j in 0..6 {
                k |= ((idx >> j) & 1) << (5 - j);
            }
            counting[k] += p;
        }
        let best = (0..64)
            .max_by(|&a, &b| counting[a].total_cmp(&counting[b]))
            .unwrap();
        let nearest_multiple = [0u32, 11, 21, 32, 43, 53, 64]
            .iter()
            .map(|&m| (i64::from(m) - best as i64).unsigned_abs())
            .min()
            .unwrap();
        assert!(
            nearest_multiple <= 1,
            "QPE peak {best} should sit near a multiple of 64/6"
        );
    }
}

/// Continued-fraction expansion: recover the order `r` from a QPE estimate
/// `k / 2^bits ~ s / r` (the classical post-processing step of Shor's
/// algorithm that consumes the qf21 measurement).
///
/// Returns the smallest denominator `r <= max_denominator` whose convergent
/// approximates `k / 2^bits` within `1 / 2^(bits+1)`.
#[must_use]
pub fn order_from_phase(k: u64, bits: u32, max_denominator: u64) -> Option<u64> {
    if k == 0 {
        return None;
    }
    let target = k as f64 / (1u64 << bits) as f64;
    let tolerance = 1.0 / (1u64 << (bits + 1)) as f64;
    // Continued-fraction convergents of k / 2^bits.
    let (mut num, mut den) = (k, 1u64 << bits);
    let (mut h0, mut h1) = (0u64, 1u64); // numerators
    let (mut k0, mut k1) = (1u64, 0u64); // denominators
    while den != 0 {
        let a = num / den;
        let h2 = a.checked_mul(h1).and_then(|x| x.checked_add(h0))?;
        let k2 = a.checked_mul(k1).and_then(|x| x.checked_add(k0))?;
        if k2 > max_denominator {
            break;
        }
        if k2 > 0 && (h2 as f64 / k2 as f64 - target).abs() <= tolerance {
            return Some(k2);
        }
        (h0, h1) = (h1, h2);
        (k0, k1) = (k1, k2);
        (num, den) = (den, num % den);
    }
    None
}

/// Classical completion of Shor's algorithm for N = 21, a = 2: turn an
/// order candidate into a nontrivial factor pair.
#[must_use]
pub fn factors_of_21_from_order(r: u64) -> Option<(u64, u64)> {
    if r == 0 || r % 2 == 1 {
        return None;
    }
    // a^{r/2} mod 21 with a = 2.
    let mut half_power = 1u64;
    for _ in 0..r / 2 {
        half_power = (half_power * 2) % 21;
    }
    if half_power == 20 {
        return None; // a^{r/2} = -1 mod N: trivial
    }
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let f1 = gcd(half_power + 1, 21);
    let f2 = gcd(half_power.wrapping_sub(1).max(1), 21);
    for f in [f1, f2] {
        if f != 1 && f != 21 {
            return Some((f, 21 / f));
        }
    }
    None
}

#[cfg(test)]
mod factor_tests {
    use super::*;
    use svsim_core::{SimConfig, Simulator};

    #[test]
    fn continued_fractions_recover_small_orders() {
        // k/2^10 near s/6 must recover 6.
        assert_eq!(order_from_phase(171, 10, 20), Some(6)); // 171/1024 ~ 1/6
        assert_eq!(order_from_phase(341, 10, 20), Some(3)); // ~ 1/3
        assert_eq!(order_from_phase(512, 10, 20), Some(2)); // = 1/2
        assert_eq!(order_from_phase(0, 10, 20), None);
    }

    #[test]
    fn order_six_factors_twenty_one() {
        assert_eq!(factors_of_21_from_order(6), Some((3, 7)));
        assert_eq!(factors_of_21_from_order(3), None, "odd order is useless");
        assert_eq!(factors_of_21_from_order(0), None);
    }

    #[test]
    fn qf21_end_to_end_factors_21() {
        // Run the full pipeline: QPE circuit, measured estimate, continued
        // fractions, factor extraction — over several shots at least one
        // must yield the factors (s coprime to 6).
        let c = qf21(11).unwrap(); // 10 counting bits + work
        let mut sim = Simulator::new(
            11,
            SimConfig {
                seed: 21,
                ..SimConfig::single_device()
            },
        )
        .unwrap();
        let hist = sim.run_shots(&c, 24).unwrap();
        let mut factored = false;
        for &k in hist.keys() {
            if let Some(r) = order_from_phase(k, 10, 20) {
                // The prepared eigenstate has phase 1/6; accept any r that
                // divides into a working factor pair (r = 6 or a multiple
                // pattern that still factors).
                if factors_of_21_from_order(r) == Some((3, 7)) {
                    factored = true;
                }
            }
        }
        assert!(factored, "no shot factored 21; histogram {hist:?}");
    }
}

/// Deutsch-Jozsa over `n` qubits (`n-1` data + 1 ancilla): decides whether
/// the oracle is constant or balanced in one query.
///
/// `balanced_mask = 0` encodes a constant oracle; otherwise the oracle is
/// the balanced function `f(x) = parity(x & mask)`.
///
/// # Errors
/// Width errors.
pub fn deutsch_jozsa(n: u32, balanced_mask: u64) -> SvResult<Circuit> {
    assert!(n >= 2);
    assert!(balanced_mask < (1 << (n - 1)));
    let anc = n - 1;
    let mut c = Circuit::with_cbits(n, n - 1);
    c.apply(GateKind::X, &[anc], &[])?;
    for q in 0..n {
        c.apply(GateKind::H, &[q], &[])?;
    }
    for q in 0..n - 1 {
        if (balanced_mask >> q) & 1 == 1 {
            c.apply(GateKind::CX, &[q, anc], &[])?;
        }
    }
    for q in 0..n - 1 {
        c.apply(GateKind::H, &[q], &[])?;
    }
    for q in 0..n - 1 {
        c.measure(q, q)?;
    }
    Ok(c)
}

#[cfg(test)]
mod dj_tests {
    use super::*;
    use svsim_core::{SimConfig, Simulator};

    #[test]
    fn constant_oracle_reads_all_zero() {
        let c = deutsch_jozsa(6, 0).unwrap();
        let mut sim = Simulator::new(
            6,
            SimConfig {
                seed: 1,
                ..SimConfig::single_device()
            },
        )
        .unwrap();
        assert_eq!(sim.run(&c).unwrap().cbits, 0);
    }

    #[test]
    fn balanced_oracle_reads_nonzero() {
        for mask in [0b1u64, 0b101, 0b11111] {
            let c = deutsch_jozsa(6, mask).unwrap();
            let mut sim = Simulator::new(
                6,
                SimConfig {
                    seed: 1,
                    ..SimConfig::single_device()
                },
            )
            .unwrap();
            // For the parity oracle, the data register reads exactly `mask`.
            assert_eq!(sim.run(&c).unwrap().cbits, mask);
        }
    }
}
