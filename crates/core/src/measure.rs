//! Measurement, collapse, sampling, and expectation values.
//!
//! Projective measurement is the only non-unitary operation the simulator
//! needs. Probability accumulation and collapse are *embarrassingly local*
//! under the natural-order partitioning (they are diagonal), so every
//! walker — the single device, or one PE — sums and collapses its own
//! memory ([`partial_prob_one`], [`collapse`]), and the walkers meet in a
//! single scalar reduction — no amplitude exchange.
//!
//! Probability mass is summed with the canonical pairwise-tree association
//! of [`svsim_types::numeric`]: every backend evaluates nodes of the same
//! perfect binary tree over the amplitude index space, so a walker's
//! partial is exactly one subtree value and the cross-PE combine
//! ([`svsim_types::numeric::pairwise_sum`]) reproduces the single-device
//! sum bit-for-bit at any PE count. A sequential accumulation here would
//! differ in the last ULPs, and the `1/sqrt(p)` collapse rescale would leak
//! that ULP into every amplitude, breaking cross-backend bit-identity.
//!
//! An expectation `<psi|P|psi>` of a Pauli string `P` is one read-only
//! sweep: with `x` the mask of P's X and Y factors, `s` that of its Y and Z
//! factors and `n_y` its number of Y factors, `<P> = sum_j Re(i^n_y
//! conj(psi_j) psi_{j^x}) (-1)^{parity((j^x) & s)}`, summed as 32 fixed
//! chunks in order. A qubit at or above the register width is `|0>`.

use crate::kernels::collapse_pairs;
use crate::state::StateVector;
use crate::view::{LocalView, StateView};
use std::ops::Range;
use svsim_ir::{Pauli, PauliString};
use svsim_types::bits::{bit, masked_parity};
use svsim_types::SvRng;

/// Chunks of [`chunked_sum`], the one association of a diagonal
/// expectation at every state size. Fixed (never derived from the machine),
/// so the floating-point association — and with it every bit of the sum —
/// is the same everywhere.
const SUM_CHUNKS: usize = 32;

/// Sum `f` over `0..len` as [`SUM_CHUNKS`] equal subranges: `f` returns a
/// subrange's partial sum and the partials are added in chunk order.
fn chunked_sum(len: usize, f: impl Fn(Range<usize>) -> f64) -> f64 {
    let chunk = len.div_ceil(SUM_CHUNKS).max(1);
    (0..len.div_ceil(chunk))
        .map(|c| f(c * chunk..len.min((c + 1) * chunk)))
        .sum()
}

/// Value of the canonical probability tree node covering the aligned block
/// `[base + start, base + start + len)` (global indices; `len` and the
/// block alignment are powers of two). `term(off)` yields `|amp|^2` at
/// local offset `off`. Blocks where bit `q` is constant-zero contribute an
/// exact `0.0` and are pruned without touching the amplitudes.
fn prob_tree<F: Fn(usize) -> f64>(term: &F, base: u64, start: usize, len: usize, q: u32) -> f64 {
    debug_assert!(len.is_power_of_two());
    if len as u64 <= 1u64 << q && bit(base + start as u64, q) == 0 {
        return 0.0;
    }
    if len <= 64 {
        // Iterative fold of the same perfect tree (leaf pairs, then their
        // parents, ...) — identical association to the recursion, without
        // the per-leaf call overhead.
        let mut buf = [0.0f64; 64];
        for (k, slot) in buf.iter_mut().take(len).enumerate() {
            *slot = if bit(base + (start + k) as u64, q) == 1 {
                term(start + k)
            } else {
                0.0
            };
        }
        let mut m = len;
        while m > 1 {
            m /= 2;
            for k in 0..m {
                buf[k] = buf[2 * k] + buf[2 * k + 1];
            }
        }
        return buf[0];
    }
    let half = len / 2;
    prob_tree(term, base, start, half, q) + prob_tree(term, base, start + half, half, q)
}

/// Probability that qubit `q` measures 1 (full local state).
///
/// Uses the canonical tree association (see module docs), so the result is
/// bit-identical to the walkers' [`partial_prob_one`]s combined with
/// [`svsim_types::numeric::pairwise_sum`].
#[must_use]
pub fn prob_one(state: &StateVector, q: u32) -> f64 {
    let (re, im) = (state.re(), state.im());
    let term = |i: usize| re[i] * re[i] + im[i] * im[i];
    prob_tree(&term, 0, 0, re.len(), q)
}

/// One walker's partial of the probability that LOGICAL qubit `q` measures
/// 1: the canonical tree node of the aligned logical block
/// `[logical_base, logical_base + own.dim())` that the walker's memory
/// `own` holds — a PE's partition, or all of a single device's state.
///
/// The walk enumerates the block in logical order. Logical offset `o` is
/// local offset `o` in natural order (`low_pos: None`); under a
/// block-preserving layout it is the offset whose bit `low_pos[k]` is bit
/// `k` of `o` (`low_pos[k]`: the physical position of logical qubit `k`,
/// all inside `own`). The partial is therefore the same node of the
/// single-device tree whatever the scramble inside the block, and the
/// walkers' partials combined with [`svsim_types::numeric::pairwise_sum`]
/// equal [`prob_one`] bit for bit.
#[must_use]
pub fn partial_prob_one(
    own: &LocalView<'_>,
    logical_base: u64,
    low_pos: Option<&[u32]>,
    q: u32,
) -> f64 {
    let amp = |off: usize| {
        let (re, im) = own.get(off as u64);
        re * re + im * im
    };
    let len = own.dim() as usize;
    match low_pos {
        None => prob_tree(&amp, logical_base, 0, len, q),
        Some(low_pos) => {
            let term = |o: usize| {
                let mut off = 0;
                for (k, &pos) in low_pos.iter().enumerate() {
                    off |= ((o >> k) & 1) << pos;
                }
                amp(off)
            };
            prob_tree(&term, logical_base, 0, len, q)
        }
    }
}

/// Project PHYSICAL qubit `q` of the walker memory `own`, whose first
/// amplitude has global index `base`, onto `outcome` and rescale what
/// survives by `inv_sqrt_p`. A qubit inside `own` pairs its amplitudes
/// ([`collapse_pairs`]); one above it is constant over `own`, which is
/// kept or cleared whole. Either way no other walker's memory is touched.
pub fn collapse(own: &LocalView<'_>, base: u64, q: u32, outcome: u8, inv_sqrt_p: f64) {
    let dim = own.dim();
    if q < dim.trailing_zeros() {
        collapse_pairs(own, q, outcome, inv_sqrt_p, 0..dim / 2);
    } else if bit(base, q) == u64::from(outcome) {
        for i in 0..dim {
            let (re, im) = own.get(i);
            own.set(i, re * inv_sqrt_p, im * inv_sqrt_p);
        }
    } else {
        for i in 0..dim {
            own.set(i, 0.0, 0.0);
        }
    }
}

/// Sample `shots` basis states from the final distribution (inverse-CDF per
/// shot; the repeated sampling of VQA workloads, §1 of the paper). The
/// probabilities are consumed: they become the cumulative distribution in
/// place, so a sampling pass holds one `2^n` vector, not two.
#[must_use]
pub fn sample_shots(probabilities: Vec<f64>, rng: &mut SvRng, shots: usize) -> Vec<u64> {
    // Cumulative distribution once, binary search per shot.
    let mut cdf = probabilities;
    let mut acc = 0.0;
    for p in &mut cdf {
        acc += *p;
        *p = acc;
    }
    let total = acc.max(f64::MIN_POSITIVE);
    (0..shots)
        .map(|_| {
            let r = rng.next_f64() * total;
            match cdf.binary_search_by(|c| c.partial_cmp(&r).expect("no NaN")) {
                Ok(i) | Err(i) => (i.min(cdf.len() - 1)) as u64,
            }
        })
        .collect()
}

/// Histogram of sampled outcomes.
#[must_use]
pub fn histogram(samples: &[u64]) -> std::collections::BTreeMap<u64, usize> {
    let mut h = std::collections::BTreeMap::new();
    for &s in samples {
        *h.entry(s).or_insert(0) += 1;
    }
    h
}

/// `<Z-mask>` expectation, `sum_j (-1)^{parity(j & mask)} |psi_j|^2`, each
/// term `re*re + im*im`: the module's one sweep with no flip. A mask bit at
/// or above the register width matches no index (a `|0>` qubit, Z = `+1`).
#[must_use]
pub fn expval_z_mask(state: &StateVector, mask: u64) -> f64 {
    pauli_sweep(state, mask, 0, |j| j, |ar, ai, br, bi| ar * br + ai * bi)
}

/// `<P>` for an arbitrary Pauli string in the module's one read-only sweep,
/// which neither copies nor changes the state. A factor on a qubit at or
/// above the register width acts on `|0>`: a Z there is a factor of `+1`,
/// an X or Y there makes the value `0.0`.
#[must_use]
pub fn expval_pauli(state: &StateVector, string: &PauliString) -> f64 {
    let (n, len) = (state.n_qubits(), state.dim());
    let (mut x, mut s, mut n_y) = (0u64, 0u64, 0u32);
    // A string holds no identity factor: X and Y flip, Y and Z sign.
    for &(p, q) in string.factors() {
        if q >= n && p != Pauli::Z {
            return 0.0;
        }
        let bit = if q < n { 1 << q } else { 0 };
        x |= bit * u64::from(p != Pauli::Z);
        s |= bit * u64::from(p != Pauli::X);
        n_y += u32::from(p == Pauli::Y);
    }
    // `Re(i^n_y c)` for `c = conj(psi_j) psi_{j^x}` is `Re(c)`, `-Im(c)`,
    // `-Re(c)` or `Im(c)`; `& (len - 1)` moves no index but bounds it.
    let negate = u32::from(matches!(n_y % 4, 1 | 2));
    let flip = |j: usize| (j ^ x as usize) & (len - 1);
    match (x, n_y % 2) {
        (0, _) => expval_z_mask(state, s),
        (_, 0) => pauli_sweep(state, s, negate, flip, |ar, ai, br, bi| ar * br + ai * bi),
        _ => pauli_sweep(state, s, negate, flip, |ar, ai, br, bi| ar * bi - ai * br),
    }
}

/// The one expectation loop (module docs): the sum of `term(psi_j,
/// psi_k)` with `k = partner(j)`, negated where `parity(k & s) ^ negate` is
/// odd, in the [`chunked_sum`] association. Generic, so each partner and
/// term is compiled into the loop (with `partner(j) = j` the two loads of
/// an amplitude are one).
fn pauli_sweep(
    state: &StateVector,
    s: u64,
    negate: u32,
    partner: impl Fn(usize) -> usize,
    term: impl Fn(f64, f64, f64, f64) -> f64,
) -> f64 {
    let (re, im) = (state.re(), state.im());
    let im = &im[..re.len()];
    chunked_sum(re.len(), |range| {
        let mut e = 0.0;
        for j in range {
            let k = partner(j);
            let t = term(re[j], im[j], re[k], im[k]);
            let odd = masked_parity(k as u64, s) ^ negate == 1;
            e += if odd { -t } else { t };
        }
        e
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_sum_covers_the_range_once() {
        for len in [0usize, 1, 5, 1000, 65_537] {
            let chunked = chunked_sum(len, |r| r.map(|i| i as f64).sum());
            let seq: f64 = (0..len).map(|i| i as f64).sum();
            assert_eq!(chunked, seq, "len {len}");
        }
    }

    #[test]
    fn chunked_sum_is_the_fixed_32_way_association() {
        let term = |i: usize| 1.0 / (i as f64 + 1.0);
        let len = 100_000usize;
        let chunk = len.div_ceil(32);
        let mut by_hand = 0.0;
        for c in 0..32 {
            let mut partial = 0.0;
            for i in c * chunk..len.min((c + 1) * chunk) {
                partial += term(i);
            }
            by_hand += partial;
        }
        let got = chunked_sum(len, |r| r.fold(0.0, |acc, i| acc + term(i)));
        assert_eq!(got.to_bits(), f64::to_bits(by_hand));
    }

    use svsim_types::Complex64;

    fn plus_state() -> StateVector {
        let s2i = svsim_types::S2I;
        let mut s = StateVector::zero_state(1).unwrap();
        s.set_complex(&[Complex64::real(s2i), Complex64::real(s2i)])
            .unwrap();
        s
    }

    #[test]
    fn prob_of_basis_states() {
        let s = StateVector::zero_state(3).unwrap();
        assert_eq!(prob_one(&s, 0), 0.0);
        assert!((prob_one(&plus_state(), 0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn sampling_statistics() {
        let mut rng = SvRng::seed_from_u64(17);
        // 25/75 distribution.
        let probs = vec![0.25, 0.75];
        let samples = sample_shots(probs, &mut rng, 20_000);
        let h = histogram(&samples);
        let f1 = h[&1] as f64 / 20_000.0;
        assert!((f1 - 0.75).abs() < 0.02, "frequency was {f1}");
    }

    #[test]
    fn sampling_never_out_of_range() {
        let mut rng = SvRng::seed_from_u64(3);
        let probs = vec![0.0, 0.0, 1.0, 0.0];
        for s in sample_shots(probs, &mut rng, 1000) {
            assert_eq!(s, 2);
        }
    }

    #[test]
    fn the_in_place_cdf_samples_what_a_separate_cdf_does() {
        // The formulation with a second vector for the CDF, kept here as
        // the reference: same additions in the same order, so the same
        // bits and the same outcome for every draw.
        fn two_vectors(probabilities: &[f64], rng: &mut SvRng, shots: usize) -> Vec<u64> {
            let mut cdf = Vec::with_capacity(probabilities.len());
            let mut acc = 0.0;
            for &p in probabilities {
                acc += p;
                cdf.push(acc);
            }
            let total = acc.max(f64::MIN_POSITIVE);
            (0..shots)
                .map(|_| {
                    let r = rng.next_f64() * total;
                    match cdf.binary_search_by(|c| c.partial_cmp(&r).expect("no NaN")) {
                        Ok(i) | Err(i) => (i.min(cdf.len() - 1)) as u64,
                    }
                })
                .collect()
        }
        // A 10-qubit distribution with uneven weights and exact zeros,
        // deliberately unnormalised so `total` is not 1.
        let probs: Vec<f64> = (0..1024u32)
            .map(|i| {
                if i % 7 == 3 {
                    0.0
                } else {
                    f64::from(i % 13 + 1) * 1e-3
                }
            })
            .collect();
        let reference = two_vectors(&probs, &mut SvRng::seed_from_u64(0x5eed), 4096);
        let in_place = sample_shots(probs, &mut SvRng::seed_from_u64(0x5eed), 4096);
        assert_eq!(in_place, reference);
        // And the first draws at this seed, as literals: a change to the
        // RNG stream or the search shows here even if both sides move.
        assert_eq!(&in_place[..8], [958, 904, 868, 998, 701, 541, 316, 434]);
        assert!(in_place.iter().all(|&s| s < 1024 && s % 7 != 3));
    }

    #[test]
    fn z_expectations() {
        let s = StateVector::zero_state(2).unwrap();
        assert!((expval_z_mask(&s, 0b01) - 1.0).abs() < 1e-15);
        // |+> has <Z> = 0, <X> = 1.
        let p = plus_state();
        assert!(expval_z_mask(&p, 1).abs() < 1e-15);
        let x = PauliString::parse("X").unwrap();
        assert!((expval_pauli(&p, &x) - 1.0).abs() < 1e-12);
        let z = PauliString::parse("Z").unwrap();
        assert!(expval_pauli(&p, &z).abs() < 1e-12);
    }

    #[test]
    fn y_expectation() {
        // |i> = (|0> + i|1>)/sqrt2 has <Y> = +1.
        let s2i = svsim_types::S2I;
        let mut s = StateVector::zero_state(1).unwrap();
        s.set_complex(&[Complex64::real(s2i), Complex64::new(0.0, s2i)])
            .unwrap();
        let y = PauliString::parse("Y").unwrap();
        assert!((expval_pauli(&s, &y) - 1.0).abs() < 1e-12);
        // And the original state is untouched (expval only reads it).
        assert!((s.amplitude(1).im - s2i).abs() < 1e-15);
    }

    #[test]
    fn identity_expectation_is_norm() {
        let s = plus_state();
        let id = PauliString::parse("I").unwrap();
        assert!((expval_pauli(&s, &id) - 1.0).abs() < 1e-12);
    }

    /// A 10-qubit state of irrational amplitudes (the qf21 kickback regime)
    /// where sequential and chunked summation differ in ULPs.
    fn irrational_state() -> StateVector {
        let n = 10u32;
        let mut s = StateVector::zero_state(n).unwrap();
        let amps: Vec<Complex64> = (0..1u32 << n)
            .map(|i| {
                let t = f64::from(i) * 0.737_123;
                Complex64::new(t.sin(), t.cos() * 0.5)
            })
            .collect();
        s.set_complex(&amps).unwrap();
        s
    }

    /// `to_bits` of `z_expectation_bits_are_pinned`'s four values.
    const PINNED_Z_BITS: [u64; 4] = [
        13808628215291606896,
        13813148364578234744,
        4573336414256126400,
        13812734691303123280,
    ];

    #[test]
    fn z_expectation_bits_are_pinned() {
        // Z-only values as literal bits: the one sweep computes each term
        // as `re*re + im*im` and sums in the fixed chunked association, so
        // none of these may move in its last bit.
        let s = irrational_state();
        let zs = PauliString::parse("ZIIZZIIIIZ").unwrap();
        let got = [
            expval_z_mask(&s, 0b1),
            expval_z_mask(&s, 0b10_0110_0100),
            expval_z_mask(&s, 0x3ff),
            expval_pauli(&s, &zs),
        ];
        assert_eq!(got.map(f64::to_bits), PINNED_Z_BITS);
    }

    #[test]
    fn expectations_match_the_dense_matrix() {
        // Random 6-qubit states and random strings over IXYZ, with the
        // identity and the all-Y string among them: the sweep against
        // <psi|P|psi> taken with the dense matrix of P.
        let n = 6u32;
        let mut rng = SvRng::seed_from_u64(0x5ca1e);
        let mut labels = vec!["IIIIII".to_string(), "YYYYYY".to_string()];
        for _ in 0..64 {
            let label = (0..n).map(|_| ['I', 'X', 'Y', 'Z'][rng.next_below(4) as usize]);
            labels.push(label.collect());
        }
        for _ in 0..4 {
            let amps: Vec<Complex64> = (0..1 << n)
                .map(|_| Complex64::new(rng.next_gaussian(), rng.next_gaussian()))
                .collect();
            let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            let amps: Vec<Complex64> = amps.iter().map(|a| a.scale(1.0 / norm)).collect();
            let mut s = StateVector::zero_state(n).unwrap();
            s.set_complex(&amps).unwrap();
            for label in &labels {
                let string = PauliString::parse(label).unwrap();
                let m = string.matrix(n);
                let dim = m.dim();
                let mut want = Complex64::ZERO;
                for (r, &ar) in amps.iter().enumerate() {
                    for (c, &ac) in amps.iter().enumerate() {
                        want += ar.conj() * m.data()[r * dim + c] * ac;
                    }
                }
                let got = expval_pauli(&s, &string);
                assert!(want.im.abs() < 1e-12, "{label}: <P> = {want}");
                assert!((got - want.re).abs() < 1e-12, "{label}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn factors_beyond_the_register_act_on_zero() {
        // A qubit at or above the width is |0>: Z there is +1, X or Y there
        // makes the value 0, and no mask bit is taken for it (qubit 70 is
        // past any u64 mask).
        let s = irrational_state();
        let value = |label: &str| {
            let factors: Vec<(Pauli, u32)> = label
                .split_whitespace()
                .map(|f| {
                    let (p, q) = f.split_at(1);
                    let p = Pauli::from_char(p.chars().next().unwrap()).unwrap();
                    (p, q.parse().unwrap())
                })
                .collect();
            expval_pauli(&s, &PauliString::new(&factors).unwrap())
        };
        for zero in ["X12", "Y12", "X0 X12", "Z3 Y70", "X70"] {
            assert_eq!(value(zero).to_bits(), 0.0f64.to_bits(), "{zero}");
        }
        assert_eq!(value("Z12").to_bits(), value("").to_bits());
        assert_eq!(value("Z0 Z12 Z70").to_bits(), value("Z0").to_bits());
        assert_eq!(value("X1 Y4 Z70").to_bits(), value("X1 Y4").to_bits());
    }

    /// `f` over each of `n_pes` equal partitions of `planes` as a walker's
    /// own memory, with the global index of its first amplitude.
    fn per_partition<T>(
        (re, im): (&mut [f64], &mut [f64]),
        n_pes: usize,
        mut f: impl FnMut(&LocalView<'_>, u64) -> T,
    ) -> Vec<T> {
        let per = re.len() / n_pes;
        re.chunks_mut(per)
            .zip(im.chunks_mut(per))
            .enumerate()
            .map(|(pe, (re, im))| f(&LocalView::new(re, im), (pe * per) as u64))
            .collect()
    }

    #[test]
    fn partition_partials_match_prob_one_bitwise() {
        // The canonical tree makes the walkers' partials combine to exactly
        // the single-device value for every power-of-two partitioning, and
        // the identity layout walks the tree the natural order walks.
        let mut s = irrational_state();
        let n = s.n_qubits();
        for q in [0, 3, 7, n - 1] {
            let whole = prob_one(&s, q);
            for n_pes in [1usize, 2, 4, 8] {
                let boundary = n - n_pes.trailing_zeros();
                let identity: Vec<u32> = (0..boundary).collect();
                let partials = per_partition(s.parts_mut(), n_pes, |own, base| {
                    let natural = partial_prob_one(own, base, None, q);
                    let mapped = partial_prob_one(own, base, Some(&identity), q);
                    assert_eq!(natural.to_bits(), mapped.to_bits(), "q={q} n_pes={n_pes}");
                    natural
                });
                let combined = svsim_types::numeric::pairwise_sum(&partials);
                assert_eq!(
                    whole.to_bits(),
                    combined.to_bits(),
                    "q={q} n_pes={n_pes}: partitioned sum must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn mapped_partials_walk_the_logical_tree() {
        // Scramble each partition's low positions (reversed): the mapped
        // partial over the scrambled words equals the natural partial over
        // the logical ones, bit for bit.
        let mut s = irrational_state();
        let n = s.n_qubits();
        let n_pes = 4usize;
        let boundary = n - 2;
        let low_pos: Vec<u32> = (0..boundary).rev().collect();
        let mut scrambled = s.clone();
        {
            let (re, im) = scrambled.parts_mut();
            for i in 0..s.dim() {
                let low =
                    (0..boundary).fold(0, |off, k| off | bit(i as u64, k) << low_pos[k as usize]);
                let at = (i >> boundary << boundary) | low as usize;
                re[at] = s.re()[i];
                im[at] = s.im()[i];
            }
        }
        for q in 0..n {
            let natural = per_partition(s.parts_mut(), n_pes, |own, base| {
                partial_prob_one(own, base, None, q)
            });
            let mapped = per_partition(scrambled.parts_mut(), n_pes, |own, base| {
                partial_prob_one(own, base, Some(&low_pos), q)
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&natural), bits(&mapped), "q={q}");
        }
    }

    #[test]
    fn partition_collapse_is_the_whole_states_collapse() {
        // Collapsing every partition in place equals collapsing the whole
        // state, bit for bit; a partition-index qubit keeps (rescaled) or
        // clears each partition whole.
        let s = irrational_state();
        let n = s.n_qubits();
        let inv = 1.3;
        let bits = |s: &StateVector| {
            let words = s.re().iter().chain(s.im());
            words.map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        for (q, outcome) in [(0, 0u8), (4, 1), (n - 2, 0), (n - 1, 1)] {
            let mut whole = s.clone();
            per_partition(whole.parts_mut(), 1, |own, base| {
                collapse(own, base, q, outcome, inv);
            });
            for n_pes in [2usize, 4, 8] {
                let boundary = n - n_pes.trailing_zeros();
                let mut parted = s.clone();
                let kept = per_partition(parted.parts_mut(), n_pes, |own, base| {
                    collapse(own, base, q, outcome, inv);
                    bit(base, q) == u64::from(outcome)
                });
                let what = format!("q={q} outcome={outcome} n_pes={n_pes}");
                assert_eq!(bits(&parted), bits(&whole), "{what}");
                if q < boundary {
                    continue;
                }
                let per = s.dim() / n_pes;
                for (pe, kept) in kept.into_iter().enumerate() {
                    for i in pe * per..(pe + 1) * per {
                        let want = |x: f64| if kept { x * inv } else { 0.0 };
                        let got = (parted.re()[i].to_bits(), parted.im()[i].to_bits());
                        assert_eq!(
                            got,
                            (want(s.re()[i]).to_bits(), want(s.im()[i]).to_bits()),
                            "{what}"
                        );
                    }
                }
            }
        }
    }
}
