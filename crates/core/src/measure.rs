//! Measurement, collapse, sampling, and expectation values.
//!
//! Projective measurement is the only non-unitary operation the simulator
//! needs. Probability accumulation and collapse are *embarrassingly local*
//! under the natural-order partitioning (they are diagonal), so the
//! distributed backends run them on their own partitions with a single
//! scalar reduction — no amplitude exchange.
//!
//! Probability mass is summed with the canonical pairwise-tree association
//! of [`svsim_types::numeric`]: every backend evaluates nodes of the same
//! perfect binary tree over the amplitude index space, so a partition's
//! partial is exactly one subtree value and the cross-PE combine
//! ([`svsim_types::numeric::pairwise_sum`]) reproduces the single-device
//! sum bit-for-bit at any PE count. A sequential accumulation here would
//! differ in the last ULPs, and the `1/sqrt(p)` collapse rescale would leak
//! that ULP into every amplitude, breaking cross-backend bit-identity.

use crate::state::StateVector;
use std::ops::Range;
use svsim_ir::{Pauli, PauliString};
use svsim_shmem::SharedF64Vec;
use svsim_types::bits::{bit, masked_parity};
use svsim_types::SvRng;

/// States at or above this size sum their diagonal expectation in
/// [`SUM_CHUNKS`] chunks, smaller ones front to back.
const CHUNKED_FROM: usize = 1 << 16;

/// Chunks of [`chunked_sum`]. Fixed (never derived from the machine), so the
/// floating-point association — and with it every bit of the sum — is the
/// same everywhere.
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

/// Canonical-tree probability that qubit `q` measures 1, over a full
/// [`crate::view::StateView`] of dimension `dim` — the single-device
/// executor's measurement path. Same association as [`prob_one`] and as
/// the partitioned partials, so every backend agrees bit-for-bit.
#[must_use]
pub(crate) fn prob_one_view<V: crate::view::StateView>(v: &V, q: u32, dim: u64) -> f64 {
    let term = |i: usize| {
        let (re, im) = v.get(i as u64);
        re * re + im * im
    };
    prob_tree(&term, 0, 0, dim as usize, q)
}

/// Probability that qubit `q` measures 1 (full local state).
///
/// Uses the canonical tree association (see module docs), so the result is
/// bit-identical to a partitioned evaluation combined with
/// [`svsim_types::numeric::pairwise_sum`].
#[must_use]
pub fn prob_one(state: &StateVector, q: u32) -> f64 {
    let (re, im) = (state.re(), state.im());
    let term = |i: usize| re[i] * re[i] + im[i] * im[i];
    prob_tree(&term, 0, 0, re.len(), q)
}

/// Partition-local partial probability of qubit `q` being 1, for a
/// partition whose first global amplitude index is `base`.
///
/// The partial is the canonical tree node for this partition's aligned
/// block, so combining the per-PE partials with
/// [`svsim_types::numeric::pairwise_sum`] equals [`prob_one`] on the whole
/// state bit-for-bit.
#[must_use]
pub fn partial_prob_one_partition(re: &SharedF64Vec, im: &SharedF64Vec, base: u64, q: u32) -> f64 {
    let term = |off: usize| {
        let (r, i) = (re.load(off), im.load(off));
        r * r + i * i
    };
    prob_tree(&term, base, 0, re.len(), q)
}

/// Partition partial of P(q=1) under a block-preserving qubit layout.
///
/// The partition holds one logical subcube starting at `logical_base`; the
/// walk enumerates it in logical order, translating each logical offset `o`
/// to the local physical offset through `low_pos` (`low_pos[k]` = physical
/// position of logical qubit `k`, all below the boundary). The tree shape is
/// therefore the single-device logical tree, bit-identical regardless of the
/// within-partition scramble. `q` is the LOGICAL measured qubit.
pub fn partial_prob_one_mapped(
    re: &SharedF64Vec,
    im: &SharedF64Vec,
    logical_base: u64,
    low_pos: &[u32],
    q: u32,
) -> f64 {
    let term = |o: usize| {
        let mut off = 0usize;
        for (k, &pos) in low_pos.iter().enumerate() {
            off |= ((o >> k) & 1) << (pos as usize);
        }
        let (r, i) = (re.load(off), im.load(off));
        r * r + i * i
    };
    prob_tree(&term, logical_base, 0, re.len(), q)
}

/// Partition-local collapse (diagonal, no communication).
pub fn collapse_partition(
    re: &SharedF64Vec,
    im: &SharedF64Vec,
    base: u64,
    q: u32,
    outcome: u8,
    inv_sqrt_p: f64,
) {
    for off in 0..re.len() {
        if bit(base + off as u64, q) == u64::from(outcome) {
            re.store(off, re.load(off) * inv_sqrt_p);
            im.store(off, im.load(off) * inv_sqrt_p);
        } else {
            re.store(off, 0.0);
            im.store(off, 0.0);
        }
    }
}

/// Sample `shots` basis states from the final distribution (inverse-CDF per
/// shot; the repeated sampling of VQA workloads, §1 of the paper).
#[must_use]
pub fn sample_shots(probabilities: &[f64], rng: &mut SvRng, shots: usize) -> Vec<u64> {
    // Cumulative distribution once, binary search per shot.
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

/// Histogram of sampled outcomes.
#[must_use]
pub fn histogram(samples: &[u64]) -> std::collections::BTreeMap<u64, usize> {
    let mut h = std::collections::BTreeMap::new();
    for &s in samples {
        *h.entry(s).or_insert(0) += 1;
    }
    h
}

/// `<Z-mask>` expectation from probabilities: `sum_i (-1)^{parity(i & mask)} p_i`.
#[must_use]
pub fn expval_z_mask(state: &StateVector, mask: u64) -> f64 {
    let (re, im) = (state.re(), state.im());
    let term = |i: usize, r: f64, m: f64| {
        let p = r * r + m * m;
        if masked_parity(i as u64, mask) == 1 {
            -p
        } else {
            p
        }
    };
    if re.len() >= CHUNKED_FROM {
        return chunked_sum(re.len(), |range| {
            let mut e = 0.0;
            for i in range {
                e += term(i, re[i], im[i]);
            }
            e
        });
    }
    let mut e = 0.0;
    for i in 0..re.len() {
        e += term(i, re[i], im[i]);
    }
    e
}

/// `<P>` for an arbitrary Pauli string: basis-change a *copy* of the state
/// into the Z frame, then take the Z-mask expectation.
#[must_use]
pub fn expval_pauli(state: &StateVector, string: &PauliString) -> f64 {
    if string.is_identity() {
        return state.norm_sqr();
    }
    let needs_rotation = string.factors().iter().any(|&(p, _)| p != Pauli::Z);
    if !needs_rotation {
        return expval_z_mask(state, string.qubit_mask());
    }
    let mut rotated = state.clone();
    {
        use crate::compile::compile_gate;
        use crate::dispatch::resolve;
        use crate::kernels::worker_range;
        use crate::view::LocalView;
        let n = rotated.n_qubits();
        let (re, im) = rotated.parts_mut();
        let view = LocalView::new(re, im);
        let mut compiled = Vec::new();
        for &(p, q) in string.factors() {
            match p {
                Pauli::X => {
                    let g = svsim_ir::Gate::new(svsim_ir::GateKind::H, &[q], &[]).expect("h");
                    compile_gate(&g, n, true, &mut compiled);
                }
                Pauli::Y => {
                    // Rotate Y into Z: apply B† = H * S† (circuit: sdg, h).
                    for kind in [svsim_ir::GateKind::SDG, svsim_ir::GateKind::H] {
                        let g = svsim_ir::Gate::new(kind, &[q], &[]).expect("1q");
                        compile_gate(&g, n, true, &mut compiled);
                    }
                }
                _ => {}
            }
        }
        for cg in &compiled {
            resolve::<LocalView>(cg.id)(&view, &cg.args, worker_range(cg.args.work, 1, 0));
        }
    }
    expval_z_mask(&rotated, string.qubit_mask())
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
        let samples = sample_shots(&probs, &mut rng, 20_000);
        let h = histogram(&samples);
        let f1 = h[&1] as f64 / 20_000.0;
        assert!((f1 - 0.75).abs() < 0.02, "frequency was {f1}");
    }

    #[test]
    fn sampling_never_out_of_range() {
        let mut rng = SvRng::seed_from_u64(3);
        let probs = vec![0.0, 0.0, 1.0, 0.0];
        for s in sample_shots(&probs, &mut rng, 1000) {
            assert_eq!(s, 2);
        }
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
        // And the original state is untouched (expval works on a copy).
        assert!((s.amplitude(1).im - s2i).abs() < 1e-15);
    }

    #[test]
    fn identity_expectation_is_norm() {
        let s = plus_state();
        let id = PauliString::parse("I").unwrap();
        assert!((expval_pauli(&s, &id) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partition_partials_match_prob_one_bitwise() {
        // Irrational amplitudes (the qf21 kickback regime) where sequential
        // and chunked summation differ in ULPs: the canonical tree must make
        // per-partition partials combine to exactly the single-device value
        // for every power-of-two partitioning.
        let n = 10u32;
        let dim = 1usize << n;
        let mut s = StateVector::zero_state(n).unwrap();
        let amps: Vec<Complex64> = (0..dim)
            .map(|i| {
                let t = f64::from(i as u32) * 0.737_123;
                Complex64::new(t.sin(), t.cos() * 0.5)
            })
            .collect();
        s.set_complex(&amps).unwrap();
        for q in [0, 3, n - 1] {
            let whole = prob_one(&s, q);
            for n_pes in [2usize, 4, 8] {
                let per = dim / n_pes;
                let partials: Vec<f64> = (0..n_pes)
                    .map(|pe| {
                        let re = SharedF64Vec::new(per, 0.0);
                        let im = SharedF64Vec::new(per, 0.0);
                        for off in 0..per {
                            re.store(off, s.re()[pe * per + off]);
                            im.store(off, s.im()[pe * per + off]);
                        }
                        partial_prob_one_partition(&re, &im, (pe * per) as u64, q)
                    })
                    .collect();
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
    fn partition_prob_and_collapse() {
        // 2 partitions of a 2-qubit |+> x |0> state: amps (s2i, s2i, 0, 0).
        let s2i = svsim_types::S2I;
        let re0 = SharedF64Vec::new(2, 0.0);
        let im0 = SharedF64Vec::new(2, 0.0);
        let re1 = SharedF64Vec::new(2, 0.0);
        let im1 = SharedF64Vec::new(2, 0.0);
        re0.store(0, s2i);
        re0.store(1, s2i);
        let p = partial_prob_one_partition(&re0, &im0, 0, 0)
            + partial_prob_one_partition(&re1, &im1, 2, 0);
        assert!((p - 0.5).abs() < 1e-15);
        // Collapse to outcome 0.
        let inv = (1.0f64 / 0.5).sqrt();
        collapse_partition(&re0, &im0, 0, 0, 0, inv);
        collapse_partition(&re1, &im1, 2, 0, 0, inv);
        assert!((re0.load(0) - 1.0).abs() < 1e-12);
        assert_eq!(re0.load(1), 0.0);
    }
}
