//! Strided index arithmetic for state-vector gate application.
//!
//! These are the `s_i` formulas of the paper's Eq. (1) and Eq. (2): applying
//! a 1-qubit gate on qubit `q` touches the amplitude pairs
//! `(s_i, s_i + 2^q)`, and a 2-qubit gate on qubits `p < q` touches the
//! quadruples `(s_i, s_i + 2^p, s_i + 2^q, s_i + 2^p + 2^q)`. The stride of
//! `s_i` as `i` advances is what turns gate application into fine-grained
//! irregular memory traffic once the vector is partitioned.

use crate::IdxType;

/// Base index `s_i` for the `i`-th amplitude quadruple of a 2-qubit gate on
/// qubits `p < q` (Eq. 2).
///
/// Equivalently: insert `0` bits at bit-positions `p` and `q` of `i`.
///
/// # Panics
/// Debug-asserts `p < q`.
#[inline]
#[must_use]
pub fn quad_base_2q(i: IdxType, p: u32, q: u32) -> IdxType {
    debug_assert!(p < q, "quad_base_2q requires p < q");
    // Literal transcription of the paper's formula:
    //   s_i = floor(floor(i/2^p) / 2^(q-p-1)) * 2^(q+1)
    //       + (floor(i/2^p) mod 2^(q-p-1)) * 2^(p+1)
    //       + (i mod 2^p)
    let outer = (i >> p) >> (q - p - 1);
    let mid = (i >> p) & ((1 << (q - p - 1)) - 1);
    let low = i & ((1 << p) - 1);
    (outer << (q + 1)) | (mid << (p + 1)) | low
}

/// Insert a `0` bit into `x` at bit position `pos`, shifting higher bits up:
/// the base index `s_i` of the `i`-th amplitude pair of a 1-qubit gate on
/// qubit `pos` (Eq. 1) for `x = i`: `floor(x / 2^pos) * 2^(pos+1) + (x mod
/// 2^pos)`.
#[inline]
#[must_use]
pub fn insert_zero_bit(x: IdxType, pos: u32) -> IdxType {
    ((x >> pos) << (pos + 1)) | (x & ((1 << pos) - 1))
}

/// Insert `0` bits at every position in `positions` (must be strictly
/// ascending). Used by multi-controlled gates to enumerate the subspace
/// where all the involved qubits are free.
#[inline]
#[must_use]
pub fn insert_zero_bits(mut x: IdxType, positions: &[u32]) -> IdxType {
    for &p in positions {
        x = insert_zero_bit(x, p);
    }
    x
}

/// Extract bit `q` of `idx` as 0 or 1.
#[inline]
#[must_use]
pub fn bit(idx: IdxType, q: u32) -> IdxType {
    (idx >> q) & 1
}

/// Bit mask with bits set at all `positions`.
#[inline]
#[must_use]
pub fn mask_of(positions: &[u32]) -> IdxType {
    positions.iter().fold(0, |m, &p| m | (1 << p))
}

/// Parity (0/1) of the bits of `idx` selected by `mask` — used for Pauli-Z
/// string expectation values.
#[inline]
#[must_use]
pub fn masked_parity(idx: IdxType, mask: IdxType) -> u32 {
    (idx & mask).count_ones() & 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SvRng;

    /// Reference implementation of Eq. 1 exactly as printed in the paper.
    fn pair_base_reference(i: u64, q: u32) -> u64 {
        (i / (1 << q)) * (1 << (q + 1)) + (i % (1 << q))
    }

    /// Reference implementation of Eq. 2 exactly as printed in the paper.
    fn quad_base_reference(i: u64, p: u32, q: u32) -> u64 {
        ((i / (1 << p)) / (1 << (q - p - 1))) * (1 << (q + 1))
            + ((i / (1 << p)) % (1 << (q - p - 1))) * (1 << (p + 1))
            + (i % (1 << p))
    }

    #[test]
    fn pair_base_matches_paper_small() {
        // n = 3 qubits, gate on q = 1: pairs are (0,2),(1,3),(4,6),(5,7).
        let bases: Vec<u64> = (0..4).map(|i| insert_zero_bit(i, 1)).collect();
        assert_eq!(bases, vec![0, 1, 4, 5]);
    }

    #[test]
    fn pair_bases_cover_half_space_disjointly() {
        // For n qubits and any q, the set {s_i} U {s_i + 2^q} must be exactly
        // [0, 2^n) with no repeats.
        let n = 6u32;
        for q in 0..n {
            let mut seen = vec![false; 1 << n];
            for i in 0..(1u64 << (n - 1)) {
                let s = insert_zero_bit(i, q);
                let t = s + (1 << q);
                assert!(!seen[s as usize] && !seen[t as usize]);
                seen[s as usize] = true;
                seen[t as usize] = true;
                assert_eq!(bit(s, q), 0);
                assert_eq!(bit(t, q), 1);
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn quad_bases_cover_space_disjointly() {
        let n = 6u32;
        for p in 0..n {
            for q in (p + 1)..n {
                let mut seen = vec![false; 1 << n];
                for i in 0..(1u64 << (n - 2)) {
                    let s = quad_base_2q(i, p, q);
                    for (dp, dq) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                        let idx = s + dp * (1 << p) + dq * (1 << q);
                        assert!(!seen[idx as usize], "dup at p={p} q={q} i={i}");
                        seen[idx as usize] = true;
                    }
                    assert_eq!(bit(s, p), 0);
                    assert_eq!(bit(s, q), 0);
                }
                assert!(seen.iter().all(|&b| b));
            }
        }
    }

    #[test]
    fn bit_ops() {
        assert_eq!(bit(0b1010, 1), 1);
        assert_eq!(bit(0b1010, 0), 0);
        assert_eq!(mask_of(&[0, 2, 5]), 0b100101);
        assert_eq!(masked_parity(0b111, 0b101), 0);
        assert_eq!(masked_parity(0b110, 0b101), 1);
    }

    #[test]
    fn insert_zero_bits_multi() {
        // Inserting at ascending positions 1 and 3 of 0b11 -> bits land at 0,2
        // then position-3 zero splits again.
        let x = insert_zero_bits(0b11, &[1, 3]);
        assert_eq!(bit(x, 1), 0);
        assert_eq!(bit(x, 3), 0);
        assert_eq!(x.count_ones(), 2);
    }

    // Randomized property checks over a fixed seeded stream (the offline
    // stand-in for the original proptest cases).

    #[test]
    fn pair_base_matches_reference() {
        let mut rng = SvRng::seed_from_u64(0xB175_0001);
        for _ in 0..2000 {
            let i = rng.next_below(1 << 20);
            let q = rng.range_usize(0, 40) as u32;
            assert_eq!(
                insert_zero_bit(i, q),
                pair_base_reference(i, q),
                "i={i} q={q}"
            );
        }
    }

    #[test]
    fn quad_base_matches_reference() {
        let mut rng = SvRng::seed_from_u64(0xB175_0002);
        for _ in 0..2000 {
            let i = rng.next_below(1 << 20);
            let p = rng.range_usize(0, 20) as u32;
            let q = p + rng.range_usize(1, 20) as u32;
            assert_eq!(
                quad_base_2q(i, p, q),
                quad_base_reference(i, p, q),
                "i={i} p={p} q={q}"
            );
        }
    }

    #[test]
    fn insert_zero_is_monotone() {
        // Order-preserving: a < b implies insert(a) < insert(b).
        let mut rng = SvRng::seed_from_u64(0xB175_0003);
        for _ in 0..2000 {
            let a = rng.next_below(1 << 30);
            let b = rng.next_below(1 << 30);
            let pos = rng.range_usize(0, 30) as u32;
            if a == b {
                continue;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            assert!(
                insert_zero_bit(lo, pos) < insert_zero_bit(hi, pos),
                "a={lo} b={hi} pos={pos}"
            );
        }
    }
}
