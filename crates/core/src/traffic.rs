//! Analytic communication/traffic model for compiled gates.
//!
//! The scale-out backend *measures* traffic through the SHMEM counters; this
//! module *predicts* it in closed form for any partition count, which is
//! what lets the performance model price circuits far larger than this
//! machine can run (Summit-scale figures). The prediction is exact — tests
//! cross-check it against the measured counters of real SPMD runs.
//!
//! Key structural fact: with contiguous work-item partitioning, the
//! partition that an access lands in depends only on (a) the accessing PE
//! and (b) the access's offset pattern — not on the individual item — because
//! the item bits that reach the partition-index range of the address are
//! exactly the item's top bits, which are constant across one PE's chunk.

use crate::compile::{CompiledGate, KernelId};
use svsim_types::bits::insert_zero_bits;

/// Predicted traffic of one compiled gate at a given partitioning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateTraffic {
    /// Work items over the whole state.
    pub items: u64,
    /// Amplitude loads+stores resolved in the accessing PE's partition.
    pub local_amp_ops: u64,
    /// Amplitude loads+stores that cross partitions.
    pub remote_amp_ops: u64,
    /// Bytes crossing the fabric (16 bytes per remote amplitude access).
    pub remote_bytes: u64,
    /// Total bytes touched in memory (local + remote, read + write).
    pub bytes_touched: u64,
    /// Floating-point operations.
    pub flops: u64,
}

impl GateTraffic {
    /// Merge (sum) with another gate's traffic.
    ///
    /// Sums saturate: aggregating a Summit-scale circuit (each gate already
    /// near `2^63` bytes touched) must clamp at `u64::MAX` rather than wrap
    /// into a silently-too-small estimate.
    #[must_use]
    pub fn merged(&self, o: &Self) -> Self {
        Self {
            items: self.items.saturating_add(o.items),
            local_amp_ops: self.local_amp_ops.saturating_add(o.local_amp_ops),
            remote_amp_ops: self.remote_amp_ops.saturating_add(o.remote_amp_ops),
            remote_bytes: self.remote_bytes.saturating_add(o.remote_bytes),
            bytes_touched: self.bytes_touched.saturating_add(o.bytes_touched),
            flops: self.flops.saturating_add(o.flops),
        }
    }

    /// Fraction of amplitude accesses that are remote.
    #[must_use]
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local_amp_ops + self.remote_amp_ops;
        if total == 0 {
            0.0
        } else {
            self.remote_amp_ops as f64 / total as f64
        }
    }
}

/// Offset patterns (relative to the zero-inserted base index) accessed per
/// work item, and the per-item flop cost, for each kernel.
///
/// The patterns are the kernel's footprint, [`crate::kernels::GateArgs::offs`]
/// — the very words its body sweeps — so this is the single source of truth
/// for which amplitudes a kernel touches: the traffic model consumes it
/// here, and `svsim-analyzer`'s static plan checker consumes it to derive
/// per-PE index sets symbolically. A pattern places bits only at the
/// kernel's sorted qubit positions; item bits land injectively at the
/// remaining positions. Only the flops are a table over the body.
#[must_use]
pub fn kernel_access_patterns(cg: &CompiledGate) -> (&[u64], u64) {
    let flops = match cg.id {
        KernelId::X | KernelId::Y => 0,
        KernelId::Z => 2,
        KernelId::H => 8,
        KernelId::Phase => 6,
        KernelId::Rz | KernelId::Ry | KernelId::Rx => 12,
        KernelId::OneQ => 28,
        KernelId::Rzz => 24,
        KernelId::TwoQ => 112,
    };
    (cg.args.offs(), flops)
}

/// True when `cg` is **partition-local** at `n_pes` PEs (a power of two):
/// every qubit position it involves lies below the partition boundary
/// `n_qubits - log2(n_pes)`. Zero-bit insertion then leaves the top
/// `log2(n_pes)` bits of a work item — the PE rank under
/// [`crate::kernels::worker_range`]'s contiguous split — at the top of every
/// index, so PE `pe`'s share touches exactly `pe << shift | i` for the
/// indices `i` the same [`crate::kernels::GateArgs`] yield over items
/// `0..work / n_pes`: the kernel can run on the PE's own partition alone
/// (a [`crate::view::LocalView`] of it), same words, same order, same
/// arithmetic. Pure
/// and independent of the PE, so every PE of a launch decides alike;
/// [`gate_traffic`] agrees with it (true ⇒ `remote_amp_ops == 0`).
#[must_use]
pub fn partition_local(cg: &CompiledGate, n_qubits: u32, n_pes: u64) -> bool {
    debug_assert!(n_pes.is_power_of_two() && n_pes <= 1u64 << n_qubits);
    let boundary = n_qubits - n_pes.trailing_zeros();
    cg.args.sorted().iter().all(|&q| q < boundary)
}

/// log2 of the amplitudes in one **tile** of tile-major execution at each
/// cache level, outermost first; each width tiles the one before it. Read by
/// the lowering alone ([`crate::plan`]), which records a segment's tile runs
/// and their sub-runs at those of these widths narrower than the walker's own
/// memory; the walker ([`crate::exec`]) executes what it recorded. A run at
/// the widest of them is also one barrier window of a partitioned walker.
///
/// - **15**: 2^15 amplitudes (two `f64` planes) are 512 KiB, a quarter of a
///   2 MiB L2. On own memory wider than that, a run of kernels below qubit
///   15 sweeps each such tile once.
/// - **11**: 2^11 amplitudes are 32 KiB, two-thirds of a 48 KiB L1D. Inside
///   one L2 tile, every maximal sub-run of two or more kernels below qubit 11
///   sweeps each such sub-tile once; on own memory of one L2 tile or less
///   (a 2-PE slab of 16 qubits, a 12- to 15-qubit device) such a run sweeps
///   that memory sub-tile by sub-tile, and is the barrier window.
///
/// Constants, not a probe or a setting: the measured optimum is flat from 14
/// to 16 at the outer level, and 10 to 11 at the inner (12, 64 KiB, no longer
/// fits L1D and loses), and nothing reads differently at another value but
/// speed (DESIGN.md, "Tile-major execution").
pub const TILE_QUBITS: [u32; 2] = [15, 11];

/// True when `cg` is **tile-local** for tiles of `2^tile_qubits` amplitudes:
/// [`partition_local`] with the state's `2^(n_qubits - tile_qubits)` aligned
/// tiles as the partitions — every qubit position it involves lies below
/// `tile_qubits`. The kernel's items `0..work >> (n_qubits - tile_qubits)`
/// over a view of one tile are then exactly its accesses inside that tile,
/// and tiles share no amplitude, so a run of tile-local kernels may finish
/// one tile before touching the next: each amplitude still sees the same
/// kernels in the same order with the same operands. The same holds inside
/// one tile for its sub-tiles at the next, narrower width.
#[must_use]
pub fn tile_local(cg: &CompiledGate, n_qubits: u32, tile_qubits: u32) -> bool {
    partition_local(cg, n_qubits, 1u64 << (n_qubits - tile_qubits))
}

/// Predict the traffic of one compiled gate over `n_qubits`, partitioned
/// across `n_pes` PEs (must be a power of two).
///
/// # Panics
/// If `n_pes` is not a power of two or exceeds the state dimension.
#[must_use]
pub fn gate_traffic(cg: &CompiledGate, n_qubits: u32, n_pes: u64) -> GateTraffic {
    assert!(n_pes.is_power_of_two(), "PE count must be a power of two");
    let dim = 1u64 << n_qubits;
    assert!(n_pes <= dim);
    let k = n_pes.trailing_zeros();
    let shift_l = n_qubits - k; // log2(amplitudes per partition)
    let (patterns, flops_per_item) = kernel_access_patterns(cg);
    let work = cg.args.work;
    let sorted = cg.args.sorted();

    // Each access pattern per item is one load + one store of a complex
    // amplitude = 2 amplitude ops, 32 bytes of memory traffic. Products
    // saturate: at Summit-scale work counts (`2^58+` items) the byte
    // products exceed u64 and must clamp, not wrap.
    let amp_ops_total = work.saturating_mul(patterns.len() as u64 * 2);
    let bytes_touched = work.saturating_mul(patterns.len() as u64 * 32);
    let flops = work.saturating_mul(flops_per_item);

    let mut remote = 0u64;
    if n_pes > 1 {
        if work >= n_pes {
            // Representative-item argument (see module docs): locality is
            // constant across a PE's chunk for each pattern.
            let per_pe = work / n_pes;
            for p in 0..n_pes {
                let rep = p * per_pe;
                for &pat in patterns {
                    let idx = insert_zero_bits(rep, sorted) | pat;
                    if (idx >> shift_l) != p {
                        remote = remote.saturating_add(per_pe * 2);
                    }
                }
            }
        } else {
            // Fewer items than PEs: walk each PE's (at most one-item) range
            // directly — exact and tiny.
            for p in 0..n_pes {
                for i in crate::kernels::worker_range(work, n_pes, p) {
                    for &pat in patterns {
                        let idx = insert_zero_bits(i, sorted) | pat;
                        if (idx >> shift_l) != p {
                            remote += 2;
                        }
                    }
                }
            }
        }
    }
    GateTraffic {
        items: work,
        local_amp_ops: amp_ops_total - remote,
        remote_amp_ops: remote,
        remote_bytes: remote.saturating_mul(16),
        bytes_touched,
        flops,
    }
}

/// Predicted traffic of one relabeling slab exchange
/// ([`crate::view::ShmemView::exchange`]): half the state trades
/// places with its partner PE's, in place. Each PE of a pair swaps half of
/// the pair's amplitude pairs, reading and writing one side in its own
/// partition and one in its partner's, so every moved amplitude is one
/// local and one remote access, and crosses the fabric once.
///
/// `remote_amp_ops` counts word-level amplitude accesses as everywhere
/// else in this model (so `remote_bytes == 16 * remote_amp_ops` holds);
/// the *message* count is far lower — that is the whole point of the bulk
/// path — and is deliberately not modeled here.
#[must_use]
pub fn exchange_traffic(n_qubits: u32, n_pes: u64) -> GateTraffic {
    assert!(n_pes.is_power_of_two(), "PE count must be a power of two");
    let dim = 1u64 << n_qubits;
    let moved = dim / 2;
    GateTraffic {
        items: moved,
        local_amp_ops: moved,
        remote_amp_ops: moved,
        remote_bytes: moved.saturating_mul(16),
        bytes_touched: moved.saturating_mul(32),
        flops: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{accesses, compiled_one};
    use svsim_ir::GateKind;

    #[test]
    fn single_pe_is_all_local() {
        let cg = compiled_one(GateKind::H, &[3], &[], 8);
        let t = gate_traffic(&cg, 8, 1);
        assert_eq!(t.remote_amp_ops, 0);
        assert_eq!(t.local_amp_ops, 2 * 2 * 128); // 128 items, 2 patterns, ld+st
    }

    #[test]
    fn low_qubit_gate_is_local_high_qubit_is_half_remote() {
        // n=6, 4 PEs: partition boundary at qubit 4.
        for q in 0..4u32 {
            let cg = compiled_one(GateKind::H, &[q], &[], 6);
            let t = gate_traffic(&cg, 6, 4);
            assert_eq!(t.remote_amp_ops, 0, "qubit {q} below the boundary");
        }
        for q in 4..6u32 {
            let cg = compiled_one(GateKind::H, &[q], &[], 6);
            let t = gate_traffic(&cg, 6, 4);
            assert!(
                t.remote_fraction() > 0.0,
                "qubit {q} above the boundary must communicate"
            );
        }
    }

    /// Brute-force checker: walk every item of every PE and classify.
    fn brute_force_remote(cg: &CompiledGate, n: u32, n_pes: u64) -> u64 {
        let shift_l = n - n_pes.trailing_zeros();
        let (patterns, _) = kernel_access_patterns(cg);
        let mut remote = 0;
        for p in 0..n_pes {
            let r = crate::kernels::worker_range(cg.args.work, n_pes, p);
            for i in r {
                for &pat in patterns {
                    let idx = insert_zero_bits(i, cg.args.sorted()) | pat;
                    if (idx >> shift_l) != p {
                        remote += 2;
                    }
                }
            }
        }
        remote
    }

    #[test]
    fn closed_form_matches_brute_force() {
        let n = 8u32;
        let cases = [
            compiled_one(GateKind::H, &[0], &[], n),
            compiled_one(GateKind::H, &[7], &[], n),
            compiled_one(GateKind::T, &[6], &[], n),
            compiled_one(GateKind::CX, &[2, 7], &[], n),
            compiled_one(GateKind::CX, &[7, 2], &[], n),
            compiled_one(GateKind::CX, &[6, 7], &[], n),
            compiled_one(GateKind::CZ, &[3, 6], &[], n),
            compiled_one(GateKind::SWAP, &[1, 7], &[], n),
            compiled_one(GateKind::CCX, &[5, 6, 7], &[], n),
            compiled_one(GateKind::RZZ, &[4, 7], &[0.3], n),
            compiled_one(GateKind::RXX, &[6, 7], &[0.3], n),
            compiled_one(GateKind::CSWAP, &[7, 0, 6], &[], n),
        ];
        for n_pes in [1u64, 2, 4, 8, 16] {
            for cg in &cases {
                let model = gate_traffic(cg, n, n_pes);
                let brute = brute_force_remote(cg, n, n_pes);
                assert_eq!(model.remote_amp_ops, brute, "{:?} at {} PEs", cg.id, n_pes);
            }
        }
    }

    #[test]
    fn partition_local_kernels_touch_only_their_pes_slab_at_local_indices() {
        // Every kernel anchored at every qubit of an 8-qubit state: below,
        // across and above each boundary at 2/4/8 PEs (7/6/5) and in tiles
        // of 2^4 and 2^3 amplitudes.
        let n = 8u32;
        let cases: Vec<CompiledGate> = (0..n - 1)
            .flat_map(|qmin| crate::fixtures::kernels_anchored_at(qmin, n))
            .collect();
        let ids: std::collections::HashSet<KernelId> = cases.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 11, "every KernelId is covered: {ids:?}");
        let (mut local, mut crossing) = (0, 0);
        // 2, 4 and 8 are PE counts; 16 and 32 are what a tile of 2^4 or 2^3
        // amplitudes makes of the same rule.
        for n_pes in [2u64, 4, 8, 16, 32] {
            let shift = n - n_pes.trailing_zeros();
            for cg in &cases {
                let below = cg.args.sorted().iter().all(|&q| q < shift);
                assert_eq!(
                    partition_local(cg, n, n_pes),
                    below,
                    "{:?} on {:?} at {n_pes} PEs",
                    cg.id,
                    cg.args.sorted()
                );
                assert_eq!(tile_local(cg, n, shift), below);
                if !below {
                    crossing += 1;
                    continue;
                }
                local += 1;
                assert_eq!(gate_traffic(cg, n, n_pes).remote_amp_ops, 0);
                let work = cg.args.work;
                assert_eq!(work % n_pes, 0);
                // The slab run: the same arguments over the first
                // `work / n_pes` items of a partition-sized view.
                let on_slab = accesses(cg, 1 << shift, 0..work / n_pes);
                for pe in 0..n_pes {
                    let share = crate::kernels::worker_range(work, n_pes, pe);
                    let global = accesses(cg, 1 << n, share);
                    let lifted: Vec<(bool, u64)> = (on_slab.iter())
                        .map(|&(store, i)| (store, pe << shift | i))
                        .collect();
                    assert_eq!(
                        global,
                        lifted,
                        "{:?} on {:?}, PE {pe} of {n_pes}: same words, same order",
                        cg.id,
                        cg.args.sorted()
                    );
                }
            }
        }
        assert!(
            local > 100 && crossing > 100,
            "{local} local, {crossing} crossing"
        );
    }

    #[test]
    fn more_items_than_pes_not_required() {
        // C4X on 6 qubits has only 2 items; model must still work at 4 PEs.
        let cg = compiled_one(GateKind::C4X, &[0, 1, 2, 3, 4], &[], 6);
        assert_eq!(cg.args.work, 2);
        let model = gate_traffic(&cg, 6, 4);
        let brute = brute_force_remote(&cg, 6, 4);
        assert_eq!(model.remote_amp_ops, brute);
    }

    #[test]
    fn diagonal_gates_touch_less() {
        // T (phase) touches half what H touches; CZ a quarter of a dense 2q.
        let h = gate_traffic(&compiled_one(GateKind::H, &[3], &[], 10), 10, 1);
        let t = gate_traffic(&compiled_one(GateKind::T, &[3], &[], 10), 10, 1);
        assert_eq!(t.bytes_touched * 2, h.bytes_touched);
        let cz = gate_traffic(&compiled_one(GateKind::CZ, &[3, 5], &[], 10), 10, 1);
        let rxx = gate_traffic(&compiled_one(GateKind::RXX, &[3, 5], &[0.1], 10), 10, 1);
        assert_eq!(cz.bytes_touched * 4, rxx.bytes_touched);
    }

    #[test]
    fn summit_scale_products_saturate_instead_of_wrapping() {
        // H on the top qubit of a 63-qubit state: 2^62 work items. The
        // amp-op and byte products exceed u64 and must clamp at MAX (they
        // previously wrapped — a debug-build panic, a silently tiny
        // estimate in release).
        let cg = compiled_one(GateKind::H, &[62], &[], 63);
        assert_eq!(cg.args.work, 1u64 << 62);
        let t = gate_traffic(&cg, 63, 1024);
        assert_eq!(t.items, 1u64 << 62);
        assert_eq!(t.bytes_touched, u64::MAX, "2^62 * 64 must saturate");
        assert!(t.remote_amp_ops > 0, "top qubit crosses every boundary");
        // Aggregating two such gates must also clamp, not wrap.
        let sum = t.merged(&t);
        assert_eq!(sum.bytes_touched, u64::MAX);
        assert_eq!(sum.items, 1u64 << 63);
    }
}
