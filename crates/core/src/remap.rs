//! Locality-aware qubit remapping for the scale-out backend.
//!
//! The scale-out partition boundary sits at physical qubit position
//! `boundary = n_qubits - log2(n_pes)`: a kernel whose involved qubit
//! positions are all below it never leaves its PE's partition (the item
//! bits reaching the partition-index range are the item's top bits, which
//! equal the PE rank). The mpiQulacs observation is that instead of paying
//! word-at-a-time remote traffic for every gate that touches a high
//! position, the executor can *relabel*: maintain a logical→physical qubit
//! permutation, and before such a gate, swap the high physical position
//! with a cold low one. The relabeling swap is itself a SWAP on the state,
//! but it moves amplitudes in long contiguous runs — a pairwise in-place
//! slab swap between partner PEs, one barrier epoch each
//! ([`crate::view::ShmemView::exchange`]) — so a deep circuit pays a
//! handful of bulk epochs instead of per-word traffic on every gate.
//!
//! This module is the *planner*: it is pure (no SHMEM), deterministic, and
//! run exactly once per segment, by the lowering
//! ([`crate::plan`]): the executor, the traffic model, the performance
//! model and the static analyzer all read the relabeling exchanges out of
//! the lowered [`crate::CompiledPlan`], never from a planner run of their
//! own. Its one other item, [`unpermute_into`], is the readback's half: the
//! host reads a segment's final layout back into logical order straight
//! from the partitions the PEs left on the symmetric heap.
//!
//! The policy is communication-cost-driven rather than purely positional:
//!
//! - **Absorption**: an unconditional `SWAP` gate *is* a relabeling, so it
//!   becomes a pure layout update — no kernel, no traffic (the QFT's
//!   bit-reversal swaps vanish entirely).
//! - **Amortized localization**: a relabeling exchange costs a fixed
//!   `8·dim` bytes on the fabric. A gate touching a partition-index
//!   position is only worth localizing when the word-level remote bytes it
//!   and the upcoming gates on the same qubit would pay (forward scan,
//!   window-capped) cover that exchange. Cheap one-off gates (e.g. a lone
//!   controlled-phase) simply run remote.
//! - **Belady eviction**: the low position surrendered to an incoming
//!   qubit is the one whose logical occupant is needed *furthest in the
//!   future* — the provably optimal eviction rule, which is what prevents
//!   the swap thrashing an LRU clock exhibits on cyclic gate patterns
//!   (QFT stages, ring entanglers).
//! - **Home restore at collapse**: the partial-probability reduction is
//!   the canonical pairwise tree over *logical* indices
//!   ([`svsim_types::numeric`]), which each PE can evaluate locally as
//!   long as the layout is *block-preserving* — low logical qubits at low
//!   physical positions and high at high, in any order within each side.
//!   So `Measure`/`Reset` are preceded only by the exchanges homing
//!   *straddling* qubits (see `restore_home`); same-side scrambles cost
//!   nothing. The plan snapshots the layout at each collapse so the
//!   executor can walk its partition in logical order and deposit its
//!   partial into the logically-indexed reduction slot.

use crate::compile::CompiledGate;
use svsim_ir::{Gate, GateKind, Op};
use svsim_shmem::SharedF64Vec;

/// A logical→physical qubit permutation.
///
/// The amplitude of logical basis state `b` is stored at physical index
/// `P(b) = Σ_q bit_q(b) << phys_of[q]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitLayout {
    /// Physical position of each logical qubit.
    phys_of: Vec<u32>,
    /// Logical qubit at each physical position (inverse of `phys_of`).
    log_of: Vec<u32>,
}

impl QubitLayout {
    /// The identity layout over `n_qubits`.
    #[must_use]
    pub fn identity(n_qubits: u32) -> Self {
        Self {
            phys_of: (0..n_qubits).collect(),
            log_of: (0..n_qubits).collect(),
        }
    }

    /// Physical position of logical qubit `q`.
    #[must_use]
    pub fn phys(&self, q: u32) -> u32 {
        self.phys_of[q as usize]
    }

    /// Logical qubit at physical position `p`.
    #[must_use]
    pub fn logical(&self, p: u32) -> u32 {
        self.log_of[p as usize]
    }

    /// True if the layout is the identity permutation.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.phys_of.iter().enumerate().all(|(q, &p)| q as u32 == p)
    }

    /// Number of qubits.
    #[must_use]
    pub fn n_qubits(&self) -> u32 {
        self.phys_of.len() as u32
    }

    /// Swap the logical qubits at physical positions `a` and `b`.
    pub fn swap_phys(&mut self, a: u32, b: u32) {
        let (la, lb) = (self.log_of[a as usize], self.log_of[b as usize]);
        self.log_of[a as usize] = lb;
        self.log_of[b as usize] = la;
        self.phys_of[la as usize] = b;
        self.phys_of[lb as usize] = a;
    }

    /// Physical index holding the amplitude of logical basis state `b`.
    #[must_use]
    pub fn physical_index(&self, b: u64) -> u64 {
        if self.is_identity() {
            return b;
        }
        let mut p = 0u64;
        for (q, &pos) in self.phys_of.iter().enumerate() {
            p |= ((b >> q) & 1) << pos;
        }
        p
    }
}

/// The precomputed remapped schedule of one op stream.
#[derive(Debug, Clone)]
pub struct RemapPlan {
    /// Remapped ops (`Barrier` ops dropped so entry `i` aligns 1:1 with
    /// the executor's step `i` and with `pre_swaps[i]`). Gate qubits are
    /// rewritten to physical positions; `Measure`/`Reset` keep their
    /// *logical* qubit — the executor translates through the layout
    /// snapshot in `measure_layouts`.
    pub ops: Vec<Op>,
    /// Aligned 1:1 with `ops`: the index in the planner's *input* stream of
    /// the op each entry came from (barriers and absorbed SWAPs leave gaps).
    pub source_ops: Vec<usize>,
    /// Relabeling swaps `(low, high)` of physical positions to run before
    /// each op (empty for most).
    pub pre_swaps: Vec<Vec<(u32, u32)>>,
    /// Aligned 1:1 with `ops`: the (block-preserving, post-`pre_swaps`)
    /// layout at each `Measure`/`Reset` step, `None` elsewhere.
    pub measure_layouts: Vec<Option<QubitLayout>>,
    /// Layout after the last op — the readback un-permutation.
    pub final_layout: QubitLayout,
    /// Total relabeling swaps emitted.
    pub n_swaps: usize,
}

/// Cap on the forward scan of the amortization heuristic. A relabeled
/// qubit surviving this many ops without eviction is already far past the
/// break-even point, so scanning further only costs planning time.
const SCAN_WINDOW: usize = 256;

/// Gap cutoff for the forward scan: stop accumulating benefit once this
/// many consecutive data ops pass without touching the candidate qubit.
/// Uses beyond such a gap are better served by a *later* localization
/// placed just before that use cluster — crediting them now triggers
/// swap-in/evict churn long before the cluster arrives.
const GAP_WINDOW: usize = 32;

/// Word-level remote bytes `g` would pay executed at its current physical
/// positions. Heuristic pricing only (always specialized kernels): the
/// plan must be identical for every consumer regardless of their own
/// dispatch settings, and the actual execution compiles with the real
/// flags either way.
fn mapped_remote_bytes(
    g: &Gate,
    layout: &QubitLayout,
    n_qubits: u32,
    n_pes: u64,
    scratch: &mut Vec<CompiledGate>,
) -> u64 {
    scratch.clear();
    crate::compile::compile_gate(&map_gate(g, layout), n_qubits, true, scratch);
    scratch
        .iter()
        .map(|cg| crate::traffic::gate_traffic(cg, n_qubits, n_pes).remote_bytes)
        .fold(0u64, u64::saturating_add)
}

/// Localize `g`'s partition-index qubits when amortization favors it;
/// returns the exchanges emitted (and applied to `layout`).
#[allow(clippy::too_many_arguments)]
fn localize(
    g: &Gate,
    at: usize,
    ops: &[Op],
    layout: &mut QubitLayout,
    boundary: u32,
    n_qubits: u32,
    n_pes: u64,
    swap_cost: u64,
    uses: &[Vec<usize>],
    use_ptr: &[usize],
    scratch: &mut Vec<CompiledGate>,
) -> Vec<(u32, u32)> {
    let mut swaps = Vec::new();
    if g.qubits().len() as u32 > boundary {
        return swaps; // cannot fit below the boundary; run as-is
    }
    for &q in g.qubits() {
        let p = layout.phys(q);
        if p < boundary {
            continue;
        }
        // Benefit of relabeling `q`: the remote bytes this gate and the
        // upcoming gates on `q` would pay at the current layout. The scan
        // stops at the window cap, at a use gap (far-future clusters are
        // better served by a later localization; see GAP_WINDOW), or as
        // soon as the benefit covers one exchange. Measure/Reset only
        // re-home straddlers, so the layout survives them and the scan
        // continues past. Conditional payloads are priced as-if executed,
        // same as the naive predictor.
        let mut benefit = mapped_remote_bytes(g, layout, n_qubits, n_pes, scratch);
        if benefit < swap_cost {
            let mut gap = 0usize;
            for op in ops.iter().skip(at + 1).take(SCAN_WINDOW) {
                let fg = match op {
                    Op::Gate(fg) if fg.kind() != GateKind::SWAP => Some(fg),
                    Op::IfEq { gate, .. } => Some(gate),
                    Op::Measure { .. } | Op::Reset { .. } => None,
                    _ => continue, // barriers and absorbed swaps touch no data
                };
                match fg.filter(|fg| fg.qubits().contains(&q)) {
                    Some(fg) => {
                        gap = 0;
                        benefit = benefit.saturating_add(mapped_remote_bytes(
                            fg, layout, n_qubits, n_pes, scratch,
                        ));
                        if benefit >= swap_cost {
                            break;
                        }
                    }
                    None => {
                        gap += 1;
                        if gap > GAP_WINDOW {
                            break;
                        }
                    }
                }
            }
        }
        if benefit < swap_cost {
            continue; // cheaper to keep paying word-level remote traffic
        }
        // Belady eviction: surrender the low position whose logical
        // occupant is needed furthest in the future (ideally never again);
        // ties break toward the higher position, which keeps exchange
        // runs long.
        let victim = (0..boundary)
            .filter(|&pos| !g.qubits().contains(&layout.logical(pos)))
            .max_by_key(|&pos| {
                let l = layout.logical(pos) as usize;
                (uses[l].get(use_ptr[l]).copied().unwrap_or(usize::MAX), pos)
            })
            .expect("gate fits below the boundary, so a free slot exists");
        swaps.push((victim, p));
        layout.swap_phys(victim, p);
    }
    swaps
}

/// Cross-boundary exchange sequence making `layout` block-preserving
/// (applied to `layout`; empty if already homed): every low logical qubit
/// at a low physical position and every high logical at a high one, in any
/// order *within* each side.
///
/// That is exactly what the measurement path needs for bit-identity: the
/// collapse probability is the canonical pairwise tree over *logical*
/// indices, and under a block-preserving layout each PE's partition is one
/// logical-top-value subcube — the PE walks it in logical order locally
/// and the cross-PE combine reproduces the single-device sum bit-for-bit
/// (see [`crate::measure::partial_prob_one`]). Same-side scrambles
/// are absorbed by that walk for free; only straddlers cost an exchange,
/// and each exchange homes one stranded qubit from each side.
///
/// When every position sits on one side of the boundary (`n_pes == 1` or
/// `n_pes == dim`) no cross pair exists; the layout is left as-is — the
/// executor never runs those configurations remapped.
fn restore_home(layout: &mut QubitLayout, boundary: u32) -> Vec<(u32, u32)> {
    let n = layout.n_qubits();
    let mut out = Vec::new();
    if boundary == 0 || boundary >= n {
        return out;
    }
    // Straddlers pair up across the boundary: a low logical stranded high
    // implies a high logical stranded low.
    while let Some(q) = (0..boundary).find(|&q| layout.phys(q) >= boundary) {
        let r = (boundary..n)
            .find(|&r| layout.phys(r) < boundary)
            .expect("straddling qubits pair across the boundary");
        let (lo, hi) = (layout.phys(r), layout.phys(q));
        out.push((lo, hi));
        layout.swap_phys(lo, hi);
    }
    out
}

/// Plan the remapped execution of `ops` over `n_qubits` qubits at `n_pes`
/// partitions (power of two). See the module docs for the policy.
///
/// # Panics
/// If `n_pes` is not a power of two or exceeds the state dimension.
#[must_use]
pub fn plan_remap(ops: &[Op], n_qubits: u32, n_pes: u64) -> RemapPlan {
    assert!(n_pes.is_power_of_two(), "PE count must be a power of two");
    let k = n_pes.trailing_zeros();
    assert!(k <= n_qubits);
    let boundary = n_qubits - k;
    let swap_cost = crate::traffic::exchange_traffic(n_qubits, n_pes).remote_bytes;

    // Per-qubit use lists for the Belady rule: indices of ops that touch
    // the qubit's *data* (absorbed SWAP relabelings touch nothing).
    let mut uses: Vec<Vec<usize>> = vec![Vec::new(); n_qubits as usize];
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Gate(g) => {
                if g.kind() == GateKind::SWAP {
                    continue;
                }
                for &q in g.qubits() {
                    uses[q as usize].push(i);
                }
            }
            Op::IfEq { gate, .. } => {
                for &q in gate.qubits() {
                    uses[q as usize].push(i);
                }
            }
            Op::Measure { qubit, .. } | Op::Reset { qubit } => uses[*qubit as usize].push(i),
            Op::Barrier(_) => {}
        }
    }
    let mut use_ptr = vec![0usize; n_qubits as usize];

    let mut layout = QubitLayout::identity(n_qubits);
    let mut out_ops: Vec<Op> = Vec::with_capacity(ops.len());
    let mut source_ops: Vec<usize> = Vec::with_capacity(ops.len());
    let mut pre_swaps: Vec<Vec<(u32, u32)>> = Vec::with_capacity(ops.len());
    let mut measure_layouts: Vec<Option<QubitLayout>> = Vec::with_capacity(ops.len());
    let mut scratch: Vec<CompiledGate> = Vec::new();

    for (i, op) in ops.iter().enumerate() {
        // Advance every next-use cursor past this op.
        for (q, ptr) in use_ptr.iter_mut().enumerate() {
            while *ptr < uses[q].len() && uses[q][*ptr] <= i {
                *ptr += 1;
            }
        }
        match op {
            Op::Barrier(_) => {} // scheduling hint; the executor skips it too
            Op::Gate(g) if g.kind() == GateKind::SWAP => {
                // A SWAP gate *is* a relabeling: absorb it into the layout
                // — no kernel, no traffic. Readback un-permutes, and any
                // later Measure/Reset restores the identity layout first,
                // so semantics are untouched.
                let (a, b) = (g.qubits()[0], g.qubits()[1]);
                layout.swap_phys(layout.phys(a), layout.phys(b));
            }
            Op::Gate(g) => {
                let swaps = localize(
                    g,
                    i,
                    ops,
                    &mut layout,
                    boundary,
                    n_qubits,
                    n_pes,
                    swap_cost,
                    &uses,
                    &use_ptr,
                    &mut scratch,
                );
                source_ops.push(i);
                out_ops.push(Op::Gate(map_gate(g, &layout)));
                pre_swaps.push(swaps);
                measure_layouts.push(None);
            }
            Op::IfEq {
                creg_lo,
                creg_len,
                value,
                gate,
            } => {
                // The relabeling swaps run unconditionally (pure data
                // movement, semantically neutral); only the payload gate
                // stays conditional.
                let swaps = localize(
                    gate,
                    i,
                    ops,
                    &mut layout,
                    boundary,
                    n_qubits,
                    n_pes,
                    swap_cost,
                    &uses,
                    &use_ptr,
                    &mut scratch,
                );
                source_ops.push(i);
                out_ops.push(Op::IfEq {
                    creg_lo: *creg_lo,
                    creg_len: *creg_len,
                    value: *value,
                    gate: map_gate(gate, &layout),
                });
                pre_swaps.push(swaps);
                measure_layouts.push(None);
            }
            Op::Measure { qubit, cbit } => {
                let swaps = restore_home(&mut layout, boundary);
                source_ops.push(i);
                out_ops.push(Op::Measure {
                    qubit: *qubit, // logical; the executor maps via the snapshot
                    cbit: *cbit,
                });
                pre_swaps.push(swaps);
                measure_layouts.push(Some(layout.clone()));
            }
            Op::Reset { qubit } => {
                let swaps = restore_home(&mut layout, boundary);
                source_ops.push(i);
                out_ops.push(Op::Reset { qubit: *qubit });
                pre_swaps.push(swaps);
                measure_layouts.push(Some(layout.clone()));
            }
        }
    }
    let n_swaps = pre_swaps.iter().map(Vec::len).sum();
    RemapPlan {
        ops: out_ops,
        source_ops,
        pre_swaps,
        measure_layouts,
        final_layout: layout,
        n_swaps,
    }
}

/// Rewrite a gate's qubits to their physical positions.
fn map_gate(g: &Gate, layout: &QubitLayout) -> Gate {
    let mapped: Vec<u32> = g.qubits().iter().map(|&q| layout.phys(q)).collect();
    Gate::new(g.kind(), &mapped, g.params()).expect("remap preserves gate validity")
}

/// Gather one plane of a state held in `layout`'s physical order, cut into
/// equal power-of-two symmetric partitions `parts` (by rank), into
/// `logical` in logical order: afterwards index `b` holds the amplitude of
/// logical basis state `b`. Without a layout, or with the identity, the
/// partitions are copied as they stand.
///
/// [`QubitLayout::physical_index`] moves every bit of `b` on its own, so it
/// is the OR of its values on the low and the high half of `b`'s bits: two
/// tables of `2^(n/2)` entries replace a loop over all `n` qubits per
/// amplitude, and each amplitude is read once, from the partition holding
/// it.
///
/// # Panics
/// If the partitions are not equally long powers of two that together
/// hold exactly `logical.len()` amplitudes.
pub fn unpermute_into(layout: Option<&QubitLayout>, parts: &[SharedF64Vec], logical: &mut [f64]) {
    let per = parts[0].len();
    assert!(per.is_power_of_two() && parts.iter().all(|p| p.len() == per));
    assert_eq!(per * parts.len(), logical.len());
    let Some(layout) = layout.filter(|l| !l.is_identity()) else {
        for (dst, src) in logical.chunks_exact_mut(per).zip(parts) {
            src.load_slice(0, dst);
        }
        return;
    };
    let n = layout.n_qubits();
    debug_assert_eq!(logical.len() as u64, 1 << n);
    let half = n / 2;
    let table = |bits: u32, shift: u32| -> Vec<usize> {
        (0..1u64 << bits)
            .map(|b| layout.physical_index(b << shift) as usize)
            .collect()
    };
    let (lo, hi) = (table(half, 0), table(n - half, half));
    let (shift, mask) = (per.trailing_zeros(), per - 1);
    for (block, &h) in logical.chunks_exact_mut(lo.len()).zip(&hi) {
        for (dst, &l) in block.iter_mut().zip(&lo) {
            let p = h | l;
            *dst = parts[p >> shift].load(p & mask);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svsim_ir::{Circuit, GateKind};

    #[test]
    fn layout_swap_roundtrip() {
        let mut l = QubitLayout::identity(4);
        assert!(l.is_identity());
        l.swap_phys(0, 3);
        assert_eq!(l.phys(0), 3);
        assert_eq!(l.phys(3), 0);
        assert_eq!(l.logical(3), 0);
        assert!(!l.is_identity());
        l.swap_phys(0, 3);
        assert!(l.is_identity());
    }

    #[test]
    fn physical_index_follows_the_permutation() {
        let mut l = QubitLayout::identity(3);
        l.swap_phys(0, 2); // logical 0 at position 2, logical 2 at position 0
                           // Logical |001> (q0 set) lives at physical bit 2 -> index 0b100.
        assert_eq!(l.physical_index(0b001), 0b100);
        assert_eq!(l.physical_index(0b100), 0b001);
        assert_eq!(l.physical_index(0b010), 0b010);
    }

    #[test]
    fn high_qubit_gates_are_localized() {
        // n=4 at 4 PEs: boundary = 2. A gate on qubit 3 must be preceded by
        // a swap pulling it below the boundary.
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[3], &[]).unwrap();
        let plan = plan_remap(c.ops(), 4, 4);
        assert_eq!(plan.n_swaps, 1);
        assert_eq!(plan.pre_swaps[0].len(), 1);
        let (lo, hi) = plan.pre_swaps[0][0];
        assert!(lo < 2 && hi == 3);
        // The gate now targets the low position it was swapped into.
        let Op::Gate(g) = &plan.ops[0] else {
            panic!("gate expected")
        };
        assert_eq!(g.qubits(), &[lo]);
        assert!(!plan.final_layout.is_identity());
    }

    #[test]
    fn low_gates_never_swap_and_reuse_is_cheap() {
        // Repeated gates on the same high qubit pay one swap, not one per
        // gate — the relabeled position persists.
        let mut c = Circuit::new(5);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::H, &[4], &[]).unwrap();
        c.apply(GateKind::T, &[4], &[]).unwrap();
        c.apply(GateKind::H, &[4], &[]).unwrap();
        let plan = plan_remap(c.ops(), 5, 4);
        assert_eq!(plan.n_swaps, 1, "one localization serves the whole run");
        assert!(plan.pre_swaps[0].is_empty(), "low gate needs no swap");
    }

    #[test]
    fn victim_has_furthest_next_use() {
        // n=5 at 2 PEs: boundary = 4. Qubits 1..4 are all used again after
        // the H(4); qubit 0 never is, so localizing qubit 4 must evict
        // logical 0 (the Belady choice), not merely the coldest-so-far.
        let mut c = Circuit::new(5);
        for q in 0..5 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        for q in 1..4 {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        let plan = plan_remap(c.ops(), 5, 2);
        assert_eq!(plan.pre_swaps[4], vec![(0, 4)]);
        assert_eq!(plan.final_layout.phys(4), 0);
        assert_eq!(plan.final_layout.phys(0), 4);
        assert_eq!(plan.n_swaps, 1, "the re-used low qubits never swap");
    }

    #[test]
    fn swap_gates_are_absorbed_into_the_layout() {
        // A SWAP is pure relabeling: no step, no exchange — just a
        // permanent layout update that readback un-permutes.
        let mut c = Circuit::new(4);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.apply(GateKind::SWAP, &[0, 1], &[]).unwrap();
        let plan = plan_remap(c.ops(), 4, 2);
        assert_eq!(plan.ops.len(), 1, "the SWAP vanished from the stream");
        assert_eq!(plan.n_swaps, 0);
        assert_eq!(plan.final_layout.phys(0), 1);
        assert_eq!(plan.final_layout.phys(1), 0);
    }

    #[test]
    fn cheap_lone_gates_are_not_worth_an_exchange() {
        // n=6 at 8 PEs: one CU1 touching the top qubit costs 448 remote
        // bytes word-level but an exchange costs 512 — so a lone CU1 runs
        // remote as-is...
        let mut c = Circuit::new(6);
        c.apply(GateKind::CU1, &[0, 5], &[0.3]).unwrap();
        let plan = plan_remap(c.ops(), 6, 8);
        assert_eq!(plan.n_swaps, 0);
        let Op::Gate(g) = &plan.ops[0] else {
            panic!("gate expected")
        };
        assert_eq!(g.qubits(), &[0, 5], "gate keeps its physical positions");

        // ...but two of them amortize one exchange, so the first gate
        // localizes and the second rides along for free.
        c.apply(GateKind::CU1, &[0, 5], &[0.3]).unwrap();
        let plan = plan_remap(c.ops(), 6, 8);
        assert_eq!(plan.n_swaps, 1);
        assert_eq!(plan.pre_swaps[0].len(), 1);
        assert!(plan.pre_swaps[1].is_empty());
    }

    #[test]
    fn measurement_homes_straddling_qubits() {
        // boundary = 2. Localizing qubit 3 leaves a low logical stranded
        // high; the measure is preceded by exactly the one exchange homing
        // the pair, the snapshot records the block-preserving layout, and
        // the op keeps its logical qubit.
        let mut c = Circuit::with_cbits(4, 1);
        c.apply(GateKind::H, &[3], &[]).unwrap();
        c.measure(0, 0).unwrap();
        let plan = plan_remap(c.ops(), 4, 4);
        assert_eq!(plan.pre_swaps[1].len(), 1, "one exchange homes the pair");
        assert_eq!(plan.ops[1], Op::Measure { qubit: 0, cbit: 0 });
        let lay = plan.measure_layouts[1]
            .as_ref()
            .expect("snapshot at measure");
        for q in 0..4 {
            assert_eq!(lay.phys(q) < 2, q < 2, "block-preserving at collapse");
        }
        assert!(plan.measure_layouts[0].is_none(), "gates carry no snapshot");
    }

    #[test]
    fn same_side_scrambles_cost_nothing_at_collapse() {
        // boundary = 2. An absorbed SWAP(0, 1) (or SWAP(2, 3)) leaves a
        // same-side displacement, which the logical-order measurement walk
        // absorbs for free — no restore exchanges at all.
        for (a, b) in [(0u32, 1u32), (2, 3)] {
            let mut c = Circuit::with_cbits(4, 1);
            c.apply(GateKind::SWAP, &[a, b], &[]).unwrap();
            c.measure(0, 0).unwrap();
            let plan = plan_remap(c.ops(), 4, 4);
            assert_eq!(plan.n_swaps, 0, "swap ({a},{b})");
            let lay = plan.measure_layouts[0].as_ref().expect("snapshot");
            assert_eq!(lay.phys(a), b, "scramble survives the measure");
        }
    }

    #[test]
    fn straddler_pairs_home_with_one_exchange_each() {
        // boundary = 2 at 4 PEs. Absorbed SWAPs stranding two pairs across
        // the boundary (0<->2, 1<->3) home with exactly two exchanges.
        let mut c = Circuit::with_cbits(4, 1);
        c.apply(GateKind::SWAP, &[0, 2], &[]).unwrap();
        c.apply(GateKind::SWAP, &[1, 3], &[]).unwrap();
        c.measure(0, 0).unwrap();
        let plan = plan_remap(c.ops(), 4, 4);
        assert_eq!(plan.pre_swaps[0].len(), 2);
        for &(lo, hi) in &plan.pre_swaps[0] {
            assert!(lo < 2 && hi >= 2, "every exchange crosses the boundary");
        }
        let lay = plan.measure_layouts[0].as_ref().expect("snapshot");
        for q in 0..4 {
            assert_eq!(lay.phys(q) < 2, q < 2);
        }
    }

    #[test]
    fn too_wide_gates_run_unmapped() {
        // n=3 at 4 PEs: boundary = 1; a 2-qubit gate cannot fit below it.
        let mut c = Circuit::new(3);
        c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        let plan = plan_remap(c.ops(), 3, 4);
        assert_eq!(plan.n_swaps, 0);
        let Op::Gate(g) = &plan.ops[0] else {
            panic!("gate expected")
        };
        assert_eq!(g.qubits(), &[1, 2], "gate keeps its physical positions");
    }

    #[test]
    fn barriers_are_dropped_for_step_alignment() {
        let mut c = Circuit::new(2);
        c.apply(GateKind::H, &[0], &[]).unwrap();
        c.barrier(&[]);
        c.apply(GateKind::X, &[1], &[]).unwrap();
        let plan = plan_remap(c.ops(), 2, 1);
        assert_eq!(plan.ops.len(), 2);
        assert_eq!(plan.pre_swaps.len(), 2);
    }

    /// A symmetric partition holding `words`.
    fn shared(words: &[f64]) -> SharedF64Vec {
        let part = SharedF64Vec::new(words.len(), 0.0);
        part.store_slice(0, words);
        part
    }

    #[test]
    fn unpermute_restores_logical_order() {
        // Physical layout with logical 0 <-> 2 swapped on 3 qubits: the
        // amplitude of |001> sits at physical 0b100.
        let mut l = QubitLayout::identity(3);
        l.swap_phys(0, 2);
        let mut re: Vec<f64> = vec![0.0; 8];
        let mut im = vec![0.0; 8];
        re[0b100] = 0.25; // logical |001>
        im[0b001] = 0.5; // logical |100>
        let (phys_re, phys_im) = (shared(&re), shared(&im));
        unpermute_into(Some(&l), &[phys_re], &mut re);
        unpermute_into(Some(&l), &[phys_im], &mut im);
        assert_eq!(re[0b001], 0.25);
        assert_eq!(im[0b100], 0.5);
    }

    #[test]
    fn unpermute_matches_physical_index_on_a_scrambled_layout() {
        // Odd width, so the two lookup tables differ in size.
        let n = 7u32;
        let mut l = QubitLayout::identity(n);
        for (a, b) in [(0, 6), (2, 3), (5, 1), (6, 4)] {
            l.swap_phys(a, b);
        }
        let phys_re: Vec<f64> = (0..1u32 << n).map(f64::from).collect();
        let phys_im: Vec<f64> = phys_re.iter().map(|x| -x).collect();
        // Read from four partitions, as a readback from four PEs does.
        let (pe_re, pe_im): (Vec<_>, Vec<_>) = (phys_re.chunks(1 << (n - 2)))
            .zip(phys_im.chunks(1 << (n - 2)))
            .map(|(re, im)| (shared(re), shared(im)))
            .unzip();
        let (mut re, mut im) = (vec![0.0; 1 << n], vec![0.0; 1 << n]);
        unpermute_into(Some(&l), &pe_re, &mut re);
        unpermute_into(Some(&l), &pe_im, &mut im);
        for b in 0..1u64 << n {
            let p = l.physical_index(b) as usize;
            assert_eq!((re[b as usize], im[b as usize]), (phys_re[p], phys_im[p]));
        }
    }
}
