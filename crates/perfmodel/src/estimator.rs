//! Circuit latency estimation on modeled platforms.
//!
//! The estimator prices a [`CompiledPlan`] — the lowering a run executes —
//! on a [`DeviceSpec`] + [`InterconnectSpec`] pair. Every pricing function
//! is one pass over [`CompiledPlan::schedule`] with one rule per entry: a
//! kernel (conditional ones as executed) from the *exact* traffic counts of
//! `svsim-core::traffic` (bytes touched, flops, remote amplitude operations
//! at a given partitioning), a relabeling slab exchange of a remapped
//! scale-out plan from `exchange_traffic`, and a measure/reset collapse at
//! no cost. Per kernel:
//!
//! ```text
//! t = overhead + dispatch_penalty
//!   + max(local_bytes / device_bw, flops / device_flops)   (roofline)
//!   + remote_bytes / aggregate_fabric_bw + msgs * gap       (communication)
//!   + barrier(workers)                                      (synchronization)
//! ```

use crate::platform::{DeviceSpec, InterconnectSpec};
use svsim_core::compile::CompiledGate;
use svsim_core::traffic::{exchange_traffic, gate_traffic, GateTraffic};
use svsim_core::{CompiledPlan, Scheduled, SimConfig};
use svsim_ir::Circuit;

/// Estimated latency breakdown, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Roofline compute/memory time.
    pub compute_s: f64,
    /// Communication time (remote traffic).
    pub comm_s: f64,
    /// Synchronization (per-gate barriers, launch floors, dispatch).
    pub sync_s: f64,
}

impl LatencyBreakdown {
    /// Total latency.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s + self.sync_s
    }
}

/// The one pass every pricing function makes over a plan: `kernel` prices
/// each compiled kernel the plan runs, `exchange` each relabeling slab
/// exchange `(lo, hi)`, and a measure/reset collapse costs nothing.
pub(crate) fn fold(
    plan: &CompiledPlan,
    mut kernel: impl FnMut(&CompiledGate, &mut LatencyBreakdown),
    mut exchange: impl FnMut(u32, u32, &mut LatencyBreakdown),
) -> LatencyBreakdown {
    let mut out = LatencyBreakdown::default();
    for item in plan.schedule() {
        match item {
            Scheduled::Kernel { cg, .. } => kernel(cg, &mut out),
            Scheduled::Exchange { lo, hi } => exchange(lo, hi, &mut out),
            Scheduled::Collapse => {}
        }
    }
    out
}

/// The exchange rule of every backend but [`scale_out`]: only a remapped
/// scale-out plan carries exchanges, and only that backend prices one.
pub(crate) fn no_exchange(_: u32, _: u32, _: &mut LatencyBreakdown) {
    panic!("a remapped plan is priced by scale_out, at the PE count it was lowered for");
}

/// One worker's roofline on `dev`: its `1 / workers` share of the state
/// streams at cache bandwidth when that share fits in the device's cache,
/// at memory bandwidth otherwise.
pub(crate) struct Roofline {
    bw: f64,
    flops_rate: f64,
    w: f64,
}

impl Roofline {
    pub(crate) fn new(dev: &DeviceSpec, n_qubits: u32, workers: u64) -> Self {
        let state_bytes = 16.0 * (1u64 << n_qubits) as f64 / workers as f64;
        let in_cache = state_bytes < dev.cache_mib * 1024.0 * 1024.0 && dev.cache_mib > 0.0;
        let bw = if in_cache {
            dev.cache_bw_gbps
        } else {
            dev.mem_bw_gbps
        } * 1e9;
        Self {
            bw,
            flops_rate: dev.flops_gflops * 1e9,
            w: workers as f64,
        }
    }

    /// One worker's share of `t`: its local bytes at the roofline's
    /// bandwidth or its flops at the device rate, whichever takes longer
    /// (remote bytes are the fabric's to move).
    pub(crate) fn time(&self, t: &GateTraffic) -> f64 {
        let local_bytes = (t.bytes_touched as f64 - t.remote_bytes as f64).max(0.0) / self.w;
        (local_bytes / self.bw).max(t.flops as f64 / self.flops_rate / self.w)
    }
}

/// Single-device latency (Fig. 6).
///
/// # Panics
/// If `plan` is a remapped scale-out plan with relabeling exchanges.
#[must_use]
pub fn single_device(dev: &DeviceSpec, plan: &CompiledPlan) -> LatencyBreakdown {
    let n_qubits = plan.n_qubits();
    let roof = Roofline::new(dev, n_qubits, 1);
    fold(
        plan,
        |cg, out| {
            out.compute_s += roof.time(&gate_traffic(cg, n_qubits, 1));
            out.sync_s += (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6;
        },
        no_exchange,
    )
}

/// Scale-up latency over `n_workers` same-node partitions (Figs. 7-11).
///
/// All workers advance in lockstep (the cooperative-grid / OpenMP model),
/// so per-gate time is the *slowest* worker; with even partitioning that is
/// the per-worker average plus the shared fabric term.
///
/// # Panics
/// If `plan` is a remapped scale-out plan with relabeling exchanges.
#[must_use]
pub fn scale_up(
    dev: &DeviceSpec,
    ic: &InterconnectSpec,
    plan: &CompiledPlan,
    n_workers: u64,
) -> LatencyBreakdown {
    let n_qubits = plan.n_qubits();
    let roof = Roofline::new(dev, n_qubits, n_workers);
    let fabric_bw = ic.aggregate_bw(n_workers) * 1e9;
    let w = n_workers as f64;
    let barrier_s =
        (ic.barrier_us_per_log * w.log2().max(0.0) + ic.barrier_us_per_worker * w) * 1e-6;
    fold(
        plan,
        |cg, out| {
            let t = gate_traffic(cg, n_qubits, n_workers);
            out.compute_s += roof.time(&t);
            // Remote traffic shares the fabric; fine-grained messages
            // pipeline with per-message gap paid by the issuing worker.
            let msgs_per_worker = t.remote_amp_ops as f64 / w;
            out.comm_s +=
                t.remote_bytes as f64 / fabric_bw + msgs_per_worker * ic.msg_gap_us * 1e-6;
            out.sync_s += (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6 + barrier_s;
        },
        no_exchange,
    )
}

/// Scale-out latency over `n_pes` PEs grouped `pes_per_node` to a node
/// (Figs. 12-13). Intra-node remote traffic moves at `intra_bw_gbps`;
/// inter-node traffic shares the fat-tree injection links. A remapped plan
/// (`SimConfig::remap`) prices its bulk slab exchanges where the lowering
/// relabels and its localized kernels everywhere else — compare it against
/// the unremapped plan of the same circuit to see the communication
/// avoidance payoff at Summit scale.
///
/// # Panics
/// If `plan` was remapped for a PE count other than `n_pes`.
#[must_use]
pub fn scale_out(
    dev: &DeviceSpec,
    ic: &InterconnectSpec,
    plan: &CompiledPlan,
    n_pes: u64,
    pes_per_node: u64,
    intra_bw_gbps: f64,
) -> LatencyBreakdown {
    assert!(
        plan.remap_pes() == 0 || plan.remap_pes() == n_pes,
        "a plan remapped for {} PEs priced at {n_pes}",
        plan.remap_pes()
    );
    let n_qubits = plan.n_qubits();
    let nodes = n_pes.div_ceil(pes_per_node);
    let roof = Roofline::new(dev, n_qubits, n_pes);
    let w = n_pes as f64;
    let barrier_s = ic.barrier_us_per_log * w.log2().max(0.0) * 1e-6;
    let inter_bw = ic.aggregate_bw(nodes) * 1e9;
    let intra_bw = intra_bw_gbps * 1e9 * nodes as f64;
    let msg_gap_s = ic.msg_gap_us * 1e-6;
    fold(
        plan,
        |cg, out| {
            let (total, inter) = split_traffic(cg, n_qubits, n_pes, pes_per_node);
            out.compute_s += roof.time(&total);
            let intra_bytes = total.remote_bytes.saturating_sub(inter) as f64;
            let msgs_per_pe = total.remote_amp_ops as f64 / w;
            out.comm_s +=
                intra_bytes / intra_bw + inter as f64 / inter_bw + msgs_per_pe * msg_gap_s;
            out.sync_s += (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6 + barrier_s;
        },
        // The exchange swaps half of each PE's partition with its unique
        // partner's, in place, in runs of `2^lo` amplitudes — few long
        // messages instead of per-word traffic — in one barrier epoch.
        |lo, hi, out| {
            let t = exchange_traffic(n_qubits, n_pes);
            out.compute_s += roof.time(&t);
            // The partner differs in exactly one partition-index bit; when
            // that bit lies at/above the node grouping the whole slab
            // crosses nodes.
            let pe_bit = hi - (n_qubits - n_pes.trailing_zeros());
            let inter_node = u64::from(pe_bit) >= u64::from(pes_per_node.trailing_zeros());
            let fabric = if inter_node && n_pes > pes_per_node {
                inter_bw
            } else {
                intra_bw
            };
            // Each PE swaps half of its pair's `2^lo`-amplitude runs (half
            // of one run when the pair has only one): per run and component,
            // one remote get and one remote put.
            let per_pe = (1u64 << n_qubits) / n_pes;
            let msgs_per_pe = 4 * ((per_pe >> lo) / 4).max(1);
            out.comm_s += t.remote_bytes as f64 / fabric + msgs_per_pe as f64 * msg_gap_s;
            out.sync_s += barrier_s;
        },
    )
}

/// Total traffic plus the inter-node share of remote bytes.
fn split_traffic(
    cg: &CompiledGate,
    n_qubits: u32,
    n_pes: u64,
    pes_per_node: u64,
) -> (GateTraffic, u64) {
    let total = gate_traffic(cg, n_qubits, n_pes);
    if n_pes <= pes_per_node {
        return (total, 0);
    }
    // Remote accesses to a partition on the same node stay on NVLink /
    // shared memory; the node count acts as a coarser partitioning, so the
    // inter-node share is exactly the remote traffic at `nodes` partitions
    // (node boundaries are a subset of PE boundaries for powers of two).
    let nodes = n_pes / pes_per_node;
    if nodes <= 1 {
        return (total, 0);
    }
    let node_level = gate_traffic(cg, n_qubits, nodes);
    (total, node_level.remote_bytes.min(total.remote_bytes))
}

/// Convenience: estimate a whole circuit end to end on a single device,
/// pricing the plan a single-device run of it executes.
#[must_use]
pub fn estimate_single(dev: &DeviceSpec, circuit: &Circuit) -> LatencyBreakdown {
    let n_qubits = circuit.n_qubits();
    let plan = CompiledPlan::compile(circuit, n_qubits, &SimConfig::single_device());
    single_device(dev, &plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{devices, interconnects};
    use svsim_workloads::medium_suite;

    fn single_plan(c: &Circuit) -> CompiledPlan {
        CompiledPlan::compile(c, c.n_qubits(), &SimConfig::single_device())
    }

    fn medium_latency(dev: &DeviceSpec) -> Vec<f64> {
        medium_suite()
            .iter()
            .map(|spec| {
                let c = spec.circuit().unwrap();
                estimate_single(dev, &c).total()
            })
            .collect()
    }

    /// §4.1 observation (i): CPUs win at n=11-12, GPUs win by >10x at
    /// n=13-15.
    #[test]
    fn cpu_gpu_crossover() {
        let suite = medium_suite();
        for (i, spec) in suite.iter().enumerate() {
            let c = spec.circuit().unwrap();
            let cpu = estimate_single(&devices::EPYC_7742, &c).total();
            let gpu = estimate_single(&devices::V100, &c).total();
            if spec.paper_qubits <= 12 {
                assert!(
                    cpu < gpu,
                    "{}: CPU ({cpu:.2e}s) should beat GPU ({gpu:.2e}s) at small n",
                    spec.name
                );
            }
            if spec.paper_qubits >= 14 {
                assert!(
                    gpu * 5.0 < cpu,
                    "{} ({i}): GPU should win big at n>=14: cpu {cpu:.2e} gpu {gpu:.2e}",
                    spec.name
                );
            }
        }
    }

    /// §4.1 observation (ii): AVX-512 brings ~2x.
    #[test]
    fn avx512_speedup_about_2x() {
        let scalar = medium_latency(&devices::INTEL_P8276);
        let avx = medium_latency(&devices::INTEL_P8276_AVX512);
        for (s, a) in scalar.iter().zip(&avx) {
            let speedup = s / a;
            assert!(
                (1.5..=2.5).contains(&speedup),
                "AVX-512 speedup {speedup:.2} out of the ~2x band"
            );
        }
    }

    /// §4.1 observation (iii): no big V100 -> A100 jump (memory bound).
    #[test]
    fn a100_close_to_v100() {
        let v = medium_latency(&devices::V100);
        let a = medium_latency(&devices::A100);
        for (v, a) in v.iter().zip(&a) {
            let ratio = v / a;
            assert!(
                (0.8..=1.6).contains(&ratio),
                "V100/A100 ratio {ratio:.2} should be modest"
            );
        }
    }

    /// §4.1 observation (iv): single Phi core slower than a server core.
    #[test]
    fn phi_core_slower_than_cpu_core() {
        let cpu = medium_latency(&devices::INTEL_P8276);
        let phi = medium_latency(&devices::PHI_7230);
        for (c, p) in cpu.iter().zip(&phi) {
            assert!(p > c, "Phi core must be slower");
        }
    }

    /// §4.1 observation (v): MI100 suboptimal due to runtime dispatch.
    #[test]
    fn mi100_slower_than_v100() {
        let v = medium_latency(&devices::V100);
        let m = medium_latency(&devices::MI100);
        for (v, m) in v.iter().zip(&m) {
            assert!(*m > *v * 2.0, "MI100 should trail V100 clearly");
        }
    }

    /// Fig. 7 shape: optimum at 16-32 cores; >128 cores regress.
    #[test]
    fn cpu_scaleup_sweet_spot() {
        let spec = &medium_suite()[7]; // multiplier_n15, the largest medium
        let plan = single_plan(&spec.circuit().unwrap());
        let times: Vec<(u64, f64)> = [1u64, 2, 4, 8, 16, 32, 64, 128, 256]
            .iter()
            .map(|&w| {
                (
                    w,
                    scale_up(&devices::INTEL_P8276_AVX512, &interconnects::QPI, &plan, w).total(),
                )
            })
            .collect();
        let best = times.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        assert!(
            (8..=64).contains(&best),
            "sweet spot at {best} cores, expected mid-spectrum; times: {times:?}"
        );
        let t256 = times.last().unwrap().1;
        let t_best = times.iter().map(|t| t.1).fold(f64::MAX, f64::min);
        assert!(
            t256 > 1.5 * t_best,
            "256 cores must clearly regress from the optimum"
        );
        // And parallelism must help at all for the 15-qubit circuit.
        assert!(times[0].1 > t_best * 1.5, "scaling should help at n=15");
    }

    /// Fig. 8 shape: Phi optimum sits very low (2-8 cores).
    #[test]
    fn phi_scaleup_sweet_spot_is_low() {
        let spec = &medium_suite()[7];
        let plan = single_plan(&spec.circuit().unwrap());
        let times: Vec<(u64, f64)> = [1u64, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&w| {
                (
                    w,
                    scale_up(
                        &devices::PHI_7230_AVX512,
                        &interconnects::KNL_MESH,
                        &plan,
                        w,
                    )
                    .total(),
                )
            })
            .collect();
        let best = times.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
        assert!(
            best <= 8,
            "KNL optimum should be at few cores, got {best}; {times:?}"
        );
    }

    /// Fig. 9 shape: DGX-2 strong scaling at n>=13, slight lag 1->2 GPUs at
    /// n=11-12.
    #[test]
    fn dgx2_strong_scaling_with_small_n_lag() {
        for spec in medium_suite() {
            let plan = single_plan(&spec.circuit().unwrap());
            let t = |w: u64| scale_up(&devices::V100, &interconnects::NVSWITCH, &plan, w).total();
            if spec.paper_qubits <= 12 {
                // Paper: a slight slowdown from 1 to 2 GPUs at n=11-12; the
                // model reproduces "no meaningful gain" (< 1.25x).
                assert!(
                    t(2) > t(1) * 0.8,
                    "{}: small problems should not speed up much at 2 GPUs",
                    spec.name
                );
            } else {
                assert!(t(16) < t(1), "{}: 16 GPUs must beat 1 at n>=13", spec.name);
            }
        }
        // Aggregate speedup at 16 GPUs over the suite, in the strong-scaling
        // ballpark the paper reports (10.6x average; we accept >=3x).
        let mut speedups = Vec::new();
        for spec in medium_suite() {
            let plan = single_plan(&spec.circuit().unwrap());
            let t1 = scale_up(&devices::V100, &interconnects::NVSWITCH, &plan, 1).total();
            let t16 = scale_up(&devices::V100, &interconnects::NVSWITCH, &plan, 16).total();
            speedups.push(t1 / t16);
        }
        let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
        // The paper reports 10.6x on DGX-2 hardware; the conservative model
        // reproduces the strong-scaling *shape* with a smaller factor
        // (recorded in EXPERIMENTS.md).
        assert!(avg > 2.0, "average 16-GPU speedup {avg:.1} too low");
    }

    /// Fig. 11 shape: MI100 scaling is positive but modest, with no 1->2
    /// lag (compute-bound, not communication-bound).
    #[test]
    fn mi100_scaling_linear_and_modest() {
        let spec = &medium_suite()[7];
        let plan = single_plan(&spec.circuit().unwrap());
        let t =
            |w: u64| scale_up(&devices::MI100, &interconnects::INFINITY_FABRIC, &plan, w).total();
        assert!(t(2) < t(1), "no parallelization lag on MI100");
        assert!(t(4) < t(2));
        let speedup4 = t(1) / t(4);
        assert!(
            speedup4 < 3.0,
            "MI100 scaling should be modest, got {speedup4:.2}x"
        );
    }

    /// Fig. 12 shape: Summit CPU scale-out gains < 3x from 32 to 1024 PEs.
    #[test]
    fn summit_cpu_scaleout_is_comm_bound() {
        let plan = single_plan(&svsim_workloads::algos::qft(20).unwrap());
        let t = |p: u64| {
            scale_out(
                &devices::POWER9,
                &interconnects::SUMMIT_IB,
                &plan,
                p,
                32,
                60.0,
            )
            .total()
        };
        let t32 = t(32);
        let t1024 = t(1024);
        assert!(t1024 < t32, "more PEs must still help somewhat");
        assert!(
            t32 / t1024 < 4.0,
            "CPU scale-out speedup must be limited: {:.2}x",
            t32 / t1024
        );
    }

    /// The communication-avoidance payoff: a circuit that hammers the
    /// partition-index qubits prices far cheaper with relabeling at Summit
    /// GPU scale — a few bulk slab exchanges replace per-gate remote
    /// word traffic.
    #[test]
    fn remapped_scaleout_slashes_comm_at_summit_scale() {
        use svsim_ir::GateKind;
        let n = 20u32;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        for _ in 0..16 {
            for q in n - 5..n {
                c.apply(GateKind::H, &[q], &[]).unwrap();
            }
        }
        let naive = scale_out(
            &devices::V100,
            &interconnects::SUMMIT_IB,
            &single_plan(&c),
            1024,
            4,
            130.0,
        );
        let config = SimConfig {
            remap: true,
            ..SimConfig::scale_out(1024)
        };
        let remapped = scale_out(
            &devices::V100,
            &interconnects::SUMMIT_IB,
            &CompiledPlan::compile(&c, n, &config),
            1024,
            4,
            130.0,
        );
        assert!(
            remapped.comm_s * 5.0 < naive.comm_s,
            "relabeling must slash modeled comm: remapped {:.3e}s vs naive {:.3e}s",
            remapped.comm_s,
            naive.comm_s
        );
        assert!(
            remapped.total() < naive.total(),
            "and win end to end: {:.3e}s vs {:.3e}s",
            remapped.total(),
            naive.total()
        );
    }

    /// The model prices the plan that runs. A measured circuit's
    /// conditional kernels — an `IfEq` payload, the X a reset applies —
    /// cost what they cost when they fire: every kernel of the plan pays
    /// one overhead, and on a remapped scale-out plan
    /// every kernel pays its barrier and every exchange its one.
    #[test]
    fn every_scheduled_kernel_and_exchange_is_priced() {
        use svsim_ir::{Gate, GateKind};
        let n = 12u32;
        let mut c = Circuit::with_cbits(n, 1);
        for q in 0..n {
            c.apply(GateKind::H, &[q], &[]).unwrap();
        }
        for layer in 0..8 {
            for q in n - 3..n {
                c.apply(GateKind::RX, &[q], &[0.1 * f64::from(layer + 1)])
                    .unwrap();
            }
        }
        c.measure(0, 0).unwrap();
        let unconditional = c.clone();
        let payload = Gate::new(GateKind::RY, &[n - 1], &[0.3]).unwrap();
        c.if_eq(0, 1, 1, payload).unwrap();
        c.reset(n - 2).unwrap();

        let dev = &devices::V100;
        let overhead_s = (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6;
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want;
        let count = |plan: &CompiledPlan, pick: fn(&Scheduled) -> bool| {
            plan.schedule().filter(|s| pick(s)).count()
        };
        let plan = single_plan(&c);
        assert_eq!(
            count(&plan, |s| matches!(
                s,
                Scheduled::Kernel {
                    conditional: true,
                    ..
                }
            )),
            2,
            "the IfEq payload and the reset's X"
        );
        let t = estimate_single(dev, &c);
        assert!(
            close(t.sync_s, plan.n_kernels() as f64 * overhead_s),
            "one overhead per kernel: {:.3e}s for {} kernels",
            t.sync_s,
            plan.n_kernels()
        );
        assert!(
            t.compute_s > estimate_single(dev, &unconditional).compute_s,
            "the conditional kernels sweep amplitudes too"
        );

        let ic = &interconnects::SUMMIT_IB;
        for n_pes in [2u64, 8] {
            let config = SimConfig {
                remap: true,
                ..SimConfig::scale_out(n_pes as usize)
            };
            let remapped = CompiledPlan::compile(&c, n, &config);
            let exchanges = count(&remapped, |s| matches!(s, Scheduled::Exchange { .. }));
            assert!(exchanges > 0, "{n_pes} PEs: the top qubits relabel");
            let t = scale_out(dev, ic, &remapped, n_pes, 4, 130.0);
            let barrier_s = ic.barrier_us_per_log * (n_pes as f64).log2() * 1e-6;
            let want = remapped.n_kernels() as f64 * (overhead_s + barrier_s)
                + exchanges as f64 * barrier_s;
            assert!(
                close(t.sync_s, want),
                "{n_pes} PEs: {:.3e}s of sync, want {want:.3e}s",
                t.sync_s
            );
            let elsewhere = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scale_out(dev, ic, &remapped, 2 * n_pes, 4, 130.0)
            }));
            assert!(
                elsewhere.is_err(),
                "a remapped plan prices only at its own PE count"
            );
        }
    }

    /// Fig. 13 shape: Summit GPU scale-out keeps scaling to 1024 GPUs.
    #[test]
    fn summit_gpu_scaleout_strong_scaling() {
        let plan = single_plan(&svsim_workloads::algos::qft(20).unwrap());
        let t = |p: u64| {
            scale_out(
                &devices::V100,
                &interconnects::SUMMIT_IB,
                &plan,
                p,
                4,
                130.0,
            )
            .total()
        };
        let mut prev = t(4);
        for p in [16u64, 64, 256, 1024] {
            let cur = t(p);
            assert!(cur < prev, "GPU scale-out must keep improving at {p} GPUs");
            prev = cur;
        }
        assert!(
            t(4) / t(1024) > 3.0,
            "GPU scale-out speedup too weak: {:.2}",
            t(4) / t(1024)
        );
    }
}
