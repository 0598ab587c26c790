//! Circuit latency estimation on modeled platforms.
//!
//! The estimator prices a compiled gate stream on a [`DeviceSpec`] +
//! [`InterconnectSpec`] pair using the *exact* per-gate traffic counts of
//! `svsim-core::traffic` (bytes touched, flops, remote amplitude
//! operations at a given partitioning). Per gate:
//!
//! ```text
//! t = overhead + dispatch_penalty
//!   + max(local_bytes / device_bw, flops / device_flops)   (roofline)
//!   + remote_bytes / aggregate_fabric_bw + msgs * gap       (communication)
//!   + barrier(workers)                                      (synchronization)
//! ```

use crate::platform::{DeviceSpec, InterconnectSpec};
use svsim_core::compile::{compile_gates, CompiledGate};
use svsim_core::traffic::gate_traffic;
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

/// Compile a circuit for estimation (specialized kernels).
#[must_use]
pub fn compile_for_estimate(circuit: &Circuit) -> Vec<CompiledGate> {
    let gates: Vec<svsim_ir::Gate> = circuit.gates().copied().collect();
    compile_gates(gates.iter(), circuit.n_qubits(), true)
}

/// Single-device latency (Fig. 6).
#[must_use]
pub fn single_device(
    dev: &DeviceSpec,
    compiled: &[CompiledGate],
    n_qubits: u32,
) -> LatencyBreakdown {
    let state_bytes = 16.0 * (1u64 << n_qubits) as f64;
    let in_cache = state_bytes < dev.cache_mib * 1024.0 * 1024.0 && dev.cache_mib > 0.0;
    let bw = if in_cache {
        dev.cache_bw_gbps
    } else {
        dev.mem_bw_gbps
    } * 1e9;
    let flops_rate = dev.flops_gflops * 1e9;
    let mut out = LatencyBreakdown::default();
    for cg in compiled {
        let t = gate_traffic(cg, n_qubits, 1);
        out.compute_s += (t.bytes_touched as f64 / bw).max(t.flops as f64 / flops_rate);
        out.sync_s += (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6;
    }
    out
}

/// Scale-up latency over `n_workers` same-node partitions (Figs. 7-11).
///
/// All workers advance in lockstep (the cooperative-grid / OpenMP model),
/// so per-gate time is the *slowest* worker; with even partitioning that is
/// the per-worker average plus the shared fabric term.
#[must_use]
pub fn scale_up(
    dev: &DeviceSpec,
    ic: &InterconnectSpec,
    compiled: &[CompiledGate],
    n_qubits: u32,
    n_workers: u64,
) -> LatencyBreakdown {
    let state_bytes = 16.0 * (1u64 << n_qubits) as f64 / n_workers as f64;
    let in_cache = state_bytes < dev.cache_mib * 1024.0 * 1024.0 && dev.cache_mib > 0.0;
    let bw = if in_cache {
        dev.cache_bw_gbps
    } else {
        dev.mem_bw_gbps
    } * 1e9;
    let flops_rate = dev.flops_gflops * 1e9;
    let fabric_bw = ic.aggregate_bw(n_workers) * 1e9;
    let w = n_workers as f64;
    let barrier_s =
        (ic.barrier_us_per_log * w.log2().max(0.0) + ic.barrier_us_per_worker * w) * 1e-6;
    let mut out = LatencyBreakdown::default();
    for cg in compiled {
        let t = gate_traffic(cg, n_qubits, n_workers);
        let local_bytes = (t.bytes_touched as f64 - t.remote_bytes as f64).max(0.0) / w;
        let flops = t.flops as f64 / w;
        out.compute_s += (local_bytes / bw).max(flops / flops_rate);
        // Remote traffic shares the fabric; fine-grained messages pipeline
        // with per-message gap paid by the issuing worker.
        let msgs_per_worker = t.remote_amp_ops as f64 / w;
        out.comm_s += t.remote_bytes as f64 / fabric_bw + msgs_per_worker * ic.msg_gap_us * 1e-6;
        out.sync_s += (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6 + barrier_s;
    }
    out
}

/// Shared pricing environment for the scale-out paths (naive and
/// remapped): the derived rates every per-gate/per-exchange term needs.
struct ScaleOutEnv {
    n_qubits: u32,
    n_pes: u64,
    pes_per_node: u64,
    bw: f64,
    flops_rate: f64,
    w: f64,
    barrier_s: f64,
    inter_bw: f64,
    intra_bw: f64,
    overhead_s: f64,
    msg_gap_s: f64,
}

impl ScaleOutEnv {
    fn new(
        dev: &DeviceSpec,
        ic: &InterconnectSpec,
        n_qubits: u32,
        n_pes: u64,
        pes_per_node: u64,
        intra_bw_gbps: f64,
    ) -> Self {
        let nodes = n_pes.div_ceil(pes_per_node);
        let state_bytes = 16.0 * (1u64 << n_qubits) as f64 / n_pes as f64;
        let in_cache = state_bytes < dev.cache_mib * 1024.0 * 1024.0 && dev.cache_mib > 0.0;
        let bw = if in_cache {
            dev.cache_bw_gbps
        } else {
            dev.mem_bw_gbps
        } * 1e9;
        let w = n_pes as f64;
        Self {
            n_qubits,
            n_pes,
            pes_per_node,
            bw,
            flops_rate: dev.flops_gflops * 1e9,
            w,
            barrier_s: ic.barrier_us_per_log * w.log2().max(0.0) * 1e-6,
            inter_bw: ic.aggregate_bw(nodes) * 1e9,
            intra_bw: intra_bw_gbps * 1e9 * nodes as f64,
            overhead_s: (dev.gate_overhead_us + dev.dispatch_penalty_us) * 1e-6,
            msg_gap_s: ic.msg_gap_us * 1e-6,
        }
    }

    /// Price one compiled gate kernel into `out`.
    fn price_gate(&self, cg: &CompiledGate, out: &mut LatencyBreakdown) {
        let (total, inter) = split_traffic(cg, self.n_qubits, self.n_pes, self.pes_per_node);
        let local_bytes =
            (total.bytes_touched as f64 - total.remote_bytes as f64).max(0.0) / self.w;
        out.compute_s += (local_bytes / self.bw).max(total.flops as f64 / self.flops_rate / self.w);
        let intra_bytes = total.remote_bytes.saturating_sub(inter) as f64;
        let msgs_per_pe = total.remote_amp_ops as f64 / self.w;
        out.comm_s += intra_bytes / self.intra_bw
            + inter as f64 / self.inter_bw
            + msgs_per_pe * self.msg_gap_s;
        out.sync_s += self.overhead_s + self.barrier_s;
    }

    /// Price one relabeling slab exchange `(lo, hi)` into `out`. The
    /// exchange ships each PE's half-partition to its unique partner in
    /// runs of `2^lo` amplitudes — few long messages instead of per-word
    /// traffic — then unpacks locally, with a barrier after each stage.
    fn price_exchange(&self, lo: u32, hi: u32, out: &mut LatencyBreakdown) {
        let t = svsim_core::traffic::exchange_traffic(self.n_qubits, self.n_pes);
        let local_bytes = (t.bytes_touched as f64 - t.remote_bytes as f64).max(0.0) / self.w;
        out.compute_s += local_bytes / self.bw;
        // The partner differs in exactly one partition-index bit; when that
        // bit lies at/above the node grouping the whole slab crosses nodes.
        let boundary = self.n_qubits - self.n_pes.trailing_zeros();
        let pe_bit = hi - boundary;
        let inter_node = u64::from(pe_bit) >= u64::from(self.pes_per_node.trailing_zeros());
        let fabric = if inter_node && self.n_pes > self.pes_per_node {
            self.inter_bw
        } else {
            self.intra_bw
        };
        // One message per `2^lo`-amplitude run of re and im, per stage pair.
        let dim = 1u64 << self.n_qubits;
        let msgs_per_pe = (dim >> lo) as f64 / self.w;
        out.comm_s += t.remote_bytes as f64 / fabric + msgs_per_pe * self.msg_gap_s;
        out.sync_s += 2.0 * self.barrier_s;
    }
}

/// Scale-out latency over `n_pes` PEs grouped `pes_per_node` to a node
/// (Figs. 12-13). Intra-node remote traffic moves at `intra_bw_gbps`;
/// inter-node traffic shares the fat-tree injection links.
#[must_use]
pub fn scale_out(
    dev: &DeviceSpec,
    ic: &InterconnectSpec,
    compiled: &[CompiledGate],
    n_qubits: u32,
    n_pes: u64,
    pes_per_node: u64,
    intra_bw_gbps: f64,
) -> LatencyBreakdown {
    let env = ScaleOutEnv::new(dev, ic, n_qubits, n_pes, pes_per_node, intra_bw_gbps);
    let mut out = LatencyBreakdown::default();
    for cg in compiled {
        env.price_gate(cg, &mut out);
    }
    out
}

/// Scale-out latency with communication-avoiding qubit relabeling: price
/// the schedule of the plan a `remap = true` scale-out run at `n_pes`
/// executes (`CompiledPlan::schedule`) — bulk slab exchanges where the
/// lowering relabels, localized kernels everywhere else. Compare against
/// [`scale_out`] on the same circuit to see the communication-avoidance
/// payoff at Summit scale.
#[must_use]
pub fn scale_out_remapped(
    dev: &DeviceSpec,
    ic: &InterconnectSpec,
    circuit: &Circuit,
    n_pes: u64,
    pes_per_node: u64,
    intra_bw_gbps: f64,
) -> LatencyBreakdown {
    let n_qubits = circuit.n_qubits();
    let env = ScaleOutEnv::new(dev, ic, n_qubits, n_pes, pes_per_node, intra_bw_gbps);
    let config = SimConfig {
        remap: true,
        ..SimConfig::scale_out(n_pes as usize)
    };
    let mut out = LatencyBreakdown::default();
    for item in CompiledPlan::compile(circuit, n_qubits, &config).schedule() {
        match item {
            Scheduled::Exchange { lo, hi } => env.price_exchange(lo, hi, &mut out),
            Scheduled::Kernel { cg, .. } => env.price_gate(cg, &mut out),
            Scheduled::Collapse => {}
        }
    }
    out
}

/// Total traffic plus the inter-node share of remote bytes.
fn split_traffic(
    cg: &CompiledGate,
    n_qubits: u32,
    n_pes: u64,
    pes_per_node: u64,
) -> (svsim_core::traffic::GateTraffic, u64) {
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

/// Convenience: estimate a whole circuit end to end on a single device.
#[must_use]
pub fn estimate_single(dev: &DeviceSpec, circuit: &Circuit) -> LatencyBreakdown {
    single_device(dev, &compile_for_estimate(circuit), circuit.n_qubits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{devices, interconnects};
    use svsim_workloads::medium_suite;

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
        let c = spec.circuit().unwrap();
        let compiled = compile_for_estimate(&c);
        let times: Vec<(u64, f64)> = [1u64, 2, 4, 8, 16, 32, 64, 128, 256]
            .iter()
            .map(|&w| {
                (
                    w,
                    scale_up(
                        &devices::INTEL_P8276_AVX512,
                        &interconnects::QPI,
                        &compiled,
                        c.n_qubits(),
                        w,
                    )
                    .total(),
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
        let c = spec.circuit().unwrap();
        let compiled = compile_for_estimate(&c);
        let times: Vec<(u64, f64)> = [1u64, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&w| {
                (
                    w,
                    scale_up(
                        &devices::PHI_7230_AVX512,
                        &interconnects::KNL_MESH,
                        &compiled,
                        c.n_qubits(),
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
            let c = spec.circuit().unwrap();
            let compiled = compile_for_estimate(&c);
            let t = |w: u64| {
                scale_up(
                    &devices::V100,
                    &interconnects::NVSWITCH,
                    &compiled,
                    c.n_qubits(),
                    w,
                )
                .total()
            };
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
            let c = spec.circuit().unwrap();
            let compiled = compile_for_estimate(&c);
            let t1 = scale_up(
                &devices::V100,
                &interconnects::NVSWITCH,
                &compiled,
                c.n_qubits(),
                1,
            )
            .total();
            let t16 = scale_up(
                &devices::V100,
                &interconnects::NVSWITCH,
                &compiled,
                c.n_qubits(),
                16,
            )
            .total();
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
        let c = spec.circuit().unwrap();
        let compiled = compile_for_estimate(&c);
        let t = |w: u64| {
            scale_up(
                &devices::MI100,
                &interconnects::INFINITY_FABRIC,
                &compiled,
                c.n_qubits(),
                w,
            )
            .total()
        };
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
        let c = svsim_workloads::algos::qft(20).unwrap();
        let compiled = compile_for_estimate(&c);
        let t = |p: u64| {
            scale_out(
                &devices::POWER9,
                &interconnects::SUMMIT_IB,
                &compiled,
                20,
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
        let compiled = compile_for_estimate(&c);
        let naive = scale_out(
            &devices::V100,
            &interconnects::SUMMIT_IB,
            &compiled,
            n,
            1024,
            4,
            130.0,
        );
        let remapped = scale_out_remapped(
            &devices::V100,
            &interconnects::SUMMIT_IB,
            &c,
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

    /// Gate fusion's modeled payoff: a deep rotation ladder confined to a
    /// 3-qubit window prices far cheaper fused — the memory-bound roofline
    /// term scales with amplitude passes, and fusion collapses the pass
    /// count — while the fused queue still accounts for every source
    /// kernel (nothing priced away by the rewrite).
    #[test]
    fn fused_plans_price_cheaper_on_deep_ladders() {
        use svsim_ir::GateKind;
        let n = 22u32;
        let mut c = Circuit::new(n);
        for layer in 0..24 {
            for q in 0..3 {
                c.apply(GateKind::H, &[q], &[]).unwrap();
                c.apply(GateKind::RZ, &[q], &[0.05 * f64::from(layer + 1)])
                    .unwrap();
            }
            c.apply(GateKind::CX, &[0, 1], &[]).unwrap();
            c.apply(GateKind::CX, &[1, 2], &[]).unwrap();
        }
        let plain = compile_for_estimate(&c);
        let plan = CompiledPlan::compile(
            &c,
            n,
            &SimConfig {
                fuse: 3,
                ..SimConfig::single_device()
            },
        );
        let fused: Vec<CompiledGate> = plan
            .schedule()
            .filter_map(|item| match item {
                Scheduled::Kernel { cg, .. } => Some(cg.clone()),
                _ => None,
            })
            .collect();
        assert!(fused.len() < plain.len() / 2, "the ladder must collapse");
        assert_eq!(svsim_core::source_kernels(&fused), plain.len());
        let t_plain = single_device(&devices::V100, &plain, n);
        let t_fused = single_device(&devices::V100, &fused, n);
        assert!(
            t_fused.total() * 2.0 < t_plain.total(),
            "fused plan must price ≥2x cheaper: {:.3e}s vs {:.3e}s",
            t_fused.total(),
            t_plain.total()
        );
        // The fused stream prices on the scale-out path too, and its
        // savings survive partitioning (the ladder is partition-local).
        let so_plain = scale_out(
            &devices::V100,
            &interconnects::SUMMIT_IB,
            &plain,
            n,
            64,
            4,
            130.0,
        );
        let so_fused = scale_out(
            &devices::V100,
            &interconnects::SUMMIT_IB,
            &fused,
            n,
            64,
            4,
            130.0,
        );
        assert!(
            so_fused.total() < so_plain.total(),
            "fusion must also win on the modeled scale-out path"
        );
    }

    /// Fig. 13 shape: Summit GPU scale-out keeps scaling to 1024 GPUs.
    #[test]
    fn summit_gpu_scaleout_strong_scaling() {
        let c = svsim_workloads::algos::qft(20).unwrap();
        let compiled = compile_for_estimate(&c);
        let t = |p: u64| {
            scale_out(
                &devices::V100,
                &interconnects::SUMMIT_IB,
                &compiled,
                20,
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
