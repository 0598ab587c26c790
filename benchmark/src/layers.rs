//! Per-layer probes of the traced pass. Each layer is measured from outside,
//! by timing calls into its public functions; the README's layer table says
//! which end-to-end metric each number should move, on which workload.

use crate::api::{self, ApiResult, Circuit, Fabric, SimConfig, Simulator, SingleMode};
use crate::spec;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Samples, Session};
use crate::{alloc, env, gen};
use std::hint::black_box;
use std::time::Instant;

/// Metric values by name, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What the probes need to know about the workload being traced.
pub struct Probe<'a> {
    /// The run's `--seed`, for generated inputs.
    pub seed: u64,
    /// The seed the workload's simulators sample with.
    pub sim_seed: u64,
    /// The workload's own circuit (`qft(16)`, its wide one-shot, on
    /// `serve_mixed`).
    pub own: &'a Circuit,
    /// Operations whose output did not match, counted into the run's total.
    pub attempted: u64,
    pub failed: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Median wall time in milliseconds of `reps` calls of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median(&(0..reps).map(|_| timed(&mut f).1).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// qasm / ir / plan / sim
// ---------------------------------------------------------------------------

fn front_end(m: &mut Metrics, tr: &mut Tracer, p: &Probe) -> ApiResult<()> {
    let (text, emit_ms) = timed(|| tr.span("qasm.emit", || api::to_qasm(p.own)));
    let text = text?;
    m.set("qasm.emit_ms", emit_ms);
    let (parsed, parse_ms) = timed(|| tr.span("qasm.parse", || api::parse_circuit(&text)));
    parsed?;
    m.set("qasm.parse_ms", parse_ms);
    let (ops, optimize_ms) = timed(|| tr.span("ir.optimize", || api::optimize_gate_count(p.own)));
    m.set("ir.optimize_ms", optimize_ms);
    m.set("ir.ops", ops as f64);
    Ok(())
}

fn plan(m: &mut Metrics, tr: &mut Tracer, p: &Probe) -> ApiResult<()> {
    let plain = api::cfg_reference(p.sim_seed);
    let fuse3 = api::cfg_single_mode(p.sim_seed, SingleMode::Fuse3);
    let mut kernels = 0;
    m.set(
        "plan.compile_ms",
        median_ms(3, || {
            kernels = tr.span("plan.compile", || api::compile_plan_kernels(p.own, &plain))
        }),
    );
    let mut passes = 0;
    m.set(
        "plan.compile_fuse3_ms",
        median_ms(3, || {
            passes = tr.span("plan.compile", || api::compile_plan_kernels(p.own, &fuse3))
        }),
    );
    let mut swaps = 0;
    m.set(
        "plan.remap_ms",
        median_ms(3, || {
            swaps = tr.span("plan.remap", || api::plan_remap_swaps(p.own))
        }),
    );
    m.set("plan.kernels", kernels as f64);
    m.set("plan.passes_fuse3", passes as f64);
    m.set("plan.remap_swaps", swaps as f64);
    let out2 = api::sim_new(p.own.n_qubits(), api::cfg_out2(p.sim_seed, false, false))?;
    m.set(
        "plan.model_remote_bytes",
        api::predicted_traffic(&out2, p.own).1 as f64,
    );
    Ok(())
}

fn sim_layer(m: &mut Metrics, tr: &mut Tracer, p: &Probe) -> ApiResult<()> {
    let n = p.own.n_qubits();
    let mut sim = None;
    m.set(
        "sim.new_ms",
        median_ms(3, || {
            sim = Some(tr.span("sim.new", || {
                api::sim_new(n, api::cfg_reference(p.sim_seed))
            }))
        }),
    );
    let mut sim: Simulator = sim.ok_or("no simulator built")??;
    m.set(
        "sim.reset_ms",
        median_ms(5, || tr.span("sim.reset", || sim.reset())),
    );
    m.set(
        "sim.checksum_ms",
        median_ms(3, || {
            black_box(tr.span("readback.checksum", || sim.state_checksum()));
        }),
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// backend, measure, checkpoint, perfmodel
// ---------------------------------------------------------------------------

/// Build a simulator and run `circuit` on it: once when a run takes longer
/// than 0.2 s (the probes share the traced pass's time), else three times
/// and the median. Returns the simulator holding the final state, the last
/// run's summary and the time in milliseconds.
fn backend_run(
    tr: &mut Tracer,
    circuit: &Circuit,
    config: SimConfig,
) -> ApiResult<(Simulator, api::RunSummary, f64)> {
    let mut sim = tr.span("sim.new", || api::sim_new(circuit.n_qubits(), config))?;
    let (summary, first_ms) = timed(|| tr.span("sim.run", || api::sim_run(&mut sim, circuit)));
    let mut summary = summary?;
    let mut times = vec![first_ms];
    if first_ms < 200.0 {
        for _ in 0..2 {
            tr.span("sim.reset", || sim.reset());
            let (again, ms) = timed(|| tr.span("sim.run", || api::sim_run(&mut sim, circuit)));
            summary = again?;
            times.push(ms);
        }
    }
    Ok((sim, summary, median(&times)))
}

fn check(p: &mut Probe, what: &str, sim: &Simulator, reference: u64) {
    p.attempted += 1;
    if sim.state_checksum() != reference {
        eprintln!("{what}: state checksum differs from the single-device reference");
        p.failed += 1;
    }
}

fn backends(m: &mut Metrics, tr: &mut Tracer, p: &mut Probe) -> ApiResult<()> {
    let own = p.own;
    // Single-device modes, on the workload's own circuit.
    let (own_sim, _, single_ms) = backend_run(tr, own, api::cfg_reference(p.sim_seed))?;
    m.set("backend.single.run_ms", single_ms);
    let own_reference = own_sim.state_checksum();
    for (name, mode, bit_identical) in [
        // Dense generic kernels evaluate different expressions, so their
        // state is close to the reference, not bit-identical to it.
        ("single_generic", SingleMode::Generic, false),
        ("single_parse", SingleMode::RuntimeParse, true),
        ("single_fuse3", SingleMode::Fuse3, true),
    ] {
        let (sim, _, ms) = backend_run(tr, own, api::cfg_single_mode(p.sim_seed, mode))?;
        m.set(format!("backend.{name}.run_ms"), ms);
        if bit_identical {
            check(p, name, &sim, own_reference);
        }
    }

    // core.measure, on the final state of the workload's own circuit.
    let mut own_sim = own_sim;
    m.set(
        "measure.sample_ms",
        median_ms(3, || {
            black_box(tr.span("measure.sample", || own_sim.sample(gen::WIDE_SHOTS)));
        }),
    );
    m.set(
        "measure.probabilities_ms",
        median_ms(3, || {
            black_box(tr.span("measure.probabilities", || own_sim.probabilities()));
        }),
    );
    let mask = (1u64 << own.n_qubits().min(12)) - 1;
    m.set(
        "measure.expval_z_ms",
        median_ms(3, || {
            black_box(tr.span("measure.expval_z", || api::expval_z(&own_sim, mask)));
        }),
    );
    drop(own_sim);

    // Checkpointing is off by default; priced so that a default change shows.
    let (sim, summary, ckpt_ms) = backend_run(
        tr,
        own,
        api::cfg_single_mode(p.sim_seed, SingleMode::Checkpoint64),
    )?;
    check(p, "checkpoint", &sim, own_reference);
    m.set("checkpoint.overhead_ratio", ckpt_ms / single_ms);
    m.set("checkpoint.bytes", summary.checkpoint_bytes as f64);
    drop(sim);

    // perfmodel: prediction beside measurement, on this host's own triad.
    let (triad_mem, triad_l2) = (
        m.get("host.triad_gbps.mem").ok_or("triad not measured")?,
        m.get("host.triad_gbps.l2").ok_or("triad not measured")?,
    );
    let mut pred_ms = 0.0;
    m.set(
        "model.estimate_ms",
        median_ms(3, || {
            pred_ms = api::model_single_ms(triad_mem, triad_l2, env::l2_mib(), own)
        }),
    );
    m.set("model.single.pred_ms", pred_ms);
    m.set("model.single.residual", single_ms / pred_ms);

    // Multi-device backends, on the scale-out pair's circuit whatever the
    // workload: a two-PE run of a single-device workload's circuit takes
    // 7 s and more, and a traced run has to fit the driver's time cap.
    let scale = gen::scaleout_circuit(p.seed)?;
    let (scale_ref, _, _) = backend_run(tr, &scale, api::cfg_reference(p.sim_seed))?;
    let scale_reference = scale_ref.state_checksum();
    drop(scale_ref);

    let (sim, summary, ms) = backend_run(tr, &scale, api::cfg_up2(p.sim_seed))?;
    check(p, "backend.up2", &sim, scale_reference);
    let up2 = api::measured_traffic(&summary);
    let mut model_match = up2.remote_ops == api::predicted_traffic(&sim, &scale).0;
    m.set("backend.up2.run_ms", ms);
    m.set("backend.up2.remote_ops", up2.remote_ops as f64);

    let (sim, summary, ms) = backend_run(tr, &scale, api::cfg_out2(p.sim_seed, false, false))?;
    check(p, "backend.out2", &sim, scale_reference);
    let out2 = api::measured_traffic(&summary);
    let (amp_ops, bytes) = api::predicted_traffic(&sim, &scale);
    model_match &= out2.remote_ops == 2 * amp_ops && out2.remote_bytes == bytes;
    m.set("backend.out2.run_ms", ms);
    m.set("backend.out2.remote_bytes", out2.remote_bytes as f64);
    m.set("backend.out2.remote_ops", out2.remote_ops as f64);
    m.set("backend.out2.local_ops", out2.local_ops as f64);
    m.set("backend.out2.barriers", out2.barriers as f64);

    let (sim, summary, ms) = backend_run(tr, &scale, api::cfg_out2(p.sim_seed, true, false))?;
    check(p, "backend.out2_remap", &sim, scale_reference);
    let remap = api::measured_traffic(&summary);
    model_match &= remap.remote_bytes == api::predicted_traffic(&sim, &scale).1;
    m.set("backend.out2_remap.run_ms", ms);
    m.set("backend.out2_remap.remote_bytes", remap.remote_bytes as f64);
    m.set("backend.out2_remap.swaps", summary.remap_swaps as f64);

    let (sim, _, ms) = backend_run(tr, &scale, api::cfg_out2(p.sim_seed, false, true))?;
    check(p, "backend.out2_proc", &sim, scale_reference);
    m.set("backend.out2_proc.run_ms", ms);

    // The traffic model is part of the correctness gate: a measured counter
    // that leaves its prediction is a failed operation.
    p.attempted += 1;
    if !model_match {
        eprintln!("traffic.model_match: measured counters differ from predict_traffic");
        p.failed += 1;
    }
    m.set("traffic.model_match", f64::from(u8::from(model_match)));
    Ok(())
}

// ---------------------------------------------------------------------------
// kernels and the host's triad
// ---------------------------------------------------------------------------

/// STREAM triad `a[i] = b[i] + s * c[i]` over three arrays of `len` doubles;
/// best of `reps` in GB/s, counting 24 bytes per element.
fn triad_gbps(len: usize, reps: usize) -> f64 {
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (24 * len) as f64 / best / 1e9
}

fn kernels(m: &mut Metrics, tr: &mut Tracer) -> ApiResult<()> {
    let open = tr.begin("probe.kernels");
    // Arrays sized like the two state vectors below: 1 MiB sits in L2,
    // 96 MiB does not. The host reports a 260 MiB shared L3, so the large
    // size is "out of L2", not a DRAM roofline.
    m.set("host.triad_gbps.l2", triad_gbps((1 << 20) / 24, 200));
    m.set("host.triad_gbps.mem", triad_gbps(1 << 22, 5));
    for (size, n) in spec::KERNEL_SIZES {
        let dim = 1usize << n;
        let amp = 1.0 / (dim as f64).sqrt();
        let (mut re, mut im) = (vec![amp; dim], vec![0.0f64; dim]);
        // In L2 a sweep takes ~0.1 ms and is repeated often; out of it,
        // tens of milliseconds and a few repetitions do.
        let reps = if dim <= 1 << 16 { 40 } else { 3 };
        for class in spec::KERNEL_CLASSES {
            for pos in spec::KERNEL_POSITIONS {
                let queue = api::kernel_queue(class, n, pos == "hi")?;
                let ms = api::with_local_sweep(&queue, &mut re, &mut im, |sweep| {
                    sweep(); // warm-up
                    median_ms(reps, sweep)
                });
                m.set(spec::kernel_metric(class, size, pos), ms * 1e6 / dim as f64);
            }
        }
    }
    // A Hadamard reads and writes every amplitude once: 32 bytes each.
    let h_ns = m
        .get(&spec::kernel_metric("h", "mem", "lo"))
        .ok_or("kernel.h not measured")?;
    let triad = m.get("host.triad_gbps.mem").ok_or("triad not measured")?;
    m.set("kernel.h.mem.lo.frac_of_triad", 32.0 / h_ns / triad);
    tr.end(open);
    Ok(())
}

// ---------------------------------------------------------------------------
// views and shmem
// ---------------------------------------------------------------------------

fn views(m: &mut Metrics, tr: &mut Tracer) -> ApiResult<()> {
    const N: u32 = 18;
    const REPS: usize = 5;
    let open = tr.begin("probe.views");
    let dim = 1usize << N;
    // Worker-nanoseconds per amplitude: two workers each sweep half.
    let ns_per_amp = |secs: &[f64], workers: f64| median(secs) * 1e9 * workers / dim as f64;

    let queue = api::kernel_queue("h", N, false)?;
    let (mut re, mut im) = (vec![1.0 / (dim as f64).sqrt(); dim], vec![0.0f64; dim]);
    let local_ms = api::with_local_sweep(&queue, &mut re, &mut im, |sweep| {
        sweep();
        median_ms(REPS, sweep)
    });
    m.set("view.local.ns_per_amp", local_ms * 1e6 / dim as f64);

    for (name, fabric, target) in [
        ("peer", Fabric::Peer { counted: false }, 0),
        ("peer_counted", Fabric::Peer { counted: true }, 0),
        ("shmem_thread", Fabric::Shmem { process_pes: false }, 0),
        ("shmem_proc", Fabric::Shmem { process_pes: true }, 0),
        // The top qubit pairs every amplitude with one in the other
        // partition: half of all accesses are remote.
        (
            "shmem_thread_remote",
            Fabric::Shmem { process_pes: false },
            N - 1,
        ),
    ] {
        let secs = api::fabric_h_sweeps(fabric, N, target, REPS + 1)?;
        m.set(
            format!("view.{name}.ns_per_amp"),
            ns_per_amp(&secs[1..], 2.0),
        );
    }
    tr.end(open);
    Ok(())
}

fn shmem(m: &mut Metrics, tr: &mut Tracer) -> ApiResult<()> {
    let open = tr.begin("probe.shmem");
    for (name, process_pes, reps) in [("thread", false, 15), ("proc", true, 5)] {
        let secs = (0..reps)
            .map(|_| api::shmem_launch_secs(process_pes))
            .collect::<ApiResult<Vec<_>>>()?;
        m.set(format!("shmem.launch_us.{name}"), median(&secs) * 1e6);
    }
    let micro = api::shmem_micro()?;
    m.set("shmem.barrier_ns", micro.barrier_ns);
    m.set("shmem.get_ns.local", micro.get_local_ns);
    m.set("shmem.get_ns.remote", micro.get_remote_ns);
    m.set("shmem.put_ns.local", micro.put_local_ns);
    m.set("shmem.put_ns.remote", micro.put_remote_ns);
    m.set("shmem.put_slice_gbps", micro.put_slice_gbps);
    m.set("shmem.get_slice_gbps", micro.get_slice_gbps);
    m.set("shmem.exchange_pair_ms", micro.exchange_pair_ms);
    tr.end(open);
    Ok(())
}

// ---------------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------------

/// Rounds the engine layer is measured over, and naive serial rounds timed
/// beside them.
const ENGINE_ROUNDS: usize = 40;
const NAIVE_ROUNDS: usize = 5;

/// The engine layer, from a set-up serving session: `serve_mixed`'s own on
/// that workload, a fresh one elsewhere. Serves [`ENGINE_ROUNDS`] rounds with
/// allocations counted around them and nothing else, times a few naive
/// rounds, shuts the engine down and reports what it says about itself.
pub fn engine(
    m: &mut Metrics,
    tr: &mut Tracer,
    p: &mut Probe,
    mut session: Box<dyn Session>,
) -> ApiResult<()> {
    let open = tr.begin("probe.engine");
    let mut served = Samples::default();
    let ((), alloc_calls, alloc_bytes) = alloc::counted(|| {
        for _ in 0..ENGINE_ROUNDS {
            served.op(session.as_mut(), tr);
        }
    });
    for _ in 0..NAIVE_ROUNDS {
        served.reference(session.as_mut(), tr);
    }
    let report = session
        .finish()
        .ok_or("a serving session reports its engine")?;
    tr.end(open);
    p.attempted += served.attempted;
    p.failed += served.failed;

    let snap = &report.snapshot;
    m.set("engine.start_ms", report.start_ms);
    m.set("engine.register_ms", report.register_ms);
    m.set("engine.shutdown_ms", report.shutdown_ms);
    m.set("engine.submit_us_p50", median(&served.lat.submit_us));
    m.set(
        "engine.queue_wait_us_p50",
        snap.queue_wait.quantile_us(0.50) as f64,
    );
    m.set(
        "engine.queue_wait_us_p99",
        snap.queue_wait.quantile_us(0.99) as f64,
    );
    m.set(
        "engine.exec_us_p50",
        snap.execution.quantile_us(0.50) as f64,
    );
    m.set(
        "engine.exec_us_p99",
        snap.execution.quantile_us(0.99) as f64,
    );
    m.set("engine.batches", snap.batches as f64);
    m.set("engine.mean_batch", snap.mean_batch_size());
    m.set("engine.pool_hit_rate", snap.pool_hit_rate());
    let lookups = snap.plan_cache_hits + snap.plan_cache_misses;
    m.set(
        "engine.plan_cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            snap.plan_cache_hits as f64 / lookups as f64
        },
    );
    for stage in ["admit", "execute", "readback"] {
        m.set(
            format!("engine.stage.{stage}.high_water"),
            api::stage_high_water(snap, stage) as f64,
        );
    }
    m.set(
        "engine.stage.blocked_total",
        api::stages_blocked(snap) as f64,
    );
    m.set(
        "engine.mem_high_water_mb",
        snap.mem_high_water_bytes as f64 / (1 << 20) as f64,
    );
    let jobs = served.jobs as f64;
    m.set("engine.allocs_per_job", alloc_calls as f64 / jobs);
    m.set(
        "engine.alloc_kb_per_job",
        alloc_bytes as f64 / 1024.0 / jobs,
    );
    let round_ms = median(&served.op_ms);
    m.set("engine.vs_naive_ratio", round_ms / median(&served.ref_ms));
    m.set("engine.sweep_ms_p50", median(&served.lat.sweep_ms));
    m.set("engine.wide_ms_p50", median(&served.lat.wide_ms));
    m.set("engine.round_ms_p50", round_ms);
    Ok(())
}

/// Run every probe but the engine's, which needs a serving session.
pub fn probe_all(m: &mut Metrics, tr: &mut Tracer, p: &mut Probe) -> ApiResult<()> {
    // Kernels first: the triad they measure feeds the perfmodel probe.
    kernels(m, tr)?;
    let open = tr.begin("probe.front_end");
    front_end(m, tr, p)?;
    tr.end(open);
    let open = tr.begin("probe.plan");
    plan(m, tr, p)?;
    tr.end(open);
    let open = tr.begin("probe.sim");
    sim_layer(m, tr, p)?;
    tr.end(open);
    let open = tr.begin("probe.backends");
    backends(m, tr, p)?;
    tr.end(open);
    views(m, tr)?;
    shmem(m, tr)
}
