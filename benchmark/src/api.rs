//! The one file that names the simulator's crates. Every other file of the
//! benchmark reaches the simulator through what is defined or re-exported
//! here, so a later change to the simulator's API is absorbed in one place.
//!
//! The surface is deliberately narrow (see the README, "API surface"):
//! `SimConfig` constructors and public fields, never the `with_*` builders;
//! `Simulator::{new, run, reset, ...}`, never `run_plan`/`resume_plan` or a
//! `set_*` mutator; no `*_fused` twin, no `ExecutionModel`. Those are
//! scheduled for removal and this directory must not break when they go.

use std::fmt::Display;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use svsim_core::dispatch::upload;
use svsim_core::kernels::worker_range;
use svsim_core::{
    compile::compile_gate, fuse_compiled, plan_remap, BackendKind, CompiledPlan, DispatchMode,
    LocalView, PeerView, ShmemBackend, ShmemView,
};
use svsim_engine::{EngineConfig, JobRequest, JobSpec, Priority, SweepReturn};
use svsim_ir::{Gate, GateKind};
use svsim_perfmodel::{estimate_single, DeviceSpec};
use svsim_shmem::{launch, launch_process, MetricsTable, ProcOptions, SharedF64Vec, ShmemCtx};

pub use svsim_core::{CompiledGate, ParamCircuit, RunSummary, SimConfig, Simulator};
pub use svsim_engine::{Engine, JobHandle, MetricsSnapshot, TemplateId};
pub use svsim_ir::Circuit;

pub type ApiResult<T> = Result<T, String>;

fn e(err: impl Display) -> String {
    err.to_string()
}

// ---------------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------------

/// Single device at library defaults: what a user gets without choosing.
#[must_use]
pub fn cfg_single(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::single_device()
    }
}

/// The single-device reference every timed operation is checked against,
/// with each option pinned to the plain path. Equal to [`cfg_single`] as
/// long as the library's defaults are the plain path; when a default
/// changes (fusion on, say) `vs_single_ratio` on the single-device
/// workloads shows what the new default costs or gains.
#[must_use]
pub fn cfg_reference(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        dispatch: DispatchMode::PreloadedFnPointer,
        specialized: true,
        checkpoint_every: 0,
        remap: false,
        fuse: 0,
        ..SimConfig::single_device()
    }
}

/// The opt-in single-device modes the backend layer prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleMode {
    Generic,
    RuntimeParse,
    Fuse3,
    Checkpoint64,
}

#[must_use]
pub fn cfg_single_mode(seed: u64, mode: SingleMode) -> SimConfig {
    let mut c = cfg_reference(seed);
    match mode {
        SingleMode::Generic => c.specialized = false,
        SingleMode::RuntimeParse => c.dispatch = DispatchMode::RuntimeParse,
        SingleMode::Fuse3 => c.fuse = 3,
        SingleMode::Checkpoint64 => c.checkpoint_every = 64,
    }
    c
}

/// Scale-up over two peer-accessed partitions.
#[must_use]
pub fn cfg_up2(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::scale_up(2)
    }
}

/// Scale-out over two SHMEM PEs.
#[must_use]
pub fn cfg_out2(seed: u64, remap: bool, process_pes: bool) -> SimConfig {
    SimConfig {
        seed,
        remap,
        shmem_backend: if process_pes {
            ShmemBackend::Process
        } else {
            ShmemBackend::Thread
        },
        ..SimConfig::scale_out(2)
    }
}

/// Workers (devices or PEs) a configuration runs on.
#[must_use]
pub fn n_workers(config: &SimConfig) -> usize {
    match config.backend {
        BackendKind::SingleDevice => 1,
        BackendKind::ScaleUp { n_devices } => n_devices,
        BackendKind::ScaleOut { n_pes } => n_pes,
    }
}

pub fn sim_new(n_qubits: u32, config: SimConfig) -> ApiResult<Simulator> {
    Simulator::new(n_qubits, config).map_err(e)
}

pub fn sim_run(sim: &mut Simulator, circuit: &Circuit) -> ApiResult<RunSummary> {
    sim.run(circuit).map_err(e)
}

// ---------------------------------------------------------------------------
// Input generators (the library's circuit families; the seed comes from the
// benchmark)
// ---------------------------------------------------------------------------

pub fn square_root_n18() -> ApiResult<Circuit> {
    svsim_workloads::grover::square_root_n18().map_err(e)
}

pub fn dnn_layers(n: u32, layers: u32, seed: u64) -> ApiResult<Circuit> {
    svsim_workloads::qnn::dnn_layers(n, layers, seed).map_err(e)
}

pub fn qft(n: u32) -> ApiResult<Circuit> {
    svsim_workloads::algos::qft(n).map_err(e)
}

pub fn cat_state(n: u32) -> ApiResult<Circuit> {
    svsim_workloads::algos::cat_state(n).map_err(e)
}

pub fn w_state(n: u32) -> ApiResult<Circuit> {
    svsim_workloads::states::w_state(n).map_err(e)
}

/// QAOA MaxCut ansatz over the given graph, `p` layers.
pub fn qaoa_template(n: u32, edges: &[(u32, u32)], p: usize) -> ApiResult<ParamCircuit> {
    let graph = svsim_workloads::qaoa::Graph::new(n, edges);
    svsim_vqa::qaoa_template(&graph, p).map_err(e)
}

#[must_use]
pub fn qaoa_params(gammas: &[f64], betas: &[f64]) -> Vec<f64> {
    svsim_vqa::qaoa_params(gammas, betas)
}

/// QNN ansatz over `n_data` feature qubits plus a readout qubit.
pub fn qnn_template(n_data: u32, layers: u32) -> ApiResult<ParamCircuit> {
    svsim_vqa::qnn_template(n_data, layers).map_err(e)
}

#[must_use]
pub fn qnn_n_weights(n_data: u32, layers: u32) -> usize {
    svsim_workloads::qnn::qnn_n_weights(n_data, layers)
}

#[must_use]
pub fn qnn_params(features: &[f64], weights: &[f64]) -> Vec<f64> {
    svsim_vqa::qnn_params(features, weights)
}

// ---------------------------------------------------------------------------
// qasm / ir / plan / traffic
// ---------------------------------------------------------------------------

pub fn to_qasm(circuit: &Circuit) -> ApiResult<String> {
    svsim_qasm::to_qasm(circuit).map_err(e)
}

pub fn parse_circuit(text: &str) -> ApiResult<Circuit> {
    svsim_qasm::parse_circuit(text).map_err(e)
}

/// Run the IR optimizer; returns the gate count it leaves.
#[must_use]
pub fn optimize_gate_count(circuit: &Circuit) -> usize {
    let (optimized, stats) = svsim_ir::optimize(circuit);
    black_box(optimized);
    stats.after
}

/// Lower `circuit` for `config`; returns the amplitude passes (kernels) of
/// the plan.
#[must_use]
pub fn compile_plan_kernels(circuit: &Circuit, config: &SimConfig) -> usize {
    black_box(CompiledPlan::compile(circuit, circuit.n_qubits(), config)).n_kernels()
}

/// Plan the relabeling of `circuit` for two PEs; returns the exchange count.
#[must_use]
pub fn plan_remap_swaps(circuit: &Circuit) -> usize {
    black_box(plan_remap(circuit.ops(), circuit.n_qubits(), 2)).n_swaps
}

/// Communication counters of one run, or of the model's prediction of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Word operations that crossed partitions, summed over workers.
    pub remote_ops: u64,
    /// Bytes that crossed partitions, summed over workers.
    pub remote_bytes: u64,
    /// Word operations inside the issuing worker's partition.
    pub local_ops: u64,
    /// Barriers one worker passed.
    pub barriers: u64,
}

#[must_use]
pub fn measured_traffic(summary: &RunSummary) -> Traffic {
    let t = summary.total_traffic();
    Traffic {
        remote_ops: t.remote_ops(),
        remote_bytes: t.remote_bytes(),
        local_ops: t.local_gets + t.local_puts,
        barriers: summary.traffic.first().map_or(0, |pe| pe.barriers),
    }
}

/// What `Simulator::predict_traffic` says `circuit` will move on `sim`'s
/// backend: `(remote amplitude operations, remote bytes)`. A ShmemView moves
/// `re` and `im` as two words, so its measured word count is twice the
/// amplitude count; a PeerView counts one operation per amplitude.
#[must_use]
pub fn predicted_traffic(sim: &Simulator, circuit: &Circuit) -> (u64, u64) {
    let t = sim.predict_traffic(circuit);
    (t.remote_amp_ops, t.remote_bytes)
}

#[must_use]
pub fn expval_z(sim: &Simulator, mask: u64) -> f64 {
    svsim_core::measure::expval_z_mask(sim.state(), mask)
}

/// `estimate_single` on a device described by this host's measured triad
/// bandwidths; returns the predicted run time in milliseconds. The compute
/// rate and per-gate floor are nominal (one core, scalar f64), not measured.
#[must_use]
pub fn model_single_ms(mem_gbps: f64, cache_gbps: f64, cache_mib: f64, circuit: &Circuit) -> f64 {
    let host = DeviceSpec {
        name: "benchmark-host",
        mem_bw_gbps: mem_gbps,
        cache_bw_gbps: cache_gbps,
        cache_mib,
        flops_gflops: 8.0,
        gate_overhead_us: 0.05,
        dispatch_penalty_us: 0.0,
    };
    estimate_single(&host, circuit).total() * 1e3
}

// ---------------------------------------------------------------------------
// Kernel and view sweeps
// ---------------------------------------------------------------------------

/// The kernel queue of one microbenchmark class at `n` qubits, on the lowest
/// qubits (`hi == false`: target 0) or the highest (target `n - 1`).
/// `fused3` is whatever `fuse_compiled` makes of H·CX·RZ·CX·H over three
/// adjacent qubits at window 3 (today one `k_fused3` pass).
pub fn kernel_queue(class: &str, n: u32, hi: bool) -> ApiResult<Vec<CompiledGate>> {
    let (t, u, v) = if hi { (n - 1, n - 2, n - 3) } else { (0, 1, 2) };
    let gates: Vec<Gate> = match class {
        "h" => vec![Gate::new(GateKind::H, &[t], &[])],
        "oneq" => vec![Gate::new(GateKind::RY, &[t], &[0.37])],
        "cx" => vec![Gate::new(GateKind::CX, &[u, t], &[])],
        "cphase" => vec![Gate::new(GateKind::CU1, &[u, t], &[0.37])],
        "twoq" => vec![Gate::new(GateKind::RXX, &[u, t], &[0.37])],
        "fused3" => vec![
            Gate::new(GateKind::H, &[t], &[]),
            Gate::new(GateKind::CX, &[t, u], &[]),
            Gate::new(GateKind::RZ, &[u], &[0.37]),
            Gate::new(GateKind::CX, &[u, v], &[]),
            Gate::new(GateKind::H, &[v], &[]),
        ],
        other => return Err(format!("unknown kernel class `{other}`")),
    }
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(e)?;
    let mut queue = Vec::new();
    for g in &gates {
        compile_gate(g, n, true, &mut queue);
    }
    if class == "fused3" {
        queue = fuse_compiled(&queue, n, 3).0;
    }
    Ok(queue)
}

/// Bind `queue` to a `LocalView` over `re`/`im` (the "upload") and hand `f`
/// a closure that applies the whole queue once.
pub fn with_local_sweep<R>(
    queue: &[CompiledGate],
    re: &mut [f64],
    im: &mut [f64],
    f: impl FnOnce(&mut dyn FnMut()) -> R,
) -> R {
    let view = LocalView::new(re, im);
    let ops = upload::<LocalView>(queue);
    f(&mut || {
        for op in &ops {
            op.exe_op(&view, 0..op.args.work);
        }
    })
}

/// Which memory fabric a view sweep goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `PeerView` over two partitions, traffic counting off or on.
    Peer { counted: bool },
    /// `ShmemView` over two PEs that are threads or forked processes.
    Shmem { process_pes: bool },
}

/// Sweep one Hadamard on `target` over an `n`-qubit state split in two
/// partitions, each worker doing its half of the work items, `reps` times;
/// returns worker 0's wall time per sweep in seconds, taken between two
/// barriers so that it spans the slower worker.
pub fn fabric_h_sweeps(fabric: Fabric, n: u32, target: u32, reps: usize) -> ApiResult<Vec<f64>> {
    let gate = Gate::new(GateKind::H, &[target], &[]).map_err(e)?;
    let mut queue = Vec::new();
    compile_gate(&gate, n, true, &mut queue);
    let cg = &queue[0];
    let per = (1usize << n) / 2;
    let amp = 1.0 / ((1u64 << n) as f64).sqrt();
    match fabric {
        Fabric::Peer { counted } => {
            let re: Vec<SharedF64Vec> = (0..2).map(|_| SharedF64Vec::new(per, amp)).collect();
            let im: Vec<SharedF64Vec> = (0..2).map(|_| SharedF64Vec::new(per, 0.0)).collect();
            let table = MetricsTable::new(2);
            let gate_sync = Barrier::new(2);
            let times = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..2usize)
                    .map(|d| {
                        let (re, im, table, gate_sync) = (&re, &im, &table, &gate_sync);
                        scope.spawn(move || {
                            let view = PeerView::new(re, im, d, counted.then(|| table.pe(d)));
                            let op = &upload::<PeerView>(std::slice::from_ref(cg))[0];
                            let range = worker_range(cg.args.work, 2, d as u64);
                            let mut times = Vec::with_capacity(reps);
                            for _ in 0..reps {
                                gate_sync.wait();
                                let t0 = Instant::now();
                                op.exe_op(&view, range.clone());
                                gate_sync.wait();
                                times.push(t0.elapsed().as_secs_f64());
                            }
                            times
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .map_err(|_| "peer sweep worker panicked".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()
            })?;
            Ok(times.into_iter().next().unwrap_or_default())
        }
        Fabric::Shmem { process_pes } => {
            let body = |ctx: &ShmemCtx<'_>| -> Result<Vec<f64>, svsim_types::SvError> {
                let pe = ctx.my_pe();
                let re = ctx.malloc_f64(per)?;
                let im = ctx.malloc_f64(per)?;
                re.partition(pe).store_slice(0, &vec![amp; per]);
                ctx.try_barrier_all()?;
                let view = ShmemView::new(ctx, &re, &im);
                let op = &upload::<ShmemView>(std::slice::from_ref(cg))[0];
                let range = worker_range(cg.args.work, 2, pe as u64);
                let mut times = Vec::with_capacity(reps);
                for _ in 0..reps {
                    ctx.try_barrier_all()?;
                    let t0 = Instant::now();
                    op.exe_op(&view, range.clone());
                    ctx.try_barrier_all()?;
                    times.push(t0.elapsed().as_secs_f64());
                }
                Ok(times)
            };
            let per_pe = if process_pes {
                let opts = ProcOptions::sized_for(2 * per + 64, reps + 64);
                launch_process(2, &opts, None, body)
                    .and_then(svsim_shmem::SpmdOutput::into_result)
                    .map_err(e)?
                    .results
            } else {
                launch(2, body).map_err(e)?.results
            };
            per_pe.into_iter().next().ok_or("no PE result")?.map_err(e)
        }
    }
}

// ---------------------------------------------------------------------------
// shmem microbenchmarks
// ---------------------------------------------------------------------------

/// Wall time of launching two PEs that do nothing, in seconds.
pub fn shmem_launch_secs(process_pes: bool) -> ApiResult<f64> {
    let t0 = Instant::now();
    if process_pes {
        launch_process(2, &ProcOptions::default(), None, |ctx| ctx.my_pe() as u64)
            .and_then(svsim_shmem::SpmdOutput::into_result)
            .map_err(e)?;
    } else {
        launch(2, |ctx| ctx.my_pe()).map_err(e)?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// One-sided primitives timed on two thread PEs: PE 0 issues, PE 1 waits at
/// the next barrier.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShmemMicro {
    pub barrier_ns: f64,
    pub get_local_ns: f64,
    pub get_remote_ns: f64,
    pub put_local_ns: f64,
    pub put_remote_ns: f64,
    pub put_slice_gbps: f64,
    pub get_slice_gbps: f64,
    /// One relabeling exchange of an 18-qubit state between the two PEs
    /// (runs of 256 words), median of eight.
    pub exchange_pair_ms: f64,
}

pub fn shmem_micro() -> ApiResult<ShmemMicro> {
    const N: u32 = 18;
    const BARRIERS: usize = 20_000;
    const WORDS: usize = 400_000;
    const SLICE_WORDS: usize = 1 << 16;
    const SLICE_REPS: usize = 200;
    const EXCHANGES: usize = 8;
    let per = (1usize << N) / 2;
    let body = |ctx: &ShmemCtx<'_>| -> Result<ShmemMicro, svsim_types::SvError> {
        let pe = ctx.my_pe();
        let re = ctx.malloc_f64(per)?;
        let im = ctx.malloc_f64(per)?;
        let xr = ctx.malloc_f64(per / 2)?;
        let xi = ctx.malloc_f64(per / 2)?;
        ctx.try_barrier_all()?;
        let mut m = ShmemMicro::default();

        let t0 = Instant::now();
        for _ in 0..BARRIERS {
            ctx.try_barrier_all()?;
        }
        m.barrier_ns = t0.elapsed().as_secs_f64() * 1e9 / BARRIERS as f64;

        if pe == 0 {
            let per_word = |t0: Instant| t0.elapsed().as_secs_f64() * 1e9 / WORDS as f64;
            let mut acc = 0.0;
            let t0 = Instant::now();
            for i in 0..WORDS {
                acc += ctx.get_f64(&re, 0, i & (per - 1));
            }
            m.get_local_ns = per_word(t0);
            let t0 = Instant::now();
            for i in 0..WORDS {
                acc += ctx.get_f64(&re, 1, i & (per - 1));
            }
            m.get_remote_ns = per_word(t0);
            let t0 = Instant::now();
            for i in 0..WORDS {
                ctx.put_f64(&im, 0, i & (per - 1), acc);
            }
            m.put_local_ns = per_word(t0);
            let t0 = Instant::now();
            for i in 0..WORDS {
                ctx.put_f64(&im, 1, i & (per - 1), acc);
            }
            m.put_remote_ns = per_word(t0);
            black_box(acc);

            let mut buf = vec![0.5f64; SLICE_WORDS];
            let gbps = |t0: Instant| {
                (SLICE_REPS * SLICE_WORDS * 8) as f64 / t0.elapsed().as_secs_f64() / 1e9
            };
            let t0 = Instant::now();
            for _ in 0..SLICE_REPS {
                ctx.put_slice_f64(&re, 1, 0, &buf);
            }
            m.put_slice_gbps = gbps(t0);
            let t0 = Instant::now();
            for _ in 0..SLICE_REPS {
                ctx.get_slice_f64(&re, 1, 0, &mut buf);
            }
            m.get_slice_gbps = gbps(t0);
            black_box(&buf);
        }
        ctx.try_barrier_all()?;

        let view = ShmemView::new(ctx, &re, &im);
        let mut exchanges = Vec::with_capacity(EXCHANGES);
        for _ in 0..EXCHANGES {
            let t0 = Instant::now();
            view.exchange_pair(8, N - 1, &xr, &xi);
            exchanges.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        m.exchange_pair_ms = crate::stats::median(&exchanges);
        Ok(m)
    };
    let out = launch(2, body).map_err(e)?;
    out.results
        .into_iter()
        .next()
        .ok_or("no PE result")?
        .map_err(e)
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Start the engine at its defaults with `workers` execute workers.
#[must_use]
pub fn engine_start(workers: usize) -> Engine {
    Engine::start(EngineConfig {
        workers,
        pool_max_per_key: workers,
        ..EngineConfig::default()
    })
}

pub fn engine_register(engine: &Engine, name: &str, t: &ParamCircuit) -> ApiResult<TemplateId> {
    engine.register_template(name, t).map_err(e)
}

/// Submit a self-contained circuit; `high` selects the latency-sensitive
/// class, otherwise the default one.
pub fn submit_one_shot(
    engine: &Engine,
    circuit: Arc<Circuit>,
    config: SimConfig,
    shots: usize,
    high: bool,
) -> ApiResult<JobHandle> {
    let request = JobRequest {
        priority: if high {
            Priority::High
        } else {
            Priority::Normal
        },
        ..JobRequest::new(JobSpec::OneShot {
            circuit,
            config,
            shots,
            return_state: false,
        })
    };
    engine.submit(request).map_err(e)
}

/// Submit one low-priority parameter point of a registered template,
/// returning `<Z-mask>`.
pub fn submit_sweep(
    engine: &Engine,
    template: TemplateId,
    params: Vec<f64>,
    mask: u64,
) -> ApiResult<JobHandle> {
    let request = JobRequest {
        priority: Priority::Low,
        ..JobRequest::new(JobSpec::Sweep {
            template,
            params,
            returning: SweepReturn::ExpZ(mask),
        })
    };
    engine.submit(request).map_err(e)
}

/// What a job returned, in a form two executions can be compared by.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    OneShot {
        gates: usize,
        cbits: u64,
        /// Sampled outcomes and their counts, ascending by outcome.
        samples: Vec<(u64, usize)>,
    },
    Sweep {
        /// Bits of the `f64` expectation value.
        value_bits: u64,
    },
}

#[must_use]
pub fn job_id(handle: &JobHandle) -> u64 {
    handle.id().0
}

pub fn wait(handle: &JobHandle) -> ApiResult<Output> {
    match handle.wait().map_err(e)? {
        svsim_engine::JobOutput::OneShot {
            summary, samples, ..
        } => Ok(Output::OneShot {
            gates: summary.gates,
            cbits: summary.cbits,
            samples: samples.unwrap_or_default().into_iter().collect(),
        }),
        svsim_engine::JobOutput::Sweep { value, .. } => Ok(Output::Sweep {
            value_bits: value.ok_or("sweep returned no value")?.to_bits(),
        }),
    }
}

/// The one-shot job the way a library client without an engine runs it: a
/// fresh simulator, run, sample.
pub fn naive_one_shot(circuit: &Circuit, config: SimConfig, shots: usize) -> ApiResult<Output> {
    let mut sim = sim_new(circuit.n_qubits(), config)?;
    let summary = sim_run(&mut sim, circuit)?;
    let mut samples = std::collections::BTreeMap::new();
    if shots > 0 {
        for outcome in sim.sample(shots) {
            *samples.entry(outcome).or_insert(0usize) += 1;
        }
    }
    Ok(Output::OneShot {
        gates: summary.gates,
        cbits: summary.cbits,
        samples: samples.into_iter().collect(),
    })
}

/// The sweep point the naive way: bind the template, fresh simulator, run,
/// expectation.
pub fn naive_sweep(template: &ParamCircuit, params: &[f64], mask: u64) -> ApiResult<Output> {
    let circuit = template.bind(params).map_err(e)?;
    let mut sim = sim_new(circuit.n_qubits(), SimConfig::single_device())?;
    sim_run(&mut sim, &circuit)?;
    Ok(Output::Sweep {
        value_bits: expval_z(&sim, mask).to_bits(),
    })
}

/// High-water queue depth of the named pipeline stage.
#[must_use]
pub fn stage_high_water(m: &MetricsSnapshot, stage: &str) -> u64 {
    m.stages
        .iter()
        .find(|s| s.name == stage)
        .map_or(0, |s| s.high_water)
}

/// Backpressure events summed over all stages.
#[must_use]
pub fn stages_blocked(m: &MetricsSnapshot) -> u64 {
    m.stages.iter().map(|s| s.blocked).sum()
}
