//! `sv-sim` — command-line front door to the simulator; run it with no
//! arguments for each command's usage ([`COMMANDS`]). Speed numbers come
//! from `benchmark/` (the one command in `BENCHMARK.json`), not from here.

use std::process::ExitCode;
use std::str::FromStr;
use sv_sim::core::{
    measure, BackendKind, CompiledPlan, DispatchMode, ShmemBackend, SimConfig, Simulator,
};
use sv_sim::perfmodel::{devices, interconnects, scale_up, single_device};
use sv_sim::qasm::parse_circuit;

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// One subcommand. Its usage line is also the declaration of what it
/// accepts: `[--flag]` is a switch, `--flag X` (bracketed or not) takes a
/// value, `<file.qasm>` is a positional file.
struct Command {
    name: &'static str,
    usage: &'static str,
    run: fn(&Flags) -> CmdResult,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        usage: "<file.qasm> [--backend single|up:N|out:N] [--pe-mode thread|process] \
                [--shots N] [--seed S] [--generic] [--runtime-parse] [--optimize] [--remap] \
                [--amplitudes K] [--traffic]",
        run: cmd_run,
    },
    Command {
        name: "stats",
        usage: "<file.qasm>",
        run: cmd_stats,
    },
    Command {
        name: "estimate",
        usage: "<file.qasm> --platform <name> [--workers N]",
        run: cmd_estimate,
    },
    Command {
        name: "platforms",
        usage: "",
        run: cmd_platforms,
    },
    Command {
        name: "fault-bench",
        usage: "[--fault kill-pe|drop-put|poison-barrier|hang-pe|torn-checkpoint|exec] \
                [--chaos] [--recovery retry|respawn|degrade] [--hang-ms MS] [--pes N] \
                [--pe-mode thread|process] [--every K] [--seed S] [--one-shots N] \
                [--sweeps N] [--attempts N]",
        run: cmd_fault_bench,
    },
    Command {
        name: "analyze",
        usage: "[<file.qasm>] [--suite] [--pes N] [--detect] [--remap] [--merge-epochs I] \
                [--max-qubits M] [--seed S]",
        run: cmd_analyze,
    },
    Command {
        name: "verify",
        usage: "[--max-states N]",
        run: cmd_verify,
    },
    Command {
        name: "lint",
        usage: "[--root DIR] [--deny-warnings]",
        run: cmd_lint,
    },
];

impl Command {
    /// Whether the usage line declares `flag`, and if so whether a value
    /// follows it (`--flag]` closes its bracket at once: a switch).
    fn takes_value(&self, flag: &str) -> Option<bool> {
        self.usage
            .split_whitespace()
            .map(|word| word.trim_start_matches('['))
            .find(|word| word.trim_end_matches(']') == flag)
            .map(|word| !word.ends_with(']'))
    }
}

fn usage() -> ExitCode {
    eprintln!("usage:");
    for cmd in COMMANDS {
        eprintln!("  sv-sim {} {}", cmd.name, cmd.usage);
    }
    ExitCode::from(2)
}

/// A command's arguments, checked against what its usage line declares.
struct Flags<'a> {
    file: Option<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Sort `args` into the command's declared flags.
    ///
    /// # Errors
    /// A flag the command does not take, a value flag with no value after
    /// it, or a positional argument the command has no use for — each
    /// named in the message.
    fn parse(args: &'a [String], cmd: &Command) -> Result<Self, String> {
        let mut flags = Self {
            file: None,
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if arg.starts_with("--") {
                match cmd.takes_value(arg) {
                    None => return Err(format!("unknown flag {arg} for `{}`", cmd.name)),
                    Some(false) => flags.switches.push(arg),
                    Some(true) => match it.next().filter(|v| !v.starts_with("--")) {
                        Some(value) => flags.values.push((arg, value)),
                        None => return Err(format!("{arg} needs a value")),
                    },
                }
            } else if flags.file.is_none() && cmd.usage.contains("<file.qasm>") {
                flags.file = Some(arg);
            } else {
                return Err(format!("unexpected argument `{arg}` for `{}`", cmd.name));
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The value of `name` as a `T`, if it was given.
    ///
    /// # Errors
    /// A value that is not a `T`, named with its flag.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name).map(|v| parse_value(name, v)).transpose()
    }

    /// The value of `name` as a `T`, or `default` if it was not given.
    ///
    /// # Errors
    /// As [`Self::parsed`].
    fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}

/// `text`, given to flag `name`, as a `T`.
///
/// # Errors
/// `--flag: invalid value 'text'` when it is not one.
fn parse_value<T: FromStr>(name: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{name}: invalid value '{text}'"))
}

/// The modeled platforms, each with the names `--platform` accepts for it.
const PLATFORMS: &[(&[&str], &sv_sim::perfmodel::DeviceSpec)] = &[
    (&["epyc", "epyc7742"], &devices::EPYC_7742),
    (&["p8276", "intel"], &devices::INTEL_P8276),
    (
        &["p8276-avx512", "intel-avx512"],
        &devices::INTEL_P8276_AVX512,
    ),
    (&["power9", "p9"], &devices::POWER9),
    (&["phi", "phi7230"], &devices::PHI_7230),
    (&["phi-avx512"], &devices::PHI_7230_AVX512),
    (&["v100"], &devices::V100),
    (&["a100"], &devices::A100),
    (&["mi100"], &devices::MI100),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name))
    else {
        return usage();
    };
    let flags = match Flags::parse(&args[1..], cmd) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match (cmd.run)(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_platforms(_flags: &Flags) -> CmdResult {
    println!("modeled platforms (see svsim-perfmodel):");
    for (_, d) in PLATFORMS {
        println!(
            "  {:<22} {:>6.1} GB/s effective, {:>7.0} GF/s, {:.2} us/gate floor",
            d.name, d.mem_bw_gbps, d.flops_gflops, d.gate_overhead_us
        );
    }
    Ok(())
}

fn load(path: &str) -> Result<sv_sim::ir::Circuit, Box<dyn std::error::Error>> {
    let src = std::fs::read_to_string(path)?;
    Ok(parse_circuit(&src)?)
}

fn cmd_run(flags: &Flags) -> CmdResult {
    let path = flags.file.ok_or("missing <file.qasm>")?;
    let circuit = load(path)?;
    let backend = match flags.value("--backend") {
        None | Some("single") => BackendKind::SingleDevice,
        Some(spec) => {
            let (kind, count) = spec
                .split_once(':')
                .ok_or("backend must be single, up:N, or out:N")?;
            let n: usize = parse_value("--backend", count)?;
            match kind {
                "up" => BackendKind::ScaleUp { n_devices: n },
                "out" => BackendKind::ScaleOut { n_pes: n },
                other => return Err(format!("unknown backend `{other}`").into()),
            }
        }
    };
    let mut config = SimConfig::single_device();
    config.backend = backend;
    if flags.has("--generic") {
        config.specialized = false;
    }
    if flags.has("--runtime-parse") {
        config.dispatch = DispatchMode::RuntimeParse;
    }
    if flags.has("--remap") {
        if !matches!(backend, BackendKind::ScaleOut { .. }) {
            return Err("--remap applies to the scale-out backend (--backend out:N)".into());
        }
        config.remap = true;
    }
    match flags.value("--pe-mode") {
        None | Some("thread") => {}
        Some("process") => {
            if !matches!(backend, BackendKind::ScaleOut { .. }) {
                return Err("--pe-mode process applies to the scale-out backend \
                            (--backend out:N)"
                    .into());
            }
            config.shmem_backend = ShmemBackend::Process;
        }
        Some(other) => return Err(format!("unknown PE mode `{other}` (thread|process)").into()),
    }
    config.seed = flags.parsed_or("--seed", config.seed)?;
    let shots: usize = flags.parsed_or("--shots", 1024)?;
    let top: Option<usize> = flags.parsed("--amplitudes")?;

    let circuit = if flags.has("--optimize") {
        let (optimized, stats) = sv_sim::ir::optimize(&circuit);
        println!(
            "optimizer: {} -> {} gates ({} cancelled, {} fused, {} dropped)",
            stats.before, stats.after, stats.cancelled, stats.fused, stats.dropped
        );
        optimized
    } else {
        circuit
    };

    let start = std::time::Instant::now();
    let mut sim = Simulator::new(circuit.n_qubits(), config)?;
    let summary = sim.run(&circuit)?;
    let elapsed = start.elapsed();
    println!(
        "ran {} gates on {} qubits in {:.3} ms ({:?})",
        summary.gates,
        circuit.n_qubits(),
        elapsed.as_secs_f64() * 1e3,
        config.backend,
    );
    println!("kernels: {}", sv_sim::core::kernels::isa());
    if summary.tile_runs > 0 {
        let (runs, kernels) = (summary.tile_runs, summary.tiled_kernels);
        let (inner_runs, inner) = (summary.inner_tile_runs, summary.inner_tiled_kernels);
        println!(
            "tiles: {runs} runs, {kernels} kernels (mean {:.1}); \
             inner: {inner_runs} sub-runs, {inner} kernels; \
             zero tiles skipped: {}",
            kernels as f64 / runs as f64,
            summary.zero_tiles
        );
    }
    if circuit.n_cbits() > 0 {
        println!(
            "classical register: {:0width$b}",
            summary.cbits,
            width = circuit.n_cbits() as usize
        );
    }
    if flags.has("--traffic") {
        let t = summary.total_traffic();
        println!(
            "traffic: {} one-sided ops ({} remote, {} bytes over the fabric), {} barriers",
            t.total_ops(),
            t.remote_ops(),
            t.remote_bytes(),
            t.barriers
        );
        if !summary.traffic.is_empty() {
            // Compiled kernels: a conditioned kernel that did not fire is
            // in the second number.
            let compiled = sim.compile_plan(&circuit).n_kernels();
            let slab = summary.slab_kernels;
            println!(
                "kernels: {slab} on the local slab, {} on partitions lent {}",
                compiled.saturating_sub(slab),
                match backend {
                    BackendKind::ScaleOut { .. } => "by the owning PEs",
                    _ => "through the peer table",
                }
            );
        }
        if summary.remap_swaps > 0 {
            println!("remap: {} relabeling slab exchanges", summary.remap_swaps);
        }
    }
    if let Some(k) = top {
        let amps = sim.amplitudes();
        let mut indexed: Vec<(usize, f64)> = amps
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.norm_sqr()))
            .collect();
        indexed.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("top {k} amplitudes:");
        for (idx, p) in indexed.into_iter().take(k) {
            println!(
                "  |{:0width$b}>  p={:.6}  amp={}",
                idx,
                p,
                amps[idx],
                width = circuit.n_qubits() as usize
            );
        }
    }
    if shots > 0 {
        let samples = sim.sample(shots);
        let hist = measure::histogram(&samples);
        println!("sampled {shots} shots:");
        for (state, count) in hist.iter().take(16) {
            println!(
                "  |{:0width$b}> x{count}",
                state,
                width = circuit.n_qubits() as usize
            );
        }
        if hist.len() > 16 {
            println!("  ... {} more outcomes", hist.len() - 16);
        }
    }
    Ok(())
}

fn cmd_stats(flags: &Flags) -> CmdResult {
    let path = flags.file.ok_or("missing <file.qasm>")?;
    let circuit = load(path)?;
    let s = circuit.stats();
    println!("qubits:     {}", s.qubits);
    println!("cbits:      {}", circuit.n_cbits());
    println!("gates:      {}", s.gates);
    println!("entangling: {}", s.cx);
    println!("measures:   {}", s.measures);
    println!("depth:      {}", s.depth);
    println!(
        "state size: {} bytes",
        sv_sim::types::state_bytes(s.qubits as usize)
    );
    Ok(())
}

fn cmd_estimate(flags: &Flags) -> CmdResult {
    let path = flags.file.ok_or("missing <file.qasm>")?;
    let circuit = load(path)?;
    let name = flags.value("--platform").ok_or("missing --platform")?;
    let (_, dev) = PLATFORMS
        .iter()
        .find(|(names, _)| names.iter().any(|n| n.eq_ignore_ascii_case(name)))
        .ok_or_else(|| format!("unknown platform `{name}`"))?;
    let workers: usize = flags.parsed_or("--workers", 1)?;
    // The count the model can partition by is the count a run could use.
    SimConfig::scale_up(workers).check_width(circuit.n_qubits())?;
    let plan = CompiledPlan::compile(&circuit, circuit.n_qubits(), &SimConfig::single_device());
    let breakdown = if workers == 1 {
        single_device(dev, &plan)
    } else {
        // Pick a plausible fabric for the device family.
        let ic = if dev.cache_mib > 0.0 {
            &interconnects::QPI
        } else {
            &interconnects::NVSWITCH
        };
        scale_up(dev, ic, &plan, workers as u64)
    };
    println!(
        "modeled latency on {} x{workers}: {:.3} ms (compute {:.3} ms, comm {:.3} ms, sync {:.3} ms)",
        dev.name,
        breakdown.total() * 1e3,
        breakdown.compute_s * 1e3,
        breakdown.comm_s * 1e3,
        breakdown.sync_s * 1e3,
    );
    Ok(())
}

/// Run a mixed one-shot + sweep stream under a seeded fault schedule and prove
/// recovery: every job killed by an injected fault must be retried (from
/// its last checkpoint where one exists) and finish **bit-identical** to a
/// fault-free reference run. Exits nonzero on any checksum mismatch.
fn cmd_fault_bench(flags: &Flags) -> CmdResult {
    use std::sync::Arc;
    use std::time::Duration;
    use sv_sim::core::state_checksum;
    use sv_sim::engine::{
        DegradePolicy, Engine, EngineConfig, JobOutput, JobRequest, JobSpec, RetryPolicy,
        SweepReturn,
    };
    use sv_sim::shmem::{FaultAction, FaultPlan};
    use sv_sim::types::{PeOp, SvRng};
    use sv_sim::vqa::{qaoa_params, qaoa_template};
    use sv_sim::workloads::{algos::cat_state, states::w_state};

    let fault_kind = flags.value("--fault").unwrap_or("kill-pe");
    let pes: usize = flags.parsed_or("--pes", 4)?;
    let every: u32 = flags.parsed_or("--every", 2)?;
    let seed: u64 = flags.parsed_or("--seed", 0xFA17)?;
    let one_shots: usize = flags.parsed_or("--one-shots", 4)?;
    let sweeps: usize = flags.parsed_or("--sweeps", 8)?;
    let attempts: u32 = flags.parsed_or("--attempts", 4)?;
    let process_pes = match flags.value("--pe-mode") {
        None | Some("thread") => false,
        Some("process") => true,
        Some(other) => return Err(format!("unknown PE mode `{other}` (thread|process)").into()),
    };
    let chaos = flags.has("--chaos");
    let recovery = flags.value("--recovery").unwrap_or("retry");
    let hang_ms: u32 = flags.parsed_or("--hang-ms", 1500)?;
    // Respawn is the process world's own repair, budgeted per launch by
    // `SimConfig::respawn_max`; the ladder is the engine's.
    let (degrade, respawn_max) = match recovery {
        "retry" => (DegradePolicy::None, 0),
        "respawn" => (DegradePolicy::None, 2),
        "degrade" => (
            DegradePolicy::HalvePes {
                failures_per_rung: 1,
                min_pes: 1,
            },
            0,
        ),
        other => return Err(format!("unknown recovery `{other}` (retry|respawn|degrade)").into()),
    };

    // The fault schedule: `exec` targets the engine worker itself (rank 0,
    // since the bench pins one worker); `torn-checkpoint` targets the
    // host-side persistence points of the job's checkpoint store; the SHMEM
    // kinds target whichever PE reaches a seeded trigger count first inside
    // the scale-out launch, so short circuits still hit the fault.
    let (op, action) = match fault_kind {
        "kill-pe" => (PeOp::Put, FaultAction::Kill),
        "drop-put" => (PeOp::Put, FaultAction::Drop),
        "poison-barrier" => (PeOp::Barrier, FaultAction::Poison),
        "hang-pe" => (PeOp::Put, FaultAction::Hang),
        "torn-checkpoint" => (PeOp::Checkpoint, FaultAction::TornCheckpoint),
        "exec" => (PeOp::Exec, FaultAction::Kill),
        other => return Err(format!("unknown fault kind `{other}`").into()),
    };
    // `--chaos` overrides the fixed kind per one-shot with a seeded pick
    // from the self-healing trio: PE kill, PE hang, torn checkpoint write.
    let job_fault = |i: usize| -> (PeOp, FaultAction) {
        if !chaos {
            return (op, action);
        }
        let mut rng = SvRng::seed_from_u64(
            seed ^ 0x000C_4A05 ^ (i as u64).wrapping_mul(0x517C_C1B7_2722_0A95),
        );
        match (rng.next_f64() * 3.0) as usize {
            0 => (PeOp::Put, FaultAction::Kill),
            1 => (PeOp::Put, FaultAction::Hang),
            _ => (PeOp::Checkpoint, FaultAction::TornCheckpoint),
        }
    };
    let make_plan = |job_seed: u64, op: PeOp, action: FaultAction| -> Arc<FaultPlan> {
        if op == PeOp::Exec {
            return Arc::new(FaultPlan::new().with(0, PeOp::Exec, 1, action));
        }
        let mut rng = SvRng::seed_from_u64(job_seed);
        if op == PeOp::Checkpoint {
            // Tear a mid-run generation so at least one good one precedes
            // it — the recovery path the store's fallback exists for.
            let at = 2 + (rng.next_f64() * 2.0) as u64;
            return Arc::new(FaultPlan::new().with(0, PeOp::Checkpoint, at, action));
        }
        let at = 1 + (rng.next_f64() * 8.0) as u64;
        Arc::new(FaultPlan::new().with(None, op, at, action))
    };
    let retry = RetryPolicy {
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        jitter_seed: seed,
        ..RetryPolicy::attempts(attempts.max(2))
    };

    // --- The mix ------------------------------------------------------------
    // One-shots arrive as OpenQASM text and execute scale-out with periodic
    // checkpoints; sweeps are QAOA points on a registered template.
    let qasm_sources = [
        sv_sim::qasm::to_qasm(&cat_state(8)?)?,
        sv_sim::qasm::to_qasm(&w_state(8)?)?,
    ];
    let one_shot_jobs: Vec<(sv_sim::ir::Circuit, SimConfig)> = (0..one_shots)
        .map(|i| {
            let circuit = parse_circuit(&qasm_sources[i % qasm_sources.len()])?;
            // Thread PEs run under the race detector: recovery must be both
            // bit-identical AND protocol-clean (races_detected fails the
            // bench below). Process PEs cannot host the in-process detector;
            // they instead prove recovery across real fork/SIGKILL deaths.
            let config = SimConfig {
                seed: seed ^ i as u64,
                checkpoint_every: every,
                hang_deadline_ms: hang_ms,
                respawn_max,
                detect_races: !process_pes,
                shmem_backend: if process_pes {
                    ShmemBackend::Process
                } else {
                    ShmemBackend::Thread
                },
                ..SimConfig::scale_out(pes)
            };
            Ok::<_, Box<dyn std::error::Error>>((circuit, config))
        })
        .collect::<Result<_, _>>()?;

    let graph = sv_sim::workloads::qaoa::Graph::random(8, 0.4, seed);
    let qaoa = qaoa_template(&graph, 2)?;
    let qaoa_mask = (1u64 << 8) - 1;
    let mut rng = SvRng::seed_from_u64(seed ^ 0x0051_eeb5);
    let sweep_points: Vec<Vec<f64>> = (0..sweeps)
        .map(|_| {
            let gammas = [rng.range_f64(-2.0, 2.0), rng.range_f64(-2.0, 2.0)];
            let betas = [rng.range_f64(-1.0, 1.0), rng.range_f64(-1.0, 1.0)];
            qaoa_params(&gammas, &betas)
        })
        .collect();

    // --- Fault-free reference ----------------------------------------------
    let mut ref_checksums = Vec::with_capacity(one_shots);
    for (circuit, config) in &one_shot_jobs {
        let mut sim = Simulator::new(circuit.n_qubits(), *config)?;
        sim.run(circuit)?;
        ref_checksums.push(state_checksum(sim.state()));
    }
    let mut compiled = qaoa.compile()?;
    let ref_values: Vec<f64> = sweep_points
        .iter()
        .map(|p| {
            let state = compiled.run(p)?;
            Ok::<_, Box<dyn std::error::Error>>(measure::expval_z_mask(&state, qaoa_mask))
        })
        .collect::<Result<_, _>>()?;

    // --- Faulted run --------------------------------------------------------
    // One worker: execution order (and the Exec fault's PE rank) is fixed.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let qaoa_id = engine.register_template("qaoa_maxcut_n8", &qaoa)?;
    let mut plans = Vec::new();

    // Every one-shot persists its checkpoints into a crash-consistent
    // per-job store — the surface torn-write faults tear and lost
    // in-memory checkpoints recover from.
    let ckpt_root = std::env::temp_dir().join(format!("svsim-fault-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let one_shot_handles: Vec<_> = one_shot_jobs
        .iter()
        .enumerate()
        .map(|(i, (circuit, config))| {
            let (job_op, job_action) = job_fault(i);
            let plan = make_plan(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                job_op,
                job_action,
            );
            plans.push(Arc::clone(&plan));
            engine
                .submit(JobRequest {
                    retry,
                    degrade,
                    checkpoint_dir: Some(ckpt_root.join(format!("job-{i}"))),
                    fault_plan: Some(plan),
                    ..JobRequest::new(JobSpec::OneShot {
                        circuit: Arc::new(circuit.clone()),
                        config: *config,
                        shots: 0,
                        return_state: true,
                    })
                })
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let sweep_handles: Vec<_> = sweep_points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut request = JobRequest {
                retry,
                ..JobRequest::new(JobSpec::Sweep {
                    template: qaoa_id,
                    params: p.clone(),
                    returning: SweepReturn::ExpZ(qaoa_mask),
                })
            };
            // SHMEM-level faults have no trigger inside a single-device
            // template sweep; Exec faults target every other sweep point.
            if !chaos && op == PeOp::Exec && i % 2 == 0 {
                let plan = make_plan(seed ^ (i as u64) << 7, op, action);
                plans.push(Arc::clone(&plan));
                request.fault_plan = Some(plan);
            }
            engine.submit(request).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let mut mismatches = 0usize;
    for (i, h) in one_shot_handles.iter().enumerate() {
        let JobOutput::OneShot { state, .. } = h.wait().map_err(|e| e.to_string())? else {
            unreachable!("one-shot job");
        };
        let got = state_checksum(&state.expect("state requested"));
        if got != ref_checksums[i] {
            eprintln!(
                "one-shot {i}: checksum {got:#018x} != reference {:#018x}",
                ref_checksums[i]
            );
            mismatches += 1;
        }
    }
    for (i, h) in sweep_handles.iter().enumerate() {
        let JobOutput::Sweep { value, .. } = h.wait().map_err(|e| e.to_string())? else {
            unreachable!("sweep job");
        };
        let got = value.expect("ExpZ requested");
        if got.to_bits() != ref_values[i].to_bits() {
            eprintln!("sweep {i}: value {got:?} != reference {:?}", ref_values[i]);
            mismatches += 1;
        }
    }
    let metrics = engine.shutdown();

    let _ = std::fs::remove_dir_all(&ckpt_root);
    let scheduled = plans.len();
    let fired: usize = plans.iter().map(|p| p.len() - p.armed_remaining()).sum();
    println!(
        "fault-bench: fault={} recovery={recovery} pes={pes} pe-mode={} every={every} \
         seed={seed:#x} ({one_shots} one-shots, {sweeps} sweep points)",
        if chaos { "chaos" } else { fault_kind },
        if process_pes { "process" } else { "thread" },
    );
    println!("faults: {fired}/{scheduled} scheduled faults fired");
    println!("{metrics}");
    let total = one_shots + sweeps;
    if metrics.races_detected > 0 {
        return Err(format!(
            "{} SHMEM protocol races detected during recovery",
            metrics.races_detected
        )
        .into());
    }
    if mismatches > 0 {
        return Err(
            format!("{mismatches}/{total} jobs diverged from the fault-free reference").into(),
        );
    }
    println!("OK: all {total} job checksums match the fault-free reference");
    Ok(())
}

/// Static (and optionally dynamic) race analysis of the one-sided SHMEM
/// access protocol. `--pes` and `--remap` make up the scale-out
/// configuration whose compiled plan is analyzed — the schedule a `run`
/// with the same flags executes. `--suite` analyzes every Table 4 workload
/// instead of a QASM file; `--detect` additionally executes each plan under
/// the runtime race detector and cross-checks the verdicts;
/// `--merge-epochs I` deliberately removes the barrier after epoch `I` to
/// demonstrate conflict detection. Exits nonzero on any conflict, dynamic
/// race, or disagreement.
fn cmd_analyze(flags: &Flags) -> CmdResult {
    use sv_sim::analyzer::{analyze, check_plan, cross_validate, CommPlan, Verdict};

    let pes: usize = flags.parsed_or("--pes", 8)?;
    let detect = flags.has("--detect");
    let config = SimConfig {
        seed: flags.parsed_or("--seed", 0xACE5)?,
        remap: flags.has("--remap"),
        ..SimConfig::scale_out(pes)
    };
    let merge: Option<usize> = flags.parsed("--merge-epochs")?;
    if merge.is_some() && (detect || config.remap) {
        return Err("--merge-epochs edits the plain schedule statically; \
                    combine it with neither --remap nor --detect"
            .into());
    }
    let max_qubits: u32 = flags.parsed_or("--max-qubits", u32::MAX)?;

    let mut targets: Vec<(String, sv_sim::ir::Circuit)> = Vec::new();
    if flags.has("--suite") {
        for spec in sv_sim::workloads::medium_suite()
            .into_iter()
            .chain(sv_sim::workloads::large_suite())
        {
            let c = spec.circuit()?;
            if c.n_qubits() <= max_qubits {
                targets.push((spec.name.to_string(), c));
            }
        }
    } else {
        let path = flags.file.ok_or("analyze needs <file.qasm> or --suite")?;
        targets.push((path.to_string(), load(path)?));
    }

    let mut bad = 0usize;
    for (name, circuit) in &targets {
        let report = match merge {
            None => analyze(circuit, &config)?,
            Some(i) => {
                let plan = CompiledPlan::compile(circuit, circuit.n_qubits(), &config);
                let mut plan = CommPlan::from_plan(&plan);
                plan.merge_epochs(i)?;
                check_plan(&plan, pes as u64)?
            }
        };
        print!("{name}: {report}");
        if report.verdict() != Verdict::ProvenSafe {
            bad += 1;
        }
        if detect {
            let cv = cross_validate(name, circuit, config)?;
            println!(
                "  dynamic: {} races at {} PEs, verdicts {}",
                cv.races.len(),
                cv.n_pes,
                if cv.agrees() { "agree" } else { "DISAGREE" }
            );
            for r in &cv.races {
                println!("    {r}");
            }
            if !cv.agrees() || !cv.races.is_empty() {
                bad += 1;
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad}/{} analyses failed the protocol check", targets.len()).into());
    }
    println!(
        "OK: {} plan(s) proven conflict-free at {pes} PEs{}",
        targets.len(),
        if detect {
            ", dynamic detector agrees"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_verify(flags: &Flags) -> CmdResult {
    let max_states: usize = flags.parsed_or("--max-states", 2_000_000)?;

    println!("exhaustive protocol check (state cap {max_states}):");
    match sv_sim::verify::check_all(max_states) {
        Ok(bounds) => {
            for b in &bounds {
                println!("  {b}");
            }
            println!("OK: {} properties proven exhaustively", bounds.len());
            Ok(())
        }
        Err(violation) => Err(format!("protocol property violated\n{violation}").into()),
    }
}

fn cmd_lint(flags: &Flags) -> CmdResult {
    let deny_warnings = flags.has("--deny-warnings");
    let root = flags.value("--root").unwrap_or(".");
    let report = sv_sim::verify::lint::run(std::path::Path::new(root))?;
    for f in &report.findings {
        println!("{f}");
    }
    println!(
        "lint: {} files scanned, rules [{}], {} error(s), {} warning(s)",
        report.files_scanned,
        report.rules_run.join(", "),
        report.errors(),
        report.warnings(),
    );
    if report.errors() > 0 || (deny_warnings && report.warnings() > 0) {
        return Err("lint failed".into());
    }
    Ok(())
}
