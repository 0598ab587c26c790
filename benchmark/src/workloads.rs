//! The five workloads: set-up, the timed operation of each, its check
//! against a reference, and the loop that measures for a fixed time.

use crate::api::{
    self, ApiResult, Circuit, Engine, MetricsSnapshot, Output, Simulator, TemplateId,
};
use crate::calib::Host;
use crate::gen::{self, Job, ServeInputs};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;

/// Result of one timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub ms: f64,
    /// The operation's output equalled its reference.
    pub ok: bool,
    /// Jobs the operation completed (1 for a circuit run).
    pub jobs: usize,
}

/// Submit-to-result latencies in milliseconds, by request class, and the
/// time `Engine::submit` itself took in microseconds.
#[derive(Debug, Default)]
pub struct Latencies {
    /// The workload's smallest request: a high-priority small one-shot on
    /// `serve_mixed`, the whole run on a circuit workload.
    pub small_ms: Vec<f64>,
    pub wide_ms: Vec<f64>,
    pub sweep_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
}

/// Engine-layer numbers a serving session can report when it ends.
pub struct EngineReport {
    pub start_ms: f64,
    pub register_ms: f64,
    pub shutdown_ms: f64,
    pub snapshot: MetricsSnapshot,
}

/// A set-up workload, ready to be timed.
pub trait Session {
    /// One timed operation at the workload's own configuration.
    fn op(&mut self, tr: &mut Tracer, lat: &mut Latencies) -> Op;
    /// The same work done the plain way on one device or thread, timed
    /// between operations to give `vs_single_ratio` its denominator.
    fn reference_op(&mut self, tr: &mut Tracer) -> Op;
    /// Every how many slots of the measuring loop a reference runs.
    fn ref_every(&self) -> usize;
    /// Name of the span that encloses one operation.
    fn root_span(&self) -> &'static str;
    /// Tear down; a serving session drains and reports its engine.
    fn finish(self: Box<Self>) -> Option<EngineReport>;
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Circuit workloads
// ---------------------------------------------------------------------------

pub struct CircuitSession {
    circuit: Circuit,
    sim: Simulator,
    ref_sim: Simulator,
    /// `state_checksum()` of the single-device reference run.
    reference: u64,
    ref_every: usize,
}

/// `reset`, `run`, read the checksum back: the operation of every circuit
/// workload, under the span `root`.
fn circuit_op(
    sim: &mut Simulator,
    circuit: &Circuit,
    tr: &mut Tracer,
    root: &'static str,
) -> (f64, Option<u64>) {
    let t0 = Instant::now();
    let open = tr.begin(root);
    tr.span("sim.reset", || sim.reset());
    let ran = tr.span("sim.run", || api::sim_run(sim, circuit));
    let checksum = tr.span("readback.checksum", || sim.state_checksum());
    tr.end(open);
    let ms = ms_since(t0);
    match ran {
        Ok(_) => (ms, Some(checksum)),
        Err(err) => {
            eprintln!("run failed: {err}");
            (ms, None)
        }
    }
}

impl CircuitSession {
    fn setup(workload: &str, seed: u64, tr: &mut Tracer, corrupt: bool) -> ApiResult<Self> {
        let inputs = tr
            .span("gen", || gen::circuit_inputs(workload, seed))?
            .ok_or_else(|| format!("`{workload}` is not a circuit workload"))?;
        let n = inputs.circuit.n_qubits();
        let sim = tr.span("sim.new", || api::sim_new(n, inputs.config))?;
        let mut ref_sim = tr.span("sim.new", || api::sim_new(n, inputs.reference()))?;
        let (_, checksum) = circuit_op(&mut ref_sim, &inputs.circuit, tr, "reference");
        let mut reference = checksum.ok_or("the reference run failed")?;
        if corrupt {
            reference ^= 1;
        }
        let mut session = Self {
            circuit: inputs.circuit,
            // A cheap reference (the scale-out pair's is 13x cheaper than
            // the operation) is timed every other slot; one that costs as
            // much as the operation, every fourth, which still leaves a
            // run its 30 operations.
            ref_every: if api::n_workers(&inputs.config) > 1 {
                2
            } else {
                4
            },
            sim,
            ref_sim,
            reference,
        };
        let warm = session.op(tr, &mut Latencies::default());
        if !warm.ok && !corrupt {
            return Err("the warm-up run does not match the single-device reference".into());
        }
        Ok(session)
    }
}

impl Session for CircuitSession {
    fn op(&mut self, tr: &mut Tracer, lat: &mut Latencies) -> Op {
        let (ms, checksum) = circuit_op(&mut self.sim, &self.circuit, tr, "op");
        lat.small_ms.push(ms);
        Op {
            ms,
            ok: checksum == Some(self.reference),
            jobs: 1,
        }
    }

    fn reference_op(&mut self, tr: &mut Tracer) -> Op {
        let (ms, checksum) = circuit_op(&mut self.ref_sim, &self.circuit, tr, "ref_op");
        Op {
            ms,
            ok: checksum == Some(self.reference),
            jobs: 1,
        }
    }

    fn ref_every(&self) -> usize {
        self.ref_every
    }

    fn root_span(&self) -> &'static str {
        "op"
    }

    fn finish(self: Box<Self>) -> Option<EngineReport> {
        None
    }
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Execute workers of the engine: the two cores of the sandbox.
const ENGINE_WORKERS: usize = 2;

pub struct ServeSession {
    inputs: ServeInputs,
    engine: Engine,
    qaoa_id: TemplateId,
    qnn_id: TemplateId,
    /// Output of every job of every distinct round from the naive serial
    /// run, in submission order.
    expected: Vec<Vec<Output>>,
    next_round: usize,
    start_ms: f64,
    register_ms: f64,
}

/// One job the naive way: parse (client work on both paths), then a fresh
/// simulator per request.
fn naive_job(inputs: &ServeInputs, job: &Job, tr: &mut Tracer) -> ApiResult<Output> {
    match job {
        Job::OneShot { wide, which, seed } => {
            let request = inputs.one_shot(*wide, *which, *seed);
            let circuit = tr.span("client.parse", || api::parse_circuit(request.qasm))?;
            tr.span("naive.run", || {
                api::naive_one_shot(&circuit, api::cfg_single(request.seed), request.shots)
            })
        }
        Job::Sweep { qaoa, params } => {
            let (template, mask) = inputs.family(*qaoa);
            tr.span("naive.run", || api::naive_sweep(template, params, mask))
        }
    }
}

fn naive_round(inputs: &ServeInputs, round: usize, tr: &mut Tracer) -> ApiResult<Vec<Output>> {
    inputs.rounds[round]
        .iter()
        .map(|job| naive_job(inputs, job, tr))
        .collect()
}

impl ServeSession {
    pub fn setup(seed: u64, tr: &mut Tracer, corrupt: bool) -> ApiResult<Self> {
        let inputs = tr.span("gen", || gen::serve_inputs(seed))?;
        let t0 = Instant::now();
        let engine = tr.span("engine.start", || api::engine_start(ENGINE_WORKERS));
        let start_ms = ms_since(t0);
        let t0 = Instant::now();
        let open = tr.begin("engine.register");
        let qaoa_id = api::engine_register(&engine, "qaoa_maxcut_n12_p2", &inputs.qaoa)?;
        let qnn_id = api::engine_register(&engine, "qnn_n10", &inputs.qnn)?;
        tr.end(open);
        let register_ms = ms_since(t0);
        let open = tr.begin("reference");
        let mut expected = (0..inputs.rounds.len())
            .map(|r| naive_round(&inputs, r, tr))
            .collect::<ApiResult<Vec<_>>>()?;
        tr.end(open);
        if corrupt {
            if let Some(Output::OneShot { gates, .. }) = expected[0].first_mut() {
                *gates += 1;
            }
        }
        let mut session = Self {
            inputs,
            engine,
            qaoa_id,
            qnn_id,
            expected,
            next_round: 0,
            start_ms,
            register_ms,
        };
        // One warm-up pass over every distinct round fills the instance
        // pool and the plan cache, as a service that has been up a while.
        for _ in 0..session.inputs.rounds.len() {
            let warm = session.op(tr, &mut Latencies::default());
            if !warm.ok && !corrupt {
                return Err("a warm-up round does not match the naive serial run".into());
            }
        }
        Ok(session)
    }
}

impl Session for ServeSession {
    /// One round of the closed loop: submit all 74 jobs, wait for all.
    fn op(&mut self, tr: &mut Tracer, lat: &mut Latencies) -> Op {
        let round = self.next_round % self.inputs.rounds.len();
        self.next_round += 1;
        let jobs = &self.inputs.rounds[round];
        let t0 = Instant::now();
        let root = tr.begin("round");
        let mut ok = true;
        let mut handles = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (submitted, open, handle) = match job {
                Job::OneShot { wide, which, seed } => {
                    // Parsing is the client's work and is done before the
                    // clock of the job's latency starts.
                    let request = self.inputs.one_shot(*wide, *which, *seed);
                    let circuit = tr.span("client.parse", || api::parse_circuit(request.qasm));
                    let (submitted, open) = (Instant::now(), tr.begin("engine.submit"));
                    let handle = circuit.and_then(|circuit| {
                        api::submit_one_shot(
                            &self.engine,
                            Arc::new(circuit),
                            api::cfg_single(request.seed),
                            request.shots,
                            request.high_priority,
                        )
                    });
                    (submitted, open, handle)
                }
                Job::Sweep { qaoa, params } => {
                    let id = if *qaoa { self.qaoa_id } else { self.qnn_id };
                    let mask = self.inputs.family(*qaoa).1;
                    let (submitted, open) = (Instant::now(), tr.begin("engine.submit"));
                    let handle = api::submit_sweep(&self.engine, id, params.clone(), mask);
                    (submitted, open, handle)
                }
            };
            lat.submit_us.push(submitted.elapsed().as_secs_f64() * 1e6);
            tr.end_with_id(open, handle.as_ref().ok().map(api::job_id));
            handles.push((submitted, handle));
        }
        // Wait for the latency-sensitive jobs first, so that the moment
        // `wait` returns is close to the moment each result was ready.
        let class = |job: &Job| match job {
            Job::OneShot { wide: false, .. } => 0,
            Job::OneShot { wide: true, .. } => 1,
            Job::Sweep { .. } => 2,
        };
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| class(&jobs[i]));
        for i in order {
            let (submitted, handle) = &handles[i];
            let output = match handle {
                Ok(h) => {
                    let open = tr.begin("job.wait");
                    let out = api::wait(h);
                    tr.end_with_id(open, Some(api::job_id(h)));
                    out
                }
                Err(err) => Err(err.clone()),
            };
            let ms = ms_since(*submitted);
            match &jobs[i] {
                Job::OneShot { wide: false, .. } => lat.small_ms.push(ms),
                Job::OneShot { wide: true, .. } => lat.wide_ms.push(ms),
                Job::Sweep { .. } => lat.sweep_ms.push(ms),
            }
            match output {
                Ok(out) if out == self.expected[round][i] => {}
                Ok(_) => ok = false,
                Err(err) => {
                    eprintln!("job {i} of round {round} failed: {err}");
                    ok = false;
                }
            }
        }
        tr.end(root);
        Op {
            ms: ms_since(t0),
            ok,
            jobs: jobs.len(),
        }
    }

    /// The same round run serially by the client, without the engine.
    fn reference_op(&mut self, tr: &mut Tracer) -> Op {
        let round = self.next_round % self.inputs.rounds.len();
        let t0 = Instant::now();
        let open = tr.begin("naive_round");
        let outputs = naive_round(&self.inputs, round, tr);
        tr.end(open);
        Op {
            ms: ms_since(t0),
            ok: outputs.is_ok_and(|o| o == self.expected[round]),
            jobs: self.inputs.rounds[round].len(),
        }
    }

    /// A naive round takes twice an engine round; every 32nd slot leaves
    /// a run its 800 rounds.
    fn ref_every(&self) -> usize {
        32
    }

    fn root_span(&self) -> &'static str {
        "round"
    }

    fn finish(self: Box<Self>) -> Option<EngineReport> {
        let t0 = Instant::now();
        let snapshot = self.engine.shutdown();
        Some(EngineReport {
            start_ms: self.start_ms,
            register_ms: self.register_ms,
            shutdown_ms: ms_since(t0),
            snapshot,
        })
    }
}

// ---------------------------------------------------------------------------
// Set-up and the measuring loop
// ---------------------------------------------------------------------------

/// Generate the inputs, build the simulator or engine, compute the
/// reference, warm up: everything `setup_s` covers.
pub fn setup(
    workload: &str,
    seed: u64,
    tr: &mut Tracer,
    corrupt: bool,
) -> ApiResult<Box<dyn Session>> {
    let open = tr.begin("setup");
    let session: ApiResult<Box<dyn Session>> = if workload == "serve_mixed" {
        ServeSession::setup(seed, tr, corrupt).map(|s| Box::new(s) as Box<dyn Session>)
    } else {
        CircuitSession::setup(workload, seed, tr, corrupt).map(|s| Box::new(s) as Box<dyn Session>)
    };
    tr.end(open);
    session
}

/// What a loop over a session's operations collected, in milliseconds.
#[derive(Debug, Default)]
pub struct Samples {
    pub op_ms: Vec<f64>,
    pub ref_ms: Vec<f64>,
    pub lat: Latencies,
    pub jobs: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// Time one operation of `session` and record it.
    pub fn op(&mut self, session: &mut dyn Session, tr: &mut Tracer) {
        let op = session.op(tr, &mut self.lat);
        self.op_ms.push(op.ms);
        self.jobs += op.jobs as u64;
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
    }

    /// Time one reference of `session` and record it.
    pub fn reference(&mut self, session: &mut dyn Session, tr: &mut Tracer) {
        let op = session.reference_op(tr);
        self.ref_ms.push(op.ms);
        self.attempted += 1;
        self.failed += u64::from(!op.ok);
    }
}

/// The end-to-end pass's loop: time operations, and a reference every
/// `ref_every`-th slot, until `budget_s` has passed and at least `min_ops`
/// operations and one reference have been timed. Every time it returns
/// (`op_ms`, `ref_ms`, `lat.small_ms`) is fast-mode time: `host` is sampled
/// between stretches of slots and each stretch's times are scaled by its
/// factor (see `calib`).
pub fn measure(
    session: &mut dyn Session,
    tr: &mut Tracer,
    host: &mut Host,
    budget_s: f64,
    min_ops: usize,
) -> Samples {
    let mut s = Samples::default();
    let t0 = Instant::now();
    let mut slot = 0usize;
    // Where the open stretch begins in each vector that gets scaled.
    let mut open = [0usize; 3];
    host.sample();
    loop {
        let more =
            s.op_ms.len() < min_ops || s.ref_ms.is_empty() || t0.elapsed().as_secs_f64() < budget_s;
        if host.due() || !more {
            let factor = host.sample();
            for (from, times) in
                open.iter_mut()
                    .zip([&mut s.op_ms, &mut s.ref_ms, &mut s.lat.small_ms])
            {
                times[*from..].iter_mut().for_each(|ms| *ms *= factor);
                *from = times.len();
            }
        }
        if !more {
            return s;
        }
        slot += 1;
        if slot.is_multiple_of(session.ref_every()) {
            s.reference(session, tr);
        } else {
            s.op(session, tr);
        }
    }
}
