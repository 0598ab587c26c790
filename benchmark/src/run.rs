//! One run of one workload: the end-to-end pass (tracing off) or the traced
//! pass (spans on, per-layer probes), and the result line the driver reads.

use crate::api::ApiResult;
use crate::calib::Host;
use crate::json::Json;
use crate::layers::{self, Metrics, Probe};
use crate::stats::{iqr_frac, median, percentile_sorted, sorted, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workloads::{self, Samples, Session};
use crate::{api, env, gen, spec};
use std::time::Instant;

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Flip the reference the outputs are checked against: the self-test of
    /// the correctness gate. Such a run must fail.
    pub corrupt_reference: bool,
}

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every end-to-end metric (untraced pass) or
    /// every per-layer metric (traced pass), in the order `spec` lists them.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// False when wall-clock numbers were taken with more PEs than cores
    /// and mean nothing; the counts still do.
    pub resolved: bool,
}

impl Outcome {
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The line the driver reads: exactly these four keys.
    #[must_use]
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.as_str(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
        .encode()
    }
}

/// An end-to-end run sets up at least this often, and up to
/// [`MAX_SETUPS`] times while that takes less than [`SETUP_SECONDS`] (a
/// 0.4 s set-up needs more repeats than a 1 s one for a steady median);
/// `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_SECONDS: f64 = 3.5;

/// Fewest operations a run times, however short `--seconds`: in the
/// end-to-end pass, and with the recorder off and on each in the traced one.
const MIN_OPS: usize = 5;

/// Scale-out workloads time two PEs; on one core that measures the
/// scheduler, not the simulator.
pub fn oversubscribed(workload: &str) -> bool {
    workload.starts_with("scaleout") && env::nproc() < 2
}

/// Order `measured` as `spec` lists its names and attach units; an absent,
/// unexpected or non-finite value is a bug in the benchmark, not a result.
fn in_spec_order(
    measured: &Metrics,
    spec: impl Iterator<Item = (String, &'static str)>,
) -> ApiResult<Vec<(String, f64, &'static str)>> {
    let mut out = Vec::new();
    for (name, unit) in spec {
        let value = measured
            .get(&name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not a finite number"));
        }
        out.push((name, value, unit));
    }
    if let Some((extra, _)) = measured
        .0
        .iter()
        .find(|(n, _)| !out.iter().any(|(o, _, _)| o == n))
    {
        return Err(format!("metric `{extra}` is not in the spec"));
    }
    Ok(out)
}

fn end_to_end(opts: &RunOpts) -> ApiResult<Outcome> {
    let mut tr = Tracer::new(false);
    let single_device = matches!(opts.workload.as_str(), "deep_incache" | "wide_stream");
    let mut host = Host::new(if single_device { 1 } else { 2 });
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    let mut session: Option<Box<dyn Session>> = None;
    let started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        // Tear the previous set-up down first, outside the timed part.
        if let Some(previous) = session.take() {
            previous.finish();
        }
        host.sample();
        let t0 = Instant::now();
        session = Some(workloads::setup(
            &opts.workload,
            opts.seed,
            &mut tr,
            opts.corrupt_reference,
        )?);
        let secs = t0.elapsed().as_secs_f64();
        setups.push(secs * host.sample());
    }
    let mut session = session.ok_or("no set-up ran")?;
    let resolved = !oversubscribed(&opts.workload);
    let budget = if resolved { opts.seconds } else { 0.0 };
    let s = workloads::measure(session.as_mut(), &mut tr, &mut host, budget, MIN_OPS);
    session.finish();
    let (kernel_ms, factor) = host.median();
    eprintln!(
        "host: yardstick kernel {kernel_ms:.3} ms (median of {} samples): fast-mode times are about {factor:.3} of the wall-clock",
        host.n_samples()
    );

    // Every time below is fast-mode time (see `calib`). A metric that is no
    // result of this workload (`spec::EndToEnd::applies`) still gets the
    // nearest reading the run has, because the driver's line must hold
    // every name.
    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("run_ms_p50", median(&s.op_ms));
    m.set("vs_single_ratio", median(&s.op_ms) / median(&s.ref_ms));
    m.set(
        "jobs_per_s",
        s.jobs as f64 / (s.op_ms.iter().sum::<f64>() / 1e3),
    );
    m.set("small_ms_p50", median(&s.lat.small_ms));
    m.set("small_ms_p95", tail_percentile(&s.lat.small_ms, 0.95).1);
    m.set(
        "peak_rss_mb",
        env::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    Ok(Outcome {
        attempted: s.attempted,
        failed: s.failed,
        metrics: in_spec_order(
            &m,
            spec::END_TO_END
                .iter()
                .map(|e| (e.name.to_string(), e.unit)),
        )?,
        resolved,
    })
}

/// Where the traced pass writes its spans, relative to the directory the
/// benchmark is run from (the root of the checkout).
fn trace_path(workload: &str) -> String {
    format!("benchmark/out/trace_{workload}.json")
}

fn traced(opts: &RunOpts) -> ApiResult<Outcome> {
    let mut tr = Tracer::new(true);
    let mut session = workloads::setup(&opts.workload, opts.seed, &mut tr, opts.corrupt_reference)?;
    let root = session.root_span();
    let resolved = !oversubscribed(&opts.workload);
    // Half of the run times the operations, the probes take the rest. The
    // recorder is switched with every operation, so that a drift of the
    // host during the run is not read as the cost of tracing.
    let budget = if resolved { opts.seconds / 2.0 } else { 0.0 };
    let (mut plain, mut with_spans) = (Samples::default(), Samples::default());
    let t0 = Instant::now();
    while with_spans.op_ms.len() < MIN_OPS || t0.elapsed().as_secs_f64() < budget {
        tr.set_on(false);
        plain.op(session.as_mut(), &mut tr);
        tr.set_on(true);
        with_spans.op(session.as_mut(), &mut tr);
    }

    let mut m = Metrics::default();
    let ops = sorted(&plain.op_ms);
    m.set("run_ms_p75", percentile_sorted(&ops, 0.75));
    m.set("run_ms_min", ops[0]);
    m.set("run_ms_iqr_frac", iqr_frac(&ops));
    m.set("run_samples", ops.len() as f64);
    m.set(
        "trace.overhead_frac",
        median(&with_spans.op_ms) / median(&ops) - 1.0,
    );
    m.set(
        "trace.coverage_frac",
        trace::coverage_frac(tr.spans(), root),
    );

    let inputs = gen::circuit_inputs(&opts.workload, opts.seed)?;
    let own = match &inputs {
        Some(i) => i.circuit.clone(),
        None => api::qft(16)?,
    };
    let mut probe = Probe {
        seed: opts.seed,
        sim_seed: gen::sim_seed(opts.seed),
        own: &own,
        attempted: plain.attempted + with_spans.attempted,
        failed: plain.failed + with_spans.failed,
    };
    layers::probe_all(&mut m, &mut tr, &mut probe)?;
    // The engine layer is measured on `serve_mixed`'s own engine, which has
    // served the rounds above; the other workloads start one for it.
    let serving = if opts.workload == "serve_mixed" {
        session
    } else {
        session.finish();
        workloads::setup("serve_mixed", opts.seed, &mut tr, false)?
    };
    layers::engine(&mut m, &mut tr, &mut probe, serving)?;

    let path = trace_path(&opts.workload);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(
        &path,
        trace::chrome_trace(tr.spans(), &opts.workload).encode(),
    )
    .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("trace: {} spans, {path}", tr.spans().len());
    for (name, self_ms, count) in trace::self_ms_by_name(tr.spans()).iter().take(12) {
        eprintln!("  self {self_ms:>10.3} ms  {count:>6} x  {name}");
    }

    Ok(Outcome {
        attempted: probe.attempted,
        failed: probe.failed,
        metrics: in_spec_order(&m, spec::per_layer().into_iter().map(|p| (p.name, p.unit)))?,
        resolved,
    })
}

/// Run one workload once.
///
/// # Errors
/// An unknown workload, a failure to build or run the simulator, or a
/// metric the benchmark failed to measure.
pub fn run(opts: &RunOpts) -> ApiResult<Outcome> {
    if !spec::WORKLOADS.iter().any(|w| w.name == opts.workload) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    if opts.trace {
        traced(opts)
    } else {
        end_to_end(opts)
    }
}
