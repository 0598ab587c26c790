//! `all`: every workload, each run in a fresh child process so that
//! `peak_rss_mb` is the workload's own, gathered into one result file.

use crate::json::Json;
use crate::stats::{iqr_frac, median};
use crate::{env, spec};
use std::process::{Command, ExitStatus, Stdio};

pub struct SuiteOpts {
    pub seed: u64,
    /// End-to-end runs per workload, on seeds `seed`, `seed + 1`, ...
    pub runs: u64,
    pub out: String,
}

/// Run this executable with `args`; returns its exit status and the last
/// line of its standard output. The child has ended when this returns.
pub fn run_self(args: &[&str]) -> Result<(ExitStatus, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok((
        output.status,
        stdout.lines().last().unwrap_or_default().to_string(),
    ))
}

/// One run of one workload in a child process; its result line, parsed.
fn child_run(workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let (seed, seconds) = (seed.to_string(), spec::RUN_SECONDS.to_string());
    let trace_flag = if trace { "1" } else { "0" };
    let (status, line) = run_self(&[
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
        "--trace",
        trace_flag,
    ])?;
    if !status.success() {
        return Err(format!(
            "{workload} (seed {seed}, trace {trace_flag}) exited with {status}: {line}"
        ));
    }
    Json::parse(&line).map_err(|e| format!("{workload}: result line is not JSON ({e}): {line}"))
}

fn metric_value(result: &Json, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("result line has no metric `{name}`"))
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One workload's entry of the result file: the end-to-end metrics that
/// apply to it from `runs`, the per-layer metrics from the traced run.
fn workload_entry(
    workload: &str,
    runs: &[Json],
    traced: &Json,
    resolved: bool,
) -> Result<Json, String> {
    let mut end_to_end = Vec::new();
    for e in spec::END_TO_END.iter().filter(|e| e.applies(workload)) {
        let values = runs
            .iter()
            .map(|r| metric_value(r, e.name))
            .collect::<Result<Vec<_>, _>>()?;
        end_to_end.push((
            e.name.to_string(),
            Json::obj([
                ("unit", Json::str(e.unit)),
                ("median", Json::Num(median(&values))),
                ("iqr_frac", Json::Num(iqr_frac(&values))),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        ));
    }
    let mut per_layer = Vec::new();
    for p in spec::per_layer() {
        let value = metric_value(traced, &p.name)?;
        per_layer.push((
            p.name,
            Json::obj([("unit", Json::str(p.unit)), ("value", Json::Num(value))]),
        ));
    }
    let all = runs.iter().chain([traced]);
    Ok(Json::obj([
        ("resolved", Json::Bool(resolved)),
        (
            "ops_attempted",
            Json::Num(all.clone().map(|r| count(r, "attempted")).sum()),
        ),
        (
            "ops_failed",
            Json::Num(all.map(|r| count(r, "failed")).sum()),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
    ]))
}

/// Run the suite, print every metric by name with its unit, write the
/// result file.
///
/// # Errors
/// A child run that failed or printed no result line; an unwritable file.
pub fn run_all(opts: &SuiteOpts) -> Result<(), String> {
    let environment = env::block(opts.seed);
    println!("env {}", environment.encode());
    let mut entries = Vec::new();
    for w in &spec::WORKLOADS {
        let resolved = !crate::run::oversubscribed(w.name);
        let mut runs = Vec::new();
        for i in 0..opts.runs {
            eprintln!(
                "== {} run {}/{} (seed {})",
                w.name,
                i + 1,
                opts.runs,
                opts.seed + i
            );
            runs.push(child_run(w.name, opts.seed + i, false)?);
        }
        eprintln!("== {} traced run (seed {})", w.name, opts.seed);
        let traced = child_run(w.name, opts.seed, true)?;
        let entry = workload_entry(w.name, &runs, &traced, resolved)?;
        println!("{}: {}", w.name, w.why);
        if !resolved {
            println!("  unresolved: fewer than 2 cores, wall-clock metrics of this workload mean nothing");
        }
        for e in spec::END_TO_END.iter().filter(|e| !e.applies(w.name)) {
            println!("  {:<40} {:>16} {}", e.name, "n/a", e.unit);
        }
        for section in ["end_to_end", "per_layer"] {
            for (name, m) in entry
                .get(section)
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                let value = m
                    .get("median")
                    .or_else(|| m.get("value"))
                    .and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
                println!("  {name:<40} {:>16.6} {unit}", value.unwrap_or(f64::NAN));
            }
        }
        entries.push((w.name.to_string(), entry));
    }
    let doc = Json::obj([
        ("env", environment),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(spec::RUN_SECONDS as f64)),
        ("runs", Json::Num(opts.runs as f64)),
        ("workloads", Json::Obj(entries)),
    ]);
    if let Some(dir) = std::path::Path::new(&opts.out)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, doc.encode() + "\n").map_err(|e| format!("{}: {e}", opts.out))?;
    println!("result file: {}", opts.out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{count_mismatches, rows, Verdict};

    /// A result line as a child run prints it, every metric set to `value`.
    fn line(names: impl Iterator<Item = (String, &'static str)>, value: f64) -> Json {
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::Obj(
                    names
                        .map(|(n, u)| {
                            (
                                n,
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(u))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn doc(e2e: f64, layer: f64) -> Json {
        let runs: Vec<Json> = (0..3)
            .map(|_| {
                line(
                    spec::END_TO_END
                        .iter()
                        .map(|e| (e.name.to_string(), e.unit)),
                    e2e,
                )
            })
            .collect();
        let traced = line(
            spec::per_layer().into_iter().map(|p| (p.name, p.unit)),
            layer,
        );
        let entries = spec::WORKLOADS
            .iter()
            .map(|w| {
                (
                    w.name.to_string(),
                    workload_entry(w.name, &runs, &traced, true).unwrap(),
                )
            })
            .collect();
        Json::obj([("workloads", Json::Obj(entries))])
    }

    #[test]
    fn result_file_round_trips_into_compare() {
        let a = Json::parse(&doc(100.0, 7.0).encode()).unwrap();
        let rs = rows(&a, &a).unwrap();
        // One row per metric and workload it applies to, no others.
        assert_eq!(rs.len(), 19);
        assert!(rs.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(!rs
            .iter()
            .any(|r| r.metric == "small_ms_p50" && r.workload != "serve_mixed"));
        assert!(count_mismatches(&a, &a).unwrap().is_empty());

        // 30 % up: worse where lower is better, fine where higher is.
        let b = doc(130.0, 8.0);
        for r in rows(&a, &b).unwrap() {
            let expect = if r.metric == "jobs_per_s" {
                Verdict::Ok
            } else {
                Verdict::Worse
            };
            assert_eq!(r.verdict, expect, "{} {}", r.workload, r.metric);
        }
        // Every exact count moved from 7 to 8, on every workload.
        let exact = spec::per_layer().iter().filter(|p| p.exact).count();
        assert_eq!(count_mismatches(&a, &b).unwrap().len(), 5 * exact);
        // A file without its traced pass is not a result file.
        assert!(count_mismatches(&a, &Json::obj([("workloads", Json::Obj(Vec::new()))])).is_err());
        assert_eq!(
            a.get("workloads")
                .unwrap()
                .get("wide_stream")
                .unwrap()
                .get("ops_attempted"),
            Some(&Json::Num(40.0))
        );
    }
}
