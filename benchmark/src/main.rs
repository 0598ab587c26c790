//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! svsim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! svsim-benchmark all [--seed N] [--runs R] [--out FILE]
//! svsim-benchmark compare <a.json> <b.json>
//! svsim-benchmark selftest
//! svsim-benchmark spec
//! ```

mod alloc;
mod api;
mod calib;
mod compare;
mod env;
mod gen;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  svsim-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  svsim-benchmark all [--seed N] [--runs R] [--out FILE]
  svsim-benchmark compare <a.json> <b.json>
  svsim-benchmark selftest
  svsim-benchmark spec";

/// Value of `--flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value\n{USAGE}")),
    }
}

fn required<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    flag(args, name)?.ok_or_else(|| format!("{name} is required\n{USAGE}"))
}

/// `BENCHMARK.json` as `spec` describes it.
fn benchmark_json() -> String {
    let list = |items: Vec<Json>| {
        let lines: Vec<String> = items
            .iter()
            .map(|i| format!("    {}", i.encode()))
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    };
    let workloads = spec::WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::str(e.name)),
                ("unit", Json::str(e.unit)),
                ("better", Json::str(e.better.as_str())),
                ("bound", Json::Num(e.bound)),
            ])
        })
        .collect();
    let per_layer = spec::per_layer()
        .into_iter()
        .map(|p| {
            Json::obj([
                ("name", Json::str(p.name)),
                ("unit", Json::str(p.unit)),
                ("better", Json::str(p.better.as_str())),
            ])
        })
        .collect();
    let command = Json::Arr(
        [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]
        .map(Json::str)
        .to_vec(),
    );
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.encode(),
        spec::RUN_SECONDS,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// The correctness gate's self-test: a run whose reference was flipped must
/// report failed operations and exit non-zero.
fn selftest() -> Result<(), String> {
    for workload in ["scaleout_remap", "serve_mixed"] {
        let (status, line) = suite::run_self(&[
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--corrupt-reference",
        ])?;
        let result = Json::parse(&line)?;
        let failed = result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if status.success() || failed < 1.0 || result.get("correct") != Some(&Json::Bool(false)) {
            return Err(format!(
                "{workload}: a flipped reference went unnoticed: {result:?}"
            ));
        }
        println!(
            "selftest {workload}: flipped reference caught, {failed} operations failed, {status}"
        );
    }
    Ok(())
}

fn single_run(args: &[String]) -> Result<bool, String> {
    let opts = run::RunOpts {
        workload: required(args, "--workload")?,
        seed: required(args, "--seed")?,
        seconds: required(args, "--seconds")?,
        trace: match required::<u8>(args, "--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        corrupt_reference: args.iter().any(|a| a == "--corrupt-reference"),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", opts.seconds));
    }
    spec::validate_own()?;
    let outcome = run::run(&opts)?;
    println!("env {}", env::block(opts.seed).encode());
    println!(
        "{} seed {} seconds {} trace {}: {} operations, {} failed{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        outcome.attempted,
        outcome.failed,
        if outcome.resolved {
            ""
        } else {
            " (fewer than 2 cores: wall-clock unresolved)"
        }
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", outcome.result_line());
    Ok(outcome.correct())
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let seed = flag(args, "--seed")?.unwrap_or(1);
            suite::run_all(&suite::SuiteOpts {
                seed,
                runs: flag(args, "--runs")?.unwrap_or(1).max(1),
                out: flag(args, "--out")?
                    .unwrap_or_else(|| "benchmark/out/result.json".to_string()),
            })
            .map(|()| true)
        }
        Some("compare") => {
            let [_, a, b] = args else {
                return Err(USAGE.into());
            };
            let load = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
            };
            compare::report(&load(a)?, &load(b)?)
        }
        Some("selftest") => selftest().map(|()| true),
        Some("spec") => {
            spec::validate_own()?;
            print!("{}", benchmark_json());
            Ok(true)
        }
        Some(a) if a.starts_with("--") => single_run(args),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
