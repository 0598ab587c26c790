//! `compare <a.json> <b.json>`: two result files of `all`, row by row.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{iqr_frac, median};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound (or the wall-clock was
    /// taken on too few cores): the data cannot tell `ok` from `worse`.
    Unresolved,
}

impl Verdict {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// One row: a workload's end-to-end metric in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// Widest inter-quartile spread of the two sets, as a share of its median.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge `b` against `a` for a metric with the given direction and bound.
/// A spread wider than `spread_bound` leaves the row unresolved.
#[must_use]
pub fn judge(
    a: &[f64],
    b: &[f64],
    better: Better,
    bound: f64,
    spread_bound: f64,
    resolved: bool,
) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let spread = iqr_frac(a).max(iqr_frac(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let verdict = if !resolved || spread > spread_bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, spread, verdict)
}

fn values(doc: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vs| vs.iter().filter_map(Json::as_f64).collect::<Vec<_>>())
        .filter(|vs| !vs.is_empty())
        .ok_or_else(|| format!("no values for {workload}/{metric}"))
}

fn resolved(doc: &Json, workload: &str) -> bool {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("resolved"))
        != Some(&Json::Bool(false))
}

/// One row per workload and end-to-end metric that applies to it.
///
/// # Errors
/// A row one of the files does not hold.
pub fn rows(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for w in &spec::WORKLOADS {
        for e in spec::END_TO_END.iter().filter(|e| e.applies(w.name)) {
            let (va, vb) = (values(a, w.name, e.name)?, values(b, w.name, e.name)?);
            let both_resolved = resolved(a, w.name) && resolved(b, w.name);
            // `setup_s` is judged on its medians alone, as the driver judges
            // it: a set-up is timed a few times per run, not dozens, and its
            // spread says more about the host than about the code.
            let spread_bound = if e.name == "setup_s" {
                f64::INFINITY
            } else {
                e.bound
            };
            let (median_a, median_b, spread, verdict) =
                judge(&va, &vb, e.better, e.bound, spread_bound, both_resolved);
            out.push(Row {
                workload: w.name.to_string(),
                metric: e.name,
                median_a,
                median_b,
                spread,
                bound: e.bound,
                verdict,
            });
        }
    }
    Ok(out)
}

/// Per-layer counts marked exact that differ between the files, as
/// `(workload, metric, a, b)`.
///
/// # Errors
/// A count one of the files does not hold.
pub fn count_mismatches(a: &Json, b: &Json) -> Result<Vec<(String, String, f64, f64)>, String> {
    let value = |doc: &Json, w: &str, m: &str| {
        doc.get("workloads")
            .and_then(|ws| ws.get(w)?.get("per_layer")?.get(m)?.get("value")?.as_f64())
            .ok_or_else(|| format!("no value for {w}/{m}"))
    };
    let mut out = Vec::new();
    for w in &spec::WORKLOADS {
        for p in spec::per_layer().iter().filter(|p| p.exact) {
            let (x, y) = (value(a, w.name, &p.name)?, value(b, w.name, &p.name)?);
            if x != y {
                out.push((w.name.to_string(), p.name.clone(), x, y));
            }
        }
    }
    Ok(out)
}

/// Print the table; returns whether every row is `ok` and every exact count
/// is identical.
///
/// # Errors
/// As [`rows`] and [`count_mismatches`].
pub fn report(a: &Json, b: &Json) -> Result<bool, String> {
    let rows = rows(a, b)?;
    println!(
        "{:<15} {:<16} {:>12} {:>12} {:>18} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "ratio (b / a)", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<15} {:<16} {:>12.4} {:>12.4} {:>9.4} (a={:.4}) {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.median_b / r.median_a,
            r.median_a,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
    let mismatches = count_mismatches(a, b)?;
    for (w, m, x, y) in &mismatches {
        println!("count differs: {w} {m}: {x} vs {y}");
    }
    let not_ok = rows.iter().filter(|r| r.verdict != Verdict::Ok).count();
    println!(
        "{} rows, {} not ok, {} exact counts differ",
        rows.len(),
        not_ok,
        mismatches.len()
    );
    Ok(not_ok == 0 && mismatches.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let up9 = steady.map(|x| x * 1.09);
        let up12 = steady.map(|x| x * 1.12);
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        let v =
            |a: &[f64], b: &[f64], better, resolved| judge(a, b, better, 0.10, 0.10, resolved).3;
        assert_eq!(v(&steady, &up9, Better::Lower, true), Verdict::Ok);
        assert_eq!(v(&steady, &up12, Better::Lower, true), Verdict::Worse);
        // Higher-is-better: going up is fine, going down 12 % is not.
        assert_eq!(v(&steady, &up12, Better::Higher, true), Verdict::Ok);
        assert_eq!(v(&up12, &steady, Better::Higher, true), Verdict::Worse);
        // A spread wider than the bound decides nothing either way.
        assert_eq!(v(&steady, &noisy, Better::Lower, true), Verdict::Unresolved);
        assert_eq!(
            v(&steady, &steady, Better::Lower, false),
            Verdict::Unresolved
        );
        // Without a limit on the spread the medians decide.
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.10, f64::INFINITY, true).3,
            Verdict::Ok
        );
        // One value per side has no spread and is judged on the medians.
        assert_eq!(v(&[1.0], &[1.05], Better::Lower, true), Verdict::Ok);
    }
}
