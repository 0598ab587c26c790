//! Shared helpers for the figure/table reproduction binaries.

use std::time::Instant;
use svsim_core::{CompiledPlan, SimConfig};

/// Print a fixed-width table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:<w$}"))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Median wall-clock time of `f` over `reps` runs (after one warmup),
/// in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Format seconds with an adaptive unit.
#[must_use]
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} us", s * 1e6)
    }
}

/// Print a scale-up figure (Figs. 7-11): relative latency of the medium
/// suite at each worker count, normalized to 1 worker.
pub fn scaleup_figure(
    title: &str,
    dev: &svsim_perfmodel::DeviceSpec,
    ic: &svsim_perfmodel::InterconnectSpec,
    workers: &[u64],
) {
    let mut headers: Vec<String> = vec!["circuit".into()];
    headers.extend(workers.iter().map(|w| format!("{w}w")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for spec in svsim_workloads::medium_suite() {
        let c = spec.circuit().expect("workload builds");
        let plan = CompiledPlan::compile(&c, c.n_qubits(), &SimConfig::single_device());
        let base = svsim_perfmodel::scale_up(dev, ic, &plan, workers[0]).total();
        let mut row = vec![spec.name.to_string()];
        for &w in workers {
            let t = svsim_perfmodel::scale_up(dev, ic, &plan, w).total();
            row.push(format!("{:.2}", t / base));
        }
        rows.push(row);
    }
    print_table(title, &header_refs, &rows);
}

/// Print a scale-out figure (Figs. 12-13): relative latency of the large
/// suite at each PE count, normalized to the smallest.
#[allow(clippy::too_many_arguments)]
pub fn scaleout_figure(
    title: &str,
    dev: &svsim_perfmodel::DeviceSpec,
    ic: &svsim_perfmodel::InterconnectSpec,
    pes: &[u64],
    pes_per_node: u64,
    intra_bw_gbps: f64,
) {
    let mut headers: Vec<String> = vec!["circuit".into()];
    headers.extend(pes.iter().map(|p| format!("{p}pe")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for spec in svsim_workloads::large_suite() {
        let c = spec.circuit().expect("workload builds");
        let plan = CompiledPlan::compile(&c, c.n_qubits(), &SimConfig::single_device());
        let n = c.n_qubits();
        let base =
            svsim_perfmodel::scale_out(dev, ic, &plan, pes[0], pes_per_node, intra_bw_gbps).total();
        let mut row = vec![spec.name.to_string()];
        for &p in pes {
            if p > 1u64 << n {
                row.push("-".into());
                continue;
            }
            let t =
                svsim_perfmodel::scale_out(dev, ic, &plan, p, pes_per_node, intra_bw_gbps).total();
            row.push(format!("{:.2}", t / base));
        }
        rows.push(row);
    }
    print_table(title, &header_refs, &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_time(2.0), "2.00 s");
        assert_eq!(fmt_time(0.0025), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 us");
    }

    #[test]
    fn time_median_is_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
