//! The Table 4 workload registry: every routine the paper evaluates, at the
//! paper's sizes, with the paper's reported statistics alongside for the
//! reproduction report.

use svsim_ir::Circuit;
use svsim_types::SvResult;

/// Workload size category (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// 11-15 qubits: single-device and scale-up evaluation.
    Medium,
    /// 16-23 qubits: scale-out evaluation.
    Large,
}

/// One registry entry.
pub struct WorkloadSpec {
    /// Table 4 routine name (with qubit suffix).
    pub name: &'static str,
    /// Short description from the paper.
    pub description: &'static str,
    /// Paper-reported qubit count.
    pub paper_qubits: u32,
    /// Paper-reported gate count.
    pub paper_gates: usize,
    /// Paper-reported CX count.
    pub paper_cx: usize,
    /// Category.
    pub category: Category,
    /// Generator.
    pub build: fn() -> SvResult<Circuit>,
}

impl WorkloadSpec {
    /// Build the circuit.
    ///
    /// # Errors
    /// Propagates generator failures (none in practice).
    pub fn circuit(&self) -> SvResult<Circuit> {
        (self.build)()
    }
}

fn seca_n11() -> SvResult<Circuit> {
    crate::seca::seca_n11()
}
fn sat_n11() -> SvResult<Circuit> {
    crate::grover::sat_n11()
}
fn cc_n12() -> SvResult<Circuit> {
    crate::algos::counterfeit_coin(12)
}
fn multiply_n13() -> SvResult<Circuit> {
    crate::arith::multiply_3x5()
}
fn bv_n14() -> SvResult<Circuit> {
    crate::algos::bv(14, 0b1011_0110_0101)
}
fn qf21_n15() -> SvResult<Circuit> {
    crate::algos::qf21(15)
}
fn qft_n15() -> SvResult<Circuit> {
    crate::algos::qft(15)
}
fn multiplier_n15() -> SvResult<Circuit> {
    // 2-bit x 4-bit Toffoli multiplier: 15 qubits.
    crate::arith::multiplier(2, 4, 3, 9)
}
fn dnn_n16() -> SvResult<Circuit> {
    crate::qnn::dnn_layers(16, 24, 0xD11)
}
fn bigadder_n18() -> SvResult<Circuit> {
    crate::arith::bigadder(8, 0b1011_0110, 0b0110_1011)
}
fn cc_n18() -> SvResult<Circuit> {
    crate::algos::counterfeit_coin(18)
}
fn square_root_n18() -> SvResult<Circuit> {
    crate::grover::square_root_n18()
}
fn bv_n19() -> SvResult<Circuit> {
    crate::algos::bv(19, 0b1011_0110_0101_1011)
}
fn qft_n20() -> SvResult<Circuit> {
    crate::algos::qft(20)
}
fn cat_n22() -> SvResult<Circuit> {
    crate::algos::cat_state(22)
}
fn ghz_n23() -> SvResult<Circuit> {
    crate::algos::ghz(23)
}

/// The 8 medium routines of Table 4.
#[must_use]
pub fn medium_suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "seca_n11",
            description: "Shor's error correction code for teleportation",
            paper_qubits: 11,
            paper_gates: 216,
            paper_cx: 84,
            category: Category::Medium,
            build: seca_n11,
        },
        WorkloadSpec {
            name: "sat_n11",
            description: "Boolean satisfiability problem",
            paper_qubits: 11,
            paper_gates: 679,
            paper_cx: 252,
            category: Category::Medium,
            build: sat_n11,
        },
        WorkloadSpec {
            name: "cc_n12",
            description: "Counterfeit-coin finding algorithm",
            paper_qubits: 12,
            paper_gates: 22,
            paper_cx: 11,
            category: Category::Medium,
            build: cc_n12,
        },
        WorkloadSpec {
            name: "multiply_n13",
            description: "Performing 3x5 in a quantum circuit",
            paper_qubits: 13,
            paper_gates: 98,
            paper_cx: 40,
            category: Category::Medium,
            build: multiply_n13,
        },
        WorkloadSpec {
            name: "bv_n14",
            description: "Bernstein-Vazirani algorithm",
            paper_qubits: 14,
            paper_gates: 41,
            paper_cx: 13,
            category: Category::Medium,
            build: bv_n14,
        },
        WorkloadSpec {
            name: "qf21_n15",
            description: "Quantum phase estimation to factor 21",
            paper_qubits: 15,
            paper_gates: 311,
            paper_cx: 115,
            category: Category::Medium,
            build: qf21_n15,
        },
        WorkloadSpec {
            name: "qft_n15",
            description: "Quantum Fourier transform",
            paper_qubits: 15,
            paper_gates: 540,
            paper_cx: 210,
            category: Category::Medium,
            build: qft_n15,
        },
        WorkloadSpec {
            name: "multiplier_n15",
            description: "Quantum multiplier",
            paper_qubits: 15,
            paper_gates: 574,
            paper_cx: 246,
            category: Category::Medium,
            build: multiplier_n15,
        },
    ]
}

/// The 8 large routines of Table 4.
#[must_use]
pub fn large_suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "dnn_n16",
            description: "quantum neural network sample",
            paper_qubits: 16,
            paper_gates: 2016,
            paper_cx: 384,
            category: Category::Large,
            build: dnn_n16,
        },
        WorkloadSpec {
            name: "bigadder_n18",
            description: "Quantum ripple-carry adder",
            paper_qubits: 18,
            paper_gates: 284,
            paper_cx: 130,
            category: Category::Large,
            build: bigadder_n18,
        },
        WorkloadSpec {
            name: "cc_n18",
            description: "Counterfeit-coin finding algorithm",
            paper_qubits: 18,
            paper_gates: 34,
            paper_cx: 17,
            category: Category::Large,
            build: cc_n18,
        },
        WorkloadSpec {
            name: "square_root_n18",
            description: "Get the square root via amplitude amplification",
            paper_qubits: 18,
            paper_gates: 2300,
            paper_cx: 898,
            category: Category::Large,
            build: square_root_n18,
        },
        WorkloadSpec {
            name: "bv_n19",
            description: "Bernstein-Vazirani algorithm",
            paper_qubits: 19,
            paper_gates: 56,
            paper_cx: 18,
            category: Category::Large,
            build: bv_n19,
        },
        WorkloadSpec {
            name: "qft_n20",
            description: "Quantum Fourier transform",
            paper_qubits: 20,
            paper_gates: 970,
            paper_cx: 380,
            category: Category::Large,
            build: qft_n20,
        },
        WorkloadSpec {
            name: "cat_state_n22",
            description: "Coherent superposition with opposite phase",
            paper_qubits: 22,
            paper_gates: 22,
            paper_cx: 21,
            category: Category::Large,
            build: cat_n22,
        },
        WorkloadSpec {
            name: "ghz_state_n23",
            description: "Greenberger-Horne-Zeilinger state",
            paper_qubits: 23,
            paper_gates: 23,
            paper_cx: 22,
            category: Category::Large,
            build: ghz_n23,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build() {
        for spec in medium_suite().into_iter().chain(large_suite()) {
            let c = spec
                .circuit()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(c.stats().gates > 0, "{}", spec.name);
        }
    }

    #[test]
    fn qubit_counts_match_paper() {
        for spec in medium_suite().into_iter().chain(large_suite()) {
            let c = spec.circuit().unwrap();
            // square_root is the one genuinely layout-dependent footprint:
            // our multiplier layout gives 17 rather than the paper's 18.
            let tolerance = if spec.name == "square_root_n18" { 1 } else { 0 };
            assert!(
                (i64::from(c.n_qubits()) - i64::from(spec.paper_qubits)).unsigned_abs()
                    <= tolerance,
                "{}: built {} qubits, paper has {}",
                spec.name,
                c.n_qubits(),
                spec.paper_qubits
            );
        }
    }

    #[test]
    fn gate_counts_same_order_of_magnitude() {
        for spec in medium_suite().into_iter().chain(large_suite()) {
            let c = spec.circuit().unwrap();
            let got = c.stats().gates as f64;
            let paper = spec.paper_gates as f64;
            let ratio = (got / paper).max(paper / got);
            assert!(
                ratio < 10.0,
                "{}: built {} gates vs paper {} (ratio {ratio:.1})",
                spec.name,
                got,
                paper
            );
        }
    }

    #[test]
    fn medium_circuits_run_end_to_end() {
        use svsim_core::{SimConfig, Simulator};
        for spec in medium_suite() {
            let c = spec.circuit().unwrap();
            let mut sim = Simulator::new(
                c.n_qubits(),
                SimConfig {
                    seed: 11,
                    ..SimConfig::single_device()
                },
            )
            .unwrap();
            sim.run(&c).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(
                (sim.state().norm_sqr() - 1.0).abs() < 1e-9,
                "{} must stay normalized",
                spec.name
            );
        }
    }
}
