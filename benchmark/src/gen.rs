//! Seeded input generation. Everything the simulator is given — angles,
//! graphs, sweep points, sampling seeds — is derived here from `--seed`; the
//! simulator itself never sees the seed's provenance.

use crate::api::{self, ApiResult, Circuit, ParamCircuit};

/// SplitMix64: small, fast, and independent of the simulator's own RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// An independent sub-seed of `seed` for the named stream, so that adding a
/// consumer does not shift the values another one draws.
#[must_use]
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

// ---------------------------------------------------------------------------
// Circuit workloads
// ---------------------------------------------------------------------------

/// The circuit of a circuit workload and the configuration it runs under.
pub struct CircuitInputs {
    pub circuit: Circuit,
    pub config: api::SimConfig,
}

impl CircuitInputs {
    /// Single-device configuration the checksum reference is computed with.
    #[must_use]
    pub fn reference(&self) -> api::SimConfig {
        api::cfg_reference(self.config.seed)
    }
}

/// Qubits and layers of the circuit the scale-out pair runs, which is also
/// the circuit every workload's multi-device backend probes run.
pub const SCALEOUT_SHAPE: (u32, u32) = (16, 12);

pub fn scaleout_circuit(seed: u64) -> ApiResult<Circuit> {
    api::dnn_layers(SCALEOUT_SHAPE.0, SCALEOUT_SHAPE.1, derive(seed, 3))
}

/// The seed a circuit workload's simulators measure and sample with.
#[must_use]
pub fn sim_seed(seed: u64) -> u64 {
    derive(seed, 1)
}

/// Inputs of the named circuit workload (`None` for `serve_mixed`).
pub fn circuit_inputs(workload: &str, seed: u64) -> ApiResult<Option<CircuitInputs>> {
    let sim_seed = sim_seed(seed);
    let single = |circuit| CircuitInputs {
        circuit,
        config: api::cfg_single(sim_seed),
    };
    Ok(Some(match workload {
        // Table 4's square_root_n18 is a fixed circuit; the seed decides the
        // outcomes of its final measurements.
        "deep_incache" => single(api::square_root_n18()?),
        "wide_stream" => single(api::dnn_layers(21, 2, derive(seed, 2))?),
        "scaleout_fine" | "scaleout_remap" => CircuitInputs {
            circuit: scaleout_circuit(seed)?,
            config: api::cfg_out2(sim_seed, workload == "scaleout_remap", false),
        },
        _ => return Ok(None),
    }))
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

pub const WIDE_PER_ROUND: usize = 2;
pub const SWEEPS_PER_ROUND: usize = 64;
pub const SMALL_PER_ROUND: usize = 8;
pub const JOBS_PER_ROUND: usize = WIDE_PER_ROUND + SWEEPS_PER_ROUND + SMALL_PER_ROUND;
pub const WIDE_SHOTS: usize = 2048;
pub const SMALL_SHOTS: usize = 64;
/// Distinct rounds generated per seed; the client cycles through them, and
/// the naive serial reference is computed once for each.
pub const DISTINCT_ROUNDS: usize = 8;

const QAOA_QUBITS: u32 = 12;
const QAOA_LAYERS: usize = 2;
const QNN_DATA_QUBITS: u32 = 9;
const QNN_LAYERS: u32 = 2;

/// One job of a round, in submission order.
#[derive(Debug, Clone, PartialEq)]
pub enum Job {
    /// A circuit sent as QASM text: a wide sampled one-shot at the default
    /// priority (`wide`, index into [`ServeInputs::wide_qasm`]) or a small
    /// high-priority one (index into [`ServeInputs::small_qasm`]).
    OneShot { wide: bool, which: usize, seed: u64 },
    /// Low-priority sweep point of the QAOA (`qaoa == true`) or QNN template.
    Sweep { qaoa: bool, params: Vec<f64> },
}

pub struct ServeInputs {
    /// `qft(16)` and `w_state(17)` as the OpenQASM text a client would send.
    pub wide_qasm: Vec<String>,
    /// `qft(10)` and `cat_state(10)` as OpenQASM text.
    pub small_qasm: Vec<String>,
    pub qaoa: ParamCircuit,
    pub qaoa_mask: u64,
    pub qnn: ParamCircuit,
    pub qnn_mask: u64,
    pub rounds: Vec<Vec<Job>>,
}

/// A one-shot job as the client sends it.
pub struct OneShot<'a> {
    pub qasm: &'a str,
    pub seed: u64,
    pub shots: usize,
    pub high_priority: bool,
}

impl ServeInputs {
    /// The request of a [`Job::OneShot`].
    #[must_use]
    pub fn one_shot(&self, wide: bool, which: usize, seed: u64) -> OneShot<'_> {
        OneShot {
            qasm: if wide {
                &self.wide_qasm[which]
            } else {
                &self.small_qasm[which]
            },
            seed,
            shots: if wide { WIDE_SHOTS } else { SMALL_SHOTS },
            high_priority: !wide,
        }
    }

    /// Template and `<Z>` mask of the QAOA (`qaoa == true`) or QNN family.
    #[must_use]
    pub fn family(&self, qaoa: bool) -> (&ParamCircuit, u64) {
        if qaoa {
            (&self.qaoa, self.qaoa_mask)
        } else {
            (&self.qnn, self.qnn_mask)
        }
    }
}

/// A connected random graph: a ring plus each chord with probability 1/4.
#[must_use]
pub fn random_graph(n: u32, rng: &mut Rng) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    for a in 0..n {
        for b in a + 2..n {
            if !(a == 0 && b == n - 1) && rng.next_f64() < 0.25 {
                edges.push((a, b));
            }
        }
    }
    edges
}

fn round(rng: &mut Rng) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(JOBS_PER_ROUND);
    for which in 0..WIDE_PER_ROUND {
        jobs.push(Job::OneShot {
            wide: true,
            which,
            seed: rng.next_u64(),
        });
    }
    // The two families alternate so that coalescing has to pick
    // same-template neighbours out of a mixed queue.
    let n_weights = api::qnn_n_weights(QNN_DATA_QUBITS, QNN_LAYERS);
    for i in 0..SWEEPS_PER_ROUND {
        let qaoa = i % 2 == 0;
        let params = if qaoa {
            let gammas: Vec<f64> = (0..QAOA_LAYERS).map(|_| rng.range(-2.0, 2.0)).collect();
            let betas: Vec<f64> = (0..QAOA_LAYERS).map(|_| rng.range(-1.0, 1.0)).collect();
            api::qaoa_params(&gammas, &betas)
        } else {
            let features: Vec<f64> = (0..QNN_DATA_QUBITS).map(|_| rng.next_f64()).collect();
            let weights: Vec<f64> = (0..n_weights).map(|_| rng.range(-1.5, 1.5)).collect();
            api::qnn_params(&features, &weights)
        };
        jobs.push(Job::Sweep { qaoa, params });
    }
    for i in 0..SMALL_PER_ROUND {
        jobs.push(Job::OneShot {
            wide: false,
            which: i % 2,
            seed: rng.next_u64(),
        });
    }
    jobs
}

pub fn serve_inputs(seed: u64) -> ApiResult<ServeInputs> {
    let mut rng = Rng::new(derive(seed, 4));
    let edges = random_graph(QAOA_QUBITS, &mut rng);
    Ok(ServeInputs {
        wide_qasm: vec![
            api::to_qasm(&api::qft(16)?)?,
            api::to_qasm(&api::w_state(17)?)?,
        ],
        small_qasm: vec![
            api::to_qasm(&api::qft(10)?)?,
            api::to_qasm(&api::cat_state(10)?)?,
        ],
        qaoa: api::qaoa_template(QAOA_QUBITS, &edges, QAOA_LAYERS)?,
        qaoa_mask: (1u64 << QAOA_QUBITS) - 1,
        qnn: api::qnn_template(QNN_DATA_QUBITS, QNN_LAYERS)?,
        qnn_mask: 1u64 << QNN_DATA_QUBITS,
        rounds: (0..DISTINCT_ROUNDS).map(|_| round(&mut rng)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let x = r.range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_eq!(derive(5, 1), derive(5, 1));
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in [
            "wide_stream",
            "scaleout_fine",
            "scaleout_remap",
            "deep_incache",
        ] {
            let a = circuit_inputs(w, 11).unwrap().unwrap();
            let b = circuit_inputs(w, 11).unwrap().unwrap();
            assert_eq!(a.circuit.ops(), b.circuit.ops(), "{w}");
            assert_eq!(a.config, b.config, "{w}");
        }
        let (a, b) = (serve_inputs(11).unwrap(), serve_inputs(11).unwrap());
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.wide_qasm, b.wide_qasm);
        assert_eq!(a.small_qasm, b.small_qasm);
        assert!(circuit_inputs("serve_mixed", 11).unwrap().is_none());
    }

    #[test]
    fn another_seed_changes_angles_and_keeps_counts() {
        for w in ["wide_stream", "scaleout_fine"] {
            let a = circuit_inputs(w, 11).unwrap().unwrap();
            let b = circuit_inputs(w, 12).unwrap().unwrap();
            assert_ne!(a.circuit.ops(), b.circuit.ops(), "{w}: angles must differ");
            assert_eq!(a.circuit.ops().len(), b.circuit.ops().len(), "{w}");
            assert_ne!(
                a.config.seed, b.config.seed,
                "{w}: sampling seed must differ"
            );
            // Count metrics depend on the circuit's shape, not its angles.
            let kernels = |c: &CircuitInputs| api::compile_plan_kernels(&c.circuit, &c.reference());
            assert_eq!(kernels(&a), kernels(&b), "{w}");
            assert_eq!(kernels(&a), kernels(&a), "{w}");
            assert_eq!(
                api::plan_remap_swaps(&a.circuit),
                api::plan_remap_swaps(&b.circuit)
            );
        }
        let (a, b) = (serve_inputs(11).unwrap(), serve_inputs(12).unwrap());
        assert_ne!(a.rounds, b.rounds);
        assert_eq!(a.rounds.len(), DISTINCT_ROUNDS);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.len(), JOBS_PER_ROUND);
            assert_eq!(rb.len(), JOBS_PER_ROUND);
        }
    }

    #[test]
    fn generated_graph_is_simple_and_connected_by_its_ring() {
        let edges = random_graph(12, &mut Rng::new(3));
        assert!(edges.len() >= 12);
        let mut seen = std::collections::BTreeSet::new();
        for &(a, b) in &edges {
            assert!(a != b && a < 12 && b < 12);
            assert!(seen.insert((a.min(b), a.max(b))), "duplicate edge {a}-{b}");
        }
    }
}
