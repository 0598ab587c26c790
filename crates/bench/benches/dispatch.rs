//! The fn-pointer polymorphism ablation (paper Listing 1 vs the HIP
//! fallback): preloaded kernel pointers vs per-execution parse-and-branch.

use svsim_bench::{criterion_group, criterion_main, Criterion};
use svsim_core::{DispatchMode, SimConfig, Simulator};
use svsim_workloads::random::random_basic_circuit;

fn benches(c: &mut Criterion) {
    // Small state, many gates: dispatch overhead dominates, as on a VQA
    // trial circuit.
    let circuit = random_basic_circuit(10, 2000, 42);
    let mut group = c.benchmark_group("dispatch_2000g_n10");
    group.sample_size(15);
    group.bench_function("preloaded_fn_pointer", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(10, SimConfig::single_device()).unwrap();
            sim.run(&circuit).unwrap();
            std::hint::black_box(sim.state().re()[0]);
        });
    });
    group.bench_function("runtime_parse", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(
                10,
                SimConfig {
                    dispatch: DispatchMode::RuntimeParse,
                    ..SimConfig::single_device()
                },
            )
            .unwrap();
            sim.run(&circuit).unwrap();
            std::hint::black_box(sim.state().re()[0]);
        });
    });
    group.finish();
}

criterion_group!(dispatch, benches);
criterion_main!(dispatch);
