//! Benchmarks the parallel kernels *inside* a balancing round — the hot
//! per-peer loops the `--threads` knob accelerates: node classification,
//! shed-candidate/light-slot extraction, and the complete proximity-aware
//! four-phase round. Each kernel runs at 1 and 8 worker threads so the
//! scaling (and the fixed-chunk merge overhead at 1 thread) is visible in
//! one report. Outputs are byte-identical across thread counts — the
//! determinism tests pin that — so these benches measure pure wall-clock.

use criterion::{criterion_group, criterion_main, Criterion};
use proxbal_core::reports::{light_slots_with, shed_candidates_with};
use proxbal_core::{
    BalancerConfig, Classification, ClassifyParams, LoadBalancer, ProximityMode, ProximityParams,
};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

const THREAD_COUNTS: [usize; 2] = [1, 8];

fn bench_round_kernels(c: &mut Criterion) {
    let mut scenario = Scenario::builder().small().seed(7).build();
    scenario.peers = 4096;
    scenario.topology = TopologyKind::Ts5kSmall;
    let prepared = scenario.prepare();
    let params = ClassifyParams {
        epsilon: prepared.scenario.balancer.epsilon,
    };
    let system = prepared.loads.totals(&prepared.net);

    let mut group = c.benchmark_group("round_kernels");
    group.sample_size(20);

    for threads in THREAD_COUNTS {
        group.bench_function(format!("classify_t{threads}"), |b| {
            b.iter(|| {
                std::hint::black_box(Classification::compute_with(
                    &prepared.net,
                    &prepared.loads,
                    &params,
                    system,
                    threads,
                ))
            });
        });
    }

    let classification =
        Classification::compute_with(&prepared.net, &prepared.loads, &params, system, 1);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("shed_and_light_t{threads}"), |b| {
            b.iter(|| {
                let shed = shed_candidates_with(
                    &prepared.net,
                    &prepared.loads,
                    &params,
                    &classification,
                    threads,
                );
                let light = light_slots_with(
                    &prepared.net,
                    &prepared.loads,
                    &params,
                    &classification,
                    threads,
                );
                std::hint::black_box((shed, light))
            });
        });
    }

    // The complete proximity-aware round (all four phases, exact transfer
    // distances) from a cloned initial state. One untimed warm-up round
    // first, so every measured thread count starts from the same oracle
    // cache state.
    let aware_round = |threads: usize| {
        let mut net = prepared.net.clone();
        let mut loads = prepared.loads.clone();
        let underlay = prepared.underlay().expect("topology present");
        let cfg = BalancerConfig {
            mode: ProximityMode::Aware(ProximityParams::default()),
            ..prepared.scenario.balancer
        };
        let mut rng = prepared.derived_rng(78);
        LoadBalancer::new(cfg)
            .with_threads(threads)
            .run(
                &mut net,
                &mut loads,
                Some(underlay),
                &mut rng,
                &mut Trace::disabled(),
            )
            .expect("attached network")
    };
    std::hint::black_box(aware_round(1));
    for threads in THREAD_COUNTS {
        group.bench_function(format!("aware_round_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(aware_round(threads)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_round_kernels);
criterion_main!(benches);
