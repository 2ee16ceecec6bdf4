//! Benchmarks the Figure-7/8 pipeline: proximity-aware vs proximity-ignorant
//! balance runs over a transit-stub topology (including landmark-vector
//! computation and Hilbert publication). Figure data comes from
//! `repro --fig 7` / `--fig 8`; this bench compares the *cost* of the two
//! modes.

use criterion::{criterion_group, criterion_main, Criterion};
use proxbal_core::{BalancerConfig, LoadBalancer, ProximityMode, ProximityParams};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

fn bench_modes(c: &mut Criterion) {
    let mut scenario = Scenario::builder().small().seed(11).build();
    scenario.peers = 512;
    scenario.landmarks = 15;
    scenario.topology = TopologyKind::Ts5kLarge;
    let prepared = scenario.prepare();
    let underlay = prepared.underlay().unwrap();
    // Warm the oracle so both modes see the same cache state.
    let _ = proxbal_sim::experiments::fig78_moved_load(&prepared, &mut Trace::disabled());

    let mut group = c.benchmark_group("fig7_modes_ts5k_large");
    group.sample_size(10);
    for (name, mode) in [
        ("ignorant", ProximityMode::Ignorant),
        ("aware", ProximityMode::Aware(ProximityParams::default())),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut net = prepared.net.clone();
                let mut loads = prepared.loads.clone();
                let balancer = LoadBalancer::new(BalancerConfig {
                    mode,
                    ..prepared.scenario.balancer
                });
                let mut rng = prepared.derived_rng(7);
                std::hint::black_box(
                    balancer
                        .run(
                            &mut net,
                            &mut loads,
                            Some(underlay),
                            &mut rng,
                            &mut Trace::disabled(),
                        )
                        .expect("attached network"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modes);
criterion_main!(benches);
