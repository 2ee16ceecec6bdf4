//! Ablation benches for the design choices DESIGN.md calls out:
//! ε (balance-quality knob), rendezvous threshold, Hilbert grid order, and
//! tree degree K. Each variant runs the full balancer so regressions in any
//! phase show up.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_core::{BalancerConfig, LoadBalancer, ProximityMode, ProximityParams};
use proxbal_sim::{Prepared, Scenario, TopologyKind};
use proxbal_trace::Trace;

fn prepared() -> Prepared {
    let mut scenario = Scenario::builder().small().seed(17).build();
    scenario.peers = 256;
    scenario.landmarks = 8;
    scenario.topology = TopologyKind::Tiny;
    scenario.prepare()
}

fn run_with(prepared: &Prepared, cfg: BalancerConfig) -> proxbal_core::BalanceReport {
    let mut net = prepared.net.clone();
    let mut loads = prepared.loads.clone();
    let balancer = LoadBalancer::new(cfg);
    let mut rng = prepared.derived_rng(1717);
    let underlay = prepared.underlay();
    balancer
        .run(
            &mut net,
            &mut loads,
            underlay,
            &mut rng,
            &mut Trace::disabled(),
        )
        .expect("attached network")
}

fn bench_epsilon(c: &mut Criterion) {
    let p = prepared();
    let mut group = c.benchmark_group("ablation_epsilon");
    group.sample_size(10);
    for eps in [0.0f64, 0.05, 0.2, 0.5] {
        group.bench_with_input(BenchmarkId::from_parameter(eps), &eps, |b, &eps| {
            let cfg = BalancerConfig {
                epsilon: eps,
                ..p.scenario.balancer
            };
            b.iter(|| std::hint::black_box(run_with(&p, cfg)));
        });
    }
    group.finish();
}

fn bench_threshold(c: &mut Criterion) {
    let p = prepared();
    let mut group = c.benchmark_group("ablation_threshold");
    group.sample_size(10);
    for thr in [2usize, 10, 30, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(thr), &thr, |b, &thr| {
            let cfg = BalancerConfig {
                rendezvous_threshold: thr,
                ..p.scenario.balancer
            };
            b.iter(|| std::hint::black_box(run_with(&p, cfg)));
        });
    }
    group.finish();
}

fn bench_hilbert_order(c: &mut Criterion) {
    let p = prepared();
    let mut group = c.benchmark_group("ablation_hilbert_bits");
    group.sample_size(10);
    for bits in [1u32, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, &bits| {
            let cfg = BalancerConfig {
                mode: ProximityMode::Aware(ProximityParams {
                    bits_per_dim: bits,
                    ..ProximityParams::default()
                }),
                ..p.scenario.balancer
            };
            b.iter(|| std::hint::black_box(run_with(&p, cfg)));
        });
    }
    group.finish();
}

fn bench_tree_degree(c: &mut Criterion) {
    let p = prepared();
    let mut group = c.benchmark_group("ablation_tree_degree");
    group.sample_size(10);
    for k in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let cfg = BalancerConfig {
                k,
                ..p.scenario.balancer
            };
            b.iter(|| std::hint::black_box(run_with(&p, cfg)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_epsilon,
    bench_threshold,
    bench_hilbert_order,
    bench_tree_degree,
    bench_key_dims,
    bench_splitting
);
criterion_main!(benches);

fn bench_key_dims(c: &mut Criterion) {
    let p = prepared();
    let mut group = c.benchmark_group("ablation_key_dims");
    group.sample_size(10);
    for kd in [1usize, 2, 5] {
        group.bench_with_input(BenchmarkId::from_parameter(kd), &kd, |b, &kd| {
            let cfg = BalancerConfig {
                mode: ProximityMode::Aware(ProximityParams {
                    key_dims: Some(kd),
                    ..ProximityParams::default()
                }),
                ..p.scenario.balancer
            };
            b.iter(|| std::hint::black_box(run_with(&p, cfg)));
        });
    }
    group.finish();
}

fn bench_splitting(c: &mut Criterion) {
    let p = prepared();
    let mut group = c.benchmark_group("ablation_max_splits");
    group.sample_size(10);
    for splits in [0usize, 16, 64] {
        group.bench_with_input(
            BenchmarkId::from_parameter(splits),
            &splits,
            |b, &splits| {
                let cfg = BalancerConfig {
                    epsilon: 0.0, // the regime where splitting matters
                    max_splits: splits,
                    ..p.scenario.balancer
                };
                b.iter(|| std::hint::black_box(run_with(&p, cfg)));
            },
        );
    }
    group.finish();
}
