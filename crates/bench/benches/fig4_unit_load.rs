//! Benchmarks the Figure-4 pipeline (full four-phase balance run, Gaussian
//! workload, no underlay) across overlay sizes. The *data* for Figure 4 is
//! produced by `cargo run -p proxbal-bench --bin repro -- --fig 4`; this
//! bench tracks how fast the balancer itself is.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_core::LoadBalancer;
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_balance_run");
    group.sample_size(10);
    for peers in [256usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(peers), &peers, |b, &peers| {
            let mut scenario = Scenario::builder().small().seed(7).build();
            scenario.peers = peers;
            scenario.topology = TopologyKind::None;
            let prepared = scenario.prepare();
            b.iter(|| {
                let mut net = prepared.net.clone();
                let mut loads = prepared.loads.clone();
                let balancer = LoadBalancer::new(prepared.scenario.balancer);
                let mut rng = prepared.derived_rng(4);
                std::hint::black_box(
                    balancer
                        .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
                        .expect("attached network"),
                )
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
