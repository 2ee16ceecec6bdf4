//! Benchmarks the tree phases behind the O(log_K N) round claims: tree
//! construction, LBI aggregation and the VSA sweep, for K = 2 and K = 8.
//! Round *counts* come from `repro claims rounds`; this bench tracks the
//! wall-clock of each phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_core::{ClassifyParams, Lbi};
use proxbal_ktree::KTree;
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;
use std::collections::HashMap;

fn bench_phases(c: &mut Criterion) {
    let mut scenario = Scenario::builder().small().seed(13).build();
    scenario.peers = 1024;
    scenario.topology = TopologyKind::None;
    let prepared = scenario.prepare();
    let net = &prepared.net;
    let loads = &prepared.loads;

    let mut group = c.benchmark_group("tree_phases");
    group.sample_size(10);
    for k in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("build", k), &k, |b, &k| {
            b.iter(|| std::hint::black_box(KTree::build(net, k)));
        });

        let tree = KTree::build(net, k);
        group.bench_with_input(BenchmarkId::new("lbi_aggregate", k), &k, |b, _| {
            b.iter(|| {
                let mut inputs: HashMap<_, Lbi> = HashMap::new();
                for p in net.alive_peers() {
                    let vs = net.vss_of(p)[0];
                    inputs.insert(tree.report_target(net, vs), loads.node_lbi(net, p));
                }
                std::hint::black_box(tree.aggregate(inputs))
            });
        });

        group.bench_with_input(BenchmarkId::new("vsa_sweep", k), &k, |b, _| {
            let params = ClassifyParams::default();
            let system = loads.totals(net);
            let classification = proxbal_core::Classification::compute(net, loads, &params, system);
            let shed = proxbal_core::reports::shed_candidates(net, loads, &params, &classification);
            let light = proxbal_core::reports::light_slots(net, loads, &params, &classification);
            b.iter(|| {
                let mut rng = prepared.derived_rng(99);
                let inputs =
                    proxbal_core::reports::ignorant_inputs(net, &tree, &shed, &light, &mut rng);
                let vsa_params = proxbal_core::VsaParams::paper(system.min_vs_load);
                std::hint::black_box(proxbal_core::run_vsa(
                    &tree,
                    inputs,
                    &vsa_params,
                    &mut Trace::disabled(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
