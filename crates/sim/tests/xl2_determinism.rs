//! The xl2 pipeline's determinism contract at a reduced scale: sharded
//! preparation, the sharded KT-tree build and the balancing pass with its
//! exact transfer distances are pure functions of the scenario — the worker-thread
//! count only bounds parallelism. The full-scale guarantee (`repro xl2`
//! byte-identical at any `--threads`) is exactly this property at 1M peers.

use proxbal_core::{BalancerConfig, LoadBalancer, ProximityMode, ProximityParams};
use proxbal_sim::experiments::{xl2_scale, Xl2ScaleOutput, XL2_SPLIT_DEPTH};
use proxbal_sim::metrics::DistanceHistogram;
use proxbal_sim::shard::build_tree_sharded;
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

/// The xl2 preset scaled down ~1000×: same sharded machinery (8 shards,
/// bounded caches), test-sized everything else.
fn tiny_xl2(seed: u64) -> Scenario {
    Scenario::builder()
        .xl2()
        .peers(1024)
        .topology(TopologyKind::Tiny)
        .landmarks(4)
        .oracle_capacity(16)
        .seed(seed)
        .build()
}

/// Serializes the output with every wall-clock zeroed — the only fields
/// allowed to differ between runs.
fn stable_json(mut out: Xl2ScaleOutput) -> String {
    out.prepare_wall_s = 0.0;
    out.tree_wall_s = 0.0;
    out.aware.wall_s = 0.0;
    serde_json::to_string(&out).expect("serialize xl2 output")
}

#[test]
fn xl2_output_is_byte_identical_across_thread_counts() {
    let base = stable_json(xl2_scale(tiny_xl2(3), 1, &mut Trace::disabled()));
    for threads in [2, 8] {
        let run = stable_json(xl2_scale(tiny_xl2(3), threads, &mut Trace::disabled()));
        assert_eq!(run, base, "{threads} threads");
    }
}

#[test]
fn xl2_trace_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut trace = Trace::enabled("xl2");
        let out = stable_json(xl2_scale(tiny_xl2(5), threads, &mut trace));
        (out, trace.to_ndjson())
    };
    let (out1, nd1) = run(1);
    let (out8, nd8) = run(8);
    assert_eq!(out1, out8);
    assert_eq!(nd1, nd8, "trace event stream must not depend on threads");
}

#[test]
fn sharded_prepare_is_thread_count_invariant() {
    let scenario = tiny_xl2(7);
    let a = scenario.prepare_threads(1);
    let b = scenario.prepare_threads(8);
    assert_eq!(a.net.ring().len(), b.net.ring().len());
    assert_eq!(a.net.alive_peers(), b.net.alive_peers());
    for ((pos_a, vs_a), (pos_b, vs_b)) in a.net.ring().iter().zip(b.net.ring().iter()) {
        assert_eq!(pos_a, pos_b);
        assert_eq!(vs_a, vs_b);
    }
    assert_eq!(a.landmarks, b.landmarks);
    for p in a.net.alive_peers() {
        assert_eq!(a.net.peer(p).underlay, b.net.peer(p).underlay);
    }
}

#[test]
fn sharded_tree_matches_serial_build_shape() {
    let prepared = tiny_xl2(9).prepare();
    let serial = proxbal_ktree::KTree::build(&prepared.net, 2);
    let sharded = build_tree_sharded(&prepared.net, 2, XL2_SPLIT_DEPTH, 4);
    sharded.check_invariants(&prepared.net).unwrap();
    assert_eq!(sharded.len(), serial.len());
    let key = |t: &proxbal_ktree::KTree| {
        let mut v: Vec<_> = t
            .iter_ids()
            .map(|id| {
                let n = t.node(id);
                (n.region.start().raw(), n.region.len(), n.host, n.depth)
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&sharded), key(&serial));
}

#[test]
fn xl2_pass_records_exact_distances_and_resolves_heavy_peers() {
    let out = xl2_scale(tiny_xl2(11), 2, &mut Trace::disabled());
    assert!(out.aware.heavy_before > 0);
    assert!(
        (out.aware.heavy_after as f64) < 0.2 * out.aware.heavy_before as f64,
        "heavy {} -> {} (expected at least 5x reduction)",
        out.aware.heavy_before,
        out.aware.heavy_after
    );
    assert!(out.aware.transfers > 0);

    // The same pass through the public API, so every transfer's recorded
    // distance can be checked against the reference Dijkstra.
    let mut prepared = tiny_xl2(11).prepare_threads(2);
    let mut tree = build_tree_sharded(&prepared.net, 2, XL2_SPLIT_DEPTH, 2);
    let mut net = std::mem::take(&mut prepared.net);
    let mut loads = std::mem::take(&mut prepared.loads);
    let cfg = BalancerConfig {
        mode: ProximityMode::Aware(ProximityParams::default()),
        ..prepared.scenario.balancer
    };
    let mut rng = prepared.derived_rng(78);
    let report = LoadBalancer::new(cfg)
        .with_threads(2)
        .run_with_tree(
            &mut net,
            &mut loads,
            &mut tree,
            prepared.underlay(),
            &mut rng,
        )
        .expect("attached network");
    assert_eq!(report.transfers.len(), out.aware.transfers);
    let graph = prepared.oracle.as_ref().expect("topology").graph();
    let mut histogram = DistanceHistogram::new();
    for t in &report.transfers {
        let from = net.peer(t.assignment.from).underlay;
        let to = net.peer(t.assignment.to).underlay;
        let exact = graph.dijkstra_reference(from)[to as usize];
        assert_eq!(t.distance, Some(exact), "transfer {from} -> {to}");
        histogram.add(exact, t.assignment.load);
    }
    assert_eq!(histogram.cdf(), out.aware.histogram.cdf());
}
