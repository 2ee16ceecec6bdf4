//! End-to-end integration tests of the four-phase balancer across the whole
//! stack (chord + ktree + workload + core).

use proxbal::chord::ChordNetwork;
use proxbal::core::{
    BalancerConfig, ClassifyParams, LoadBalancer, LoadState, NodeClass, ProximityMode,
};
use proxbal::sim::metrics::gini;
use proxbal::sim::{Scenario, TopologyKind};
use proxbal::trace::Trace;
use proxbal::workload::{CapacityProfile, LoadModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn unit_loads(net: &ChordNetwork, loads: &LoadState) -> Vec<f64> {
    net.alive_peers()
        .iter()
        .map(|&p| loads.unit_load(net, p))
        .collect()
}

#[test]
fn full_run_balances_and_preserves_invariants() {
    let mut scenario = Scenario::builder().small().seed(100).build();
    scenario.peers = 256;
    scenario.topology = TopologyKind::None;
    let mut prepared = scenario.prepare();

    let total_before = prepared.loads.totals(&prepared.net).load;
    let gini_before = gini(&unit_loads(&prepared.net, &prepared.loads));

    let balancer = LoadBalancer::new(BalancerConfig::default());
    let mut rng = prepared.derived_rng(1);
    let report = balancer
        .run(
            &mut prepared.net,
            &mut prepared.loads,
            None,
            &mut rng,
            &mut Trace::disabled(),
        )
        .unwrap();

    prepared.net.check_invariants().unwrap();
    let total_after = prepared.loads.totals(&prepared.net).load;
    assert!((total_before - total_after).abs() < 1e-6 * total_before);

    let gini_after = gini(&unit_loads(&prepared.net, &prepared.loads));
    assert!(
        gini_after < gini_before,
        "balance must reduce unit-load inequality: {gini_before} -> {gini_after}"
    );
    assert_eq!(report.heavy_after(), 0, "all heavy nodes become light");
    assert!(report.before[&NodeClass::Heavy] > 0);
    // Every transfer's VS now lives at its assigned destination.
    for t in &report.transfers {
        assert_eq!(prepared.net.vs(t.assignment.vs).host, t.assignment.to);
    }
}

#[test]
fn works_for_both_load_models_and_degrees() {
    for (model, k) in [
        (LoadModel::gaussian(1e6, 1e4), 2usize),
        (LoadModel::gaussian(1e6, 1e4), 8),
        (LoadModel::pareto(1e6), 2),
        (LoadModel::pareto(1e6), 8),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = ChordNetwork::new();
        for _ in 0..128 {
            net.join_peer(5, &mut rng);
        }
        let mut loads = LoadState::generate(&net, &CapacityProfile::gnutella(), &model, &mut rng);
        let balancer = LoadBalancer::new(BalancerConfig {
            k,
            ..BalancerConfig::default()
        });
        let report = balancer
            .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
            .unwrap();
        let heavy_before = report.before[&NodeClass::Heavy];
        assert!(heavy_before > 0, "model {model:?} produced no heavy nodes");
        assert!(
            report.heavy_after() * 10 <= heavy_before,
            "model {model:?} k={k}: {heavy_before} -> {}",
            report.heavy_after()
        );
        net.check_invariants().unwrap();
    }
}

#[test]
fn epsilon_trades_movement_for_balance() {
    // Larger ε ⇒ (weakly) less load moved, at looser balance. This is the
    // trade-off §3.3 describes.
    let mut moved = Vec::new();
    for eps in [0.0, 0.2, 0.5] {
        let mut scenario = Scenario::builder().small().seed(200).build();
        scenario.peers = 256;
        scenario.topology = TopologyKind::None;
        scenario.balancer = BalancerConfig {
            epsilon: eps,
            ..BalancerConfig::default()
        };
        let mut prepared = scenario.prepare();
        let balancer = LoadBalancer::new(prepared.scenario.balancer);
        let mut rng = prepared.derived_rng(2);
        let report = balancer
            .run(
                &mut prepared.net,
                &mut prepared.loads,
                None,
                &mut rng,
                &mut Trace::disabled(),
            )
            .unwrap();
        moved.push(proxbal::core::total_moved_load(&report.transfers));
        // ε = 0 may leave a few stragglers (whole virtual servers cannot hit
        // an exact fair share — the very trade-off ε exists for); relaxed
        // targets must fully converge.
        let heavy_before = report.before[&NodeClass::Heavy];
        assert!(
            report.heavy_after() * 2 <= heavy_before,
            "eps={eps}: {} of {heavy_before} still heavy",
            report.heavy_after()
        );
        if eps > 0.0 {
            assert_eq!(report.heavy_after(), 0, "eps={eps}");
        }
    }
    assert!(
        moved[0] > moved[2],
        "eps=0 should move more load than eps=0.5: {moved:?}"
    );
}

#[test]
fn higher_capacity_nodes_carry_more_after_balancing() {
    let mut scenario = Scenario::builder().small().seed(300).build();
    scenario.peers = 512;
    scenario.topology = TopologyKind::None;
    let mut prepared = scenario.prepare();
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let mut rng = prepared.derived_rng(3);
    let _ = balancer
        .run(
            &mut prepared.net,
            &mut prepared.loads,
            None,
            &mut rng,
            &mut Trace::disabled(),
        )
        .unwrap();

    let mut per_class: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
    for p in prepared.net.alive_peers() {
        let class = prepared.loads.class(p).unwrap().0;
        let e = per_class.entry(class).or_insert((0.0, 0));
        e.0 += prepared.loads.node_load(&prepared.net, p);
        e.1 += 1;
    }
    let avgs: Vec<f64> = per_class
        .values()
        .filter(|(_, n)| *n > 0)
        .map(|(s, n)| s / *n as f64)
        .collect();
    for w in avgs.windows(2) {
        assert!(w[1] > w[0], "load must track capacity: {avgs:?}");
    }
}

#[test]
fn stale_assignments_are_skipped_when_peers_crash_between_vsa_and_vst() {
    // Simulate a crash between assignment and transfer by running VSA
    // manually, crashing a source, then executing the transfers.
    let mut rng = StdRng::seed_from_u64(9);
    let mut net = ChordNetwork::new();
    for _ in 0..64 {
        net.join_peer(4, &mut rng);
    }
    let mut loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::gaussian(1e6, 1e4),
        &mut rng,
    );
    let params = ClassifyParams::default();
    let assignments = proxbal::core::baselines::random_matching(&net, &loads, &params, &mut rng);
    assert!(assignments.len() > 3);

    let crash_src = assignments[0].from;
    let crash_dst = assignments
        .iter()
        .map(|a| a.to)
        .find(|&p| p != crash_src)
        .unwrap();
    net.crash_peer(crash_src);
    net.crash_peer(crash_dst);

    let records = proxbal::core::execute_transfers(
        &mut net,
        &mut loads,
        &assignments,
        None,
        1,
        &mut Trace::disabled(),
    )
    .unwrap();
    net.check_invariants().unwrap();
    for r in &records {
        assert_ne!(r.assignment.from, crash_src);
        assert_ne!(r.assignment.to, crash_dst);
    }
}

#[test]
fn ignorant_mode_requires_no_underlay_aware_panics_without() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = ChordNetwork::new();
    for _ in 0..16 {
        net.join_peer(3, &mut rng);
    }
    let mut loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::gaussian(1e5, 1e3),
        &mut rng,
    );
    // Ignorant without underlay: fine.
    let _ = LoadBalancer::new(BalancerConfig::default())
        .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
        .unwrap();
    // Aware without underlay: must panic.
    let result = std::panic::catch_unwind(move || {
        let mut rng = StdRng::seed_from_u64(12);
        let cfg = BalancerConfig {
            mode: ProximityMode::Aware(Default::default()),
            ..BalancerConfig::default()
        };
        LoadBalancer::new(cfg)
            .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
            .unwrap()
    });
    assert!(result.is_err());
}
