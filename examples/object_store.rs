//! Object-level workload: a DHT storing many objects with Zipf-skewed
//! popularity (a few hot objects dominate), the microfoundation behind the
//! paper's load models. The hot keys create hotspot virtual servers; the
//! balancer spreads them to high-capacity peers.
//!
//! ```text
//! cargo run --release --example object_store
//! ```

use proxbal::chord::ChordNetwork;
use proxbal::core::{BalancerConfig, LoadBalancer, LoadState, NodeClass};
use proxbal::trace::Trace;
use proxbal::workload::{CapacityProfile, ObjectWorkload};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(61);

    let mut net = ChordNetwork::new();
    for _ in 0..256 {
        net.join_peer(5, &mut rng);
    }

    // 100k objects, Zipf(1.1) popularity: the head of the distribution is a
    // handful of very hot keys.
    let workload = ObjectWorkload::zipf(100_000, 1_000_000.0, 1.1);
    let objects = workload.generate(&mut rng);
    println!(
        "{} objects over {} virtual servers; hottest object carries {:.1}% of all load",
        objects.len(),
        net.alive_vs_count(),
        100.0 * objects.iter().map(|o| o.load).fold(0.0f64, f64::max) / 1_000_000.0
    );

    let mut loads = LoadState::from_objects(&net, &CapacityProfile::gnutella(), &objects, &mut rng);

    let hottest_vs = |net: &ChordNetwork, loads: &LoadState| -> f64 {
        net.ring()
            .iter()
            .map(|(_, v)| loads.vs_load(v))
            .fold(0.0f64, f64::max)
    };
    println!(
        "hottest virtual server before balancing: {:.3e}",
        hottest_vs(&net, &loads)
    );

    // Splitting lets even a hotspot virtual server bigger than any light
    // node's room be divided and placed.
    let balancer = LoadBalancer::new(BalancerConfig {
        max_splits: 32,
        ..BalancerConfig::default()
    });
    let report = balancer
        .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
        .expect("attached network");

    println!(
        "balanced: {} heavy -> {} heavy, {} transfers ({} splits of oversized servers)",
        report.before.get(&NodeClass::Heavy).unwrap_or(&0),
        report.heavy_after(),
        report.transfers.len(),
        net.alive_vs_count() - 256 * 5,
    );

    // Where did the hot load end up? Check the capacity of its new host.
    let (hot_vs, hot_load) = net
        .ring()
        .iter()
        .map(|(_, v)| (v, loads.vs_load(v)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let host = net.vs(hot_vs).host;
    println!(
        "hottest virtual server after balancing: {:.3e}, hosted by a capacity-{} peer",
        hot_load,
        loads.capacity(host)
    );
    net.check_invariants().expect("invariants hold");
}
