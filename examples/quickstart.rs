//! Quickstart: build a small heterogeneous DHT, run one load-balancing
//! pass, and print the before/after picture.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use proxbal::chord::ChordNetwork;
use proxbal::core::{BalancerConfig, LoadBalancer, LoadState, NodeClass};
use proxbal::trace::Trace;
use proxbal::workload::{CapacityProfile, LoadModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A Chord overlay of 256 peers, 5 virtual servers each.
    let mut net = ChordNetwork::new();
    for _ in 0..256 {
        net.join_peer(5, &mut rng);
    }
    println!(
        "overlay: {} peers hosting {} virtual servers",
        net.alive_peers().len(),
        net.alive_vs_count()
    );

    // 2. Skewed loads (Gaussian over owned ring fractions) and the paper's
    //    Gnutella-like capacity profile (1 … 10,000, heavily skewed).
    let mut loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::gaussian(1_000_000.0, 10_000.0),
        &mut rng,
    );

    let unit_loads = |net: &ChordNetwork, loads: &LoadState| -> Vec<f64> {
        net.alive_peers()
            .iter()
            .map(|&p| loads.unit_load(net, p))
            .collect()
    };
    let before = unit_loads(&net, &loads);
    println!(
        "before: max unit load {:>9.1}   mean {:>7.1}",
        before.iter().fold(0.0f64, |a, &b| a.max(b)),
        before.iter().sum::<f64>() / before.len() as f64
    );

    // 3. One balancing pass: LBI aggregation → classification → virtual
    //    server assignment → transfer.
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer
        .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
        .expect("attached network");

    println!(
        "classified: {} heavy / {} light / {} neutral",
        report.before.get(&NodeClass::Heavy).unwrap_or(&0),
        report.before.get(&NodeClass::Light).unwrap_or(&0),
        report.before.get(&NodeClass::Neutral).unwrap_or(&0),
    );
    println!(
        "balanced in {} LBI + {} VSA message rounds, {} transfers",
        report.lbi_rounds,
        report.vsa.rounds,
        report.transfers.len()
    );

    let after = unit_loads(&net, &loads);
    println!(
        "after : max unit load {:>9.1}   mean {:>7.1}   heavy remaining: {}",
        after.iter().fold(0.0f64, |a, &b| a.max(b)),
        after.iter().sum::<f64>() / after.len() as f64,
        report.heavy_after()
    );
}
