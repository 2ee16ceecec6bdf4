//! The capacity-alignment experiment behind Figures 5 and 6: after
//! balancing, node load must track the capacity skew — "have higher
//! capacity nodes carry more loads".
//!
//! Runs both load models (Gaussian and the heavy-tailed Pareto) and prints
//! the per-capacity-class mean load before and after balancing.
//!
//! ```text
//! cargo run --release --example heterogeneous_capacity
//! ```

use proxbal::sim::experiments::fig56_class_loads;
use proxbal::sim::metrics::Summary;
use proxbal::sim::{Scenario, TopologyKind};
use proxbal::trace::Trace;
use proxbal::workload::LoadModel;

fn main() {
    for (label, model) in [
        ("Gaussian", LoadModel::gaussian(1_000_000.0, 10_000.0)),
        ("Pareto(alpha=1.5)", LoadModel::pareto(1_000_000.0)),
    ] {
        let mut scenario = Scenario::builder().seed(7).build();
        scenario.peers = 1024; // example-sized; `repro figs 5 6` runs 4096
        scenario.topology = TopologyKind::None;
        scenario.load = model;
        let mut prepared = scenario.prepare();
        let out = fig56_class_loads(&mut prepared, &mut Trace::disabled());

        println!("── {label} ──");
        println!(
            "{:>10} {:>6} {:>16} {:>16} {:>10}",
            "capacity", "nodes", "mean load pre", "mean load post", "post/cap"
        );
        for (i, cap) in out.class_capacity.iter().enumerate() {
            let b = Summary::of(&out.before[i]);
            let a = Summary::of(&out.after[i]);
            if b.count == 0 {
                continue;
            }
            println!(
                "{:>10} {:>6} {:>16.1} {:>16.1} {:>10.2}",
                cap,
                b.count,
                b.mean,
                a.mean,
                a.mean / cap
            );
        }
        // The "post/cap" column is the per-class unit load: roughly equal
        // across classes once the two skews (load, capacity) are aligned.
        println!();
    }
}
