//! Benchmark worker: runs one workload once in this process and prints one
//! JSON line with its wall times, its deterministic outputs and the result
//! of every output check.
//!
//! ```text
//! perfbench-worker --workload <aware-65k|ignorant-262k|engine-4k>
//!                  --seed <n> --threads <t> [--setup-reps <k>] [--traced]
//! ```
//!
//! `run.py` starts a fresh worker process per iteration and aggregates.
//! Timings wrap calls into each layer's public functions from the outside;
//! nothing here adds instrumentation inside the library crates. With
//! `--traced` the worker also turns on the `proxbal-profile` phase profiler
//! and counting allocator (which bracket `round/lbi|aggregate|vsa|transfer`)
//! and makes a few extra timed public calls for the per-layer report.

use proxbal_chord::{ChordNetwork, PeerState};
use proxbal_core::{
    BalanceReport, BalancerConfig, Classification, ClassifyParams, LoadBalancer, NodeClass,
    ProximityMode, ProximityParams,
};
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_sim::des::RetryPolicy;
use proxbal_sim::experiments::XL2_SPLIT_DEPTH;
use proxbal_sim::faults::{simulate_aggregation_faulty, simulate_dissemination_faulty, FaultPlan};
use proxbal_sim::metrics::DistanceHistogram;
use proxbal_sim::protocol::ProtocolScratch;
use proxbal_sim::shard::build_tree_sharded;
use proxbal_sim::{EngineConfig, EngineReport, Prepared, Scenario, TopologyKind};
use proxbal_topology::{LandmarkOracle, TransitStubConfig, TransitStubTopology};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: proxbal_profile::CountingAlloc = proxbal_profile::CountingAlloc;

/// Transfers checked against `Graph::dijkstra_reference` per aware pass.
const DISTANCE_SAMPLE: usize = 512;
/// Salt of the distance-sample RNG, so the sample never shares a stream
/// with the scenario.
const SAMPLE_SALT: u64 = 0xD157_5A3F;
/// Round bound for tree maintenance and repair (the library's own choice).
const MAINTAIN_LIMIT: usize = 256;
/// Allowed relative drift of total load across one balancing pass.
const LOAD_TOLERANCE: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Aware65k,
    Ignorant262k,
    Engine4k,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "aware-65k" => Some(Workload::Aware65k),
            "ignorant-262k" => Some(Workload::Ignorant262k),
            "engine-4k" => Some(Workload::Engine4k),
            _ => None,
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::Aware65k => Scenario::builder().xl2().peers(65_536).seed(seed).build(),
            Workload::Ignorant262k => Scenario::builder()
                .xl2()
                .peers(262_144)
                .topology(TopologyKind::None)
                .seed(seed)
                .build(),
            // The committed `repro engine` scenario at full scale.
            Workload::Engine4k => Scenario::builder()
                .seed(seed)
                .balancer(BalancerConfig {
                    max_splits: 256,
                    ..BalancerConfig::default()
                })
                .churn(proxbal_sim::churn::ChurnConfig::default())
                .drift(proxbal_sim::drift::DriftConfig::default())
                .faults(proxbal_sim::faults::FaultConfig::with_loss(
                    0.01,
                    seed ^ 0xE9_614E,
                ))
                .build(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    threads: usize,
    setup_reps: usize,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut threads = 1;
    let mut setup_reps = 1;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--threads" => threads = number()?.max(1) as usize,
            "--setup-reps" => setup_reps = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        threads,
        setup_reps,
        traced,
    })
}

/// Named pass/fail results of the output checks.
#[derive(Default)]
struct Checks {
    results: Vec<Value>,
    failures: usize,
}

impl Checks {
    fn add(&mut self, name: &str, ok: bool, detail: String) {
        self.failures += usize::from(!ok);
        self.results
            .push(json!({"name": name, "ok": ok, "detail": detail}));
    }
}

/// Every live virtual server (one on the ring) has exactly one alive host
/// that lists it, and no peer lists a virtual server that is not live.
fn check_hosts(net: &ChordNetwork, checks: &mut Checks) {
    let mut listed: BTreeMap<u32, usize> = BTreeMap::new();
    for p in net.alive_peers() {
        for v in net.vss_of(p) {
            *listed.entry(v.0).or_insert(0) += 1;
        }
    }
    let mut bad = 0usize;
    for (_, v) in net.ring().iter() {
        let host = net.vs(v).host;
        let alive = net.peer(host).state == PeerState::Alive;
        if !alive || listed.remove(&v.0) != Some(1) {
            bad += 1;
        }
    }
    bad += listed.len();
    checks.add(
        "vs_one_alive_host",
        bad == 0,
        format!(
            "{} live virtual servers, {bad} without exactly one alive host",
            net.ring().len()
        ),
    );
}

fn heavy_count(net: &ChordNetwork, loads: &proxbal_core::LoadState, epsilon: f64) -> usize {
    let system = loads.totals(net);
    Classification::compute(net, loads, &ClassifyParams { epsilon }, system)
        .count_of(NodeClass::Heavy)
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn peak_rss_mb() -> f64 {
    proxbal_profile::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Preparation plus (for the one-pass workloads) the sharded KT build.
struct Setup {
    prepared: Prepared,
    tree: Option<KTree>,
    prepare_s: f64,
    tree_s: f64,
}

fn setup(workload: Workload, seed: u64, threads: usize) -> Setup {
    let scenario = workload.scenario(seed);
    let t = Instant::now();
    let prepared = scenario.prepare_threads(threads);
    let prepare_s = secs(t);
    let (tree, tree_s) = if workload == Workload::Engine4k {
        // The engine builds its own tree; that time lands in balance_s.
        (None, 0.0)
    } else {
        let t = Instant::now();
        let tree = build_tree_sharded(
            &prepared.net,
            prepared.scenario.balancer.k,
            XL2_SPLIT_DEPTH,
            threads,
        );
        (Some(tree), secs(t))
    };
    Setup {
        prepared,
        tree,
        prepare_s,
        tree_s,
    }
}

impl Setup {
    fn setup_s(&self) -> f64 {
        self.prepare_s + self.tree_s
    }
}

/// Per-layer values gathered by a traced worker.
struct Layers(Map<String, Value>);

impl Default for Layers {
    fn default() -> Self {
        Layers(Map::new())
    }
}

impl Layers {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), json!(value));
    }
}

/// Sums of the profiler's `round/*` phases: (wall seconds, allocs, bytes).
fn round_phases() -> BTreeMap<&'static str, (f64, u64, u64)> {
    let report = proxbal_profile::report();
    let mut out = BTreeMap::new();
    for phase in ["lbi", "aggregate", "vsa", "transfer"] {
        let name = format!("round/{phase}");
        let mut sum = (0.0, 0u64, 0u64);
        for row in report.rows.iter().filter(|r| r.name == name) {
            sum.0 += row.wall.as_secs_f64();
            sum.1 += row.allocs;
            sum.2 += row.alloc_bytes;
        }
        out.insert(phase, sum);
    }
    out
}

/// Records the four phase walls and allocation counters; returns their
/// wall-time sum.
fn record_phases(layers: &mut Layers) -> f64 {
    let mut total = 0.0;
    for (phase, (wall, allocs, bytes)) in round_phases() {
        layers.set(&format!("core.{phase}_s"), wall);
        layers.set(&format!("core.{phase}_alloc_count"), allocs as f64);
        layers.set(&format!("core.{phase}_alloc_bytes"), bytes as f64);
        total += wall;
    }
    total
}

/// Times one stable maintenance sweep and one repair over `tree`.
fn record_tree_upkeep(net: &ChordNetwork, tree: &mut KTree, layers: &mut Layers) {
    let t = Instant::now();
    tree.maintain_until_stable(net, MAINTAIN_LIMIT);
    layers.set("ktree.maintain_s", secs(t));
    let t = Instant::now();
    tree.repair(net, MAINTAIN_LIMIT);
    layers.set("ktree.repair_s", secs(t));
}

fn time_topology(config: TransitStubConfig, seed: u64, layers: &mut Layers) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let topo = TransitStubTopology::generate(config, &mut rng);
    layers.set("topology.generate_s", secs(t));
    std::hint::black_box(topo);
}

/// Outcome of checking a seeded sample of transfers against the reference
/// Dijkstra: (checked, wrong, mean over-estimate on the wrong ones).
fn distance_truth(
    prepared: &Prepared,
    net: &ChordNetwork,
    report: &BalanceReport,
    seed: u64,
) -> (usize, usize, f64) {
    let Some(oracle) = prepared.oracle.as_ref() else {
        return (0, 0, 0.0);
    };
    let mut idx: Vec<usize> = (0..report.transfers.len()).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed ^ SAMPLE_SALT));
    idx.truncate(DISTANCE_SAMPLE);
    // One reference row per distinct source attachment.
    let mut by_source: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
    for &i in &idx {
        let tr = &report.transfers[i];
        let from = net.peer(tr.assignment.from).underlay;
        let to = net.peer(tr.assignment.to).underlay;
        let recorded = tr.distance.expect("aware transfers record a distance");
        by_source.entry(from).or_default().push((to, recorded));
    }
    let (mut wrong, mut excess) = (0usize, 0.0f64);
    for (src, targets) in by_source {
        let row = oracle.graph().dijkstra_reference(src);
        for (dst, recorded) in targets {
            let exact = row[dst as usize];
            if recorded != exact {
                wrong += 1;
                excess += f64::from(recorded) - f64::from(exact);
            }
        }
    }
    let mean_excess = if wrong > 0 {
        excess / wrong as f64
    } else {
        0.0
    };
    (idx.len(), wrong, mean_excess)
}

struct Outcome {
    setup_s: Vec<f64>,
    balance_s: f64,
    peak_rss_mb: f64,
    det: Map<String, Value>,
    checks: Checks,
    attempted: u64,
    failed: u64,
    layers: Layers,
}

/// One proximity-aware (`aware-65k`) or proximity-ignorant
/// (`ignorant-262k`) pass over the sharded KT tree.
fn run_pass(args: &Args) -> Outcome {
    let mut s = setup(args.workload, args.seed, args.threads);
    let mut layers = Layers::default();
    let setup_first = s.setup_s();
    let mut tree = s.tree.take().expect("one-pass workloads build a tree");
    let tree_nodes = tree.len();
    // The pass mutates the overlay and loads while the underlay borrows
    // the oracles, so the two halves of the prepared state part here.
    let mut net = std::mem::take(&mut s.prepared.net);
    let mut loads = std::mem::take(&mut s.prepared.loads);
    let prepared = &s.prepared;
    let oracle_before = prepared.oracle.as_ref().map(|o| o.cache_stats());
    let load_before = loads.totals(&net).load;
    let underlay = prepared.underlay();
    // RNG labels 78 (aware) and 79 (ignorant) as in the xl / Figure-7 runs.
    let (mode, label) = match underlay {
        Some(_) => (ProximityMode::Aware(ProximityParams::default()), 78),
        None => (ProximityMode::Ignorant, 79),
    };
    let cfg = BalancerConfig {
        mode,
        ..prepared.scenario.balancer
    };
    let mut rng = prepared.derived_rng(label);
    let t = Instant::now();
    let result = LoadBalancer::new(cfg)
        .with_threads(args.threads)
        .run_with_tree(&mut net, &mut loads, &mut tree, underlay, &mut rng);
    let balance_s = secs(t);
    let oracle_after = prepared.oracle.as_ref().map(|o| o.cache_stats());

    let mut checks = Checks::default();
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            checks.add("pass_ok", false, format!("{e:?}"));
            return Outcome {
                setup_s: vec![setup_first],
                balance_s,
                peak_rss_mb: peak_rss_mb(),
                det: Map::new(),
                checks,
                attempted: 1,
                failed: 1,
                layers,
            };
        }
    };

    let load_after = loads.totals(&net).load;
    let drift = ((load_after - load_before) / load_before).abs();
    checks.add(
        "load_conserved",
        drift <= LOAD_TOLERANCE,
        format!("relative drift {drift:.3e} (bound {LOAD_TOLERANCE:e})"),
    );
    check_hosts(&net, &mut checks);
    let heavy_before = report.before.get(&NodeClass::Heavy).copied().unwrap_or(0);
    let heavy_after = report.heavy_after();
    checks.add(
        "heavy_not_worse",
        heavy_after <= heavy_before,
        format!("heavy {heavy_before} -> {heavy_after}"),
    );

    let mut histogram = DistanceHistogram::new();
    for tr in &report.transfers {
        if let Some(d) = tr.distance {
            histogram.add(d, tr.assignment.load);
        }
    }
    let m = report.messages;
    let messages =
        m.lbi_messages + m.dissemination_messages + m.vsa_record_hops + m.vsa_notifications;
    let (checked, wrong, excess) = distance_truth(prepared, &net, &report, args.seed);
    let mut det = Map::new();
    for (k, v) in [
        ("heavy_before", json!(heavy_before)),
        ("heavy_after", json!(heavy_after)),
        ("messages", json!(messages)),
        ("transfers", json!(report.transfers.len())),
        (
            "moved_load",
            json!(proxbal_core::total_moved_load(&report.transfers)),
        ),
        ("lbi_messages", json!(m.lbi_messages)),
        ("vsa_record_hops", json!(m.vsa_record_hops)),
        ("vsa_rounds", json!(report.vsa.rounds)),
        ("distance_checked", json!(checked)),
        ("distance_wrong", json!(wrong)),
        ("distance_excess_mean", json!(excess)),
    ] {
        det.insert(k.to_string(), v);
    }
    if !histogram.is_empty() {
        det.insert("moved_within2".into(), json!(histogram.fraction_within(2)));
        det.insert("mean_distance".into(), json!(histogram.mean_distance()));
    }
    // Aware: sampled transfers are the operations and wrong distances the
    // failures. Ignorant: the pass itself is the one operation, failed if
    // any output check fails.
    let (attempted, failed) = if checked > 0 {
        (checked as u64, wrong as u64)
    } else {
        (1, u64::from(checks.failures > 0))
    };
    let peak = peak_rss_mb();

    if args.traced {
        layers.set("sim.prepare_s", s.prepare_s);
        layers.set("ktree.build_s", s.tree_s);
        layers.set("ktree.nodes", tree_nodes as f64);
        let phases = record_phases(&mut layers);
        layers.set("core.round_other_s", balance_s - phases);
        if let (Some(a), Some(b)) = (oracle_before, oracle_after) {
            let d = b.since(&a);
            layers.set("topology.oracle_rows", d.computes as f64);
            layers.set("topology.oracle_hits", d.hits as f64);
            layers.set("topology.oracle_evictions", d.evictions as f64);
            if d.computes > 0 {
                let transfer_s = round_phases()["transfer"].0;
                layers.set("topology.row_ms", 1e3 * transfer_s / d.computes as f64);
            }
        }
        // Extra public calls, after the pass so they cannot warm its caches.
        record_tree_upkeep(&net, &mut tree, &mut layers);
        if let Some(oracle) = s.prepared.oracle.as_ref() {
            time_topology(TransitStubConfig::ts50k(), args.seed, &mut layers);
            let t = Instant::now();
            let landmarks = LandmarkOracle::build(oracle, &s.prepared.landmarks, args.threads);
            layers.set("topology.landmarks_s", secs(t));
            std::hint::black_box(landmarks);
        }
    }
    drop(tree);
    drop(s);

    let mut setup_s = vec![setup_first];
    for _ in 1..args.setup_reps {
        setup_s.push(setup(args.workload, args.seed, args.threads).setup_s());
    }
    Outcome {
        setup_s,
        balance_s,
        peak_rss_mb: peak,
        det,
        checks,
        attempted,
        failed,
        layers,
    }
}

/// Fifty epochs of the continuous-operation engine (`engine-4k`).
fn run_engine_workload(args: &Args) -> Outcome {
    let mut s = setup(args.workload, args.seed, args.threads);
    let setup_first = s.setup_s();
    let mut layers = Layers::default();
    let epsilon = s.prepared.scenario.balancer.epsilon;
    let heavy_before = heavy_count(&s.prepared.net, &s.prepared.loads, epsilon);
    let oracle_before = s.prepared.oracle.as_ref().map(|o| o.cache_stats());
    let cfg = EngineConfig {
        epochs: 50,
        ..EngineConfig::default()
    };
    let mut trace = Trace::new(args.traced, "engine");
    let t = Instant::now();
    let result = if args.traced {
        proxbal_sim::run_engine_traced(&mut s.prepared, &cfg, &mut trace)
    } else {
        proxbal_sim::run_engine(&mut s.prepared, &cfg)
    };
    let balance_s = secs(t);
    let oracle_after = s.prepared.oracle.as_ref().map(|o| o.cache_stats());

    let mut checks = Checks::default();
    let report: EngineReport = match result {
        Ok(report) => report,
        Err(e) => {
            checks.add("engine_ok", false, format!("{e:?}"));
            return Outcome {
                setup_s: vec![setup_first],
                balance_s,
                peak_rss_mb: peak_rss_mb(),
                det: Map::new(),
                checks,
                attempted: 1,
                failed: 1,
                layers,
            };
        }
    };
    check_hosts(&s.prepared.net, &mut checks);
    let heavy_final = report.final_heavy();
    checks.add(
        "heavy_not_worse",
        heavy_final <= heavy_before,
        format!("heavy {heavy_before} -> {heavy_final} at the final epoch"),
    );
    let peak = peak_rss_mb();

    let sum =
        |f: fn(&proxbal_sim::EpochSample) -> usize| report.samples.iter().map(f).sum::<usize>();
    let des_messages = sum(|e| e.des_messages);
    let mut det = Map::new();
    for (k, v) in [
        ("heavy_before", json!(heavy_before)),
        ("heavy_after", json!(heavy_final)),
        ("messages", json!(report.total_messages)),
        ("transfers", json!(report.total_transfers)),
        ("moved_load", json!(report.total_moved)),
        ("balances", json!(report.balances)),
        ("emergencies", json!(report.emergencies)),
        ("joins", json!(report.joins)),
        ("crashes", json!(report.crashes)),
        ("des_messages", json!(des_messages)),
        ("des_retries", json!(sum(|e| e.des_retries))),
    ] {
        det.insert(k.to_string(), v);
    }
    // Untraced, the engine run is the one operation. Traced, the DES
    // messages are, and the give-up count (which exists only in the trace's
    // counters) are the failures.
    let (mut attempted, mut failed) = (1, 0);
    if args.traced {
        let gave_up = trace.counter("des_gave_up");
        det.insert("des_gave_up".into(), json!(gave_up));
        det.insert("lbi_messages".into(), json!(trace.counter("lbi_messages")));
        det.insert(
            "vsa_record_hops".into(),
            json!(trace.counter("vsa_record_hops")),
        );
        // Each `phase/vsa` span lasts one virtual-time unit per VSA round.
        let vsa_rounds: u64 = trace
            .tracks()
            .flat_map(|(_, events)| events)
            .filter(|e| e.name == "phase/vsa")
            .map(|e| e.dur)
            .sum();
        det.insert("vsa_rounds".into(), json!(vsa_rounds));
        attempted = (des_messages as u64).max(1);
        failed = gave_up;

        let phases = record_phases(&mut layers);
        layers.set("sim.prepare_s", s.prepare_s);
        layers.set("sim.engine.rounds_s", phases);
        layers.set("sim.engine.outside_rounds_s", balance_s - phases);
        if let (Some(a), Some(b)) = (oracle_before, oracle_after) {
            let d = b.since(&a);
            layers.set("topology.oracle_rows", d.computes as f64);
            layers.set("topology.oracle_hits", d.hits as f64);
            layers.set("topology.oracle_evictions", d.evictions as f64);
        }
        // Extra public calls on a fresh copy of the initial state, after
        // the engine so they cannot warm its caches.
        let fresh = setup(args.workload, args.seed, args.threads);
        let net = &fresh.prepared.net;
        let t = Instant::now();
        let mut tree = KTree::build(net, fresh.prepared.scenario.balancer.k);
        layers.set("ktree.build_s", secs(t));
        layers.set("ktree.nodes", tree.len() as f64);
        record_tree_upkeep(net, &mut tree, &mut layers);
        time_topology(TransitStubConfig::ts5k_large(), args.seed, &mut layers);
        if let (Some(oracle), Some(faults)) = (
            fresh.prepared.oracle.as_ref(),
            fresh.prepared.scenario.faults,
        ) {
            let mut contributors: Vec<KtNodeId> = net
                .ring()
                .iter()
                .map(|(_, vs)| tree.report_target(net, vs))
                .collect();
            contributors.sort_unstable();
            contributors.dedup();
            let mut plan = FaultPlan::new(faults);
            let mut scratch = ProtocolScratch::new();
            let retry = RetryPolicy::protocol_default();
            let t = Instant::now();
            let agg = simulate_aggregation_faulty(
                net,
                &tree,
                oracle,
                &contributors,
                &mut plan,
                retry,
                &[],
                &mut scratch,
            );
            let dis = simulate_dissemination_faulty(
                net,
                &tree,
                oracle,
                &mut plan,
                retry,
                &[],
                &mut scratch,
            );
            layers.set("sim.faults.des_call_s", secs(t));
            checks.add(
                "des_call_ok",
                agg.is_ok() && dis.is_ok(),
                "one faulty aggregation + dissemination on the initial tree".into(),
            );
        }
    }

    let mut setup_s = vec![setup_first];
    for _ in 1..args.setup_reps {
        setup_s.push(setup(args.workload, args.seed, args.threads).setup_s());
    }
    Outcome {
        setup_s,
        balance_s,
        peak_rss_mb: peak,
        det,
        checks,
        attempted,
        failed,
        layers,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-worker: {e}");
            std::process::exit(2);
        }
    };
    if args.traced {
        proxbal_profile::enable_counting();
        proxbal_profile::enable_profiler();
    }
    let out = match args.workload {
        Workload::Engine4k => run_engine_workload(&args),
        _ => run_pass(&args),
    };
    let line = json!({
        "setup_s": out.setup_s,
        "balance_s": out.balance_s,
        "peak_rss_mb": out.peak_rss_mb,
        "det": Value::Object(out.det),
        "checks": Value::Array(out.checks.results),
        "attempted": out.attempted,
        "failed": out.failed,
        "layers": Value::Object(out.layers.0),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("plain JSON values serialize")
    );
}
