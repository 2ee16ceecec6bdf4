//! One driver per paper figure/claim. The `repro` binary and the Criterion
//! benches call these; integration tests run them at reduced scale.

use crate::metrics::DistanceHistogram;
use crate::scenario::{Prepared, Scenario};
use proxbal_core::{
    BalanceReport, BalancerConfig, ClassifyParams, DirtySet, LoadBalancer, NodeClass,
    ProximityMode, RoundCache,
};
use proxbal_ktree::KTree;
use proxbal_profile::progress;
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};

/// Figure 4: scatter of unit load (load / capacity) per node before and
/// after load balancing (Gaussian workload in the paper).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4Output {
    /// Unit load of every alive peer before balancing (scatter (a)).
    pub before: Vec<f64>,
    /// Unit load of every alive peer after balancing (scatter (b)).
    pub after: Vec<f64>,
    /// The balance run's report.
    pub report: BalanceReport,
}

/// Runs the Figure-4 experiment on a prepared scenario, recording the
/// balancer's phase spans and counters into `trace`.
pub fn fig4_unit_load(prepared: &mut Prepared, trace: &mut Trace) -> Fig4Output {
    let peers = prepared.net.alive_peers();
    let before: Vec<f64> = peers
        .iter()
        .map(|&p| prepared.loads.unit_load(&prepared.net, p))
        .collect();

    let mut rng = prepared.derived_rng(4);
    let report = run_in_place(prepared, &mut rng, trace);

    let after: Vec<f64> = peers
        .iter()
        .map(|&p| prepared.loads.unit_load(&prepared.net, p))
        .collect();
    Fig4Output {
        before,
        after,
        report,
    }
}

/// One balancing run of the scenario's configuration over `prepared`'s own
/// overlay and loads. The underlay view borrows `prepared`, so the two move
/// out for the run and come back after it.
fn run_in_place(
    prepared: &mut Prepared,
    rng: &mut rand::rngs::StdRng,
    trace: &mut Trace,
) -> BalanceReport {
    let mut net = std::mem::take(&mut prepared.net);
    let mut loads = std::mem::take(&mut prepared.loads);
    let report = LoadBalancer::new(prepared.scenario.balancer)
        .run(&mut net, &mut loads, prepared.underlay(), rng, trace)
        .expect("attached network");
    prepared.net = net;
    prepared.loads = loads;
    report
}

/// Figures 5 and 6: node loads grouped by capacity class, before and after
/// balancing (Gaussian for Fig. 5, Pareto for Fig. 6).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClassLoadsOutput {
    /// The capacity value of each class.
    pub class_capacity: Vec<f64>,
    /// Node loads per class before balancing.
    pub before: Vec<Vec<f64>>,
    /// Node loads per class after balancing.
    pub after: Vec<Vec<f64>>,
    /// The balance run's report.
    pub report: BalanceReport,
}

/// Runs the Figure-5/6 experiment (the workload in `prepared` selects
/// which figure), recording the balancer's phase spans and counters into
/// `trace`.
pub fn fig56_class_loads(prepared: &mut Prepared, trace: &mut Trace) -> ClassLoadsOutput {
    let classes = prepared.scenario.capacity.class_count();
    let class_capacity: Vec<f64> = (0..classes)
        .map(|c| {
            prepared
                .scenario
                .capacity
                .capacity_of(proxbal_workload::CapacityClass(c))
        })
        .collect();

    let collect = |prepared: &Prepared| -> Vec<Vec<f64>> {
        let mut per_class = vec![Vec::new(); classes];
        for p in prepared.net.alive_peers() {
            let c = prepared.loads.class(p).expect("class recorded").0;
            per_class[c].push(prepared.loads.node_load(&prepared.net, p));
        }
        per_class
    };

    let before = collect(prepared);
    let mut rng = prepared.derived_rng(56);
    let report = run_in_place(prepared, &mut rng, trace);
    let after = collect(prepared);

    ClassLoadsOutput {
        class_capacity,
        before,
        after,
        report,
    }
}

/// Figures 7 and 8: moved-load-vs-distance comparison between the
/// proximity-aware and proximity-ignorant schemes on the same initial
/// state (the topology in the scenario selects ts5k-large vs ts5k-small).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MovedLoadOutput {
    /// Distance histogram of the proximity-aware run.
    pub aware: DistanceHistogram,
    /// Distance histogram of the proximity-ignorant run.
    pub ignorant: DistanceHistogram,
    /// Report of the aware run.
    pub aware_report: BalanceReport,
    /// Report of the ignorant run.
    pub ignorant_report: BalanceReport,
}

/// Runs both modes from identical initial conditions and returns the two
/// distance histograms, recording each mode's run on its own child track
/// (`aware` / `ignorant`) of `trace`.
pub fn fig78_moved_load(prepared: &Prepared, trace: &mut Trace) -> MovedLoadOutput {
    let underlay = prepared.underlay().expect("figure 7/8 requires a topology");

    let run = |mode: ProximityMode, label: u64, name: &str, trace: &mut Trace| {
        let mut child = Trace::new(trace.is_enabled(), name);
        let mut net = prepared.net.clone();
        let mut loads = prepared.loads.clone();
        let cfg = BalancerConfig {
            mode,
            ..prepared.scenario.balancer
        };
        let balancer = LoadBalancer::new(cfg);
        let mut rng = prepared.derived_rng(label);
        let report = balancer
            .run(&mut net, &mut loads, Some(underlay), &mut rng, &mut child)
            .expect("attached network");
        trace.absorb(child);
        let mut hist = DistanceHistogram::new();
        for t in &report.transfers {
            hist.add(t.distance.expect("underlay present"), t.assignment.load);
        }
        (hist, report)
    };

    let (aware, aware_report) = run(
        ProximityMode::Aware(proxbal_core::ProximityParams::default()),
        78,
        "aware",
        trace,
    );
    let (ignorant, ignorant_report) = run(ProximityMode::Ignorant, 79, "ignorant", trace);

    MovedLoadOutput {
        aware,
        ignorant,
        aware_report,
        ignorant_report,
    }
}

/// One row of the VSA-round-scaling experiment (the `O(log_K N)` claim).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RoundsRow {
    /// Number of peers.
    pub peers: usize,
    /// Virtual servers in the system.
    pub virtual_servers: usize,
    /// Tree degree.
    pub k: usize,
    /// LBI aggregation message rounds.
    pub lbi_rounds: u32,
    /// Dissemination message rounds.
    pub dissemination_rounds: u32,
    /// VSA sweep message rounds.
    pub vsa_rounds: u32,
    /// `log_K(virtual servers)` for reference.
    pub log_k_m: f64,
}

/// Measures protocol rounds across overlay sizes and tree degrees.
///
/// Every `(peers, k)` grid cell is an independent scenario whose seed and
/// RNG streams derive from the cell alone, so the sweep runs through the
/// parallel engine and the rows come back in grid order regardless of
/// `threads`. Each grid cell's balancer run lands on its own child track
/// (`n{peers}_k{k}`) of `trace`, absorbed in grid order.
pub fn rounds_scaling(
    sizes: &[usize],
    ks: &[usize],
    seed: u64,
    threads: usize,
    trace: &mut Trace,
) -> Vec<RoundsRow> {
    let cells: Vec<(usize, usize)> = sizes
        .iter()
        .flat_map(|&peers| ks.iter().map(move |&k| (peers, k)))
        .collect();
    proxbal_parallel::map_items_traced(&cells, threads, trace, |_, &(peers, k), trace| {
        trace.relabel(&format!("n{peers}_k{k}"));
        let mut scenario = Scenario::builder()
            .small()
            .seed(seed ^ (peers as u64) ^ ((k as u64) << 32))
            .build();
        scenario.peers = peers;
        scenario.topology = crate::TopologyKind::None;
        scenario.balancer = BalancerConfig {
            k,
            ..BalancerConfig::default()
        };
        let mut prepared = scenario.prepare();
        let balancer = LoadBalancer::new(prepared.scenario.balancer);
        let mut rng = prepared.derived_rng(1000 + k as u64);
        let report = balancer
            .run(
                &mut prepared.net,
                &mut prepared.loads,
                None,
                &mut rng,
                trace,
            )
            .expect("attached network");
        let m = prepared.net.alive_vs_count();
        RoundsRow {
            peers,
            virtual_servers: m,
            k,
            lbi_rounds: report.lbi_rounds,
            dissemination_rounds: report.dissemination_rounds,
            vsa_rounds: report.vsa.rounds,
            log_k_m: (m as f64).ln() / (k as f64).ln(),
        }
    })
}

/// One row of the tree self-repair experiment (§3.1.1).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RepairRow {
    /// Peers before the crash wave.
    pub peers: usize,
    /// Fraction of peers crashed simultaneously.
    pub crash_fraction: f64,
    /// Maintenance rounds until the tree was stable after the crash wave.
    /// Crash repair is re-planting + pruning, which one periodic check per
    /// node completes — the expensive direction is growth.
    pub crash_repair_rounds: usize,
    /// Maintenance rounds until stability after the crashed capacity
    /// re-joined (tree growth proceeds one level per round — this is the
    /// `O(log_K N)` direction).
    pub join_repair_rounds: usize,
    /// Tree height after full repair (structural bound on growth rounds).
    pub height_after: u32,
}

/// Crashes a fraction of peers at once, repairs, re-joins the same number
/// of peers, and repairs again, measuring maintenance rounds for both
/// waves. Both waves land on `trace` as `kt/maintain` spans (crash repair
/// first, regrowth second, laid end to end on the round timeline) plus
/// `crashed_peers` / `rejoined_peers` counters.
pub fn repair_after_crash(
    peers: usize,
    crash_fraction: f64,
    k: usize,
    seed: u64,
    trace: &mut Trace,
) -> RepairRow {
    let mut scenario = Scenario::builder().small().seed(seed).build();
    scenario.peers = peers;
    scenario.topology = crate::TopologyKind::None;
    let mut prepared = scenario.prepare();
    let mut tree = KTree::build(&prepared.net, k);

    let victims: Vec<_> = prepared.net.alive_peers();
    let n_crash = ((victims.len() as f64) * crash_fraction) as usize;
    for p in victims.into_iter().take(n_crash) {
        prepared.net.crash_peer(p);
    }
    trace.count("crashed_peers", n_crash as u64);
    let crash_repair_rounds = tree.maintain_until_stable_traced(&prepared.net, 256, 0, trace);
    tree.check_invariants(&prepared.net).expect("repaired tree");

    let mut rng = prepared.derived_rng(0xCAFE);
    for _ in 0..n_crash {
        prepared
            .net
            .join_peer(prepared.scenario.vs_per_peer, &mut rng);
    }
    trace.count("rejoined_peers", n_crash as u64);
    let join_repair_rounds =
        tree.maintain_until_stable_traced(&prepared.net, 256, crash_repair_rounds as u64, trace);
    tree.check_invariants(&prepared.net).expect("regrown tree");

    RepairRow {
        peers,
        crash_fraction,
        crash_repair_rounds,
        join_repair_rounds,
        height_after: tree.height(),
    }
}

/// Result of comparing balance quality across schemes on one scenario.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchemeComparison {
    /// Gini of unit loads before balancing.
    pub gini_before: f64,
    /// Gini after our scheme.
    pub gini_tree: f64,
    /// Heavy nodes before / after our scheme.
    pub heavy_before: usize,
    /// Heavy nodes remaining after our scheme.
    pub heavy_after: usize,
    /// Thrash events of the CFS baseline on the same initial state.
    pub cfs_thrash_events: usize,
    /// Whether CFS converged.
    pub cfs_converged: bool,
}

/// Runs our scheme and the CFS baseline from identical initial conditions.
pub fn scheme_comparison(prepared: &Prepared) -> SchemeComparison {
    use crate::metrics::gini;
    let unit_loads = |net: &proxbal_chord::ChordNetwork, loads: &proxbal_core::LoadState| {
        net.alive_peers()
            .iter()
            .map(|&p| loads.unit_load(net, p))
            .collect::<Vec<_>>()
    };
    let gini_before = gini(&unit_loads(&prepared.net, &prepared.loads));

    // Our scheme.
    let mut net = prepared.net.clone();
    let mut loads = prepared.loads.clone();
    let balancer = LoadBalancer::new(prepared.scenario.balancer);
    let mut rng = prepared.derived_rng(91);
    let report = balancer
        .run(&mut net, &mut loads, None, &mut rng, &mut Trace::disabled())
        .expect("attached network");
    let gini_tree = gini(&unit_loads(&net, &loads));

    // CFS baseline.
    let mut net2 = prepared.net.clone();
    let mut loads2 = prepared.loads.clone();
    let params = ClassifyParams {
        epsilon: prepared.scenario.balancer.epsilon,
    };
    let cfs = proxbal_core::baselines::cfs_shed(&mut net2, &mut loads2, &params, 20);

    SchemeComparison {
        gini_before,
        gini_tree,
        heavy_before: report.before.get(&NodeClass::Heavy).copied().unwrap_or(0),
        heavy_after: report.heavy_after(),
        cfs_thrash_events: cfs.thrash_events,
        cfs_converged: cfs.converged,
    }
}

/// Pooled result of running the Figure-7/8 experiment over several
/// independently generated topology graphs (the paper: "Both topologies
/// have 10 graphs each and we ran all these graphs in our simulation").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicatedMovedLoad {
    /// Pooled aware histogram across all graphs.
    pub aware: DistanceHistogram,
    /// Pooled ignorant histogram across all graphs.
    pub ignorant: DistanceHistogram,
    /// Per-graph `(aware ≤2, aware ≤10, ignorant ≤10)` fractions, for
    /// variance inspection.
    pub per_graph: Vec<(f64, f64, f64)>,
    /// Heavy nodes remaining after any run (should stay 0).
    pub max_heavy_after: usize,
}

/// Runs [`fig78_moved_load`] on `graphs` independently seeded scenarios in
/// parallel and pools the histograms. Each graph's aware/ignorant runs land
/// under a `graph{i}` child track of `trace`, absorbed in graph-index
/// order (so the merged event stream is bit-identical at any thread
/// count).
pub fn fig78_replicated(
    base: &Scenario,
    graphs: usize,
    threads: usize,
    trace: &mut Trace,
) -> ReplicatedMovedLoad {
    // Each graph's seed derives from its index, so the sweep engine's
    // determinism contract holds and the pooled result is independent of
    // `threads`.
    let outputs: Vec<MovedLoadOutput> =
        proxbal_parallel::map_indexed_traced(graphs, threads, trace, |i, trace| {
            trace.relabel(&format!("graph{i}"));
            let mut scenario = base.clone();
            scenario.seed = base.seed.wrapping_add(i as u64);
            let prepared = scenario.prepare();
            fig78_moved_load(&prepared, trace)
        });

    let mut pooled = ReplicatedMovedLoad {
        aware: DistanceHistogram::new(),
        ignorant: DistanceHistogram::new(),
        per_graph: Vec::with_capacity(graphs),
        max_heavy_after: 0,
    };
    for out in &outputs {
        pooled.aware.merge(&out.aware);
        pooled.ignorant.merge(&out.ignorant);
        pooled.per_graph.push((
            out.aware.fraction_within(2),
            out.aware.fraction_within(10),
            out.ignorant.fraction_within(10),
        ));
        pooled.max_heavy_after = pooled
            .max_heavy_after
            .max(out.aware_report.heavy_after())
            .max(out.ignorant_report.heavy_after());
    }
    pooled
}

/// One configuration of the design-choice ablation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationRow {
    /// Human-readable variant label.
    pub label: String,
    /// Heavy nodes remaining.
    pub heavy_after: usize,
    /// Total load moved.
    pub moved_load: f64,
    /// Fraction of moved load within 2 hops.
    pub frac2: f64,
    /// Fraction of moved load within 10 hops.
    pub frac10: f64,
    /// Load-weighted mean transfer distance.
    pub mean_distance: f64,
}

/// Sweeps the design choices DESIGN.md calls out — ε, rendezvous threshold,
/// Hilbert-vs-Morton curve, key dimensionality and tree degree — and
/// reports the *outcomes* (Criterion's `ablations` bench reports the
/// costs).
///
/// Each variant clones the prepared initial state and derives its RNG from
/// the scenario seed alone, so the variants run through the parallel
/// engine and the rows come back in declaration order regardless of
/// `threads`. Each variant's balancer run lands on its own child track
/// (the variant label) of `trace`, absorbed in declaration order.
pub fn ablation_sweep(prepared: &Prepared, threads: usize, trace: &mut Trace) -> Vec<AblationRow> {
    use proxbal_core::ProximityParams;
    use proxbal_hilbert::CurveKind;

    let underlay = prepared.underlay().expect("ablation needs a topology");

    let base = BalancerConfig {
        mode: ProximityMode::Aware(ProximityParams::default()),
        ..prepared.scenario.balancer
    };
    let aware = |prox: ProximityParams| BalancerConfig {
        mode: ProximityMode::Aware(prox),
        ..base
    };

    let mut variants: Vec<(String, BalancerConfig)> =
        vec![("default (aware, eps=0.05, thr=30, K=2)".into(), base)];
    for eps in [0.0, 0.2, 0.5] {
        variants.push((
            format!("epsilon={eps}"),
            BalancerConfig {
                epsilon: eps,
                ..base
            },
        ));
    }
    for thr in [2usize, 100] {
        variants.push((
            format!("threshold={thr}"),
            BalancerConfig {
                rendezvous_threshold: thr,
                ..base
            },
        ));
    }
    for k in [4usize, 8] {
        variants.push((format!("K={k}"), BalancerConfig { k, ..base }));
    }
    variants.push((
        "curve=Morton".into(),
        aware(ProximityParams {
            curve: CurveKind::Morton,
            ..ProximityParams::default()
        }),
    ));
    for kd in [1usize, 5, 15] {
        variants.push((
            format!("key_dims={kd}"),
            aware(ProximityParams {
                key_dims: Some(kd),
                ..ProximityParams::default()
            }),
        ));
    }
    variants.push((
        "no per-dim scaling".into(),
        aware(ProximityParams {
            per_dim_scaling: false,
            ..ProximityParams::default()
        }),
    ));
    variants.push((
        "proximity-ignorant".into(),
        BalancerConfig {
            mode: ProximityMode::Ignorant,
            ..base
        },
    ));

    proxbal_parallel::map_items_traced(&variants, threads, trace, |_, (label, cfg), trace| {
        trace.relabel(label);
        let mut net = prepared.net.clone();
        let mut loads = prepared.loads.clone();
        let mut rng = prepared.derived_rng(0xAB1A);
        let report = LoadBalancer::new(*cfg)
            .run(&mut net, &mut loads, Some(underlay), &mut rng, trace)
            .expect("attached network");
        let mut hist = DistanceHistogram::new();
        for t in &report.transfers {
            hist.add(t.distance.expect("underlay present"), t.assignment.load);
        }
        AblationRow {
            label: label.clone(),
            heavy_after: report.heavy_after(),
            moved_load: proxbal_core::total_moved_load(&report.transfers),
            frac2: hist.fraction_within(2),
            frac10: hist.fraction_within(10),
            mean_distance: hist.mean_distance(),
        }
    })
}

/// One row of the protocol-latency experiment: simulated wall-clock time
/// (latency units; interdomain hop = 3, intradomain = 1) for the LBI
/// aggregation and dissemination phases, message by message.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Number of peers.
    pub peers: usize,
    /// Tree degree.
    pub k: usize,
    /// Message-loss probability.
    pub loss: f64,
    /// Aggregation completion time.
    pub aggregation: u64,
    /// Dissemination completion time.
    pub dissemination: u64,
    /// Total messages (both phases, including retransmissions).
    pub messages: usize,
}

/// Simulates the tree phases at the message level across sizes/degrees and
/// loss rates (the wall-clock behind "fast load balancing"), through the
/// fault DES: per rate, a [`FaultConfig`](crate::faults::FaultConfig) with
/// that message loss and nothing else (no delays, crashes or stale links)
/// and
/// [`RetryPolicy::protocol_default`](crate::des::RetryPolicy::protocol_default).
/// Each `(peers, k)` cell is recorded on its own child track
/// (`n{peers}_k{k}`) of `trace`: one `des/aggregation` +
/// `des/dissemination` span pair per loss rate, laid end to end on the
/// cell's simulated timeline, plus the DES counters and histograms.
pub fn protocol_latency(
    sizes: &[usize],
    ks: &[usize],
    losses: &[f64],
    seed: u64,
    threads: usize,
    trace: &mut Trace,
) -> Vec<LatencyRow> {
    use crate::des::RetryPolicy;
    use crate::faults::{
        simulate_aggregation_faulty_traced, simulate_dissemination_faulty_traced, FaultConfig,
        FaultPlan,
    };
    use crate::protocol::ProtocolScratch;
    let retry = RetryPolicy::protocol_default();
    let mut rows = Vec::new();
    for &peers in sizes {
        let mut scenario = Scenario::builder().seed(seed ^ peers as u64).build();
        scenario.peers = peers;
        scenario.topology = crate::TopologyKind::Ts5kLarge;
        let prepared = scenario.prepare();
        let oracle = prepared.oracle.as_ref().expect("topology present");
        // Each k builds its own tree and derives its own plan seed, so the
        // k-cells run through the parallel engine; the loss loop stays
        // sequential inside each cell to reuse the tree — and one scratch
        // per cell, so the oracle is asked for each tree edge only once.
        let per_k = proxbal_parallel::map_items_traced(ks, threads, trace, |_, &k, trace| {
            trace.relabel(&format!("n{peers}_k{k}"));
            let tree = KTree::build(&prepared.net, k);
            let mut contributors: Vec<_> = prepared
                .net
                .ring()
                .iter()
                .map(|(_, vs)| tree.report_target(&prepared.net, vs))
                .collect();
            contributors.sort_unstable();
            contributors.dedup();
            let mut scratch = ProtocolScratch::new();
            let mut cell = Vec::with_capacity(losses.len());
            // Simulated clock of this cell's track: the per-loss phase
            // pairs are laid end to end so the spans never overlap.
            let mut clock: u64 = 0;
            // Every rate replays the same fate stream of this cell.
            let plan_seed = prepared.scenario.seed ^ 0x1A7 ^ ((k as u64) << 8);
            for &loss in losses {
                let mut plan = FaultPlan::new(FaultConfig {
                    loss_rate: loss,
                    ..FaultConfig::none(plan_seed)
                });
                let agg = simulate_aggregation_faulty_traced(
                    &prepared.net,
                    &tree,
                    oracle,
                    &contributors,
                    &mut plan,
                    retry,
                    &[],
                    &mut scratch,
                    trace,
                )
                .expect("scenario peers are attached")
                .timing;
                trace.span_args(
                    "des/aggregation",
                    clock,
                    agg.completion,
                    &[
                        ("loss", loss.into()),
                        ("messages", (agg.messages as u64).into()),
                    ],
                );
                clock += agg.completion;
                let dis = simulate_dissemination_faulty_traced(
                    &prepared.net,
                    &tree,
                    oracle,
                    &mut plan,
                    retry,
                    &[],
                    &mut scratch,
                    trace,
                )
                .expect("scenario peers are attached")
                .timing;
                trace.span_args(
                    "des/dissemination",
                    clock,
                    dis.completion,
                    &[
                        ("loss", loss.into()),
                        ("messages", (dis.messages as u64).into()),
                    ],
                );
                clock += dis.completion;
                cell.push(LatencyRow {
                    peers,
                    k,
                    loss,
                    aggregation: agg.completion,
                    dissemination: dis.completion,
                    messages: agg.messages + dis.messages,
                });
            }
            cell
        });
        rows.extend(per_k.into_iter().flatten());
    }
    rows
}

/// Compact per-run summary of one xl2 balancing pass. The full
/// [`BalanceReport`] carries every transfer record — hundreds of thousands
/// of entries at 1M peers — so the xl2 harness keeps the figure-shaped
/// aggregates and drops the raw records.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct XlRunSummary {
    /// `"aware"` or `"ignorant"`.
    pub label: String,
    /// Heavy peers before the run.
    pub heavy_before: usize,
    /// Heavy peers after the run.
    pub heavy_after: usize,
    /// Executed transfers.
    pub transfers: usize,
    /// Total load moved.
    pub moved_load: f64,
    /// Fraction of moved load within 2 hops.
    pub frac2: f64,
    /// Fraction of moved load within 10 hops.
    pub frac10: f64,
    /// Load-weighted mean transfer distance.
    pub mean_distance: f64,
    /// LBI aggregation message rounds.
    pub lbi_rounds: u32,
    /// VSA sweep message rounds.
    pub vsa_rounds: u32,
    /// Upward LBI messages.
    pub lbi_messages: usize,
    /// VSA record·hop units.
    pub vsa_record_hops: usize,
    /// Wall-clock seconds for this run (clone + four phases). Per-phase
    /// walls live in the profiler's `round/*` rows.
    pub wall_s: f64,
    /// Moved-load-vs-distance histogram (the Figure-7 curve).
    pub histogram: DistanceHistogram,
}

impl XlRunSummary {
    /// Condenses one pass's report; `wall_s` is the caller's measurement.
    fn of(label: &str, report: &BalanceReport, wall_s: f64) -> Self {
        let mut histogram = DistanceHistogram::new();
        for tr in &report.transfers {
            histogram.add(tr.distance.expect("underlay present"), tr.assignment.load);
        }
        XlRunSummary {
            label: label.to_string(),
            heavy_before: report.before.get(&NodeClass::Heavy).copied().unwrap_or(0),
            heavy_after: report.heavy_after(),
            transfers: report.transfers.len(),
            moved_load: proxbal_core::total_moved_load(&report.transfers),
            frac2: histogram.fraction_within(2),
            frac10: histogram.fraction_within(10),
            mean_distance: histogram.mean_distance(),
            lbi_rounds: report.lbi_rounds,
            vsa_rounds: report.vsa.rounds,
            lbi_messages: report.messages.lbi_messages,
            vsa_record_hops: report.messages.vsa_record_hops,
            wall_s,
            histogram,
        }
    }
}

/// KT-tree split depth for the sharded xl2 build: the top 8 levels (≤ 256
/// frontier regions at K = 2) grow serially, everything below in parallel
/// fragments.
pub const XL2_SPLIT_DEPTH: u32 = 8;

/// Result of the xl2 (million-peer) pass.
///
/// This carries a single (proximity-aware) run: at 1M peers × 5 virtual
/// servers, cloning the overlay and load state for a second
/// from-identical-state run would double the peak footprint, and the aware
/// run is the one whose transfer distances the scale stresses.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Xl2ScaleOutput {
    /// Peers in the overlay.
    pub peers: usize,
    /// Nodes in the ts50k underlay graph.
    pub underlay_nodes: usize,
    /// Virtual servers on the ring.
    pub virtual_servers: usize,
    /// Oracle row-cache bound used (rows).
    pub oracle_capacity: usize,
    /// Preparation shards.
    pub shards: usize,
    /// Wall-clock seconds for sharded preparation (topology, overlay,
    /// oracles).
    pub prepare_wall_s: f64,
    /// Wall-clock seconds for the sharded KT-tree build.
    pub tree_wall_s: f64,
    /// Proximity-aware four-phase run with exact transfer distances.
    pub aware: XlRunSummary,
}

/// The xl2 pass over an explicit scenario — the
/// [`ScenarioBuilder::xl2`](crate::ScenarioBuilder::xl2) preset at full
/// scale (1,048,576 peers, sharded preparation, exact transfer distances),
/// or a reduced-peers variant for smoke and determinism runs — through one
/// proximity-aware four-phase run, executed **in place** (no overlay/load
/// clone) so the peak footprint stays within a few GiB. The run lands
/// on an `aware` child track of `trace`.
///
/// Everything except the `*_wall_s` fields is a pure function of
/// `scenario`: sharded preparation, the sharded tree build and the
/// intra-round parallel sections of the balancing pass all chunk
/// deterministically and merge in index order, so the result is
/// independent of `threads`. Heartbeat lines after preparation, the tree
/// build and the run go to the global [`proxbal_profile::progress`] sink,
/// never to stdout.
pub fn xl2_scale(scenario: Scenario, threads: usize, trace: &mut Trace) -> Xl2ScaleOutput {
    let t0 = std::time::Instant::now();
    let mut prepared = scenario.prepare_threads(threads);
    let prepare_wall_s = t0.elapsed().as_secs_f64();
    progress::always(&format!(
        "xl2: prepared {} peers ({} virtual servers) in {prepare_wall_s:.1}s",
        prepared.net.alive_peers().len(),
        prepared.net.ring().len()
    ));

    let t1 = std::time::Instant::now();
    let mut tree = crate::shard::build_tree_sharded(
        &prepared.net,
        prepared.scenario.balancer.k,
        XL2_SPLIT_DEPTH,
        threads,
    );
    let tree_wall_s = t1.elapsed().as_secs_f64();
    progress::always(&format!(
        "xl2: KT tree built ({} nodes) in {tree_wall_s:.1}s",
        tree.len()
    ));

    let t = std::time::Instant::now();
    let mut child = Trace::new(trace.is_enabled(), "aware");
    let cfg = BalancerConfig {
        mode: ProximityMode::Aware(proxbal_core::ProximityParams::default()),
        ..prepared.scenario.balancer
    };
    // Label 78 = aware, matching the Figure-7 RNG stream naming.
    let mut rng = prepared.derived_rng(78);
    // In place, no clone: the overlay and loads move out of `prepared` for
    // the run because the underlay view borrows it.
    let mut net = std::mem::take(&mut prepared.net);
    let mut loads = std::mem::take(&mut prepared.loads);
    let report = LoadBalancer::new(cfg)
        .with_threads(threads)
        .run_round(
            &mut net,
            &mut loads,
            &mut tree,
            Some(prepared.underlay().expect("xl2 runs over a topology")),
            &mut RoundCache::new(),
            &DirtySet::All,
            &mut rng,
            &mut child,
        )
        .expect("attached network");
    prepared.net = net;
    prepared.loads = loads;
    trace.absorb(child);

    let aware = XlRunSummary::of("aware", &report, t.elapsed().as_secs_f64());
    progress::always(&format!(
        "xl2: aware run done in {:.1}s (heavy {} -> {}, {} transfers)",
        aware.wall_s, aware.heavy_before, aware.heavy_after, aware.transfers
    ));

    Xl2ScaleOutput {
        peers: prepared.net.alive_peers().len(),
        underlay_nodes: prepared
            .topo
            .as_ref()
            .map(|t| t.graph.node_count())
            .unwrap_or(0),
        virtual_servers: prepared.net.ring().len(),
        oracle_capacity: prepared.scenario.oracle_capacity,
        shards: prepared.scenario.shards,
        prepare_wall_s,
        tree_wall_s,
        aware,
    }
}

/// One cell of the fault-injection sweep ([`fault_sweep`]): the four-phase
/// protocol driven through a seeded [`crate::faults::FaultPlan`] at one
/// loss rate, with message drops/delays, a mid-round crash wave, stale KT
/// links, tree repair, and VST requeue all exercised.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// Message-loss probability of the plan (delays and crashes scale with
    /// it — see [`crate::faults::FaultConfig::with_loss`]).
    pub loss_rate: f64,
    /// Peers crash-stopped during the aggregation phase.
    pub crashed_peers: usize,
    /// KT links rewired to a stale parent before the run.
    pub stale_links: usize,
    /// Fraction of contributors whose LBI reached the root.
    pub aggregation_completion: f64,
    /// Fraction of (repaired-)tree nodes the dissemination reached.
    pub dissemination_completion: f64,
    /// Orphaned subtrees the repair re-attached.
    pub repair_reattached: usize,
    /// Orphaned KT nodes the repair had to discard.
    pub repair_pruned: usize,
    /// Maintenance rounds until the repaired tree stabilized — the
    /// convergence-rounds metric.
    pub convergence_rounds: usize,
    /// Protocol messages across both faulty phases (retransmissions
    /// included).
    pub messages: usize,
    /// Retransmission attempts.
    pub retries: usize,
    /// Edges abandoned after the retry budget.
    pub gave_up: usize,
    /// Heavy peers before VSA (post-crash classification).
    pub heavy_before: usize,
    /// Heavy peers after the transfers.
    pub heavy_after: usize,
    /// Residual imbalance: heavy peers after, as a fraction of alive peers.
    pub residual_heavy_fraction: f64,
    /// Transfers executed (first pass plus re-pairings).
    pub transfers: usize,
    /// Assignments requeued because their receiver died post-VSA.
    pub requeued: usize,
    /// Requeued assignments that found a surviving light slot.
    pub reassigned: usize,
    /// Requeued assignments left for the next balancing round.
    pub abandoned: usize,
}

/// Sweeps the four-phase protocol across fault rates: for each rate, a
/// seeded fault plan injects stale KT links, drops/delays messages, and
/// crash-stops peers mid-aggregation; the tree then repairs itself, the
/// classification/VSA phases run over the surviving membership, a second
/// crash wave hits the assignment receivers, and VST requeues the stranded
/// transfers at the root rendezvous. Each rate is an independent cell over
/// a clone of the same prepared scenario, so the sweep is bit-identical at
/// any thread count, and the whole row set is a pure function of
/// `(scenario.seed, rates)`.
///
/// Each rate's cell is recorded on its own child track (`loss{rate}`) of
/// `trace`: `des/aggregation` → `kt/repair` → `des/dissemination` →
/// `phase/vsa` spans laid end to end on the cell's simulated timeline, the
/// DES retry/backoff counters and histograms of the faulty sims, the
/// VSA/VST counters of the surviving-membership pass, and a closing
/// `rate_summary` instant carrying the row's headline numbers. A heartbeat
/// line per finished cell goes to the global [`proxbal_profile::progress`]
/// sink.
pub fn fault_sweep(
    scenario: &Scenario,
    rates: &[f64],
    threads: usize,
    trace: &mut Trace,
) -> Vec<FaultSweepRow> {
    use crate::des::RetryPolicy;
    use crate::faults::{simulate_aggregation_faulty_traced, simulate_dissemination_faulty_traced};
    use crate::faults::{FaultConfig, FaultPlan};
    use crate::protocol::ProtocolScratch;
    use proxbal_core::reports::{ignorant_inputs, light_slots, shed_candidates};
    use proxbal_core::{execute_transfers_with_requeue, run_vsa, Classification, VsaParams};
    use rand::SeedableRng;

    let prepared = scenario.prepare_threads(threads);
    let oracle = prepared
        .oracle
        .as_ref()
        .expect("fault sweep needs a topology");

    proxbal_parallel::map_items_traced(rates, threads, trace, |_, &rate, trace| {
        trace.relabel(&format!("loss{rate:.2}"));
        let mut net = prepared.net.clone();
        let mut loads = prepared.loads.clone();
        let k = scenario.balancer.k;
        let mut tree = KTree::build(&net, k);
        let cfg = FaultConfig::with_loss(rate, scenario.seed ^ rate.to_bits());
        let mut plan = FaultPlan::new(cfg);

        // Stale-parent injection: rewire deep links to dangle at the root.
        let stale = plan.pick_stale_links(&tree);
        for &child in &stale {
            tree.inject_stale_parent(child, tree.root());
        }
        trace.count("kt_stale_links", stale.len() as u64);

        // Crash schedule for the aggregation window (the KT root's host
        // survives — in a real deployment a dead root is re-elected by the
        // deterministic root location rule before any phase starts).
        let root_host = net.vs(tree.node(tree.root()).host).host;
        let crashes = plan.crash_schedule(&net, root_host, 300);
        trace.count("crashed_peers", crashes.len() as u64);

        // Phase 1 under faults, over the pre-crash membership snapshot.
        let mut contributors: Vec<_> = net
            .ring()
            .iter()
            .map(|(_, vs)| tree.report_target(&net, vs))
            .collect();
        contributors.sort_unstable();
        contributors.dedup();
        let mut scratch = ProtocolScratch::new();
        let agg = simulate_aggregation_faulty_traced(
            &net,
            &tree,
            oracle,
            &contributors,
            &mut plan,
            RetryPolicy::protocol_default(),
            &crashes,
            &mut scratch,
            trace,
        )
        .expect("scenario peers are attached");
        let mut clock = agg.timing.completion;
        trace.span_args(
            "des/aggregation",
            0,
            agg.timing.completion,
            &[
                ("delivered", (agg.delivered as u64).into()),
                ("expected", (agg.expected as u64).into()),
                ("retries", (agg.retries as u64).into()),
            ],
        );

        // The crash wave lands: dead peers leave the ring, the tree repairs
        // (orphan re-attach + soft-state maintenance).
        for &(_, p) in &crashes {
            net.crash_peer(p);
        }
        let repair = tree.repair_traced(&net, 256, clock, trace);
        clock += repair.rounds as u64;

        // Phase 2 under message faults over the repaired tree (the crashed
        // peers are gone from it, so no crash schedule here).
        let mut scratch2 = ProtocolScratch::new();
        let dis = simulate_dissemination_faulty_traced(
            &net,
            &tree,
            oracle,
            &mut plan,
            RetryPolicy::protocol_default(),
            &[],
            &mut scratch2,
            trace,
        )
        .expect("scenario peers are attached");
        trace.span_args(
            "des/dissemination",
            clock,
            dis.timing.completion,
            &[
                ("delivered", (dis.delivered as u64).into()),
                ("expected", (dis.expected as u64).into()),
                ("retries", (dis.retries as u64).into()),
            ],
        );
        clock += dis.timing.completion;

        // Phases 2b-3: classify the survivors and run the VSA sweep.
        let params = proxbal_core::ClassifyParams {
            epsilon: scenario.balancer.epsilon,
        };
        let system = loads.totals(&net);
        let classification = Classification::compute(&net, &loads, &params, system);
        let heavy_before = classification.count_of(NodeClass::Heavy);
        let shed = shed_candidates(&net, &loads, &params, &classification);
        let light = light_slots(&net, &loads, &params, &classification);
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0xD15);
        let inputs = ignorant_inputs(&net, &tree, &shed, &light, &mut rng);
        let vsa_params = VsaParams {
            rendezvous_threshold: scenario.balancer.rendezvous_threshold,
            l_min: system.min_vs_load,
        };
        let mut vsa = run_vsa(&tree, inputs, &vsa_params, trace);
        trace.span_args(
            "phase/vsa",
            clock,
            vsa.rounds as u64,
            &[("pairings", (vsa.assignments.len() as u64).into())],
        );

        // A second crash wave hits the assignment receivers between VSA and
        // VST, exercising the requeue path at the root rendezvous.
        let mut receivers: Vec<_> = vsa.assignments.iter().map(|a| a.to).collect();
        receivers.sort_unstable();
        receivers.dedup();
        let victims = plan.pick_transfer_victims(&receivers);
        for &p in &victims {
            net.crash_peer(p);
        }
        trace.count("crashed_peers", victims.len() as u64);
        let outcome = execute_transfers_with_requeue(
            &mut net,
            &mut loads,
            &vsa.assignments,
            None,
            &mut vsa.unassigned,
            system.min_vs_load,
            prepared.threads,
            trace,
        )
        .expect("no oracle in the requeue pass");

        let after = Classification::compute(&net, &loads, &params, system);
        let heavy_after = after.count_of(NodeClass::Heavy);
        let alive = net.alive_peers().len();

        let row = FaultSweepRow {
            loss_rate: rate,
            crashed_peers: crashes.len() + victims.len(),
            stale_links: stale.len(),
            aggregation_completion: agg.completion_rate(),
            dissemination_completion: dis.completion_rate(),
            repair_reattached: repair.reattached,
            repair_pruned: repair.pruned,
            convergence_rounds: repair.rounds,
            messages: agg.timing.messages + dis.timing.messages,
            retries: agg.retries + dis.retries,
            gave_up: agg.gave_up + dis.gave_up,
            heavy_before,
            heavy_after,
            residual_heavy_fraction: heavy_after as f64 / alive.max(1) as f64,
            transfers: outcome.transfers.len(),
            requeued: outcome.requeued,
            reassigned: outcome.reassigned,
            abandoned: outcome.abandoned,
        };
        trace.instant_args(
            "rate_summary",
            clock,
            &[
                ("loss_rate", rate.into()),
                ("retries", (row.retries as u64).into()),
                ("gave_up", (row.gave_up as u64).into()),
                ("requeued", (row.requeued as u64).into()),
                ("abandoned", (row.abandoned as u64).into()),
                ("heavy_after", (row.heavy_after as u64).into()),
            ],
        );
        progress::event(&format!(
            "faults: rate {rate:.2} done (agg {:.0}%, heavy {} -> {})",
            row.aggregation_completion * 100.0,
            row.heavy_before,
            row.heavy_after
        ));
        row
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::TopologyKind;

    fn sweep_scenario() -> Scenario {
        let mut s = Scenario::builder().small().seed(60).build();
        s.peers = 96;
        s.topology = TopologyKind::Tiny;
        s
    }

    #[test]
    fn fault_sweep_zero_rate_is_clean() {
        let rows = fault_sweep(&sweep_scenario(), &[0.0], 1, &mut Trace::disabled());
        let r = &rows[0];
        assert_eq!(r.crashed_peers, 0);
        assert_eq!(r.stale_links, 0);
        assert_eq!(r.aggregation_completion, 1.0);
        assert_eq!(r.dissemination_completion, 1.0);
        assert_eq!(r.repair_reattached, 0);
        assert_eq!(r.repair_pruned, 0);
        assert_eq!(r.retries, 0);
        assert_eq!(r.gave_up, 0);
        assert_eq!(r.requeued, 0);
    }

    #[test]
    fn fault_sweep_is_thread_count_invariant() {
        let s = sweep_scenario();
        let rates = [0.0, 0.08];
        let a = fault_sweep(&s, &rates, 1, &mut Trace::disabled());
        let b = fault_sweep(&s, &rates, 2, &mut Trace::disabled());
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb, "sweep must be bit-identical at any thread count");
        // And the faulty cell actually exercised the machinery.
        assert!(a[1].crashed_peers > 0 || a[1].retries > 0 || a[1].stale_links > 0);
    }
}
