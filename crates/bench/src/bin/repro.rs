//! Regenerates every figure and claim of the paper's evaluation (§5).
//!
//! The first argument names what to run; no argument at all runs `all`:
//!
//! ```text
//! repro figs [4 5 6 7 8]   # the figure grid (all five when none given)
//! repro claims [names...]  # the claim grid (all seven when none given)
//! repro faults [rate]      # fault-injection sweep at losses {0,1%,5%,rate}
//! repro xl2                # 1,048,576 peers: sharded prepare + exact distances
//! repro engine             # continuous operation: churn + drift + loss
//! repro all                # the full figure + claim grid
//! repro analyze <files>    # behavioral queries over a run's artifacts
//! ```
//!
//! The figures are 4 (unit-load scatter before/after), 5 and 6 (load by
//! capacity class, Gaussian and Pareto), 7 and 8 (moved load vs distance on
//! ts5k-large and ts5k-small). The claims are `rounds` (§5.2: VSA completes
//! in O(log_K N) rounds), `repair` (§3.1.1: tree self-repair after
//! crashes), `baselines` (§1.1: CFS thrashing), `ablations`, `overhead`,
//! `latency` and `drift`.
//!
//! `repro analyze` takes the artifacts a run wrote — an `EngineReport`
//! JSON (`repro engine --json r.json`) and/or a trace event log
//! (`--trace t.json` writes `t.ndjson`) — and either prints a behavioral
//! summary, or with `--gates <dir|file>` evaluates declarative threshold
//! gates (`gates/*.toml`, DESIGN.md §7) and exits nonzero on violations:
//!
//! ```text
//! repro analyze report.json trace.ndjson            # behavioral summary
//! repro analyze report.json trace.ndjson --gates gates/
//! repro analyze ... --gates gates/ --out analyze-report.json
//! ```
//!
//! Flags follow the subcommand and its operands:
//!
//! ```text
//! repro ... --scale small  # reduced size for quick runs (default: full)
//! repro ... --seed 42      # change the master seed
//! repro ... --threads 4    # worker threads for the sweep engine
//! repro ... --timing       # per-phase wall-clock -> BENCH_repro.json
//! repro ... --json r.json  # results as JSON
//! repro ... --trace t.json # chrome://tracing trace + t.ndjson event log
//! repro ... --profile out/ # flamegraphs + resource profile into out/
//! repro ... --progress     # heartbeat lines (epoch k/N, RSS, allocs) on stderr
//! repro ... --quiet        # suppress heartbeats even if --progress is set
//! repro xl2 --peers 65536  # xl2 machinery at a reduced peer count
//! repro engine --epochs 50 # epoch count of the continuous-operation run
//! ```
//!
//! Bad input — an unknown subcommand, flag or `--scale` value, a flag that
//! belongs to another subcommand — exits 2 with a one-line message.
//!
//! Every phase derives its state from the master seed alone, so the output
//! is bit-identical regardless of `--threads`. The `--trace` collector
//! records only virtual-time spans and deterministic counters, so the trace
//! files obey the same contract — and without `--trace` the collector is
//! disabled and stdout stays byte-identical to an untraced build.
//!
//! `--profile <dir>` (DESIGN.md §5c) enables the trace collector and the
//! phase profiler and writes four artifacts: `flame.virt.folded` and
//! `flame.virt.speedscope.json` weighted by virtual time (deterministic —
//! byte-identical at any `--threads`), plus `flame.wall.folded` and
//! `resources.txt` carrying wall/CPU/allocation numbers (volatile, never
//! compared across runs). Heartbeats go to stderr only, so neither flag
//! can perturb stdout.

use proxbal_bench::headline;
use proxbal_core::NodeClass;
use proxbal_profile::{AllocSnapshot, CountingAlloc, StderrSink};
use proxbal_sim::experiments::{
    ablation_sweep, fig4_unit_load, fig56_class_loads, fig78_replicated, repair_after_crash,
    rounds_scaling, scheme_comparison,
};
use proxbal_sim::metrics::{gini, Summary};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::{Trace, TraceSummary};
use proxbal_workload::LoadModel;
use std::time::Instant;

/// Allocation accounting for every run: inert (one relaxed load per
/// allocator call) until `enable_counting` flips it on in `main`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Appends a rendered line to a phase's output buffer (phases run through
/// the parallel engine, so they write to a buffer instead of stdout and the
/// driver prints the buffers in declaration order).
macro_rules! say {
    ($buf:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf);
    }};
    ($buf:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf, $($arg)*);
    }};
}

const PAPER: &str =
    "Zhu & Hu, Towards Efficient Load Balancing in Structured P2P Systems (IPDPS 2004)";

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Full,
    Small,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }
}

/// One figure or claim of the grid: its BENCH/JSON key and its driver.
#[derive(Clone)]
struct Phase {
    key: String,
    run: PhaseFn,
}

type PhaseFn = fn(&Args, &mut Trace) -> (String, serde_json::Value);

/// The paper's figures, in `repro figs` order.
const FIGS: [(&str, PhaseFn); 5] = [
    ("4", fig4),
    ("5", |args, trace| fig56(args, false, trace)),
    ("6", |args, trace| fig56(args, true, trace)),
    ("7", |args, trace| {
        fig78(args, TopologyKind::Ts5kLarge, 7, trace)
    }),
    ("8", |args, trace| {
        fig78(args, TopologyKind::Ts5kSmall, 8, trace)
    }),
];

/// The paper's claims and the extensions, in `repro claims` order.
const CLAIMS: [(&str, PhaseFn); 7] = [
    ("rounds", claim_rounds),
    ("repair", claim_repair),
    ("baselines", claim_baselines),
    ("ablations", claim_ablations),
    ("overhead", claim_overhead),
    ("latency", claim_latency),
    ("drift", claim_drift),
];

/// The phases of `table` that `operands` name (all of them when none is
/// named), keyed `{noun}_{name}`; an unknown name exits 2.
fn select(table: &[(&str, PhaseFn)], noun: &str, operands: &[String]) -> Vec<Phase> {
    let phase = |&(name, run): &(&str, PhaseFn)| Phase {
        key: format!("{noun}_{name}"),
        run,
    };
    if operands.is_empty() {
        return table.iter().map(phase).collect();
    }
    let lookup = |op: &String| match table.iter().find(|entry| entry.0 == op) {
        Some(entry) => phase(entry),
        None => {
            let names: Vec<&str> = table.iter().map(|entry| entry.0).collect();
            usage(format!(
                "unknown {noun} {op} (expected one of: {})",
                names.join(", ")
            ))
        }
    };
    operands.iter().map(lookup).collect()
}

/// What one invocation runs: the first argument, with its operands.
enum Command {
    /// `figs`, `claims` or `all`: figure and claim phases.
    Grid(Vec<Phase>),
    /// `faults [rate]`: the fault-injection sweep.
    Faults(f64),
    Xl2,
    Engine,
    /// `analyze <files>`: artifact paths (`.ndjson` = trace event log,
    /// anything else = `EngineReport` JSON).
    Analyze(Vec<String>),
}

struct Args {
    command: Command,
    scale: Scale,
    seed: u64,
    json: Option<String>,
    threads: usize,
    timing: bool,
    /// chrome://tracing output path; also derives the `.ndjson` event-log
    /// path. `None` disables the collector entirely.
    trace: Option<String>,
    /// `engine --epochs`: epoch count of the continuous-operation run.
    epochs: Option<usize>,
    /// `xl2 --peers`: reduced-scale smoke runs.
    peers: Option<usize>,
    /// `analyze --gates <dir|file>`: evaluate gate files instead of
    /// summarizing.
    gates: Option<String>,
    /// `analyze --out <path>`: write the machine-readable gate report JSON.
    out: Option<String>,
    /// `--profile <dir>`: write flamegraph + resource-profile artifacts.
    /// Enables the trace collector and the phase profiler.
    profile: Option<String>,
    /// `--progress`: heartbeat lines on stderr while phases run.
    progress: bool,
    /// `--quiet`: suppress heartbeats even when `--progress` is given.
    quiet: bool,
}

/// Reports a command-line error on one line and exits 2.
fn usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Parses the operand `text` of `what`, exiting 2 when it is missing or
/// malformed.
fn value<T: std::str::FromStr>(text: Option<&String>, what: &str) -> T {
    let Some(text) = text else {
        usage(format!("{what} needs a value"))
    };
    text.parse()
        .unwrap_or_else(|_| usage(format!("{what}: invalid value {text:?}")))
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let verb = argv.first().map_or("all", String::as_str);
    let rest = argv.get(1..).unwrap_or_default();
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (operands, flags) = rest.split_at(split);
    let no_operands = || {
        if !operands.is_empty() {
            usage(format!(
                "repro {verb} takes no positional operands (got {operands:?})"
            ));
        }
    };
    let command = match verb {
        "figs" => Command::Grid(select(&FIGS, "figure", operands)),
        "claims" => Command::Grid(select(&CLAIMS, "claim", operands)),
        "all" => {
            no_operands();
            Command::Grid([select(&FIGS, "figure", &[]), select(&CLAIMS, "claim", &[])].concat())
        }
        "faults" => {
            if operands.len() > 1 {
                usage("repro faults takes at most one loss rate");
            }
            let rate = operands
                .first()
                .map_or(0.1, |v| value(Some(v), "loss rate"));
            if !(0.0..1.0).contains(&rate) {
                usage(format!("loss rate must be in [0, 1) (got {rate})"));
            }
            Command::Faults(rate)
        }
        "xl2" => {
            no_operands();
            Command::Xl2
        }
        "engine" => {
            no_operands();
            Command::Engine
        }
        "analyze" if operands.is_empty() => usage(
            "repro analyze needs at least one artifact path (report JSON and/or trace .ndjson)",
        ),
        "analyze" => Command::Analyze(operands.to_vec()),
        other => usage(format!(
            "unknown subcommand {other} (expected one of figs|claims|faults|xl2|engine|analyze|all)"
        )),
    };

    let mut args = Args {
        command,
        scale: Scale::Full,
        seed: 1,
        json: None,
        threads: proxbal_parallel::default_threads(),
        timing: false,
        trace: None,
        epochs: None,
        peers: None,
        gates: None,
        out: None,
        profile: None,
        progress: false,
        quiet: false,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        // Flags that only one subcommand reads.
        let owner = match flag {
            "--epochs" => "engine",
            "--peers" => "xl2",
            "--gates" | "--out" => "analyze",
            _ => verb,
        };
        if owner != verb {
            usage(format!("{flag} only applies to repro {owner}"));
        }
        match flag {
            "--scale" => {
                args.scale = match it.next().map(String::as_str) {
                    Some("full") => Scale::Full,
                    Some("small") => Scale::Small,
                    other => usage(format!(
                        "--scale expects full|small (got {})",
                        other.unwrap_or("nothing")
                    )),
                }
            }
            "--seed" => args.seed = value(it.next(), flag),
            "--json" => args.json = Some(value(it.next(), flag)),
            "--threads" => args.threads = value(it.next(), flag),
            "--timing" => args.timing = true,
            "--trace" => args.trace = Some(value(it.next(), flag)),
            "--epochs" => args.epochs = Some(value(it.next(), flag)),
            "--peers" => args.peers = Some(value(it.next(), flag)),
            "--gates" => args.gates = Some(value(it.next(), flag)),
            "--out" => args.out = Some(value(it.next(), flag)),
            "--profile" => args.profile = Some(value(it.next(), flag)),
            "--progress" => args.progress = true,
            "--quiet" => args.quiet = true,
            other => usage(format!("unknown argument {other}")),
        }
    }
    args
}

fn scenario(args: &Args, topology: TopologyKind) -> Scenario {
    let mut s = match args.scale {
        Scale::Full => Scenario::builder().seed(args.seed).build(),
        Scale::Small => Scenario::builder()
            .small()
            .peers(512)
            .landmarks(15)
            .seed(args.seed)
            .build(),
    };
    s.topology = topology;
    s
}

/// The largest message-ish count anywhere in a phase's JSON — the per-phase
/// "peak messages" column of BENCH_repro.json.
fn peak_messages(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::Object(map) => map
            .iter()
            .filter_map(|(k, v)| {
                let counts = k.contains("messages")
                    || k.contains("record_hops")
                    || k.contains("notifications");
                if counts {
                    v.as_u64()
                } else {
                    peak_messages(v)
                }
            })
            .max(),
        serde_json::Value::Array(a) => a.iter().filter_map(peak_messages).max(),
        _ => None,
    }
}

/// Merges `key` → `entry` into BENCH_repro.json, preserving every other
/// top-level key an earlier run recorded (the `--timing` grid, `faults`,
/// `engine` and `xl2` entries are written by different invocations).
fn merge_bench_json(key: &str, entry: serde_json::Value) {
    let mut doc = std::fs::read_to_string("BENCH_repro.json")
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_else(serde_json::Map::new);
    if !doc.contains_key("bench") {
        doc.insert("bench".to_string(), serde_json::json!("repro"));
    }
    if !doc.contains_key("paper") {
        doc.insert("paper".to_string(), serde_json::json!(PAPER));
    }
    doc.insert(key.to_string(), entry);
    std::fs::write(
        "BENCH_repro.json",
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("serialize timings"),
    )
    .expect("write BENCH_repro.json");
    println!("wrote BENCH_repro.json ({key})");
}

/// The xl2 phase: the million-peer run — sharded preparation, sharded
/// KT-tree build, exact transfer distances — through one
/// proximity-aware four-phase pass executed in place. Appends an `xl2`
/// entry to BENCH_repro.json unless `--peers` rescaled the run (smoke runs
/// must not clobber the committed full-scale entry).
fn run_xl2(args: &Args, trace: &mut Trace) -> serde_json::Value {
    let mut scenario = Scenario::builder().xl2().seed(args.seed).build();
    if let Some(p) = args.peers {
        scenario.peers = p;
    }
    println!(
        "── xl2 scale: sharded prepare + exact distances at {} peers on ts50k (seed {}) ──",
        scenario.peers, args.seed
    );
    let total = Instant::now();
    let before = round_phase_seconds();
    let out = proxbal_sim::experiments::xl2_scale(scenario, args.threads, trace);
    let after = round_phase_seconds();
    let [lbi_wall, aggregate_wall, vsa_wall, transfer_wall] =
        std::array::from_fn(|i| after[i] - before[i]);
    let total_wall = total.elapsed().as_secs_f64();
    let peak_rss = proxbal_bench::peak_rss_bytes();

    println!(
        "underlay: {} nodes   peers: {}   virtual servers: {}   oracle cache: {} rows   shards: {}",
        out.underlay_nodes, out.peers, out.virtual_servers, out.oracle_capacity, out.shards
    );
    println!(
        "prepare: {:.1}s   tree build: {:.1}s",
        out.prepare_wall_s, out.tree_wall_s
    );
    let run = &out.aware;
    println!(
        "{:<18}: {}   heavy {} -> {}   transfers {}   {:.1}s",
        format!("proximity-{}", run.label),
        headline(&run.histogram),
        run.heavy_before,
        run.heavy_after,
        run.transfers,
        run.wall_s
    );
    // One wall per line with the seconds last, so the thread-invariance
    // smoke (scripts/check.sh scrub_xl2) strips them like every other wall.
    println!("  lbi wall: {lbi_wall:.2}s");
    println!("  aggregate wall: {aggregate_wall:.2}s");
    println!("  vsa wall: {vsa_wall:.2}s");
    println!("  transfer wall: {transfer_wall:.2}s");
    println!("\n  CDF of moved load (distance: aware)");
    for d in [0u32, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50] {
        println!(
            "  <={d:>3} hops: {:6.1}%",
            (100.0 * run.histogram.fraction_within(d)).max(0.0)
        );
    }
    match peak_rss {
        Some(b) => println!(
            "total: {total_wall:.1}s   peak RSS: {:.2} GiB",
            b as f64 / (1u64 << 30) as f64
        ),
        None => println!("total: {total_wall:.1}s   peak RSS: unavailable"),
    }

    if args.peers.is_none() {
        // Allocation accounting is on from the top of `main`, so these
        // cover the whole run. Schema-gated only: counts are deterministic
        // per (workload, thread count) but not across thread counts, so
        // bench_drift.sh lists them as volatile.
        let alloc = AllocSnapshot::global();
        let entry = serde_json::json!({
            "seed": args.seed,
            "peers": out.peers,
            "underlay_nodes": out.underlay_nodes,
            "virtual_servers": out.virtual_servers,
            "oracle_capacity": out.oracle_capacity,
            "shards": out.shards,
            "threads": args.threads,
            "total_wall_s": total_wall,
            "prepare_wall_s": out.prepare_wall_s,
            "tree_wall_s": out.tree_wall_s,
            "aware_wall_s": run.wall_s,
            "lbi_wall_s": lbi_wall,
            "aggregate_wall_s": aggregate_wall,
            "vsa_wall_s": vsa_wall,
            "transfer_wall_s": transfer_wall,
            "peak_rss_bytes": peak_rss.unwrap_or(0),
            "alloc_count": alloc.allocs,
            "alloc_bytes": alloc.bytes,
            "peak_alloc_bytes": proxbal_profile::alloc::peak_live_bytes(),
            "lbi_messages": run.lbi_messages,
            "vsa_record_hops": run.vsa_record_hops,
            "aware_frac2": run.frac2,
            "aware_frac10": run.frac10,
            "heavy_after": run.heavy_after,
        });
        merge_bench_json("xl2", entry);
    }
    serde_json::to_value(&out).expect("serialize xl2 output")
}

/// Wall seconds of the phase profiler's `round/{lbi,aggregate,vsa,transfer}`
/// rows recorded so far, summed over every place they occur in the phase
/// tree. Deltas around a pass are that pass's per-phase walls.
fn round_phase_seconds() -> [f64; 4] {
    let rows = proxbal_profile::report().rows;
    [
        "round/lbi",
        "round/aggregate",
        "round/vsa",
        "round/transfer",
    ]
    .map(|name| {
        rows.iter()
            .filter(|r| r.name == name)
            .map(|r| r.wall.as_secs_f64())
            .sum()
    })
}

/// The `repro faults [rate]` phase: the four-phase protocol driven through a
/// seeded fault plan at loss rates {0, 1%, 5%, `<rate>`}, reporting phase
/// completion, repair work, convergence rounds and residual imbalance per
/// rate. Every merged metric is a pure function of `(seed, rates)` — no
/// wall-clocks — so the entry is byte-stable across machines and thread
/// counts and can be diffed by the CI bench-drift gate.
fn run_faults(args: &Args, rate: f64, trace: &mut Trace) -> serde_json::Value {
    let mut rates = vec![0.0, 0.01, 0.05, rate];
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rate"));
    rates.dedup();
    let s = scenario(args, TopologyKind::Ts5kLarge);
    let t = Instant::now();
    let rows = proxbal_sim::experiments::fault_sweep(&s, &rates, args.threads, trace);
    let wall = t.elapsed();

    println!(
        "── Fault-injection sweep ({} peers, seed {}) ──",
        s.peers, s.seed
    );
    println!(
        "{:>6} {:>7} {:>5} | {:>6} {:>6} | {:>5} {:>5} {:>6} | {:>8} {:>7} {:>6} | {:>6} {:>6} {:>8} | {:>5} {:>4} {:>4} {:>4}",
        "loss", "crashed", "stale", "agg", "diss", "reatt", "prune", "rounds", "msgs",
        "retries", "gaveup", "heavy0", "heavy1", "residual", "xfers", "rq", "re", "ab"
    );
    for r in &rows {
        println!(
            "{:>5.1}% {:>7} {:>5} | {:>5.1}% {:>5.1}% | {:>5} {:>5} {:>6} | {:>8} {:>7} {:>6} | {:>6} {:>6} {:>8.4} | {:>5} {:>4} {:>4} {:>4}",
            r.loss_rate * 100.0,
            r.crashed_peers,
            r.stale_links,
            r.aggregation_completion * 100.0,
            r.dissemination_completion * 100.0,
            r.repair_reattached,
            r.repair_pruned,
            r.convergence_rounds,
            r.messages,
            r.retries,
            r.gave_up,
            r.heavy_before,
            r.heavy_after,
            r.residual_heavy_fraction,
            r.transfers,
            r.requeued,
            r.reassigned,
            r.abandoned,
        );
    }
    println!("fault sweep wall: {:.2}s", wall.as_secs_f64());

    let entry = serde_json::json!({
        "seed": args.seed,
        "scale": args.scale.name(),
        "rates": rates,
        "rows": rows,
    });
    merge_bench_json("faults", entry);
    serde_json::to_value(&rows).expect("serialize fault sweep rows")
}

/// The `repro engine` phase: continuous operation — Poisson churn,
/// geometric load drift and 1% message loss playing against periodic +
/// emergency balancing on one virtual clock (DESIGN.md §6). Prints the
/// per-epoch time series and merges an `engine` entry into
/// BENCH_repro.json; every merged field except the wall-clock and thread
/// count is a pure function of the seed, so the entry is byte-stable
/// across machines and `--threads` settings.
fn run_engine_cmd(args: &Args, trace: &mut Trace) -> serde_json::Value {
    let cfg = proxbal_sim::EngineConfig {
        epochs: args.epochs.unwrap_or(50),
        ..proxbal_sim::EngineConfig::default()
    };
    let mut builder = Scenario::builder().seed(args.seed);
    if args.scale == Scale::Small {
        builder = builder.small().peers(512).landmarks(15);
    }
    let scenario = builder
        // Repeated balancing concentrates big virtual servers on the few
        // high-capacity peers; once one drifts heavy its servers fit no
        // light node — the case VS-splitting exists for (claim `drift`).
        .balancer(proxbal_core::BalancerConfig {
            max_splits: 256,
            ..proxbal_core::BalancerConfig::default()
        })
        .churn(proxbal_sim::churn::ChurnConfig::default())
        .drift(proxbal_sim::drift::DriftConfig::default())
        .faults(proxbal_sim::faults::FaultConfig::with_loss(
            0.01,
            args.seed ^ 0xE9_614E,
        ))
        .build();

    println!(
        "── engine: continuous operation, {} peers, {} epochs (seed {}) ──",
        scenario.peers, cfg.epochs, args.seed
    );
    let total = Instant::now();
    let mut prepared = scenario.prepare_threads(args.threads);
    let report = proxbal_sim::run_engine_traced(&mut prepared, &cfg, trace).expect("engine run");
    let total_wall = total.elapsed().as_secs_f64();

    println!(
        "{:>5} {:>6} {:>6} {:>5} | {:>4} {:>5} {:>5} {:>5} | {:>3} {:>6} {:>10} {:>5} {:>7} | {:>7} {:>5}",
        "epoch", "alive", "gini", "heavy", "join", "crash", "stale", "reatt", "bal", "passes",
        "moved", "xfers", "msgs", "desmsg", "retry"
    );
    for s in &report.samples {
        let bal = match (s.balanced, s.emergency) {
            (true, true) => "E",
            (true, false) => "*",
            _ => "-",
        };
        println!(
            "{:>5} {:>6} {:>6.3} {:>5} | {:>4} {:>5} {:>5} {:>5} | {:>3} {:>6} {:>10.3e} {:>5} {:>7} | {:>7} {:>5}",
            s.epoch,
            s.alive_peers,
            s.gini,
            s.heavy,
            s.joins,
            s.crashes,
            s.stale_links,
            s.repair_reattached,
            bal,
            s.balance_passes,
            s.moved,
            s.transfers,
            s.messages,
            s.des_messages,
            s.des_retries,
        );
    }
    println!(
        "joins {}   crashes {}   stale links {}   balances {} ({} emergency)",
        report.joins, report.crashes, report.stale_links, report.balances, report.emergencies
    );
    println!(
        "moved {:.3e}   transfers {}   messages {}   mean gini {:.4}   final heavy {}",
        report.total_moved,
        report.total_transfers,
        report.total_messages,
        report.mean_gini(),
        report.final_heavy()
    );
    println!("engine wall: {total_wall:.2}s");

    let entry = serde_json::json!({
        "seed": args.seed,
        "scale": args.scale.name(),
        "peers": scenario.peers,
        "epochs": cfg.epochs,
        "threads": args.threads,
        "total_wall_s": total_wall,
        "joins": report.joins,
        "crashes": report.crashes,
        "stale_links": report.stale_links,
        "balances": report.balances,
        "emergencies": report.emergencies,
        "total_moved": report.total_moved,
        "total_transfers": report.total_transfers,
        "total_messages": report.total_messages,
        "mean_gini": report.mean_gini(),
        "final_heavy": report.final_heavy(),
        "final_alive": report.samples.last().map_or(0, |s| s.alive_peers),
    });
    merge_bench_json("engine", entry);
    serde_json::to_value(&report).expect("serialize engine report")
}

/// Writes the collected trace (chrome://tracing JSON at the `--trace` path,
/// newline-JSON event log next to it) and prints the summary table. A no-op
/// when `--trace` was not given, so plain runs stay byte-identical.
fn finish_trace(args: &Args, trace: &Trace) {
    let Some(path) = &args.trace else {
        return;
    };
    std::fs::write(path, trace.to_chrome_json()).expect("write trace json");
    let ndjson_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.ndjson"),
        None => format!("{path}.ndjson"),
    };
    std::fs::write(&ndjson_path, trace.to_ndjson()).expect("write trace ndjson");
    print!("{}", TraceSummary::of(trace));
    println!("wrote {path} (chrome://tracing) and {ndjson_path} (event log)");
}

/// Writes the `--profile <dir>` artifacts (DESIGN.md §5c). Deterministic:
/// `flame.virt.folded` + `flame.virt.speedscope.json` (virtual-time
/// weights, pure functions of the trace — byte-identical at any
/// `--threads`) and `trace_summary.txt`. Volatile: `flame.wall.folded` +
/// `resources.txt` (wall/CPU/allocation numbers). A no-op without
/// `--profile`.
fn finish_profile(args: &Args, trace: &Trace) {
    let Some(dir) = &args.profile else {
        return;
    };
    std::fs::create_dir_all(dir).expect("create profile directory");
    let write = |name: &str, data: String| {
        let path = std::path::Path::new(dir).join(name);
        std::fs::write(&path, data).expect("write profile artifact");
        println!("wrote {}", path.display());
    };
    let folded = proxbal_bench::fold_trace(trace);
    write("flame.virt.folded", folded.to_collapsed());
    write(
        "flame.virt.speedscope.json",
        folded.to_speedscope("repro (virtual time)"),
    );
    write("trace_summary.txt", TraceSummary::of(trace).to_string());
    let report = proxbal_profile::report();
    write("flame.wall.folded", report.to_folded_wall());
    let mut res = String::new();
    {
        use std::fmt::Write as _;
        let alloc = AllocSnapshot::global();
        let _ = writeln!(
            res,
            "allocations: {} calls, {} bytes",
            alloc.allocs, alloc.bytes
        );
        let _ = writeln!(
            res,
            "peak counted live bytes: {}",
            proxbal_profile::alloc::peak_live_bytes()
        );
        if let Some(b) = proxbal_profile::peak_rss_bytes() {
            let _ = writeln!(res, "peak rss bytes: {b}");
        }
        if let Some(cpu) = proxbal_profile::cpu_time() {
            let _ = writeln!(res, "cpu time: {:.2}s", cpu.as_secs_f64());
        }
        let _ = writeln!(res);
        res.push_str(&report.to_text());
    }
    write("resources.txt", res);
}

/// `repro analyze`: loads the run artifacts named on the command line,
/// then either prints the behavioral summary or — with `--gates` —
/// evaluates every gate file and exits nonzero on any violation.
fn run_analyze(args: &Args, inputs: &[String]) {
    use proxbal_analyze::{evaluate_gates, parse_gate_file, render_table, Run};
    let mut run = Run::default();
    for path in inputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        if let Err(e) = run.load(path, &text) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let Some(gate_path) = &args.gates else {
        if args.out.is_some() {
            eprintln!("--out only applies with --gates (the summary goes to stdout)");
            std::process::exit(2);
        }
        print!("{}", run.summarize());
        return;
    };
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    let meta = std::fs::metadata(gate_path).unwrap_or_else(|e| {
        eprintln!("cannot read {gate_path}: {e}");
        std::process::exit(2);
    });
    if meta.is_dir() {
        for entry in std::fs::read_dir(gate_path).expect("readable gate directory") {
            let p = entry.expect("readable gate directory entry").path();
            if p.extension().is_some_and(|e| e == "toml") {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            eprintln!("{gate_path}: no *.toml gate files found");
            std::process::exit(2);
        }
    } else {
        files.push(gate_path.into());
    }
    let mut gates = Vec::new();
    for file in &files {
        let origin = file.display().to_string();
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("cannot read {origin}: {e}");
            std::process::exit(2);
        });
        match parse_gate_file(&text, &origin) {
            Ok(parsed) => gates.extend(parsed),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    for gate in &gates {
        if !seen.insert(gate.name.clone()) {
            eprintln!("duplicate gate name {:?} across gate files", gate.name);
            std::process::exit(2);
        }
    }
    let results = evaluate_gates(&gates, &run.artifacts(), args.threads);
    print!("{}", render_table(&results));
    if let Some(out) = &args.out {
        let json = serde_json::to_string_pretty(&results).expect("serialize gate results");
        std::fs::write(out, json + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(2);
        });
    }
    if results.iter().any(|r| !r.pass) {
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    // Allocation accounting is on for every run (it only feeds stderr
    // heartbeats, volatile profile artifacts and schema-gated BENCH
    // fields, so stdout stays byte-identical); the phase profiler with
    // --profile, and for xl2, whose per-phase walls are its `round/*` rows.
    proxbal_profile::enable_counting();
    if args.profile.is_some() || matches!(args.command, Command::Xl2) {
        proxbal_profile::enable_profiler();
    }
    if args.progress && !args.quiet {
        proxbal_profile::progress::install(Box::new(StderrSink::default()));
    }
    let mut trace = Trace::new(args.trace.is_some() || args.profile.is_some(), "repro");
    let results = match &args.command {
        Command::Analyze(inputs) => return run_analyze(&args, inputs),
        Command::Grid(phases) => run_grid(&args, phases, &mut trace),
        Command::Faults(rate) => {
            let _p = proxbal_profile::phase("faults");
            run_faults(&args, *rate, &mut trace)
        }
        Command::Xl2 => {
            let _p = proxbal_profile::phase("xl2");
            run_xl2(&args, &mut trace)
        }
        Command::Engine => {
            let _p = proxbal_profile::phase("engine");
            run_engine_cmd(&args, &mut trace)
        }
    };
    if let Some(path) = &args.json {
        let scale = match args.command {
            Command::Xl2 => "xl2",
            _ => args.scale.name(),
        };
        let doc = serde_json::json!({
            "paper": PAPER,
            "seed": args.seed,
            "scale": scale,
            "results": results,
        });
        std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize"))
            .expect("write json");
        println!("wrote {path}");
    }
    finish_trace(&args, &trace);
    finish_profile(&args, &trace);
}

/// The figure/claim grid. Phases are independent — each prepares its own
/// scenario from the master seed — so they run through the same engine as
/// the inner sweeps. With --timing they run one at a time so per-phase
/// wall-clocks are not distorted by concurrent phases, and the walls go to
/// a BENCH_repro.json entry named after the scale.
fn run_grid(args: &Args, phases: &[Phase], trace: &mut Trace) -> serde_json::Value {
    let phase_threads = if args.timing { 1 } else { args.threads };
    let total = Instant::now();
    let ran =
        proxbal_parallel::map_items_traced(phases, phase_threads, trace, |_, phase, trace| {
            trace.relabel(&phase.key);
            // Worker threads have an empty phase stack, so each grid phase
            // profiles as its own root.
            let _p = proxbal_profile::phase(&phase.key);
            let t = Instant::now();
            let (text, value) = (phase.run)(args, trace);
            (text, value, t.elapsed())
        });
    let total_wall = total.elapsed();

    let mut results = serde_json::Map::new();
    let mut timings = Vec::new();
    for (phase, (text, value, wall)) in phases.iter().zip(ran) {
        print!("{text}");
        let mut entry = serde_json::Map::new();
        entry.insert("phase".into(), serde_json::json!(phase.key.clone()));
        entry.insert("wall_s".into(), serde_json::json!(wall.as_secs_f64()));
        if let Some(graphs) = value.get("graphs").and_then(serde_json::Value::as_u64) {
            entry.insert("graphs".into(), serde_json::json!(graphs));
            entry.insert(
                "graphs_per_s".into(),
                serde_json::json!(graphs as f64 / wall.as_secs_f64()),
            );
        }
        if let Some(m) = peak_messages(&value) {
            entry.insert("peak_messages".into(), serde_json::json!(m));
        }
        timings.push(serde_json::Value::Object(entry));
        results.insert(phase.key.clone(), value);
    }

    if args.timing {
        println!("── Timing (wall-clock per phase) ──");
        for t in &timings {
            let phase = t
                .get("phase")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("?");
            let wall = t
                .get("wall_s")
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0);
            match t.get("graphs_per_s").and_then(serde_json::Value::as_f64) {
                Some(gps) => println!("{phase:<18} {wall:>8.2}s  ({gps:.2} graphs/s)"),
                None => println!("{phase:<18} {wall:>8.2}s"),
            }
        }
        println!("{:<18} {:>8.2}s", "total", total_wall.as_secs_f64());
        let entry = serde_json::json!({
            "seed": args.seed,
            "threads": args.threads,
            "total_wall_s": total_wall.as_secs_f64(),
            "phases": timings,
        });
        merge_bench_json(args.scale.name(), entry);
    }
    serde_json::Value::Object(results)
}

fn fig4(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Figure 4: unit load per node before/after load balancing (Gaussian) ──"
    );
    let mut prepared = scenario(args, TopologyKind::None).prepare();
    let out = fig4_unit_load(&mut prepared, trace);
    let before = Summary::of(&out.before);
    let after = Summary::of(&out.after);
    let heavy_before = out
        .report
        .before
        .get(&NodeClass::Heavy)
        .copied()
        .unwrap_or(0);
    let total = out.before.len();
    say!(
        o,
        "nodes: {total}   heavy before: {heavy_before} ({:.0}%)   heavy after: {}",
        100.0 * heavy_before as f64 / total as f64,
        out.report.heavy_after()
    );
    say!(
        o,
        "unit load before: mean {:10.1}  max {:10.1}  gini {:.3}",
        before.mean,
        before.max,
        gini(&out.before)
    );
    say!(
        o,
        "unit load after : mean {:10.1}  max {:10.1}  gini {:.3}",
        after.mean,
        after.max,
        gini(&out.after)
    );
    say!(
        o,
        "(paper: ~75% heavy before; all heavy become light after)\n"
    );
    let value = serde_json::json!({
        "nodes": total,
        "heavy_before": heavy_before,
        "heavy_after": out.report.heavy_after(),
        "gini_before": gini(&out.before),
        "gini_after": gini(&out.after),
        "unit_load_before": { "mean": before.mean, "max": before.max },
        "unit_load_after": { "mean": after.mean, "max": after.max },
    });
    (o, value)
}

fn fig56(args: &Args, pareto: bool, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    let (fig, label) = if pareto {
        (6, "Pareto")
    } else {
        (5, "Gaussian")
    };
    say!(
        o,
        "── Figure {fig}: load by capacity class before/after ({label}) ──"
    );
    let mut s = scenario(args, TopologyKind::None);
    if pareto {
        s.load = LoadModel::pareto(1_000_000.0);
    }
    let mut prepared = s.prepare();
    let out = fig56_class_loads(&mut prepared, trace);
    say!(
        o,
        "{:>10} {:>6} {:>16} {:>16}",
        "capacity",
        "nodes",
        "mean load pre",
        "mean load post"
    );
    let mut classes = Vec::new();
    for (i, cap) in out.class_capacity.iter().enumerate() {
        let b = Summary::of(&out.before[i]);
        let a = Summary::of(&out.after[i]);
        say!(
            o,
            "{:>10} {:>6} {:>16.1} {:>16.1}",
            cap,
            b.count,
            b.mean,
            a.mean
        );
        classes.push(serde_json::json!({
            "capacity": cap, "nodes": b.count,
            "mean_load_before": b.mean, "mean_load_after": a.mean,
        }));
    }
    say!(
        o,
        "(paper: after balancing, load tracks the capacity skew)\n"
    );
    (
        o,
        serde_json::json!({ "workload": label, "classes": classes }),
    )
}

fn fig78(
    args: &Args,
    topology: TopologyKind,
    fig: u32,
    trace: &mut Trace,
) -> (String, serde_json::Value) {
    let mut o = String::new();
    let name = if fig == 7 { "ts5k-large" } else { "ts5k-small" };
    // The paper runs 10 independently generated graphs per topology and
    // pools them; do the same (in parallel) at full scale.
    let graphs = match args.scale {
        Scale::Full => 10,
        Scale::Small => 3,
    };
    say!(
        o,
        "── Figure {fig}: moved load vs transfer distance ({name}, {graphs} graphs) ──"
    );
    let base = scenario(args, topology);
    let out = fig78_replicated(&base, graphs, args.threads, trace);
    say!(o, "proximity-aware   : {}", headline(&out.aware));
    say!(o, "proximity-ignorant: {}", headline(&out.ignorant));
    // Most runs fully balance; an occasional draw leaves a small residue of
    // heavy nodes the one-shot greedy pairing cannot place (their sheddable
    // virtual servers fit no remaining light node — the global slack at
    // ε = 0.05 is only 5%). Bound the residue instead of demanding zero.
    let residue = out.max_heavy_after as f64 / base.peers as f64;
    assert!(
        residue <= 0.02,
        "worst residual heavy fraction {residue:.4} exceeds 2%"
    );
    if out.max_heavy_after > 0 {
        say!(
            o,
            "  (worst run left {} of {} nodes heavy — {:.2}% residue)",
            out.max_heavy_after,
            base.peers,
            100.0 * residue
        );
    }
    say!(o, "\n  CDF of moved load (distance: aware | ignorant)");
    for d in [0u32, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50] {
        say!(
            o,
            "  <={d:>3} hops: {:6.1}% | {:6.1}%",
            (100.0 * out.aware.fraction_within(d)).max(0.0),
            (100.0 * out.ignorant.fraction_within(d)).max(0.0)
        );
    }
    let spread = |i: usize| {
        let vals: Vec<f64> = out
            .per_graph
            .iter()
            .map(|g| match i {
                0 => g.0,
                1 => g.1,
                _ => g.2,
            })
            .collect();
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(0.0f64, f64::max);
        (100.0 * lo, 100.0 * hi)
    };
    let (a2l, a2h) = spread(0);
    let (a10l, a10h) = spread(1);
    let (i10l, i10h) = spread(2);
    say!(o, "  per-graph spread: aware<=2 {a2l:.0}-{a2h:.0}%, aware<=10 {a10l:.0}-{a10h:.0}%, ignorant<=10 {i10l:.0}-{i10h:.0}%");
    if fig == 7 {
        say!(
            o,
            "(paper: aware ~67% within 2 hops, ~86% within 10; ignorant ~13% within 10)\n"
        );
    } else {
        say!(
            o,
            "(paper: aware still wins on ts5k-small, with a smaller margin)\n"
        );
    }
    let value = serde_json::json!({
        "topology": name,
        "graphs": graphs,
        "aware": { "cdf": out.aware.cdf(), "mean_distance": out.aware.mean_distance() },
        "ignorant": { "cdf": out.ignorant.cdf(), "mean_distance": out.ignorant.mean_distance() },
    });
    (o, value)
}

fn claim_rounds(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Claim (§5.2): LBI/VSA complete in O(log_K N) message rounds ──"
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Full => vec![256, 512, 1024, 2048, 4096],
        Scale::Small => vec![64, 128, 256, 512],
    };
    let rows = rounds_scaling(&sizes, &[2, 8], args.seed, args.threads, trace);
    let json = serde_json::to_value(&rows).expect("serialize rows");
    say!(
        o,
        "{:>6} {:>8} {:>3} {:>10} {:>10} {:>10} {:>10}",
        "peers",
        "VSs",
        "K",
        "LBI rnds",
        "dissem",
        "VSA rnds",
        "log_K(M)"
    );
    for r in rows {
        say!(
            o,
            "{:>6} {:>8} {:>3} {:>10} {:>10} {:>10} {:>10.1}",
            r.peers,
            r.virtual_servers,
            r.k,
            r.lbi_rounds,
            r.dissemination_rounds,
            r.vsa_rounds,
            r.log_k_m
        );
    }
    say!(o);
    (o, json)
}

fn claim_repair(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Claim (§3.1.1): tree self-repairs in O(log_K N) rounds after crashes ──"
    );
    let peers = match args.scale {
        Scale::Full => 2048,
        Scale::Small => 256,
    };
    say!(
        o,
        "{:>6} {:>3} {:>8} {:>12} {:>12} {:>13}",
        "peers",
        "K",
        "crash %",
        "crash rnds",
        "regrow rnds",
        "height after"
    );
    // Each (K, crash fraction) cell reruns from the master seed —
    // independent, so the grid goes through the engine.
    let cells: Vec<(usize, f64)> = [2usize, 8]
        .iter()
        .flat_map(|&k| [0.1, 0.25, 0.5].iter().map(move |&f| (k, f)))
        .collect();
    let per_cell =
        proxbal_parallel::map_items_traced(&cells, args.threads, trace, |_, &(k, frac), trace| {
            trace.relabel(&format!("k{k}_crash{frac}"));
            repair_after_crash(peers, frac, k, args.seed, trace)
        });
    let mut rows = Vec::new();
    for ((k, frac), row) in cells.iter().zip(per_cell) {
        say!(
            o,
            "{:>6} {:>3} {:>8.0} {:>12} {:>12} {:>13}",
            row.peers,
            k,
            frac * 100.0,
            row.crash_repair_rounds,
            row.join_repair_rounds,
            row.height_after
        );
        rows.push(serde_json::json!({
            "k": k, "crash_fraction": frac,
            "crash_repair_rounds": row.crash_repair_rounds,
            "join_repair_rounds": row.join_repair_rounds,
            "height_after": row.height_after,
        }));
    }
    say!(o);
    (o, serde_json::Value::Array(rows))
}

fn claim_baselines(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Baselines (§1.1): our scheme vs CFS-style shedding ──"
    );
    let mut s = scenario(args, TopologyKind::None);
    if args.scale == Scale::Full {
        s.peers = 1024; // CFS loop is O(rounds · peers); keep runtime sane
    }
    let prepared = s.prepare();
    let cmp = scheme_comparison(&prepared);
    trace.count("baseline_cfs_thrash_events", cmp.cfs_thrash_events as u64);
    trace.count("baseline_heavy_before", cmp.heavy_before as u64);
    trace.count("baseline_heavy_after", cmp.heavy_after as u64);
    say!(o, "unit-load gini before: {:.3}", cmp.gini_before);
    say!(
        o,
        "unit-load gini after (tree scheme): {:.3}",
        cmp.gini_tree
    );
    say!(
        o,
        "heavy nodes: {} -> {} (tree scheme)",
        cmp.heavy_before,
        cmp.heavy_after
    );
    say!(
        o,
        "CFS baseline: converged = {}, thrash events = {}",
        cmp.cfs_converged,
        cmp.cfs_thrash_events
    );
    say!(
        o,
        "(the paper criticizes CFS for exactly this load thrashing)\n"
    );
    let json = serde_json::to_value(&cmp).expect("serialize comparison");
    (o, json)
}

fn claim_ablations(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Ablations: design choices on ts5k-large (aware mode unless noted) ──"
    );
    let mut s = scenario(args, TopologyKind::Ts5kLarge);
    if args.scale == Scale::Full {
        s.peers = 2048; // 14 full-scale runs; keep runtime sane
    }
    let prepared = s.prepare();
    let rows = ablation_sweep(&prepared, args.threads, trace);
    let json = serde_json::to_value(&rows).expect("serialize ablations");
    say!(
        o,
        "{:<40} {:>6} {:>12} {:>7} {:>7} {:>6}",
        "variant",
        "heavy",
        "moved load",
        "<=2",
        "<=10",
        "mean"
    );
    for r in rows {
        say!(
            o,
            "{:<40} {:>6} {:>12.3e} {:>6.1}% {:>6.1}% {:>6.2}",
            r.label,
            r.heavy_after,
            r.moved_load,
            100.0 * r.frac2,
            100.0 * r.frac10,
            r.mean_distance
        );
    }
    say!(o);
    (o, json)
}

fn claim_drift(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(o, "── Extension: periodic re-balancing under load drift ──");
    let peers = match args.scale {
        Scale::Full => 1024,
        Scale::Small => 256,
    };
    let mut s = scenario(args, TopologyKind::None);
    s.peers = peers;
    let mut prepared = s.prepare();
    let cfg = proxbal_sim::drift::DriftConfig {
        steps: 50,
        rebalance_every: 10,
        sigma: 0.1,
    };
    let balancer_cfg = proxbal_core::BalancerConfig {
        max_splits: 16,
        ..prepared.scenario.balancer
    };
    let mut rng = prepared.derived_rng(0xD21F7);
    let stats = proxbal_sim::drift::run_drift(
        &mut prepared.net,
        &mut prepared.loads,
        &cfg,
        balancer_cfg,
        None,
        &mut rng,
    );
    say!(
        o,
        "{} steps, rebalance every {}, sigma {}",
        cfg.steps,
        cfg.rebalance_every,
        cfg.sigma
    );
    let post: Vec<usize> = stats
        .timeline
        .iter()
        .filter(|s| s.moved > 0.0)
        .map(|s| s.heavy)
        .collect();
    say!(
        o,
        "heavy nodes right after each rebalance: {post:?} (peers: {peers})"
    );
    say!(
        o,
        "worst heavy count between rebalances: {}",
        stats.max_heavy()
    );
    say!(
        o,
        "total load moved across {} rebalances: {:.3e}",
        stats.rebalances,
        stats.total_moved
    );
    say!(o);
    trace.count("drift_rebalances", stats.rebalances as u64);
    trace.count_f64("drift_total_moved", stats.total_moved);
    trace.count("drift_max_heavy", stats.max_heavy() as u64);
    let value = serde_json::json!({
        "rebalances": stats.rebalances,
        "total_moved": stats.total_moved,
        "heavy_after_each_rebalance": post,
        "max_heavy": stats.max_heavy(),
    });
    (o, value)
}

fn claim_latency(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Timing: message-level wall-clock of the tree phases (ts5k-large) ──"
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Full => vec![1024, 4096],
        Scale::Small => vec![256],
    };
    let rows = proxbal_sim::experiments::protocol_latency(
        &sizes,
        &[2, 8],
        &[0.0, 0.05],
        args.seed,
        args.threads,
        trace,
    );
    let json = serde_json::to_value(&rows).expect("serialize latency rows");
    say!(
        o,
        "{:>6} {:>3} {:>6} {:>12} {:>12} {:>10}",
        "peers",
        "K",
        "loss",
        "LBI time",
        "dissem time",
        "messages"
    );
    for r in rows {
        say!(
            o,
            "{:>6} {:>3} {:>6.2} {:>12} {:>12} {:>10}",
            r.peers,
            r.k,
            r.loss,
            r.aggregation,
            r.dissemination,
            r.messages
        );
    }
    say!(
        o,
        "(time in latency units: interdomain hop = 3, intradomain = 1)\n"
    );
    (o, json)
}

fn claim_overhead(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Overhead: control messages and transfer bandwidth per phase ──"
    );
    let mut s = scenario(args, TopologyKind::Ts5kLarge);
    if args.scale == Scale::Full {
        s.peers = 2048;
    }
    let prepared = s.prepare();
    let underlay = prepared.underlay().unwrap();
    say!(
        o,
        "{:<12} {:>10} {:>10} {:>12} {:>10} {:>14}",
        "mode",
        "LBI msgs",
        "dissem",
        "record-hops",
        "notifies",
        "VST load·dist"
    );
    // The two modes start from identical clones of the prepared state with
    // their own derived RNGs — independent, so both go through the engine.
    let modes = [
        ("ignorant", proxbal_core::ProximityMode::Ignorant),
        (
            "aware",
            proxbal_core::ProximityMode::Aware(proxbal_core::ProximityParams::default()),
        ),
    ];
    let stats = proxbal_parallel::map_items_traced(
        &modes,
        args.threads,
        trace,
        |_, &(name, mode), trace| {
            trace.relabel(name);
            let mut net = prepared.net.clone();
            let mut loads = prepared.loads.clone();
            let cfg = proxbal_core::BalancerConfig {
                mode,
                ..prepared.scenario.balancer
            };
            let mut rng = prepared.derived_rng(0x0F0F);
            let report = proxbal_core::LoadBalancer::new(cfg)
                .run(&mut net, &mut loads, Some(underlay), &mut rng, trace)
                .expect("attached network");
            report.messages
        },
    );
    let mut rows = Vec::new();
    for ((name, _), m) in modes.iter().zip(stats) {
        say!(
            o,
            "{:<12} {:>10} {:>10} {:>12} {:>10} {:>14.3e}",
            name,
            m.lbi_messages,
            m.dissemination_messages,
            m.vsa_record_hops,
            m.vsa_notifications,
            m.vst_weighted_cost
        );
        rows.push(serde_json::json!({ "mode": name, "stats": m }));
    }
    say!(
        o,
        "(the aware mode's whole point: the VST column — bandwidth — collapses)\n"
    );
    (o, serde_json::Value::Array(rows))
}
