//! The continuous-operation engine's determinism contract, mirroring
//! `trace_determinism.rs`: for a fixed scenario the per-epoch time series —
//! and its trace — are **byte-identical** across repeats, a traced run
//! never perturbs an untraced one, and with every event source disabled the
//! engine degenerates to the one-shot balancer. Plus the builder contract
//! of the `ScenarioBuilder` redesign: presets are deterministic field
//! rewrites over the paper defaults.

use proxbal_core::{DirtySet, Error, LoadBalancer, RoundCache};
use proxbal_ktree::KTree;
use proxbal_sim::churn::ChurnConfig;
use proxbal_sim::drift::DriftConfig;
use proxbal_sim::engine::BALANCE_LABEL;
use proxbal_sim::faults::FaultConfig;
use proxbal_sim::{run_engine, run_engine_traced, EngineConfig, Scenario, TopologyKind};
use proxbal_trace::Trace;

/// A small scenario with every event source on — churn, drift and a lossy
/// fault plan — the combination `repro engine` runs at full scale.
fn stormy() -> Scenario {
    Scenario::builder()
        .small()
        .seed(41)
        .balancer(proxbal_core::BalancerConfig {
            max_splits: 32,
            ..proxbal_core::BalancerConfig::default()
        })
        .churn(ChurnConfig {
            join_rate: 0.2,
            crash_rate: 0.2,
            ..ChurnConfig::default()
        })
        .drift(DriftConfig::default())
        .faults(FaultConfig::with_loss(0.01, 0xE9))
        .build()
}

/// The same scenario with every source off: no churn, no drift, no faults.
fn quiescent() -> Scenario {
    Scenario::builder().small().seed(43).build()
}

fn short(epochs: usize) -> EngineConfig {
    EngineConfig {
        epochs,
        ..EngineConfig::default()
    }
}

#[test]
fn engine_series_and_trace_are_repeat_deterministic() {
    let run = || {
        let mut prepared = stormy().prepare();
        let mut trace = Trace::enabled("engine");
        let report = run_engine_traced(&mut prepared, &short(8), &mut trace).unwrap();
        (
            serde_json::to_string(&report).unwrap(),
            trace.to_ndjson(),
            trace.to_chrome_json(),
        )
    };
    let (report1, nd1, ch1) = run();
    let (report2, nd2, ch2) = run();
    assert_eq!(report1, report2, "per-epoch series must be byte-identical");
    assert_eq!(nd1, nd2, "ndjson trace must be byte-identical");
    assert_eq!(ch1, ch2, "chrome trace must be byte-identical");
    // The trace actually carries the engine's epoch structure.
    assert!(nd1.contains("engine/epoch0"), "per-epoch tracks present");
    assert!(
        nd1.contains("\"engine/epoch\""),
        "epoch summary spans present"
    );
}

#[test]
fn traced_and_untraced_engine_runs_agree() {
    let mut plain_prep = stormy().prepare();
    let plain = run_engine(&mut plain_prep, &short(6)).unwrap();

    let mut traced_prep = stormy().prepare();
    let mut trace = Trace::enabled("engine");
    let traced = run_engine_traced(&mut traced_prep, &short(6), &mut trace).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "tracing must never perturb the engine"
    );

    let mut disabled_prep = stormy().prepare();
    let mut disabled = Trace::disabled();
    let silent = run_engine_traced(&mut disabled_prep, &short(6), &mut disabled).unwrap();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&silent).unwrap()
    );
    assert_eq!(disabled.event_count(), 0);
}

/// With every source off, a single engine epoch is exactly one one-shot
/// balancing round: same moved load, same transfers, same message counts —
/// because the engine replays the one-shot code path
/// ([`LoadBalancer::run_round`] with a cold cache) on the `BALANCE_LABEL`
/// RNG stream.
#[test]
fn quiescent_single_epoch_matches_one_shot_round() {
    let mut engine_prep = quiescent().prepare();
    let report = run_engine(&mut engine_prep, &short(1)).unwrap();
    assert_eq!(report.samples.len(), 1);
    let epoch = &report.samples[0];
    assert!(epoch.balanced, "the final epoch always balances");

    let mut prepared = quiescent().prepare();
    let balancer = LoadBalancer::new(prepared.scenario.balancer);
    let mut tree = KTree::build(&prepared.net, prepared.scenario.balancer.k);
    let mut rng = prepared.derived_rng(BALANCE_LABEL);
    // Field-wise Underlay construction so the oracle borrows coexist with
    // the &mut net/loads the round needs (same split the engine does).
    let underlay = prepared
        .oracle
        .as_ref()
        .map(|oracle| proxbal_core::Underlay {
            oracle,
            latency_oracle: prepared.latency_oracle.as_ref(),
            landmarks: &prepared.landmarks,
        });
    let one_shot = balancer
        .run_round(
            &mut prepared.net,
            &mut prepared.loads,
            &mut tree,
            underlay,
            &mut RoundCache::new(),
            &DirtySet::All,
            &mut rng,
            &mut Trace::disabled(),
        )
        .unwrap();

    assert_eq!(epoch.transfers, one_shot.transfers.len());
    assert_eq!(
        epoch.moved,
        proxbal_core::total_moved_load(&one_shot.transfers)
    );
    let msgs = one_shot.messages.lbi_messages
        + one_shot.messages.dissemination_messages
        + one_shot.messages.vsa_record_hops
        + one_shot.messages.vsa_notifications;
    assert_eq!(epoch.messages, msgs);
    assert_eq!(epoch.heavy, one_shot.heavy_after());
    // No sources: no membership events, no stale links, no DES shadow.
    assert_eq!(report.joins + report.crashes + report.stale_links, 0);
    assert_eq!(epoch.des_messages + epoch.des_retries, 0);
}

/// With every source off, later balancing rounds find an already-balanced
/// system and move nothing — the incremental round's cache keeps the report
/// bindings, and without dirt there is nothing to re-report.
#[test]
fn quiescent_engine_settles_after_first_balance() {
    let mut prepared = quiescent().prepare();
    let cfg = EngineConfig {
        epochs: 6,
        balance_interval: 1,
        ..EngineConfig::default()
    };
    let report = run_engine(&mut prepared, &cfg).unwrap();
    assert_eq!(
        report.balances, 6,
        "balance_interval 1 balances every epoch"
    );
    assert_eq!(report.emergencies, 0);
    let first = &report.samples[0];
    assert!(first.moved > 0.0, "the first round does the work");
    assert_eq!(first.heavy, 0);
    for s in &report.samples[1..] {
        assert_eq!(s.moved, 0.0, "epoch {}: moved {}", s.epoch, s.moved);
        assert_eq!(s.transfers, 0);
        assert_eq!(s.heavy, 0);
        assert_eq!(s.alive_peers, report.samples[0].alive_peers);
    }
}

/// The full stormy combination — churn, drift, 1% loss — still ends its
/// last (forced) balancing epoch with zero heavy nodes, and every source
/// actually fired.
#[test]
fn stormy_engine_clears_heavy_by_final_epoch() {
    let mut prepared = stormy().prepare();
    let report = run_engine(&mut prepared, &short(10)).unwrap();
    assert_eq!(report.final_heavy(), 0);
    assert!(report.joins > 0, "churn joins must fire at rate 0.2");
    assert!(report.crashes > 0, "churn crashes must fire at rate 0.2");
    assert!(
        report.stale_links > 0,
        "fault source must inject stale links"
    );
    assert!(report.balances > 0);
    assert!(report.total_moved > 0.0);
    // The DES shadow ran on balancing epochs and saw retries under loss.
    let des: usize = report.samples.iter().map(|s| s.des_messages).sum();
    assert!(des > 0, "DES shadow must run under a fault plan");
    // Membership really changed on the overlay.
    let last = report.samples.last().unwrap();
    assert_eq!(
        last.alive_peers,
        128 + report.joins - report.crashes,
        "alive count must track joins and crashes"
    );
    prepared.net.check_invariants().unwrap();
}

#[test]
fn engine_rejects_invalid_configs() {
    let mut prepared = quiescent().prepare();
    for bad in [
        EngineConfig {
            epochs: 0,
            ..EngineConfig::default()
        },
        EngineConfig {
            epoch_len: 0,
            ..EngineConfig::default()
        },
        EngineConfig {
            balance_interval: 0,
            ..EngineConfig::default()
        },
        EngineConfig {
            maintenance_interval: 0,
            ..EngineConfig::default()
        },
        EngineConfig {
            emergency_threshold: 0.0,
            ..EngineConfig::default()
        },
    ] {
        let err = run_engine(&mut prepared, &bad).unwrap_err();
        assert!(matches!(err, Error::InvalidEngineConfig(_)), "{err}");
    }
}

/// The builder contract that replaced the removed preset constructors:
/// every preset is a plain field rewrite, serializable and reproducible —
/// two builders with the same spelling yield byte-identical scenarios, and
/// each preset pins the documented knobs.
#[test]
fn builder_presets_are_deterministic_field_rewrites() {
    let json = |s: &Scenario| serde_json::to_string(s).unwrap();
    // Same spelling → byte-identical scenario (presets are pure).
    assert_eq!(
        json(&Scenario::builder().seed(5).build()),
        json(&Scenario::builder().seed(5).build())
    );
    assert_eq!(
        json(&Scenario::builder().small().seed(6).build()),
        json(&Scenario::builder().small().seed(6).build())
    );
    assert_eq!(
        json(&Scenario::builder().xl2().seed(7).build()),
        json(&Scenario::builder().xl2().seed(7).build())
    );
    // Presets only rewrite their documented knobs on top of the defaults.
    let default = Scenario::builder().seed(9).build();
    let xl2 = Scenario::builder().xl2().seed(9).build();
    assert_eq!(xl2.peers, 1_048_576);
    assert_eq!(xl2.topology, TopologyKind::Ts50k);
    assert_eq!(xl2.oracle_capacity, proxbal_sim::XL2_ORACLE_CAPACITY);
    assert_eq!(xl2.vs_per_peer, default.vs_per_peer);
    assert_eq!(xl2.landmarks, default.landmarks);
    assert_eq!(xl2.shards, 8);
    // The oracle_capacity knob flows through prepare(): bounded and
    // unbounded caches build the identical network and landmarks.
    let bounded = Scenario::builder()
        .small()
        .seed(8)
        .oracle_capacity(16)
        .build()
        .prepare();
    let unbounded = Scenario::builder().small().seed(8).build().prepare();
    assert_eq!(bounded.net.alive_vs_count(), unbounded.net.alive_vs_count());
    assert_eq!(bounded.landmarks, unbounded.landmarks);
}
