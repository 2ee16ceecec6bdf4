use proxbal_chord::ChordNetwork;
use proxbal_core::{BalancerConfig, LoadState, Underlay};
use proxbal_topology::{
    select_landmarks, DistanceOracle, NodeId, TransitStubConfig, TransitStubTopology,
};
use proxbal_workload::{CapacityProfile, LoadModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which physical topology to attach the overlay to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// The paper's "ts5k-large": a few big stub domains.
    Ts5kLarge,
    /// The paper's "ts5k-small": nodes scattered across the Internet.
    Ts5kSmall,
    /// A 50k-node transit-stub underlay (ts5k-large shape, 10× the size)
    /// for the xl2 runs.
    Ts50k,
    /// A tiny topology for tests and examples.
    Tiny,
    /// No underlay (proximity-ignorant experiments only).
    None,
}

/// Declarative description of one experiment, fully determined by `seed`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of DHT peers (paper: 4096).
    pub peers: usize,
    /// Virtual servers per peer at start (paper: 5).
    pub vs_per_peer: usize,
    /// Virtual-server load distribution.
    pub load: LoadModel,
    /// Node capacity profile.
    pub capacity: CapacityProfile,
    /// Physical topology.
    pub topology: TopologyKind,
    /// Number of landmarks (paper: 15).
    pub landmarks: usize,
    /// Balancer configuration.
    pub balancer: BalancerConfig,
    /// Fault regime driven through the protocol sims (`None` = the
    /// fault-free runs of the paper's evaluation). Kept out of `prepare`
    /// on purpose: faults never perturb scenario construction, so a faulty
    /// scenario shares its network/loads/topology bit-for-bit with the
    /// fault-free one.
    pub faults: Option<crate::faults::FaultConfig>,
    /// Churn regime for continuous operation (`None` = static membership).
    /// Like `faults`, never consulted by `prepare`.
    pub churn: Option<crate::churn::ChurnConfig>,
    /// Load-drift regime for continuous operation (`None` = static loads).
    /// Like `faults`, never consulted by `prepare`.
    pub drift: Option<crate::drift::DriftConfig>,
    /// Bound on both distance oracles' row caches, in resident rows
    /// (`0` = unbounded). [`Scenario::prepare`] honors this directly:
    /// memory policy is part of the scenario, set once at build time.
    pub oracle_capacity: usize,
    /// Number of preparation shards (`0` = peers join serially).
    /// With `shards > 0`, ring-position generation is partitioned across
    /// this many independent workers and merged deterministically — the
    /// result depends on `shards` but never on `--threads`.
    pub shards: usize,
    /// Master seed: every random choice derives from it.
    pub seed: u64,
}

/// Oracle row-cache bound for the xl2 (million-peer) runs. Rows are
/// delta-compressed, and at 1M peers the overlay itself takes most of the
/// memory budget, so the cache stays small; transfer distances never need
/// resident rows (they fall back to target-bounded sweeps).
pub const XL2_ORACLE_CAPACITY: usize = 1024;

impl Scenario {
    /// Starts a fluent builder preloaded with the paper's full-scale setup
    /// (§5.2): 4096 peers × 5 virtual servers, Gaussian loads, Gnutella
    /// capacities, ts5k-large, 15 landmarks, K = 2, seed 0.
    ///
    /// ```
    /// use proxbal_sim::{Scenario, TopologyKind};
    ///
    /// let scenario = Scenario::builder()
    ///     .peers(256)
    ///     .topology(TopologyKind::Tiny)
    ///     .landmarks(4)
    ///     .seed(7)
    ///     .build();
    /// let prepared = scenario.prepare();
    /// assert_eq!(prepared.net.alive_peers().len(), 256);
    /// ```
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Builds the network, loads, topology, oracle and landmarks. The
    /// oracle row caches are bounded to [`Scenario::oracle_capacity`]
    /// resident rows (`0` = unbounded), with landmark rows pinned so they
    /// survive eviction pressure. Every result is bit-identical across
    /// capacity settings — eviction only discards memoized pure functions
    /// of the graph.
    ///
    /// With [`Scenario::shards`] `> 0` the peers join from shard-drawn
    /// ring positions ([`crate::shard`]); the result is deterministic in
    /// the scenario (including `shards`) and independent of the
    /// worker-thread count.
    pub fn prepare(&self) -> Prepared {
        self.prepare_threads(proxbal_parallel::default_threads())
    }

    /// Like [`Scenario::prepare`] with an explicit worker-thread count.
    /// Thread count never changes the result — it only bounds parallelism.
    /// Per-phase heartbeat lines (topology, join, attach/landmarks, loads)
    /// go to the global [`proxbal_profile::progress`] sink, never to stdout,
    /// and never change the prepared result.
    pub fn prepare_threads(&self, threads: usize) -> Prepared {
        use proxbal_profile::progress;
        let mut rng = StdRng::seed_from_u64(self.seed);

        let config = match self.topology {
            TopologyKind::Ts5kLarge => Some(TransitStubConfig::ts5k_large()),
            TopologyKind::Ts5kSmall => Some(TransitStubConfig::ts5k_small()),
            TopologyKind::Ts50k => Some(TransitStubConfig::ts50k()),
            TopologyKind::Tiny => Some(TransitStubConfig::tiny()),
            TopologyKind::None => None,
        };
        let topo = config.map(|c| TransitStubTopology::generate(c, &mut rng));
        if let Some(ref topo) = topo {
            progress::event(&format!(
                "prepare: topology generated ({} nodes)",
                topo.graph.node_count()
            ));
        }

        let mut net = if self.shards == 0 {
            let mut net = ChordNetwork::new();
            for i in 0..self.peers {
                net.join_peer(self.vs_per_peer, &mut rng);
                if (i + 1).is_multiple_of(65_536) {
                    progress::event(&format!("prepare: joined {}/{} peers", i + 1, self.peers));
                }
            }
            net
        } else {
            crate::shard::join_sharded(self, threads, &mut rng)
        };

        // Attach peers to distinct random stub nodes (peers are end hosts);
        // only fall back to sharing when there are more peers than stubs.
        let (oracle, latency_oracle, landmarks) = if let Some(ref topo) = topo {
            let mut stubs = topo.stub_nodes();
            assert!(!stubs.is_empty());
            stubs.shuffle(&mut rng);
            for (i, p) in net.alive_peers().into_iter().enumerate() {
                net.attach(p, stubs[i % stubs.len()]);
            }
            let landmarks = select_landmarks(topo, self.landmarks, &mut rng);
            let cap = self.oracle_capacity;
            let oracle = DistanceOracle::with_capacity(Arc::new(topo.graph.clone()), cap);
            let latency_oracle =
                DistanceOracle::with_capacity(Arc::new(topo.latency_graph.clone()), cap);
            // Landmark vectors need the distance row *from* each landmark in
            // the latency metric; batch-fill them up front so no balancing
            // run (aware or ignorant, any mode ordering) computes one twice.
            latency_oracle.precompute(&landmarks, threads);
            // Landmark rows back every proximity query; with a bounded
            // cache they must survive arbitrary eviction pressure.
            if cap > 0 {
                for &l in &landmarks {
                    latency_oracle.pin(l);
                }
            }
            progress::event(&format!(
                "prepare: peers attached, {} landmark rows precomputed",
                landmarks.len()
            ));
            (Some(oracle), Some(latency_oracle), landmarks)
        } else {
            (None, None, Vec::new())
        };

        let loads = LoadState::generate(&net, &self.capacity, &self.load, &mut rng);
        progress::event("prepare: load state generated");

        Prepared {
            scenario: self.clone(),
            net,
            loads,
            topo,
            oracle,
            latency_oracle,
            landmarks,
            rng,
            threads,
        }
    }
}

/// Fluent construction of a [`Scenario`] — the one front door for every
/// experiment configuration (one-shot figures, fault sweeps, xl2 runs
/// and the continuous-operation engine alike).
///
/// A fresh builder carries the paper's full-scale defaults; the
/// [`ScenarioBuilder::small`] and [`ScenarioBuilder::xl2`] presets rescale
/// them wholesale, and every knob has an individual setter. `build` is
/// infallible: all invariants are enforced by types and the few numeric
/// ones (`peers >= 1`, …) by the same asserts `prepare` always had.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A builder with the paper's full-scale defaults (see
    /// [`Scenario::builder`]).
    pub fn new() -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                peers: 4096,
                vs_per_peer: 5,
                load: LoadModel::gaussian(1_000_000.0, 10_000.0),
                capacity: CapacityProfile::gnutella(),
                topology: TopologyKind::Ts5kLarge,
                landmarks: 15,
                balancer: BalancerConfig::default(),
                faults: None,
                churn: None,
                drift: None,
                oracle_capacity: 0,
                shards: 0,
                seed: 0,
            },
        }
    }

    /// Rescales to the test-sized preset: 128 peers on the tiny topology
    /// with 4 landmarks (fast, same shape as the paper setup).
    pub fn small(mut self) -> Self {
        self.scenario.peers = 128;
        self.scenario.topology = TopologyKind::Tiny;
        self.scenario.landmarks = 4;
        self
    }

    /// Rescales to the xl2 (million-peer) preset: 1,048,576 peers × 5
    /// virtual servers over the ~50k-node transit-stub underlay, prepared
    /// across 8 shards with the oracle cache bounded to
    /// [`XL2_ORACLE_CAPACITY`] rows. Sharding is always on for this preset,
    /// so the run is identical at any `--threads`.
    pub fn xl2(mut self) -> Self {
        self.scenario.peers = 1_048_576;
        self.scenario.topology = TopologyKind::Ts50k;
        self.scenario.oracle_capacity = XL2_ORACLE_CAPACITY;
        self.scenario.shards = 8;
        self
    }

    /// Number of DHT peers (paper: 4096).
    pub fn peers(mut self, peers: usize) -> Self {
        self.scenario.peers = peers;
        self
    }

    /// Virtual servers per peer at start (paper: 5).
    pub fn vs_per_peer(mut self, vs_per_peer: usize) -> Self {
        self.scenario.vs_per_peer = vs_per_peer;
        self
    }

    /// Virtual-server load distribution.
    pub fn load(mut self, load: LoadModel) -> Self {
        self.scenario.load = load;
        self
    }

    /// Node capacity profile.
    pub fn capacity(mut self, capacity: CapacityProfile) -> Self {
        self.scenario.capacity = capacity;
        self
    }

    /// Physical topology.
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.scenario.topology = topology;
        self
    }

    /// Number of landmarks (paper: 15).
    pub fn landmarks(mut self, landmarks: usize) -> Self {
        self.scenario.landmarks = landmarks;
        self
    }

    /// Balancer configuration.
    pub fn balancer(mut self, balancer: BalancerConfig) -> Self {
        self.scenario.balancer = balancer;
        self
    }

    /// Fault regime (message loss, delay, crashes, stale links).
    pub fn faults(mut self, faults: crate::faults::FaultConfig) -> Self {
        self.scenario.faults = Some(faults);
        self
    }

    /// Churn regime for continuous operation.
    pub fn churn(mut self, churn: crate::churn::ChurnConfig) -> Self {
        self.scenario.churn = Some(churn);
        self
    }

    /// Load-drift regime for continuous operation.
    pub fn drift(mut self, drift: crate::drift::DriftConfig) -> Self {
        self.scenario.drift = Some(drift);
        self
    }

    /// Oracle row-cache bound in resident rows (`0` = unbounded).
    pub fn oracle_capacity(mut self, oracle_capacity: usize) -> Self {
        self.scenario.oracle_capacity = oracle_capacity;
        self
    }

    /// Number of preparation shards (`0` = peers join serially).
    pub fn shards(mut self, shards: usize) -> Self {
        self.scenario.shards = shards;
        self
    }

    /// Master seed: every random choice derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

/// A fully materialized scenario, ready to run.
pub struct Prepared {
    /// The source scenario.
    pub scenario: Scenario,
    /// The Chord overlay.
    pub net: ChordNetwork,
    /// Per-VS loads and per-peer capacities.
    pub loads: LoadState,
    /// The physical topology, if any.
    pub topo: Option<TransitStubTopology>,
    /// Hop-cost distance oracle over the topology, if any.
    pub oracle: Option<DistanceOracle>,
    /// Latency-metric oracle (landmark measurements), if any.
    pub latency_oracle: Option<DistanceOracle>,
    /// Landmark nodes.
    pub landmarks: Vec<NodeId>,
    /// The scenario RNG, positioned after setup (use for the run itself).
    pub rng: StdRng,
    /// Worker-thread count the scenario was prepared with; runs over this
    /// `Prepared` reuse it for the intra-round parallel sections. Purely a
    /// performance knob — every output is byte-identical at any value.
    pub threads: usize,
}

impl Prepared {
    /// The [`Underlay`] view required by proximity-aware balancing, if this
    /// scenario has a topology.
    ///
    /// The view borrows the whole `Prepared`, so a run that mutates the
    /// overlay while holding it first moves `net` and `loads` out
    /// (`std::mem::take`) and puts them back afterwards.
    pub fn underlay(&self) -> Option<Underlay<'_>> {
        self.oracle.as_ref().map(|oracle| Underlay {
            oracle,
            latency_oracle: self.latency_oracle.as_ref(),
            landmarks: &self.landmarks,
        })
    }

    /// A fresh RNG stream derived from the scenario seed and a label, for
    /// runs that must not perturb each other's randomness.
    pub fn derived_rng(&self, label: u64) -> StdRng {
        StdRng::seed_from_u64(self.scenario.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label)
    }
}
