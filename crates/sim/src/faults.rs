//! The message-level DES of the tree protocols, with deterministic fault
//! injection.
//!
//! The LBI aggregation and dissemination phases run message by message
//! over the physical topology: each tree edge costs its shortest-path
//! latency and a parent forwards only once every contributing child has
//! reported. A seeded [`FaultPlan`] is the adversary: it drops or delays
//! individual messages, crash-stops peers mid-round (their virtual servers
//! and KT positions die with them), and rewires KT links to stale parents.
//! The robustness machinery is what the paper implies but never specifies:
//! per-message retry with exponential backoff ([`RetryPolicy`]) and
//! sender-side give-up, so a phase *degrades* (partial coverage, reported
//! through [`FaultPhaseOutcome`]) instead of hanging or panicking. Under
//! [`FaultConfig::none`] every message arrives after its edge latency and
//! the completion time is the analytic root-path latency
//! ([`crate::latency::root_path_latencies`]).
//!
//! Everything is a pure function of `(FaultConfig, scenario seed)`: the
//! plan owns its own RNG stream and every fate is drawn in event-queue
//! order, so a faulty run is bit-identical across repeats and thread
//! counts, matching the repo's determinism contract.

use crate::des::{EventQueue, RetryPolicy, SimTime};
use crate::protocol::{PhaseTiming, ProtocolScratch};
use proxbal_chord::{ChordNetwork, PeerId};
use proxbal_core::Error;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::DistanceOracle;
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Declarative description of one fault regime. Embedded in
/// [`crate::Scenario`] so a faulty experiment round-trips through serde
/// like any other.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a single transmission is silently dropped.
    pub loss_rate: f64,
    /// Probability that a transmission is delayed (but delivered).
    pub delay_rate: f64,
    /// Maximum extra delay of a delayed transmission, in latency units.
    pub max_delay: SimTime,
    /// Fraction of peers crash-stopped at random times inside the phase
    /// window (the KT root's host is never picked).
    pub crash_fraction: f64,
    /// Number of KT links rewired to a stale parent before the run.
    pub stale_parents: usize,
    /// Seed of the plan's private RNG stream.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all (the identity plan).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            loss_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            crash_fraction: 0.0,
            stale_parents: 0,
            seed,
        }
    }

    /// The sweep shape used by `repro faults`: message loss at `rate`,
    /// delays at half that rate, and a crash wave of `rate/2` of the peers.
    /// `rate = 0` degenerates to [`FaultConfig::none`].
    pub fn with_loss(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0, 1)");
        FaultConfig {
            loss_rate: rate,
            delay_rate: rate / 2.0,
            max_delay: 50,
            crash_fraction: rate / 2.0,
            stale_parents: if rate > 0.0 { 3 } else { 0 },
            seed,
        }
    }
}

/// What the plan decides for one transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered after the edge latency.
    Deliver,
    /// Delivered after the edge latency plus this much extra delay.
    DelayBy(SimTime),
    /// Silently dropped (the sender times out and retries).
    Drop,
}

/// A seeded source of fault decisions. One plan drives one experiment; its
/// RNG stream is private, so faulty runs never perturb the scenario RNG
/// and the fault-free code paths stay byte-identical.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StdRng,
}

impl FaultPlan {
    /// Builds the plan for a config (the RNG derives from `cfg.seed`).
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA_17),
        }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draws the fate of one transmission. Fates are consumed in
    /// event-queue order, which is deterministic.
    pub fn message_fate(&mut self) -> MessageFate {
        if self.cfg.loss_rate == 0.0 && self.cfg.delay_rate == 0.0 {
            return MessageFate::Deliver;
        }
        let draw: f64 = self.rng.gen();
        if draw < self.cfg.loss_rate {
            MessageFate::Drop
        } else if draw < self.cfg.loss_rate + self.cfg.delay_rate {
            MessageFate::DelayBy(self.rng.gen_range(1..=self.cfg.max_delay.max(1)))
        } else {
            MessageFate::Deliver
        }
    }

    /// Draws the crash-stop schedule: `crash_fraction` of the alive peers
    /// (never `exclude`, the KT root's host) die at uniform times in
    /// `[1, horizon)`.
    pub fn crash_schedule(
        &mut self,
        net: &ChordNetwork,
        exclude: PeerId,
        horizon: SimTime,
    ) -> Vec<(SimTime, PeerId)> {
        use rand::seq::SliceRandom;
        let mut peers = net.alive_peers();
        peers.retain(|&p| p != exclude);
        let n = ((peers.len() as f64) * self.cfg.crash_fraction).round() as usize;
        peers.shuffle(&mut self.rng);
        peers.truncate(n);
        let mut schedule: Vec<(SimTime, PeerId)> = peers
            .into_iter()
            .map(|p| (self.rng.gen_range(1..horizon.max(2)), p))
            .collect();
        schedule.sort_unstable();
        schedule
    }

    /// Picks `stale_parents` KT links to rewire: children at depth ≥ 2
    /// whose parent pointer will be left dangling at the root (the one node
    /// every peer can always locate — exactly the stale pointer a pruned
    /// parent leaves behind). Returns the chosen children, deterministic
    /// for the plan's stream.
    pub fn pick_stale_links(&mut self, tree: &KTree) -> Vec<KtNodeId> {
        use rand::seq::SliceRandom;
        let mut candidates: Vec<KtNodeId> = tree
            .iter_ids()
            .filter(|&id| tree.node(id).depth >= 2)
            .collect();
        candidates.sort_unstable();
        let n = self.cfg.stale_parents.min(candidates.len());
        candidates.shuffle(&mut self.rng);
        candidates.truncate(n);
        candidates.sort_unstable();
        candidates
    }

    /// Picks a post-VSA crash wave among `candidates` (typically the
    /// receiving peers of the assignments): `crash_fraction` of them, used
    /// to exercise the transfer-requeue path.
    pub fn pick_transfer_victims(&mut self, candidates: &[PeerId]) -> Vec<PeerId> {
        use rand::seq::SliceRandom;
        let n = ((candidates.len() as f64) * self.cfg.crash_fraction).round() as usize;
        let mut victims = candidates.to_vec();
        victims.shuffle(&mut self.rng);
        victims.truncate(n);
        victims.sort_unstable();
        victims
    }
}

/// Outcome of one fault-injected phase: the usual timing plus coverage and
/// retry accounting. `timing.completion` is the instant the phase resolved
/// (last useful delivery or give-up at the root).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultPhaseOutcome {
    /// Message-level timing (messages include retransmissions).
    pub timing: PhaseTiming,
    /// Units whose information made it through (aggregation: contributors
    /// whose whole root path delivered; dissemination: KT nodes reached).
    pub delivered: usize,
    /// Units that had to make it through under no faults.
    pub expected: usize,
    /// Retransmission attempts (subset of `timing.messages`).
    pub retries: usize,
    /// Edges abandoned after the retry budget was exhausted.
    pub gave_up: usize,
}

impl FaultPhaseOutcome {
    /// Fraction of expected units delivered (1.0 when nothing was expected).
    pub fn completion_rate(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

#[derive(Debug)]
enum FEvent {
    /// `from` (re)transmits its message to `to`; `attempt` is 0-based.
    Send {
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    },
    /// The transmission arrives at `to`.
    Deliver {
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    },
}

/// Shared state of one faulty phase run.
struct FaultRun<'a> {
    net: &'a ChordNetwork,
    tree: &'a KTree,
    oracle: &'a DistanceOracle,
    plan: &'a mut FaultPlan,
    retry: RetryPolicy,
    /// Crash-stop instants by peer (absent = never crashes).
    crash_at: HashMap<PeerId, SimTime>,
    queue: EventQueue<FEvent>,
    timing: PhaseTiming,
    retries: usize,
    gave_up: usize,
    /// Edge `child → parent` delivered (indexed by child slot).
    edge_delivered: Vec<bool>,
    /// Messages travel parent → child (dissemination) rather than
    /// child → parent (aggregation).
    downward: bool,
    trace: &'a mut Trace,
}

impl<'a> FaultRun<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        net: &'a ChordNetwork,
        tree: &'a KTree,
        oracle: &'a DistanceOracle,
        plan: &'a mut FaultPlan,
        retry: RetryPolicy,
        crashes: &[(SimTime, PeerId)],
        downward: bool,
        trace: &'a mut Trace,
    ) -> Self {
        FaultRun {
            net,
            tree,
            oracle,
            plan,
            retry,
            crash_at: crashes.iter().map(|&(t, p)| (p, t)).collect(),
            queue: EventQueue::new(),
            timing: PhaseTiming {
                completion: 0,
                messages: 0,
                losses: 0,
            },
            retries: 0,
            gave_up: 0,
            edge_delivered: vec![false; tree.slot_bound()],
            downward,
            trace,
        }
    }

    /// Records the run's end-of-phase counters into the trace.
    fn finish_counters(&mut self) {
        self.trace
            .count("des_messages", self.timing.messages as u64);
        self.trace.count("des_losses", self.timing.losses as u64);
        self.trace.count("des_retries", self.retries as u64);
        self.trace.count("des_gave_up", self.gave_up as u64);
        self.trace
            .record("des_queue_peak", self.queue.high_water() as u64);
    }

    /// The peer hosting a KT node (via its planted virtual server).
    fn host_peer(&self, id: KtNodeId) -> PeerId {
        self.net.vs(self.tree.node(id).host).host
    }

    /// Whether the peer hosting `id` is still up at `t` (crash-stop: dead
    /// forever from its crash instant on).
    fn alive_at(&self, id: KtNodeId, t: SimTime) -> bool {
        self.crash_at
            .get(&self.host_peer(id))
            .is_none_or(|&ct| t < ct)
    }

    /// Handles a `Send` at time `t`: draws the fate, schedules the delivery
    /// or the retry chain. Returns `Some(give_up_time)` when the sender
    /// exhausted its retry budget (or died), i.e. the edge failed.
    fn transmit(
        &mut self,
        scratch: &mut ProtocolScratch,
        t: SimTime,
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    ) -> Result<Option<SimTime>, Error> {
        if !self.alive_at(from, t) {
            // Crash-stop mid-retry-chain: the sender is gone; its parent
            // times out after the full remaining window.
            return Ok(Some(t + self.remaining_window(attempt)));
        }
        self.timing.messages += 1;
        if attempt > 0 {
            self.retries += 1;
        }
        // The latency memo is keyed by the edge's child end.
        let (child, parent) = if self.downward {
            (to, from)
        } else {
            (from, to)
        };
        let latency = scratch.edge_latency(self.net, self.oracle, self.tree, child, parent)?;
        match self.plan.message_fate() {
            MessageFate::Drop => {
                self.timing.losses += 1;
                Ok(self.retry_or_fail(t, from, to, attempt))
            }
            MessageFate::DelayBy(extra) => {
                self.queue
                    .schedule(t + latency + extra, FEvent::Deliver { from, to, attempt });
                Ok(None)
            }
            MessageFate::Deliver => {
                self.queue
                    .schedule(t + latency, FEvent::Deliver { from, to, attempt });
                Ok(None)
            }
        }
    }

    /// After a failed attempt at time `t`: schedules the next retry, or
    /// reports the edge's give-up time once the budget is exhausted.
    fn retry_or_fail(
        &mut self,
        t: SimTime,
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    ) -> Option<SimTime> {
        let timeout = self.retry.timeout_after(attempt);
        if attempt < self.retry.max_retries {
            self.trace.record("des_backoff_delay", timeout);
            self.queue.schedule(
                t + timeout,
                FEvent::Send {
                    from,
                    to,
                    attempt: attempt + 1,
                },
            );
            None
        } else {
            self.gave_up += 1;
            Some(t + timeout)
        }
    }

    /// Worst-case remaining wait from attempt `attempt` to final give-up —
    /// the stand-in for the receiver-side wait timer when a sender dies
    /// silently.
    fn remaining_window(&self, attempt: u32) -> SimTime {
        (attempt..=self.retry.max_retries).fold(0, |acc: SimTime, a| {
            acc.saturating_add(self.retry.timeout_after(a))
        })
    }
}

/// Bottom-up LBI aggregation as individual messages: every KT node on the
/// path from a contributing node to the root forwards upward once all its
/// contributing children have reported. `contributors` may repeat nodes
/// and come in any order; the simulation is a function of the contributor
/// *set*. Messages follow the plan's fates, senders retry with
/// exponential backoff and give up after the budget, and peers crash-stop
/// mid-phase. A parent whose child edge permanently failed stops waiting
/// for it (the fold of its wait timer into the give-up instant), so the
/// phase always terminates — with partial coverage instead of an error.
/// Untraced; see [`simulate_aggregation_faulty_traced`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_aggregation_faulty(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    contributors: &[KtNodeId],
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    scratch: &mut ProtocolScratch,
) -> Result<FaultPhaseOutcome, Error> {
    simulate_aggregation_faulty_traced(
        net,
        tree,
        oracle,
        contributors,
        plan,
        retry,
        crashes,
        scratch,
        &mut Trace::disabled(),
    )
}

/// [`simulate_aggregation_faulty`] recording DES metrics into `trace`:
/// `des_messages` / `des_losses` / `des_retries` / `des_gave_up` counters,
/// the `des_backoff_delay` histogram (one sample per scheduled retry), and
/// `des_queue_depth` / `des_queue_peak`. The simulation is bit-identical
/// with tracing on or off. Spans are the caller's job — only the caller
/// knows where this phase sits on the virtual timeline.
#[allow(clippy::too_many_arguments)]
pub fn simulate_aggregation_faulty_traced(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    contributors: &[KtNodeId],
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    scratch: &mut ProtocolScratch,
    trace: &mut Trace,
) -> Result<FaultPhaseOutcome, Error> {
    scratch.bind(tree);
    let mut run = FaultRun::new(net, tree, oracle, plan, retry, crashes, false, trace);

    // Active nodes: contributors and all their ancestors.
    let mut any_active = false;
    for &c in contributors {
        let mut cur = Some(c);
        while let Some(id) = cur {
            let slot = id.0 as usize;
            if std::mem::replace(&mut scratch.active[slot], true) {
                break;
            }
            any_active = true;
            cur = tree.node(id).parent;
        }
    }
    // Distinct contributors (the unit of the completion rate).
    let mut distinct: Vec<KtNodeId> = contributors.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let expected = distinct.len();
    if !any_active {
        run.finish_counters();
        return Ok(FaultPhaseOutcome {
            timing: run.timing,
            delivered: 0,
            expected,
            retries: 0,
            gave_up: 0,
        });
    }

    for slot in 0..scratch.active.len() {
        if !scratch.active[slot] {
            continue;
        }
        let n = KtNodeId(slot as u32);
        scratch.pending[slot] = tree
            .node(n)
            .children
            .iter()
            .flatten()
            .filter(|c| scratch.active[c.0 as usize])
            .count() as u32;
    }

    let mut root_done = false;
    let mut completion: SimTime = 0;

    // `edge_failed` propagation: edge `child → parent` permanently failed
    // at `fail_t`. The parent stops waiting; if that makes it ready but it
    // is dead, its own edge fails one give-up window later, and so on up.
    // Implemented as an explicit loop (shared by several handlers below).
    macro_rules! on_ready {
        ($run:expr, $scratch:expr, $node:expr, $t:expr) => {{
            match tree.node($node).parent {
                Some(parent) => $run.queue.schedule(
                    $t,
                    FEvent::Send {
                        from: $node,
                        to: parent,
                        attempt: 0,
                    },
                ),
                None => {
                    root_done = true;
                    completion = completion.max($t);
                }
            }
        }};
    }
    macro_rules! edge_failed {
        ($run:expr, $scratch:expr, $child:expr, $fail_t:expr) => {{
            let mut cur = $child;
            let mut t = $fail_t;
            loop {
                let Some(parent) = tree.node(cur).parent else {
                    // The root's own information is never "sent"; a failed
                    // chain ending at the root just resolves the wait.
                    root_done = true;
                    completion = completion.max(t);
                    break;
                };
                let slot = parent.0 as usize;
                scratch.pending[slot] -= 1;
                if scratch.pending[slot] > 0 {
                    break;
                }
                if $run.alive_at(parent, t) {
                    on_ready!($run, $scratch, parent, t);
                    break;
                }
                // Dead parent became "ready": its upward edge fails after
                // the full give-up window (nobody transmits for it).
                t = t.saturating_add($run.remaining_window(0));
                cur = parent;
            }
        }};
    }

    // Leaves of the active set fire at t = 0, in ascending slot order, so
    // fates bind to leaves deterministically.
    for slot in 0..scratch.active.len() {
        if !scratch.active[slot] || scratch.pending[slot] != 0 {
            continue;
        }
        let n = KtNodeId(slot as u32);
        if run.alive_at(n, 0) {
            on_ready!(run, scratch, n, 0);
        } else {
            edge_failed!(run, scratch, n, run.remaining_window(0));
        }
    }

    while let Some((t, ev)) = run.queue.pop() {
        run.trace.record("des_queue_depth", run.queue.len() as u64);
        match ev {
            FEvent::Send { from, to, attempt } => {
                if let Some(fail_t) = run.transmit(scratch, t, from, to, attempt)? {
                    edge_failed!(run, scratch, from, fail_t);
                }
            }
            FEvent::Deliver { from, to, attempt } => {
                if !run.alive_at(to, t) {
                    // Receiver crashed: no ack, the sender times out.
                    run.timing.losses += 1;
                    if let Some(fail_t) = run.retry_or_fail(t, from, to, attempt) {
                        edge_failed!(run, scratch, from, fail_t);
                    }
                    continue;
                }
                run.edge_delivered[from.0 as usize] = true;
                let slot = to.0 as usize;
                scratch.pending[slot] -= 1;
                if scratch.pending[slot] == 0 {
                    on_ready!(run, scratch, to, t);
                }
            }
        }
    }
    debug_assert!(root_done, "every waiting chain resolves by construction");
    run.timing.completion = completion;
    run.finish_counters();

    // A contributor's LBI reached the root iff every edge on its root path
    // delivered (crash-stop losses show up as missing edges: a node that
    // died after receiving never forwarded).
    let delivered = distinct
        .iter()
        .filter(|&&c| {
            let mut cur = c;
            while let Some(parent) = tree.node(cur).parent {
                if !run.edge_delivered[cur.0 as usize] {
                    return false;
                }
                cur = parent;
            }
            true
        })
        .count();

    Ok(FaultPhaseOutcome {
        timing: run.timing,
        delivered,
        expected,
        retries: run.retries,
        gave_up: run.gave_up,
    })
}

/// Top-down dissemination: the root broadcasts, every node forwards on
/// arrival; completion is the last delivery. Lost edges orphan their
/// subtree (no upstream propagation needed — an unreached node simply
/// never forwards). Coverage is `delivered / tree.len()`. Untraced; see
/// [`simulate_dissemination_faulty_traced`].
pub fn simulate_dissemination_faulty(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    scratch: &mut ProtocolScratch,
) -> Result<FaultPhaseOutcome, Error> {
    simulate_dissemination_faulty_traced(
        net,
        tree,
        oracle,
        plan,
        retry,
        crashes,
        scratch,
        &mut Trace::disabled(),
    )
}

/// [`simulate_dissemination_faulty`] with trace collection; same counters
/// and histograms as [`simulate_aggregation_faulty_traced`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_dissemination_faulty_traced(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    scratch: &mut ProtocolScratch,
    trace: &mut Trace,
) -> Result<FaultPhaseOutcome, Error> {
    scratch.bind(tree);
    let mut run = FaultRun::new(net, tree, oracle, plan, retry, crashes, true, trace);
    let mut reached = 0usize;

    let fanout = |run: &mut FaultRun<'_>, node: KtNodeId, t: SimTime| {
        let children: Vec<KtNodeId> = tree.node(node).children.iter().flatten().copied().collect();
        for child in children {
            run.queue.schedule(
                t,
                FEvent::Send {
                    from: node,
                    to: child,
                    attempt: 0,
                },
            );
        }
    };

    scratch.delivered[tree.root().0 as usize] = true;
    reached += 1;
    fanout(&mut run, tree.root(), 0);

    while let Some((t, ev)) = run.queue.pop() {
        run.trace.record("des_queue_depth", run.queue.len() as u64);
        match ev {
            FEvent::Send { from, to, attempt } => {
                // A failed edge orphans `to`'s subtree; nothing to notify.
                let _ = run.transmit(scratch, t, from, to, attempt)?;
            }
            FEvent::Deliver { from, to, attempt } => {
                if !run.alive_at(to, t) {
                    run.timing.losses += 1;
                    let _ = run.retry_or_fail(t, from, to, attempt);
                    continue;
                }
                if std::mem::replace(&mut scratch.delivered[to.0 as usize], true) {
                    continue;
                }
                reached += 1;
                run.timing.completion = run.timing.completion.max(t);
                fanout(&mut run, to, t);
            }
        }
    }
    run.finish_counters();

    Ok(FaultPhaseOutcome {
        timing: run.timing,
        delivered: reached,
        expected: tree.len(),
        retries: run.retries,
        gave_up: run.gave_up,
    })
}

/// Stale-link injection as a pluggable [`EventSource`]: on a fixed epoch
/// cadence, `stale_parents` KT links are rewired to dangle at the root —
/// the pointer damage a pruned parent leaves behind — for the maintenance
/// machinery to repair. The plan is seeded independently of the engine's
/// DES shadow plan (label `0x57A1E`), so link damage and message fates
/// draw from disjoint streams.
///
/// [`EventSource`]: crate::engine::EventSource
pub struct FaultSource {
    plan: FaultPlan,
    interval: usize,
}

impl FaultSource {
    /// Builds the source: stale links are injected on epochs where
    /// `epoch % interval == 0` (`interval = 0` means only at epoch 0).
    pub fn new(cfg: FaultConfig, interval: usize) -> Self {
        let plan = FaultPlan::new(FaultConfig {
            seed: cfg.seed ^ 0x57A1E,
            ..cfg
        });
        FaultSource { plan, interval }
    }
}

impl crate::engine::EventSource for FaultSource {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn on_epoch(
        &mut self,
        epoch: usize,
        _window: u64,
        world: &mut crate::engine::World<'_>,
    ) -> crate::engine::SourceActivity {
        let due = if self.interval == 0 {
            epoch == 0
        } else {
            epoch.is_multiple_of(self.interval)
        };
        let mut activity = crate::engine::SourceActivity::default();
        if due {
            let root = world.tree.root();
            for child in self.plan.pick_stale_links(world.tree) {
                world.tree.inject_stale_parent(child, root);
                activity.stale_links += 1;
            }
        }
        activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::root_path_latencies;
    use crate::{Scenario, TopologyKind};

    fn setup() -> (crate::Prepared, KTree) {
        let mut scenario = Scenario::builder().small().seed(60).build();
        scenario.peers = 96;
        scenario.topology = TopologyKind::Tiny;
        let prepared = scenario.prepare();
        let tree = KTree::build(&prepared.net, 2);
        (prepared, tree)
    }

    fn all_report_targets(prepared: &crate::Prepared, tree: &KTree) -> Vec<KtNodeId> {
        let mut targets: Vec<KtNodeId> = prepared
            .net
            .ring()
            .iter()
            .map(|(_, vs)| tree.report_target(&prepared.net, vs))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// One aggregation over `contributors` under `cfg`, no crashes.
    fn aggregate(
        prepared: &crate::Prepared,
        tree: &KTree,
        contributors: &[KtNodeId],
        cfg: FaultConfig,
        retry: RetryPolicy,
        scratch: &mut ProtocolScratch,
    ) -> FaultPhaseOutcome {
        simulate_aggregation_faulty(
            &prepared.net,
            tree,
            prepared.oracle.as_ref().unwrap(),
            contributors,
            &mut FaultPlan::new(cfg),
            retry,
            &[],
            scratch,
        )
        .expect("attached")
    }

    fn run_agg(
        prepared: &crate::Prepared,
        tree: &KTree,
        cfg: FaultConfig,
    ) -> (FaultPhaseOutcome, FaultPhaseOutcome) {
        let oracle = prepared.oracle.as_ref().unwrap();
        let contributors = all_report_targets(prepared, tree);
        let mut plan = FaultPlan::new(cfg);
        let root_host = prepared.net.vs(tree.node(tree.root()).host).host;
        let crashes = plan.crash_schedule(&prepared.net, root_host, 300);
        let mut scratch = ProtocolScratch::new();
        let agg = simulate_aggregation_faulty(
            &prepared.net,
            tree,
            oracle,
            &contributors,
            &mut plan,
            RetryPolicy::protocol_default(),
            &crashes,
            &mut scratch,
        )
        .expect("attached");
        let dis = simulate_dissemination_faulty(
            &prepared.net,
            tree,
            oracle,
            &mut plan,
            RetryPolicy::protocol_default(),
            &crashes,
            &mut scratch,
        )
        .expect("attached");
        (agg, dis)
    }

    #[test]
    fn no_faults_means_full_coverage_and_reliable_timing() {
        let (prepared, tree) = setup();
        let (agg, dis) = run_agg(&prepared, &tree, FaultConfig::none(7));
        assert_eq!(agg.completion_rate(), 1.0);
        assert_eq!(dis.completion_rate(), 1.0);
        assert_eq!(agg.retries, 0);
        assert_eq!(agg.gave_up, 0);
        assert_eq!(agg.timing.losses, 0);
        // Without faults each phase finishes at the analytic maximum
        // root-path latency (aggregation: over the contributing nodes;
        // dissemination: over every node), and the broadcast sends exactly
        // one message per tree edge.
        let oracle = prepared.oracle.as_ref().unwrap();
        let paths = root_path_latencies(&prepared.net, oracle, &tree);
        let contributors = all_report_targets(&prepared, &tree);
        let agg_analytic = contributors.iter().map(|c| paths[*c]).max().unwrap();
        assert_eq!(agg.timing.completion, agg_analytic);
        assert_eq!(dis.timing.completion, *paths.values().max().unwrap());
        assert_eq!(dis.timing.messages, tree.len() - 1);
    }

    #[test]
    fn partial_contributors_complete_sooner_or_equal() {
        let (prepared, tree) = setup();
        let all = all_report_targets(&prepared, &tree);
        let few: Vec<KtNodeId> = all.iter().copied().take(3).collect();
        let none = FaultConfig::none(2);
        let retry = RetryPolicy::protocol_default();
        let mut scratch = ProtocolScratch::new();
        let t_all = aggregate(&prepared, &tree, &all, none, retry, &mut scratch).timing;
        let t_few = aggregate(&prepared, &tree, &few, none, retry, &mut scratch).timing;
        assert!(t_few.completion <= t_all.completion);
        assert!(t_few.messages < t_all.messages);
    }

    #[test]
    fn loss_delays_but_completes() {
        let (prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        // A constant 20-unit timeout with a retry budget no run exhausts:
        // every message eventually gets through.
        let patient = RetryPolicy {
            base_timeout: 20,
            backoff: 1,
            max_retries: 64,
        };
        let mut scratch = ProtocolScratch::new();
        let reliable = aggregate(
            &prepared,
            &tree,
            &contributors,
            FaultConfig::none(3),
            patient,
            &mut scratch,
        );
        let lossy = aggregate(
            &prepared,
            &tree,
            &contributors,
            FaultConfig {
                loss_rate: 0.3,
                ..FaultConfig::none(3)
            },
            patient,
            &mut scratch,
        );
        assert!(lossy.timing.losses > 0);
        assert_eq!(lossy.gave_up, 0);
        assert_eq!(lossy.completion_rate(), 1.0);
        assert!(lossy.timing.completion >= reliable.timing.completion);
        assert!(lossy.timing.messages > reliable.timing.messages);
    }

    #[test]
    fn empty_contributor_set_is_trivial() {
        let (prepared, tree) = setup();
        let timing = aggregate(
            &prepared,
            &tree,
            &[],
            FaultConfig::none(5),
            RetryPolicy::protocol_default(),
            &mut ProtocolScratch::new(),
        )
        .timing;
        assert_eq!(timing.completion, 0);
        assert_eq!(timing.messages, 0);
    }

    #[test]
    fn unattached_peer_is_a_typed_error() {
        let (mut prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        // Detach every peer: any inter-peer tree edge now has no latency.
        let peers: Vec<_> = prepared.net.alive_peers();
        for p in &peers {
            prepared.net.attach(*p, u32::MAX);
        }
        let err = simulate_aggregation_faulty(
            &prepared.net,
            &tree,
            prepared.oracle.as_ref().unwrap(),
            &contributors,
            &mut FaultPlan::new(FaultConfig::none(6)),
            RetryPolicy::protocol_default(),
            &[],
            &mut ProtocolScratch::new(),
        )
        .expect_err("unattached peers must not simulate");
        assert!(matches!(err, Error::UnattachedPeer(_)));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        let retry = RetryPolicy::protocol_default();
        let cfg = |i: u64| FaultConfig {
            loss_rate: 0.2,
            ..FaultConfig::none(100 + i)
        };
        let fresh: Vec<FaultPhaseOutcome> = (0..4)
            .map(|i| {
                let scratch = &mut ProtocolScratch::new();
                aggregate(&prepared, &tree, &contributors, cfg(i), retry, scratch)
            })
            .collect();
        let mut scratch = ProtocolScratch::new();
        let pooled: Vec<FaultPhaseOutcome> = (0..4)
            .map(|i| aggregate(&prepared, &tree, &contributors, cfg(i), retry, &mut scratch))
            .collect();
        for (f, p) in fresh.iter().zip(&pooled) {
            assert_eq!(f.timing.completion, p.timing.completion);
            assert_eq!(f.timing.messages, p.timing.messages);
            assert_eq!(f.timing.losses, p.timing.losses);
            assert_eq!(f.delivered, p.delivered);
        }
    }

    #[test]
    fn edge_memo_follows_virtual_server_transfers() {
        let (mut prepared, tree) = setup();
        let oracle = prepared.oracle.as_ref().unwrap();
        let host = |net: &ChordNetwork, id: KtNodeId| net.vs(tree.node(id).host).host;
        // An edge whose endpoints sit on different peers.
        let (child, parent) = tree
            .iter_ids()
            .filter_map(|c| tree.node(c).parent.map(|p| (c, p)))
            .find(|&(c, p)| host(&prepared.net, c) != host(&prepared.net, p))
            .expect("a cross-peer edge");
        let mut scratch = ProtocolScratch::new();
        scratch.bind(&tree);
        let before = scratch
            .edge_latency(&prepared.net, oracle, &tree, child, parent)
            .unwrap();
        // Move the child's virtual server to a peer whose underlay node
        // is a different distance from the parent's host.
        let parent_node = prepared.net.peer(host(&prepared.net, parent)).underlay;
        let to = prepared
            .net
            .alive_peers()
            .into_iter()
            .find(|&p| {
                let node = prepared.net.peer(p).underlay;
                node != parent_node && SimTime::from(oracle.distance(node, parent_node)) != before
            })
            .expect("a peer at another distance");
        prepared.net.transfer_vs(tree.node(child).host, to);

        scratch.bind(&tree);
        let reused = scratch
            .edge_latency(&prepared.net, oracle, &tree, child, parent)
            .unwrap();
        let mut fresh = ProtocolScratch::new();
        fresh.bind(&tree);
        let expected = fresh
            .edge_latency(&prepared.net, oracle, &tree, child, parent)
            .unwrap();
        assert_ne!(expected, before);
        assert_eq!(reused, expected);
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let (prepared, tree) = setup();
        let cfg = FaultConfig::with_loss(0.1, 42);
        let (a1, d1) = run_agg(&prepared, &tree, cfg);
        let (a2, d2) = run_agg(&prepared, &tree, cfg);
        assert_eq!(a1.timing.completion, a2.timing.completion);
        assert_eq!(a1.timing.messages, a2.timing.messages);
        assert_eq!(a1.delivered, a2.delivered);
        assert_eq!(a1.gave_up, a2.gave_up);
        assert_eq!(d1.delivered, d2.delivered);
        assert_eq!(d1.timing.messages, d2.timing.messages);
    }

    #[test]
    fn more_loss_means_less_coverage_and_more_retries() {
        let (prepared, tree) = setup();
        let (mild_agg, mild_dis) = run_agg(&prepared, &tree, FaultConfig::with_loss(0.01, 9));
        let (harsh_agg, harsh_dis) = run_agg(&prepared, &tree, FaultConfig::with_loss(0.3, 9));
        assert!(harsh_agg.completion_rate() <= mild_agg.completion_rate());
        assert!(harsh_dis.completion_rate() <= mild_dis.completion_rate());
        assert!(harsh_agg.retries > mild_agg.retries);
        // Mild faults still deliver the vast majority.
        assert!(mild_agg.completion_rate() > 0.8);
        assert!(mild_dis.completion_rate() > 0.8);
    }

    #[test]
    fn crash_stop_takes_subtrees_with_it() {
        let (prepared, tree) = setup();
        // Pure crash regime: no message loss, a tenth of the peers die.
        let cfg = FaultConfig {
            loss_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            crash_fraction: 0.1,
            stale_parents: 0,
            seed: 5,
        };
        let (agg, dis) = run_agg(&prepared, &tree, cfg);
        assert!(agg.delivered < agg.expected, "crashes must cost coverage");
        assert!(dis.delivered < dis.expected);
        assert!(
            agg.completion_rate() > 0.0,
            "the phase still degrades gracefully"
        );
    }

    #[test]
    fn fate_stream_is_seed_stable() {
        let mut a = FaultPlan::new(FaultConfig::with_loss(0.2, 11));
        let mut b = FaultPlan::new(FaultConfig::with_loss(0.2, 11));
        for _ in 0..100 {
            assert_eq!(a.message_fate(), b.message_fate());
        }
    }
}
