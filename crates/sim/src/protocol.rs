//! Shared state of the message-level protocol simulations in
//! [`crate::faults`].
//!
//! The round counts of [`crate::experiments::rounds_scaling`] abstract away
//! link latencies; the fault-injected DES simulates the LBI aggregation and
//! dissemination phases message by message over the physical topology —
//! each tree edge costs its shortest-path latency and a parent forwards
//! only once every contributing child has reported. This module holds what
//! those drivers share: the per-phase [`PhaseTiming`] and the reusable
//! [`ProtocolScratch`]. The scratch pools the per-run node tables and the
//! per-edge latency memo, so a sweep that simulates hundreds of phases over
//! the same tree stops re-asking the distance oracle for the same tree
//! edge.

use crate::des::SimTime;
use proxbal_chord::ChordNetwork;
use proxbal_core::Error;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::DistanceOracle;
use serde::{Deserialize, Serialize};

/// Outcome of one simulated phase.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Simulated time at which the phase completed.
    pub completion: SimTime,
    /// Messages sent (including retransmissions).
    pub messages: usize,
    /// Messages lost and retransmitted.
    pub losses: usize,
}

/// Memo entry that matches no attached host pair: `u32::MAX` marks an
/// unattached peer, which [`ProtocolScratch::edge_latency`] rejects before
/// it consults the memo.
const UNMEMOIZED: (u32, u32, SimTime) = (u32::MAX, u32::MAX, 0);

/// Reusable working state for the phase simulations.
///
/// One scratch serves any number of runs over any trees. Per-node tables
/// are reset in O(tree size) on every bind. The edge-latency memo survives
/// across runs: each entry remembers the underlay pair it was computed
/// for, so an edge whose endpoints moved to other peers (a transfer, a
/// repair, a re-planted slot) is recomputed rather than served stale.
#[derive(Default)]
pub struct ProtocolScratch {
    /// Per child KT slot: `(child underlay, parent underlay, latency)` of
    /// the edge to its parent as last computed; [`UNMEMOIZED`] when unknown.
    edge_memo: Vec<(u32, u32, SimTime)>,
    /// Scratch bitmap: node participates in the current aggregation.
    pub(crate) active: Vec<bool>,
    /// Scratch table: active children the node still waits for.
    pub(crate) pending: Vec<u32>,
    /// Scratch bitmap: node already received the current dissemination.
    pub(crate) delivered: Vec<bool>,
}

impl ProtocolScratch {
    /// An empty scratch, bound to nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the scratch for `tree` and resets the per-run tables. The
    /// edge memo is only resized: its entries check their own host pair.
    pub(crate) fn bind(&mut self, tree: &KTree) {
        let bound = tree.slot_bound();
        self.edge_memo.resize(bound, UNMEMOIZED);
        self.active.clear();
        self.active.resize(bound, false);
        self.pending.clear();
        self.pending.resize(bound, 0);
        self.delivered.clear();
        self.delivered.resize(bound, false);
    }

    /// Latency of the tree edge from `child` to `parent`, memoized by the
    /// child's slot (a node has one parent) together with the underlay
    /// pair it was computed for. Free if both KT nodes are planted in
    /// virtual servers of the same peer.
    pub(crate) fn edge_latency(
        &mut self,
        net: &ChordNetwork,
        oracle: &DistanceOracle,
        tree: &KTree,
        child: KtNodeId,
        parent: KtNodeId,
    ) -> Result<SimTime, Error> {
        let a = net.vs(tree.node(child).host).host;
        let b = net.vs(tree.node(parent).host).host;
        if a == b {
            return Ok(0);
        }
        let (ua, ub) = (net.peer(a).underlay, net.peer(b).underlay);
        if ua == u32::MAX {
            return Err(Error::UnattachedPeer(a));
        }
        if ub == u32::MAX {
            return Err(Error::UnattachedPeer(b));
        }
        let slot = child.0 as usize;
        let (ma, mb, memoized) = self.edge_memo[slot];
        if (ma, mb) == (ua, ub) {
            return Ok(memoized);
        }
        let latency = SimTime::from(oracle.distance(ua, ub));
        self.edge_memo[slot] = (ua, ub, latency);
        Ok(latency)
    }
}
