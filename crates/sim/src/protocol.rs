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

/// Sentinel for "edge latency not memoized yet".
const UNMEMOIZED: SimTime = SimTime::MAX;

/// Reusable working state for the phase simulations.
///
/// One scratch serves any number of runs. It re-binds itself to whatever
/// tree it is handed; per-node tables are reset in O(tree size) and the
/// edge-latency memo survives across runs **over the same binding** (same
/// tree shape on the same network), which is exactly the claim-latency
/// sweep's access pattern. Reusing a scratch across *different* trees is
/// safe — the binding fingerprint changes and the memo is dropped.
#[derive(Default)]
pub struct ProtocolScratch {
    /// Fingerprint of the tree this scratch is bound to:
    /// `(root, len, slot_bound)`. Trees are arena-allocated and mutated in
    /// place, so pointer identity is meaningless; this triple changes for
    /// any structural change that could invalidate the memo.
    binding: Option<(KtNodeId, usize, usize)>,
    /// Latency of the edge from KT node (by slot) to its parent;
    /// [`UNMEMOIZED`] when unknown.
    edge_memo: Vec<SimTime>,
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

    /// Points the scratch at `tree`, resetting the per-run tables and
    /// keeping the edge memo iff the binding fingerprint is unchanged.
    pub(crate) fn bind(&mut self, tree: &KTree) {
        let bound = tree.slot_bound();
        let binding = Some((tree.root(), tree.len(), bound));
        if self.binding != binding {
            self.binding = binding;
            self.edge_memo.clear();
            self.edge_memo.resize(bound, UNMEMOIZED);
        }
        self.active.clear();
        self.active.resize(bound, false);
        self.pending.clear();
        self.pending.resize(bound, 0);
        self.delivered.clear();
        self.delivered.resize(bound, false);
    }

    /// Latency of the tree edge from `child` to `parent`, memoized by the
    /// child's slot (a node has one parent). Free if both KT nodes are
    /// planted in virtual servers of the same peer.
    pub(crate) fn edge_latency(
        &mut self,
        net: &ChordNetwork,
        oracle: &DistanceOracle,
        tree: &KTree,
        child: KtNodeId,
        parent: KtNodeId,
    ) -> Result<SimTime, Error> {
        let slot = child.0 as usize;
        let memoized = self.edge_memo[slot];
        if memoized != UNMEMOIZED {
            return Ok(memoized);
        }
        let a = net.vs(tree.node(child).host).host;
        let b = net.vs(tree.node(parent).host).host;
        let latency = if a == b {
            0
        } else {
            let (ua, ub) = (net.peer(a).underlay, net.peer(b).underlay);
            if ua == u32::MAX {
                return Err(Error::UnattachedPeer(a));
            }
            if ub == u32::MAX {
                return Err(Error::UnattachedPeer(b));
            }
            SimTime::from(oracle.distance(ua, ub))
        };
        self.edge_memo[slot] = latency;
        Ok(latency)
    }
}
