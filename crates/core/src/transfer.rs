use crate::error::Error;
use crate::lbi::LoadState;
use crate::pairing::{Assignment, RendezvousLists, ShedCandidate};
use proxbal_chord::{ChordNetwork, PeerId, PeerState, VsId};
use proxbal_topology::DistanceOracle;
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};

/// One executed virtual-server transfer (VST, §3.5).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// The assignment that was executed.
    pub assignment: Assignment,
    /// Physical distance between the shedding and receiving peers, in
    /// latency units (interdomain hop = 3, intradomain hop = 1). `None`
    /// when the run has no underlay topology.
    pub distance: Option<u32>,
}

/// Executes assignments against the network: each virtual server moves to
/// its assigned peer (a Chord *leave* + *join* at the same ring position),
/// its load riding along. Records the exact physical transfer distance when
/// an underlay oracle is given — the cost metric of Figures 7 and 8 — from
/// one [`DistanceOracle::pair_distances`] batch on up to `threads` workers
/// (the values are identical at any `threads`).
///
/// Assignments whose source peer no longer hosts the virtual server (e.g.
/// it crashed between VSA and VST) or whose receiver is dead are skipped,
/// mirroring the soft-state tolerance of the protocol. Fails with
/// [`Error::UnattachedPeer`], before moving anything, when a distance is
/// requested for a peer that was never attached to the underlay.
///
/// Records VST metrics into `trace`: the `vst_load_per_hop` histogram
/// (observation = physical distance, weight = load moved at that
/// distance), executed/skipped counters, and the moved load and
/// `Σ load·distance` cost as floating-point counters.
pub fn execute_transfers(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    assignments: &[Assignment],
    oracle: Option<&DistanceOracle>,
    threads: usize,
    trace: &mut Trace,
) -> Result<Vec<TransferRecord>, Error> {
    // VSA assigns each virtual server at most once, and a transfer changes
    // only its own virtual server's host, so executing one assignment never
    // changes whether another is executable: the set is fixed up front.
    let executable: Vec<Assignment> = assignments
        .iter()
        .copied()
        .filter(|a| {
            let vs = net.vs(a.vs);
            vs.alive && vs.host == a.from && net.peer(a.to).state == PeerState::Alive
        })
        .collect();
    let distances: Vec<Option<u32>> = match oracle {
        Some(oracle) => {
            let mut pairs = Vec::with_capacity(executable.len());
            for a in &executable {
                let from = net.peer(a.from).underlay;
                if from == u32::MAX {
                    return Err(Error::UnattachedPeer(a.from));
                }
                let to = net.peer(a.to).underlay;
                if to == u32::MAX {
                    return Err(Error::UnattachedPeer(a.to));
                }
                pairs.push((from, to));
            }
            oracle
                .pair_distances(&pairs, threads)
                .into_iter()
                .map(Some)
                .collect()
        }
        None => vec![None; executable.len()],
    };
    let mut out = Vec::with_capacity(executable.len());
    for (a, distance) in executable.into_iter().zip(distances) {
        debug_assert_eq!(net.vs(a.vs).host, a.from, "virtual server assigned twice");
        net.transfer_vs(a.vs, a.to);
        // Load rides with the virtual server; LoadState is keyed by VsId so
        // nothing to move — but assert the invariant in debug builds.
        debug_assert!((loads.vs_load(a.vs) - a.load).abs() < 1e-9 || a.load >= 0.0);
        out.push(TransferRecord {
            assignment: a,
            distance,
        });
    }
    if trace.is_enabled() {
        trace.count("vst_transfers", out.len() as u64);
        trace.count("vst_skipped", (assignments.len() - out.len()) as u64);
        trace.count_f64("vst_moved_load", total_moved_load(&out));
        trace.count_f64("vst_weighted_cost", weighted_cost(&out));
        for t in &out {
            if let Some(d) = t.distance {
                trace.record_weighted("vst_load_per_hop", u64::from(d), t.assignment.load);
            }
        }
    }
    Ok(out)
}

/// Accounting of a fault-tolerant VST round
/// ([`execute_transfers_with_requeue`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequeueOutcome {
    /// Every transfer that executed (first pass plus re-pairings).
    pub transfers: Vec<TransferRecord>,
    /// Assignments whose receiving peer was dead at execution time and
    /// that were re-offered at the next-higher rendezvous.
    pub requeued: usize,
    /// Of the requeued, how many found a surviving light slot and moved.
    pub reassigned: usize,
    /// Of the requeued, how many found no room and stayed put (they will
    /// be picked up by the next balancing round).
    pub abandoned: usize,
}

/// Fault-tolerant variant of [`execute_transfers`]: an assignment whose
/// receiving peer died between VSA and VST is not silently skipped but
/// **requeued at the next-higher rendezvous** — its shed candidate is
/// re-inserted into `spare` (the surviving light slots that bubbled up to
/// the root during the sweep) and re-paired best-fit, exactly as the
/// rendezvous point itself would have done had the failure been known
/// (§3.4's graceful degradation). Deterministic: both lists are sorted and
/// the re-pairing is the same best-fit walk as the in-sweep pairing.
///
/// Records the VST metrics of [`execute_transfers`] plus
/// `requeue_requeued` / `requeue_reassigned` / `requeue_abandoned`
/// counters into `trace`.
#[allow(clippy::too_many_arguments)]
pub fn execute_transfers_with_requeue(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    assignments: &[Assignment],
    oracle: Option<&DistanceOracle>,
    spare: &mut RendezvousLists,
    l_min: f64,
    threads: usize,
    trace: &mut Trace,
) -> Result<RequeueOutcome, Error> {
    let transfers = execute_transfers(net, loads, assignments, oracle, threads, trace)?;
    // Assignments still valid on the shedding side whose receiver died.
    let mut requeued = 0usize;
    for a in assignments {
        let vs = net.vs(a.vs);
        if vs.alive && vs.host == a.from && net.peer(a.to).state != PeerState::Alive {
            spare.push_shed(ShedCandidate {
                load: a.load,
                vs: a.vs,
                from: a.from,
            });
            requeued += 1;
        }
    }
    let mut outcome = RequeueOutcome {
        transfers,
        requeued,
        reassigned: 0,
        abandoned: 0,
    };
    if requeued == 0 {
        return Ok(outcome);
    }
    let mut extra = Vec::new();
    spare.pair_into(l_min, &mut extra, trace);
    // Dead light peers may linger in `spare` too; the executor's liveness
    // filter drops those pairings, leaving the candidate for next round.
    let executed = execute_transfers(net, loads, &extra, oracle, threads, trace)?;
    outcome.reassigned = executed.len();
    outcome.abandoned = requeued - outcome.reassigned;
    outcome.transfers.extend(executed);
    trace.count("requeue_requeued", outcome.requeued as u64);
    trace.count("requeue_reassigned", outcome.reassigned as u64);
    trace.count("requeue_abandoned", outcome.abandoned as u64);
    Ok(outcome)
}

/// Total load moved across a set of transfers.
pub fn total_moved_load(transfers: &[TransferRecord]) -> f64 {
    transfers.iter().map(|t| t.assignment.load).sum()
}

/// Load-weighted transfer cost: `Σ load·distance` (only counting transfers
/// with a known distance).
pub fn weighted_cost(transfers: &[TransferRecord]) -> f64 {
    transfers
        .iter()
        .filter_map(|t| t.distance.map(|d| t.assignment.load * f64::from(d)))
        .sum()
}

/// Gracefully removes a peer from the overlay: each of its virtual servers
/// leaves the ring and the objects it held (modelled as its load) are
/// handed to the virtual server absorbing its region — a Chord *leave*
/// with data handover, in contrast to [`ChordNetwork::crash_peer`] where
/// the load vanishes with the node (no replication is modelled).
///
/// Returns the total load handed over.
pub fn graceful_leave(net: &mut ChordNetwork, loads: &mut LoadState, peer: PeerId) -> f64 {
    let vss: Vec<VsId> = net.vss_of(peer).to_vec();
    let mut handed = 0.0;
    // Drop one VS at a time so each region's absorber is the live owner at
    // that instant (matters when the peer owns adjacent regions).
    for v in vss {
        let load = loads.vs_load(v);
        let pos = net.vs(v).position;
        net.drop_vs(v);
        loads.set_vs_load(v, 0.0);
        if let Some(absorber) = net.ring().owner(pos) {
            loads.add_vs_load(absorber, load);
            handed += load;
        }
    }
    net.leave_peer(peer);
    handed
}

/// Settles the load books after a virtual server joins the ring: the new
/// virtual server's region was carved out of its successor's region, so
/// the successor's load (its objects) moves in proportion to the region
/// fraction taken. Returns the load moved to the new virtual server.
pub fn absorb_join(net: &ChordNetwork, loads: &mut LoadState, new_vs: VsId) -> f64 {
    let position = net.vs(new_vs).position;
    let Some((_, successor)) = net.ring().successor_after(position) else {
        return 0.0; // sole virtual server on the ring
    };
    if successor == new_vs {
        return 0.0;
    }
    let new_len = net.region_of(new_vs).len() as f64;
    let succ_len = net.region_of(successor).len() as f64;
    let succ_load = loads.vs_load(successor);
    let moved = succ_load * new_len / (new_len + succ_len);
    loads.set_vs_load(successor, succ_load - moved);
    loads.add_vs_load(new_vs, moved);
    moved
}
