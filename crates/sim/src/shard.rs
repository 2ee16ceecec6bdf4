//! Sharded scenario preparation for the million-peer runs.
//!
//! Unsharded, [`Scenario::prepare`](crate::Scenario::prepare) walks one RNG
//! through topology generation, a million `join_peer` calls, landmark
//! selection and load generation — tens of seconds of single-threaded setup
//! at xl2 scale. With `scenario.shards > 0` the expensive parts are
//! partitioned across that many independent workers:
//!
//! - **Ring positions** — each shard owns a contiguous peer range and draws
//!   its virtual-server positions from a shard-indexed RNG
//!   ([`proxbal_parallel::map_indexed`], so slot order never depends on the
//!   thread count). The draws are replayed serially in peer order through
//!   [`ChordNetwork::join_peer_at`]; the rare position collision falls back
//!   to the master RNG, exactly like the serial path resamples.
//! - **KT subtrees** — [`build_tree_sharded`] grows the top of the tree
//!   serially ([`KTree::build_prefix`]), expands the frontier regions as
//!   independent fragments in bounded batches, and grafts them back in
//!   frontier order, so arena numbering is a pure function of the inputs.
//!
//! Everything that is inherently sequential — stub attachment order,
//! landmark selection, per-VS load sampling (ring-order dependent) — stays
//! on the master RNG in the serial order. The result is deterministic in
//! `(scenario, shards)` and byte-identical at any `--threads`.

use crate::scenario::Scenario;
use proxbal_chord::ChordNetwork;
use proxbal_id::Id;
use proxbal_ktree::KTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG stream for preparation shard `s`: the same seed/label mixer as
/// [`Prepared::derived_rng`](crate::Prepared::derived_rng), with a label
/// namespace reserved for shards.
fn shard_rng(seed: u64, s: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0xA11C << 32 | s as u64))
}

/// The sharded peer-join step of [`Scenario::prepare`](crate::Scenario::prepare),
/// taken whenever `scenario.shards > 0`: draws every peer's ring positions
/// from its shard's stream, then replays them in peer order. Collisions
/// resample from `rng`, the master stream. Heartbeat lines (position
/// batches, join replay) go to the global [`proxbal_profile::progress`]
/// sink and never change the result.
pub(crate) fn join_sharded(scenario: &Scenario, threads: usize, rng: &mut StdRng) -> ChordNetwork {
    use proxbal_profile::progress;
    let shards = scenario.shards.max(1);

    // Per-shard position batches: shard `s` owns the contiguous peer range
    // [s·chunk, min((s+1)·chunk, peers)) and draws every position of every
    // peer in that range from its own stream. Pure function of the index.
    let peers = scenario.peers;
    let vs_per_peer = scenario.vs_per_peer;
    let chunk = peers.div_ceil(shards);
    let seed = scenario.seed;
    let batches: Vec<Vec<Id>> = proxbal_parallel::map_indexed(shards, threads, |s| {
        let start = s * chunk;
        let end = peers.min(start + chunk);
        let mut shard_rng = shard_rng(seed, s);
        let mut out = Vec::with_capacity((end - start).saturating_mul(vs_per_peer));
        for _ in start..end {
            for _ in 0..vs_per_peer {
                out.push(Id::new(shard_rng.gen()));
            }
        }
        out
    });

    progress::event(&format!(
        "prepare: {shards} position batches drawn for {peers} peers"
    ));

    // Serial replay in peer order: the ring insert order (and therefore
    // every VsId/PeerId) is fixed by the batches alone. Collisions resample
    // from the master RNG — serial, hence deterministic.
    let mut net = ChordNetwork::new();
    let mut joined = 0usize;
    for batch in &batches {
        for positions in batch.chunks(vs_per_peer.max(1)) {
            net.join_peer_at(positions, rng);
            joined += 1;
            if joined.is_multiple_of(262_144) {
                progress::event(&format!("prepare: joined {joined}/{peers} peers"));
            }
        }
    }
    net
}

/// Builds the K-nary tree by growing the top `split_depth` levels serially
/// ([`KTree::build_prefix`]) and expanding each frontier region as an
/// independent fragment, grafted back in frontier order.
///
/// Fragments are built in bounded batches (a few per worker) so the
/// transient footprint is a handful of fragments, not the whole frontier at
/// once. Arena numbering is a pure function of `(net, k, split_depth)` —
/// never of `threads` — and the composed tree is node-for-node the tree
/// [`KTree::build`] grows (only slot numbering differs).
pub fn build_tree_sharded(net: &ChordNetwork, k: usize, split_depth: u32, threads: usize) -> KTree {
    let (mut tree, frontier) = KTree::build_prefix(net, k, split_depth);
    let work: Vec<_> = frontier
        .into_iter()
        .map(|id| {
            let node = tree.node(id);
            (id, node.region, node.depth)
        })
        .collect();
    let batch = (threads.max(1) * 2).max(4);
    for chunk in work.chunks(batch) {
        let fragments = proxbal_parallel::map_items(chunk, threads, |_, &(_, region, depth)| {
            KTree::build_fragment(net, k, region, depth)
        });
        for (&(id, _, _), fragment) in chunk.iter().zip(fragments) {
            tree.graft(id, fragment);
        }
    }
    tree
}
