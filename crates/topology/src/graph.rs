use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Index of a physical node in a [`Graph`].
pub type NodeId = u32;

/// Distance value reported for unreachable nodes.
pub const INFINITE_DISTANCE: u32 = u32::MAX;

/// Largest maximum edge weight for which [`Graph::dijkstra_into`] uses the
/// bucket queue (Dial's algorithm). Above this the circular bucket array —
/// `max_weight + 1` slots, swept one distance value per step — stops paying
/// for itself and the binary heap takes over.
const MAX_BUCKET_WEIGHT: u32 = 4096;

/// Undirected weighted graph in adjacency-list form.
///
/// Edge weights are small positive integers (1 for intradomain hops, 3 for
/// interdomain hops in the paper's cost model), so distances fit comfortably
/// in `u32`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    /// `adj[u]` lists `(v, weight)` pairs. Each undirected edge appears twice.
    adj: Vec<Vec<(NodeId, u32)>>,
    edge_count: usize,
    /// Largest edge weight present (0 while edgeless). Decides between the
    /// bucket-queue and binary-heap Dijkstra variants.
    max_weight: u32,
}

/// Reusable working memory for [`Graph::dijkstra_into`] and
/// [`Graph::distances_to`].
///
/// Holds the distance array, the touched-node list used to reset it in
/// O(|reached|), both priority-queue variants (circular buckets for
/// small integer weights, binary heap otherwise) and the target marks of
/// bounded sweeps. Reusing one scratch across calls makes repeated
/// single-source runs allocation-free; the scratch adapts automatically
/// when used against graphs of different sizes.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<u32>,
    touched: Vec<NodeId>,
    buckets: Vec<Vec<NodeId>>,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
    /// `mark[v] == epoch` iff `v` is a target of the current bounded sweep.
    mark: Vec<u32>,
    epoch: u32,
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DijkstraScratch::default()
    }
}

impl Graph {
    /// An edgeless graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
            max_weight: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Largest edge weight in the graph (0 while edgeless).
    pub fn max_weight(&self) -> u32 {
        self.max_weight
    }

    /// Adds the undirected edge `{u, v}` with weight `w`. Duplicate edges are
    /// ignored (first weight wins); self-loops are rejected.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u32) -> bool {
        assert!(w > 0, "edge weights must be positive");
        if u == v {
            return false;
        }
        let (u_us, v_us) = (u as usize, v as usize);
        assert!(u_us < self.adj.len() && v_us < self.adj.len());
        if self.adj[u_us].iter().any(|&(x, _)| x == v) {
            return false;
        }
        self.adj[u_us].push((v, w));
        self.adj[v_us].push((u, w));
        self.edge_count += 1;
        self.max_weight = self.max_weight.max(w);
        true
    }

    /// True iff the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize].iter().any(|&(x, _)| x == v)
    }

    /// Neighbors of `u` with edge weights.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, u32)] {
        &self.adj[u as usize]
    }

    /// Degree of `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// Single-source shortest path distances from `src`.
    /// Unreachable nodes get [`INFINITE_DISTANCE`].
    pub fn dijkstra(&self, src: NodeId) -> Vec<u32> {
        let mut scratch = DijkstraScratch::new();
        self.dijkstra_into(src, &mut scratch);
        scratch.dist
    }

    /// Single-source shortest path distances from `src`, written into
    /// `scratch` and returned as a slice (valid until the scratch is next
    /// used). With a reused scratch the call allocates nothing once the
    /// buffers have grown to the graph's size.
    ///
    /// Small integer edge weights (the paper's 1-intradomain /
    /// 3-interdomain cost model, and the bounded Euclidean latency model)
    /// route to a circular bucket queue — O(E + D) for maximum distance D —
    /// instead of the O(E log V) binary heap, which remains as the fallback
    /// for large weights.
    pub fn dijkstra_into<'a>(&self, src: NodeId, scratch: &'a mut DijkstraScratch) -> &'a [u32] {
        self.sweep(src, scratch, 0);
        &scratch.dist
    }

    /// Shortest-path distances from `src` to each of `targets`, in target
    /// order ([`INFINITE_DISTANCE`] for unreachable ones).
    ///
    /// The same bucket/heap sweep as [`Graph::dijkstra_into`], stopped as
    /// soon as every distinct target is settled: a node's distance is final
    /// once it leaves the queue, so the answer is exact while the sweep
    /// only visits the ball around `src` that reaches the farthest target.
    /// Duplicate targets and `src` itself are allowed.
    pub fn distances_to(
        &self,
        src: NodeId,
        targets: &[NodeId],
        scratch: &mut DijkstraScratch,
    ) -> Vec<u32> {
        if targets.is_empty() {
            return Vec::new();
        }
        let n = self.adj.len();
        if scratch.mark.len() != n {
            scratch.mark.clear();
            scratch.mark.resize(n, 0);
        }
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.mark.fill(0);
            scratch.epoch = 1;
        }
        let mut distinct = 0;
        for &t in targets {
            let mark = &mut scratch.mark[t as usize];
            if *mark != scratch.epoch {
                *mark = scratch.epoch;
                distinct += 1;
            }
        }
        self.sweep(src, scratch, distinct);
        targets.iter().map(|&t| scratch.dist[t as usize]).collect()
    }

    /// Resets `scratch` and runs the sweep from `src`; with `targets > 0`
    /// it stops once that many marked nodes are settled.
    fn sweep(&self, src: NodeId, scratch: &mut DijkstraScratch, targets: usize) {
        let n = self.adj.len();
        assert!((src as usize) < n, "source out of range");
        if scratch.dist.len() != n {
            scratch.dist.clear();
            scratch.dist.resize(n, INFINITE_DISTANCE);
        } else {
            for &u in &scratch.touched {
                scratch.dist[u as usize] = INFINITE_DISTANCE;
            }
        }
        scratch.touched.clear();
        if self.max_weight > 0 && self.max_weight <= MAX_BUCKET_WEIGHT {
            self.dijkstra_buckets(src, scratch, targets);
        } else {
            self.dijkstra_heap(src, scratch, targets);
        }
    }

    /// Dial's algorithm: a circular array of `max_weight + 1` buckets
    /// indexed by distance modulo the ring size. Every tentative distance
    /// in flight lies within `max_weight` of the current sweep distance,
    /// so the ring never aliases two live distance values to one slot.
    /// Each node leaves the ring with its final distance exactly once,
    /// which is when a marked target counts as settled.
    fn dijkstra_buckets(&self, src: NodeId, scratch: &mut DijkstraScratch, mut targets: usize) {
        let ring = self.max_weight as usize + 1;
        if scratch.buckets.len() < ring {
            scratch.buckets.resize_with(ring, Vec::new);
        }
        let dist = &mut scratch.dist;
        dist[src as usize] = 0;
        scratch.touched.push(src);
        scratch.buckets[0].push(src);
        let mut pending = 1usize;
        let mut d = 0u32;
        'sweep: while pending > 0 {
            let slot = d as usize % ring;
            while let Some(u) = scratch.buckets[slot].pop() {
                pending -= 1;
                if dist[u as usize] != d {
                    continue; // superseded entry
                }
                if targets > 0 && scratch.mark[u as usize] == scratch.epoch {
                    targets -= 1;
                    if targets == 0 {
                        for bucket in &mut scratch.buckets {
                            bucket.clear();
                        }
                        break 'sweep;
                    }
                }
                for &(v, w) in &self.adj[u as usize] {
                    let nd = d + w;
                    let dv = &mut dist[v as usize];
                    if nd < *dv {
                        if *dv == INFINITE_DISTANCE {
                            scratch.touched.push(v);
                        }
                        *dv = nd;
                        scratch.buckets[nd as usize % ring].push(v);
                        pending += 1;
                    }
                }
            }
            d += 1;
        }
    }

    /// Binary-heap Dijkstra over the scratch buffers (fallback for graphs
    /// whose weights are too large for the bucket ring).
    fn dijkstra_heap(&self, src: NodeId, scratch: &mut DijkstraScratch, mut targets: usize) {
        let dist = &mut scratch.dist;
        scratch.heap.clear();
        dist[src as usize] = 0;
        scratch.touched.push(src);
        scratch.heap.push(Reverse((0u32, src)));
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if targets > 0 && scratch.mark[u as usize] == scratch.epoch {
                targets -= 1;
                if targets == 0 {
                    return;
                }
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                let dv = &mut dist[v as usize];
                if nd < *dv {
                    if *dv == INFINITE_DISTANCE {
                        scratch.touched.push(v);
                    }
                    *dv = nd;
                    scratch.heap.push(Reverse((nd, v)));
                }
            }
        }
    }

    /// Reference binary-heap Dijkstra with per-call allocation — the
    /// pre-optimization kernel, kept as the correctness baseline for
    /// property tests and the `dijkstra_kernels` benchmark.
    pub fn dijkstra_reference(&self, src: NodeId) -> Vec<u32> {
        let n = self.adj.len();
        let mut dist = vec![INFINITE_DISTANCE; n];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0u32, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// True iff every node is reachable from node 0 (or the graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.adj.is_empty() {
            return true;
        }
        let dist = self.dijkstra(0);
        dist.iter().all(|&d| d != INFINITE_DISTANCE)
    }

    /// All-pairs shortest paths via repeated single-source runs sharing one
    /// scratch. Intended for tests and small graphs; large graphs should use
    /// [`crate::DistanceOracle`] which computes rows lazily and in parallel.
    pub fn all_pairs(&self) -> Vec<Vec<u32>> {
        let mut scratch = DijkstraScratch::new();
        (0..self.adj.len() as NodeId)
            .map(|u| self.dijkstra_into(u, &mut scratch).to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(seed: u64, n: usize, edges: usize, max_w: u32) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        for _ in 0..edges {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if u != v {
                g.add_edge(u, v, rng.gen_range(1..=max_w));
            }
        }
        g
    }

    #[test]
    fn bucket_queue_matches_reference_heap() {
        for seed in 0..8 {
            // Small weights → bucket path; include disconnected graphs.
            let g = random_graph(seed, 60, 90, 3);
            assert!(g.max_weight() <= MAX_BUCKET_WEIGHT);
            for src in [0, 17, 59] {
                assert_eq!(
                    g.dijkstra(src),
                    g.dijkstra_reference(src),
                    "seed {seed} src {src}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_sources_and_graphs() {
        let g1 = random_graph(1, 40, 80, 3);
        let g2 = random_graph(2, 70, 100, 5);
        let mut scratch = DijkstraScratch::new();
        for src in 0..40 {
            assert_eq!(
                g1.dijkstra_into(src, &mut scratch),
                &g1.dijkstra_reference(src)[..]
            );
        }
        // Same scratch against a different-sized graph.
        for src in [0u32, 33, 69] {
            assert_eq!(
                g2.dijkstra_into(src, &mut scratch),
                &g2.dijkstra_reference(src)[..]
            );
        }
        // And back again.
        assert_eq!(
            g1.dijkstra_into(5, &mut scratch),
            &g1.dijkstra_reference(5)[..]
        );
    }

    #[test]
    fn heap_fallback_matches_reference() {
        // Weights above the bucket threshold force the heap variant.
        let g = random_graph(3, 50, 80, MAX_BUCKET_WEIGHT * 4);
        assert!(g.max_weight() > MAX_BUCKET_WEIGHT);
        let mut scratch = DijkstraScratch::new();
        for src in [0u32, 25, 49] {
            assert_eq!(
                g.dijkstra_into(src, &mut scratch),
                &g.dijkstra_reference(src)[..]
            );
        }
    }
}
