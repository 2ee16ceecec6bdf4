use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Latency units per intradomain hop (paper §5.1).
pub const INTRA_DOMAIN_WEIGHT: u32 = 1;
/// Latency units per interdomain hop (paper §5.1: "each interdomain hop
/// counts as 3 hops of units of latency").
pub const INTER_DOMAIN_WEIGHT: u32 = 3;

/// Which kind of domain a physical node belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainKind {
    /// Backbone node inside a transit domain.
    Transit {
        /// Index of the transit domain.
        domain: u32,
    },
    /// Edge node inside a stub domain.
    Stub {
        /// Global index of the stub domain.
        domain: u32,
    },
}

/// Shape parameters for the transit-stub generator, mirroring GT-ITM's.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TransitStubConfig {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Transit nodes per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains attached to each transit node.
    pub stub_domains_per_transit_node: usize,
    /// Average number of nodes per stub domain (actual sizes are uniform in
    /// `[max(1, avg/2), 3·avg/2]`, preserving the mean).
    pub avg_stub_domain_size: usize,
    /// Extra random intradomain edges per transit domain beyond the
    /// connecting ring (adds redundancy, as GT-ITM does).
    pub extra_transit_edges: usize,
    /// Extra random interdomain transit–transit edges beyond the spanning
    /// chain between domains.
    pub extra_inter_domain_edges: usize,
    /// Probability of an edge between each pair of nodes inside a stub
    /// domain, on top of a connecting spanning tree. GT-ITM's default stub
    /// edge probability is ≈0.42, which makes stub domains dense (diameter
    /// ~2) — the paper's "67% of moved load within 2 hops" presumes such
    /// dense stubs.
    pub stub_edge_density: f64,
    /// Probability that a stub domain gets an extra uplink to a random
    /// transit node elsewhere (GT-ITM's extra stub–transit edges). These
    /// shortcuts differentiate the landmark vectors of sibling stub domains
    /// hanging off the same transit node — without them, landmark
    /// clustering cannot tell sibling stubs apart.
    pub extra_stub_uplink_prob: f64,
}

impl TransitStubConfig {
    /// "ts5k-large" (paper §5.1): 5 transit domains, 3 transit nodes per
    /// domain, 5 stub domains per transit node, ~60 nodes per stub domain.
    /// Chord nodes drawn from this topology live in a few big stub domains.
    pub fn ts5k_large() -> Self {
        TransitStubConfig {
            transit_domains: 5,
            transit_nodes_per_domain: 3,
            stub_domains_per_transit_node: 5,
            avg_stub_domain_size: 60,
            extra_transit_edges: 3,
            extra_inter_domain_edges: 3,
            stub_edge_density: 0.42,
            extra_stub_uplink_prob: 0.6,
        }
    }

    /// "ts5k-small" (paper §5.1): 120 transit domains, 5 transit nodes per
    /// domain, 4 stub domains per transit node, ~2 nodes per stub domain.
    /// Chord nodes drawn from this topology are scattered across the whole
    /// Internet.
    pub fn ts5k_small() -> Self {
        TransitStubConfig {
            transit_domains: 120,
            transit_nodes_per_domain: 5,
            stub_domains_per_transit_node: 4,
            avg_stub_domain_size: 2,
            extra_transit_edges: 3,
            extra_inter_domain_edges: 120,
            stub_edge_density: 0.42,
            extra_stub_uplink_prob: 0.6,
        }
    }

    /// "ts50k": the ts5k-large shape scaled to ~50k nodes (10 transit
    /// domains × 5 transit nodes × 10 stub domains of ~100 nodes), for the
    /// xl2 runs that stress bounded-memory behaviour.
    pub fn ts50k() -> Self {
        TransitStubConfig {
            transit_domains: 10,
            transit_nodes_per_domain: 5,
            stub_domains_per_transit_node: 10,
            avg_stub_domain_size: 100,
            extra_transit_edges: 3,
            extra_inter_domain_edges: 10,
            stub_edge_density: 0.42,
            extra_stub_uplink_prob: 0.6,
        }
    }

    /// A tiny topology for unit tests and examples (a few dozen nodes).
    pub fn tiny() -> Self {
        TransitStubConfig {
            transit_domains: 2,
            transit_nodes_per_domain: 2,
            stub_domains_per_transit_node: 2,
            avg_stub_domain_size: 4,
            extra_transit_edges: 1,
            extra_inter_domain_edges: 1,
            stub_edge_density: 0.42,
            extra_stub_uplink_prob: 0.5,
        }
    }

    /// Expected total node count (transit + stub).
    pub fn expected_nodes(&self) -> usize {
        let transit = self.transit_domains * self.transit_nodes_per_domain;
        transit + transit * self.stub_domains_per_transit_node * self.avg_stub_domain_size
    }
}

/// A generated transit-stub topology: the weighted graph plus domain
/// metadata needed for landmark selection and overlay attachment.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TransitStubTopology {
    /// The physical network with the paper's **hop-cost** weights
    /// (intradomain hop = 1, interdomain hop = 3) — the metric behind the
    /// moved-load figures.
    pub graph: Graph,
    /// The same edges with **latency** weights derived from GT-ITM-style
    /// planar node placement (Euclidean edge lengths). This is what RTT
    /// measurements — and therefore landmark vectors — see: rich enough to
    /// distinguish sibling stub domains, unlike coarse hop counts.
    pub latency_graph: Graph,
    /// Planar coordinates of every node (GT-ITM places domains in a plane).
    pub coords: Vec<(f64, f64)>,
    /// Domain membership of every node.
    pub kinds: Vec<DomainKind>,
    /// Node ids of all transit nodes, grouped by transit domain.
    pub transit_by_domain: Vec<Vec<NodeId>>,
    /// Node ids of all stub nodes, grouped by stub domain.
    pub stub_by_domain: Vec<Vec<NodeId>>,
    /// The generator config used.
    pub config: TransitStubConfig,
}

impl TransitStubTopology {
    /// Generates a topology from `config` using `rng`. The result is always
    /// connected.
    pub fn generate<R: Rng>(config: TransitStubConfig, rng: &mut R) -> Self {
        let mut kinds = Vec::new();
        let mut transit_by_domain = Vec::with_capacity(config.transit_domains);

        // 1. Allocate transit nodes.
        for d in 0..config.transit_domains {
            let mut ids = Vec::with_capacity(config.transit_nodes_per_domain);
            for _ in 0..config.transit_nodes_per_domain {
                ids.push(kinds.len() as NodeId);
                kinds.push(DomainKind::Transit { domain: d as u32 });
            }
            transit_by_domain.push(ids);
        }

        // 2. Allocate stub domains: `stub_domains_per_transit_node` per
        //    transit node, sizes uniform around the average.
        let mut stub_by_domain = Vec::new();
        let mut stub_home_transit = Vec::new(); // transit node each stub domain hangs off
        let lo = (config.avg_stub_domain_size / 2).max(1);
        let hi = config.avg_stub_domain_size + config.avg_stub_domain_size / 2;
        for domain_ids in &transit_by_domain {
            for &t in domain_ids {
                for _ in 0..config.stub_domains_per_transit_node {
                    let size = if lo >= hi { lo } else { rng.gen_range(lo..=hi) };
                    let sd = stub_by_domain.len() as u32;
                    let mut ids = Vec::with_capacity(size);
                    for _ in 0..size {
                        ids.push(kinds.len() as NodeId);
                        kinds.push(DomainKind::Stub { domain: sd });
                    }
                    stub_by_domain.push(ids);
                    stub_home_transit.push(t);
                }
            }
        }

        // Planar placement (GT-ITM scatters domains in a square): transit
        // domains far apart, their stubs nearby, stub members in a tight
        // cluster — Euclidean edge lengths then give each stub a distinct
        // latency signature.
        let mut coords: Vec<(f64, f64)> = vec![(0.0, 0.0); kinds.len()];
        let mut domain_centers = Vec::with_capacity(config.transit_domains);
        for _ in 0..config.transit_domains {
            domain_centers.push((rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)));
        }
        for (d, ids) in transit_by_domain.iter().enumerate() {
            let (cx, cy) = domain_centers[d];
            for &t in ids {
                coords[t as usize] = (
                    cx + rng.gen_range(-60.0..60.0),
                    cy + rng.gen_range(-60.0..60.0),
                );
            }
        }
        for (sd, ids) in stub_by_domain.iter().enumerate() {
            let (hx, hy) = coords[stub_home_transit[sd] as usize];
            let (sx, sy) = (
                hx + rng.gen_range(-120.0..120.0),
                hy + rng.gen_range(-120.0..120.0),
            );
            for &n in ids {
                coords[n as usize] = (sx + rng.gen_range(-4.0..4.0), sy + rng.gen_range(-4.0..4.0));
            }
        }

        let mut graph = Graph::new(kinds.len());

        // 3. Intradomain transit edges: ring + extra random chords (weight 1).
        for ids in &transit_by_domain {
            connect_ring(&mut graph, ids, INTRA_DOMAIN_WEIGHT);
            add_random_edges(
                &mut graph,
                ids,
                config.extra_transit_edges,
                INTRA_DOMAIN_WEIGHT,
                rng,
            );
        }

        // 4. Interdomain transit edges (weight 3): spanning chain between
        //    consecutive domains guarantees connectivity, plus extra random
        //    cross-domain links.
        for d in 1..config.transit_domains {
            let u = *transit_by_domain[d - 1]
                .choose(rng)
                .expect("non-empty domain");
            let v = *transit_by_domain[d].choose(rng).expect("non-empty domain");
            graph.add_edge(u, v, INTER_DOMAIN_WEIGHT);
        }
        if config.transit_domains > 1 {
            for _ in 0..config.extra_inter_domain_edges {
                let d1 = rng.gen_range(0..config.transit_domains);
                let mut d2 = rng.gen_range(0..config.transit_domains);
                if d1 == d2 {
                    d2 = (d2 + 1) % config.transit_domains;
                }
                let u = *transit_by_domain[d1].choose(rng).unwrap();
                let v = *transit_by_domain[d2].choose(rng).unwrap();
                graph.add_edge(u, v, INTER_DOMAIN_WEIGHT);
            }
        }

        // 5. Stub domains: internal spanning tree + density-driven extra
        //    edges (weight 1), and one interdomain uplink to the home
        //    transit node (weight 3).
        for (sd, ids) in stub_by_domain.iter().enumerate() {
            connect_random_tree(&mut graph, ids, INTRA_DOMAIN_WEIGHT, rng);
            let n = ids.len();
            if n >= 3 && config.stub_edge_density > 0.0 {
                // Bernoulli edge per pair — GT-ITM's pure random stub model.
                for a in 0..n {
                    for b in a + 1..n {
                        if rng.gen::<f64>() < config.stub_edge_density {
                            graph.add_edge(ids[a], ids[b], INTRA_DOMAIN_WEIGHT);
                        }
                    }
                }
            }
            let gateway = *ids.choose(rng).unwrap();
            graph.add_edge(gateway, stub_home_transit[sd], INTER_DOMAIN_WEIGHT);
            // Extra uplink to a random transit node elsewhere.
            if rng.gen::<f64>() < config.extra_stub_uplink_prob {
                let d = rng.gen_range(0..transit_by_domain.len());
                let t = *transit_by_domain[d].choose(rng).unwrap();
                let second_gateway = *ids.choose(rng).unwrap();
                graph.add_edge(second_gateway, t, INTER_DOMAIN_WEIGHT);
            }
        }

        // Latency weights: Euclidean length of each edge (at least 1 unit).
        let mut latency_graph = Graph::new(kinds.len());
        for u in 0..kinds.len() as NodeId {
            for &(v, _) in graph.neighbors(u) {
                if u < v {
                    let (ux, uy) = coords[u as usize];
                    let (vx, vy) = coords[v as usize];
                    let d = ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt();
                    latency_graph.add_edge(u, v, (d.round() as u32).max(1));
                }
            }
        }

        let topo = TransitStubTopology {
            graph,
            latency_graph,
            coords,
            kinds,
            transit_by_domain,
            stub_by_domain,
            config,
        };
        debug_assert!(topo.graph.is_connected());
        debug_assert!(topo.latency_graph.is_connected());
        topo
    }

    /// Total number of physical nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// All stub node ids (overlay peers attach to stub nodes, matching the
    /// paper's setting where DHT nodes are end hosts).
    pub fn stub_nodes(&self) -> Vec<NodeId> {
        self.stub_by_domain.iter().flatten().copied().collect()
    }

    /// Transit domain "responsible" for a node: its own domain for transit
    /// nodes; for a stub node, the domain of the transit node its stub
    /// domain hangs off (derived from graph structure on demand).
    pub fn kind(&self, n: NodeId) -> DomainKind {
        self.kinds[n as usize]
    }
}

/// Connects `ids` in a cycle (or a single edge for 2 nodes, nothing for <2).
fn connect_ring(graph: &mut Graph, ids: &[NodeId], w: u32) {
    match ids.len() {
        0 | 1 => {}
        2 => {
            graph.add_edge(ids[0], ids[1], w);
        }
        _ => {
            for i in 0..ids.len() {
                graph.add_edge(ids[i], ids[(i + 1) % ids.len()], w);
            }
        }
    }
}

/// Connects `ids` with a random spanning tree (each node links to a random
/// earlier node — a uniform random recursive tree).
fn connect_random_tree<R: Rng>(graph: &mut Graph, ids: &[NodeId], w: u32, rng: &mut R) {
    for i in 1..ids.len() {
        let j = rng.gen_range(0..i);
        graph.add_edge(ids[i], ids[j], w);
    }
}

/// Adds up to `count` random edges among `ids`.
fn add_random_edges<R: Rng>(graph: &mut Graph, ids: &[NodeId], count: usize, w: u32, rng: &mut R) {
    if ids.len() < 3 {
        return;
    }
    for _ in 0..count {
        let u = *ids.choose(rng).unwrap();
        let v = *ids.choose(rng).unwrap();
        if u != v {
            graph.add_edge(u, v, w);
        }
    }
}
