//! Seeded inputs.  The harness owns every generator parameter; the system
//! under test only ever receives the generated graphs and deltas.

use grape_graph::builder::GraphBuilder;
use grape_graph::delta::GraphDelta;
use grape_graph::graph::{Directedness, Graph};
use grape_graph::types::{Edge, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Edge insertions per `ΔG` on the insert-shaped workloads.
const INSERTS_PER_DELTA: usize = 4;
/// A new edge's destination lies at most this many ids after its source.
const INSERT_SPAN: u64 = 32;
/// Deltas folded into a workload's `input_digest`.
const DIGEST_DELTAS: usize = 256;

/// The shape of a workload's delta stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Four localized weighted-edge insertions per delta: monotone for
    /// SSSP and CC, so no commit runs PEval.
    Insert,
    /// Commit `i` removes grid edge `e_i` and re-inserts `e_{i-1}`: the
    /// graph is stationary and every commit is non-monotone.
    Churn,
}

/// A deterministic, endless delta stream over a fixed start graph.
#[derive(Clone)]
pub struct DeltaStream {
    kind: StreamKind,
    rng: StdRng,
    vertices: u64,
    /// Churn only: the start graph's edges in seeded order, the cursor, and
    /// the edge currently missing from the graph.
    order: Vec<Edge>,
    cursor: usize,
    missing: Option<Edge>,
}

impl DeltaStream {
    /// A stream over `graph`, drawn from `seed` alone.
    pub fn new(kind: StreamKind, graph: &Graph, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order = Vec::new();
        if kind == StreamKind::Churn {
            order = graph.edges().to_vec();
            order.shuffle(&mut rng);
        }
        DeltaStream {
            kind,
            rng,
            vertices: graph.num_vertices() as u64,
            order,
            cursor: 0,
            missing: None,
        }
    }

    /// The next `ΔG`.  Never fails to apply: insertions stay inside the
    /// vertex set, and a churn delta removes an edge that is present (the
    /// only absent one is re-inserted by the same delta).
    pub fn next_delta(&mut self) -> GraphDelta {
        match self.kind {
            StreamKind::Insert => {
                let n = self.vertices;
                let mut delta = GraphDelta::new();
                for _ in 0..INSERTS_PER_DELTA {
                    let src = self.rng.gen_range(0..n);
                    let dst = (src + 1 + self.rng.gen_range(0..INSERT_SPAN.min(n - 1))) % n;
                    let weight = 1.0 + f64::from(self.rng.gen_range(0u32..8));
                    delta = delta.add_weighted_edge(src, dst, weight);
                }
                delta
            }
            StreamKind::Churn => {
                let edge = self.order[self.cursor % self.order.len()];
                self.cursor += 1;
                let mut delta = GraphDelta::new().remove_edge(edge.src, edge.dst);
                if let Some(back) = self.missing.replace(edge) {
                    delta = delta.add_edge_record(back);
                }
                delta
            }
        }
    }

    /// FNV-1a over the start graph's size and the first deltas of the
    /// stream — what pins "same seed, same inputs".
    pub fn digest(&self, graph: &Graph) -> u64 {
        let mut fnv = Fnv::new();
        fnv.u64(graph.num_vertices() as u64);
        fnv.u64(graph.num_edges() as u64);
        let mut probe = self.clone();
        for _ in 0..DIGEST_DELTAS {
            fnv.delta(&probe.next_delta());
        }
        fnv.finish()
    }
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds eight bytes.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one edge record.
    pub fn edge(&mut self, e: &Edge) {
        self.u64(e.src);
        self.u64(e.dst);
        self.u64(e.weight.to_bits());
        self.u64(u64::from(e.label));
    }

    /// Folds a delta's edge insertions and removals (the only updates the
    /// harness generates).
    pub fn delta(&mut self, delta: &GraphDelta) {
        self.u64(delta.added_edges().len() as u64);
        for e in delta.added_edges() {
            self.edge(e);
        }
        self.u64(delta.removed_edges().len() as u64);
        for &(s, d) in delta.removed_edges() {
            self.u64(s);
            self.u64(d);
        }
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The harness's own copy of the evolving graph: the edge list every `ΔG`
/// is mirrored onto, from which the sequential oracles are computed.  It
/// shares no code with `Graph::apply_delta`.
pub struct Mirror {
    vertices: usize,
    edges: Vec<Edge>,
}

impl Mirror {
    /// Starts from `graph`.
    pub fn new(graph: &Graph) -> Self {
        Mirror {
            vertices: graph.num_vertices(),
            edges: graph.edges().to_vec(),
        }
    }

    /// Mirrors one delta: removals drop every edge matching `(src, dst)`,
    /// insertions append.
    pub fn apply(&mut self, delta: &GraphDelta) {
        for &(src, dst) in delta.removed_edges() {
            self.edges.retain(|e| !(e.src == src && e.dst == dst));
        }
        self.edges.extend_from_slice(delta.added_edges());
    }

    /// Whether `graph` holds exactly the mirrored edges (as a multiset) over
    /// the same vertex ids.
    pub fn matches(&self, graph: &Graph) -> bool {
        let key = |e: &Edge| (e.src, e.dst, e.weight.to_bits(), e.label);
        let mut ours: Vec<_> = self.edges.iter().map(key).collect();
        let mut theirs: Vec<_> = graph.edges().iter().map(key).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        graph.num_vertices() == self.vertices && ours == theirs
    }

    /// Freezes the mirrored edge list into a graph.
    pub fn graph(&self) -> Graph {
        let mut b = GraphBuilder::new(Directedness::Directed)
            .ensure_vertices(self.vertices)
            .with_capacity(self.edges.len());
        for e in &self.edges {
            b.push_edge(*e);
        }
        b.build()
    }
}

/// `k` SSSP sources spread evenly over the vertex ids.
pub fn spread_sources(vertices: usize, k: usize) -> Vec<VertexId> {
    (0..k).map(|i| (i * vertices / k) as VertexId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::road_grid;

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        let g = road_grid(12, 12, 7);
        for kind in [StreamKind::Insert, StreamKind::Churn] {
            let mut a = DeltaStream::new(kind, &g, 42);
            let mut b = DeltaStream::new(kind, &g, 42);
            for _ in 0..50 {
                assert_eq!(a.next_delta(), b.next_delta());
            }
            let d42 = DeltaStream::new(kind, &g, 42).digest(&g);
            assert_eq!(d42, DeltaStream::new(kind, &g, 42).digest(&g));
            assert_ne!(d42, DeltaStream::new(kind, &g, 43).digest(&g));
        }
    }

    #[test]
    fn every_generated_delta_applies_and_the_mirror_tracks_the_graph() {
        let g = road_grid(10, 10, 7);
        for kind in [StreamKind::Insert, StreamKind::Churn] {
            let mut stream = DeltaStream::new(kind, &g, 9);
            let mut graph = g.clone();
            let mut mirror = Mirror::new(&g);
            for _ in 0..(2 * g.num_edges() + 5) {
                let delta = stream.next_delta();
                graph = graph.apply_delta(&delta).expect("generated deltas apply");
                mirror.apply(&delta);
            }
            assert!(mirror.matches(&graph));
            assert!(mirror.matches(&mirror.graph()));
            assert!(
                !mirror.matches(&g),
                "the start graph is not the evolved one"
            );
            if kind == StreamKind::Churn {
                assert_eq!(graph.num_edges(), g.num_edges() - 1, "stationary");
            }
        }
    }

    #[test]
    fn sources_are_spread_over_the_id_range() {
        assert_eq!(spread_sources(100, 4), vec![0, 25, 50, 75]);
    }
}
