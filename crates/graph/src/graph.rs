//! The immutable, CSR-backed graph type `G = (V, E, L)` of the paper.

use serde::{Deserialize, Serialize};

use crate::csr::{Csr, Neighbor};
use crate::types::{Edge, Label, VertexId, NO_LABEL};

/// Whether the graph is directed or undirected (paper: "directed or
/// undirected" graphs, Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Directedness {
    /// Edges are ordered pairs; `out_neighbors` and `in_neighbors` differ.
    Directed,
    /// Every logical edge `{u, v}` is reachable from both endpoints; the edge
    /// list stores it once, the adjacency twice.
    Undirected,
}

/// An immutable labeled, weighted graph over dense vertex ids `0..n`.
///
/// The structure keeps:
/// * the raw edge list (used by partition strategies),
/// * a forward CSR index (`out_neighbors`),
/// * a reverse CSR index (`in_neighbors`, needed by graph simulation and by
///   the computation of `Fi.I` border sets),
/// * one label per vertex.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    directedness: Directedness,
    num_vertices: usize,
    edges: Vec<Edge>,
    out: Csr,
    r#in: Csr,
    vertex_labels: Vec<Label>,
}

impl Graph {
    /// Assembles a graph from its parts.  `edges` stores each logical edge
    /// once, also for undirected graphs.  Prefer [`crate::builder::GraphBuilder`].
    pub fn from_parts(
        directedness: Directedness,
        num_vertices: usize,
        edges: Vec<Edge>,
        vertex_labels: Vec<Label>,
    ) -> Self {
        debug_assert_eq!(vertex_labels.len(), num_vertices);
        let (forward, backward) = match directedness {
            Directedness::Directed => {
                let rev: Vec<Edge> = edges.iter().map(|e| e.reversed()).collect();
                (
                    Csr::from_edges(num_vertices, &edges),
                    Csr::from_edges(num_vertices, &rev),
                )
            }
            Directedness::Undirected => {
                let mut sym = Vec::with_capacity(edges.len() * 2);
                for e in &edges {
                    sym.push(*e);
                    if e.src != e.dst {
                        sym.push(e.reversed());
                    }
                }
                let csr = Csr::from_edges(num_vertices, &sym);
                (csr.clone(), csr)
            }
        };
        Graph {
            directedness,
            num_vertices,
            edges,
            out: forward,
            r#in: backward,
            vertex_labels,
        }
    }

    /// Assembles a directed graph from finished CSR rows, with no sorting:
    /// `out_offsets[v]..out_offsets[v + 1]` indexes `v`'s out-row in
    /// `out_neighbors` (targets), and likewise the in-row of `v` in
    /// `in_neighbors` (sources).  The caller guarantees the three views
    /// agree and each offset vector has one entry per vertex plus one;
    /// [`Graph::from_parts`] builds the same graph from the edge list alone
    /// when each in-row lists its sources in edge-list order.
    pub fn from_csr_parts(
        edges: Vec<Edge>,
        out_offsets: Vec<usize>,
        out_neighbors: Vec<Neighbor>,
        in_offsets: Vec<usize>,
        in_neighbors: Vec<Neighbor>,
        vertex_labels: Vec<Label>,
    ) -> Self {
        let num_vertices = vertex_labels.len();
        debug_assert_eq!(out_offsets.len(), num_vertices + 1);
        debug_assert_eq!(in_offsets.len(), num_vertices + 1);
        debug_assert_eq!(out_neighbors.len(), edges.len());
        debug_assert_eq!(in_neighbors.len(), edges.len());
        Graph {
            directedness: Directedness::Directed,
            num_vertices,
            edges,
            out: Csr::from_rows(out_offsets, out_neighbors),
            r#in: Csr::from_rows(in_offsets, in_neighbors),
            vertex_labels,
        }
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directedness == Directedness::Directed
    }

    /// Directedness of the graph.
    pub fn directedness(&self) -> Directedness {
        self.directedness
    }

    /// Number of vertices `|V|`.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of logical edges `|E|` (undirected edges counted once).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices as VertexId
    }

    /// The raw edge list (each logical edge once).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing adjacency of `v` (both directions for undirected graphs).
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[Neighbor] {
        self.out.neighbors(v)
    }

    /// Incoming adjacency of `v` (same as outgoing for undirected graphs).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[Neighbor] {
        self.r#in.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out.degree(v)
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.r#in.degree(v)
    }

    /// Label of vertex `v` (paper: `L(v)`), [`NO_LABEL`] when unlabeled.
    #[inline]
    pub fn vertex_label(&self, v: VertexId) -> Label {
        self.vertex_labels
            .get(v as usize)
            .copied()
            .unwrap_or(NO_LABEL)
    }

    /// All vertex labels, indexed by vertex id.
    pub fn vertex_labels(&self) -> &[Label] {
        &self.vertex_labels
    }

    /// Returns `true` when the vertex id is within bounds.
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.num_vertices
    }

    /// The set of distinct vertex labels present in the graph.
    pub fn distinct_vertex_labels(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self.vertex_labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// An undirected view of this graph: same vertices and labels, edges made
    /// symmetric.  Used by connected components over directed inputs.
    pub fn to_undirected(&self) -> Graph {
        if self.directedness == Directedness::Undirected {
            return self.clone();
        }
        Graph::from_parts(
            Directedness::Undirected,
            self.num_vertices,
            self.edges.clone(),
            self.vertex_labels.clone(),
        )
    }

    /// Sum of all vertex degrees divided by `|V|`; a quick density statistic
    /// used by the load balancer and by workload descriptions.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            return 0.0;
        }
        self.out.num_entries() as f64 / self.num_vertices as f64
    }

    /// Structural invariants used by tests:
    /// * both CSR indexes are well formed,
    /// * every edge endpoint is a valid vertex,
    /// * the label vector covers every vertex.
    pub fn check_invariants(&self) -> bool {
        self.out.check_invariants()
            && self.r#in.check_invariants()
            && self.vertex_labels.len() == self.num_vertices
            && self
                .edges
                .iter()
                .all(|e| self.contains_vertex(e.src) && self.contains_vertex(e.dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        GraphBuilder::new(Directedness::Directed)
            .add_weighted_edge(0, 1, 1.0)
            .add_weighted_edge(0, 2, 2.0)
            .add_weighted_edge(1, 3, 3.0)
            .add_weighted_edge(2, 3, 4.0)
            .build()
    }

    #[test]
    fn directed_in_and_out_neighbors_differ() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 0);
        let ins: Vec<VertexId> = g.in_neighbors(3).iter().map(|n| n.target).collect();
        assert_eq!(ins, vec![1, 2]);
    }

    #[test]
    fn undirected_adjacency_is_symmetric() {
        let g = GraphBuilder::new(Directedness::Undirected)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_neighbors(0)[0].target, 1);
        assert_eq!(g.out_neighbors(2)[0].target, 1);
    }

    #[test]
    fn undirected_self_loop_stored_once() {
        let g = GraphBuilder::new(Directedness::Undirected)
            .add_edge(0, 0)
            .add_edge(0, 1)
            .build();
        assert_eq!(g.out_degree(0), 2); // self loop once + edge to 1
    }

    #[test]
    fn labels_default_to_no_label() {
        let g = diamond();
        assert_eq!(g.vertex_label(0), NO_LABEL);
        assert_eq!(g.vertex_label(3), NO_LABEL);
    }

    #[test]
    fn to_undirected_makes_edges_reachable_both_ways() {
        let g = diamond().to_undirected();
        assert!(!g.is_directed());
        assert_eq!(g.out_degree(3), 2);
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn invariants_hold() {
        assert!(diamond().check_invariants());
    }

    /// Flattens per-vertex rows into CSR offsets and entries.
    fn flatten(rows: Vec<Vec<Neighbor>>) -> (Vec<usize>, Vec<Neighbor>) {
        let mut offsets = vec![0];
        let mut entries = Vec::new();
        for row in rows {
            entries.extend(row);
            offsets.push(entries.len());
        }
        (offsets, entries)
    }

    /// The CSR-parts constructor builds what `from_parts` builds from the
    /// edge list, over seeded lists with empty rows, self-loops and
    /// parallel edges.
    #[test]
    fn csr_parts_constructor_matches_from_parts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..12usize);
            let mut edges = Vec::new();
            if n > 0 {
                for _ in 0..rng.gen_range(0..3 * n) {
                    let src = rng.gen_range(0..n) as VertexId;
                    let dst = match rng.gen_range(0..5) {
                        0 => src,
                        _ => rng.gen_range(0..n) as VertexId,
                    };
                    let edge = Edge::new(src, dst, rng.gen_range(1..4) as f64, rng.gen_range(0..3));
                    edges.push(edge);
                    if rng.gen_range(0..4) == 0 {
                        edges.push(edge);
                    }
                }
            }
            let labels: Vec<Label> = (0..n).map(|_| rng.gen_range(0..3)).collect();
            let mut out_rows = vec![Vec::new(); n];
            let mut in_rows = vec![Vec::new(); n];
            for e in &edges {
                let to = |target| Neighbor {
                    target,
                    weight: e.weight,
                    label: e.label,
                };
                out_rows[e.src as usize].push(to(e.dst));
                in_rows[e.dst as usize].push(to(e.src));
            }
            let (out_offsets, out_entries) = flatten(out_rows);
            let (in_offsets, in_entries) = flatten(in_rows);
            let ours = Graph::from_csr_parts(
                edges.clone(),
                out_offsets,
                out_entries,
                in_offsets,
                in_entries,
                labels.clone(),
            );
            let theirs = Graph::from_parts(Directedness::Directed, n, edges, labels);
            assert!(ours.check_invariants(), "seed {seed}");
            assert_eq!(ours.num_vertices(), theirs.num_vertices(), "seed {seed}");
            assert_eq!(ours.edges(), theirs.edges(), "seed {seed}");
            assert_eq!(ours.vertex_labels(), theirs.vertex_labels(), "seed {seed}");
            // Offsets and entries: every out-row and in-row, in order.
            assert_eq!(ours.out, theirs.out, "seed {seed} out-rows");
            assert_eq!(ours.r#in, theirs.r#in, "seed {seed} in-rows");
        }
    }

    #[test]
    fn average_degree() {
        let g = diamond();
        assert!((g.average_degree() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip_preserves_structure() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_vertices(), g.num_vertices());
        assert_eq!(back.num_edges(), g.num_edges());
        assert_eq!(back.out_degree(0), g.out_degree(0));
    }
}
