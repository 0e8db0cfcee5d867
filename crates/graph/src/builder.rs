//! Incremental construction of [`Graph`] values.

use crate::graph::{Directedness, Graph};
use crate::types::{Edge, Label, VertexId, Weight, NO_LABEL};

/// Builder for [`Graph`].
///
/// Vertices are implicitly created by referencing them in edges or by
/// [`GraphBuilder::ensure_vertices`]; the final vertex count is
/// `max(referenced id) + 1`, so ids should be dense for memory efficiency.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    directedness: Option<Directedness>,
    edges: Vec<Edge>,
    vertex_labels: Vec<(VertexId, Label)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// Creates a builder for a graph with the given directedness.
    pub fn new(directedness: Directedness) -> Self {
        GraphBuilder {
            directedness: Some(directedness),
            edges: Vec::new(),
            vertex_labels: Vec::new(),
            min_vertices: 0,
        }
    }

    /// Creates a builder for a directed graph (the common case in the paper).
    pub fn directed() -> Self {
        Self::new(Directedness::Directed)
    }

    /// Creates a builder for an undirected graph (used by CC).
    pub fn undirected() -> Self {
        Self::new(Directedness::Undirected)
    }

    /// Pre-reserves capacity for `edges` edge records.
    pub fn with_capacity(mut self, edges: usize) -> Self {
        self.edges.reserve(edges);
        self
    }

    /// Guarantees the graph has at least `n` vertices, even if some are
    /// isolated.
    pub fn ensure_vertices(mut self, n: usize) -> Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds an unlabeled, unit-weight edge.
    pub fn add_edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.edges.push(Edge::unweighted(src, dst));
        self
    }

    /// Adds an unlabeled, weighted edge.
    pub fn add_weighted_edge(mut self, src: VertexId, dst: VertexId, weight: Weight) -> Self {
        self.edges.push(Edge::weighted(src, dst, weight));
        self
    }

    /// Adds a fully specified edge.
    pub fn add_labeled_edge(
        mut self,
        src: VertexId,
        dst: VertexId,
        weight: Weight,
        label: Label,
    ) -> Self {
        self.edges.push(Edge::new(src, dst, weight, label));
        self
    }

    /// Adds a pre-built edge record.
    pub fn add_edge_record(mut self, edge: Edge) -> Self {
        self.edges.push(edge);
        self
    }

    /// Bulk-adds edge records.
    pub fn extend_edges<I: IntoIterator<Item = Edge>>(mut self, edges: I) -> Self {
        self.edges.extend(edges);
        self
    }

    /// Sets the label of a vertex (overriding any previous label).
    pub fn set_vertex_label(mut self, v: VertexId, label: Label) -> Self {
        self.vertex_labels.push((v, label));
        self
    }

    /// In-place (non-consuming) variants, convenient inside loops.
    pub fn push_edge(&mut self, edge: Edge) {
        self.edges.push(edge);
    }

    /// In-place vertex label assignment.
    pub fn push_vertex_label(&mut self, v: VertexId, label: Label) {
        self.vertex_labels.push((v, label));
    }

    /// Freezes the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let directedness = self.directedness.unwrap_or(Directedness::Directed);
        let mut n = self.min_vertices;
        for e in &self.edges {
            n = n.max(e.src as usize + 1).max(e.dst as usize + 1);
        }
        for (v, _) in &self.vertex_labels {
            n = n.max(*v as usize + 1);
        }
        let mut labels = vec![NO_LABEL; n];
        for (v, l) in &self.vertex_labels {
            labels[*v as usize] = *l;
        }
        Graph::from_parts(directedness, n, self.edges, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_count_is_max_id_plus_one() {
        let g = GraphBuilder::directed().add_edge(0, 7).build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn ensure_vertices_creates_isolated_vertices() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .ensure_vertices(5)
            .build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.out_degree(4), 0);
    }

    #[test]
    fn labels_are_applied_and_extend_vertex_count() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .set_vertex_label(3, 9)
            .set_vertex_label(0, 2)
            .build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.vertex_label(0), 2);
        assert_eq!(g.vertex_label(3), 9);
        assert_eq!(g.vertex_label(1), NO_LABEL);
    }

    #[test]
    fn later_label_overrides_earlier() {
        let g = GraphBuilder::directed()
            .set_vertex_label(0, 1)
            .set_vertex_label(0, 5)
            .build();
        assert_eq!(g.vertex_label(0), 5);
    }

    #[test]
    fn push_edge_and_extend_edges_accumulate() {
        let mut b = GraphBuilder::undirected();
        b.push_edge(Edge::unweighted(0, 1));
        let g = b
            .extend_edges(vec![Edge::unweighted(1, 2), Edge::unweighted(2, 3)])
            .build();
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_directed());
    }

    #[test]
    fn empty_builder_produces_empty_graph() {
        let g = GraphBuilder::directed().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.check_invariants());
    }
}
