//! Compressed sparse row (CSR) adjacency.
//!
//! The [`Csr`] structure stores, for every vertex, a contiguous slice of its
//! outgoing (or incoming, when used as a reverse index) edges.  It is the
//! storage backbone of [`crate::graph::Graph`] and of the per-fragment local
//! graphs built by `grape-partition`.

use serde::{Deserialize, Serialize};

use crate::types::{Edge, Label, VertexId, Weight};

/// A single adjacency entry: the endpoint of an edge together with its
/// attributes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The other endpoint of the edge.
    pub target: VertexId,
    /// Edge weight.
    pub weight: Weight,
    /// Edge label.
    pub label: Label,
}

/// Compressed sparse row adjacency over dense vertex ids `0..n`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` is the range of `neighbors` owned by `v`.
    offsets: Vec<usize>,
    /// Flattened adjacency lists.
    neighbors: Vec<Neighbor>,
}

impl Csr {
    /// Builds a CSR index over `num_vertices` vertices from an edge list,
    /// using `src` as the owning endpoint.
    ///
    /// Edges are grouped per source with a counting sort, so construction is
    /// `O(|V| + |E|)`.  Within a vertex, neighbors keep the insertion order of
    /// the edge list.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        let mut counts = vec![0usize; num_vertices + 1];
        for e in edges {
            debug_assert!(
                (e.src as usize) < num_vertices,
                "edge source {} out of bounds (n = {})",
                e.src,
                num_vertices
            );
            counts[e.src as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut neighbors = vec![
            Neighbor {
                target: 0,
                weight: 0.0,
                label: 0
            };
            edges.len()
        ];
        for e in edges {
            let slot = cursor[e.src as usize];
            neighbors[slot] = Neighbor {
                target: e.dst,
                weight: e.weight,
                label: e.label,
            };
            cursor[e.src as usize] += 1;
        }
        Csr { offsets, neighbors }
    }

    /// A CSR index over finished rows (see [`Graph::from_csr_parts`]).
    ///
    /// [`Graph::from_csr_parts`]: crate::graph::Graph::from_csr_parts
    pub(crate) fn from_rows(offsets: Vec<usize>, neighbors: Vec<Neighbor>) -> Self {
        debug_assert_eq!(offsets.first().copied().unwrap_or(0), 0);
        debug_assert_eq!(offsets.last().copied().unwrap_or(0), neighbors.len());
        Csr { offsets, neighbors }
    }

    /// Number of vertices indexed.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of adjacency entries.
    pub fn num_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// The adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Neighbor] {
        let v = v as usize;
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v` in this index.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Iterates over `(source, neighbor)` pairs for all vertices.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &Neighbor)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |n| (v, n)))
    }

    /// Checks structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        if self.offsets.is_empty() {
            return self.neighbors.is_empty();
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.neighbors.len() {
            return false;
        }
        self.offsets.windows(2).all(|w| w[0] <= w[1])
            && self.neighbors.iter().all(|n| {
                (n.target as usize) < self.num_vertices().max(1) || self.num_vertices() == 0
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges() -> Vec<Edge> {
        vec![
            Edge::new(0, 1, 1.0, 0),
            Edge::new(0, 2, 2.0, 1),
            Edge::new(2, 0, 3.0, 0),
            Edge::new(1, 2, 4.0, 2),
            Edge::new(0, 3, 5.0, 0),
        ]
    }

    #[test]
    fn builds_grouped_adjacency() {
        let csr = Csr::from_edges(4, &edges());
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_entries(), 5);
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(2), 1);
        assert_eq!(csr.degree(3), 0);

        let targets: Vec<VertexId> = csr.neighbors(0).iter().map(|n| n.target).collect();
        assert_eq!(targets, vec![1, 2, 3]);
        assert_eq!(csr.neighbors(1)[0].weight, 4.0);
        assert_eq!(csr.neighbors(1)[0].label, 2);
    }

    #[test]
    fn preserves_insertion_order_within_vertex() {
        let edges = vec![
            Edge::unweighted(0, 3),
            Edge::unweighted(0, 1),
            Edge::unweighted(0, 2),
        ];
        let csr = Csr::from_edges(4, &edges);
        let targets: Vec<VertexId> = csr.neighbors(0).iter().map(|n| n.target).collect();
        assert_eq!(targets, vec![3, 1, 2]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edges(0, &[]);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_entries(), 0);
        assert!(csr.check_invariants());
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let csr = Csr::from_edges(5, &[Edge::unweighted(1, 2)]);
        assert_eq!(csr.degree(0), 0);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.degree(4), 0);
        assert_eq!(csr.degree(1), 1);
    }

    #[test]
    fn iter_visits_every_edge_once() {
        let csr = Csr::from_edges(4, &edges());
        let collected: Vec<(VertexId, VertexId)> = csr.iter().map(|(s, n)| (s, n.target)).collect();
        assert_eq!(collected.len(), 5);
        assert!(collected.contains(&(0, 1)));
        assert!(collected.contains(&(2, 0)));
    }

    #[test]
    fn invariants_hold_for_random_like_input() {
        let csr = Csr::from_edges(4, &edges());
        assert!(csr.check_invariants());
    }
}
