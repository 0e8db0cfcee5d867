//! Batched graph updates `ΔG` (the *evolving graph* setting of Section 3.4).
//!
//! The paper's signature observation is that the `IncEval` function that
//! drives supersteps also answers queries **under updates**: once `Q(G)` is
//! known, `Q(G ⊕ ΔG)` can be computed by re-running `IncEval` from the
//! retained partial results instead of `PEval` from scratch.  A
//! [`GraphDelta`] is the unit `ΔG` of that protocol: a batch of vertex and
//! edge insertions and deletions, applied atomically.
//!
//! Semantics (designed so that global vertex ids stay **stable** — fragment
//! state is addressed by global id, and renumbering would invalidate every
//! retained partial result):
//!
//! * **Edge insertion** may reference brand-new vertex ids; the vertex set is
//!   extended to cover them (like [`crate::builder::GraphBuilder`]).
//! * **Edge deletion** removes *every* parallel edge matching `(src, dst)`
//!   (and, for undirected graphs, the mirrored pair).
//! * **Vertex insertion** adds an isolated vertex with a label.
//! * **Vertex deletion** *detaches* the vertex: all incident edges are
//!   removed, but the id remains valid (an isolated vertex).  Ids are never
//!   reused.
//! * **Bounded id growth.**  Naming an id `v ≥ n` creates every id in
//!   `n..=v`, so a delta may name a new id only below `n + k + 64`
//!   ([`ID_SLACK`]), where `k` is the number of distinct new ids it names
//!   (vertex insertions and edge endpoints).  The vertex set then grows by
//!   at most `k + 64` per delta, linear in what the delta spells out, and a
//!   small gap stays allowed.  A delta past the bound is rejected whole with
//!   [`DeltaError::IdBeyondBound`] before anything is applied.
//!
//! Deletions are flagged by [`GraphDelta::has_removals`] because they decide
//! whether a PIE program can take the monotone IncEval-only update path (see
//! `grape_core::pie::IncrementalPie`).

use serde::{Deserialize, Serialize};

use crate::graph::Graph;
use crate::types::{Edge, Label, VertexId, Weight, NO_LABEL, UNIT_WEIGHT};

/// Errors produced by [`Graph::apply_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge deletion referenced an edge that is not in the graph.
    MissingEdge {
        /// Source of the missing edge.
        src: VertexId,
        /// Destination of the missing edge.
        dst: VertexId,
    },
    /// A vertex deletion referenced a vertex id outside the graph.
    MissingVertex(VertexId),
    /// A vertex insertion re-used an id that already exists.
    VertexExists(VertexId),
    /// A new id at or past the id-growth bound `n + k + 64` (see the
    /// module docs).
    IdBeyondBound {
        /// The largest new id the delta names.
        id: VertexId,
        /// The first id the delta may not name.
        bound: VertexId,
    },
}

/// How far past `n + k` a delta naming `k` distinct new ids may reach: the
/// gap of never-named ids one delta may create.
pub const ID_SLACK: VertexId = 64;

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::MissingEdge { src, dst } => {
                write!(f, "cannot remove edge {src} -> {dst}: not in the graph")
            }
            DeltaError::MissingVertex(v) => {
                write!(f, "cannot remove vertex {v}: not in the graph")
            }
            DeltaError::VertexExists(v) => {
                write!(f, "cannot add vertex {v}: id already exists")
            }
            DeltaError::IdBeyondBound { id, bound } => write!(
                f,
                "cannot add vertex {id}: new ids must stay below {bound} \
                 (vertices + new ids named + {ID_SLACK})"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// A batch of graph updates `ΔG`: vertex/edge insertions and deletions.
/// The new ids it names must stay below `n + k + 64`
/// ([`GraphDelta::check_id_growth`], module docs).
///
/// Built fluently:
///
/// ```
/// use grape_graph::delta::GraphDelta;
///
/// let delta = GraphDelta::new()
///     .add_weighted_edge(0, 7, 2.5)
///     .add_vertex(9, 3)
///     .remove_edge(1, 2);
/// assert!(delta.has_insertions() && delta.has_removals());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    added_vertices: Vec<(VertexId, Label)>,
    added_edges: Vec<Edge>,
    removed_edges: Vec<(VertexId, VertexId)>,
    removed_vertices: Vec<VertexId>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Adds an isolated vertex with a label ([`NO_LABEL`] for unlabeled).
    pub fn add_vertex(mut self, v: VertexId, label: Label) -> Self {
        self.added_vertices.push((v, label));
        self
    }

    /// Inserts an unweighted edge (weight [`UNIT_WEIGHT`]).
    pub fn add_edge(self, src: VertexId, dst: VertexId) -> Self {
        self.add_edge_record(Edge::new(src, dst, UNIT_WEIGHT, NO_LABEL))
    }

    /// Inserts a weighted edge.
    pub fn add_weighted_edge(self, src: VertexId, dst: VertexId, weight: Weight) -> Self {
        self.add_edge_record(Edge::new(src, dst, weight, NO_LABEL))
    }

    /// Inserts a full edge record.
    pub fn add_edge_record(mut self, edge: Edge) -> Self {
        self.added_edges.push(edge);
        self
    }

    /// Removes every edge matching `(src, dst)` (and the mirrored pair on
    /// undirected graphs).
    pub fn remove_edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.removed_edges.push((src, dst));
        self
    }

    /// Detaches vertex `v`: removes all incident edges, keeps the id valid.
    pub fn remove_vertex(mut self, v: VertexId) -> Self {
        self.removed_vertices.push(v);
        self
    }

    /// The vertex insertions `(id, label)`.
    pub fn added_vertices(&self) -> &[(VertexId, Label)] {
        &self.added_vertices
    }

    /// The edge insertions.
    pub fn added_edges(&self) -> &[Edge] {
        &self.added_edges
    }

    /// The edge deletions `(src, dst)`.
    pub fn removed_edges(&self) -> &[(VertexId, VertexId)] {
        &self.removed_edges
    }

    /// The vertex deletions.
    pub fn removed_vertices(&self) -> &[VertexId] {
        &self.removed_vertices
    }

    /// Whether the delta contains no updates at all.
    pub fn is_empty(&self) -> bool {
        self.added_vertices.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.removed_vertices.is_empty()
    }

    /// Whether the delta inserts any vertex or edge.
    pub fn has_insertions(&self) -> bool {
        !self.added_vertices.is_empty() || !self.added_edges.is_empty()
    }

    /// Whether the delta removes any vertex or edge.  Deletions are what
    /// usually breaks the monotone IncEval-only update path (SSSP distances
    /// can grow back, components can split) — graph simulation is the notable
    /// exception, where deletions are the monotone direction.
    pub fn has_removals(&self) -> bool {
        !self.removed_edges.is_empty() || !self.removed_vertices.is_empty()
    }

    /// Checks the id-growth rule against a graph of `num_vertices`
    /// vertices: every new id the delta names lies below
    /// `num_vertices + k + ID_SLACK`, `k` being the number of distinct new
    /// ids.  The error names the largest new id.
    pub fn check_id_growth(&self, num_vertices: usize) -> Result<(), DeltaError> {
        let n = num_vertices as VertexId;
        let mut new_ids: Vec<VertexId> = self
            .added_vertices
            .iter()
            .map(|&(v, _)| v)
            .chain(self.added_edges.iter().flat_map(|e| [e.src, e.dst]))
            .filter(|&v| v >= n)
            .collect();
        new_ids.sort_unstable();
        new_ids.dedup();
        let bound = n
            .saturating_add(new_ids.len() as VertexId)
            .saturating_add(ID_SLACK);
        match new_ids.last() {
            Some(&id) if id >= bound => Err(DeltaError::IdBeyondBound { id, bound }),
            _ => Ok(()),
        }
    }

    /// Total number of updates in the batch.
    pub fn len(&self) -> usize {
        self.added_vertices.len()
            + self.added_edges.len()
            + self.removed_edges.len()
            + self.removed_vertices.len()
    }
}

impl Graph {
    /// Applies a batch of updates, producing `G ⊕ ΔG`.
    ///
    /// The graph is immutable (CSR-frozen), so this rebuilds the edge list
    /// and re-indexes — `O(|V| + |E| + |ΔG|)`.  This is the oracle and test
    /// path: the serving path never calls it, because
    /// `grape_partition`'s `Fragmentation::apply_delta` patches the touched
    /// fragments instead and checks removals with exactly these rules and
    /// this error precedence.
    ///
    /// See the module docs for the exact semantics of each update kind.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Graph, DeltaError> {
        use std::collections::HashSet;

        // Hash the removal sets once so the filter below stays O(|E| + |ΔG|)
        // (undirected graphs match either orientation, so both are stored).
        let gone_vertices: HashSet<VertexId> = delta.removed_vertices().iter().copied().collect();
        let mut gone_edges: HashSet<(VertexId, VertexId)> = HashSet::new();
        for &(src, dst) in delta.removed_edges() {
            gone_edges.insert((src, dst));
            if !self.is_directed() {
                gone_edges.insert((dst, src));
            }
        }

        // Validate removals against the current graph.
        for &v in delta.removed_vertices() {
            if !self.contains_vertex(v) {
                return Err(DeltaError::MissingVertex(v));
            }
        }
        let present: HashSet<(VertexId, VertexId)> = self
            .edges()
            .iter()
            .map(|e| (e.src, e.dst))
            .filter(|pair| gone_edges.contains(pair))
            .collect();
        for &(src, dst) in delta.removed_edges() {
            let found = present.contains(&(src, dst))
                || (!self.is_directed() && present.contains(&(dst, src)));
            if !found {
                return Err(DeltaError::MissingEdge { src, dst });
            }
        }
        for &(v, _) in delta.added_vertices() {
            if self.contains_vertex(v) {
                return Err(DeltaError::VertexExists(v));
            }
        }
        delta.check_id_growth(self.num_vertices())?;

        // New vertex count: ids stay dense and stable.
        let mut n = self.num_vertices();
        for &(v, _) in delta.added_vertices() {
            n = n.max(v as usize + 1);
        }
        for e in delta.added_edges() {
            n = n.max(e.src as usize + 1).max(e.dst as usize + 1);
        }

        let mut edges: Vec<Edge> = self
            .edges()
            .iter()
            .filter(|e| {
                !gone_vertices.contains(&e.src)
                    && !gone_vertices.contains(&e.dst)
                    && !gone_edges.contains(&(e.src, e.dst))
            })
            .copied()
            .collect();
        edges.extend(delta.added_edges().iter().copied());

        let mut labels: Vec<Label> = self.vertex_labels().to_vec();
        labels.resize(n, NO_LABEL);
        for &(v, label) in delta.added_vertices() {
            labels[v as usize] = label;
        }

        Ok(Graph::from_parts(self.directedness(), n, edges, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        GraphBuilder::directed()
            .add_weighted_edge(0, 1, 1.0)
            .add_weighted_edge(0, 2, 2.0)
            .add_weighted_edge(1, 3, 3.0)
            .add_weighted_edge(2, 3, 4.0)
            .build()
    }

    #[test]
    fn edge_insertion_extends_the_vertex_set() {
        let g = diamond();
        let updated = g
            .apply_delta(&GraphDelta::new().add_weighted_edge(3, 5, 1.5))
            .unwrap();
        assert_eq!(updated.num_vertices(), 6);
        assert_eq!(updated.num_edges(), 5);
        assert_eq!(updated.out_neighbors(3)[0].target, 5);
        assert!(updated.check_invariants());
    }

    #[test]
    fn edge_removal_drops_all_parallel_copies() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        let updated = g.apply_delta(&GraphDelta::new().remove_edge(0, 1)).unwrap();
        assert_eq!(updated.num_edges(), 1);
        assert_eq!(updated.out_degree(0), 0);
    }

    #[test]
    fn undirected_edge_removal_matches_either_orientation() {
        let g = GraphBuilder::undirected().add_edge(0, 1).build();
        let updated = g.apply_delta(&GraphDelta::new().remove_edge(1, 0)).unwrap();
        assert_eq!(updated.num_edges(), 0);
    }

    #[test]
    fn vertex_removal_detaches_but_keeps_the_id() {
        let g = diamond();
        let updated = g.apply_delta(&GraphDelta::new().remove_vertex(1)).unwrap();
        assert_eq!(updated.num_vertices(), 4, "ids stay stable");
        assert_eq!(updated.num_edges(), 2, "both incident edges removed");
        assert_eq!(updated.out_degree(1), 0);
        assert_eq!(updated.in_degree(1), 0);
    }

    #[test]
    fn vertex_insertion_carries_its_label() {
        let g = diamond();
        let updated = g.apply_delta(&GraphDelta::new().add_vertex(7, 42)).unwrap();
        assert_eq!(updated.num_vertices(), 8);
        assert_eq!(updated.vertex_label(7), 42);
        assert_eq!(updated.vertex_label(5), NO_LABEL);
    }

    #[test]
    fn removing_a_missing_edge_is_an_error() {
        let g = diamond();
        assert_eq!(
            g.apply_delta(&GraphDelta::new().remove_edge(3, 0))
                .unwrap_err(),
            DeltaError::MissingEdge { src: 3, dst: 0 }
        );
        assert_eq!(
            g.apply_delta(&GraphDelta::new().remove_vertex(9))
                .unwrap_err(),
            DeltaError::MissingVertex(9)
        );
        assert_eq!(
            g.apply_delta(&GraphDelta::new().add_vertex(0, 1))
                .unwrap_err(),
            DeltaError::VertexExists(0)
        );
    }

    /// One new id may reach `n + 64`; two may reach `n + 65`.  One past
    /// is rejected, naming the id and the bound, on either side of an edge
    /// and for a vertex insertion.
    #[test]
    fn new_ids_stay_below_the_growth_bound() {
        let g = diamond();
        let n = g.num_vertices() as VertexId;
        let updated = g
            .apply_delta(&GraphDelta::new().add_edge(0, n + ID_SLACK))
            .unwrap();
        assert_eq!(updated.num_vertices() as VertexId, n + ID_SLACK + 1);
        let past = n + ID_SLACK + 1;
        let rejected = [
            GraphDelta::new().add_edge(0, past),
            GraphDelta::new().add_edge(past, 0),
            GraphDelta::new().add_vertex(past, 1),
        ];
        for delta in rejected {
            assert_eq!(
                g.apply_delta(&delta).unwrap_err(),
                DeltaError::IdBeyondBound {
                    id: past,
                    bound: past
                }
            );
        }
        let two = GraphDelta::new()
            .add_vertex(n, 1)
            .add_edge(0, n + ID_SLACK + 1);
        assert_eq!(
            g.apply_delta(&two).unwrap().num_vertices() as VertexId,
            past + 1
        );
        let two_past = GraphDelta::new().add_vertex(n, 1).add_edge(0, past + 1);
        assert_eq!(
            g.apply_delta(&two_past).unwrap_err(),
            DeltaError::IdBeyondBound {
                id: past + 1,
                bound: past + 1
            }
        );
        // A repeated id counts once.
        let repeated = GraphDelta::new().add_edge(0, n).add_edge(n, past);
        assert!(g.apply_delta(&repeated).is_ok());
        let repeated_past = GraphDelta::new()
            .add_edge(0, n)
            .add_edge(n, 0)
            .add_edge(0, past + 1);
        assert!(g.apply_delta(&repeated_past).is_err());
    }

    #[test]
    fn empty_delta_is_identity() {
        let g = diamond();
        let updated = g.apply_delta(&GraphDelta::new()).unwrap();
        assert_eq!(updated.num_vertices(), g.num_vertices());
        assert_eq!(updated.num_edges(), g.num_edges());
        assert!(GraphDelta::new().is_empty());
    }

    #[test]
    fn classification_flags() {
        assert!(GraphDelta::new().add_edge(0, 1).has_insertions());
        assert!(!GraphDelta::new().add_edge(0, 1).has_removals());
        assert!(GraphDelta::new().remove_edge(0, 1).has_removals());
        assert!(GraphDelta::new().remove_vertex(2).has_removals());
        assert_eq!(GraphDelta::new().add_edge(0, 1).remove_vertex(2).len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let delta = GraphDelta::new()
            .add_weighted_edge(1, 2, 3.5)
            .add_vertex(9, 4)
            .remove_edge(0, 1)
            .remove_vertex(5);
        let json = serde_json::to_string(&delta).unwrap();
        let back: GraphDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back.added_edges().len(), 1);
        assert_eq!(back.added_vertices(), &[(9, 4)]);
        assert_eq!(back.removed_edges(), &[(0, 1)]);
        assert_eq!(back.removed_vertices(), &[5]);
    }
}
