//! The fragmentation graph `G_P` (Section 2 of the paper).
//!
//! `G_P` is an index that, for every border vertex `v`, retrieves the set of
//! fragment pairs `(i → j)` such that `v ∈ F_i.O` and `v ∈ F_j.I`.  The GRAPE
//! engine consults it to deduce the destination of every changed update
//! parameter, so that only the fragments that can actually use a value
//! receive it.

use std::collections::HashMap;

use grape_graph::types::VertexId;
use serde::{Deserialize, Serialize};

/// Which border set a PIE program's update parameters live on
/// (Section 3.2: the candidate set `C_i` is `F_i.O`, `F_i.I`, or both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BorderScope {
    /// Update parameters attached to `F_i.O`: a changed value for an outer
    /// copy `v` is routed to the fragments where `v` is an inner border
    /// vertex (its owner).  Used by SSSP and CC.
    Out,
    /// Update parameters attached to `F_i.I`: a changed value for an inner
    /// border vertex `v` is routed to the fragments that hold `v` as an outer
    /// copy.  Used by graph simulation.
    In,
    /// Both directions (union of the two destination sets).  Used by CF,
    /// where factor vectors of shared vertices must stay consistent on every
    /// replica.
    Both,
}

/// The fragmentation graph `G_P`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FragmentationGraph {
    num_fragments: usize,
    /// Owner (the fragment whose inner set contains the vertex); for
    /// vertex-cut partitions this is the master replica.
    owner: Vec<u32>,
    /// For each border vertex, the fragments that hold it as an outer copy
    /// (`v ∈ F_i.O`), sorted.
    outer_holders: HashMap<VertexId, Vec<u32>>,
    /// For each border vertex, the fragments that hold it in `F_i.I`, sorted.
    in_holders: HashMap<VertexId, Vec<u32>>,
    /// Vertex-cut semantics: a shared (replicated) vertex's update parameters
    /// must reach *every* fragment holding a copy, whatever the scope
    /// (paper, Section 3.2(3b): "if P is vertex-cut, it identifies nodes
    /// shared by F_i and F_j").
    shared_vertex_routing: bool,
}

impl FragmentationGraph {
    /// Builds `G_P` from the owner map and the per-fragment border sets.
    ///
    /// * `owner[v]` — owning fragment of each vertex,
    /// * `outer[i]` — global ids in `F_i.O`,
    /// * `inner_border[i]` — global ids in `F_i.I`.
    pub fn new(owner: Vec<u32>, outer: &[Vec<VertexId>], inner_border: &[Vec<VertexId>]) -> Self {
        assert_eq!(outer.len(), inner_border.len(), "fragment count mismatch");
        let num_fragments = outer.len();
        let mut outer_holders: HashMap<VertexId, Vec<u32>> = HashMap::new();
        for (i, vs) in outer.iter().enumerate() {
            for &v in vs {
                outer_holders.entry(v).or_default().push(i as u32);
            }
        }
        let mut in_holders: HashMap<VertexId, Vec<u32>> = HashMap::new();
        for (i, vs) in inner_border.iter().enumerate() {
            for &v in vs {
                in_holders.entry(v).or_default().push(i as u32);
            }
        }
        for list in outer_holders.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        for list in in_holders.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        FragmentationGraph {
            num_fragments,
            owner,
            outer_holders,
            in_holders,
            shared_vertex_routing: false,
        }
    }

    /// Switches to vertex-cut routing semantics: every update to a shared
    /// vertex is delivered to all fragments holding a copy of it.
    pub fn with_shared_vertex_routing(mut self) -> Self {
        self.shared_vertex_routing = true;
        self
    }

    /// Whether vertex-cut (shared vertex) routing semantics are in effect.
    pub fn shared_vertex_routing(&self) -> bool {
        self.shared_vertex_routing
    }

    /// Number of fragments `m`.
    pub fn num_fragments(&self) -> usize {
        self.num_fragments
    }

    /// Number of vertices of the partitioned graph.
    pub fn num_vertices(&self) -> usize {
        self.owner.len()
    }

    /// The fragment owning vertex `v`.
    pub fn owner(&self, v: VertexId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Fragments holding `v` as an outer copy (`v ∈ F_i.O`), empty slice when
    /// `v` is not a border vertex.
    pub fn outer_holders(&self, v: VertexId) -> &[u32] {
        self.outer_holders.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fragments with `v ∈ F_i.I`.
    pub fn in_holders(&self, v: VertexId) -> &[u32] {
        self.in_holders.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `v` is a border vertex of the partition (in `F.O = F.I`).
    pub fn is_border(&self, v: VertexId) -> bool {
        self.outer_holders.contains_key(&v) || self.in_holders.contains_key(&v)
    }

    /// All border vertices (in arbitrary order).
    pub fn border_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut seen: Vec<VertexId> = self
            .outer_holders
            .keys()
            .chain(self.in_holders.keys())
            .copied()
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.into_iter()
    }

    /// The destinations of an update to vertex `v` produced by fragment
    /// `from`, under the given scope (paper, Section 3.2(3b): "deduces their
    /// designations `P_j` by referencing `G_P`").
    ///
    /// The producing fragment itself is never a destination.
    pub fn route(&self, v: VertexId, from: usize, scope: BorderScope) -> Vec<usize> {
        let mut dests: Vec<usize> = Vec::new();
        let scope = if self.shared_vertex_routing {
            BorderScope::Both
        } else {
            scope
        };
        match scope {
            BorderScope::Out => {
                // Value computed for an outer copy → fragments where v is an
                // inner border vertex.
                for &j in self.in_holders(v) {
                    dests.push(j as usize);
                }
                // If v has no incoming cross edges recorded (e.g. vertex-cut
                // master without in-border entry), fall back to the owner.
                if dests.is_empty() {
                    dests.push(self.owner(v));
                }
            }
            BorderScope::In => {
                for &j in self.outer_holders(v) {
                    dests.push(j as usize);
                }
            }
            BorderScope::Both => {
                for &j in self.in_holders(v) {
                    dests.push(j as usize);
                }
                for &j in self.outer_holders(v) {
                    dests.push(j as usize);
                }
                let owner = self.owner(v);
                dests.push(owner);
            }
        }
        dests.sort_unstable();
        dests.dedup();
        dests.retain(|&d| d != from);
        dests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two fragments: F0 = {0,1}, F1 = {2,3}; cross edges 1→2 and 3→0.
    fn sample() -> FragmentationGraph {
        let owner = vec![0, 0, 1, 1];
        let outer = vec![vec![2], vec![0]]; // F0.O = {2}, F1.O = {0}
        let inner_border = vec![vec![0], vec![2]]; // F0.I = {0}, F1.I = {2}
        FragmentationGraph::new(owner, &outer, &inner_border)
    }

    #[test]
    fn owner_lookup() {
        let gp = sample();
        assert_eq!(gp.owner(1), 0);
        assert_eq!(gp.owner(2), 1);
        assert_eq!(gp.num_fragments(), 2);
    }

    #[test]
    fn border_vertices_are_union_of_both_sides() {
        let gp = sample();
        let border: Vec<VertexId> = gp.border_vertices().collect();
        assert_eq!(border, vec![0, 2]);
        assert!(gp.is_border(0));
        assert!(!gp.is_border(1));
    }

    #[test]
    fn out_scope_routes_to_owner_side() {
        let gp = sample();
        // Fragment 0 computed a value for its outer copy 2 → goes to fragment 1.
        assert_eq!(gp.route(2, 0, BorderScope::Out), vec![1]);
        // Fragment 1 computed a value for its outer copy 0 → goes to fragment 0.
        assert_eq!(gp.route(0, 1, BorderScope::Out), vec![0]);
    }

    #[test]
    fn in_scope_routes_to_outer_copy_holders() {
        let gp = sample();
        // Fragment 1 updated inner border vertex 2 → fragment 0 holds 2 as outer copy.
        assert_eq!(gp.route(2, 1, BorderScope::In), vec![0]);
    }

    #[test]
    fn both_scope_unions_and_excludes_sender() {
        let gp = sample();
        let dests = gp.route(2, 0, BorderScope::Both);
        assert_eq!(dests, vec![1]);
        let dests = gp.route(2, 1, BorderScope::Both);
        assert_eq!(dests, vec![0]);
    }

    #[test]
    fn out_scope_falls_back_to_owner_when_no_in_border_entry() {
        let owner = vec![0, 1];
        let outer = vec![vec![1], vec![]];
        let inner_border = vec![vec![], vec![]];
        let gp = FragmentationGraph::new(owner, &outer, &inner_border);
        assert_eq!(gp.route(1, 0, BorderScope::Out), vec![1]);
    }

    #[test]
    fn non_border_vertex_routes_nowhere_under_in_scope() {
        let gp = sample();
        assert!(gp.route(1, 0, BorderScope::In).is_empty());
    }
}
