//! The fragmentation graph `G_P` (Section 2 of the paper).
//!
//! `G_P` is an index that, for every border vertex `v`, retrieves the set of
//! fragment pairs `(i → j)` such that `v ∈ F_i.O` and `v ∈ F_j.I`.  The GRAPE
//! engine consults it to deduce the destination of every changed update
//! parameter, so that only the fragments that can actually use a value
//! receive it.

use grape_graph::hash::KeyedHashMap;
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
    outer_holders: HolderLists,
    /// For each border vertex, the fragments that hold it in `F_i.I`, sorted.
    in_holders: HolderLists,
    /// Vertex-cut semantics: a shared (replicated) vertex's update parameters
    /// must reach *every* fragment holding a copy, whatever the scope
    /// (paper, Section 3.2(3b): "if P is vertex-cut, it identifies nodes
    /// shared by F_i and F_j").
    shared_vertex_routing: bool,
}

/// Per-vertex sorted fragment lists packed into one buffer.  A delta clones
/// `G_P` for its new version; packed, the clone copies two flat
/// allocations (the index and the buffer) instead of allocating one list
/// per border vertex.  A changed list is appended and its old entries go
/// stale; the buffer is repacked once stale entries outnumber live ones.
#[derive(Debug, Clone, Default)]
struct HolderLists {
    /// Per vertex, where its list lies in `ids`: `(start, len)`.
    index: KeyedHashMap<VertexId, (u32, u32)>,
    ids: Vec<u32>,
    /// Total length of the lists `index` points at.
    live: usize,
}

impl HolderLists {
    /// Packs `v ∈ sets[i]` into per-vertex lists of `i`, sorted.
    fn from_sets(sets: &[Vec<VertexId>]) -> HolderLists {
        let mut lists: KeyedHashMap<VertexId, Vec<u32>> = KeyedHashMap::default();
        for (i, vs) in sets.iter().enumerate() {
            for &v in vs {
                lists.entry(v).or_default().push(i as u32);
            }
        }
        let mut packed = HolderLists::default();
        for (v, mut list) in lists {
            list.sort_unstable();
            list.dedup();
            packed.set(v, &list);
        }
        packed
    }

    /// `v`'s list, empty when it has none.
    fn get(&self, v: VertexId) -> &[u32] {
        self.index.get(&v).map_or(&[], |&(start, len)| {
            &self.ids[start as usize..(start + len) as usize]
        })
    }

    fn contains(&self, v: VertexId) -> bool {
        self.index.contains_key(&v)
    }

    fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.index.keys().copied()
    }

    /// Replaces `v`'s list; an empty one drops `v`.
    fn set(&mut self, v: VertexId, list: &[u32]) {
        if let Some((_, len)) = self.index.remove(&v) {
            self.live -= len as usize;
        }
        if list.is_empty() {
            return;
        }
        self.index
            .insert(v, (self.ids.len() as u32, list.len() as u32));
        self.ids.extend_from_slice(list);
        self.live += list.len();
        if self.ids.len() > 2 * self.live + 64 {
            let mut ids = Vec::with_capacity(self.live);
            for (start, len) in self.index.values_mut() {
                let from = *start as usize;
                *start = ids.len() as u32;
                ids.extend_from_slice(&self.ids[from..from + *len as usize]);
            }
            self.ids = ids;
        }
    }
}

/// Equal lists, however they are packed.
impl PartialEq for HolderLists {
    fn eq(&self, other: &HolderLists) -> bool {
        self.index.len() == other.index.len()
            && self
                .vertices()
                .all(|v| other.contains(v) && self.get(v) == other.get(v))
    }
}

impl FragmentationGraph {
    /// Builds `G_P` from the owner map and the per-fragment border sets.
    ///
    /// * `owner[v]` — owning fragment of each vertex,
    /// * `outer[i]` — global ids in `F_i.O`,
    /// * `inner_border[i]` — global ids in `F_i.I`.
    pub fn new(owner: Vec<u32>, outer: &[Vec<VertexId>], inner_border: &[Vec<VertexId>]) -> Self {
        assert_eq!(outer.len(), inner_border.len(), "fragment count mismatch");
        FragmentationGraph {
            num_fragments: outer.len(),
            owner,
            outer_holders: HolderLists::from_sets(outer),
            in_holders: HolderLists::from_sets(inner_border),
            shared_vertex_routing: false,
        }
    }

    /// Switches to vertex-cut routing semantics: every update to a shared
    /// vertex is delivered to all fragments holding a copy of it.
    pub fn with_shared_vertex_routing(mut self) -> Self {
        self.shared_vertex_routing = true;
        self
    }

    /// Registers the next vertex id, owned by `fragment`.
    pub(crate) fn push_owner(&mut self, fragment: u32) {
        self.owner.push(fragment);
    }

    /// Records `v ∈ F_i.O`.
    pub(crate) fn add_outer_holder(&mut self, v: VertexId, i: u32) {
        let list = self.outer_holders.get(v);
        if let Err(at) = list.binary_search(&i) {
            let mut grown = list.to_vec();
            grown.insert(at, i);
            self.outer_holders.set(v, &grown);
        }
    }

    /// Records `v ∉ F_i.O`; a vertex no fragment holds as an outer copy
    /// drops out of the index.
    pub(crate) fn remove_outer_holder(&mut self, v: VertexId, i: u32) {
        let list = self.outer_holders.get(v);
        if let Ok(at) = list.binary_search(&i) {
            let mut rest = list.to_vec();
            rest.remove(at);
            self.outer_holders.set(v, &rest);
        }
    }

    /// Sets the fragment holding `v` in `F_i.I` (edge-cut: its owner), or
    /// none.
    pub(crate) fn set_in_holder(&mut self, v: VertexId, holder: Option<u32>) {
        self.in_holders.set(v, holder.as_slice());
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
        self.outer_holders.get(v)
    }

    /// Fragments with `v ∈ F_i.I`.
    pub fn in_holders(&self, v: VertexId) -> &[u32] {
        self.in_holders.get(v)
    }

    /// Whether `v` is a border vertex of the partition (in `F.O = F.I`).
    pub fn is_border(&self, v: VertexId) -> bool {
        self.outer_holders.contains(v) || self.in_holders.contains(v)
    }

    /// All border vertices (in arbitrary order).
    pub fn border_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut seen: Vec<VertexId> = self
            .outer_holders
            .vertices()
            .chain(self.in_holders.vertices())
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.into_iter()
    }

    /// Fills `dests` (cleared first) with the destinations of an update to
    /// vertex `v` produced by fragment `from`, under the given scope (paper,
    /// Section 3.2(3b): "deduces their designations `P_j` by referencing
    /// `G_P`"), in ascending order.  The caller owns the buffer, so routing
    /// a message allocates nothing once it has grown.
    ///
    /// The producing fragment itself is never a destination.
    pub fn route(&self, v: VertexId, from: usize, scope: BorderScope, dests: &mut Vec<usize>) {
        dests.clear();
        let scope = if self.shared_vertex_routing {
            BorderScope::Both
        } else {
            scope
        };
        match scope {
            BorderScope::Out => {
                // Value computed for an outer copy → fragments where v is an
                // inner border vertex.
                dests.extend(self.in_holders(v).iter().map(|&j| j as usize));
                // If v has no incoming cross edges recorded (e.g. vertex-cut
                // master without in-border entry), fall back to the owner.
                if dests.is_empty() {
                    dests.push(self.owner(v));
                }
            }
            BorderScope::In => dests.extend(self.outer_holders(v).iter().map(|&j| j as usize)),
            BorderScope::Both => {
                dests.extend(self.in_holders(v).iter().map(|&j| j as usize));
                dests.extend(self.outer_holders(v).iter().map(|&j| j as usize));
                dests.push(self.owner(v));
            }
        }
        dests.sort_unstable();
        dests.dedup();
        dests.retain(|&d| d != from);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`FragmentationGraph::route`] into a fresh buffer.
    fn route(gp: &FragmentationGraph, v: VertexId, from: usize, scope: BorderScope) -> Vec<usize> {
        let mut dests = vec![usize::MAX]; // stale content the call must clear
        gp.route(v, from, scope, &mut dests);
        dests
    }

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
        assert_eq!(route(&gp, 2, 0, BorderScope::Out), vec![1]);
        // Fragment 1 computed a value for its outer copy 0 → goes to fragment 0.
        assert_eq!(route(&gp, 0, 1, BorderScope::Out), vec![0]);
    }

    #[test]
    fn in_scope_routes_to_outer_copy_holders() {
        let gp = sample();
        // Fragment 1 updated inner border vertex 2 → fragment 0 holds 2 as outer copy.
        assert_eq!(route(&gp, 2, 1, BorderScope::In), vec![0]);
    }

    #[test]
    fn both_scope_unions_and_excludes_sender() {
        let gp = sample();
        let dests = route(&gp, 2, 0, BorderScope::Both);
        assert_eq!(dests, vec![1]);
        let dests = route(&gp, 2, 1, BorderScope::Both);
        assert_eq!(dests, vec![0]);
    }

    #[test]
    fn out_scope_falls_back_to_owner_when_no_in_border_entry() {
        let owner = vec![0, 1];
        let outer = vec![vec![1], vec![]];
        let inner_border = vec![vec![], vec![]];
        let gp = FragmentationGraph::new(owner, &outer, &inner_border);
        assert_eq!(route(&gp, 1, 0, BorderScope::Out), vec![1]);
    }

    /// Packed holder lists read back what was written through many
    /// replacements, repacks included, and compare equal to a fresh
    /// packing of the same lists.
    #[test]
    fn holder_lists_read_back_through_repacking() {
        use std::collections::{BTreeMap, BTreeSet};
        let mut gp = sample();
        let mut model: BTreeMap<VertexId, BTreeSet<u32>> = BTreeMap::new();
        model.entry(2).or_default().insert(0);
        model.entry(0).or_default().insert(1);
        for round in 0..500u32 {
            let v = VertexId::from(round * 7 % 11);
            let (add, drop) = (round % 5, round * 3 % 5);
            gp.add_outer_holder(v, add);
            model.entry(v).or_default().insert(add);
            if round % 3 == 0 {
                gp.remove_outer_holder(v, drop);
                model.entry(v).or_default().remove(&drop);
            }
            for (&u, holders) in &model {
                let want: Vec<u32> = holders.iter().copied().collect();
                assert_eq!(gp.outer_holders(u), want, "round {round} vertex {u}");
                assert_eq!(gp.is_border(u), !want.is_empty() || u == 2 || u == 0);
            }
        }
        assert!(gp.outer_holders.ids.len() <= 2 * gp.outer_holders.live + 64);
        let sets: Vec<Vec<VertexId>> = (0..5u32)
            .map(|i| {
                model
                    .iter()
                    .filter(|(_, hs)| hs.contains(&i))
                    .map(|(&v, _)| v)
                    .collect()
            })
            .collect();
        assert_eq!(gp.outer_holders, HolderLists::from_sets(&sets));
    }

    #[test]
    fn non_border_vertex_routes_nowhere_under_in_scope() {
        let gp = sample();
        assert!(route(&gp, 1, 0, BorderScope::In).is_empty());
    }
}
