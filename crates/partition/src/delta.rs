//! Applying a [`GraphDelta`] to a [`Fragmentation`]: fragment rebuilds,
//! border-set maintenance and fragmentation-graph (`G_P`) maintenance.
//!
//! The update path of a prepared query (see `grape_core::prepared`) needs
//! three things from the partition layer when `ΔG` arrives:
//!
//! 1. the **updated fragments** — only the fragments whose local structure
//!    (inner vertices, outer copies, local edges, border sets) actually
//!    changed are rebuilt; all others are reused untouched, so their
//!    retained partial results stay valid by construction;
//! 2. the **updated `G_P`** — border sets can grow or shrink with `ΔG`, and
//!    message routing must follow immediately;
//! 3. the **per-fragment restriction of `ΔG`** ([`FragmentDelta`]) — what an
//!    `IncrementalPie` program's rebase step needs in order to convert the
//!    delta into update-parameter messages.
//!
//! Delta application is implemented for **edge-cut** fragmentations (the
//! default strategy family, including [`crate::metis_like::MetisLike`] and
//! the hash/range cuts).  Vertex-cut fragmentations are rejected with
//! [`DeltaError::UnsupportedPartition`]: moving an edge of a shared vertex
//! can re-elect the master replica, which silently re-keys retained state.
//!
//! New vertices introduced by `ΔG` are assigned to fragment `v mod m` — the
//! same stateless rule a streaming partitioner would apply; a later
//! re-partition can rebalance.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use grape_graph::delta::{DeltaError as GraphDeltaError, GraphDelta};
use grape_graph::types::{Edge, VertexId};

use crate::fragment::{assemble_edge_cut, build_edge_cut_fragment, Fragment, Fragmentation};
use crate::fragmentation_graph::BorderScope;

/// Errors produced by [`Fragmentation::apply_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The underlying graph rejected the delta (missing edge/vertex, …).
    Graph(GraphDeltaError),
    /// The fragmentation was not produced by an edge-cut strategy.
    UnsupportedPartition(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Graph(e) => write!(f, "{e}"),
            DeltaError::UnsupportedPartition(kind) => write!(
                f,
                "delta application needs an edge-cut fragmentation, got {kind}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<GraphDeltaError> for DeltaError {
    fn from(e: GraphDeltaError) -> Self {
        DeltaError::Graph(e)
    }
}

/// The restriction of a [`GraphDelta`] to one fragment: the updates that are
/// visible in that fragment's local subgraph.  Handed to
/// `IncrementalPie::rebase` so a program can convert the structural change
/// into update-parameter messages.
///
/// Edge removals implied by a *vertex* removal are not enumerated here (they
/// follow from [`FragmentDelta::removed_vertices`] and the old fragment's
/// adjacency); only explicit edge removals are listed.
#[derive(Debug, Clone)]
pub struct FragmentDelta {
    /// The fragment this restriction belongs to.
    pub fragment: usize,
    /// Inserted edges present in this fragment's local subgraph (global ids).
    pub added_edges: Vec<Edge>,
    /// Explicitly removed edges that were local to this fragment (global ids).
    pub removed_edges: Vec<(VertexId, VertexId)>,
    /// Vertices that are newly present in this fragment (inner or outer copy).
    pub added_vertices: Vec<VertexId>,
    /// Vertices that left this fragment's local vertex set, plus detached
    /// (removed-but-still-owned) inner vertices.
    pub removed_vertices: Vec<VertexId>,
}

/// The result of applying `ΔG` to a fragmentation.
#[derive(Debug, Clone)]
pub struct DeltaApplication {
    /// The updated fragmentation: rebuilt affected fragments, reused
    /// unaffected ones, and a freshly derived `G_P`.
    pub fragmentation: Fragmentation,
    /// One entry per fragment whose structure changed, with the delta
    /// restricted to it.  Fragments not listed here are bit-identical to
    /// before and their retained partial results need no rebase.
    pub affected: Vec<FragmentDelta>,
}

impl Fragmentation {
    /// Applies a batch of graph updates, maintaining fragments, border sets
    /// and the fragmentation graph.  See the module docs for semantics and
    /// the edge-cut restriction.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaApplication, DeltaError> {
        if self.gp().shared_vertex_routing() {
            return Err(DeltaError::UnsupportedPartition("vertex-cut".to_string()));
        }
        let m = self.num_fragments();
        let old_source = self.source().as_ref();
        let new_source = Arc::new(old_source.apply_delta(delta)?);

        // Extend the vertex → fragment assignment; ids never move, new ids
        // are hashed onto fragments.
        let old_n = self.gp().num_vertices();
        let new_n = new_source.num_vertices();
        let mut assignment: Vec<u32> = (0..old_n as VertexId)
            .map(|v| self.gp().owner(v) as u32)
            .collect();
        assignment.extend((old_n..new_n).map(|v| (v % m) as u32));
        let owner_of = |v: VertexId| assignment[v as usize] as usize;

        // Candidate fragments whose local structure can have changed: the
        // owners of both endpoints of every changed edge (the source's
        // fragment holds the edge and its outer copies; the target's
        // fragment may gain or lose in-border status), the owners of new
        // vertices, and — for removed vertices — the owners of every former
        // neighbor (their fragments held the copies).
        let mut candidates: BTreeSet<usize> = BTreeSet::new();
        for e in delta.added_edges() {
            candidates.insert(owner_of(e.src));
            candidates.insert(owner_of(e.dst));
        }
        for &(src, dst) in delta.removed_edges() {
            candidates.insert(owner_of(src));
            candidates.insert(owner_of(dst));
        }
        // Every new vertex id — explicit insertions and the gap-filling ids
        // implicitly created by edge insertions (ids stay dense) — lands as
        // a fresh inner vertex of its owner.
        for v in old_n as VertexId..new_n as VertexId {
            candidates.insert(owner_of(v));
        }
        for &v in delta.removed_vertices() {
            candidates.insert(owner_of(v));
            for n in old_source.out_neighbors(v) {
                candidates.insert(owner_of(n.target));
            }
            for n in old_source.in_neighbors(v) {
                candidates.insert(owner_of(n.target));
            }
        }

        // Inner vertex lists (global order) for the candidates only.
        let mut inner: HashMap<usize, Vec<VertexId>> =
            candidates.iter().map(|&i| (i, Vec::new())).collect();
        for v in new_source.vertices() {
            if let Some(list) = inner.get_mut(&owner_of(v)) {
                list.push(v);
            }
        }

        // Rebuild candidates; keep the old fragment whenever the rebuild is
        // structurally identical (the delta did not actually touch it).
        // Untouched fragments keep their `Arc`, so every prepared query over
        // the old fragmentation keeps sharing their storage.
        let mut fragments: Vec<Arc<Fragment>> = self.fragments().to_vec();
        let mut affected: Vec<FragmentDelta> = Vec::new();
        for &i in &candidates {
            let rebuilt = build_edge_cut_fragment(&new_source, &assignment, i, &inner[&i]);
            if rebuilt.same_structure(&fragments[i]) {
                continue;
            }
            affected.push(restrict_delta(
                delta,
                i,
                &fragments[i],
                &rebuilt,
                &owner_of,
                new_source.is_directed(),
            ));
            fragments[i] = Arc::new(rebuilt);
        }

        let fragmentation = assemble_edge_cut(
            fragments,
            assignment,
            new_source,
            self.strategy_name().to_string(),
        );
        Ok(DeltaApplication {
            fragmentation,
            affected,
        })
    }
}

/// Restricts `delta` to fragment `i`, given the fragment before and after
/// the rebuild.
fn restrict_delta(
    delta: &GraphDelta,
    i: usize,
    old_frag: &Fragment,
    new_frag: &Fragment,
    owner_of: &dyn Fn(VertexId) -> usize,
    directed: bool,
) -> FragmentDelta {
    // An edge lives in the local subgraph of its source's owner; undirected
    // edges additionally appear (mirrored) in the target's owner.
    let local_edge =
        |src: VertexId, dst: VertexId| owner_of(src) == i || (!directed && owner_of(dst) == i);
    let added_edges: Vec<Edge> = delta
        .added_edges()
        .iter()
        .filter(|e| local_edge(e.src, e.dst))
        .copied()
        .collect();
    let removed_edges: Vec<(VertexId, VertexId)> = delta
        .removed_edges()
        .iter()
        .filter(|&&(s, d)| local_edge(s, d))
        .copied()
        .collect();

    // Vertex membership diff between the old and the new fragment.
    let added_vertices: Vec<VertexId> = new_frag
        .all_locals()
        .map(|l| new_frag.global_of(l))
        .filter(|&g| old_frag.local_of(g).is_none())
        .collect();
    let mut removed_vertices: Vec<VertexId> = old_frag
        .all_locals()
        .map(|l| old_frag.global_of(l))
        .filter(|&g| new_frag.local_of(g).is_none())
        .collect();
    // Detached inner vertices stay present (tombstones) but count as removed
    // for the program's purposes.
    for &v in delta.removed_vertices() {
        if new_frag.local_of(v).is_some() && !removed_vertices.contains(&v) {
            removed_vertices.push(v);
        }
    }

    FragmentDelta {
        fragment: i,
        added_edges,
        removed_edges,
        added_vertices,
        removed_vertices,
    }
}

// ---------------------------------------------------------------------------
// Damage frontier
// ---------------------------------------------------------------------------

/// How far the damage of a **non-monotone** delta spreads across fragments —
/// the policy behind the engine's *bounded refresh* (re-PEval only the
/// damaged fragments instead of everywhere).  A PIE program picks the policy
/// that matches its dependency structure; the partition layer turns it into
/// a concrete fragment set via [`damage_frontier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamagePolicy {
    /// Closure of the structurally changed fragments under **message-flow
    /// reachability** (the program's [`BorderScope`], over the union of the
    /// old and new quotient graphs).  Sound for programs whose fixpoint is
    /// schedule-independent given fixed boundary inputs — the
    /// Assurance-Theorem programs (SSSP, CC, Sim) — *provided* the retained
    /// border values of undamaged fragments are reseeded into the fixpoint
    /// (`IncrementalPie::reseed`): every undamaged fragment's partial is a
    /// function of its own unchanged structure and of inputs from other
    /// undamaged fragments only, so it equals a full recompute's by
    /// construction.
    Reachability,
    /// Whole quotient **connected components** containing a changed
    /// fragment.  For trajectory-dependent programs (CF's SGD epochs): no
    /// boundary exchange between damaged and undamaged fragments may exist
    /// at all, so damage swallows everything transitively connected — but
    /// updates confined to one component leave the others untouched.
    Component,
    /// Changed fragments plus a `k`-hop halo in the (undirected) quotient
    /// graph.  For programs whose partial is a pure function of a bounded
    /// neighborhood — PEval derives it without boundary inputs, so no
    /// reseeding happens under this policy (SubIso: a changed edge can
    /// only enter a fragment's `d_Q`-hop expansion if the fragment is
    /// within `d_Q + 1` quotient hops of the edge's owner, so
    /// `Halo(d_Q + 1)` is sound).
    Halo(usize),
}

/// The derived routing tables of the fragment quotient graph: the
/// message-flow successor sets for every [`BorderScope`] plus the undirected
/// structural adjacency.  They are a pure function of `G_P`, O(m²) small,
/// and consulted on every damage-frontier computation — so a
/// [`Fragmentation`] derives them **once** and caches the result (shared
/// across clones of the same version).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuotientTables {
    /// Successor sets under [`BorderScope::Out`].
    pub successors_out: Vec<BTreeSet<usize>>,
    /// Successor sets under [`BorderScope::In`].
    pub successors_in: Vec<BTreeSet<usize>>,
    /// Successor sets under [`BorderScope::Both`].
    pub successors_both: Vec<BTreeSet<usize>>,
    /// Undirected structural adjacency: fragments sharing a border vertex.
    pub adjacency: Vec<BTreeSet<usize>>,
}

impl QuotientTables {
    /// Derives all four tables from a fragmentation's `G_P` (one pass over
    /// the border vertices per table).
    pub fn derive(frag: &Fragmentation) -> QuotientTables {
        let gp = frag.gp();
        let m = frag.num_fragments();
        let mut tables = QuotientTables {
            successors_out: vec![BTreeSet::new(); m],
            successors_in: vec![BTreeSet::new(); m],
            successors_both: vec![BTreeSet::new(); m],
            adjacency: vec![BTreeSet::new(); m],
        };
        for v in gp.border_vertices() {
            let holders: Vec<usize> = holders_of(frag, v).collect();
            for &i in &holders {
                for dest in gp.route(v, i, BorderScope::Out) {
                    tables.successors_out[i].insert(dest);
                }
                for dest in gp.route(v, i, BorderScope::In) {
                    tables.successors_in[i].insert(dest);
                }
                for dest in gp.route(v, i, BorderScope::Both) {
                    tables.successors_both[i].insert(dest);
                }
                for &j in &holders {
                    if i != j {
                        tables.adjacency[i].insert(j);
                    }
                }
            }
        }
        tables
    }

    /// The successor table of one scope.
    pub fn successors(&self, scope: BorderScope) -> &[BTreeSet<usize>] {
        match scope {
            BorderScope::Out => &self.successors_out,
            BorderScope::In => &self.successors_in,
            BorderScope::Both => &self.successors_both,
        }
    }
}

impl Fragmentation {
    /// The cached quotient tables of this fragmentation version, deriving
    /// them on first use.  Clones of one version share the cache; delta
    /// application produces a fresh (empty) cell for the new version.
    pub fn quotient_tables(&self) -> Arc<QuotientTables> {
        self.quotient_cell()
            .get_or_init(|| Arc::new(QuotientTables::derive(self)))
            .clone()
    }

    /// The message-flow successor sets of the fragment quotient graph: for
    /// every fragment `i`, the fragments an update parameter produced by `i`
    /// can reach under `scope` (derived from `G_P` exactly like the engine's
    /// routing, so the frontier never under-approximates real traffic).
    /// Served from the per-version cache.
    pub fn quotient_successors(&self, scope: BorderScope) -> Vec<BTreeSet<usize>> {
        self.quotient_tables().successors(scope).to_vec()
    }

    /// Undirected structural adjacency of the fragment quotient graph:
    /// fragments are adjacent iff they hold a copy of a common border
    /// vertex (i.e. a cross edge connects them, in either direction).
    /// Served from the per-version cache.
    pub fn quotient_adjacency(&self) -> Vec<BTreeSet<usize>> {
        self.quotient_tables().adjacency.clone()
    }
}

/// Every fragment holding a copy of border vertex `v` (owner, outer-copy
/// holders and in-border holders), deduplicated.
fn holders_of(frag: &Fragmentation, v: VertexId) -> impl Iterator<Item = usize> {
    let gp = frag.gp();
    let mut holders: BTreeSet<usize> = BTreeSet::new();
    holders.insert(gp.owner(v));
    holders.extend(gp.outer_holders(v).iter().map(|&i| i as usize));
    holders.extend(gp.in_holders(v).iter().map(|&i| i as usize));
    holders.into_iter()
}

/// Unions two successor tables (old and new quotient graphs): stale state
/// propagated along an edge that the delta *removed* is still stale, so the
/// frontier must follow both.
fn union_tables(a: Vec<BTreeSet<usize>>, b: Vec<BTreeSet<usize>>) -> Vec<BTreeSet<usize>> {
    a.into_iter()
        .zip(b)
        .map(|(mut x, y)| {
            x.extend(y);
            x
        })
        .collect()
}

/// BFS over a successor table from `seeds`, bounded by `max_hops`
/// (`usize::MAX` = full closure).  Returns the damage mask.
fn bfs_closure(table: &[BTreeSet<usize>], seeds: &[usize], max_hops: usize) -> Vec<bool> {
    let m = table.len();
    let mut damaged = vec![false; m];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for &s in seeds {
        if s < m && !damaged[s] {
            damaged[s] = true;
            queue.push_back((s, 0));
        }
    }
    while let Some((i, depth)) = queue.pop_front() {
        if depth >= max_hops {
            continue;
        }
        for &j in &table[i] {
            if j < m && !damaged[j] {
                damaged[j] = true;
                queue.push_back((j, depth + 1));
            }
        }
    }
    damaged
}

/// The damage frontier of a non-monotone delta, as computed by
/// [`damage_frontier`].
#[derive(Debug, Clone)]
pub struct DamageFrontier {
    /// Mask of fragments whose retained partial results may be stale and
    /// must be re-rooted with PEval during a bounded refresh.
    pub damaged: Vec<bool>,
    /// The *undamaged* fragments whose retained border values the refresh
    /// must reseed: those with at least one damaged message-flow successor
    /// in the **new** quotient graph (a freshly re-PEval'ed fragment would
    /// otherwise never re-learn the values its undamaged neighbours
    /// contributed).  Only populated under [`DamagePolicy::Reachability`]
    /// — the component closure has no cross-boundary flow by construction,
    /// and halo programs derive their partials without boundary inputs.
    pub reseed_sources: Vec<usize>,
}

impl DamageFrontier {
    /// The damaged fragment ids, ascending.
    pub fn damaged_ids(&self) -> Vec<usize> {
        self.damaged
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Computes the **damage frontier** of a non-monotone delta.  `changed` is
/// the set of structurally changed fragments
/// (`DeltaApplication::affected`), always contained in the damage mask;
/// `old`/`new` are the fragmentations before and after the delta (the
/// closure follows the union of both quotient graphs: stale state
/// propagated along an edge the delta *removed* is still stale).
pub fn damage_frontier(
    old: &Fragmentation,
    new: &Fragmentation,
    changed: &[usize],
    policy: DamagePolicy,
    scope: BorderScope,
) -> DamageFrontier {
    let (damaged, new_successors) = match policy {
        DamagePolicy::Reachability => {
            let new_succ = new.quotient_successors(scope);
            let table = union_tables(old.quotient_successors(scope), new_succ.clone());
            (bfs_closure(&table, changed, usize::MAX), Some(new_succ))
        }
        DamagePolicy::Component => {
            let table = union_tables(old.quotient_adjacency(), new.quotient_adjacency());
            (bfs_closure(&table, changed, usize::MAX), None)
        }
        DamagePolicy::Halo(k) => {
            let table = union_tables(old.quotient_adjacency(), new.quotient_adjacency());
            (bfs_closure(&table, changed, k), None)
        }
    };
    let reseed_sources = new_successors
        .map(|succ| {
            succ.iter()
                .enumerate()
                .filter(|(i, s)| !damaged[*i] && s.iter().any(|&j| damaged[j]))
                .map(|(i, _)| i)
                .collect()
        })
        .unwrap_or_default();
    DamageFrontier {
        damaged,
        reseed_sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use crate::strategy::PartitionStrategy;
    use crate::vertex_cut::GreedyVertexCut;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::graph::Graph;

    /// 0 -> 1 -> 2 -> 3 -> 4 -> 5, ranges {0,1,2} and {3,4,5}.
    fn chain() -> (Graph, Fragmentation) {
        let mut b = GraphBuilder::directed();
        for v in 0..5u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        (g, frag)
    }

    /// Rebuilding from scratch must agree with incremental application.
    fn assert_matches_fresh_partition(applied: &DeltaApplication) {
        let fresh = {
            let src = applied.fragmentation.source().clone();
            let m = applied.fragmentation.num_fragments();
            let assignment: Vec<u32> = (0..src.num_vertices() as VertexId)
                .map(|v| applied.fragmentation.gp().owner(v) as u32)
                .collect();
            crate::fragment::build_edge_cut(&src, &assignment, m, "fresh")
        };
        for i in 0..fresh.num_fragments() {
            let a = applied.fragmentation.fragment(i);
            let b = fresh.fragment(i);
            assert_eq!(a.num_inner(), b.num_inner(), "fragment {i} inner");
            assert_eq!(a.num_local(), b.num_local(), "fragment {i} local");
            assert_eq!(
                a.out_border_globals(),
                b.out_border_globals(),
                "fragment {i} F.O"
            );
            assert_eq!(
                a.in_border_globals(),
                b.in_border_globals(),
                "fragment {i} F.I"
            );
            assert_eq!(
                a.num_local_edges(),
                b.num_local_edges(),
                "fragment {i} edges"
            );
            assert!(a.check_invariants());
        }
    }

    #[test]
    fn inserting_a_cross_edge_grows_both_border_sets() {
        let (_, frag) = chain();
        // New cross edge 1 -> 4: F0 gains outer copy 4, F1 gains in-border 4.
        let delta = GraphDelta::new().add_weighted_edge(1, 4, 2.0);
        let applied = frag.apply_delta(&delta).unwrap();
        let f0 = applied.fragmentation.fragment(0);
        let f1 = applied.fragmentation.fragment(1);
        let mut f0_out = f0.out_border_globals();
        f0_out.sort_unstable();
        assert_eq!(f0_out, vec![3, 4]);
        assert!(f1.in_border_globals().contains(&4));
        assert!(applied.fragmentation.gp().is_border(4));
        assert_eq!(applied.affected.len(), 2);
        assert_matches_fresh_partition(&applied);
        // The restriction routes the edge to fragment 0 (owner of vertex 1).
        let d0 = applied.affected.iter().find(|d| d.fragment == 0).unwrap();
        assert_eq!(d0.added_edges.len(), 1);
        assert_eq!(d0.added_vertices, vec![4]);
        let d1 = applied.affected.iter().find(|d| d.fragment == 1).unwrap();
        assert!(
            d1.added_edges.is_empty(),
            "directed edge is not local to F1"
        );
    }

    #[test]
    fn purely_local_insert_affects_one_fragment() {
        let (_, frag) = chain();
        let delta = GraphDelta::new().add_weighted_edge(0, 2, 5.0);
        let applied = frag.apply_delta(&delta).unwrap();
        assert_eq!(applied.affected.len(), 1);
        assert_eq!(applied.affected[0].fragment, 0);
        assert_matches_fresh_partition(&applied);
    }

    #[test]
    fn removing_the_only_cross_edge_clears_the_border() {
        let (_, frag) = chain();
        assert!(frag.gp().is_border(3));
        let delta = GraphDelta::new().remove_edge(2, 3);
        let applied = frag.apply_delta(&delta).unwrap();
        assert!(!applied.fragmentation.gp().is_border(3));
        assert!(applied
            .fragmentation
            .fragment(0)
            .out_border_globals()
            .is_empty());
        assert!(applied
            .fragmentation
            .fragment(1)
            .in_border_globals()
            .is_empty());
        assert_matches_fresh_partition(&applied);
    }

    #[test]
    fn new_vertices_are_hashed_onto_fragments() {
        let (_, frag) = chain();
        // Vertex 7 -> fragment 7 % 2 = 1; edge 5 -> 7 is fragment-local to
        // F1; the implicitly created gap vertex 6 lands in fragment 6 % 2 = 0.
        let delta = GraphDelta::new().add_weighted_edge(5, 7, 1.0);
        let applied = frag.apply_delta(&delta).unwrap();
        assert_eq!(applied.fragmentation.gp().owner(7), 1);
        assert_eq!(applied.affected.len(), 2);
        let d0 = applied.affected.iter().find(|d| d.fragment == 0).unwrap();
        assert_eq!(d0.added_vertices, vec![6], "implicit gap vertex");
        let d1 = applied.affected.iter().find(|d| d.fragment == 1).unwrap();
        assert!(d1.added_vertices.contains(&7));
        assert_eq!(d1.added_edges.len(), 1);
        assert_matches_fresh_partition(&applied);
    }

    #[test]
    fn vertex_removal_drops_copies_everywhere() {
        let (_, frag) = chain();
        let delta = GraphDelta::new().remove_vertex(3);
        let applied = frag.apply_delta(&delta).unwrap();
        // F0 loses the outer copy of 3; F1 keeps the detached inner vertex.
        let f0 = applied.fragmentation.fragment(0);
        let f1 = applied.fragmentation.fragment(1);
        assert!(f0.local_of(3).is_none());
        assert!(f1.local_of(3).is_some(), "tombstone stays with its owner");
        assert!(!applied.fragmentation.gp().is_border(3));
        let d0 = applied.affected.iter().find(|d| d.fragment == 0).unwrap();
        assert!(d0.removed_vertices.contains(&3));
        let d1 = applied.affected.iter().find(|d| d.fragment == 1).unwrap();
        assert!(
            d1.removed_vertices.contains(&3),
            "detached counts as removed"
        );
        assert_matches_fresh_partition(&applied);
    }

    #[test]
    fn untouched_fragments_are_reused_not_rebuilt() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(2, 3)
            .add_edge(4, 5)
            .ensure_vertices(6)
            .build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let delta = GraphDelta::new().add_weighted_edge(0, 1, 9.0);
        let applied = frag.apply_delta(&delta).unwrap();
        assert_eq!(applied.affected.len(), 1);
        assert_eq!(applied.affected[0].fragment, 0);
        // Reused means *shared*: the untouched fragments' `Arc`s survive
        // delta application, so prepared queries over the old fragmentation
        // keep sharing their storage with the updated one.
        assert!(!frag.shares_fragment_storage(&applied.fragmentation, 0));
        assert!(frag.shares_fragment_storage(&applied.fragmentation, 1));
        assert!(frag.shares_fragment_storage(&applied.fragmentation, 2));
    }

    #[test]
    fn undirected_cross_insert_is_local_to_both_owners() {
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(2, 3)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let delta = GraphDelta::new().add_edge(1, 2);
        let applied = frag.apply_delta(&delta).unwrap();
        assert_eq!(applied.affected.len(), 2);
        for d in &applied.affected {
            assert_eq!(d.added_edges.len(), 1, "fragment {}", d.fragment);
        }
        assert_matches_fresh_partition(&applied);
    }

    #[test]
    fn empty_delta_changes_nothing() {
        let (_, frag) = chain();
        let applied = frag.apply_delta(&GraphDelta::new()).unwrap();
        assert!(applied.affected.is_empty());
        assert_eq!(applied.fragmentation.num_fragments(), 2);
    }

    #[test]
    fn vertex_cut_partitions_are_rejected() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .build();
        let frag = GreedyVertexCut::new(2).partition(&g).unwrap();
        let err = frag
            .apply_delta(&GraphDelta::new().add_edge(0, 2))
            .unwrap_err();
        assert!(matches!(err, DeltaError::UnsupportedPartition(_)));
    }

    #[test]
    fn graph_level_errors_pass_through() {
        let (_, frag) = chain();
        let err = frag
            .apply_delta(&GraphDelta::new().remove_edge(5, 0))
            .unwrap_err();
        assert!(matches!(err, DeltaError::Graph(_)));
    }

    /// 0→1→2→3→4→5→6→7→8, three range fragments {0..2}, {3..5}, {6..8}.
    fn three_chain() -> (Graph, Fragmentation) {
        let mut b = GraphBuilder::directed();
        for v in 0..8u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        (g, frag)
    }

    fn ids(mask: &[bool]) -> Vec<usize> {
        mask.iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn quotient_successors_follow_the_scope() {
        let (_, frag) = three_chain();
        // Out scope: values for outer copies flow downstream (F0 holds the
        // outer copy of 3 owned by F1, …).
        let out = frag.quotient_successors(BorderScope::Out);
        assert_eq!(out[0].iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(out[1].iter().copied().collect::<Vec<_>>(), vec![2]);
        assert!(out[2].is_empty());
        // In scope: values of in-border vertices flow back to copy holders.
        let inward = frag.quotient_successors(BorderScope::In);
        assert!(inward[0].is_empty());
        assert_eq!(inward[1].iter().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(inward[2].iter().copied().collect::<Vec<_>>(), vec![1]);
        // Structural adjacency is the symmetric closure.
        let adj = frag.quotient_adjacency();
        assert_eq!(adj[1].iter().copied().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn quotient_tables_cache_is_shared_across_clones() {
        let (_, frag) = three_chain();
        let t1 = frag.quotient_tables();
        let t2 = frag.clone().quotient_tables();
        assert!(Arc::ptr_eq(&t1, &t2), "clones share one derivation");
        assert_eq!(
            t1.successors(BorderScope::Out),
            frag.quotient_successors(BorderScope::Out)
        );
        let applied = frag.apply_delta(&GraphDelta::new()).unwrap();
        assert!(
            !Arc::ptr_eq(&applied.fragmentation.quotient_tables(), &t1),
            "a new version derives its own tables"
        );
    }

    #[test]
    fn reachability_frontier_spreads_downstream_only() {
        let (_, frag) = three_chain();
        // Delete the fragment-local edge 4 → 5: only F1 is rebuilt.
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(4, 5))
            .unwrap();
        assert_eq!(applied.affected.len(), 1);
        assert_eq!(applied.affected[0].fragment, 1);
        let mask = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[1],
            DamagePolicy::Reachability,
            BorderScope::Out,
        );
        // Under Out scope stale state can only flow downstream: F0 is safe.
        assert_eq!(ids(&mask.damaged), vec![1, 2]);
        assert_eq!(mask.damaged_ids(), vec![1, 2]);
        // Its retained border values must be reseeded into the fixpoint iff
        // it feeds a damaged fragment — F0 feeds F1.
        assert_eq!(mask.reseed_sources, vec![0]);
    }

    #[test]
    fn component_frontier_swallows_the_connected_component() {
        let (_, frag) = three_chain();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(4, 5))
            .unwrap();
        let mask = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[1],
            DamagePolicy::Component,
            BorderScope::Both,
        );
        assert_eq!(ids(&mask.damaged), vec![0, 1, 2]);
        assert!(
            mask.reseed_sources.is_empty(),
            "component closure never reseeds"
        );
    }

    #[test]
    fn halo_frontier_is_hop_bounded() {
        let (_, frag) = three_chain();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(1, 2))
            .unwrap();
        let zero = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[0],
            DamagePolicy::Halo(0),
            BorderScope::Out,
        );
        assert_eq!(ids(&zero.damaged), vec![0]);
        let one = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[0],
            DamagePolicy::Halo(1),
            BorderScope::Out,
        );
        assert_eq!(ids(&one.damaged), vec![0, 1]);
    }

    #[test]
    fn frontier_follows_removed_edges_through_the_old_quotient() {
        // Deleting the only cross edge between F0 and F1 still damages F1
        // under Reachability: stale state flowed along it before the delta,
        // and the new quotient graph no longer records the adjacency.
        let (_, frag) = chain();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(2, 3))
            .unwrap();
        assert!(!applied.fragmentation.gp().is_border(3));
        let changed: Vec<usize> = applied.affected.iter().map(|d| d.fragment).collect();
        let mask = damage_frontier(
            &frag,
            &applied.fragmentation,
            &changed,
            DamagePolicy::Reachability,
            BorderScope::Out,
        );
        assert!(
            mask.damaged[1],
            "downstream fragment must be damaged via the OLD edge"
        );
    }

    #[test]
    fn disconnected_components_stay_undamaged() {
        // Two disjoint chains in separate fragments.
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(0, 1))
            .unwrap();
        for policy in [
            DamagePolicy::Reachability,
            DamagePolicy::Component,
            DamagePolicy::Halo(9),
        ] {
            let mask = damage_frontier(
                &frag,
                &applied.fragmentation,
                &[0],
                policy,
                BorderScope::Out,
            );
            assert_eq!(ids(&mask.damaged), vec![0], "{policy:?}");
        }
    }

    #[test]
    fn hash_cut_round_trips_a_mixed_delta() {
        let mut b = GraphBuilder::directed();
        for v in 0..20u64 {
            b.push_edge(Edge::weighted(v, (v * 7 + 1) % 20, 1.0 + v as f64));
        }
        let g = b.build();
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let delta = GraphDelta::new()
            .add_weighted_edge(3, 18, 0.5)
            .add_weighted_edge(20, 4, 2.0)
            .remove_edge(0, 1);
        let applied = frag.apply_delta(&delta).unwrap();
        assert_matches_fresh_partition(&applied);
        assert_eq!(applied.fragmentation.source().num_vertices(), 21);
    }
}
