//! The CC PIE program (Section 5.2).
//!
//! * Message preamble: an integer variable `v.cid` per vertex, initialised to
//!   the vertex id; candidate set `C_i = F_i.O`; `aggregateMsg = min`.
//! * PEval: one DFS/union-find pass computes the *local* connected components
//!   of the fragment, creates a root per component and links every local
//!   vertex to its root.
//! * IncEval: a received smaller `cid` for a border vertex is applied to that
//!   vertex's **root**, which immediately relabels all members via the root
//!   link — `O(|M_i| + |AFF|)`, independent of `|F_i|` (the paper's bounded
//!   incremental step).
//! * Assemble: vertices with equal `cid` form one component.
//!
//! CC also implements [`IncrementalPie`]: *insert-only* deltas are monotone
//! (components only merge, minimum ids only decrease), so `Q(G ⊕ ΔG)` is
//! refreshed by re-deriving the local component structure of the affected
//! fragments — seeded with the retained cids — and shipping the border cids
//! that decreased.  An edge **deletion** that splits nothing is absorbed by
//! [`IncrementalPie::retract`]: a bidirectional search shows each removed
//! edge's endpoints still linked, so the labels are those of `G ∪ inserts`
//! and the same rebase is exact — `O(smaller search side)`, never a full
//! relabel.  A removal that does split a component (and every vertex
//! removal) is declined and takes the **bounded refresh** under
//! [`DamagePolicy::Reachability`]: only the fragments whose retained cids
//! could have flowed through a deleted edge are re-rooted with PEval,
//! everyone else keeps its partial and reseeds its border cids.

use std::collections::{HashMap, HashSet};

use grape_core::output_delta::{DeltaOutput, OutputDelta};
use grape_core::pie::{
    DamagePolicy, IncrementalPie, Messages, PieProgram, ProcessCodec, Retraction, SerdeProcessCodec,
};
use grape_graph::delta::GraphDelta;
use grape_graph::types::VertexId;
use grape_partition::delta::{DeltaApplication, FragmentDelta};
use grape_partition::fragment::{Fragment, Fragmentation, LocalId};
use grape_partition::fragmentation_graph::BorderScope;
use serde::{Deserialize, Serialize};

use crate::cc::sequential::UnionFind;
use crate::util::diff_min_rows;

/// CC takes no parameters; the query type exists for API uniformity.  As a
/// unit struct it crosses worker pipes as `null`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcQuery;

/// The assembled CC answer: a component id (the smallest vertex id of the
/// component) for every vertex.
#[derive(Debug, Clone, Default)]
pub struct CcResult {
    labels: HashMap<VertexId, VertexId>,
}

impl CcResult {
    /// Component id of `v`.
    pub fn component(&self, v: VertexId) -> Option<VertexId> {
        self.labels.get(&v).copied()
    }

    /// Whether two vertices are in the same component.
    pub fn same_component(&self, a: VertexId, b: VertexId) -> bool {
        match (self.component(a), self.component(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        let mut ids: Vec<VertexId> = self.labels.values().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// All vertex → component-id labels.
    pub fn labels(&self) -> &HashMap<VertexId, VertexId> {
        &self.labels
    }
}

/// Per-fragment partial result: the local component structure.  It
/// round-trips through the serde value encoding so a served CC query can be
/// evicted to a spill file and rehydrated (see `grape_core::serve`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CcPartial {
    /// Local component index of each local vertex ("link to the root").
    component_of: Vec<usize>,
    /// Current `cid` of each local component (the root's variable).  Updating
    /// this single cell relabels every member at once, which is what makes
    /// IncEval's cost `O(|M_i| + |AFF|)` rather than `O(|F_i|)`.
    component_cid: Vec<VertexId>,
    /// Out-border members of each local component (the only vertices whose
    /// new cid must be shipped when the component is relabelled).
    border_members: Vec<Vec<u32>>,
}

/// The CC PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cc;

impl Cc {
    /// Derives the local component structure of a fragment — union-find over
    /// *all* local vertices (outer copies included: the cross edge that
    /// brought them in connects them locally), root numbering, border-member
    /// lists — seeding each component's cid with `seed_cid(global)` over its
    /// members.  PEval seeds with the vertex's own id; the incremental
    /// rebase additionally folds in the retained cids, which is what makes
    /// component *merges* (the only change an insert-only delta can cause)
    /// pick up the previously-propagated minima.
    fn local_structure(frag: &Fragment, seed_cid: impl Fn(VertexId) -> VertexId) -> CcPartial {
        let k = frag.num_local();
        let mut uf = UnionFind::new(k);
        for l in frag.all_locals() {
            for n in frag.out_edges(l) {
                uf.union(l as usize, n.target as usize);
            }
        }
        let mut root_index: HashMap<usize, usize> = HashMap::new();
        let mut component_of = vec![0usize; k];
        let mut component_cid: Vec<VertexId> = Vec::new();
        let mut border_members: Vec<Vec<u32>> = Vec::new();
        for (l, slot) in component_of.iter_mut().enumerate() {
            let root = uf.find(l);
            let idx = *root_index.entry(root).or_insert_with(|| {
                component_cid.push(VertexId::MAX);
                border_members.push(Vec::new());
                component_cid.len() - 1
            });
            *slot = idx;
            let g = frag.global_of(l as u32);
            component_cid[idx] = component_cid[idx].min(seed_cid(g));
        }
        // The inner border is included alongside F_i.O so that vertex-cut
        // partitions (shared vertices) also propagate component ids; under
        // edge-cut these extra values have no destination and cost nothing.
        for &l in frag
            .out_border_locals()
            .iter()
            .chain(frag.in_border_locals())
        {
            border_members[component_of[l as usize]].push(l);
        }
        CcPartial {
            component_of,
            component_cid,
            border_members,
        }
    }

    /// Every `(vertex, cid)` cell of the partials, owners and outer copies
    /// alike, named through `frag`.
    fn cells<'a>(
        frag: &'a Fragmentation,
        partials: &'a [CcPartial],
    ) -> impl Iterator<Item = (VertexId, VertexId)> + Clone + 'a {
        debug_assert_eq!(partials.len(), frag.num_fragments());
        frag.fragments().iter().zip(partials).flat_map(|(f, p)| {
            debug_assert_eq!(p.component_of.len(), f.num_local());
            (0..)
                .zip(&p.component_of)
                .map(|(l, &c)| (f.global_of(l), p.component_cid[c]))
        })
    }
}

/// A local vertex of one fragment: `(fragment, local id)`.
type Cell = (usize, LocalId);

impl Cc {
    /// Appends the cells a cid can flow to from `cell` (`forward`) or from
    /// which one can flow into it (`!forward`).  Local edges join their
    /// endpoints' components in both directions; across fragments a cid
    /// only travels from an outer copy to its owner (scope `Out`).
    fn flow_neighbours(frag: &Fragmentation, (i, l): Cell, forward: bool, out: &mut Vec<Cell>) {
        let f = frag.fragment(i);
        for n in f.out_edges(l).iter().chain(f.in_edges(l)) {
            out.push((i, n.target as LocalId));
        }
        let v = f.global_of(l);
        if forward && !f.is_inner(l) {
            let o = frag.gp().owner(v);
            out.extend(frag.fragment(o).local_of(v).map(|lo| (o, lo)));
        } else if !forward && f.is_inner(l) {
            for &k in frag.gp().outer_holders(v) {
                let k = k as usize;
                out.extend(frag.fragment(k).local_of(v).map(|lk| (k, lk)));
            }
        }
    }

    /// Whether a cid at `from` reaches `to`: a bidirectional search, forward
    /// from `from` and backward from `to`, always growing the smaller
    /// frontier.  It stops when the two meet, or — the removal really
    /// splits — when either side runs out, so its cost is bounded by the
    /// smaller side.
    fn reaches(frag: &Fragmentation, from: Cell, to: Cell) -> bool {
        let mut seen = [HashSet::from([from]), HashSet::from([to])];
        let mut frontier = [vec![from], vec![to]];
        let mut next = Vec::new();
        loop {
            if seen[0].contains(&to) {
                return true;
            }
            if frontier[0].is_empty() || frontier[1].is_empty() {
                return false;
            }
            let side = usize::from(frontier[1].len() < frontier[0].len());
            for cell in std::mem::take(&mut frontier[side]) {
                next.clear();
                Self::flow_neighbours(frag, cell, side == 0, &mut next);
                for &n in &next {
                    if seen[1 - side].contains(&n) {
                        return true;
                    }
                    if seen[side].insert(n) {
                        frontier[side].push(n);
                    }
                }
            }
        }
    }
}

impl PieProgram for Cc {
    type Query = CcQuery;
    type Partial = CcPartial;
    type Key = VertexId;
    type Value = VertexId;
    type Output = CcResult;

    fn name(&self) -> &str {
        "cc"
    }

    fn process_codec(&self) -> Option<&dyn ProcessCodec<Self>> {
        Some(&SerdeProcessCodec)
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    fn peval(
        &self,
        _query: &CcQuery,
        frag: &Fragment,
        ctx: &mut Messages<VertexId, VertexId>,
    ) -> CcPartial {
        let partial = Self::local_structure(frag, |g| g);
        // Message segment: cid of every border vertex.
        for &l in frag
            .out_border_locals()
            .iter()
            .chain(frag.in_border_locals())
        {
            ctx.send(
                frag.global_of(l),
                partial.component_cid[partial.component_of[l as usize]],
            );
        }
        partial
    }

    fn inc_eval(
        &self,
        _query: &CcQuery,
        frag: &Fragment,
        partial: &mut CcPartial,
        messages: &[(VertexId, VertexId)],
        ctx: &mut Messages<VertexId, VertexId>,
    ) {
        // Apply the smaller cids to the roots of the affected components.
        let mut changed_components: Vec<usize> = Vec::new();
        for &(v, cid) in messages {
            if let Some(l) = frag.local_of(v) {
                let c = partial.component_of[l as usize];
                if cid < partial.component_cid[c] {
                    partial.component_cid[c] = cid;
                    changed_components.push(c);
                }
            }
        }
        if changed_components.is_empty() {
            return;
        }
        changed_components.sort_unstable();
        changed_components.dedup();
        // Relabel: the root's cid already covers every member; only the
        // out-border members of the changed components must notify other
        // fragments.
        for &c in &changed_components {
            let cid = partial.component_cid[c];
            for &l in &partial.border_members[c] {
                ctx.send(frag.global_of(l), cid);
            }
        }
    }

    fn assemble(
        &self,
        _query: &CcQuery,
        frag: &Fragmentation,
        partials: Vec<CcPartial>,
    ) -> CcResult {
        let mut labels: HashMap<VertexId, VertexId> = HashMap::new();
        for (v, cid) in Self::cells(frag, &partials) {
            labels
                .entry(v)
                .and_modify(|existing| *existing = (*existing).min(cid))
                .or_insert(cid);
        }
        CcResult { labels }
    }

    fn aggregate(&self, _key: &VertexId, a: VertexId, b: VertexId) -> VertexId {
        a.min(b)
    }
}

impl IncrementalPie for Cc {
    /// Insertions only merge components and decrease minimum ids — monotone
    /// under the `min` order.  Removals can split components.
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        !delta.has_removals()
    }

    /// Component merge: re-derive the fragment's local structure with cids
    /// seeded from the retained values (so merged components inherit the
    /// smaller propagated minimum), then ship every border cid that
    /// decreased — including those of brand-new border vertices, whose
    /// holders have no value yet.
    fn rebase(
        &self,
        _query: &CcQuery,
        old_frag: &Fragment,
        new_frag: &Fragment,
        partial: CcPartial,
        _delta: &FragmentDelta,
    ) -> (CcPartial, Vec<(VertexId, VertexId)>) {
        debug_assert_eq!(partial.component_of.len(), old_frag.num_local());
        // The partial is in `old_frag`'s local order: its index does the
        // lookup by global id.
        let old_cid_of = |g: VertexId| {
            old_frag
                .local_of(g)
                .map(|l| partial.component_cid[partial.component_of[l as usize]])
        };
        let rebased = Self::local_structure(new_frag, |g| old_cid_of(g).unwrap_or(g).min(g));
        let mut sends = Vec::new();
        for &l in new_frag
            .out_border_locals()
            .iter()
            .chain(new_frag.in_border_locals())
        {
            let g = new_frag.global_of(l);
            let new_cid = rebased.component_cid[rebased.component_of[l as usize]];
            let old_cid = old_cid_of(g).unwrap_or(VertexId::MAX);
            if new_cid < old_cid {
                sends.push((g, new_cid));
            }
        }
        (rebased, sends)
    }

    /// Keeps the labels when no removal splits anything: for every removed
    /// local edge `a → b` (both orientations on undirected graphs) the two
    /// cells it linked — `a` in its fragment, and `b`'s copy there, or `b`
    /// at its owner when the copy left with the edge — must still reach
    /// each other in the updated **cell flow graph** (`Cc::reaches`).
    /// Then every label that reached a cell before still reaches it, so
    /// the fixpoint equals the one over `G ∪ inserts` and the monotone
    /// rebase of the rebuilt fragments with the retained cids is exact.
    /// On undirected graphs that is plain connectivity of the endpoints;
    /// on directed ones cids only flow from an outer copy to its owner, so
    /// a path in the undirected view alone would not do.  A removal that
    /// disconnects, and every vertex removal, is declined.
    fn retract(
        &self,
        query: &CcQuery,
        old: &Fragmentation,
        applied: &DeltaApplication,
        delta: &GraphDelta,
        partials: &mut [CcPartial],
    ) -> Option<Retraction<Self>> {
        if !delta.removed_vertices().is_empty() {
            return None;
        }
        let new = &applied.fragmentation;
        let orientations = if new.is_directed() { 1 } else { 2 };
        for &(s, d) in delta.removed_edges() {
            for (a, b) in [(s, d), (d, s)].into_iter().take(orientations) {
                let cell = |v: VertexId| {
                    let i = new.gp().owner(v);
                    (
                        i,
                        new.fragment(i)
                            .local_of(v)
                            .expect("an owner holds its vertex"),
                    )
                };
                let (i, la) = cell(a);
                let linked = match new.fragment(i).local_of(b) {
                    Some(lb) => (i, lb),
                    None => cell(b),
                };
                if !(Self::reaches(new, (i, la), linked) && Self::reaches(new, linked, (i, la))) {
                    return None;
                }
            }
        }
        let mut seeds = Vec::new();
        for fd in &applied.affected {
            let i = fd.fragment;
            let (rebased, sends) = self.rebase(
                query,
                old.fragment(i),
                new.fragment(i),
                partials[i].clone(),
                fd,
            );
            partials[i] = rebased;
            if !sends.is_empty() {
                seeds.push((i, sends));
            }
        }
        Some(Retraction {
            seeds,
            retracted: 0,
        })
    }

    /// The min-cid fixpoint is schedule-independent given fixed border
    /// inputs: deletions re-root only the message-flow closure of the
    /// damage.
    fn damage_policy(&self, _query: &CcQuery) -> DamagePolicy {
        DamagePolicy::Reachability
    }

    /// The full border segment of a retained partial: the current cid of
    /// every border vertex (same candidate set as PEval's message segment).
    fn reseed(
        &self,
        _query: &CcQuery,
        frag: &Fragment,
        partial: &CcPartial,
    ) -> Vec<(VertexId, VertexId)> {
        frag.out_border_locals()
            .iter()
            .chain(frag.in_border_locals())
            .map(|&l| {
                (
                    frag.global_of(l),
                    partial.component_cid[partial.component_of[l as usize]],
                )
            })
            .collect()
    }
}

impl DeltaOutput for Cc {
    type OutKey = VertexId;
    type OutVal = VertexId;

    /// One row per vertex: `(v, cid)`, sorted by id.
    fn canonical(&self, _query: &CcQuery, output: &CcResult) -> Vec<(VertexId, VertexId)> {
        let mut rows: Vec<(VertexId, VertexId)> =
            output.labels.iter().map(|(&v, &cid)| (v, cid)).collect();
        rows.sort_unstable();
        rows
    }

    /// Min-merges the per-fragment cids straight off the partials — the same
    /// rows `canonical(assemble(...))` yields, minus the intermediate
    /// [`CcResult`], its hashing and the sort (see `util::diff_min_rows`;
    /// declines on sparse vertex ids).
    fn diff_output(
        &self,
        _query: &CcQuery,
        frag: &Fragmentation,
        previous: &[(VertexId, VertexId)],
        partials: &[CcPartial],
    ) -> Option<OutputDelta<VertexId, VertexId>> {
        // A cid is at most its vertex's own id, and an id of `MAX` is far
        // past the dense-table bound, so `MAX` never names a real label.
        diff_min_rows(previous, VertexId::MAX, Self::cells(frag, partials))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::session::GrapeSession;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::generators::{erdos_renyi, power_law, road_grid};
    use grape_graph::graph::Directedness;
    use grape_partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use grape_partition::strategy::PartitionStrategy;

    use crate::cc::sequential::connected_components;

    fn run_cc(g: &grape_graph::graph::Graph, fragments: usize, workers: usize) -> CcResult {
        let frag = HashEdgeCut::new(fragments).partition(g).unwrap();
        GrapeSession::with_workers(workers)
            .run(&frag, &Cc, &CcQuery)
            .unwrap()
            .output
    }

    fn assert_matches_sequential(g: &grape_graph::graph::Graph, result: &CcResult) {
        let expected = connected_components(g);
        for v in g.vertices() {
            assert_eq!(
                result.component(v),
                Some(expected[v as usize]),
                "vertex {v} labels diverge"
            );
        }
    }

    #[test]
    fn matches_sequential_on_undirected_random_graph() {
        let g = erdos_renyi(300, 350, 0, Directedness::Undirected, 1);
        let result = run_cc(&g, 4, 2);
        assert_matches_sequential(&g, &result);
    }

    #[test]
    fn matches_sequential_on_power_law() {
        let g = power_law(400, 900, 0, 2).to_undirected();
        let result = run_cc(&g, 6, 3);
        assert_matches_sequential(&g, &result);
    }

    #[test]
    fn grid_is_one_component() {
        let g = road_grid(8, 8, 3);
        let result = run_cc(&g, 4, 2);
        assert_eq!(result.num_components(), 1);
        assert!(result.same_component(0, 63));
    }

    #[test]
    fn disconnected_pieces_stay_separate() {
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(10, 11)
            .ensure_vertices(13)
            .build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let result = GrapeSession::with_workers(2)
            .run(&frag, &Cc, &CcQuery)
            .unwrap()
            .output;
        assert!(result.same_component(0, 2));
        assert!(result.same_component(10, 11));
        assert!(!result.same_component(0, 10));
        assert_eq!(result.component(12), Some(12));
        assert_matches_sequential(&g, &result);
    }

    #[test]
    fn component_ids_are_minimum_member_ids() {
        let g = GraphBuilder::undirected()
            .add_edge(5, 9)
            .add_edge(9, 3)
            .build();
        let result = run_cc(&g, 2, 1);
        assert_eq!(result.component(5), Some(3));
        assert_eq!(result.component(9), Some(3));
    }

    #[test]
    fn prepared_update_merges_components_without_peval() {
        use grape_graph::delta::GraphDelta;

        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(10, 11)
            .add_edge(11, 12)
            .ensure_vertices(13)
            .build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Cc, CcQuery).unwrap();
        assert!(!prepared.output().same_component(2, 10));

        // Bridge the two components across fragments.
        let report = prepared.update(&GraphDelta::new().add_edge(2, 10)).unwrap();
        assert!(report.incremental);
        assert_eq!(report.metrics.peval_calls, 0);

        let merged = prepared.output();
        assert!(merged.same_component(0, 12));
        assert_eq!(merged.component(12), Some(0));
        assert_matches_sequential(prepared.fragmentation().source(), &merged);

        // A second, purely redundant edge changes nothing but stays cheap.
        let report = prepared.update(&GraphDelta::new().add_edge(0, 12)).unwrap();
        assert!(report.incremental);
        assert_eq!(report.metrics.peval_calls, 0);
        assert_matches_sequential(prepared.fragmentation().source(), &prepared.output());
    }

    #[test]
    fn prepared_update_falls_back_on_vertex_removal() {
        use grape_graph::delta::GraphDelta;

        let g = erdos_renyi(60, 80, 0, Directedness::Undirected, 4);
        let frag = HashEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Cc, CcQuery).unwrap();
        let report = prepared
            .update(&GraphDelta::new().remove_vertex(7))
            .unwrap();
        assert!(!report.incremental, "removals can split components");
        assert!(report.metrics.peval_calls > 0);
        assert_matches_sequential(prepared.fragmentation().source(), &prepared.output());
    }

    #[test]
    fn deletion_in_an_isolated_component_repevals_only_that_component() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        // Two disjoint chains over four range fragments of 3: {0,1,2} and
        // {3,4,5} form one quotient component, {6,7,8} and {9,10,11} the
        // other.  Splitting the second chain damages only its fragments.
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .add_edge(6, 7)
            .add_edge(7, 8)
            .add_edge(8, 9)
            .add_edge(9, 10)
            .add_edge(10, 11)
            .build();
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Cc, CcQuery).unwrap();
        assert!(prepared.output().same_component(6, 11));

        let report = prepared
            .update(&GraphDelta::new().remove_edge(9, 10))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded);
        assert!(
            report.repeval.iter().all(|&i| i >= 2),
            "the first chain's fragments stay untouched: {:?}",
            report.repeval
        );
        assert!(report.metrics.peval_calls < 4);

        let split = prepared.output();
        assert!(!split.same_component(6, 11));
        assert!(split.same_component(0, 5));
        assert_matches_sequential(prepared.fragmentation().source(), &split);
    }

    /// Retraction soundness for CC: over seeded Hash and MetisLike cuts of
    /// sparse undirected graphs (plenty of bridges), the hook declines if
    /// and only if some removal disconnects its endpoints in the new graph
    /// — and whichever path runs, the answer equals a recompute.
    #[test]
    fn retraction_declines_exactly_when_a_removal_disconnects() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;
        use grape_partition::metis_like::MetisLike;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (mut absorbed, mut declined) = (0, 0);
        for seed in 0..8u64 {
            let g = erdos_renyi(60, 70, 0, Directedness::Undirected, seed);
            let frag = if seed % 2 == 0 {
                HashEdgeCut::new(3).partition(&g).unwrap()
            } else {
                MetisLike::new(3).partition(&g).unwrap()
            };
            let session = GrapeSession::with_workers(2);
            let mut prepared = session.prepare(frag, Cc, CcQuery).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            for round in 0..8 {
                let old = prepared.fragmentation().clone();
                let edges = old.source().edges();
                let mut delta = GraphDelta::new();
                for _ in 0..1 + round % 2 {
                    let e = edges[rng.gen_range(0..edges.len() as u64) as usize];
                    if !delta.removed_edges().contains(&(e.src, e.dst)) {
                        delta = delta.remove_edge(e.src, e.dst);
                    }
                }
                if round % 3 == 0 {
                    let n = old.source().num_vertices() as u64;
                    delta = delta.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
                }
                let tag = format!("seed {seed} round {round}");
                let applied = old.apply_delta(&delta).unwrap();
                let labels = connected_components(applied.fragmentation.source());
                let splits = delta
                    .removed_edges()
                    .iter()
                    .any(|&(a, b)| labels[a as usize] != labels[b as usize]);
                let mut partials = prepared.partials().to_vec();
                let retraction = Cc.retract(&CcQuery, &old, &applied, &delta, &mut partials);
                assert_eq!(retraction.is_none(), splits, "{tag}");

                let report = prepared.update(&delta).unwrap();
                if splits {
                    declined += 1;
                    assert_ne!(report.kind, RefreshKind::Retracted, "{tag}");
                } else {
                    absorbed += 1;
                    assert_eq!(report.kind, RefreshKind::Retracted, "{tag}");
                    assert_eq!(report.metrics.peval_calls, 0, "{tag}");
                }
                let recompute = session
                    .run(prepared.fragmentation(), &Cc, &CcQuery)
                    .unwrap();
                let output = prepared.output();
                for v in prepared.fragmentation().source().vertices() {
                    assert_eq!(
                        output.component(v),
                        recompute.output.component(v),
                        "vertex {v} ({tag})"
                    );
                }
            }
        }
        assert!(absorbed > 10 && declined > 10, "{absorbed} / {declined}");
    }

    /// On a directed graph cids only flow from an outer copy to its owner,
    /// so endpoints that stay connected are not enough.  Fragment 0 holds
    /// 0 and 1, fragment 1 holds 3; edges 0 → 3, 1 → 3, 3 → 0.  Removing
    /// 0 → 3 leaves 0 and 3 connected through 3 → 0, but the local
    /// component {1, copy of 3} no longer hears of cid 0: a recompute
    /// labels 1 with 1.  The hook must decline.
    #[test]
    fn directed_removal_that_strands_a_local_component_is_declined() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        let g = GraphBuilder::directed()
            .add_edge(0, 3)
            .add_edge(1, 3)
            .add_edge(3, 0)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Cc, CcQuery).unwrap();
        assert_eq!(prepared.output().component(1), Some(0));

        let report = prepared
            .update(&GraphDelta::new().remove_edge(0, 3))
            .unwrap();
        assert_ne!(report.kind, RefreshKind::Retracted);
        let recompute = session
            .run(prepared.fragmentation(), &Cc, &CcQuery)
            .unwrap();
        assert_eq!(recompute.output.component(1), Some(1));
        for v in 0..4 {
            assert_eq!(
                prepared.output().component(v),
                recompute.output.component(v)
            );
        }

        // With 0 → 3 back and a local edge 1 → 0, removing 1 → 3 strands
        // nothing: 1 still reaches the copy of 3 through 0.
        let report = prepared
            .update(&GraphDelta::new().add_edge(0, 3).add_edge(1, 0))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Monotone);
        let report = prepared
            .update(&GraphDelta::new().remove_edge(1, 3))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Retracted);
        let recompute = session
            .run(prepared.fragmentation(), &Cc, &CcQuery)
            .unwrap();
        for v in 0..4 {
            assert_eq!(
                prepared.output().component(v),
                recompute.output.component(v)
            );
        }
    }

    /// The path `diff_output` must agree with: assemble, canonicalize,
    /// `diff_sorted`.
    fn reference_diff(
        frag: &Fragmentation,
        previous: &[(VertexId, VertexId)],
        partials: &[CcPartial],
    ) -> OutputDelta<VertexId, VertexId> {
        let next = Cc.canonical(&CcQuery, &Cc.assemble(&CcQuery, frag, partials.to_vec()));
        grape_core::output_delta::diff_sorted(previous, &next)
    }

    #[test]
    fn diff_output_equals_assemble_and_diff_on_seeded_graphs() {
        use grape_core::output_delta::apply_sorted;
        use grape_graph::delta::GraphDelta;

        for seed in 0..4u64 {
            // Sparse random graphs: many small components plus isolated
            // vertices, cut four ways.
            let g = erdos_renyi(300, 260, 0, Directedness::Undirected, seed);
            let frag = HashEdgeCut::new(4).partition(&g).unwrap();
            let mut prepared = GrapeSession::with_workers(2)
                .prepare(frag, Cc, CcQuery)
                .unwrap();
            let mut previous = prepared.canonical_rows().unwrap();

            let cut = g.edges()[0];
            let detached = g
                .edges()
                .iter()
                .map(|e| e.dst)
                .find(|&v| v != cut.src && v != cut.dst)
                .unwrap();
            let deltas = [
                // Merges components and reaches a brand-new id, leaving
                // ids 300..=308 in no edge's reach.
                GraphDelta::new().add_edge(0, 299).add_edge(299, 309),
                GraphDelta::new().remove_edge(cut.src, cut.dst),
                GraphDelta::new().remove_vertex(detached),
                GraphDelta::new().add_edge(detached, 309),
            ];
            for delta in &deltas {
                prepared.update(delta).unwrap();
                let (frag, partials) = (prepared.fragmentation(), prepared.partials());
                let fast = Cc
                    .diff_output(&CcQuery, frag, &previous, partials)
                    .expect("dense vertex ids take the fast path");
                assert_eq!(fast, reference_diff(frag, &previous, partials));
                apply_sorted(&mut previous, &fast);
                assert_eq!(previous, prepared.canonical_rows().unwrap());
            }
        }
    }

    /// Hand-written components over a real fragmentation of 13 vertices:
    /// fragment 1 owns 9 and 12 and holds an outer copy of 2; fragment 0
    /// owns the rest and holds an outer copy of 9.  Every vertex is a cell
    /// of some fragment, so the cases no real partial can produce — an id
    /// inside the table that no row names, no rows at all, sparse ids —
    /// are pinned on `util::diff_min_rows` itself.
    #[test]
    fn diff_output_takes_the_owner_minimum() {
        use grape_graph::types::Edge;
        use grape_partition::fragment::build_edge_cut;

        let mut b = GraphBuilder::directed().ensure_vertices(13);
        for (s, d) in [(1, 4), (4, 9), (9, 12), (12, 2)] {
            b.push_edge(Edge::unweighted(s, d));
        }
        let assignment: Vec<u32> = (0..13).map(|v| u32::from([9, 12].contains(&v))).collect();
        let frag = build_edge_cut(&std::sync::Arc::new(b.build()), &assignment, 2, "fixed");
        // The listed components with their cids; every other local vertex
        // is a component of its own, labelled with its own id.
        let partial = |i: usize, groups: &[(&[VertexId], VertexId)]| {
            let f = frag.fragment(i);
            let mut component_of = vec![usize::MAX; f.num_local()];
            let mut component_cid = Vec::new();
            for &(members, cid) in groups {
                for &v in members {
                    let l = f.local_of(v).expect("the fragment holds v");
                    component_of[l as usize] = component_cid.len();
                }
                component_cid.push(cid);
            }
            for l in f.all_locals() {
                if component_of[l as usize] == usize::MAX {
                    component_of[l as usize] = component_cid.len();
                    component_cid.push(f.global_of(l));
                }
            }
            CcPartial {
                border_members: vec![Vec::new(); component_cid.len()],
                component_of,
                component_cid,
            }
        };
        assert!(!frag
            .fragment(0)
            .is_inner(frag.fragment(0).local_of(9).unwrap()));
        assert!(!frag
            .fragment(1)
            .is_inner(frag.fragment(1).local_of(2).unwrap()));
        let partials = vec![
            // {1, 4} share a component; the outer copy of 9 sits in a
            // local component that has not heard of cid 2.
            partial(0, &[(&[1, 4], 1), (&[9], 9)]),
            // 9 and 12 are joined to 2 through the other cut.
            partial(1, &[(&[9, 12, 2], 2)]),
        ];
        // 4 moves component, 12 is new, 20 lies past every id the
        // fragmentation names; every other vertex keeps its own label.
        let mut previous: Vec<(VertexId, VertexId)> = (0..12).map(|v| (v, v)).collect();
        previous.push((20, 20));
        let fast = Cc
            .diff_output(&CcQuery, &frag, &previous, &partials)
            .unwrap();
        assert_eq!(fast.changed, vec![(4, 1), (9, 2), (12, 2)]);
        assert_eq!(fast.removed, vec![20]);
        assert_eq!(fast, reference_diff(&frag, &previous, &partials));
    }

    #[test]
    fn fragment_count_does_not_change_components() {
        let g = erdos_renyi(200, 250, 0, Directedness::Undirected, 9);
        let a = run_cc(&g, 1, 1);
        let b = run_cc(&g, 8, 4);
        assert_eq!(a.num_components(), b.num_components());
        for v in g.vertices() {
            assert_eq!(a.component(v), b.component(v));
        }
    }
}
