//! The graph-simulation PIE program (Section 5.1).
//!
//! Message preamble: a Boolean status variable `x_(u, v)` for every query
//! node `u` and border vertex `v`, initially `true`; candidate set
//! `C_i = F_i.I`; `aggregateMsg = min` with the order `false ≺ true` (so a
//! variable flips to `false` at most once — the monotonic condition).
//!
//! * PEval — the sequential simulation algorithm run on the fragment, with
//!   outer copies treated optimistically (they simulate any query node whose
//!   label they carry, since their outgoing edges live elsewhere).
//! * IncEval — the incremental algorithm in response to "cross-edge
//!   deletions": a received `x_(u, v) = false` for an outer copy `v` triggers
//!   the counter-based removal propagation, touching only the affected area.
//! * Assemble — union of the per-fragment matches of inner vertices; if some
//!   query node ends up with no match anywhere, `Q(G) = ∅`.
//!
//! Sim also implements [`IncrementalPie`], with the monotone direction
//! *reversed* relative to SSSP/CC: **deletions** are monotone (removing
//! edges or vertices can only invalidate matches — `x_(u, v)` flips `true →
//! false`, never back), while insertions can resurrect matches.  The rebase
//! step is exactly the paper's incremental match invalidation: remap the
//! retained relation, recompute the witness counters on the shrunken
//! fragment, and propagate removals from the violations the deletion
//! introduced.  Insertions take the **bounded refresh** under
//! [`DamagePolicy::Reachability`] (over the `F_i.I` message-flow
//! direction): only the fragments whose match variables could depend on a
//! resurrected match are re-rooted, the rest keep their relation and
//! reseed their in-border falsifications.

use std::collections::HashSet;

use grape_core::output_delta::DeltaOutput;
use grape_core::pie::{
    DamagePolicy, IncrementalPie, Messages, PieProgram, ProcessCodec, SerdeProcessCodec,
};
use grape_graph::delta::GraphDelta;
use grape_graph::pattern::Pattern;
use grape_graph::types::VertexId;
use grape_partition::delta::FragmentDelta;
use grape_partition::fragment::{Fragment, Fragmentation, LocalId};
use grape_partition::fragmentation_graph::BorderScope;
use serde::{Deserialize, Serialize};

/// A graph-simulation query: the pattern to match.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimQuery {
    /// The pattern `Q = (V_Q, E_Q, L_Q)`.
    pub pattern: Pattern,
}

impl SimQuery {
    /// Creates a query for `pattern`.
    pub fn new(pattern: Pattern) -> Self {
        SimQuery { pattern }
    }
}

/// The assembled simulation relation.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    pub(crate) matches: Vec<Vec<VertexId>>,
}

impl SimResult {
    /// Matches of query node `u`, sorted by vertex id.
    pub fn matches(&self, u: u32) -> &[VertexId] {
        &self.matches[u as usize]
    }

    /// Whether the graph matches the pattern (every query node has a match).
    pub fn is_match(&self) -> bool {
        !self.matches.is_empty() && self.matches.iter().all(|m| !m.is_empty())
    }

    /// Total number of `(query node, vertex)` pairs in the relation.
    pub fn total_pairs(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }

    /// The whole relation.
    pub fn relation(&self) -> &[Vec<VertexId>] {
        &self.matches
    }
}

/// Per-fragment partial result: the local simulation state, in the
/// fragment's local order.  Serializable so a served Sim query can spill to
/// disk and rehydrate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimPartial {
    /// `sim[u][l]`: does local vertex `l` currently simulate query node `u`?
    sim: Vec<Vec<bool>>,
    /// `cnt[u][l]`: number of local out-neighbours of `l` simulating `u`.
    cnt: Vec<Vec<u32>>,
}

/// The graph-simulation PIE program.  [`Sim::new`] plugs in the plain
/// sequential algorithm; [`Sim::with_index`] plugs in the index-optimized one
/// (Exp-3 measures that the optimization's speedup survives parallelization).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sim {
    use_index: bool,
}

impl Sim {
    /// Plain simulation (candidates filtered by label only).
    pub fn new() -> Self {
        Sim { use_index: false }
    }

    /// Index-optimized simulation (candidates additionally filtered by the
    /// labels of their out-neighbours).
    pub fn with_index() -> Self {
        Sim { use_index: true }
    }
}

/// Initializes the candidate sets over all local vertices.  Public because
/// the block-centric baseline reuses the same local refinement machinery.
pub fn init_sim(frag: &Fragment, pattern: &Pattern, use_index: bool) -> Vec<Vec<bool>> {
    let k = frag.num_local();
    let q = pattern.num_nodes();
    // Optional one-hop label index for inner vertices.
    let out_labels: Option<Vec<Vec<u32>>> = if use_index {
        Some(
            (0..k as u32)
                .map(|l| {
                    let mut labels: Vec<u32> = frag
                        .out_edges(l)
                        .iter()
                        .map(|n| frag.label(n.target as u32))
                        .collect();
                    labels.sort_unstable();
                    labels.dedup();
                    labels
                })
                .collect(),
        )
    } else {
        None
    };
    (0..q)
        .map(|u| {
            (0..k as u32)
                .map(|l| {
                    if frag.label(l) != pattern.label(u as u32) {
                        return false;
                    }
                    if frag.is_inner(l) {
                        if let Some(index) = &out_labels {
                            return pattern.children(u as u32).iter().all(|&c| {
                                index[l as usize].binary_search(&pattern.label(c)).is_ok()
                            });
                        }
                    }
                    true
                })
                .collect()
        })
        .collect()
}

/// Computes the witness counters from a candidate matrix.
pub fn compute_cnt(frag: &Fragment, pattern: &Pattern, sim: &[Vec<bool>]) -> Vec<Vec<u32>> {
    let k = frag.num_local();
    (0..pattern.num_nodes())
        .map(|u| {
            (0..k as u32)
                .map(|l| {
                    frag.out_edges(l)
                        .iter()
                        .filter(|n| sim[u][n.target as usize])
                        .count() as u32
                })
                .collect()
        })
        .collect()
}

/// Seeds the worklist with the inner vertices violating some query edge.
pub fn initial_violations(
    frag: &Fragment,
    pattern: &Pattern,
    sim: &mut [Vec<bool>],
    cnt: &[Vec<u32>],
) -> Vec<(u32, u32)> {
    let mut worklist = Vec::new();
    for u in 0..pattern.num_nodes() as u32 {
        for l in frag.inner_locals() {
            if sim[u as usize][l as usize]
                && pattern
                    .children(u)
                    .iter()
                    .any(|&c| cnt[c as usize][l as usize] == 0)
            {
                sim[u as usize][l as usize] = false;
                worklist.push((u, l));
            }
        }
    }
    worklist
}

/// Assemble's relation over per-fragment match matrices (`sim[u][l]`, one
/// per fragment of `frag`, each in its fragment's local order): the inner
/// vertices that simulate each of the `q` query nodes, sorted by id, or no
/// match at all when some query node has none.  Public because the
/// block-centric baseline assembles its relation the same way.
pub fn assemble_relation<'a>(
    frag: &Fragmentation,
    q: usize,
    sims: impl ExactSizeIterator<Item = &'a [Vec<bool>]>,
) -> Vec<Vec<VertexId>> {
    debug_assert_eq!(sims.len(), frag.num_fragments());
    let mut matches: Vec<Vec<VertexId>> = vec![Vec::new(); q];
    for (f, sim) in frag.fragments().iter().zip(sims) {
        for (matches_u, sim_u) in matches.iter_mut().zip(sim) {
            debug_assert_eq!(sim_u.len(), f.num_local());
            let inner = f.inner_locals().filter(|&l| sim_u[l as usize]);
            matches_u.extend(inner.map(|l| f.global_of(l)));
        }
    }
    for m in &mut matches {
        m.sort_unstable();
        m.dedup();
    }
    if matches.iter().any(|m| m.is_empty()) {
        matches = vec![Vec::new(); q];
    }
    matches
}

/// Propagates removals until the local fixpoint.  Returns the removed pairs
/// whose vertex lies on the inner border `F_i.I` (these are the update
/// parameters that must be shipped).
pub fn propagate(
    frag: &Fragment,
    pattern: &Pattern,
    sim: &mut [Vec<bool>],
    cnt: &mut [Vec<u32>],
    mut worklist: Vec<(u32, u32)>,
    in_border: &HashSet<u32>,
) -> Vec<(u32, u32)> {
    let mut removed_on_border: Vec<(u32, u32)> = worklist
        .iter()
        .filter(|(_, l)| in_border.contains(l))
        .copied()
        .collect();
    while let Some((u, l)) = worklist.pop() {
        for p in frag.in_edges(l) {
            let pl = p.target as u32;
            if cnt[u as usize][pl as usize] > 0 {
                cnt[u as usize][pl as usize] -= 1;
                if cnt[u as usize][pl as usize] == 0 && frag.is_inner(pl) {
                    for &w in pattern.parents(u) {
                        if sim[w as usize][pl as usize] {
                            sim[w as usize][pl as usize] = false;
                            if in_border.contains(&pl) {
                                removed_on_border.push((w, pl));
                            }
                            worklist.push((w, pl));
                        }
                    }
                }
            }
        }
    }
    removed_on_border
}

impl PieProgram for Sim {
    type Query = SimQuery;
    type Partial = SimPartial;
    type Key = (u32, VertexId);
    type Value = bool;
    type Output = SimResult;

    fn name(&self) -> &str {
        if self.use_index {
            "sim-optimized"
        } else {
            "sim"
        }
    }

    fn process_codec(&self) -> Option<&dyn ProcessCodec<Self>> {
        Some(&SerdeProcessCodec)
    }

    fn scope(&self) -> BorderScope {
        BorderScope::In
    }

    fn peval(
        &self,
        query: &SimQuery,
        frag: &Fragment,
        ctx: &mut Messages<(u32, VertexId), bool>,
    ) -> SimPartial {
        let pattern = &query.pattern;
        let mut sim = init_sim(frag, pattern, self.use_index);
        let mut cnt = compute_cnt(frag, pattern, &sim);
        let in_border: HashSet<u32> = frag.in_border_locals().iter().copied().collect();
        let worklist = initial_violations(frag, pattern, &mut sim, &cnt);
        propagate(frag, pattern, &mut sim, &mut cnt, worklist, &in_border);

        // Message segment: x_(u, v) for v ∈ F_i.I that are false even though
        // the label matches (the receiver's optimistic assumption is wrong).
        for &l in frag.in_border_locals() {
            for u in 0..pattern.num_nodes() as u32 {
                if frag.label(l) == pattern.label(u) && !sim[u as usize][l as usize] {
                    ctx.send((u, frag.global_of(l)), false);
                }
            }
        }
        SimPartial { sim, cnt }
    }

    fn inc_eval(
        &self,
        query: &SimQuery,
        frag: &Fragment,
        partial: &mut SimPartial,
        messages: &[((u32, VertexId), bool)],
        ctx: &mut Messages<(u32, VertexId), bool>,
    ) {
        let pattern = &query.pattern;
        let in_border: HashSet<u32> = frag.in_border_locals().iter().copied().collect();
        // Apply the received falsifications to our outer copies (equivalent to
        // deleting the cross edges that relied on them).
        let mut worklist = Vec::new();
        for ((u, v), value) in messages {
            if *value {
                continue; // only false updates carry information
            }
            if let Some(l) = frag.local_of(*v) {
                if partial.sim[*u as usize][l as usize] {
                    partial.sim[*u as usize][l as usize] = false;
                    worklist.push((*u, l));
                }
            }
        }
        if worklist.is_empty() {
            return;
        }
        let newly_false = propagate(
            frag,
            pattern,
            &mut partial.sim,
            &mut partial.cnt,
            worklist,
            &in_border,
        );
        for (u, l) in newly_false {
            ctx.send((u, frag.global_of(l)), false);
        }
    }

    fn assemble(
        &self,
        query: &SimQuery,
        frag: &Fragmentation,
        partials: Vec<SimPartial>,
    ) -> SimResult {
        let sims = partials.iter().map(|p| p.sim.as_slice());
        SimResult {
            matches: assemble_relation(frag, query.pattern.num_nodes(), sims),
        }
    }

    /// A key ships as its pattern node and vertex id, not as the padded
    /// tuple.
    fn key_size(&self, _key: &(u32, VertexId)) -> usize {
        std::mem::size_of::<u32>() + std::mem::size_of::<VertexId>()
    }

    fn aggregate(&self, _key: &(u32, VertexId), a: bool, b: bool) -> bool {
        // false ≺ true: once any worker falsifies a variable, it stays false.
        a && b
    }
}

impl IncrementalPie for Sim {
    /// The monotone direction is *deletions*: they can only flip match
    /// variables `true → false` (the order of the preamble).  Insertions can
    /// make a falsified variable true again, which the retained relation
    /// cannot express.
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        !delta.has_insertions()
    }

    /// Match invalidation: remap the retained relation onto the shrunken
    /// fragment (dropped vertices leave the matrices), recompute the witness
    /// counters against the new adjacency, and run the counter-based removal
    /// propagation from the violations the deleted edges introduced.  The
    /// newly falsified in-border pairs are the seeds.
    fn rebase(
        &self,
        query: &SimQuery,
        old_frag: &Fragment,
        new_frag: &Fragment,
        partial: SimPartial,
        _delta: &FragmentDelta,
    ) -> (SimPartial, Vec<((u32, VertexId), bool)>) {
        let pattern = &query.pattern;
        let q = pattern.num_nodes();
        let k = new_frag.num_local();
        // The partial is in `old_frag`'s local order: its index does the
        // lookup by global id.
        let old_locals: Vec<Option<LocalId>> = (0..k as u32)
            .map(|l| old_frag.local_of(new_frag.global_of(l)))
            .collect();
        let mut sim: Vec<Vec<bool>> = (0..q)
            .map(|u| {
                debug_assert_eq!(partial.sim[u].len(), old_frag.num_local());
                (0..k as u32)
                    .map(|l| match old_locals[l as usize] {
                        Some(i) => partial.sim[u][i as usize],
                        // Unreachable for a deletion-only delta, but keep
                        // PEval's optimistic label-match initialization.
                        None => new_frag.label(l) == pattern.label(u as u32),
                    })
                    .collect()
            })
            .collect();
        let mut cnt = compute_cnt(new_frag, pattern, &sim);
        let in_border: HashSet<u32> = new_frag.in_border_locals().iter().copied().collect();
        let worklist = initial_violations(new_frag, pattern, &mut sim, &cnt);
        let newly_false = propagate(new_frag, pattern, &mut sim, &mut cnt, worklist, &in_border);
        let sends = newly_false
            .into_iter()
            .map(|(u, l)| ((u, new_frag.global_of(l)), false))
            .collect();
        (SimPartial { sim, cnt }, sends)
    }

    /// The match-invalidation fixpoint is schedule-independent given fixed
    /// border inputs: insertions re-root only the message-flow closure of
    /// the damage (under the `F_i.I` scope).
    fn damage_policy(&self, _query: &SimQuery) -> DamagePolicy {
        DamagePolicy::Reachability
    }

    /// The full border segment of a retained partial: every in-border
    /// falsification whose label would otherwise let the copy holder stay
    /// optimistic (same candidate set as PEval's message segment).
    fn reseed(
        &self,
        query: &SimQuery,
        frag: &Fragment,
        partial: &SimPartial,
    ) -> Vec<((u32, VertexId), bool)> {
        let pattern = &query.pattern;
        let mut sends = Vec::new();
        for &l in frag.in_border_locals() {
            for u in 0..pattern.num_nodes() as u32 {
                if frag.label(l) == pattern.label(u) && !partial.sim[u as usize][l as usize] {
                    sends.push(((u, frag.global_of(l)), false));
                }
            }
        }
        sends
    }
}

impl DeltaOutput for Sim {
    type OutKey = (u32, VertexId);
    type OutVal = bool;

    /// One row per `(query node, matched vertex)` pair in the relation —
    /// rows exist only while the pair matches, so an invalidated match shows
    /// up as a `removed` key.
    fn canonical(&self, _query: &SimQuery, output: &SimResult) -> Vec<((u32, VertexId), bool)> {
        let mut rows: Vec<((u32, VertexId), bool)> = Vec::with_capacity(output.total_pairs());
        for (u, matches) in output.relation().iter().enumerate() {
            for &v in matches {
                rows.push(((u as u32, v), true));
            }
        }
        // Already sorted (node index ascending, matches sorted per node) —
        // kept explicit so the canonical contract never silently breaks.
        rows.sort_unstable_by_key(|r| r.0);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::session::GrapeSession;
    use grape_graph::generators::labeled_kg;
    use grape_graph::graph::Graph;
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::metis_like::MetisLike;
    use grape_partition::strategy::PartitionStrategy;

    use crate::sim::sequential::graph_simulation;

    fn run_sim(g: &Graph, pattern: &Pattern, fragments: usize, program: Sim) -> SimResult {
        let frag = HashEdgeCut::new(fragments).partition(g).unwrap();
        GrapeSession::with_workers(4)
            .run(&frag, &program, &SimQuery::new(pattern.clone()))
            .unwrap()
            .output
    }

    fn assert_matches_sequential(g: &Graph, pattern: &Pattern, result: &SimResult) {
        let expected = graph_simulation(g, pattern);
        for (u, expected_u) in expected.iter().enumerate() {
            assert_eq!(
                result.matches(u as u32),
                expected_u.as_slice(),
                "query node {u}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_labeled_graphs() {
        for seed in 0..3u64 {
            let g = labeled_kg(250, 1000, 5, 3, seed);
            let alphabet: Vec<u32> = (1..=5).collect();
            let pattern = Pattern::random(4, 6, &alphabet, seed + 10);
            let result = run_sim(&g, &pattern, 4, Sim::new());
            assert_matches_sequential(&g, &pattern, &result);
        }
    }

    #[test]
    fn optimized_variant_gives_identical_relation() {
        let g = labeled_kg(300, 1200, 6, 3, 7);
        let alphabet: Vec<u32> = (1..=6).collect();
        let pattern = Pattern::random(5, 8, &alphabet, 99);
        let basic = run_sim(&g, &pattern, 4, Sim::new());
        let optimized = run_sim(&g, &pattern, 4, Sim::with_index());
        assert_eq!(basic.relation(), optimized.relation());
    }

    #[test]
    fn fragment_count_does_not_change_the_relation() {
        let g = labeled_kg(200, 800, 4, 2, 3);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 55);
        let one = run_sim(&g, &pattern, 1, Sim::new());
        let many = run_sim(&g, &pattern, 8, Sim::new());
        assert_eq!(one.relation(), many.relation());
    }

    #[test]
    fn metis_partition_also_matches_sequential() {
        let g = labeled_kg(200, 900, 5, 3, 11);
        let alphabet: Vec<u32> = (1..=5).collect();
        let pattern = Pattern::random(4, 6, &alphabet, 4);
        let frag = MetisLike::new(4).partition(&g).unwrap();
        let result = GrapeSession::with_workers(2)
            .run(&frag, &Sim::new(), &SimQuery::new(pattern.clone()))
            .unwrap()
            .output;
        assert_matches_sequential(&g, &pattern, &result);
    }

    #[test]
    fn prepared_update_invalidates_matches_without_peval() {
        use grape_graph::delta::GraphDelta;

        let g = labeled_kg(200, 900, 4, 2, 21);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 33);
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session
            .prepare(frag, Sim::new(), SimQuery::new(pattern.clone()))
            .unwrap();

        // Delete a handful of edges (the monotone direction for Sim).
        let mut delta = GraphDelta::new();
        for e in g.edges().iter().step_by(97).take(6) {
            delta = delta.remove_edge(e.src, e.dst);
        }
        let report = prepared.update(&delta).unwrap();
        assert!(
            report.incremental,
            "deletions take the IncEval path for Sim"
        );
        assert_eq!(report.metrics.peval_calls, 0);
        assert_matches_sequential(
            prepared.fragmentation().source(),
            &pattern,
            &prepared.output(),
        );
    }

    #[test]
    fn prepared_update_falls_back_on_insertion() {
        use grape_graph::delta::GraphDelta;

        let g = labeled_kg(120, 500, 3, 2, 8);
        let alphabet: Vec<u32> = (1..=3).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 5);
        let frag = HashEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session
            .prepare(frag, Sim::new(), SimQuery::new(pattern.clone()))
            .unwrap();
        let report = prepared.update(&GraphDelta::new().add_edge(0, 1)).unwrap();
        assert!(!report.incremental, "insertions can resurrect matches");
        assert!(report.metrics.peval_calls > 0);
        assert_matches_sequential(
            prepared.fragmentation().source(),
            &pattern,
            &prepared.output(),
        );
    }

    #[test]
    fn upstream_insertion_repevals_a_bounded_frontier() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::builder::GraphBuilder;
        use grape_graph::delta::GraphDelta;
        use grape_partition::edge_cut::RangeEdgeCut;

        // A forward chain with alternating labels over four range fragments.
        // Sim's messages flow along F_i.I — against the edge direction — so
        // an insertion inside fragment 0 (which nothing points into) damages
        // fragment 0 alone; fragment 1 reseeds its in-border falsifications.
        let mut b = GraphBuilder::directed();
        for v in 0..15u64 {
            b.push_edge(grape_graph::types::Edge::unweighted(v, v + 1));
        }
        for v in 0..16u64 {
            b.push_vertex_label(v, 1 + (v % 2) as u32);
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let pattern = Pattern::new(vec![1, 1], vec![(0, 1)]);
        let session = GrapeSession::with_workers(2);
        let query = SimQuery::new(pattern.clone());
        let mut prepared = session.prepare(frag, Sim::new(), query).unwrap();
        // No label-1 vertex has a label-1 child on the alternating chain.
        assert!(!prepared.output().is_match());

        // 0 and 2 both carry label 1: the new edge resurrects matches.
        let report = prepared.update(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded);
        assert_eq!(report.repeval, vec![0], "nothing points into fragment 0");
        assert_eq!(report.metrics.peval_calls, 1);

        let refreshed = prepared.output();
        assert!(refreshed.is_match());
        assert_matches_sequential(prepared.fragmentation().source(), &pattern, &refreshed);
    }

    #[test]
    fn unmatched_pattern_yields_empty_relation_everywhere() {
        let g = labeled_kg(100, 400, 3, 2, 5);
        // Label 50 does not exist in the graph.
        let pattern = Pattern::new(vec![50, 1], vec![(0, 1)]);
        let result = run_sim(&g, &pattern, 4, Sim::new());
        assert!(!result.is_match());
        assert_eq!(result.total_pairs(), 0);
    }
}
