//! The SSSP PIE program (Figures 3 and 4 of the paper).
//!
//! * Message preamble: a variable `dist(s, v)` per vertex, candidate set
//!   `C_i = F_i.O`, `aggregateMsg = min`.
//! * PEval: Dijkstra over the local fragment.
//! * IncEval: bounded incremental Dijkstra seeded with the decreased border
//!   distances received in `M_i`.
//! * Assemble: union of the per-fragment distances, taking the minimum for
//!   border vertices.
//!
//! SSSP also implements [`IncrementalPie`]: *insert-only* deltas are
//! monotone (a new edge can only shorten distances), so `Q(G ⊕ ΔG)` is
//! refreshed by re-relaxing around the inserted edges and letting IncEval
//! propagate the improvements — no PEval.  Deletions can lengthen shortest
//! paths, which the min-aggregated variables cannot express; they take the
//! **bounded refresh** under [`DamagePolicy::Reachability`]: only the
//! fragments whose retained distances could depend on a deleted edge
//! (the message-flow closure of the structurally changed fragments) are
//! re-rooted with PEval, while every other fragment keeps its partial and
//! reseeds its border distances into the fixpoint.

use std::collections::BinaryHeap;
use std::collections::HashMap;

use grape_core::output_delta::{DeltaOutput, OutputDelta};
use grape_core::pie::{
    DamagePolicy, IncrementalPie, Messages, PieProgram, ProcessCodec, SerdeProcessCodec,
};
use grape_graph::delta::GraphDelta;
use grape_graph::types::VertexId;
use grape_partition::delta::FragmentDelta;
use grape_partition::fragment::Fragment;
use grape_partition::fragmentation_graph::BorderScope;
use serde::{Deserialize, Serialize};

use crate::util::{diff_min_rows, MinDist, INF};

/// An SSSP query: the source vertex `s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SsspQuery {
    /// Source vertex (global id).
    pub source: VertexId,
}

impl SsspQuery {
    /// Creates a query for source `s`.
    pub fn new(source: VertexId) -> Self {
        SsspQuery { source }
    }
}

/// The assembled SSSP answer: the shortest distance from the source to every
/// reachable vertex.
#[derive(Debug, Clone, Default)]
pub struct SsspResult {
    distances: HashMap<VertexId, f64>,
}

impl SsspResult {
    /// Shortest distance to `v`, or `None` when unreachable.
    pub fn distance(&self, v: VertexId) -> Option<f64> {
        self.distances.get(&v).copied().filter(|d| d.is_finite())
    }

    /// All finite distances, keyed by global vertex id.
    pub fn distances(&self) -> &HashMap<VertexId, f64> {
        &self.distances
    }

    /// Number of reachable vertices (including the source).
    pub fn num_reached(&self) -> usize {
        self.distances.values().filter(|d| d.is_finite()).count()
    }
}

/// Per-fragment partial result `Q(F_i)`: `dist(s, v)` for every local vertex,
/// together with the local→global id mapping so Assemble can merge fragments.
///
/// Serializable so a prepared SSSP query can be **evicted** by
/// `grape_core::serve::GrapeServer` (partials spill to disk next to the
/// per-fragment binary snapshots and reload without re-running PEval).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsspPartial {
    /// Distance per local vertex id.
    dist: Vec<f64>,
    /// Global id of each local vertex.  Outer-copy distances are valid upper
    /// bounds, so Assemble can merge everything with `min`.
    globals: Vec<VertexId>,
}

/// The SSSP PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sssp;

impl Sssp {
    /// Local Dijkstra continuation: relaxes edges starting from the given
    /// seed heap until exhaustion (the tail of PEval and the whole of
    /// IncEval).
    fn relax(frag: &Fragment, dist: &mut [f64], mut heap: BinaryHeap<MinDist<u32>>) {
        while let Some(MinDist { dist: d, vertex: u }) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for n in frag.out_edges(u) {
                let t = n.target as u32;
                let alt = d + n.weight;
                if alt < dist[t as usize] {
                    dist[t as usize] = alt;
                    heap.push(MinDist {
                        dist: alt,
                        vertex: t,
                    });
                }
            }
        }
    }

    /// Sends the (finite) distances of the border vertices that improved —
    /// the message segment `M_i = {dist(s, v) | v ∈ F_i.O, dist decreased}`.
    /// The inner border is included as well so that vertex-cut partitions
    /// (where a shared vertex's edges are spread over several fragments) stay
    /// consistent; under edge-cut those values have no destination and are
    /// dropped for free by the router.
    fn send_border(
        frag: &Fragment,
        dist: &[f64],
        previous: Option<&[f64]>,
        ctx: &mut Messages<VertexId, f64>,
    ) {
        for &l in frag
            .out_border_locals()
            .iter()
            .chain(frag.in_border_locals())
        {
            let d = dist[l as usize];
            if !d.is_finite() {
                continue;
            }
            let improved = match previous {
                Some(prev) => d < prev[l as usize],
                None => true,
            };
            if improved {
                ctx.send(frag.global_of(l), d);
            }
        }
    }
}

impl PieProgram for Sssp {
    type Query = SsspQuery;
    type Partial = SsspPartial;
    type Key = VertexId;
    type Value = f64;
    type Output = SsspResult;

    fn name(&self) -> &str {
        "sssp"
    }

    fn process_codec(&self) -> Option<&dyn ProcessCodec<Self>> {
        Some(&SerdeProcessCodec)
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    fn peval(
        &self,
        query: &SsspQuery,
        frag: &Fragment,
        ctx: &mut Messages<VertexId, f64>,
    ) -> SsspPartial {
        let mut dist = vec![INF; frag.num_local()];
        let mut heap = BinaryHeap::new();
        if let Some(source_local) = frag.local_of(query.source) {
            dist[source_local as usize] = 0.0;
            heap.push(MinDist {
                dist: 0.0,
                vertex: source_local,
            });
        }
        Self::relax(frag, &mut dist, heap);
        Self::send_border(frag, &dist, None, ctx);
        SsspPartial {
            dist,
            globals: frag.all_locals().map(|l| frag.global_of(l)).collect(),
        }
    }

    fn inc_eval(
        &self,
        _query: &SsspQuery,
        frag: &Fragment,
        partial: &mut SsspPartial,
        messages: &[(VertexId, f64)],
        ctx: &mut Messages<VertexId, f64>,
    ) {
        let previous = partial.dist.clone();
        let mut heap = BinaryHeap::new();
        for &(v, d) in messages {
            if let Some(l) = frag.local_of(v) {
                if d < partial.dist[l as usize] {
                    partial.dist[l as usize] = d;
                    heap.push(MinDist { dist: d, vertex: l });
                }
            }
        }
        if heap.is_empty() {
            return;
        }
        Self::relax(frag, &mut partial.dist, heap);
        Self::send_border(frag, &partial.dist, Some(&previous), ctx);
    }

    fn assemble(&self, _query: &SsspQuery, partials: Vec<SsspPartial>) -> SsspResult {
        let mut distances: HashMap<VertexId, f64> = HashMap::new();
        for partial in partials {
            // Every locally computed distance is an upper bound on the true
            // shortest distance, and the owning fragment holds the exact
            // value at the fixpoint, so merging with `min` is correct.
            for (idx, &v) in partial.globals.iter().enumerate() {
                let d = partial.dist[idx];
                if !d.is_finite() {
                    continue;
                }
                distances
                    .entry(v)
                    .and_modify(|existing| *existing = existing.min(d))
                    .or_insert(d);
            }
        }
        SsspResult { distances }
    }

    fn aggregate(&self, _key: &VertexId, a: f64, b: f64) -> f64 {
        a.min(b)
    }
}

impl IncrementalPie for Sssp {
    /// Edge/vertex insertions only decrease distances — monotone under the
    /// `min` order.  Any removal can increase them, which the retained
    /// variables cannot express.
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        !delta.has_removals()
    }

    /// Edge-insert relaxation: remap the retained distances onto the rebuilt
    /// fragment (new vertices start at `∞`, the source at `0`), re-relax
    /// from every endpoint of an inserted local edge, and ship the border
    /// distances that improved.
    fn rebase(
        &self,
        query: &SsspQuery,
        _old_frag: &Fragment,
        new_frag: &Fragment,
        partial: SsspPartial,
        delta: &FragmentDelta,
    ) -> (SsspPartial, Vec<(VertexId, f64)>) {
        let old_index: HashMap<VertexId, usize> = partial
            .globals
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        let mut dist = vec![INF; new_frag.num_local()];
        for l in new_frag.all_locals() {
            if let Some(&i) = old_index.get(&new_frag.global_of(l)) {
                dist[l as usize] = partial.dist[i];
            }
        }
        let previous = dist.clone();

        let mut heap = BinaryHeap::new();
        // A newly local copy of the source (new vertex, or fresh outer copy)
        // anchors at distance 0, exactly as PEval would.
        if let Some(sl) = new_frag.local_of(query.source) {
            if dist[sl as usize] > 0.0 {
                dist[sl as usize] = 0.0;
                heap.push(MinDist {
                    dist: 0.0,
                    vertex: sl,
                });
            }
        }
        // Re-relax from the endpoints of every inserted local edge; the new
        // adjacency (which includes those edges) does the rest.
        for e in &delta.added_edges {
            for v in [e.src, e.dst] {
                if let Some(l) = new_frag.local_of(v) {
                    let d = dist[l as usize];
                    if d.is_finite() {
                        heap.push(MinDist { dist: d, vertex: l });
                    }
                }
            }
        }
        Self::relax(new_frag, &mut dist, heap);

        let mut msgs = Messages::new();
        Self::send_border(new_frag, &dist, Some(&previous), &mut msgs);
        let sends = msgs.take();
        (
            SsspPartial {
                dist,
                globals: new_frag
                    .all_locals()
                    .map(|l| new_frag.global_of(l))
                    .collect(),
            },
            sends,
        )
    }

    /// Dijkstra's fixpoint is schedule-independent given fixed border
    /// inputs, so deletions only need to re-root the fragments reachable
    /// from the damage through `G_P`.
    fn damage_policy(&self, _query: &SsspQuery) -> DamagePolicy {
        DamagePolicy::Reachability
    }

    /// The full border segment of a retained partial: every finite border
    /// distance, so a freshly re-rooted downstream fragment re-learns the
    /// entry distances this (undamaged) fragment feeds it.
    fn reseed(
        &self,
        _query: &SsspQuery,
        frag: &Fragment,
        partial: &SsspPartial,
    ) -> Vec<(VertexId, f64)> {
        let mut msgs = Messages::new();
        Self::send_border(frag, &partial.dist, None, &mut msgs);
        msgs.take()
    }
}

impl DeltaOutput for Sssp {
    type OutKey = VertexId;
    type OutVal = f64;

    /// One row per reachable vertex: `(v, dist(s, v))`, sorted by id.
    fn canonical(&self, _query: &SsspQuery, output: &SsspResult) -> Vec<(VertexId, f64)> {
        let mut rows: Vec<(VertexId, f64)> = output
            .distances
            .iter()
            .filter(|(_, d)| d.is_finite())
            .map(|(&v, &d)| (v, d))
            .collect();
        rows.sort_unstable_by_key(|&(v, _)| v);
        rows
    }

    /// Min-merges the retained distances straight off the partials — the
    /// same rows `canonical(assemble(...))` yields, minus the intermediate
    /// [`SsspResult`], its hashing and the sort (see
    /// `util::diff_min_rows`; declines on sparse vertex ids).
    fn diff_output(
        &self,
        _query: &SsspQuery,
        previous: &[(VertexId, f64)],
        partials: &[SsspPartial],
    ) -> Option<OutputDelta<VertexId, f64>> {
        let rows = partials.iter().flat_map(|partial| {
            partial
                .globals
                .iter()
                .zip(&partial.dist)
                .map(|(&v, &d)| (v, d))
                .filter(|(_, d)| d.is_finite())
        });
        diff_min_rows(previous, INF, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::session::GrapeSession;
    use grape_graph::generators::{power_law, road_grid};
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::metis_like::MetisLike;
    use grape_partition::strategy::PartitionStrategy;

    use crate::sssp::sequential::dijkstra;

    fn check_against_sequential(
        g: &grape_graph::graph::Graph,
        strategy: &dyn PartitionStrategy,
        workers: usize,
        source: VertexId,
    ) {
        let frag = strategy.partition(g).unwrap();
        let engine = GrapeSession::with_workers(workers);
        let result = engine.run(&frag, &Sssp, &SsspQuery::new(source)).unwrap();
        let expected = dijkstra(g, source);
        for (v, d) in expected.iter().enumerate() {
            match result.output.distance(v as VertexId) {
                Some(got) => assert!((got - d).abs() < 1e-9, "vertex {v}: {got} vs {d}"),
                None => assert!(!d.is_finite(), "vertex {v} should be reachable with {d}"),
            }
        }
    }

    #[test]
    fn matches_sequential_on_road_grid() {
        let g = road_grid(10, 10, 1);
        check_against_sequential(&g, &MetisLike::new(4), 4, 0);
    }

    #[test]
    fn matches_sequential_on_power_law() {
        let g = power_law(300, 1500, 0, 2);
        check_against_sequential(&g, &HashEdgeCut::new(4), 2, 5);
    }

    #[test]
    fn unreachable_vertices_are_reported_as_none() {
        let g = grape_graph::builder::GraphBuilder::directed()
            .add_weighted_edge(0, 1, 1.0)
            .ensure_vertices(4)
            .build();
        let frag = HashEdgeCut::new(2).partition(&g).unwrap();
        let engine = GrapeSession::with_workers(2);
        let result = engine.run(&frag, &Sssp, &SsspQuery::new(0)).unwrap();
        assert_eq!(result.output.distance(3), None);
        assert_eq!(result.output.distance(1), Some(1.0));
        assert_eq!(result.output.num_reached(), 2);
    }

    #[test]
    fn source_outside_graph_reaches_nothing() {
        let g = road_grid(4, 4, 1);
        let frag = HashEdgeCut::new(2).partition(&g).unwrap();
        let engine = GrapeSession::with_workers(1);
        let result = engine.run(&frag, &Sssp, &SsspQuery::new(999)).unwrap();
        assert_eq!(result.output.num_reached(), 0);
    }

    #[test]
    fn fragment_count_does_not_change_distances() {
        let g = power_law(200, 800, 0, 3);
        let base = {
            let frag = HashEdgeCut::new(1).partition(&g).unwrap();
            GrapeSession::with_workers(1)
                .run(&frag, &Sssp, &SsspQuery::new(0))
                .unwrap()
                .output
        };
        for m in [2, 4, 8] {
            let frag = HashEdgeCut::new(m).partition(&g).unwrap();
            let out = GrapeSession::with_workers(4)
                .run(&frag, &Sssp, &SsspQuery::new(0))
                .unwrap()
                .output;
            assert_eq!(out.num_reached(), base.num_reached(), "m = {m}");
            for (v, d) in base.distances() {
                assert!((out.distance(*v).unwrap() - d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prepared_update_relaxes_inserted_edges_without_peval() {
        use grape_graph::delta::GraphDelta;

        let g = road_grid(8, 8, 3);
        let frag = HashEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Sssp, SsspQuery::new(0)).unwrap();

        // A shortcut from the source into the far corner's neighborhood.
        let far = (g.num_vertices() - 1) as VertexId;
        let delta = GraphDelta::new().add_weighted_edge(0, far, 0.25);
        let report = prepared.update(&delta).unwrap();
        assert!(
            report.incremental,
            "insert-only deltas take the IncEval path"
        );
        assert_eq!(report.metrics.peval_calls, 0);
        assert!(report.affected_fragments >= 1);

        let expected = dijkstra(prepared.fragmentation().source(), 0);
        for (v, d) in expected.iter().enumerate() {
            match prepared.output().distance(v as VertexId) {
                Some(got) => assert!((got - d).abs() < 1e-9, "vertex {v}: {got} vs {d}"),
                None => assert!(!d.is_finite(), "vertex {v}"),
            }
        }
        assert_eq!(prepared.output().distance(far), Some(0.25));
    }

    #[test]
    fn prepared_update_falls_back_on_deletion() {
        use grape_graph::delta::GraphDelta;

        let g = road_grid(6, 6, 9);
        let frag = HashEdgeCut::new(2).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Sssp, SsspQuery::new(0)).unwrap();
        let e = g.edges()[0];
        let report = prepared
            .update(&GraphDelta::new().remove_edge(e.src, e.dst))
            .unwrap();
        assert!(!report.incremental, "deletions are not monotone for SSSP");
        assert!(report.metrics.peval_calls > 0);

        let expected = dijkstra(prepared.fragmentation().source(), 0);
        for (v, d) in expected.iter().enumerate() {
            match prepared.output().distance(v as VertexId) {
                Some(got) => assert!((got - d).abs() < 1e-9, "vertex {v}: {got} vs {d}"),
                None => assert!(!d.is_finite(), "vertex {v}"),
            }
        }
    }

    #[test]
    fn localized_deletion_repevals_only_the_downstream_frontier() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::builder::GraphBuilder;
        use grape_graph::delta::GraphDelta;
        use grape_partition::edge_cut::RangeEdgeCut;

        // Weighted path 0 → 1 → … → 11 over four range fragments of 3.
        // Deleting the fragment-local edge 4 → 5 can only lengthen distances
        // downstream: the damage frontier is {1, 2, 3}, never fragment 0.
        let mut b = GraphBuilder::directed();
        for v in 0..11u64 {
            b.push_edge(grape_graph::types::Edge::weighted(v, v + 1, 1.0 + v as f64));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Sssp, SsspQuery::new(0)).unwrap();

        let report = prepared
            .update(&GraphDelta::new().remove_edge(4, 5))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded);
        assert_eq!(report.rebuilt, vec![1], "the edge is local to fragment 1");
        assert_eq!(report.repeval, vec![1, 2, 3]);
        assert_eq!(report.metrics.peval_calls, 3, "3 of 4 fragments re-rooted");
        assert_eq!(prepared.bounded_updates(), 1);

        let expected = dijkstra(prepared.fragmentation().source(), 0);
        for (v, d) in expected.iter().enumerate() {
            match prepared.output().distance(v as VertexId) {
                Some(got) => assert!((got - d).abs() < 1e-9, "vertex {v}: {got} vs {d}"),
                None => assert!(!d.is_finite(), "vertex {v} expected {d}"),
            }
        }
        // The cut really disconnects 5..12.
        assert_eq!(prepared.output().distance(6), None);
    }

    /// The path `diff_output` must agree with: assemble, canonicalize,
    /// `diff_sorted`.
    fn reference_diff(
        previous: &[(VertexId, f64)],
        partials: &[SsspPartial],
    ) -> OutputDelta<VertexId, f64> {
        let query = SsspQuery::new(0);
        let next = Sssp.canonical(&query, &Sssp.assemble(&query, partials.to_vec()));
        grape_core::output_delta::diff_sorted(previous, &next)
    }

    #[test]
    fn diff_output_equals_assemble_and_diff_on_seeded_graphs() {
        use grape_core::output_delta::apply_sorted;
        use grape_graph::delta::GraphDelta;

        for seed in 0..4u64 {
            // Directed power-law graphs leave many vertices unreachable
            // from the source; four hash fragments give every border
            // vertex outer copies.
            let g = power_law(300, 900, 0, seed);
            let frag = HashEdgeCut::new(4).partition(&g).unwrap();
            let query = SsspQuery::new(seed);
            let mut prepared = GrapeSession::with_workers(2)
                .prepare(frag, Sssp, query)
                .unwrap();
            let mut previous = prepared.canonical_rows().unwrap();
            assert!(
                (20..g.num_vertices()).contains(&previous.len()),
                "{} rows: want a real answer with some vertex unreachable",
                previous.len()
            );

            let cut = g.edges()[0];
            let detached = g
                .edges()
                .iter()
                .map(|e| e.dst)
                .find(|&v| v != seed && v != cut.src && v != cut.dst)
                .unwrap();
            let deltas = [
                // Reconnects a region and reaches a brand-new id, leaving
                // ids 300..=308 in no fragment's reach.
                GraphDelta::new()
                    .add_weighted_edge(seed, 299, 0.5)
                    .add_weighted_edge(299, 309, 0.25),
                GraphDelta::new().remove_edge(cut.src, cut.dst),
                GraphDelta::new().remove_vertex(detached),
                GraphDelta::new().add_weighted_edge(seed, detached, 0.125),
            ];
            for delta in &deltas {
                prepared.update(delta).unwrap();
                let fast = Sssp
                    .diff_output(&query, &previous, prepared.partials())
                    .expect("dense vertex ids take the fast path");
                assert_eq!(fast, reference_diff(&previous, prepared.partials()));
                apply_sorted(&mut previous, &fast);
                assert_eq!(previous, prepared.canonical_rows().unwrap());
            }
        }
    }

    #[test]
    fn diff_output_takes_the_owner_minimum_and_declines_sparse_ids() {
        let query = SsspQuery::new(0);
        let partials = vec![
            // Fragment 0 owns 0, 1, 4 and holds an outer copy of 9 whose
            // locally derived distance is worse than the owner's.
            SsspPartial {
                dist: vec![0.0, 2.0, INF, 7.5],
                globals: vec![0, 1, 4, 9],
            },
            // Fragment 1 owns 9 and 12; its outer copy of 4 is unreached
            // too, so 4 drops out of the answer.
            SsspPartial {
                dist: vec![3.0, INF, 4.0],
                globals: vec![9, 4, 12],
            },
        ];
        // 20 lies past every id the partials name.
        let previous = vec![(0, 0.0), (1, 2.5), (4, 1.0), (20, 9.0)];
        let fast = Sssp.diff_output(&query, &previous, &partials).unwrap();
        assert_eq!(fast.changed, vec![(1, 2.0), (9, 3.0), (12, 4.0)]);
        assert_eq!(fast.removed, vec![4, 20]);
        assert_eq!(fast, reference_diff(&previous, &partials));

        let nothing = Sssp.diff_output(&query, &previous, &[]).unwrap();
        assert_eq!(nothing, reference_diff(&previous, &[]));

        // A dense table over ids this sparse would dwarf the answer: the
        // fast path declines and the engine assembles instead.
        let sparse = vec![SsspPartial {
            dist: vec![1.0],
            globals: vec![1 << 40],
        }];
        assert!(Sssp.diff_output(&query, &previous, &sparse).is_none());
    }

    #[test]
    fn incremental_supersteps_ship_only_improvements() {
        // On a long path partitioned into ranges, distances propagate one
        // fragment per superstep and every border value is shipped at most a
        // handful of times.  Superstep-per-fragment propagation is a BSP
        // property, so pin synchronous mode.
        let g = road_grid(30, 1, 5);
        let frag = grape_partition::edge_cut::RangeEdgeCut::new(5)
            .partition(&g)
            .unwrap();
        let engine = GrapeSession::builder()
            .workers(2)
            .mode(grape_core::config::EngineMode::Sync)
            .build()
            .unwrap();
        let result = engine.run(&frag, &Sssp, &SsspQuery::new(0)).unwrap();
        assert!(
            result.metrics.supersteps >= 5,
            "propagation crosses 5 fragments"
        );
        assert!(
            result.metrics.total_messages <= 4 * frag.num_border_vertices() + 8,
            "messages {} too high",
            result.metrics.total_messages
        );
    }
}
