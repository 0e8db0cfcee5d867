//! The SSSP PIE program (Figures 3 and 4 of the paper).
//!
//! * Message preamble: a variable `dist(s, v)` per vertex, candidate set
//!   `C_i = F_i.O`, `aggregateMsg = min`.
//! * PEval: Dijkstra over the local fragment.
//! * IncEval: bounded incremental Dijkstra seeded with the decreased border
//!   distances received in `M_i`; it records the pre-relax value of each
//!   border vertex it lowers and ships those, so its cost is a function of
//!   `|M_i| + |AFF|`, not of `|F_i|`.
//! * Assemble: union of the per-fragment distances, named through the
//!   fragmentation, taking the minimum for border vertices.
//!
//! SSSP also implements [`IncrementalPie`]: *insert-only* deltas are
//! monotone (a new edge can only shorten distances), so `Q(G ⊕ ΔG)` is
//! refreshed by re-relaxing around the inserted edges and letting IncEval
//! propagate the improvements — no PEval.  Edge **deletions** are absorbed
//! by [`IncrementalPie::retract`] on the coordinator, still without PEval:
//! the retracted set is the shortest-path subtree hanging off every removed
//! edge that was *tight* (`dist[u] + w == dist[v]`), closed under tight
//! out-edges and under "an outer copy whose owner holds the same value
//! retracts the owner"; it is reset to `∞`, re-relaxed from its
//! non-retracted in-neighbours and outer copies, and every border value
//! that changed is shipped.  A removal off every shortest path costs only
//! the remap of the rebuilt fragments.  Vertex removals are declined and
//! take the **bounded refresh** under [`DamagePolicy::Reachability`]: only
//! the fragments whose retained distances could depend on a deleted edge
//! are re-rooted with PEval, the rest keep their partials and reseed their
//! border distances into the fixpoint.

use std::collections::{BinaryHeap, HashMap, HashSet};

use grape_core::output_delta::{DeltaOutput, OutputDelta};
use grape_core::pie::{
    DamagePolicy, IncrementalPie, Messages, PieProgram, ProcessCodec, Retraction, SerdeProcessCodec,
};
use grape_graph::delta::GraphDelta;
use grape_graph::types::{Edge, VertexId};
use grape_partition::delta::{DeltaApplication, FragmentDelta};
use grape_partition::fragment::{Fragment, Fragmentation, LocalId};
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
/// in the fragment's local order; Assemble names the vertices through the
/// fragmentation.
///
/// Serializable so a prepared SSSP query can be **evicted** by
/// `grape_core::serve::GrapeServer` (partials spill to disk and reload
/// without re-running PEval).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SsspPartial {
    /// Distance per local vertex id.  Outer-copy distances are valid upper
    /// bounds, so Assemble can merge everything with `min`.
    dist: Vec<f64>,
}

/// The SSSP PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sssp;

/// Border locals an incremental step lowered or reset, each with the value
/// it held before (a local may appear more than once; its first entry
/// carries the original value) — what [`Sssp::send_changed`] ships.
type Changes = Vec<(LocalId, f64)>;

/// A retained cell: `(fragment, local id)`.
type Cell = (usize, LocalId);

impl Sssp {
    /// Local Dijkstra continuation: relaxes edges starting from the given
    /// seed heap until exhaustion (the tail of PEval and of every
    /// incremental step).  With `changes`, every border local it lowers is
    /// recorded with its previous value.
    fn relax(
        frag: &Fragment,
        dist: &mut [f64],
        mut heap: BinaryHeap<MinDist<u32>>,
        mut changes: Option<&mut Changes>,
    ) {
        while let Some(MinDist { dist: d, vertex: u }) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for n in frag.out_edges(u) {
                let t = n.target as u32;
                let alt = d + n.weight;
                if alt < dist[t as usize] {
                    if let Some(changes) = changes.as_deref_mut() {
                        if frag.is_border(t) {
                            changes.push((t, dist[t as usize]));
                        }
                    }
                    dist[t as usize] = alt;
                    heap.push(MinDist {
                        dist: alt,
                        vertex: t,
                    });
                }
            }
        }
    }

    /// Lowers `dist[l]` to `d` when that improves it: records a border
    /// local's previous value and queues `l` for [`Sssp::relax`].
    fn lower(
        frag: &Fragment,
        dist: &mut [f64],
        l: LocalId,
        d: f64,
        heap: &mut BinaryHeap<MinDist<u32>>,
        changes: &mut Changes,
    ) {
        if d < dist[l as usize] {
            if frag.is_border(l) {
                changes.push((l, dist[l as usize]));
            }
            dist[l as usize] = d;
            heap.push(MinDist { dist: d, vertex: l });
        }
    }

    /// Sends every finite border distance — the message segment of PEval
    /// and of a reseed.  The inner border is included as well so that
    /// vertex-cut partitions (where a shared vertex's edges are spread over
    /// several fragments) stay consistent; under edge-cut those values have
    /// no destination and are dropped for free by the router.
    fn send_border(frag: &Fragment, dist: &[f64], ctx: &mut Messages<VertexId, f64>) {
        for &l in frag
            .out_border_locals()
            .iter()
            .chain(frag.in_border_locals())
        {
            let d = dist[l as usize];
            if d.is_finite() {
                ctx.send(frag.global_of(l), d);
            }
        }
    }

    /// Sends the border distances an incremental step changed — the
    /// message segment `M_i = {dist(s, v) | v ∈ F_i.O ∪ F_i.I, dist
    /// changed}` — in ascending local order, one send per local.
    fn send_changed(
        frag: &Fragment,
        dist: &[f64],
        mut changes: Changes,
        ctx: &mut Messages<VertexId, f64>,
    ) {
        // Stable sort: each local's first entry, its original value, stays
        // in front of later ones and survives the dedup.
        changes.sort_by_key(|&(l, _)| l);
        changes.dedup_by_key(|&mut (l, _)| l);
        for (l, before) in changes {
            let d = dist[l as usize];
            if d.is_finite() && d != before {
                ctx.send(frag.global_of(l), d);
            }
        }
    }

    /// The retained distances of `old_frag`'s partial re-indexed onto the
    /// rebuilt `new_frag` by global id; vertices new to the fragment start
    /// at `∞`.  The partial is stored in `old_frag`'s local order, so
    /// `old_frag`'s own index does the lookup.
    fn remap(old_frag: &Fragment, new_frag: &Fragment, partial: &SsspPartial) -> SsspPartial {
        debug_assert_eq!(partial.dist.len(), old_frag.num_local());
        let dist = new_frag
            .all_locals()
            .map(|l| {
                old_frag
                    .local_of(new_frag.global_of(l))
                    .map_or(INF, |o| partial.dist[o as usize])
            })
            .collect();
        SsspPartial { dist }
    }

    /// Every finite `(vertex, distance)` cell of the partials, owners and
    /// outer copies alike, named through `frag`.
    fn cells<'a>(
        frag: &'a Fragmentation,
        partials: &'a [SsspPartial],
    ) -> impl Iterator<Item = (VertexId, f64)> + Clone + 'a {
        debug_assert_eq!(partials.len(), frag.num_fragments());
        frag.fragments().iter().zip(partials).flat_map(|(f, p)| {
            debug_assert_eq!(p.dist.len(), f.num_local());
            (0..)
                .zip(&p.dist)
                .map(|(l, &d)| (f.global_of(l), d))
                .filter(|(_, d)| d.is_finite())
        })
    }

    /// Queues both endpoints of every inserted local edge at their current
    /// (finite) distance: the new adjacency, which includes those edges,
    /// does the rest of the relaxation.
    fn push_inserted(
        frag: &Fragment,
        dist: &[f64],
        inserted: &[Edge],
        heap: &mut BinaryHeap<MinDist<u32>>,
    ) {
        for e in inserted {
            for v in [e.src, e.dst] {
                if let Some(l) = frag.local_of(v) {
                    let d = dist[l as usize];
                    if d.is_finite() {
                        heap.push(MinDist { dist: d, vertex: l });
                    }
                }
            }
        }
    }

    /// The retracted set `A` of a deletion over the retained state `old` /
    /// `partials`: every cell a removed **tight** edge `u → v` fed
    /// (`dist[u] + w == dist[v]` in `u`'s fragment, old weight), closed
    /// under tight out-edges within a fragment and under "a retracted outer
    /// copy whose owner holds the same value retracts the owner's cell"
    /// (the owner may have taken its value from that copy).  Source cells
    /// are never retracted: every copy of the source is `0` by definition.
    ///
    /// A cell outside `A` keeps a witness chain back to the source that
    /// avoids every removed edge, so its retained value is still achievable
    /// after the delta: resetting `A` leaves only valid upper bounds, and
    /// relaxation from there converges to the exact fixpoint.
    fn retraction_set(
        query: &SsspQuery,
        old: &Fragmentation,
        delta: &GraphDelta,
        partials: &[SsspPartial],
    ) -> Vec<Cell> {
        let mut seen: HashSet<Cell> = HashSet::new();
        let mut set: Vec<Cell> = Vec::new();
        let retract = |(i, l): Cell, seen: &mut HashSet<Cell>, set: &mut Vec<Cell>| {
            if old.fragment(i).global_of(l) != query.source && seen.insert((i, l)) {
                set.push((i, l));
            }
        };
        // An undirected edge lives in both endpoints' fragments.
        let orientations = if old.is_directed() { 1 } else { 2 };
        for &(s, d) in delta.removed_edges() {
            for (a, b) in [(s, d), (d, s)].into_iter().take(orientations) {
                let i = old.gp().owner(a);
                let f = old.fragment(i);
                let dist = &partials[i].dist;
                let Some(la) = f.local_of(a) else { continue };
                let da = dist[la as usize];
                if !da.is_finite() {
                    continue;
                }
                for n in f.out_edges(la) {
                    let t = n.target as LocalId;
                    if f.global_of(t) == b && da + n.weight == dist[t as usize] {
                        retract((i, t), &mut seen, &mut set);
                    }
                }
            }
        }
        let mut next = 0;
        while next < set.len() {
            let (i, l) = set[next];
            next += 1;
            let f = old.fragment(i);
            let dist = &partials[i].dist;
            let d = dist[l as usize];
            if f.is_inner(l) {
                for n in f.out_edges(l) {
                    if d + n.weight == dist[n.target as usize] {
                        retract((i, n.target as LocalId), &mut seen, &mut set);
                    }
                }
            } else {
                let v = f.global_of(l);
                let o = old.gp().owner(v);
                if let Some(lo) = old.fragment(o).local_of(v) {
                    if partials[o].dist[lo as usize] == d {
                        retract((o, lo), &mut seen, &mut set);
                    }
                }
            }
        }
        set
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
        Self::relax(frag, &mut dist, heap, None);
        Self::send_border(frag, &dist, ctx);
        SsspPartial { dist }
    }

    fn inc_eval(
        &self,
        _query: &SsspQuery,
        frag: &Fragment,
        partial: &mut SsspPartial,
        messages: &[(VertexId, f64)],
        ctx: &mut Messages<VertexId, f64>,
    ) {
        let mut changes = Changes::new();
        let mut heap = BinaryHeap::new();
        for &(v, d) in messages {
            if let Some(l) = frag.local_of(v) {
                Self::lower(frag, &mut partial.dist, l, d, &mut heap, &mut changes);
            }
        }
        if heap.is_empty() {
            return;
        }
        Self::relax(frag, &mut partial.dist, heap, Some(&mut changes));
        Self::send_changed(frag, &partial.dist, changes, ctx);
    }

    fn assemble(
        &self,
        _query: &SsspQuery,
        frag: &Fragmentation,
        partials: Vec<SsspPartial>,
    ) -> SsspResult {
        let mut distances: HashMap<VertexId, f64> = HashMap::new();
        // Every locally computed distance is an upper bound on the true
        // shortest distance, and the owning fragment holds the exact value
        // at the fixpoint, so merging with `min` is correct.
        for (v, d) in Self::cells(frag, &partials) {
            distances
                .entry(v)
                .and_modify(|existing| *existing = existing.min(d))
                .or_insert(d);
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
    /// variables cannot express; edge removals go to [`Sssp::retract`].
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
        old_frag: &Fragment,
        new_frag: &Fragment,
        partial: SsspPartial,
        delta: &FragmentDelta,
    ) -> (SsspPartial, Vec<(VertexId, f64)>) {
        let mut partial = Self::remap(old_frag, new_frag, &partial);
        let mut changes = Changes::new();
        let mut heap = BinaryHeap::new();
        // A newly local copy of the source (new vertex, or fresh outer copy)
        // anchors at distance 0, exactly as PEval would.
        if let Some(sl) = new_frag.local_of(query.source) {
            Self::lower(
                new_frag,
                &mut partial.dist,
                sl,
                0.0,
                &mut heap,
                &mut changes,
            );
        }
        Self::push_inserted(new_frag, &partial.dist, &delta.added_edges, &mut heap);
        Self::relax(new_frag, &mut partial.dist, heap, Some(&mut changes));

        let mut msgs = Messages::new();
        Self::send_changed(new_frag, &partial.dist, changes, &mut msgs);
        (partial, msgs.take())
    }

    /// Retracts the shortest-path subtree of every removed tight edge
    /// (`Sssp::retraction_set`) over the retained partials, which live on
    /// the coordinator under every host:
    ///
    /// 1. rebuilt fragments are remapped onto their new structure, and the
    ///    retracted cells are reset to `∞` (the source stays `0`);
    /// 2. each touched fragment re-relaxes from the non-retracted
    ///    in-neighbours of its reset cells (in-CSR), from the outer copies
    ///    other fragments hold of its reset inner vertices, and from both
    ///    endpoints of every inserted local edge;
    /// 3. every finite border value that now differs from its value before
    ///    the retraction is shipped — for a reset cell, any finite value:
    ///    the owner it feeds may have been reset as well, and fragments are
    ///    re-relaxed one after another — and IncEval finishes the fixpoint.
    ///
    /// Every finite cell value is an achievable distance of the new graph
    /// throughout, so over-retracting only costs work.  A removal on no
    /// shortest path retracts nothing and costs the remap; a tight one
    /// costs `O(|A| + its boundary)`.  Vertex removals are declined.
    fn retract(
        &self,
        query: &SsspQuery,
        old: &Fragmentation,
        applied: &DeltaApplication,
        delta: &GraphDelta,
        partials: &mut [SsspPartial],
    ) -> Option<Retraction<Self>> {
        if !delta.removed_vertices().is_empty() {
            return None;
        }
        let new = &applied.fragmentation;
        let cells = Self::retraction_set(query, old, delta, partials);

        // 1. Remap the rebuilt fragments, then reset the retracted cells.
        let m = new.num_fragments();
        let mut touched = vec![false; m];
        let mut rebuilt = vec![false; m];
        let mut inserted: Vec<&[Edge]> = vec![&[]; m];
        for fd in &applied.affected {
            let i = fd.fragment;
            partials[i] = Self::remap(old.fragment(i), new.fragment(i), &partials[i]);
            touched[i] = true;
            rebuilt[i] = true;
            inserted[i] = &fd.added_edges;
        }
        let mut reset: Vec<Vec<LocalId>> = vec![Vec::new(); m];
        let mut changes: Vec<Changes> = vec![Changes::new(); m];
        for &(i, l) in &cells {
            let f = new.fragment(i);
            let l = if rebuilt[i] {
                // A copy the delta dropped from the fragment is gone.
                match f.local_of(old.fragment(i).global_of(l)) {
                    Some(l) => l,
                    None => continue,
                }
            } else {
                l
            };
            // A reset border cell ships whatever finite value it ends with,
            // even its old one: the owner it feeds may have been reset too.
            if f.is_border(l) {
                changes[i].push((l, INF));
            }
            partials[i].dist[l as usize] = INF;
            reset[i].push(l);
            touched[i] = true;
        }

        // 2–3. Re-relax every touched fragment and collect its sends.
        let mut seeds = Vec::new();
        for i in (0..m).filter(|&i| touched[i]) {
            let f = new.fragment(i);
            let mut lows: Vec<(LocalId, f64)> = Vec::new();
            if let Some(sl) = f.local_of(query.source) {
                lows.push((sl, 0.0));
            }
            for &l in &reset[i] {
                let dist = &partials[i].dist;
                let mut best = f
                    .in_edges(l)
                    .iter()
                    .map(|n| dist[n.target as usize] + n.weight)
                    .fold(INF, f64::min);
                if f.is_inner(l) {
                    let v = f.global_of(l);
                    for &k in new.gp().outer_holders(v) {
                        let k = k as usize;
                        if k == i {
                            continue;
                        }
                        if let Some(lk) = new.fragment(k).local_of(v) {
                            best = best.min(partials[k].dist[lk as usize]);
                        }
                    }
                }
                if best.is_finite() {
                    lows.push((l, best));
                }
            }
            let mut heap = BinaryHeap::new();
            let dist = &mut partials[i].dist;
            let mut changed = std::mem::take(&mut changes[i]);
            for (l, d) in lows {
                Self::lower(f, dist, l, d, &mut heap, &mut changed);
            }
            Self::push_inserted(f, dist, inserted[i], &mut heap);
            Self::relax(f, dist, heap, Some(&mut changed));
            let mut msgs = Messages::new();
            Self::send_changed(f, dist, changed, &mut msgs);
            let sends = msgs.take();
            if !sends.is_empty() {
                seeds.push((i, sends));
            }
        }
        Some(Retraction {
            seeds,
            retracted: cells.len(),
        })
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
        Self::send_border(frag, &partial.dist, &mut msgs);
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
        frag: &Fragmentation,
        previous: &[(VertexId, f64)],
        partials: &[SsspPartial],
    ) -> Option<OutputDelta<VertexId, f64>> {
        diff_min_rows(previous, INF, Self::cells(frag, partials))
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

    fn assert_matches_dijkstra(prepared: &grape_core::prepared::PreparedQuery<Sssp>, tag: &str) {
        let source = prepared.query().source;
        let expected = dijkstra(prepared.fragmentation().source(), source);
        let output = prepared.output();
        for (v, d) in expected.iter().enumerate() {
            match output.distance(v as VertexId) {
                Some(got) => assert_eq!(got.to_bits(), d.to_bits(), "vertex {v} ({tag})"),
                None => assert!(!d.is_finite(), "vertex {v} expected {d} ({tag})"),
            }
        }
    }

    #[test]
    fn prepared_update_retracts_on_deletion() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        let g = road_grid(6, 6, 9);
        let frag = HashEdgeCut::new(2).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let mut prepared = session.prepare(frag, Sssp, SsspQuery::new(0)).unwrap();
        let e = g.edges()[0];
        let report = prepared
            .update(&GraphDelta::new().remove_edge(e.src, e.dst))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Retracted);
        assert!(report.incremental, "a retraction runs no PEval");
        assert_eq!(report.metrics.peval_calls, 0);
        assert_eq!(prepared.retracted_updates(), 1);
        assert_matches_dijkstra(&prepared, "after the removal");
    }

    /// Weighted path 0 → 1 → … → 11 over four range fragments of 3.
    fn weighted_path() -> grape_partition::fragment::Fragmentation {
        use grape_graph::builder::GraphBuilder;
        use grape_partition::edge_cut::RangeEdgeCut;

        let mut b = GraphBuilder::directed();
        for v in 0..11u64 {
            b.push_edge(grape_graph::types::Edge::weighted(v, v + 1, 1.0 + v as f64));
        }
        RangeEdgeCut::new(4).partition(&b.build()).unwrap()
    }

    #[test]
    fn localized_deletion_retracts_only_the_downstream_subtree() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        // Deleting the fragment-local edge 4 → 5 retracts the subtree it
        // fed: 5's cell and the copy of 6 in fragment 1, then every cell
        // of 6..=11 downstream (owners and copies) — 9 cells, no PEval.
        let session = GrapeSession::with_workers(2);
        let mut prepared = session
            .prepare(weighted_path(), Sssp, SsspQuery::new(0))
            .unwrap();
        let report = prepared
            .update(&GraphDelta::new().remove_edge(4, 5))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Retracted);
        assert_eq!(report.rebuilt, vec![1], "the edge is local to fragment 1");
        assert!(report.repeval.is_empty());
        assert_eq!(report.metrics.peval_calls, 0);
        assert_eq!(report.retracted, 9);
        assert_matches_dijkstra(&prepared, "after the cut");
        // The cut really disconnects 5..12.
        assert_eq!(prepared.output().distance(6), None);

        // An edge on no shortest path (a parallel detour) retracts nothing.
        let report = prepared
            .update(&GraphDelta::new().add_weighted_edge(0, 2, 50.0))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Monotone);
        let report = prepared
            .update(&GraphDelta::new().remove_edge(0, 2))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Retracted);
        assert_eq!(report.retracted, 0);
        assert_matches_dijkstra(&prepared, "after the detour");
    }

    /// SSSP declines vertex removals: they take the bounded refresh, which
    /// re-roots only the message-flow closure of the damage.
    #[test]
    fn vertex_removal_takes_the_bounded_refresh() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        let session = GrapeSession::with_workers(2);
        let mut prepared = session
            .prepare(weighted_path(), Sssp, SsspQuery::new(0))
            .unwrap();
        let report = prepared
            .update(&GraphDelta::new().remove_vertex(5))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded);
        assert_eq!(report.rebuilt, vec![1, 2], "F2 loses its in-border 6");
        assert_eq!(report.repeval, vec![1, 2, 3]);
        assert_eq!(report.metrics.peval_calls, 3, "3 of 4 fragments re-rooted");
        assert_eq!(report.retracted, 0);
        assert_eq!(prepared.bounded_updates(), 1);
        assert_matches_dijkstra(&prepared, "after the detach");
        assert_eq!(prepared.output().distance(6), None);
    }

    /// A seeded weighted graph with zero-weight edges: directed, or the
    /// undirected view of the same edges.
    fn arb_weighted(seed: u64, directed: bool) -> grape_graph::graph::Graph {
        use grape_graph::builder::GraphBuilder;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(seed);
        let n = 40u64;
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        }
        .ensure_vertices(n as usize);
        for _ in 0..110 {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s != d {
                let w = rng.gen_range(0u32..4) as f64;
                b.push_edge(grape_graph::types::Edge::weighted(s, d, w));
            }
        }
        b.build()
    }

    /// Retraction soundness: the retracted set covers the owner cell of
    /// every vertex whose Dijkstra distance rose, over seeded Hash and
    /// MetisLike cuts of directed and undirected graphs with zero-weight
    /// edges — for random removals, removals incident to the source and
    /// removals of cross edges — and the refreshed answer is Dijkstra's.
    #[test]
    fn retraction_set_covers_every_vertex_whose_distance_rose() {
        use grape_graph::delta::GraphDelta;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rose = 0;
        for seed in 0..12u64 {
            let directed = seed % 2 == 0;
            let g = arb_weighted(seed, directed);
            let frag = if seed % 4 < 2 {
                HashEdgeCut::new(3).partition(&g).unwrap()
            } else {
                MetisLike::new(3).partition(&g).unwrap()
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let source = rng.gen_range(0..g.num_vertices() as u64);
            let query = SsspQuery::new(source);
            let mut prepared = GrapeSession::with_workers(2)
                .prepare(frag, Sssp, query)
                .unwrap();
            for round in 0..6 {
                let old = prepared.fragmentation().clone();
                let edges = old.source().edges();
                let pick = |want: &dyn Fn(&grape_graph::types::Edge) -> bool, rng: &mut StdRng| {
                    let hits: Vec<_> = edges.iter().filter(|e| want(e)).collect();
                    (!hits.is_empty()).then(|| *hits[rng.gen_range(0..hits.len() as u64) as usize])
                };
                let owner = |v: VertexId| old.gp().owner(v);
                let mut delta = GraphDelta::new();
                for e in [
                    pick(&|_| true, &mut rng),
                    pick(&|e| e.src == source || e.dst == source, &mut rng),
                    pick(&|e| owner(e.src) != owner(e.dst), &mut rng),
                ]
                .into_iter()
                .flatten()
                .take(1 + round % 3)
                {
                    if !delta.removed_edges().contains(&(e.src, e.dst))
                        && !delta.removed_edges().contains(&(e.dst, e.src))
                    {
                        delta = delta.remove_edge(e.src, e.dst);
                    }
                }
                let tag = format!("seed {seed} round {round} directed {directed}");
                let cells: HashSet<Cell> =
                    Sssp::retraction_set(&query, &old, &delta, prepared.partials())
                        .into_iter()
                        .collect();
                let before = dijkstra(old.source(), source);
                let after = dijkstra(&old.source().apply_delta(&delta).unwrap(), source);
                for v in 0..before.len() {
                    if after[v] > before[v] {
                        rose += 1;
                        let o = owner(v as VertexId);
                        let l = old.fragment(o).local_of(v as VertexId).unwrap();
                        assert!(cells.contains(&(o, l)), "vertex {v} rose ({tag})");
                    }
                }
                let report = prepared.update(&delta).unwrap();
                assert_eq!(report.kind, grape_core::prepared::RefreshKind::Retracted);
                assert_eq!(report.retracted, cells.len(), "{tag}");
                assert_matches_dijkstra(&prepared, &tag);
            }
        }
        assert!(rose > 20, "the removals must lengthen real paths ({rose})");
    }

    /// The path `diff_output` must agree with: assemble, canonicalize,
    /// `diff_sorted`.
    fn reference_diff(
        frag: &Fragmentation,
        previous: &[(VertexId, f64)],
        partials: &[SsspPartial],
    ) -> OutputDelta<VertexId, f64> {
        let query = SsspQuery::new(0);
        let next = Sssp.canonical(&query, &Sssp.assemble(&query, frag, partials.to_vec()));
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
                let (frag, partials) = (prepared.fragmentation(), prepared.partials());
                let fast = Sssp
                    .diff_output(&query, frag, &previous, partials)
                    .expect("dense vertex ids take the fast path");
                assert_eq!(fast, reference_diff(frag, &previous, partials));
                apply_sorted(&mut previous, &fast);
                assert_eq!(previous, prepared.canonical_rows().unwrap());
            }
        }
    }

    /// Hand-written distances over a real fragmentation of 13 vertices:
    /// fragment 0 owns 0, 1 and 4 and holds an outer copy of 9; fragment 1
    /// owns the rest and holds an outer copy of 4.  The sparse-id decline
    /// is pinned on `util::diff_min_rows` itself: no fragmentation of a
    /// graph this size names such ids.
    #[test]
    fn diff_output_takes_the_owner_minimum() {
        use grape_graph::builder::GraphBuilder;
        use grape_graph::types::Edge;
        use grape_partition::fragment::build_edge_cut;

        let mut b = GraphBuilder::directed().ensure_vertices(13);
        for (s, d) in [(0, 1), (1, 9), (9, 4), (9, 12)] {
            b.push_edge(Edge::weighted(s, d, 1.0));
        }
        let assignment: Vec<u32> = (0..13)
            .map(|v| u32::from(![0, 1, 4].contains(&v)))
            .collect();
        let frag = build_edge_cut(&std::sync::Arc::new(b.build()), &assignment, 2, "fixed");
        let partial = |i: usize, cells: &[(VertexId, f64)]| {
            let f = frag.fragment(i);
            let mut dist = vec![INF; f.num_local()];
            for &(v, d) in cells {
                dist[f.local_of(v).expect("the fragment holds v") as usize] = d;
            }
            SsspPartial { dist }
        };
        assert!(!frag
            .fragment(0)
            .is_inner(frag.fragment(0).local_of(9).unwrap()));
        assert!(!frag
            .fragment(1)
            .is_inner(frag.fragment(1).local_of(4).unwrap()));
        let query = SsspQuery::new(0);
        let partials = vec![
            // The outer copy of 9 holds a locally derived distance worse
            // than its owner's.
            partial(0, &[(0, 0.0), (1, 2.0), (4, INF), (9, 7.5)]),
            // The outer copy of 4 is unreached too, so 4 drops out of the
            // answer.
            partial(1, &[(9, 3.0), (4, INF), (12, 4.0)]),
        ];
        // 20 lies past every id the fragmentation names.
        let previous = vec![(0, 0.0), (1, 2.5), (4, 1.0), (20, 9.0)];
        let fast = Sssp
            .diff_output(&query, &frag, &previous, &partials)
            .unwrap();
        assert_eq!(fast.changed, vec![(1, 2.0), (9, 3.0), (12, 4.0)]);
        assert_eq!(fast.removed, vec![4, 20]);
        assert_eq!(fast, reference_diff(&frag, &previous, &partials));

        // Nothing reached: every previous row is removed.
        let unreached = vec![partial(0, &[]), partial(1, &[])];
        let nothing = Sssp
            .diff_output(&query, &frag, &previous, &unreached)
            .unwrap();
        assert!(nothing.changed.is_empty());
        assert_eq!(nothing, reference_diff(&frag, &previous, &unreached));
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
