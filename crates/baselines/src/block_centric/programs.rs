//! Block programs (Blogel-style B-compute) for the five query classes.
//!
//! The programs mirror their GRAPE counterparts but without incremental
//! evaluation: every superstep re-runs the batch computation over the whole
//! block, seeded with the border values received so far.  SubIso, whose
//! Blogel version exchanges neighborhoods rather than iterating, is provided
//! as the standalone runner [`run_block_subiso`].

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use parking_lot::Mutex;

use grape_core::engine::EngineError;
use grape_core::metrics::{EngineMetrics, SuperstepMetrics};
use grape_graph::pattern::Pattern;
use grape_graph::types::VertexId;
use grape_partition::fragment::{Expansion, Fragment, Fragmentation};

use grape_algorithms::cf::sequential::{initial_factors, sgd_step, CfModel};
use grape_algorithms::cf::CfQuery;
use grape_algorithms::sim::pie::{
    assemble_relation, compute_cnt, init_sim, initial_violations, propagate,
};
use grape_algorithms::sim::SimQuery;
use grape_algorithms::sssp::SsspQuery;
use grape_algorithms::subiso::vf2::subgraph_isomorphism_filtered;

use super::adapter::{BlockContext, BlockProgram, BlockRouting};

/// Sends `value` for border vertex `l`, once per incident local cross edge
/// (block messages travel per edge, as in Blogel's V/B-compute model).
fn send_per_cross_edge<M: Clone>(frag: &Fragment, l: u32, value: M, ctx: &mut BlockContext<M>) {
    let copies = frag.in_edges(l).len().max(1);
    let v = frag.global_of(l);
    for _ in 0..copies {
        ctx.send(v, value.clone());
    }
}

/// Every `(vertex, value)` cell of per-block value vectors, one per
/// fragment of `frag` in its local order, named through `frag`.
fn cells<'a, T: 'a>(
    frag: &'a Fragmentation,
    states: Vec<Vec<T>>,
) -> impl Iterator<Item = (VertexId, T)> + 'a {
    frag.fragments().iter().zip(states).flat_map(|(f, values)| {
        debug_assert_eq!(values.len(), f.num_local());
        (0..).zip(values).map(|(l, value)| (f.global_of(l), value))
    })
}

/// The smallest value of each vertex's cells: owners and outer copies
/// alike hold upper bounds, and the owner's is exact at the fixpoint.
fn min_by_vertex<T: Copy + PartialOrd>(
    cells: impl Iterator<Item = (VertexId, T)>,
) -> HashMap<VertexId, T> {
    let mut out = HashMap::new();
    for (v, x) in cells {
        let min = out.entry(v).or_insert(x);
        if x < *min {
            *min = x;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

/// Blogel-style SSSP: every superstep re-runs Dijkstra over the whole block
/// seeded with all currently known distances.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockSssp;

impl BlockProgram for BlockSssp {
    type Query = SsspQuery;
    type BlockState = Vec<f64>;
    type Message = f64;
    type Output = HashMap<VertexId, f64>;

    fn name(&self) -> &str {
        "block-centric-sssp"
    }

    fn init(&self, query: &SsspQuery, frag: &Fragment) -> Self::BlockState {
        let mut dist = vec![f64::INFINITY; frag.num_local()];
        if let Some(l) = frag.local_of(query.source) {
            dist[l as usize] = 0.0;
        }
        dist
    }

    fn compute(
        &self,
        _query: &SsspQuery,
        frag: &Fragment,
        dist: &mut Self::BlockState,
        messages: &[(VertexId, f64)],
        ctx: &mut BlockContext<f64>,
    ) {
        let before = dist.clone();
        for (v, d) in messages {
            if let Some(l) = frag.local_of(*v) {
                if *d < dist[l as usize] {
                    dist[l as usize] = *d;
                }
            }
        }
        // Batch recomputation: full multi-source Dijkstra over the block.
        let mut heap = std::collections::BinaryHeap::new();
        for l in frag.all_locals() {
            if dist[l as usize].is_finite() {
                heap.push(grape_algorithms::util::MinDist {
                    dist: dist[l as usize],
                    vertex: l,
                });
            }
        }
        while let Some(grape_algorithms::util::MinDist { dist: d, vertex: u }) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for n in frag.out_edges(u) {
                let t = n.target as u32;
                let alt = d + n.weight;
                if alt < dist[t as usize] {
                    dist[t as usize] = alt;
                    heap.push(grape_algorithms::util::MinDist {
                        dist: alt,
                        vertex: t,
                    });
                }
            }
        }
        for &l in frag.out_border_locals() {
            if dist[l as usize] < before[l as usize] {
                send_per_cross_edge(frag, l, dist[l as usize], ctx);
            }
        }
    }

    fn output(&self, _: &SsspQuery, frag: &Fragmentation, states: Vec<Vec<f64>>) -> Self::Output {
        min_by_vertex(cells(frag, states).filter(|(_, d)| d.is_finite()))
    }
}

// ---------------------------------------------------------------------------
// CC
// ---------------------------------------------------------------------------

/// Blogel-style CC: full local label propagation each superstep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCc;

impl BlockProgram for BlockCc {
    type Query = ();
    type BlockState = Vec<VertexId>;
    type Message = VertexId;
    type Output = HashMap<VertexId, VertexId>;

    fn name(&self) -> &str {
        "block-centric-cc"
    }

    fn init(&self, _q: &(), frag: &Fragment) -> Self::BlockState {
        frag.all_locals().map(|l| frag.global_of(l)).collect()
    }

    fn compute(
        &self,
        _q: &(),
        frag: &Fragment,
        cids: &mut Self::BlockState,
        messages: &[(VertexId, VertexId)],
        ctx: &mut BlockContext<VertexId>,
    ) {
        let before = cids.clone();
        for (v, cid) in messages {
            if let Some(l) = frag.local_of(*v) {
                if *cid < cids[l as usize] {
                    cids[l as usize] = *cid;
                }
            }
        }
        // Batch recomputation: propagate minima over the whole block.
        let mut changed = true;
        while changed {
            changed = false;
            for l in frag.all_locals() {
                let mine = cids[l as usize];
                for n in frag.out_edges(l) {
                    let t = n.target as usize;
                    if mine < cids[t] {
                        cids[t] = mine;
                        changed = true;
                    } else if cids[t] < mine {
                        cids[l as usize] = cids[t];
                        changed = true;
                    }
                }
            }
        }
        for &l in frag.out_border_locals() {
            if cids[l as usize] < before[l as usize] {
                send_per_cross_edge(frag, l, cids[l as usize], ctx);
            }
        }
    }

    fn output(&self, _q: &(), frag: &Fragmentation, states: Vec<Self::BlockState>) -> Self::Output {
        min_by_vertex(cells(frag, states))
    }
}

// ---------------------------------------------------------------------------
// Sim
// ---------------------------------------------------------------------------

/// Blogel-style graph simulation: every superstep the block recomputes its
/// simulation relation from scratch with the accumulated border knowledge.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockSim;

/// State of [`BlockSim`].
#[derive(Debug, Clone)]
pub struct BlockSimState {
    received_false: HashSet<(u32, u32)>,
    sent: HashSet<(u32, u32)>,
    sim: Vec<Vec<bool>>,
}

impl BlockProgram for BlockSim {
    type Query = SimQuery;
    type BlockState = BlockSimState;
    type Message = (u32, bool);
    type Output = Vec<Vec<VertexId>>;

    fn name(&self) -> &str {
        "block-centric-sim"
    }

    fn routing(&self) -> BlockRouting {
        BlockRouting::OuterHolders
    }

    fn init(&self, query: &SimQuery, frag: &Fragment) -> BlockSimState {
        BlockSimState {
            received_false: HashSet::new(),
            sent: HashSet::new(),
            sim: vec![vec![false; frag.num_local()]; query.pattern.num_nodes()],
        }
    }

    fn compute(
        &self,
        query: &SimQuery,
        frag: &Fragment,
        state: &mut BlockSimState,
        messages: &[(VertexId, (u32, bool))],
        ctx: &mut BlockContext<(u32, bool)>,
    ) {
        let pattern = &query.pattern;
        for (v, (u, value)) in messages {
            if *value {
                continue;
            }
            if let Some(l) = frag.local_of(*v) {
                state.received_false.insert((*u, l));
            }
        }
        // Full recomputation with the accumulated knowledge.
        let mut sim = init_sim(frag, pattern, false);
        let mut seeds = Vec::new();
        for &(u, l) in &state.received_false {
            if sim[u as usize][l as usize] {
                sim[u as usize][l as usize] = false;
                seeds.push((u, l));
            }
        }
        let mut cnt = compute_cnt(frag, pattern, &sim);
        let in_border: HashSet<u32> = frag.in_border_locals().iter().copied().collect();
        let mut worklist = initial_violations(frag, pattern, &mut sim, &cnt);
        worklist.extend(seeds);
        propagate(frag, pattern, &mut sim, &mut cnt, worklist, &in_border);
        state.sim = sim;
        for &l in frag.in_border_locals() {
            for u in 0..pattern.num_nodes() as u32 {
                if frag.label(l) == pattern.label(u)
                    && !state.sim[u as usize][l as usize]
                    && state.sent.insert((u, l))
                {
                    ctx.send(frag.global_of(l), (u, false));
                }
            }
        }
    }

    fn output(
        &self,
        query: &SimQuery,
        frag: &Fragmentation,
        states: Vec<BlockSimState>,
    ) -> Vec<Vec<VertexId>> {
        let sims = states.iter().map(|s| s.sim.as_slice());
        assemble_relation(frag, query.pattern.num_nodes(), sims)
    }

    fn message_size(&self, _message: &(u32, bool)) -> usize {
        5
    }
}

// ---------------------------------------------------------------------------
// CF
// ---------------------------------------------------------------------------

/// Blogel-style CF: full local SGD epoch per superstep, all border factor
/// vectors exchanged every round.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockCf;

/// State of [`BlockCf`].
#[derive(Debug, Clone)]
pub struct BlockCfState {
    factors: Vec<Vec<f64>>,
    epoch: usize,
}

impl BlockProgram for BlockCf {
    type Query = CfQuery;
    type BlockState = BlockCfState;
    type Message = Vec<f64>;
    type Output = CfModel;

    fn name(&self) -> &str {
        "block-centric-cf"
    }

    fn routing(&self) -> BlockRouting {
        BlockRouting::All
    }

    fn init(&self, query: &CfQuery, frag: &Fragment) -> BlockCfState {
        BlockCfState {
            factors: frag
                .all_locals()
                .map(|l| initial_factors(frag.global_of(l), query.num_factors))
                .collect(),
            epoch: 0,
        }
    }

    fn compute(
        &self,
        query: &CfQuery,
        frag: &Fragment,
        state: &mut BlockCfState,
        messages: &[(VertexId, Vec<f64>)],
        ctx: &mut BlockContext<Vec<f64>>,
    ) {
        for (v, factors) in messages {
            if let Some(l) = frag.local_of(*v) {
                state.factors[l as usize] = factors.clone();
            }
        }
        if state.epoch >= query.epochs {
            return;
        }
        state.epoch += 1;
        for l in frag.inner_locals() {
            for n in frag.out_edges(l) {
                let mut user = state.factors[l as usize].clone();
                let item = &mut state.factors[n.target as usize];
                sgd_step(
                    &mut user,
                    item,
                    n.weight,
                    query.learning_rate,
                    query.regularization,
                );
                state.factors[l as usize] = user;
            }
        }
        if state.epoch < query.epochs {
            let mut border: Vec<u32> = frag.out_border_locals().to_vec();
            border.extend_from_slice(frag.in_border_locals());
            border.sort_unstable();
            border.dedup();
            for l in border {
                send_per_cross_edge(frag, l, state.factors[l as usize].clone(), ctx);
            }
        }
    }

    fn output(&self, _query: &CfQuery, frag: &Fragmentation, states: Vec<BlockCfState>) -> CfModel {
        let mut factors = HashMap::new();
        for (v, f) in cells(frag, states.into_iter().map(|s| s.factors).collect()) {
            factors.entry(v).or_insert(f);
        }
        CfModel::new(factors)
    }

    fn message_size(&self, message: &Vec<f64>) -> usize {
        message.len() * std::mem::size_of::<f64>()
    }
}

// ---------------------------------------------------------------------------
// SubIso (standalone runner)
// ---------------------------------------------------------------------------

/// Blogel-style subgraph isomorphism: every block receives the full
/// `d_Q`-neighborhood of its border — the label-oblivious exchange
/// (`labels: None`), where GRAPE ships only pattern-labelled vertices —
/// counted as communication, and enumerates every match containing *any*
/// of its inner vertices, leaving duplicate elimination to the coordinator.
/// The extra enumeration and shipping is what makes it slower than the
/// GRAPE program.  A disconnected pattern is refused with
/// [`EngineError::InvalidConfig`], as GRAPE's SubIso refuses it: its
/// components can match arbitrarily far apart, beyond any `d_Q`
/// neighbourhood.
pub fn run_block_subiso(
    fragmentation: &Fragmentation,
    pattern: &Pattern,
    max_matches_per_block: usize,
    workers: usize,
) -> Result<(Vec<Vec<VertexId>>, EngineMetrics), EngineError> {
    if !pattern.is_connected() {
        return Err(EngineError::InvalidConfig(format!(
            "block-centric subiso pattern with labels {:?} and edges {:?} is not connected",
            pattern.labels(),
            pattern.edges()
        )));
    }
    let start = Instant::now();
    let m = fragmentation.num_fragments();
    let mut metrics = EngineMetrics {
        program: "block-centric-subiso".to_string(),
        workers,
        fragments: m,
        ..Default::default()
    };
    let exchange = Expansion {
        hops: pattern.diameter(),
        labels: None,
    };
    let mut expanded = Vec::with_capacity(m);
    for i in 0..m {
        let (frag, shipped_v, shipped_e) = fragmentation.expand_fragment(i, &exchange);
        metrics.add_expansion(shipped_v * 24 + shipped_e * 24);
        expanded.push(frag);
    }
    let results: Vec<Mutex<Vec<Vec<VertexId>>>> = (0..m).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|s| {
        for w in 0..workers.max(1) {
            let expanded = &expanded;
            let results = &results;
            s.spawn(move || {
                for i in (w..m).step_by(workers.max(1)) {
                    let frag = &expanded[i];
                    let local = subgraph_isomorphism_filtered(
                        frag.local_graph(),
                        pattern,
                        max_matches_per_block,
                        &|_anchor| true,
                    );
                    let translated: Vec<Vec<VertexId>> = local
                        .into_iter()
                        .map(|mm| mm.into_iter().map(|l| frag.global_of(l as u32)).collect())
                        .filter(|mm: &Vec<VertexId>| {
                            mm.iter().any(|&v| {
                                frag.local_of(v).map(|l| frag.is_inner(l)).unwrap_or(false)
                            })
                        })
                        .collect();
                    *results[i].lock() = translated;
                }
            });
        }
    });
    // Coordinator-side duplicate elimination: every duplicate shipped counts.
    let mut all: Vec<Vec<VertexId>> = Vec::new();
    let mut shipped = 0usize;
    for r in results {
        let list = r.into_inner();
        shipped += list.len();
        all.extend(list);
    }
    metrics.push_superstep(SuperstepMetrics {
        superstep: 0,
        active_fragments: m,
        messages: shipped,
        bytes: shipped * pattern.num_nodes() * std::mem::size_of::<VertexId>(),
        duration: start.elapsed(),
    });
    all.sort_unstable();
    all.dedup();
    metrics.supersteps = 2;
    metrics.total_time = start.elapsed();
    Ok((all, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_centric::adapter::run_block;
    use grape_algorithms::cc::sequential::connected_components;
    use grape_algorithms::sim::sequential::graph_simulation;
    use grape_algorithms::sssp::sequential::dijkstra;
    use grape_algorithms::subiso::vf2::subgraph_isomorphism;
    use grape_graph::generators::{bipartite_ratings, labeled_kg, power_law, road_grid};
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::metis_like::MetisLike;
    use grape_partition::strategy::PartitionStrategy;

    #[test]
    fn block_sssp_matches_dijkstra() {
        let g = road_grid(10, 10, 1);
        let frag = MetisLike::new(4).partition(&g).unwrap();
        let (dist, metrics) = run_block(&frag, &BlockSssp, &SsspQuery::new(0), 4)
            .map(|r| (r.output, r.metrics))
            .unwrap();
        let expected = dijkstra(&g, 0);
        for v in g.vertices() {
            let got = dist.get(&v).copied().unwrap_or(f64::INFINITY);
            assert!((got - expected[v as usize]).abs() < 1e-9, "vertex {v}");
        }
        assert!(metrics.supersteps >= 2);
    }

    #[test]
    fn block_cc_matches_union_find() {
        let g = power_law(200, 450, 0, 3).to_undirected();
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let labels = run_block(&frag, &BlockCc, &(), 2).unwrap().output;
        let expected = connected_components(&g);
        for v in g.vertices() {
            assert_eq!(labels[&v], expected[v as usize], "vertex {v}");
        }
    }

    #[test]
    fn block_sim_matches_sequential() {
        let g = labeled_kg(200, 800, 4, 2, 5);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 31);
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let matches = run_block(&frag, &BlockSim, &SimQuery::new(pattern.clone()), 2)
            .unwrap()
            .output;
        let expected = graph_simulation(&g, &pattern);
        assert_eq!(matches, expected);
    }

    #[test]
    fn block_cf_learns_ratings() {
        let data = bipartite_ratings(40, 20, 400, 4, 11);
        let frag = HashEdgeCut::new(3).partition(&data.graph).unwrap();
        let query = CfQuery {
            epochs: 6,
            num_factors: 4,
            ..Default::default()
        };
        let model = run_block(&frag, &BlockCf, &query, 2).unwrap().output;
        assert!(
            model.rmse(&data.graph) < 1.2,
            "rmse {}",
            model.rmse(&data.graph)
        );
    }

    #[test]
    fn block_subiso_matches_vf2() {
        let g = labeled_kg(120, 400, 3, 2, 7);
        let alphabet: Vec<u32> = (1..=3).collect();
        let pattern = Pattern::random(3, 3, &alphabet, 13);
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let (matches, metrics) = run_block_subiso(&frag, &pattern, usize::MAX, 2).unwrap();
        let mut expected = subgraph_isomorphism(&g, &pattern, usize::MAX);
        expected.sort_unstable();
        assert_eq!(matches, expected);
        assert!(metrics.expansion_bytes > 0);
    }

    /// Two unconnected pattern nodes match any label-1/label-2 pair however
    /// far apart, so trusting `Pattern::diameter` returned 15 of the
    /// oracle's 25 matches on this path.  The runner must refuse.
    #[test]
    fn block_subiso_refuses_a_disconnected_pattern() {
        use grape_graph::builder::GraphBuilder;
        use grape_graph::types::Edge;
        use grape_partition::edge_cut::RangeEdgeCut;

        let mut b = GraphBuilder::directed();
        for v in 0..9u64 {
            b.push_edge(Edge::unweighted(v, v + 1));
        }
        for v in 0..10u64 {
            b.push_vertex_label(v, 1 + (v % 2) as u32);
        }
        let g = b.build();
        let pattern = Pattern::new(vec![1, 2], vec![]);
        assert_eq!(subgraph_isomorphism(&g, &pattern, usize::MAX).len(), 25);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        match run_block_subiso(&frag, &pattern, usize::MAX, 2) {
            Err(EngineError::InvalidConfig(reason)) => {
                assert!(
                    reason.contains("labels [1, 2] and edges [] is not connected"),
                    "{reason}"
                )
            }
            other => panic!("the pattern must be refused, got {other:?}"),
        }
    }

    #[test]
    fn block_sssp_does_more_local_work_than_grape_but_same_answer() {
        use grape_core::session::GrapeSession;

        let g = road_grid(12, 12, 9);
        let frag = MetisLike::new(4).partition(&g).unwrap();
        let (block_dist, block_metrics) = run_block(&frag, &BlockSssp, &SsspQuery::new(0), 4)
            .map(|r| (r.output, r.metrics))
            .unwrap();
        let grape = GrapeSession::with_workers(4)
            .run(&frag, &grape_algorithms::sssp::Sssp, &SsspQuery::new(0))
            .unwrap();
        for (v, d) in &block_dist {
            assert!((grape.output.distance(*v).unwrap() - d).abs() < 1e-9);
        }
        // Blogel-style messaging (per cross edge, no coordinator dedup) ships
        // at least as much as GRAPE.
        assert!(block_metrics.total_bytes >= grape.metrics.total_bytes);
    }
}
