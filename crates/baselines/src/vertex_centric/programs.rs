//! Vertex programs for the five query classes of the paper's evaluation.
//!
//! These are the "recasted" algorithms the paper contrasts with PIE programs
//! (Fig. 10 shows the Giraph SSSP program): the sequential logic is broken
//! into per-vertex compute functions and everything flows through
//! vertex-to-vertex messages — which is exactly why the vertex-centric
//! systems need `O(diameter)` supersteps and ship orders of magnitude more
//! data on graphs like road networks.

use std::collections::HashMap;

use grape_graph::graph::Graph;
use grape_graph::pattern::Pattern;
use grape_graph::types::VertexId;

use grape_algorithms::cf::sequential::{initial_factors, sgd_step, CfModel};
use grape_algorithms::cf::CfQuery;
use grape_algorithms::sssp::SsspQuery;

use super::engine::{VertexContext, VertexProgram};

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

/// The classic Pregel SSSP vertex program.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexSssp;

impl VertexProgram for VertexSssp {
    type Query = SsspQuery;
    type VertexValue = f64;
    type Message = f64;
    type Output = Vec<f64>;

    fn name(&self) -> &str {
        "vertex-centric-sssp"
    }

    fn init(&self, query: &SsspQuery, _graph: &Graph, v: VertexId) -> f64 {
        if v == query.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn compute(
        &self,
        query: &SsspQuery,
        graph: &Graph,
        v: VertexId,
        value: &mut f64,
        superstep: usize,
        messages: &[f64],
        ctx: &mut VertexContext<f64>,
    ) {
        let incoming = messages.iter().copied().fold(f64::INFINITY, f64::min);
        let improved = incoming < *value;
        if improved {
            *value = incoming;
        }
        let is_source_start = superstep == 0 && v == query.source;
        if improved || is_source_start {
            for n in graph.out_neighbors(v) {
                ctx.send(n.target, *value + n.weight);
            }
        }
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a.min(*b))
    }

    fn output(&self, _query: &SsspQuery, _graph: &Graph, values: Vec<f64>) -> Vec<f64> {
        values
    }
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

/// HashMin connected components: every vertex floods the smallest id it has
/// seen to all neighbours (both directions, since CC is over the undirected
/// graph).
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexCc;

impl VertexProgram for VertexCc {
    type Query = ();
    type VertexValue = VertexId;
    type Message = VertexId;
    type Output = Vec<VertexId>;

    fn name(&self) -> &str {
        "vertex-centric-cc"
    }

    fn init(&self, _q: &(), _graph: &Graph, v: VertexId) -> VertexId {
        v
    }

    fn compute(
        &self,
        _q: &(),
        graph: &Graph,
        v: VertexId,
        value: &mut VertexId,
        superstep: usize,
        messages: &[VertexId],
        ctx: &mut VertexContext<VertexId>,
    ) {
        let best = messages.iter().copied().min().unwrap_or(*value).min(*value);
        if best < *value || superstep == 0 {
            *value = best;
            for n in graph.out_neighbors(v).iter().chain(graph.in_neighbors(v)) {
                ctx.send(n.target, *value);
            }
        }
    }

    fn combine(&self, a: &VertexId, b: &VertexId) -> Option<VertexId> {
        Some(*a.min(b))
    }

    fn output(&self, _q: &(), _graph: &Graph, values: Vec<VertexId>) -> Vec<VertexId> {
        values
    }
}

// ---------------------------------------------------------------------------
// Graph simulation
// ---------------------------------------------------------------------------

/// Vertex-centric graph simulation: every vertex keeps a Boolean per query
/// node and the last known vectors of its out-neighbours; whenever its own
/// vector shrinks it notifies its *in*-neighbours (they depend on it).
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexSim;

/// Per-vertex state of [`VertexSim`].
#[derive(Debug, Clone, Default)]
pub struct VertexSimValue {
    /// `sim[u]`: does this vertex currently simulate query node `u`?
    pub sim: Vec<bool>,
    /// Last received vectors of the out-neighbours.
    neighbor_sim: HashMap<VertexId, Vec<bool>>,
}

impl VertexProgram for VertexSim {
    type Query = Pattern;
    type VertexValue = VertexSimValue;
    type Message = (VertexId, Vec<bool>);
    type Output = Vec<Vec<VertexId>>;

    fn name(&self) -> &str {
        "vertex-centric-sim"
    }

    fn init(&self, pattern: &Pattern, graph: &Graph, v: VertexId) -> VertexSimValue {
        let sim = (0..pattern.num_nodes() as u32)
            .map(|u| graph.vertex_label(v) == pattern.label(u))
            .collect();
        VertexSimValue {
            sim,
            neighbor_sim: HashMap::new(),
        }
    }

    fn compute(
        &self,
        pattern: &Pattern,
        graph: &Graph,
        v: VertexId,
        value: &mut VertexSimValue,
        superstep: usize,
        messages: &[(VertexId, Vec<bool>)],
        ctx: &mut VertexContext<(VertexId, Vec<bool>)>,
    ) {
        for (from, vector) in messages {
            value.neighbor_sim.insert(*from, vector.clone());
        }
        // Re-evaluate the simulation condition: optimistic about neighbours
        // whose vector has not arrived yet (they start label-compatible).
        let mut changed = false;
        for u in 0..pattern.num_nodes() as u32 {
            if !value.sim[u as usize] {
                continue;
            }
            let ok = pattern.children(u).iter().all(|&c| {
                graph
                    .out_neighbors(v)
                    .iter()
                    .any(|n| match value.neighbor_sim.get(&n.target) {
                        Some(vec) => vec[c as usize],
                        None => graph.vertex_label(n.target) == pattern.label(c),
                    })
            });
            if !ok {
                value.sim[u as usize] = false;
                changed = true;
            }
        }
        // Broadcast the vector to in-neighbours when it shrank (or initially,
        // so everyone learns the label-based starting point).
        if changed || superstep == 0 {
            for n in graph.in_neighbors(v) {
                ctx.send(n.target, (v, value.sim.clone()));
            }
        }
    }

    fn output(
        &self,
        pattern: &Pattern,
        graph: &Graph,
        values: Vec<VertexSimValue>,
    ) -> Vec<Vec<VertexId>> {
        let q = pattern.num_nodes();
        let mut matches: Vec<Vec<VertexId>> = vec![Vec::new(); q];
        for (v, value) in values.iter().enumerate() {
            for (u, matches_u) in matches.iter_mut().enumerate().take(q) {
                if value.sim[u] {
                    matches_u.push(v as VertexId);
                }
            }
        }
        let _ = graph;
        if matches.iter().any(|m| m.is_empty()) {
            matches = vec![Vec::new(); q];
        }
        matches
    }

    fn message_size(&self, message: &(VertexId, Vec<bool>)) -> usize {
        std::mem::size_of::<VertexId>() + message.1.len()
    }
}

// ---------------------------------------------------------------------------
// Subgraph isomorphism
// ---------------------------------------------------------------------------

/// Vertex-centric subgraph isomorphism by partial-match flooding: partial
/// mappings grow one query node per superstep and travel along graph edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexSubIso;

/// Query for [`VertexSubIso`].
#[derive(Debug, Clone)]
pub struct VertexSubIsoQuery {
    /// The pattern.
    pub pattern: Pattern,
    /// Cap on complete matches collected per vertex.
    pub max_matches_per_vertex: usize,
}

/// Per-vertex state: complete matches anchored here.
#[derive(Debug, Clone, Default)]
pub struct VertexSubIsoValue {
    matches: Vec<Vec<VertexId>>,
}

impl VertexSubIso {
    fn consistent(
        graph: &Graph,
        pattern: &Pattern,
        partial: &[VertexId],
        u: u32,
        v: VertexId,
    ) -> bool {
        if graph.vertex_label(v) != pattern.label(u) || partial.contains(&v) {
            return false;
        }
        for &child in pattern.children(u) {
            if (child as usize) < partial.len() {
                let m = partial[child as usize];
                if m != VertexId::MAX && !graph.out_neighbors(v).iter().any(|n| n.target == m) {
                    return false;
                }
            }
        }
        for &parent in pattern.parents(u) {
            if (parent as usize) < partial.len() {
                let m = partial[parent as usize];
                if m != VertexId::MAX && !graph.out_neighbors(m).iter().any(|n| n.target == v) {
                    return false;
                }
            }
        }
        true
    }
}

impl VertexProgram for VertexSubIso {
    type Query = VertexSubIsoQuery;
    type VertexValue = VertexSubIsoValue;
    /// A partial mapping of query nodes `0..k` (in order) to vertices.
    type Message = Vec<VertexId>;
    type Output = Vec<Vec<VertexId>>;

    fn name(&self) -> &str {
        "vertex-centric-subiso"
    }

    fn init(&self, _q: &VertexSubIsoQuery, _graph: &Graph, _v: VertexId) -> VertexSubIsoValue {
        VertexSubIsoValue::default()
    }

    fn compute(
        &self,
        query: &VertexSubIsoQuery,
        graph: &Graph,
        v: VertexId,
        value: &mut VertexSubIsoValue,
        superstep: usize,
        messages: &[Vec<VertexId>],
        ctx: &mut VertexContext<Vec<VertexId>>,
    ) {
        let pattern = &query.pattern;
        let q = pattern.num_nodes();
        let mut extended: Vec<Vec<VertexId>> = Vec::new();
        if superstep == 0 {
            // Seed: this vertex as the image of query node 0.
            if Self::consistent(graph, pattern, &[], 0, v) {
                extended.push(vec![v]);
            }
        }
        for partial in messages {
            let u = partial.len() as u32;
            if (u as usize) < q && Self::consistent(graph, pattern, partial, u, v) {
                let mut next = partial.clone();
                next.push(v);
                extended.push(next);
            }
        }
        for partial in extended {
            if partial.len() == q {
                if value.matches.len() < query.max_matches_per_vertex {
                    value.matches.push(partial);
                }
            } else {
                // The next query node's image must be adjacent (in either
                // direction) to some already-mapped vertex; flooding to the
                // union of the neighbourhoods of the mapped vertices covers
                // every candidate.
                for &mapped in &partial {
                    for n in graph
                        .out_neighbors(mapped)
                        .iter()
                        .chain(graph.in_neighbors(mapped))
                    {
                        ctx.send(n.target, partial.clone());
                    }
                }
            }
        }
    }

    fn output(
        &self,
        _query: &VertexSubIsoQuery,
        _graph: &Graph,
        values: Vec<VertexSubIsoValue>,
    ) -> Vec<Vec<VertexId>> {
        let mut all: Vec<Vec<VertexId>> = values.into_iter().flat_map(|v| v.matches).collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    fn message_size(&self, message: &Vec<VertexId>) -> usize {
        message.len() * std::mem::size_of::<VertexId>()
    }
}

// ---------------------------------------------------------------------------
// Collaborative filtering
// ---------------------------------------------------------------------------

/// Vertex-centric CF: users and items alternate supersteps; users push their
/// factor vectors to the items they rated, items update and push back
/// (the built-in SGD-based CF of Giraph/GraphLab works the same way).
#[derive(Debug, Clone, Copy, Default)]
pub struct VertexCf;

/// Per-vertex state of [`VertexCf`].
#[derive(Debug, Clone, Default)]
pub struct VertexCfValue {
    /// The factor vector.
    pub factors: Vec<f64>,
    /// Factor vectors most recently received from neighbours.
    received: HashMap<VertexId, Vec<f64>>,
}

impl VertexProgram for VertexCf {
    type Query = CfQuery;
    type VertexValue = VertexCfValue;
    type Message = (VertexId, Vec<f64>);
    type Output = CfModel;

    fn name(&self) -> &str {
        "vertex-centric-cf"
    }

    fn init(&self, query: &CfQuery, _graph: &Graph, v: VertexId) -> VertexCfValue {
        VertexCfValue {
            factors: initial_factors(v, query.num_factors),
            received: HashMap::new(),
        }
    }

    fn compute(
        &self,
        query: &CfQuery,
        graph: &Graph,
        v: VertexId,
        value: &mut VertexCfValue,
        superstep: usize,
        messages: &[(VertexId, Vec<f64>)],
        ctx: &mut VertexContext<(VertexId, Vec<f64>)>,
    ) {
        for (from, factors) in messages {
            value.received.insert(*from, factors.clone());
        }
        let is_user = graph.out_degree(v) > 0; // ratings are user → item edges
        let epoch = superstep / 2;
        if epoch >= query.epochs {
            return;
        }
        if is_user && superstep.is_multiple_of(2) {
            // Users update against the latest item factors, then push.
            for n in graph.out_neighbors(v) {
                let mut item = value
                    .received
                    .get(&n.target)
                    .cloned()
                    .unwrap_or_else(|| initial_factors(n.target, query.num_factors));
                sgd_step(
                    &mut value.factors,
                    &mut item,
                    n.weight,
                    query.learning_rate,
                    query.regularization,
                );
            }
            for n in graph.out_neighbors(v) {
                ctx.send(n.target, (v, value.factors.clone()));
            }
        } else if !is_user && superstep % 2 == 1 {
            // Items update against the received user factors, then push back.
            for n in graph.in_neighbors(v) {
                if let Some(user) = value.received.get(&n.target) {
                    let mut user = user.clone();
                    sgd_step(
                        &mut user,
                        &mut value.factors,
                        n.weight,
                        query.learning_rate,
                        query.regularization,
                    );
                }
            }
            for n in graph.in_neighbors(v) {
                ctx.send(n.target, (v, value.factors.clone()));
            }
        }
    }

    fn output(&self, _query: &CfQuery, graph: &Graph, values: Vec<VertexCfValue>) -> CfModel {
        let mut factors = HashMap::new();
        for (v, value) in values.into_iter().enumerate() {
            let v = v as VertexId;
            if graph.out_degree(v) > 0 || graph.in_degree(v) > 0 {
                factors.insert(v, value.factors);
            }
        }
        CfModel::new(factors)
    }

    fn message_size(&self, message: &(VertexId, Vec<f64>)) -> usize {
        std::mem::size_of::<VertexId>() + message.1.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_centric::engine::run_vertex;
    use grape_algorithms::cc::sequential::connected_components;
    use grape_algorithms::sim::sequential::graph_simulation;
    use grape_algorithms::sssp::sequential::dijkstra;
    use grape_algorithms::subiso::vf2::subgraph_isomorphism;
    use grape_graph::generators::{bipartite_ratings, labeled_kg, power_law, road_grid};

    #[test]
    fn vertex_sssp_matches_dijkstra() {
        let g = road_grid(8, 8, 1);
        let result = run_vertex(&g, &VertexSssp, &SsspQuery::new(0), 4).unwrap();
        let (dist, metrics) = (result.output, result.metrics);
        let expected = dijkstra(&g, 0);
        for v in 0..g.num_vertices() {
            assert!((dist[v] - expected[v]).abs() < 1e-9, "vertex {v}");
        }
        // Vertex-centric needs on the order of the weighted-hop diameter.
        assert!(
            metrics.supersteps >= 14,
            "only {} supersteps",
            metrics.supersteps
        );
    }

    #[test]
    fn vertex_cc_matches_union_find() {
        let g = power_law(200, 500, 0, 2).to_undirected();
        let labels = run_vertex(&g, &VertexCc, &(), 4).unwrap().output;
        let expected = connected_components(&g);
        assert_eq!(labels, expected);
    }

    #[test]
    fn vertex_sim_matches_sequential() {
        let g = labeled_kg(150, 600, 4, 2, 3);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 17);
        let matches = run_vertex(&g, &VertexSim, &pattern, 4).unwrap().output;
        let expected = graph_simulation(&g, &pattern);
        assert_eq!(matches, expected);
    }

    #[test]
    fn vertex_subiso_matches_vf2() {
        let g = labeled_kg(80, 240, 3, 2, 5);
        let alphabet: Vec<u32> = (1..=3).collect();
        let pattern = Pattern::random(3, 3, &alphabet, 9);
        let query = VertexSubIsoQuery {
            pattern: pattern.clone(),
            max_matches_per_vertex: 10_000,
        };
        let matches = run_vertex(&g, &VertexSubIso, &query, 2).unwrap().output;
        let mut expected = subgraph_isomorphism(&g, &pattern, usize::MAX);
        expected.sort_unstable();
        assert_eq!(matches, expected);
    }

    #[test]
    fn vertex_cf_learns_ratings() {
        let data = bipartite_ratings(40, 20, 400, 4, 7);
        let query = CfQuery {
            epochs: 6,
            num_factors: 4,
            ..Default::default()
        };
        let result = run_vertex(&data.graph, &VertexCf, &query, 4).unwrap();
        let (model, metrics) = (result.output, result.metrics);
        assert!(
            model.rmse(&data.graph) < 1.2,
            "rmse {}",
            model.rmse(&data.graph)
        );
        assert!(metrics.supersteps >= 2 * 6);
    }

    #[test]
    fn vertex_sssp_ships_many_more_messages_than_grape() {
        use grape_core::session::GrapeSession;
        use grape_partition::metis_like::MetisLike;
        use grape_partition::strategy::PartitionStrategy;

        let g = road_grid(16, 16, 4);
        let vertex_metrics = run_vertex(&g, &VertexSssp, &SsspQuery::new(0), 4)
            .unwrap()
            .metrics;
        let frag = MetisLike::new(4).partition(&g).unwrap();
        let grape = GrapeSession::with_workers(4)
            .run(&frag, &grape_algorithms::sssp::Sssp, &SsspQuery::new(0))
            .unwrap();
        // The gap grows with graph size/diameter (the benches show orders of
        // magnitude); on this small grid a factor of a few already shows.
        assert!(
            vertex_metrics.total_bytes > 3 * grape.metrics.total_bytes.max(1),
            "vertex-centric {} bytes vs GRAPE {} bytes",
            vertex_metrics.total_bytes,
            grape.metrics.total_bytes
        );
        assert!(vertex_metrics.supersteps > grape.metrics.supersteps);
    }
}
