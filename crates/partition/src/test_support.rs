//! Seeded graphs and fragmentation versions shared by the expansion pins of
//! [`crate::fragment`] and the SubIso pins of `grape-algorithms`, so both
//! run on exactly the same inputs.
//!
//! Compiled into the library (`#[doc(hidden)]`) rather than `#[cfg(test)]`
//! so another crate's tests can use it.  Not a public API.

use grape_graph::generators::{erdos_renyi, labeled_kg};
use grape_graph::graph::{Directedness, Graph};
use grape_graph::types::VertexId;
use grape_graph::GraphDelta;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::edge_cut::HashEdgeCut;
use crate::fragment::Fragmentation;
use crate::metis_like::MetisLike;
use crate::strategy::PartitionStrategy;
use crate::vertex_cut::GreedyVertexCut;

/// A directed and an undirected uniform graph and a knowledge graph.
pub fn seeded_graphs() -> Vec<Graph> {
    vec![
        erdos_renyi(60, 240, 4, Directedness::Directed, 0x5EED_0011),
        erdos_renyi(50, 150, 3, Directedness::Undirected, 0x5EED_0012),
        labeled_kg(400, 1600, 20, 16, 7),
    ]
}

/// A valid delta over `g`: a few inserts (one to a new vertex), a few
/// removals of present edges and now and then a detached vertex.
pub fn random_delta(rng: &mut StdRng, g: &Graph) -> GraphDelta {
    let n = g.num_vertices() as VertexId;
    let edges = g.edges();
    let mut delta = GraphDelta::new().add_weighted_edge(rng.gen_range(0..n), n, 1.5);
    for _ in 0..6 {
        let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
        delta = delta.add_weighted_edge(src, dst, rng.gen_range(1..4) as f64);
    }
    for _ in 0..4 {
        let e = edges[rng.gen_range(0..edges.len())];
        delta = delta.remove_edge(e.src, e.dst);
    }
    if rng.gen_range(0..2) == 0 {
        delta = delta.remove_vertex(rng.gen_range(0..n));
    }
    delta
}

/// Every version to expand: edge cuts at partition time and along a
/// seeded delta chain (whose `source()` is derived, with another edge
/// order), plus a vertex cut at partition time.
pub fn versions(g: &Graph, seed: u64) -> Vec<(String, Fragmentation)> {
    let mut out = Vec::new();
    let edge_cuts: [Box<dyn PartitionStrategy>; 2] =
        [Box::new(HashEdgeCut::new(4)), Box::new(MetisLike::new(4))];
    for strategy in edge_cuts {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = g.clone();
        let mut frag = strategy.partition(&graph).unwrap();
        out.push((format!("{} v0", strategy.name()), frag.clone()));
        for step in 1..=3 {
            let delta = random_delta(&mut rng, &graph);
            graph = graph.apply_delta(&delta).unwrap();
            frag = frag.apply_delta(&delta).unwrap().fragmentation;
            out.push((format!("{} v{step}", strategy.name()), frag.clone()));
        }
    }
    let vc = GreedyVertexCut::new(3).partition(g).unwrap();
    out.push(("vertex-cut".to_string(), vc));
    out
}
