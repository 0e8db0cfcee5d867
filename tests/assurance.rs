//! Randomized tests for the Assurance Theorem (Theorem 1): for monotonic PIE
//! programs built from correct sequential algorithms, GRAPE terminates and
//! produces the sequential answer — across random graphs, partition
//! strategies, fragment counts and worker counts.
//!
//! Cases are generated from a seeded RNG (24 per property, mirroring the
//! original proptest configuration), so failures are reproducible: the
//! failing case's seed appears in the assertion message.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grape::algorithms::cc::{connected_components, Cc, CcQuery};
use grape::algorithms::sim::{graph_simulation, Sim, SimQuery};
use grape::algorithms::sssp::{dijkstra, Sssp, SsspQuery};
use grape::core::config::EngineMode;
use grape::core::session::GrapeSession;
use grape::graph::builder::GraphBuilder;
use grape::graph::graph::{Directedness, Graph};
use grape::graph::pattern::Pattern;
use grape::partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
use grape::partition::strategy::PartitionStrategy;

const CASES: u64 = 24;

/// A random directed weighted labeled graph with up to `max_n` vertices and
/// `max_m` edges; `labels = 0` leaves the graph unlabeled.
fn arb_graph(rng: &mut StdRng, max_n: u64, max_m: usize, labels: u32) -> Graph {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(1..max_m);
    let mut b = GraphBuilder::new(Directedness::Directed).ensure_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        let w = rng.gen_range(1u32..10u32);
        if s != d {
            b.push_edge(grape::graph::types::Edge::weighted(s, d, w as f64));
        }
    }
    if labels > 0 {
        for v in 0..n {
            b.push_vertex_label(v, (v as u32 % labels) + 1);
        }
    }
    b.build()
}

/// SSSP over GRAPE equals sequential Dijkstra for any graph, any number of
/// fragments and any worker count.
#[test]
fn sssp_matches_dijkstra() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x55_5500 + case);
        let graph = arb_graph(&mut rng, 40, 120, 0);
        let fragments = rng.gen_range(1usize..6);
        let workers = rng.gen_range(1usize..4);
        let source = rng.gen_range(0u64..graph.num_vertices() as u64);

        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let session = GrapeSession::with_workers(workers);
        let result = session.run(&frag, &Sssp, &SsspQuery::new(source)).unwrap();
        let expected = dijkstra(&graph, source);
        for (v, d) in expected.iter().enumerate() {
            match result.output.distance(v as u64) {
                Some(got) => {
                    assert!(
                        (got - d).abs() < 1e-9,
                        "case {case}: vertex {v}: {got} vs {d}"
                    )
                }
                None => assert!(!d.is_finite(), "case {case}: vertex {v} unreachable vs {d}"),
            }
        }
    }
}

/// CC over GRAPE equals sequential union-find.
#[test]
fn cc_matches_union_find() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xCC_CC00 + case);
        let graph = arb_graph(&mut rng, 40, 100, 0);
        let fragments = rng.gen_range(1usize..6);

        let undirected = graph.to_undirected();
        let frag = RangeEdgeCut::new(fragments).partition(&undirected).unwrap();
        let session = GrapeSession::with_workers(2);
        let result = session.run(&frag, &Cc, &CcQuery).unwrap();
        let expected = connected_components(&undirected);
        for v in undirected.vertices() {
            assert_eq!(
                result.output.component(v),
                Some(expected[v as usize]),
                "case {case}: component of vertex {v}"
            );
        }
    }
}

/// Graph simulation over GRAPE equals the sequential HHK algorithm.
#[test]
fn sim_matches_sequential() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x51_5100 + case);
        let graph = arb_graph(&mut rng, 36, 110, 4);
        let fragments = rng.gen_range(1usize..5);
        let pattern_seed = rng.gen_range(0u64..500);

        let pattern = Pattern::random(3, 4, &[1, 2, 3, 4], pattern_seed);
        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let session = GrapeSession::with_workers(2);
        let result = session
            .run(&frag, &Sim::new(), &SimQuery::new(pattern.clone()))
            .unwrap();
        let expected = graph_simulation(&graph, &pattern);
        for (u, expected_u) in expected.iter().enumerate() {
            assert_eq!(
                result.output.matches(u as u32),
                expected_u.as_slice(),
                "case {case}: matches of query node {u}"
            );
        }
    }
}

/// Termination and determinism: the same query on the same fragmentation
/// always produces identical supersteps and identical output regardless of
/// the number of physical workers.  This is a BSP property — superstep and
/// message counts are barrier-aligned — so the runs pin synchronous mode
/// (the barrier-free runtime guarantees identical *output*, which
/// `equivalence/sync_async.rs` covers, but its metrics depend on scheduling).
#[test]
fn deterministic_across_worker_counts() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xDE_DE00 + case);
        let graph = arb_graph(&mut rng, 30, 80, 0);
        let fragments = rng.gen_range(2usize..5);

        let sync_session = |workers: usize| {
            GrapeSession::builder()
                .workers(workers)
                .mode(EngineMode::Sync)
                .build()
                .unwrap()
        };
        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let a = sync_session(1)
            .run(&frag, &Sssp, &SsspQuery::new(0))
            .unwrap();
        let b = sync_session(4)
            .run(&frag, &Sssp, &SsspQuery::new(0))
            .unwrap();
        assert_eq!(
            a.metrics.supersteps, b.metrics.supersteps,
            "case {case}: supersteps"
        );
        assert_eq!(
            a.metrics.total_messages, b.metrics.total_messages,
            "case {case}: messages"
        );
        for (v, d) in a.output.distances() {
            assert_eq!(
                b.output.distance(*v),
                Some(*d),
                "case {case}: distance of {v}"
            );
        }
    }
}
