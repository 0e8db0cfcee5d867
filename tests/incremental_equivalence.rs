//! Incremental-vs-full-recompute equivalence: for SSSP, CC and graph
//! simulation over seeded random graphs and delta sequences,
//! `PreparedQuery::update(ΔG)` must produce output identical to a full
//! recompute on `G ⊕ ΔG` — and, for monotone delta batches, must execute
//! **zero PEval calls** (`metrics.peval_calls == 0`).  Both engine modes
//! ([`EngineMode::Sync`] and the barrier-free [`EngineMode::Async`]) are
//! exercised for every case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grape::algorithms::cc::{Cc, CcQuery};
use grape::algorithms::sim::{Sim, SimQuery};
use grape::algorithms::sssp::{Sssp, SsspQuery};
use grape::core::config::EngineMode;
use grape::core::prepared::RefreshKind;
use grape::core::session::GrapeSession;
use grape::graph::builder::GraphBuilder;
use grape::graph::delta::GraphDelta;
use grape::graph::graph::{Directedness, Graph};
use grape::graph::pattern::Pattern;
use grape::partition::edge_cut::HashEdgeCut;
use grape::partition::strategy::PartitionStrategy;

const CASES: u64 = 8;
const MODES: [EngineMode; 2] = [EngineMode::Sync, EngineMode::Async];

fn session(workers: usize, mode: EngineMode) -> GrapeSession {
    GrapeSession::builder()
        .workers(workers)
        .mode(mode)
        .build()
        .unwrap()
}

/// A random directed weighted labeled graph (same generator family as
/// `assurance.rs` / `async_equivalence.rs`).
fn arb_graph(rng: &mut StdRng, max_n: u64, max_m: usize, labels: u32) -> Graph {
    let n = rng.gen_range(4..max_n);
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

/// A batch of random edge insertions (optionally with brand-new vertices).
fn insert_delta(rng: &mut StdRng, g: &Graph, count: usize) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let mut delta = GraphDelta::new();
    for _ in 0..count {
        // One in four insertions reaches outside the current vertex set.
        let s = rng.gen_range(0..n);
        let d = if rng.gen_range(0u32..4) == 0 {
            n + rng.gen_range(0u64..3)
        } else {
            rng.gen_range(0..n)
        };
        if s != d {
            let w = rng.gen_range(1u32..10u32);
            delta = delta.add_weighted_edge(s, d, w as f64);
        }
    }
    delta
}

/// A batch of random distinct edge deletions.
fn delete_delta(rng: &mut StdRng, g: &Graph, count: usize) -> GraphDelta {
    let m = g.num_edges();
    let mut seen = std::collections::HashSet::new();
    let mut delta = GraphDelta::new();
    for _ in 0..count * 3 {
        if seen.len() >= count.min(m) {
            break;
        }
        let e = g.edges()[rng.gen_range(0..m as u64) as usize];
        if seen.insert((e.src, e.dst)) {
            delta = delta.remove_edge(e.src, e.dst);
        }
    }
    delta
}

#[test]
fn sssp_update_sequence_matches_recompute_in_both_modes() {
    for mode in MODES {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(0x1E_0100 + case);
            let graph = arb_graph(&mut rng, 50, 180, 0);
            let fragments = rng.gen_range(2usize..6);
            let workers = rng.gen_range(1usize..4);
            let source = rng.gen_range(0u64..graph.num_vertices() as u64);

            let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
            let s = session(workers, mode);
            let mut prepared = s.prepare(frag, Sssp, SsspQuery::new(source)).unwrap();

            // A sequence of monotone (insert-only) deltas.
            for round in 0..3 {
                let delta = insert_delta(&mut rng, prepared.fragmentation().source(), 6);
                let report = prepared.update(&delta).unwrap();
                assert!(report.incremental, "case {case} round {round} ({mode:?})");
                assert_eq!(
                    report.metrics.peval_calls, 0,
                    "monotone batches must not run PEval (case {case}, {mode:?})"
                );
                let recompute = s
                    .run(prepared.fragmentation(), &Sssp, &SsspQuery::new(source))
                    .unwrap();
                let output = prepared.output();
                for v in prepared.fragmentation().source().vertices() {
                    assert_eq!(
                        output.distance(v).map(|d| (d * 1e9).round() as i64),
                        recompute
                            .output
                            .distance(v)
                            .map(|d| (d * 1e9).round() as i64),
                        "case {case} round {round} vertex {v} ({mode:?})"
                    );
                }
            }

            // One non-monotone (deletion) delta: retracted without PEval,
            // still agrees.
            let delta = delete_delta(&mut rng, prepared.fragmentation().source(), 4);
            if !delta.is_empty() {
                let report = prepared.update(&delta).unwrap();
                assert_eq!(
                    report.kind,
                    RefreshKind::Retracted,
                    "case {case} ({mode:?})"
                );
                assert_eq!(report.metrics.peval_calls, 0, "case {case} ({mode:?})");
                let recompute = s
                    .run(prepared.fragmentation(), &Sssp, &SsspQuery::new(source))
                    .unwrap();
                for v in prepared.fragmentation().source().vertices() {
                    assert_eq!(
                        prepared
                            .output()
                            .distance(v)
                            .map(|d| (d * 1e9).round() as i64),
                        recompute
                            .output
                            .distance(v)
                            .map(|d| (d * 1e9).round() as i64),
                        "case {case} post-deletion vertex {v} ({mode:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn cc_update_sequence_matches_recompute_in_both_modes() {
    for mode in MODES {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(0x1E_0200 + case);
            let graph = arb_graph(&mut rng, 50, 140, 0).to_undirected();
            let fragments = rng.gen_range(2usize..6);
            let workers = rng.gen_range(1usize..4);

            let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
            let s = session(workers, mode);
            let mut prepared = s.prepare(frag, Cc, CcQuery).unwrap();

            for round in 0..3 {
                let delta = insert_delta(&mut rng, prepared.fragmentation().source(), 5);
                let report = prepared.update(&delta).unwrap();
                assert!(report.incremental, "case {case} round {round} ({mode:?})");
                assert_eq!(report.metrics.peval_calls, 0, "case {case} ({mode:?})");
                let recompute = s.run(prepared.fragmentation(), &Cc, &CcQuery).unwrap();
                let output = prepared.output();
                for v in prepared.fragmentation().source().vertices() {
                    assert_eq!(
                        output.component(v),
                        recompute.output.component(v),
                        "case {case} round {round} vertex {v} ({mode:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn sim_update_sequence_matches_recompute_in_both_modes() {
    for mode in MODES {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(0x1E_0300 + case);
            let graph = arb_graph(&mut rng, 40, 150, 4);
            let fragments = rng.gen_range(2usize..5);
            let workers = rng.gen_range(1usize..4);
            let pattern = Pattern::random(3, 4, &[1, 2, 3, 4], rng.gen_range(0u64..500));

            let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
            let s = session(workers, mode);
            let query = SimQuery::new(pattern.clone());
            let mut prepared = s.prepare(frag, Sim::new(), query.clone()).unwrap();

            // Sim's monotone direction: deletions.
            for round in 0..3 {
                let delta = delete_delta(&mut rng, prepared.fragmentation().source(), 5);
                if delta.is_empty() {
                    break;
                }
                let report = prepared.update(&delta).unwrap();
                assert!(report.incremental, "case {case} round {round} ({mode:?})");
                assert_eq!(report.metrics.peval_calls, 0, "case {case} ({mode:?})");
                let recompute = s
                    .run(prepared.fragmentation(), &Sim::new(), &query)
                    .unwrap();
                assert_eq!(
                    prepared.output().relation(),
                    recompute.output.relation(),
                    "case {case} round {round} ({mode:?})"
                );
            }

            // An insertion is non-monotone for Sim: fallback, still agree.
            let delta = insert_delta(&mut rng, prepared.fragmentation().source(), 3);
            if !delta.is_empty() {
                let report = prepared.update(&delta).unwrap();
                assert!(!report.incremental, "case {case} ({mode:?})");
                let recompute = s
                    .run(prepared.fragmentation(), &Sim::new(), &query)
                    .unwrap();
                assert_eq!(
                    prepared.output().relation(),
                    recompute.output.relation(),
                    "case {case} post-insertion ({mode:?})"
                );
            }
        }
    }
}
