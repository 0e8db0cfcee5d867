//! `GrapeServer` acceptance pins: K registered queries share **one**
//! `apply_delta` per `ΔG` (identical `rebuilt` sets across per-query
//! reports, `Arc`-shared fragment storage, answers identical to independent
//! handles and to full recomputes), and an evict → rehydrate round trip
//! through the per-fragment binary snapshots yields `output()` identical to
//! the never-evicted handle with `peval_calls == 0` on rehydration.  The
//! serving path never builds the global graph: the fragments are the graph.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grape::algorithms::cc::{connected_components, Cc, CcQuery};
use grape::algorithms::sssp::{dijkstra, Sssp, SsspQuery};
use grape::core::config::EngineMode;
use grape::core::serve::GrapeServer;
use grape::core::session::GrapeSession;
use grape::graph::builder::GraphBuilder;
use grape::graph::delta::GraphDelta;
use grape::graph::graph::{Directedness, Graph};
use grape::graph::types::VertexId;
use grape::partition::edge_cut::HashEdgeCut;
use grape::partition::fragment::Fragmentation;
use grape::partition::strategy::PartitionStrategy;

const MODES: [EngineMode; 2] = [EngineMode::Sync, EngineMode::Async];

fn session(mode: EngineMode) -> GrapeSession {
    GrapeSession::builder()
        .workers(3)
        .mode(mode)
        .build()
        .unwrap()
}

fn seeded_graph(seed: u64, n: u64, m: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(Directedness::Directed).ensure_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.push_edge(grape::graph::types::Edge::weighted(
                s,
                d,
                rng.gen_range(1u32..9u32) as f64,
            ));
        }
    }
    b.build()
}

fn partition(g: &Graph) -> Fragmentation {
    HashEdgeCut::new(4).partition(g).unwrap()
}

fn insert_batch(rng: &mut StdRng, n: u64, count: usize) -> GraphDelta {
    let mut delta = GraphDelta::new();
    for _ in 0..count {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            delta = delta.add_weighted_edge(s, d, rng.gen_range(1u32..5u32) as f64);
        }
    }
    delta
}

fn assert_same_sssp(
    a: &grape::algorithms::sssp::SsspResult,
    b: &grape::algorithms::sssp::SsspResult,
    ctx: &str,
) {
    assert_eq!(a.distances().len(), b.distances().len(), "{ctx}");
    for (v, d) in a.distances() {
        let other = b.distances().get(v).unwrap_or_else(|| panic!("{ctx}: {v}"));
        assert!(
            (d - other).abs() < 1e-9,
            "{ctx}: vertex {v}: {d} vs {other}"
        );
    }
}

/// K standing queries, one delta stream: every per-query report carries the
/// single delta application's rebuilt set, every handle keeps sharing the
/// server's fragment storage, and every answer equals both an independent
/// handle's and a from-scratch recompute.
#[test]
fn k_queries_share_one_delta_application() {
    for mode in MODES {
        let g = seeded_graph(0xC0FFEE, 40, 120);
        let s = session(mode);
        let sources: Vec<VertexId> = vec![0, 3, 7, 11];

        // Independent handles: the baseline the server must match while
        // applying each delta once instead of K times.
        let mut independent: Vec<_> = sources
            .iter()
            .map(|&src| s.prepare(partition(&g), Sssp, SsspQuery::new(src)).unwrap())
            .collect();

        let mut server = GrapeServer::new(s.clone(), partition(&g));
        let handles: Vec<_> = sources
            .iter()
            .map(|&src| server.register(Sssp, SsspQuery::new(src)).unwrap())
            .collect();

        let mut rng = StdRng::seed_from_u64(0xD157);
        let existing = g.edges()[17];
        let deltas = vec![
            insert_batch(&mut rng, 40, 6),
            insert_batch(&mut rng, 44, 6),
            GraphDelta::new().remove_edge(existing.src, existing.dst),
            insert_batch(&mut rng, 44, 4),
        ];

        for delta in &deltas {
            let report = server.apply(delta).unwrap();
            assert_eq!(report.refreshed.len(), sources.len(), "{mode:?}");
            for qr in &report.refreshed {
                let ur = qr.result.as_ref().unwrap();
                assert_eq!(
                    ur.rebuilt, report.rebuilt,
                    "one rebuilt-fragment set shared by query {} ({mode:?})",
                    qr.query
                );
            }
            for p in independent.iter_mut() {
                p.update(delta).unwrap();
            }
        }
        assert_eq!(server.version(), deltas.len());
        assert_eq!(server.retained_versions(), 1);

        // Shared storage: every handle's fragmentation is the server's,
        // fragment by fragment (Arc identity, not just equality).
        for h in &handles {
            let prepared = server.prepared(h).unwrap().unwrap();
            for i in 0..server.fragmentation().num_fragments() {
                assert!(
                    server
                        .fragmentation()
                        .shares_fragment_storage(prepared.fragmentation(), i),
                    "query {} fragment {i} not shared ({mode:?})",
                    h.id()
                );
            }
        }

        for (k, h) in handles.iter().enumerate() {
            let served = server.output(h).unwrap();
            let alone = independent[k].output();
            assert_same_sssp(
                &served,
                &alone,
                &format!("served vs independent ({mode:?})"),
            );
            let recompute = s
                .run(server.fragmentation(), &Sssp, &SsspQuery::new(sources[k]))
                .unwrap();
            assert_same_sssp(
                &served,
                &recompute.output,
                &format!("served vs recompute ({mode:?})"),
            );
        }
    }
}

/// The eviction acceptance pin: spill → reload through the per-fragment
/// binary snapshots reproduces the never-evicted handle exactly, with zero
/// PEval calls on rehydration — including when monotone deltas arrived
/// while the query was cold.
#[test]
fn evict_rehydrate_matches_the_never_evicted_handle() {
    for mode in MODES {
        let g = seeded_graph(0xE71C7, 36, 100);
        let s = session(mode);
        let mut server = GrapeServer::new(s.clone(), partition(&g));
        let hot = server.register(Sssp, SsspQuery::new(0)).unwrap();
        let cold = server.register(Sssp, SsspQuery::new(0)).unwrap();

        let mut rng = StdRng::seed_from_u64(0x5EED);
        server.apply(&insert_batch(&mut rng, 36, 5)).unwrap();

        // Round trip with no pending deltas.
        let spill = server.evict(&cold).unwrap();
        assert!(spill.exists(), "{mode:?}");
        let rehydration = server.rehydrate(&cold).unwrap();
        assert_eq!(
            rehydration.peval_calls(),
            0,
            "rehydration must not re-run PEval ({mode:?})"
        );
        assert!(rehydration.replayed.is_empty());
        let a = server.output(&cold).unwrap();
        let b = server.output(&hot).unwrap();
        assert_same_sssp(&a, &b, &format!("round trip ({mode:?})"));

        // Evict again; monotone deltas arrive while cold; lazy rehydration
        // replays them — still zero PEval anywhere on the cold path.
        server.evict(&cold).unwrap();
        server.apply(&insert_batch(&mut rng, 40, 5)).unwrap();
        let r = server.apply(&insert_batch(&mut rng, 40, 5)).unwrap();
        assert_eq!(r.deferred, vec![cold.id()], "{mode:?}");
        assert!(server.retained_versions() > 1, "{mode:?}");

        let rehydration = server.rehydrate(&cold).unwrap();
        assert_eq!(rehydration.replayed.len(), 2, "{mode:?}");
        assert_eq!(
            rehydration.peval_calls(),
            0,
            "monotone replay is PEval-free ({mode:?})"
        );
        let a = server.output(&cold).unwrap();
        let b = server.output(&hot).unwrap();
        assert_same_sssp(&a, &b, &format!("replayed round trip ({mode:?})"));
        assert_eq!(server.retained_versions(), 1, "{mode:?}");

        // Deletions while cold take the same decision table on replay and
        // still match the hot handle.
        server.evict(&cold).unwrap();
        let edge = server.fragmentation().source().edges()[3];
        server
            .apply(&GraphDelta::new().remove_edge(edge.src, edge.dst))
            .unwrap();
        let a = server.output(&cold).unwrap(); // lazy rehydrate + replay
        let b = server.output(&hot).unwrap();
        assert_same_sssp(&a, &b, &format!("deletion replay ({mode:?})"));
    }
}

/// The partial layout pin: the serialized size of one SSSP and one CC
/// query's resident partials over a fixed small graph, as literals.  A
/// partial holds values in its fragment's local order and no vertex ids, so
/// a partial that starts carrying its fragment's id map again (or any other
/// per-vertex field) fails here, and with it the spill files and `Process`
/// pipe traffic that carry the same value trees.
#[test]
fn partial_bytes_pin_the_id_free_partial_layout() {
    for mode in MODES {
        let g = seeded_graph(0x1A70, 24, 60);
        let mut server = GrapeServer::new(session(mode), partition(&g));
        let sssp = server.register(Sssp, SsspQuery::new(0)).unwrap();
        let cc = server.register(Cc, CcQuery).unwrap();
        let bytes = |id| server.query_status(id).unwrap().partial_bytes;
        assert_eq!((bytes(sssp.id()), bytes(cc.id())), (615, 1_440), "{mode:?}");
    }
}

/// The serving path never builds the global graph.  The server starts from
/// a delta-produced version (which holds no graph, unlike a fresh
/// partition), registers SSSP and CC, and serves a mixed insert and churn
/// stream — the churn steps remove one edge and re-insert the one removed
/// before, so SSSP retracts and CC keeps its labels.  Every answer matches
/// its oracle over a mirror graph, and no timeline version's `source`
/// cache was ever filled: a stray `source()` on the update path would
/// bring back an `O(|G|)` cost per commit.
#[test]
fn serving_never_builds_the_global_graph() {
    for mode in MODES {
        let g = seeded_graph(0xB0A7, 40, 120);
        let start = partition(&g)
            .apply_delta(&GraphDelta::new())
            .unwrap()
            .fragmentation;
        let mut server = GrapeServer::new(session(mode), start);
        let sssp = server.register(Sssp, SsspQuery::new(0)).unwrap();
        let cc = server.register(Cc, CcQuery).unwrap();
        // Clones share each version's source cache.
        let mut versions = vec![server.fragmentation().clone()];
        let mut mirror = g.clone();
        let mut rng = StdRng::seed_from_u64(0xC4E2);
        let mut parked = None;
        for step in 0..12 {
            let delta = if step % 3 == 0 {
                insert_batch(&mut rng, 40, 3)
            } else {
                let e = mirror.edges()[rng.gen_range(0..mirror.num_edges())];
                let mut delta = GraphDelta::new().remove_edge(e.src, e.dst);
                if let Some(back) = parked.replace(e) {
                    delta = delta.add_edge_record(back);
                }
                delta
            };
            server.apply(&delta).unwrap();
            mirror = mirror.apply_delta(&delta).unwrap();
            versions.push(server.fragmentation().clone());

            let want: Vec<(VertexId, f64)> = dijkstra(&mirror, 0)
                .into_iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, d)| (v as VertexId, d))
                .collect();
            let dist = server.output(&sssp).unwrap();
            let mut got: Vec<(VertexId, f64)> = dist
                .distances()
                .iter()
                .filter(|(_, d)| d.is_finite())
                .map(|(&v, &d)| (v, d))
                .collect();
            got.sort_by_key(|&(v, _)| v);
            assert_eq!(got, want, "{mode:?} step {step}: sssp");
            let labels = server.output(&cc).unwrap();
            for (v, c) in connected_components(&mirror).into_iter().enumerate() {
                assert_eq!(
                    labels.labels()[&(v as VertexId)],
                    c,
                    "{mode:?} step {step}: cc"
                );
            }
        }
        for (version, frag) in versions.iter().enumerate() {
            assert!(
                !frag.source_is_built(),
                "{mode:?}: version {version} built the global graph"
            );
        }
    }
}

/// A delta past the id-growth bound is rejected before anything is
/// touched: the server's version, vertex count and answers stay as they
/// were, and the next delta — the largest id the bound allows — commits.
#[test]
fn a_delta_past_the_id_bound_changes_nothing() {
    use grape::core::serve::ServeError;
    use grape::graph::delta::ID_SLACK;
    for mode in MODES {
        let g = seeded_graph(0x1D5, 40, 120);
        let mut server = GrapeServer::new(session(mode), partition(&g));
        let sssp = server.register(Sssp, SsspQuery::new(0)).unwrap();
        let before = server.output(&sssp).unwrap().distances().clone();
        let n = g.num_vertices() as VertexId;
        let version = server.version();
        let past = GraphDelta::new().add_edge(0, n + ID_SLACK + 1);
        match server.apply(&past) {
            Err(ServeError::Delta(reason)) => assert!(
                reason.contains(&format!("{}", n + ID_SLACK + 1)),
                "{mode:?}: the error names the id: {reason}"
            ),
            other => panic!("{mode:?}: expected a rejected delta, got {other:?}"),
        }
        assert_eq!(server.version(), version, "{mode:?}: version");
        assert_eq!(
            server.fragmentation().gp().num_vertices(),
            g.num_vertices(),
            "{mode:?}: vertex count"
        );
        assert_eq!(server.output(&sssp).unwrap().distances(), &before);

        let allowed = GraphDelta::new().add_edge(0, n + ID_SLACK);
        server.apply(&allowed).unwrap();
        assert_eq!(server.version(), version + 1, "{mode:?}: next commit");
        assert_eq!(
            server.fragmentation().gp().num_vertices() as VertexId,
            n + ID_SLACK + 1,
            "{mode:?}: vertex count after the allowed delta"
        );
    }
}
