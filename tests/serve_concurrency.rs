//! Concurrent-serving fuzz: seeded random graphs + mixed delta streams
//! driven through [`GrapeServer`]s that differ **only** in their refresh
//! fan-out width ({1, 2, 4} threads), asserting that
//!
//! * every width produces byte-identical answers — to each other and to a
//!   full recompute on the evolved graph,
//! * every width produces the same [`ServeReport`] contents (ids, refresh
//!   kinds, rebuilt sets, poison/deferral bookkeeping) — the fan-out
//!   completes in arbitrary order but the merged report never shows it,
//! * mid-stream eviction/rehydration and failure injection (the
//!   [`TrippablePrepare`] behind/poisoned protocol) behave identically at
//!   every width,
//! * `apply_batch` lands on the same answers as one `apply` per delta.
//!
//! Both [`EngineMode::Sync`] and [`EngineMode::Async`] run in tier-1 with a
//! fixed seed set (8 seeds per mode); the `#[ignore]`-gated `long_fuzz_*`
//! variants run in the nightly scheduled CI job.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grape::algorithms::sssp::{Sssp, SsspQuery};
use grape::core::config::EngineMode;
use grape::core::serve::{GrapeServer, QueryHandle, ServeReport};
use grape::core::session::GrapeSession;
use grape::core::test_support::{ring_graph, MinForward, TrippablePrepare};
use grape::graph::builder::GraphBuilder;
use grape::graph::delta::GraphDelta;
use grape::graph::graph::{Directedness, Graph};
use grape::graph::types::Edge;
use grape::partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
use grape::partition::strategy::PartitionStrategy;

const MODES: [EngineMode; 2] = [EngineMode::Sync, EngineMode::Async];
const WIDTHS: [usize; 3] = [1, 2, 4];

/// Size knobs: tier-1 keeps `cargo test -q` fast; nightly fuzzes more
/// seeds over larger graphs.
struct Profile {
    cases: u64,
    rounds: usize,
    max_n: u64,
    max_m: usize,
}

const TIER1: Profile = Profile {
    cases: 8,
    rounds: 3,
    max_n: 30,
    max_m: 100,
};

const NIGHTLY: Profile = Profile {
    cases: 24,
    rounds: 5,
    max_n: 120,
    max_m: 500,
};

fn session(workers: usize, mode: EngineMode, refresh_threads: usize) -> GrapeSession {
    GrapeSession::builder()
        .workers(workers)
        .mode(mode)
        .refresh_threads(refresh_threads)
        .build()
        .unwrap()
}

/// A random directed weighted graph (the `delta_fuzz.rs` generator family).
fn arb_graph(rng: &mut StdRng, max_n: u64, max_m: usize) -> Graph {
    let n = rng.gen_range(8..max_n.max(10));
    let m = rng.gen_range(6..max_m);
    let mut b = GraphBuilder::new(Directedness::Directed).ensure_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            let w = rng.gen_range(1u32..10u32);
            b.push_edge(Edge::weighted(s, d, w as f64));
        }
    }
    b.build()
}

/// A random **mixed** batch against the current graph: insertions (possibly
/// to brand-new vertices) plus deletions drawn from the live edge list, so
/// the stream alternates between the monotone and non-monotone refresh
/// paths.
fn mixed_delta(rng: &mut StdRng, g: &Graph, inserts: usize, deletes: usize) -> GraphDelta {
    let n = g.num_vertices() as u64;
    let m = g.num_edges();
    let mut delta = GraphDelta::new();
    for _ in 0..inserts {
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
    // Half the batches are insert-only (the monotone path).
    if m > 0 && rng.gen_range(0u32..2) == 0 {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..deletes * 3 {
            if seen.len() >= deletes.min(m) {
                break;
            }
            let e = g.edges()[rng.gen_range(0..m as u64) as usize];
            if seen.insert((e.src, e.dst)) {
                delta = delta.remove_edge(e.src, e.dst);
            }
        }
    }
    delta
}

/// The width-independent content of a [`ServeReport`]: everything except
/// the raw engine metrics (whose message/superstep counts the async runtime
/// does not guarantee to be schedule-independent).  Also asserts the
/// per-query entries arrive sorted by id — the determinism contract of the
/// merged fan-out.
fn report_digest(r: &ServeReport, tag: &str) -> Vec<String> {
    let ids: Vec<usize> = r.refreshed.iter().map(|q| q.query).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "refreshed entries not sorted by id ({tag})");

    let mut digest = vec![format!(
        "version={} rebuilt={:?} reused={} caught_up={:?} deferred={:?} poisoned={:?}",
        r.version, r.rebuilt, r.reused, r.caught_up, r.deferred, r.poisoned
    )];
    for q in &r.refreshed {
        digest.push(match &q.result {
            Ok(u) => format!(
                "q{} ok kind={:?} rebuilt={:?} reused={} incremental={}",
                q.query, u.kind, u.rebuilt, u.reused, u.incremental
            ),
            Err(e) => format!("q{} err {e}", q.query),
        });
    }
    digest
}

/// One server per fan-out width over the same fragmentation — each on its
/// own session, built with that width — with the same K SSSP queries plus
/// one MinForward query registered in the same order.
struct Fleet {
    servers: Vec<GrapeServer>,
    sssp: Vec<Vec<QueryHandle<Sssp>>>,
    min: Vec<QueryHandle<MinForward>>,
}

impl Fleet {
    fn new(
        workers: usize,
        mode: EngineMode,
        graph: &Graph,
        fragments: usize,
        sources: &[u64],
    ) -> Fleet {
        let frag = HashEdgeCut::new(fragments).partition(graph).unwrap();
        let mut servers = Vec::new();
        let mut sssp = Vec::new();
        let mut min = Vec::new();
        for &w in &WIDTHS {
            let mut server = GrapeServer::new(session(workers, mode, w), frag.clone());
            sssp.push(
                sources
                    .iter()
                    .map(|&src| server.register(Sssp, SsspQuery::new(src)).unwrap())
                    .collect(),
            );
            min.push(server.register(MinForward, ()).unwrap());
            servers.push(server);
        }
        Fleet { servers, sssp, min }
    }

    /// Applies `delta` to every server and asserts the reports are
    /// width-independent.
    fn apply_all(&mut self, delta: &GraphDelta, tag: &str) -> Vec<ServeReport> {
        let reports: Vec<ServeReport> = self
            .servers
            .iter_mut()
            .map(|srv| srv.apply(delta).unwrap())
            .collect();
        let baseline = report_digest(&reports[0], tag);
        for (i, r) in reports.iter().enumerate().skip(1) {
            assert_eq!(
                report_digest(r, tag),
                baseline,
                "threads={} diverged from threads=1 ({tag})",
                WIDTHS[i]
            );
        }
        reports
    }

    /// Asserts every width's answers equal each other and a full recompute.
    fn check_outputs(&mut self, s: &GrapeSession, sources: &[u64], tag: &str) {
        let frag = self.servers[0].fragmentation().clone();
        for (qi, &src) in sources.iter().enumerate() {
            let recompute = s.run(&frag, &Sssp, &SsspQuery::new(src)).unwrap();
            for (si, handles) in self.sssp.iter().enumerate() {
                let out = self.servers[si].output(&handles[qi]).unwrap();
                for v in frag.source().vertices() {
                    assert_eq!(
                        out.distance(v).map(|d| d.to_bits()),
                        recompute.output.distance(v).map(|d| d.to_bits()),
                        "threads={} sssp q{qi} vertex {v} ({tag})",
                        WIDTHS[si]
                    );
                }
            }
        }
        let recompute = s.run(&frag, &MinForward, &()).unwrap();
        for (si, handle) in self.min.clone().iter().enumerate() {
            assert_eq!(
                self.servers[si].output(handle).unwrap(),
                recompute.output,
                "threads={} min-forward ({tag})",
                WIDTHS[si]
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz bodies
// ---------------------------------------------------------------------------

/// Core equivalence fuzz: K queries, mixed stream, widths {1, 2, 4}.
fn fuzz_fan_out(profile: &Profile, mode: EngineMode, seed_base: u64) {
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, profile.max_n, profile.max_m);
        let fragments = rng.gen_range(2usize..6);
        let workers = rng.gen_range(1usize..3);
        let k = rng.gen_range(3usize..7);
        let n = graph.num_vertices() as u64;
        let sources: Vec<u64> = (0..k).map(|_| rng.gen_range(0..n)).collect();

        let s = session(workers, mode, 1);
        let mut fleet = Fleet::new(workers, mode, &graph, fragments, &sources);
        for round in 0..profile.rounds {
            let current = fleet.servers[0].fragmentation().source().clone();
            let delta = mixed_delta(&mut rng, &current, 5, 3);
            if delta.is_empty() {
                continue;
            }
            let tag = format!("fan-out case {case} round {round} {mode:?}");
            fleet.apply_all(&delta, &tag);
            fleet.check_outputs(&s, &sources, &tag);
        }
    }
}

/// Eviction fuzz: random evict/rehydrate of the same queries at the same
/// stream positions on every width; deferral bookkeeping and the replayed
/// catch-up must be width-independent.
fn fuzz_mid_stream_eviction(profile: &Profile, mode: EngineMode, seed_base: u64) {
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, profile.max_n, profile.max_m);
        let fragments = rng.gen_range(2usize..5);
        let k = rng.gen_range(3usize..6);
        let n = graph.num_vertices() as u64;
        let sources: Vec<u64> = (0..k).map(|_| rng.gen_range(0..n)).collect();

        let s = session(2, mode, 1);
        let mut fleet = Fleet::new(2, mode, &graph, fragments, &sources);
        let mut cold: Option<usize> = None;
        for round in 0..profile.rounds + 2 {
            // Flip one query's residency before this round's delta.
            match cold {
                None if rng.gen_range(0u32..2) == 0 => {
                    let qi = rng.gen_range(0..k as u64) as usize;
                    for (si, handles) in fleet.sssp.iter().enumerate() {
                        fleet.servers[si].evict(&handles[qi]).unwrap();
                    }
                    cold = Some(qi);
                }
                Some(qi) if rng.gen_range(0u32..2) == 0 => {
                    let mut replays: Vec<(usize, usize)> = Vec::new();
                    for (si, handles) in fleet.sssp.iter().enumerate() {
                        let report = fleet.servers[si].rehydrate(&handles[qi]).unwrap();
                        replays.push((report.replayed.len(), report.peval_calls()));
                    }
                    assert!(
                        replays.windows(2).all(|w| w[0] == w[1]),
                        "rehydration replay diverged across widths \
                         (case {case} {mode:?}): {replays:?}"
                    );
                    cold = None;
                }
                _ => {}
            }

            let current = fleet.servers[0].fragmentation().source().clone();
            let delta = mixed_delta(&mut rng, &current, 4, 2);
            if delta.is_empty() {
                continue;
            }
            let tag = format!("evict case {case} round {round} {mode:?}");
            let reports = fleet.apply_all(&delta, &tag);
            if let Some(qi) = cold {
                let id = fleet.sssp[0][qi].id();
                assert!(
                    reports[0].deferred.contains(&id),
                    "cold query {id} not deferred ({tag})"
                );
            }
        }
        // Everyone warm again, then verify against a recompute.
        if let Some(qi) = cold {
            for (si, handles) in fleet.sssp.iter().enumerate() {
                fleet.servers[si].rehydrate(&handles[qi]).unwrap();
            }
        }
        let tag = format!("evict case {case} final {mode:?}");
        fleet.check_outputs(&s, &sources, &tag);
    }
}

/// Batch fuzz: the same stream absorbed delta-by-delta and as one
/// `apply_batch` must land on the same answers and the same version.
fn fuzz_batch(profile: &Profile, mode: EngineMode, seed_base: u64) {
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, profile.max_n, profile.max_m);
        let fragments = rng.gen_range(2usize..5);
        let k = rng.gen_range(2usize..5);
        let n = graph.num_vertices() as u64;
        let sources: Vec<u64> = (0..k).map(|_| rng.gen_range(0..n)).collect();
        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();

        let s = session(2, mode, 2);
        let register = |server: &mut GrapeServer| -> Vec<QueryHandle<Sssp>> {
            sources
                .iter()
                .map(|&src| server.register(Sssp, SsspQuery::new(src)).unwrap())
                .collect()
        };
        let mut sequential = GrapeServer::new(s.clone(), frag.clone());
        let mut batched = GrapeServer::new(s.clone(), frag);
        let seq_handles = register(&mut sequential);
        let batch_handles = register(&mut batched);

        // Build the stream against the sequential server's evolving graph.
        let mut deltas = Vec::new();
        for _ in 0..profile.rounds + 2 {
            let current = sequential.fragmentation().source().clone();
            let delta = mixed_delta(&mut rng, &current, 4, 2);
            if delta.is_empty() {
                continue;
            }
            sequential.apply(&delta).unwrap();
            deltas.push(delta);
        }
        if deltas.is_empty() {
            continue;
        }

        let report = batched.apply_batch(&deltas);
        assert!(
            report.rejected.is_none(),
            "batch rejected a replayed delta (case {case} {mode:?})"
        );
        assert_eq!(report.reports.len(), deltas.len(), "case {case}");
        assert_eq!(sequential.version(), deltas.len(), "case {case}");
        assert_eq!(batched.version(), deltas.len(), "case {case}");

        for (qi, &src) in sources.iter().enumerate() {
            let recompute = s
                .run(sequential.fragmentation(), &Sssp, &SsspQuery::new(src))
                .unwrap();
            let seq = sequential.output(&seq_handles[qi]).unwrap();
            let bat = batched.output(&batch_handles[qi]).unwrap();
            for v in sequential.fragmentation().source().vertices() {
                let want = recompute.output.distance(v).map(|d| d.to_bits());
                let tag = format!("batch case {case} q{qi} vertex {v} {mode:?}");
                assert_eq!(seq.distance(v).map(|d| d.to_bits()), want, "seq {tag}");
                assert_eq!(bat.distance(v).map(|d| d.to_bits()), want, "bat {tag}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tier-1 fixed-seed matrix
// ---------------------------------------------------------------------------

#[test]
fn fan_out_fuzz_matches_sequential_and_recompute_in_both_modes() {
    for mode in MODES {
        fuzz_fan_out(&TIER1, mode, 0xC0_0100);
    }
}

#[test]
fn mid_stream_eviction_fuzz_is_width_independent_in_both_modes() {
    for mode in MODES {
        fuzz_mid_stream_eviction(&TIER1, mode, 0xC0_0200);
    }
}

#[test]
fn batch_pipelining_fuzz_matches_sequential_server_in_both_modes() {
    for mode in MODES {
        fuzz_batch(&TIER1, mode, 0xC0_0300);
    }
}

/// Failure injection at every width: a tripped full re-preparation leaves
/// the query *behind* (caught up after healing), and a diverging monotone
/// refresh *poisons* it — with identical bookkeeping at widths 1 and 4
/// while healthy co-resident queries keep serving exact answers.
#[test]
fn poisoned_and_behind_queries_are_width_independent() {
    for mode in MODES {
        let graph = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&graph).unwrap();
        // A tight superstep limit makes the injected divergence fail fast
        // (MinForward still converges on the range-cut ring well within it).
        let session_at = |width: usize| {
            GrapeSession::builder()
                .workers(2)
                .mode(mode)
                .max_supersteps(4)
                .refresh_threads(width)
                .build()
                .unwrap()
        };
        let s = session_at(1);

        let mut fleets = Vec::new();
        for &w in &[1usize, 4] {
            let mut server = GrapeServer::new(session_at(w), frag.clone());
            let flaky_prog = TrippablePrepare::new();
            let flaky = server.register(flaky_prog.clone(), ()).unwrap();
            let healthy = server.register(MinForward, ()).unwrap();
            fleets.push((server, flaky_prog, flaky, healthy));
        }

        // Tripped: the full re-preparation fails, the query stays behind,
        // the server keeps serving the healthy query.
        let insert = GraphDelta::new().add_edge(0, 6);
        for (server, prog, flaky, _) in fleets.iter_mut() {
            prog.trip();
            let r = server.apply(&insert).unwrap();
            let entry = r
                .refreshed
                .iter()
                .find(|q| q.query == flaky.id())
                .expect("flaky refresh entry");
            assert!(entry.result.is_err(), "{mode:?}: tripped prepare succeeded");
            assert!(
                r.poisoned.is_empty(),
                "{mode:?}: full-path failure poisoned"
            );
        }

        // Healed: the next delta catches the behind query up first.
        let insert2 = GraphDelta::new().add_edge(1, 7);
        for (server, prog, flaky, _) in fleets.iter_mut() {
            prog.heal();
            let r = server.apply(&insert2).unwrap();
            assert_eq!(r.caught_up, vec![flaky.id()], "{mode:?}: no catch-up");
            let entry = r
                .refreshed
                .iter()
                .find(|q| q.query == flaky.id())
                .expect("flaky refresh entry");
            assert!(entry.result.is_ok(), "{mode:?}: healed refresh failed");
        }

        // Poisoned: a diverging monotone refresh wrecks the query; later
        // deltas skip it, at every width, and say so.
        let insert3 = GraphDelta::new().add_edge(2, 8);
        let insert4 = GraphDelta::new().add_edge(3, 9);
        for (server, prog, flaky, healthy) in fleets.iter_mut() {
            prog.allow_monotone_inserts();
            let r = server.apply(&insert3).unwrap();
            let entry = r
                .refreshed
                .iter()
                .find(|q| q.query == flaky.id())
                .expect("flaky refresh entry");
            assert!(entry.result.is_err(), "{mode:?}: diverging refresh passed");
            let r = server.apply(&insert4).unwrap();
            assert_eq!(r.poisoned, vec![flaky.id()], "{mode:?}: not poisoned");
            assert!(server.output(flaky).is_err(), "{mode:?}: poisoned output");

            let recompute = s.run(server.fragmentation(), &MinForward, &()).unwrap();
            assert_eq!(
                server.output(healthy).unwrap(),
                recompute.output,
                "{mode:?}: healthy query diverged after co-resident poison"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Nightly long-fuzz profile — `#[ignore]`-gated, run by the scheduled CI
// job: `cargo test --release --test serve_concurrency -- --ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_fan_out() {
    for mode in MODES {
        fuzz_fan_out(&NIGHTLY, mode, 0xC1_0100);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_mid_stream_eviction() {
    for mode in MODES {
        fuzz_mid_stream_eviction(&NIGHTLY, mode, 0xC1_0200);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_batch() {
    for mode in MODES {
        fuzz_batch(&NIGHTLY, mode, 0xC1_0300);
    }
}
