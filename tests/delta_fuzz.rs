//! Delta-fuzz equivalence harness: seeded random graphs + random **mixed**
//! (insert/delete) delta sequences, asserting that `PreparedQuery::update`
//! produces output identical to a full recompute on `G ⊕ ΔG` for **all
//! five** algorithm families — SSSP, CC, Sim, CF and SubIso — under both
//! [`EngineMode::Sync`] and the barrier-free [`EngineMode::Async`].
//!
//! Mixed batches exercise every row of the refresh decision table:
//!
//! * batches in a program's monotone direction take the IncEval-only path
//!   (`peval_calls == 0`),
//! * non-monotone batches the program retracts (SSSP edge removals, CC
//!   removals that split nothing) stay IncEval-only too — pinned over a
//!   churn stream of grid edges, `peval_calls == 0` every round,
//! * the other non-monotone batches take the **bounded refresh** — PEval
//!   re-roots only the damage frontier (`peval_calls == repeval.len()`),
//!   with a dedicated locality test pinning `peval_calls < num_fragments`
//!   when the damage is confined to one quotient component,
//! * a frontier covering everything degenerates into the classic full
//!   re-preparation.
//!
//! The tier-1 run uses a small fixed seed set; the `#[ignore]`-gated
//! `long_fuzz_*` variants (more seeds, larger graphs) run in the nightly
//! scheduled CI job alongside the `Scale::Large` profile.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use grape::algorithms::cc::{Cc, CcQuery};
use grape::algorithms::cf::{Cf, CfQuery};
use grape::algorithms::sim::{Sim, SimQuery};
use grape::algorithms::sssp::{Sssp, SsspQuery};
use grape::algorithms::subiso::{SubIso, SubIsoQuery};
use grape::core::config::EngineMode;
use grape::core::prepared::RefreshKind;
use grape::core::session::GrapeSession;
use grape::core::transport::TransportSpec;
use grape::core::worker_proto::locate_worker_binary;
use grape::graph::builder::GraphBuilder;
use grape::graph::delta::GraphDelta;
use grape::graph::generators::road_grid;
use grape::graph::graph::{Directedness, Graph};
use grape::graph::pattern::Pattern;
use grape::graph::types::Edge;
use grape::partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
use grape::partition::metis_like::MetisLike;
use grape::partition::strategy::PartitionStrategy;

const MODES: [EngineMode; 2] = [EngineMode::Sync, EngineMode::Async];

/// Size knobs: the tier-1 profile keeps `cargo test -q` fast; the nightly
/// profile fuzzes more seeds over larger graphs.
struct Profile {
    cases: u64,
    rounds: usize,
    max_n: u64,
    max_m: usize,
}

const TIER1: Profile = Profile {
    cases: 5,
    rounds: 3,
    max_n: 40,
    max_m: 140,
};

const NIGHTLY: Profile = Profile {
    cases: 24,
    rounds: 5,
    max_n: 160,
    max_m: 700,
};

fn session(workers: usize, mode: EngineMode) -> GrapeSession {
    session_over(workers, mode, TransportSpec::InProcess)
}

/// Same, with an explicit host — the axis the Process-transport fuzz rides.
fn session_over(workers: usize, mode: EngineMode, transport: TransportSpec) -> GrapeSession {
    GrapeSession::builder()
        .workers(workers)
        .mode(mode)
        .transport(transport)
        .build()
        .unwrap()
}

/// A random directed weighted labeled graph (same generator family as
/// `assurance.rs` / `incremental_equivalence.rs`).
fn arb_graph(rng: &mut StdRng, max_n: u64, max_m: usize, labels: u32) -> Graph {
    let n = rng.gen_range(6..max_n);
    let m = rng.gen_range(4..max_m);
    let mut b = GraphBuilder::new(Directedness::Directed).ensure_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            let w = rng.gen_range(1u32..10u32);
            b.push_edge(Edge::weighted(s, d, w as f64));
        }
    }
    if labels > 0 {
        for v in 0..n {
            b.push_vertex_label(v, (v as u32 % labels) + 1);
        }
    }
    b.build()
}

/// A random **mixed** batch: edge insertions (possibly to brand-new
/// vertices), distinct edge deletions drawn from the current edge list, and
/// the occasional vertex detachment.
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
    let mut seen = std::collections::HashSet::new();
    if m > 0 {
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
    // One in three batches also detaches a vertex.
    if rng.gen_range(0u32..3) == 0 && n > 4 {
        delta = delta.remove_vertex(rng.gen_range(0..n));
    }
    delta
}

/// Sanity assertions every update must satisfy, whatever path it took.
fn check_report(report: &grape::core::prepared::UpdateReport, m: usize, tag: &str) {
    assert_eq!(
        report.metrics.peval_calls,
        report.repeval.len(),
        "peval accounting diverges from the damage frontier ({tag})"
    );
    assert_eq!(report.affected_fragments, report.rebuilt.len(), "{tag}");
    assert_eq!(report.reused, m - report.rebuilt.len(), "{tag}");
    if report.kind != RefreshKind::Retracted {
        assert_eq!(
            report.retracted, 0,
            "only a retraction resets cells ({tag})"
        );
    }
    match report.kind {
        RefreshKind::Monotone | RefreshKind::Retracted => {
            assert!(report.incremental, "{tag}");
            assert_eq!(report.metrics.peval_calls, 0, "{tag}");
        }
        RefreshKind::Bounded => {
            assert!(!report.incremental, "{tag}");
            assert!(
                report.metrics.peval_calls < m,
                "bounded refresh must beat a full re-preparation ({tag})"
            );
        }
        RefreshKind::Full => {
            assert!(!report.incremental, "{tag}");
            assert_eq!(report.metrics.peval_calls, m, "{tag}");
        }
    }
}

fn fuzz_sssp(profile: &Profile, mode: EngineMode, transport: TransportSpec, seed_base: u64) {
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, profile.max_n, profile.max_m, 0);
        let fragments = rng.gen_range(2usize..6);
        let workers = rng.gen_range(1usize..4);
        let source = rng.gen_range(0u64..graph.num_vertices() as u64);

        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let s = session_over(workers, mode, transport);
        let mut prepared = s.prepare(frag, Sssp, SsspQuery::new(source)).unwrap();

        for round in 0..profile.rounds {
            let delta = mixed_delta(&mut rng, prepared.fragmentation().source(), 5, 3);
            if delta.is_empty() {
                continue;
            }
            let tag = format!("sssp case {case} round {round} {mode:?}");
            let report = prepared.update(&delta).unwrap();
            check_report(&report, prepared.fragmentation().num_fragments(), &tag);
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
                    "vertex {v} ({tag})"
                );
            }
        }
    }
}

fn fuzz_cc(profile: &Profile, mode: EngineMode, transport: TransportSpec, seed_base: u64) {
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, profile.max_n, profile.max_m, 0).to_undirected();
        let fragments = rng.gen_range(2usize..6);
        let workers = rng.gen_range(1usize..4);

        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let s = session_over(workers, mode, transport);
        let mut prepared = s.prepare(frag, Cc, CcQuery).unwrap();

        for round in 0..profile.rounds {
            let delta = mixed_delta(&mut rng, prepared.fragmentation().source(), 4, 3);
            if delta.is_empty() {
                continue;
            }
            let tag = format!("cc case {case} round {round} {mode:?}");
            let report = prepared.update(&delta).unwrap();
            check_report(&report, prepared.fragmentation().num_fragments(), &tag);
            let recompute = s.run(prepared.fragmentation(), &Cc, &CcQuery).unwrap();
            let output = prepared.output();
            for v in prepared.fragmentation().source().vertices() {
                assert_eq!(
                    output.component(v),
                    recompute.output.component(v),
                    "vertex {v} ({tag})"
                );
            }
        }
    }
}

fn fuzz_sim(profile: &Profile, mode: EngineMode, transport: TransportSpec, seed_base: u64) {
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, profile.max_n, profile.max_m, 4);
        let fragments = rng.gen_range(2usize..5);
        let workers = rng.gen_range(1usize..4);
        let pattern = Pattern::random(3, 4, &[1, 2, 3, 4], rng.gen_range(0u64..500));

        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let s = session_over(workers, mode, transport);
        let query = SimQuery::new(pattern.clone());
        let mut prepared = s.prepare(frag, Sim::new(), query.clone()).unwrap();

        for round in 0..profile.rounds {
            let delta = mixed_delta(&mut rng, prepared.fragmentation().source(), 3, 4);
            if delta.is_empty() {
                continue;
            }
            let tag = format!("sim case {case} round {round} {mode:?}");
            let report = prepared.update(&delta).unwrap();
            check_report(&report, prepared.fragmentation().num_fragments(), &tag);
            let recompute = s
                .run(prepared.fragmentation(), &Sim::new(), &query)
                .unwrap();
            assert_eq!(
                prepared.output().relation(),
                recompute.output.relation(),
                "{tag}"
            );
        }
    }
}

fn fuzz_subiso(profile: &Profile, mode: EngineMode, transport: TransportSpec, seed_base: u64) {
    // SubIso is NP-hard: keep the graphs a notch smaller than the profile.
    let max_n = profile.max_n.min(80);
    let max_m = profile.max_m.min(260);
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let graph = arb_graph(&mut rng, max_n, max_m, 3);
        let fragments = rng.gen_range(2usize..5);
        let workers = rng.gen_range(1usize..4);
        let pattern = Pattern::random(2, 2, &[1, 2, 3], rng.gen_range(0u64..500));

        let frag = HashEdgeCut::new(fragments).partition(&graph).unwrap();
        let s = session_over(workers, mode, transport);
        let query = SubIsoQuery::new(pattern.clone());
        let mut prepared = s.prepare(frag, SubIso, query.clone()).unwrap();

        for round in 0..profile.rounds {
            let delta = mixed_delta(&mut rng, prepared.fragmentation().source(), 3, 3);
            if delta.is_empty() {
                continue;
            }
            let tag = format!("subiso case {case} round {round} {mode:?}");
            let report = prepared.update(&delta).unwrap();
            check_report(&report, prepared.fragmentation().num_fragments(), &tag);
            let recompute = s.run(prepared.fragmentation(), &SubIso, &query).unwrap();
            let mut ours = prepared.output().matches().to_vec();
            let mut theirs = recompute.output.matches().to_vec();
            ours.sort_unstable();
            theirs.sort_unstable();
            assert_eq!(ours, theirs, "{tag}");
        }
    }
}

/// A random rating graph of `blocks` disjoint bipartite blocks (so the
/// quotient graph has several components and CF's component-closed frontier
/// can stay local), plus the id ranges of each block.
fn arb_rating_blocks(rng: &mut StdRng, blocks: usize) -> (Graph, Vec<(u64, u64)>) {
    let mut b = GraphBuilder::directed();
    let mut ranges = Vec::new();
    let mut base = 0u64;
    for _ in 0..blocks {
        let users = rng.gen_range(3u64..7);
        let items = rng.gen_range(2u64..5);
        let ratings = rng.gen_range(6usize..18);
        for _ in 0..ratings {
            let u = base + rng.gen_range(0..users);
            let i = base + users + rng.gen_range(0..items);
            let score = 1.0 + rng.gen_range(0u32..5) as f64;
            b.push_edge(Edge::weighted(u, i, score));
        }
        ranges.push((base, base + users + items));
        base += users + items;
    }
    (b.build(), ranges)
}

fn fuzz_cf(profile: &Profile, mode: EngineMode, transport: TransportSpec, seed_base: u64) {
    // CF's SGD is trajectory-dependent: the engine is deterministic under
    // Sync for any worker count, and under Async only for a single worker
    // (one drain order); the fuzz compares exact factor maps, so it pins
    // those configurations.
    let workers = match mode {
        EngineMode::Sync => 2,
        EngineMode::Async => 1,
    };
    for case in 0..profile.cases {
        let mut rng = StdRng::seed_from_u64(seed_base + case);
        let (graph, ranges) = arb_rating_blocks(&mut rng, 3);
        let fragments = rng.gen_range(3usize..6);
        let frag = RangeEdgeCut::new(fragments).partition(&graph).unwrap();
        let s = session_over(workers, mode, transport);
        let query = CfQuery {
            epochs: 3,
            num_factors: 4,
            ..Default::default()
        };
        let mut prepared = s.prepare(frag, Cf, query.clone()).unwrap();

        for round in 0..profile.rounds {
            // New ratings confined to one random block (the evolving-graph
            // shape: updates cluster), occasionally removing one too.
            let (lo, hi) = ranges[rng.gen_range(0..ranges.len() as u64) as usize];
            let mut delta = GraphDelta::new();
            for _ in 0..rng.gen_range(1usize..4) {
                let u = rng.gen_range(lo..hi);
                let i = rng.gen_range(lo..hi);
                if u != i {
                    delta = delta.add_weighted_edge(u, i, 1.0 + rng.gen_range(0u32..5) as f64);
                }
            }
            if delta.is_empty() {
                continue;
            }
            let tag = format!("cf case {case} round {round} {mode:?}");
            let report = prepared.update(&delta).unwrap();
            check_report(&report, prepared.fragmentation().num_fragments(), &tag);
            let recompute = s.run(prepared.fragmentation(), &Cf, &query).unwrap();
            assert_eq!(
                prepared.output().into_factors(),
                recompute.output.into_factors(),
                "{tag}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tier-1 fixed-seed matrix (runs in CI under both engine-mode defaults)
// ---------------------------------------------------------------------------

#[test]
fn sssp_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    for mode in MODES {
        fuzz_sssp(&TIER1, mode, TransportSpec::InProcess, 0xF0_0100);
    }
}

#[test]
fn cc_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    for mode in MODES {
        fuzz_cc(&TIER1, mode, TransportSpec::InProcess, 0xF0_0200);
    }
}

#[test]
fn sim_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    for mode in MODES {
        fuzz_sim(&TIER1, mode, TransportSpec::InProcess, 0xF0_0300);
    }
}

#[test]
fn subiso_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    for mode in MODES {
        fuzz_subiso(&TIER1, mode, TransportSpec::InProcess, 0xF0_0400);
    }
}

#[test]
fn cf_rating_delta_fuzz_matches_recompute_in_both_modes() {
    for mode in MODES {
        fuzz_cf(&TIER1, mode, TransportSpec::InProcess, 0xF0_0500);
    }
}

/// The bounded-refresh acceptance pin: a non-monotone delta confined to one
/// quotient component re-roots strictly fewer fragments than a full
/// re-preparation, in both modes, for the three Assurance-Theorem programs.
#[test]
fn localized_nonmonotone_damage_keeps_peval_below_fragment_count() {
    // Two disjoint 12-vertex chains over four range fragments: {0,1} cover
    // the first chain, {2,3} the second.  All deltas touch the second chain.
    fn two_chain_graph(directed: bool) -> Graph {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for v in 0..11u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        for v in 12..23u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        for v in 0..24u64 {
            b.push_vertex_label(v, 1 + (v % 2) as u32);
        }
        b.build()
    }

    for mode in MODES {
        let s = session(2, mode);

        // SSSP: deleting an edge of the second chain retracts the chain's
        // tail (no PEval at all); detaching a vertex there is declined and
        // takes the bounded refresh.
        let g = two_chain_graph(true);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let mut prepared = s.prepare(frag, Sssp, SsspQuery::new(12)).unwrap();
        for (delta, kind) in [
            (
                GraphDelta::new().remove_edge(14, 15),
                RefreshKind::Retracted,
            ),
            (GraphDelta::new().remove_vertex(13), RefreshKind::Bounded),
        ] {
            let report = prepared.update(&delta).unwrap();
            assert_eq!(report.kind, kind, "sssp {mode:?}");
            assert!(
                report.metrics.peval_calls < prepared.fragmentation().num_fragments(),
                "sssp {mode:?}: localized damage must not re-prepare everywhere"
            );
            assert!(report.repeval.iter().all(|&i| i >= 2), "sssp {mode:?}");
            let recompute = s
                .run(prepared.fragmentation(), &Sssp, &SsspQuery::new(12))
                .unwrap();
            for v in prepared.fragmentation().source().vertices() {
                assert_eq!(
                    prepared.output().distance(v).map(|d| d.to_bits()),
                    recompute.output.distance(v).map(|d| d.to_bits()),
                    "sssp vertex {v} {mode:?} {kind:?}"
                );
            }
        }

        // CC: split the second chain.
        let g = two_chain_graph(false);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let mut prepared = s.prepare(frag, Cc, CcQuery).unwrap();
        let report = prepared
            .update(&GraphDelta::new().remove_edge(17, 18))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded, "cc {mode:?}");
        assert!(
            report.metrics.peval_calls < prepared.fragmentation().num_fragments(),
            "cc {mode:?}"
        );
        let recompute = s.run(prepared.fragmentation(), &Cc, &CcQuery).unwrap();
        for v in prepared.fragmentation().source().vertices() {
            assert_eq!(
                prepared.output().component(v),
                recompute.output.component(v),
                "cc vertex {v} {mode:?}"
            );
        }

        // Sim: insert a match-resurrecting edge in the second chain.
        let g = two_chain_graph(true);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let pattern = Pattern::new(vec![1, 1], vec![(0, 1)]);
        let query = SimQuery::new(pattern);
        let mut prepared = s.prepare(frag, Sim::new(), query.clone()).unwrap();
        let report = prepared
            .update(&GraphDelta::new().add_edge(12, 14))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded, "sim {mode:?}");
        assert!(
            report.metrics.peval_calls < prepared.fragmentation().num_fragments(),
            "sim {mode:?}"
        );
        assert!(report.repeval.iter().all(|&i| i >= 2), "sim {mode:?}");
        let recompute = s
            .run(prepared.fragmentation(), &Sim::new(), &query)
            .unwrap();
        assert_eq!(
            prepared.output().relation(),
            recompute.output.relation(),
            "sim {mode:?}"
        );
    }
}

/// The serving churn shape over a road grid: round `i` removes grid edge
/// `e_i` and re-inserts `e_{i−1}`, so every delta is non-monotone and the
/// graph is stationary.  SSSP retracts each removal and CC keeps its labels
/// (nothing splits a grid): zero PEval every round, and both answers equal
/// a from-scratch recompute bit for bit.
fn churn_stream(mode: EngineMode, transport: TransportSpec, rounds: usize, seed: u64) {
    let g = road_grid(8, 8, seed);
    let strategies: [Box<dyn PartitionStrategy>; 2] =
        [Box::new(HashEdgeCut::new(4)), Box::new(MetisLike::new(4))];
    for strategy in &strategies {
        let frag = strategy.partition(&g).unwrap();
        let s = session_over(2, mode, transport);
        let source = seed % g.num_vertices() as u64;
        let mut sssp = s
            .prepare(frag.clone(), Sssp, SsspQuery::new(source))
            .unwrap();
        let mut cc = s.prepare(frag, Cc, CcQuery).unwrap();

        let mut order = g.edges().to_vec();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut missing: Option<Edge> = None;
        for (round, e) in order.iter().take(rounds).enumerate() {
            let mut delta = GraphDelta::new().remove_edge(e.src, e.dst);
            if let Some(back) = missing.replace(*e) {
                delta = delta.add_edge_record(back);
            }
            let tag = format!("churn round {round} seed {seed} {mode:?} {transport:?}");

            let report = sssp.update(&delta).unwrap();
            check_report(&report, 4, &tag);
            assert_eq!(report.kind, RefreshKind::Retracted, "sssp {tag}");
            let recompute = s
                .run(sssp.fragmentation(), &Sssp, &SsspQuery::new(source))
                .unwrap();
            let output = sssp.output();
            for v in g.vertices() {
                assert_eq!(
                    output.distance(v).map(f64::to_bits),
                    recompute.output.distance(v).map(f64::to_bits),
                    "sssp vertex {v} {tag}"
                );
            }

            let report = cc.update(&delta).unwrap();
            check_report(&report, 4, &tag);
            assert_eq!(report.kind, RefreshKind::Retracted, "cc {tag}");
            let recompute = s.run(cc.fragmentation(), &Cc, &CcQuery).unwrap();
            let output = cc.output();
            for v in g.vertices() {
                assert_eq!(
                    output.component(v),
                    recompute.output.component(v),
                    "cc vertex {v} {tag}"
                );
            }
        }
    }
}

#[test]
fn churn_stream_retracts_without_peval_in_both_modes() {
    for mode in MODES {
        for seed in [1, 2] {
            churn_stream(mode, TransportSpec::InProcess, 24, seed);
        }
    }
}

// ---------------------------------------------------------------------------
// Process-transport axis: the same harness with fragments sharded across
// grape-worker subprocesses.  Every prepare *and* every refresh spawns a
// worker pool, so the tier-1 profile is deliberately small; the full
// five-family sweep is `#[ignore]`-gated into the nightly budget.
// ---------------------------------------------------------------------------

/// Reduced-seed profile for the subprocess axis (spawn cost per update).
const PROCESS_TIER1: Profile = Profile {
    cases: 2,
    rounds: 2,
    max_n: 30,
    max_m: 100,
};

const PROCESS_SPEC: TransportSpec = TransportSpec::Process { workers: 2 };

/// `true` when the grape-worker binary is discoverable; a workspace
/// `cargo test` always builds it, but a bare `cargo test --test delta_fuzz`
/// on a cold tree may not — skip loudly rather than fail.
fn process_axis_available() -> bool {
    if locate_worker_binary().is_some() {
        true
    } else {
        eprintln!(
            "skipping Process-transport fuzz: grape-worker binary not built \
             (run `cargo build -p grape-daemon --bins` first)"
        );
        false
    }
}

#[test]
fn process_transport_delta_fuzz_matches_recompute_in_both_modes() {
    if !process_axis_available() {
        return;
    }
    for mode in MODES {
        fuzz_sssp(&PROCESS_TIER1, mode, PROCESS_SPEC, 0xF2_0100);
        fuzz_cc(&PROCESS_TIER1, mode, PROCESS_SPEC, 0xF2_0200);
        fuzz_sim(&PROCESS_TIER1, mode, PROCESS_SPEC, 0xF2_0300);
        churn_stream(mode, PROCESS_SPEC, 3, 3);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_process_transport_all_families() {
    if !process_axis_available() {
        return;
    }
    for mode in MODES {
        fuzz_sssp(&TIER1, mode, PROCESS_SPEC, 0xF2_1100);
        fuzz_cc(&TIER1, mode, PROCESS_SPEC, 0xF2_1200);
        fuzz_sim(&TIER1, mode, PROCESS_SPEC, 0xF2_1300);
        fuzz_subiso(&TIER1, mode, PROCESS_SPEC, 0xF2_1400);
        fuzz_cf(&TIER1, mode, PROCESS_SPEC, 0xF2_1500);
    }
}

// ---------------------------------------------------------------------------
// Nightly long-fuzz profile (more seeds, larger graphs) — `#[ignore]`-gated,
// run by the scheduled CI job: `cargo test --release --test delta_fuzz --
// --ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_sssp() {
    for mode in MODES {
        fuzz_sssp(&NIGHTLY, mode, TransportSpec::InProcess, 0xF1_0100);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_cc() {
    for mode in MODES {
        fuzz_cc(&NIGHTLY, mode, TransportSpec::InProcess, 0xF1_0200);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_sim() {
    for mode in MODES {
        fuzz_sim(&NIGHTLY, mode, TransportSpec::InProcess, 0xF1_0300);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_subiso() {
    for mode in MODES {
        fuzz_subiso(&NIGHTLY, mode, TransportSpec::InProcess, 0xF1_0400);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_cf() {
    for mode in MODES {
        fuzz_cf(&NIGHTLY, mode, TransportSpec::InProcess, 0xF1_0500);
    }
}
