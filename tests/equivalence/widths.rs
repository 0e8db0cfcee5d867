//! Fan-out width 1 ≡ 2 ≡ 4, and batch ≡ sequential: servers that differ
//! only in their refresh fan-out width produce byte-identical answers (to
//! each other and to a recompute) and the same `ServeReport` contents —
//! ids, refresh kinds, rebuilt sets, poison and deferral bookkeeping —
//! through mid-stream eviction and rehydration too; the fan-out completes
//! in arbitrary order but the merged report never shows it.  `apply_batch`
//! lands on the answers of one `apply` per delta, and failure injection
//! (the `TrippablePrepare` behind/poisoned protocol) behaves identically at
//! every width.

use grape::core::test_support::{ring_graph, MinForward, TrippablePrepare};
use grape::partition::edge_cut::RangeEdgeCut;
use grape::prelude::*;

use crate::harness::*;

const WIDTHS: [usize; 3] = [1, 2, 4];

/// What width 1 and the wider runs record: every commit, width 1 against a
/// recompute; or only the ends, width 1's end against a recompute.
const EVERY_COMMIT: [Record; 2] = [Record::CommitsExact, Record::Commits];
const ENDS: [Record; 2] = [Record::EndsExact, Record::Ends];

/// K SSSP queries over mixed streams; nightly fuzzes more seeds over
/// larger graphs.
const FAN_OUT: Profile = Profile {
    cases: 8,
    rounds: 3,
    workers: (1, 3),
    queries: (3, 7),
    mixes: &[Mix::Coin(5, 3)],
    ..BASE.sized((8, 30), (6, 100))
};

const EVICTION: Profile = Profile {
    rounds: 5,
    fragments: Some((2, 5)),
    workers: (2, 3),
    queries: (3, 6),
    mixes: &[Mix::Coin(4, 2)],
    ..FAN_OUT
};

const BATCH: Profile = Profile {
    queries: (2, 5),
    ..EVICTION
};

const fn nightly(p: Profile) -> Profile {
    Profile {
        cases: 24,
        rounds: p.rounds + 2,
        ..p.sized((8, 120), (6, 500))
    }
}

/// One server per width, each with the family's queries plus one
/// `MinForward` query registered in the same order: width 1 matches a
/// recompute wherever `records` asks, and every width matches width 1's
/// recorded answers, its report digests and its rehydrations.
fn agree(p: &Profile, evict: Evict, records: [Record; 2], seed_base: u64) {
    for mode in MODES {
        for case in 0..p.cases {
            let traces = WIDTHS.map(|width| {
                let axes = Axes {
                    width,
                    evict,
                    ..Axes::new(Family::Sssp, mode)
                };
                let mut stand = stand(Family::Sssp, p, axes, seed_base + case);
                stand.members.push(serve(&mut stand.server, MinForward, ()));
                stand.drive(records[usize::from(width > 1)])
            });
            traces[0].assert_exact();
            for (t, width) in traces.iter().zip(WIDTHS).skip(1) {
                let tag = format!("{}: width {width} vs 1", t.tag);
                assert_eq!(t.answers(), traces[0].answers(), "{tag}: answers");
                assert_eq!(t.digests(), traces[0].digests(), "{tag}: reports");
                let replays = &traces[0].rehydrations;
                assert_eq!(&t.rehydrations, replays, "{tag}: rehydration replays");
            }
        }
    }
}

/// The same stream absorbed delta by delta and as one `apply_batch` lands
/// on the same answers and the same version.
fn batch(p: &Profile, seed_base: u64) {
    for mode in MODES {
        let axes = Axes {
            width: 2,
            ..Axes::new(Family::Sssp, mode)
        };
        for case in 0..p.cases {
            let sequential =
                stand(Family::Sssp, p, axes, seed_base + case).drive(Record::EndsExact);
            let deltas = &sequential.deltas;
            if deltas.is_empty() {
                continue;
            }
            sequential.assert_exact();
            let tag = &sequential.tag;
            let mut batched = stand(Family::Sssp, p, axes, seed_base + case);
            let report = batched.server.apply_batch(deltas);
            assert!(
                report.rejected.is_none(),
                "batch rejected a replayed delta ({tag})"
            );
            assert_eq!(report.reports.len(), deltas.len(), "{tag}");
            assert_eq!(sequential.version, deltas.len(), "{tag}");
            assert_eq!(batched.server.version(), deltas.len(), "{tag}");
            let last = &sequential.commits.last().unwrap().answers;
            for (member, want) in batched.members.iter().zip(last) {
                let got = member.answer(&batched.server);
                assert_eq!(Some(&got), want.as_ref(), "bat {tag}");
            }
        }
    }
}

#[test]
fn fan_out_fuzz_matches_sequential_and_recompute_in_both_modes() {
    agree(&FAN_OUT, Evict::Never, EVERY_COMMIT, 0xC0_0100);
}

#[test]
fn mid_stream_eviction_fuzz_is_width_independent_in_both_modes() {
    agree(&EVICTION, Evict::Random, ENDS, 0xC0_0200);
}

#[test]
fn batch_pipelining_fuzz_matches_sequential_server_in_both_modes() {
    batch(&BATCH, 0xC0_0300);
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_fan_out() {
    agree(&nightly(FAN_OUT), Evict::Never, EVERY_COMMIT, 0xC1_0100);
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_mid_stream_eviction() {
    agree(&nightly(EVICTION), Evict::Random, ENDS, 0xC1_0200);
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_batch() {
    batch(&nightly(BATCH), 0xC1_0300);
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
        let flaky_ok = |r: &ServeReport, id: usize| {
            let entry = r.refreshed.iter().find(|q| q.query == id);
            entry.expect("flaky refresh entry").result.is_ok()
        };

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
            assert!(
                !flaky_ok(&r, flaky.id()),
                "{mode:?}: tripped prepare succeeded"
            );
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
            assert!(flaky_ok(&r, flaky.id()), "{mode:?}: healed refresh failed");
        }

        // Poisoned: a diverging monotone refresh wrecks the query; later
        // deltas skip it, at every width, and say so.
        let insert3 = GraphDelta::new().add_edge(2, 8);
        let insert4 = GraphDelta::new().add_edge(3, 9);
        for (server, prog, flaky, healthy) in fleets.iter_mut() {
            prog.allow_monotone_inserts();
            let r = server.apply(&insert3).unwrap();
            assert!(
                !flaky_ok(&r, flaky.id()),
                "{mode:?}: diverging refresh passed"
            );
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
