//! update ≡ recompute: after every committed delta, each served answer
//! equals a from-scratch run on `G ⊕ ΔG`, for all five families in both
//! engine modes, and every refresh reports the path it took consistently
//! (the decision table: monotone and retracted refreshes run no PEval, a
//! bounded one re-roots fewer fragments than a full re-preparation).
//!
//! The update-sequence tests fix the path per round (insert batches stay
//! monotone, an SSSP deletion batch is retracted, a Sim insertion is not
//! incremental); the mixed-delta fuzz lets every row of the decision table
//! fire.  The Process cells run the same streams on grape-worker
//! subprocesses.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use grape::core::output_delta::DeltaOutput;
use grape::graph::generators::road_grid;
use grape::graph::types::Edge;
use grape::partition::edge_cut::RangeEdgeCut;
use grape::prelude::*;

use crate::harness::Mix::{Deletes, Inserts};
use crate::harness::*;

/// Which refresh path round `r` may take.
type Path = fn(usize, RefreshKind) -> bool;

fn incremental(kind: RefreshKind) -> bool {
    matches!(kind, RefreshKind::Monotone | RefreshKind::Retracted)
}

/// Drives `p.cases` seeded cases on `host` in both modes and holds every
/// commit to a recompute and every refresh to `path`.
fn holds(host: TransportSpec, family: Family, p: &Profile, seed_base: u64, path: Path) {
    for mode in MODES {
        let axes = Axes {
            host,
            ..Axes::new(family, mode)
        };
        for case in 0..p.cases {
            let trace = stand(family, p, axes, seed_base + case).drive(Record::CommitsExact);
            trace.assert_exact();
            for c in &trace.commits {
                for &kind in &c.kinds {
                    let round = c.round.expect("only rounds refresh");
                    let tag = &trace.tag;
                    assert!(path(round, kind), "{tag}: round {round} took {kind:?}");
                }
            }
        }
    }
}

fn fuzz(host: TransportSpec, family: Family, p: &Profile, seed_base: u64) {
    holds(host, family, p, seed_base, |_, _| true);
}

const LOCAL: TransportSpec = TransportSpec::InProcess;

const UPDATES: Profile = Profile {
    cases: 8,
    rounds: 4,
    workers: (1, 4),
    ..BASE
};

#[test]
fn sssp_update_sequence_matches_recompute_in_both_modes() {
    const P: Profile = Profile {
        mixes: &[Inserts(6), Inserts(6), Inserts(6), Deletes(4)],
        ..UPDATES.sized((4, 50), (1, 180))
    };
    holds(LOCAL, Family::Sssp, &P, 0x1E_0100, |r, kind| {
        (r < 3 && incremental(kind)) || kind == RefreshKind::Retracted
    });
}

#[test]
fn cc_update_sequence_matches_recompute_in_both_modes() {
    const P: Profile = Profile {
        rounds: 3,
        mixes: &[Inserts(5)],
        ..UPDATES.sized((4, 50), (1, 140))
    };
    holds(LOCAL, Family::Cc, &P, 0x1E_0200, |_, kind| {
        incremental(kind)
    });
}

#[test]
fn sim_update_sequence_matches_recompute_in_both_modes() {
    // Sim's monotone direction is deletion; an insertion falls back.
    const P: Profile = Profile {
        mixes: &[Deletes(5), Deletes(5), Deletes(5), Inserts(3)],
        ..UPDATES.sized((4, 40), (1, 150))
    };
    holds(LOCAL, SIM, &P, 0x1E_0300, |r, kind| {
        incremental(kind) == (r < 3)
    });
}

/// The mixed-delta fuzz profile; the nightly one fuzzes more seeds over
/// larger graphs.
const FUZZ: Profile = Profile {
    cases: 5,
    rounds: 3,
    workers: (1, 4),
    ..BASE
};

const NIGHTLY: Profile = Profile {
    cases: 24,
    rounds: 5,
    ..FUZZ.sized((6, 160), (4, 700))
};

/// Every Process prepare and refresh spawns a worker pool, so the tier-1
/// Process profile is small; the five-family sweep is nightly.
const PROCESS_FUZZ: Profile = Profile {
    cases: 2,
    rounds: 2,
    ..FUZZ.sized((6, 30), (4, 100))
};

#[test]
fn sssp_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    fuzz(LOCAL, Family::Sssp, &FUZZ, 0xF0_0100);
}

#[test]
fn cc_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    fuzz(LOCAL, Family::Cc, &FUZZ, 0xF0_0200);
}

#[test]
fn sim_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    fuzz(LOCAL, SIM, &FUZZ, 0xF0_0300);
}

#[test]
fn subiso_mixed_delta_fuzz_matches_recompute_in_both_modes() {
    fuzz(LOCAL, Family::SubIso, &FUZZ, 0xF0_0400);
}

#[test]
fn cf_rating_delta_fuzz_matches_recompute_in_both_modes() {
    fuzz(LOCAL, Family::Cf, &FUZZ, 0xF0_0500);
}

#[test]
fn process_transport_delta_fuzz_matches_recompute_in_both_modes() {
    if !worker_available() {
        return;
    }
    fuzz(PROCESS, Family::Sssp, &PROCESS_FUZZ, 0xF2_0100);
    fuzz(PROCESS, Family::Cc, &PROCESS_FUZZ, 0xF2_0200);
    fuzz(PROCESS, SIM, &PROCESS_FUZZ, 0xF2_0300);
    for mode in MODES {
        churn_stream(mode, PROCESS, 3, 3);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_process_transport_all_families() {
    if !worker_available() {
        return;
    }
    for (family, seed_base) in FAMILIES.into_iter().zip((0xF2_1100..).step_by(0x100)) {
        fuzz(PROCESS, family, &FUZZ, seed_base);
    }
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_sssp() {
    fuzz(LOCAL, Family::Sssp, &NIGHTLY, 0xF1_0100);
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_cc() {
    fuzz(LOCAL, Family::Cc, &NIGHTLY, 0xF1_0200);
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_sim() {
    fuzz(LOCAL, SIM, &NIGHTLY, 0xF1_0300);
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_subiso() {
    // SubIso is NP-hard: the graphs stay a notch smaller.
    fuzz(
        LOCAL,
        Family::SubIso,
        &NIGHTLY.sized((6, 80), (4, 260)),
        0xF1_0400,
    );
}

#[test]
#[ignore = "nightly long-fuzz profile"]
fn long_fuzz_cf() {
    fuzz(LOCAL, Family::Cf, &NIGHTLY, 0xF1_0500);
}

/// Asserts a prepared query's answer equals a from-scratch run on its
/// graph, row for row.
fn assert_recomputes<P: DeltaOutput>(s: &GrapeSession, prepared: &PreparedQuery<P>, tag: &str) {
    let (program, query) = (prepared.program(), prepared.query());
    let fresh = s.run(prepared.fragmentation(), program, query).unwrap();
    let served = program.canonical(query, &prepared.output());
    assert!(
        served == program.canonical(query, &fresh.output),
        "{tag}: differs from a recompute"
    );
}

/// Updates a query on the two-chain graph and holds the refresh to `kind`
/// with fewer PEval calls than fragments — and, when `second_chain`, every
/// re-rooted fragment on the chain the delta touched.
fn localized<P: DeltaOutput>(
    s: &GrapeSession,
    prepared: &mut PreparedQuery<P>,
    delta: GraphDelta,
    (kind, second_chain): (RefreshKind, bool),
    tag: &str,
) {
    let report = prepared.update(&delta).unwrap();
    assert_eq!(report.kind, kind, "{tag}");
    assert!(
        report.metrics.peval_calls < prepared.fragmentation().num_fragments(),
        "{tag}: localized damage must not re-prepare everywhere"
    );
    if second_chain {
        assert!(report.repeval.iter().all(|&i| i >= 2), "{tag}");
    }
    assert_recomputes(s, prepared, &format!("{tag} {kind:?}"));
}

/// The bounded-refresh acceptance pin: a non-monotone delta confined to one
/// quotient component re-roots strictly fewer fragments than a full
/// re-preparation, in both modes, for the three Assurance-Theorem programs.
#[test]
fn localized_nonmonotone_damage_keeps_peval_below_fragment_count() {
    // Two disjoint 12-vertex chains over four range fragments: {0,1} cover
    // the first chain, {2,3} the second.  All deltas touch the second chain.
    let chains = |directed| {
        let mut b = if directed {
            GraphBuilder::directed()
        } else {
            GraphBuilder::undirected()
        };
        for v in (0..11u64).chain(12..23) {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        for v in 0..24u64 {
            b.push_vertex_label(v, 1 + (v % 2) as u32);
        }
        RangeEdgeCut::new(4).partition(&b.build()).unwrap()
    };
    let (retracted, bounded) = (RefreshKind::Retracted, RefreshKind::Bounded);
    for mode in MODES {
        let s = Axes::new(Family::Sssp, mode).session(2);

        // SSSP: deleting an edge of the second chain retracts the chain's
        // tail (no PEval at all); detaching a vertex there is declined and
        // takes the bounded refresh.
        let tag = format!("sssp {mode:?}");
        let mut sssp = s.prepare(chains(true), Sssp, SsspQuery::new(12)).unwrap();
        let cut = GraphDelta::new().remove_edge(14, 15);
        localized(&s, &mut sssp, cut, (retracted, true), &tag);
        let detach = GraphDelta::new().remove_vertex(13);
        localized(&s, &mut sssp, detach, (bounded, true), &tag);

        // CC: split the second chain.
        let mut cc = s.prepare(chains(false), Cc, CcQuery).unwrap();
        let split = GraphDelta::new().remove_edge(17, 18);
        localized(
            &s,
            &mut cc,
            split,
            (bounded, false),
            &format!("cc {mode:?}"),
        );

        // Sim: insert a match-resurrecting edge in the second chain.
        let query = SimQuery::new(Pattern::new(vec![1, 1], vec![(0, 1)]));
        let mut sim = s.prepare(chains(true), Sim::new(), query).unwrap();
        let insert = GraphDelta::new().add_edge(12, 14);
        localized(
            &s,
            &mut sim,
            insert,
            (bounded, true),
            &format!("sim {mode:?}"),
        );
    }
}

/// The serving churn shape over a road grid: round `i` removes grid edge
/// `e_i` and re-inserts `e_{i−1}`, so every delta is non-monotone and the
/// graph is stationary.  SSSP retracts each removal and CC keeps its labels
/// (nothing splits a grid): zero PEval every round, and both answers equal
/// a from-scratch recompute bit for bit.
fn churn_stream(mode: EngineMode, host: TransportSpec, rounds: usize, seed: u64) {
    let g = road_grid(8, 8, seed);
    let strategies: [Box<dyn PartitionStrategy>; 2] =
        [Box::new(HashEdgeCut::new(4)), Box::new(MetisLike::new(4))];
    let axes = Axes {
        host,
        ..Axes::new(Family::Sssp, mode)
    };
    let s = axes.session(2);
    let source = SsspQuery::new(seed % g.num_vertices() as u64);
    for strategy in &strategies {
        let frag = strategy.partition(&g).unwrap();
        let mut sssp = s.prepare(frag.clone(), Sssp, source).unwrap();
        let mut cc = s.prepare(frag, Cc, CcQuery).unwrap();

        let mut order = g.edges().to_vec();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut missing: Option<Edge> = None;
        for (round, e) in order.iter().take(rounds).enumerate() {
            let mut delta = GraphDelta::new().remove_edge(e.src, e.dst);
            if let Some(back) = missing.replace(*e) {
                delta = delta.add_edge_record(back);
            }
            let tag = format!("churn round {round} seed {seed} {mode:?} {host:?}");
            for (name, report) in [("sssp", sssp.update(&delta)), ("cc", cc.update(&delta))] {
                let report = report.unwrap();
                check_report(&report, 4, &tag);
                assert_eq!(report.kind, RefreshKind::Retracted, "{name} {tag}");
            }
            assert_recomputes(&s, &sssp, &format!("sssp {tag}"));
            assert_recomputes(&s, &cc, &format!("cc {tag}"));
        }
    }
}

#[test]
fn churn_stream_retracts_without_peval_in_both_modes() {
    for mode in MODES {
        for seed in [1, 2] {
            churn_stream(mode, LOCAL, 24, seed);
        }
    }
}
