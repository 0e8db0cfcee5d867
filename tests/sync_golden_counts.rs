//! Exact-count pins of the BSP runtime ([`EngineMode::Sync`]): for SSSP, CC
//! and graph simulation, over a full run, a monotone refresh, a retraction
//! and a bounded (damage-frontier) refresh, at 1, 2 and 4 workers, the
//! superstep count, every per-superstep `(superstep, active fragments,
//! messages, bytes)` entry, the run totals, `seed_messages` and the
//! PEval/IncEval call counts must equal the literal goldens below.  A change
//! to the scheduler that moves any of them fails here by name.
//!
//! CF is pinned the same way plus a digest of every trained factor's bits:
//! its `aggregateMsg` averages equal timestamps, which is not associative,
//! so the model also pins the order the barrier folds senders in.  (Under
//! [`EngineMode::Async`] CF's factors follow the interleaving, so the pin is
//! Sync-only.)
//!
//! The last test holds the seed accounting to one rule in both modes:
//! `total_messages == seed_messages + Σ per_superstep[i].messages`, with the
//! same `seed_messages` under [`EngineMode::Sync`] and [`EngineMode::Async`].

use grape::algorithms::cc::{Cc, CcQuery};
use grape::algorithms::cf::{Cf, CfQuery};
use grape::algorithms::sim::{Sim, SimQuery};
use grape::algorithms::sssp::{Sssp, SsspQuery};
use grape::core::config::EngineMode;
use grape::core::metrics::EngineMetrics;
use grape::core::pie::IncrementalPie;
use grape::core::prepared::RefreshKind;
use grape::core::session::GrapeSession;
use grape::graph::builder::GraphBuilder;
use grape::graph::delta::GraphDelta;
use grape::graph::generators::{bipartite_ratings, road_grid};
use grape::graph::pattern::Pattern;
use grape::graph::types::Edge;
use grape::partition::edge_cut::RangeEdgeCut;
use grape::partition::fragment::Fragmentation;
use grape::partition::strategy::PartitionStrategy;

/// A 6 × 10 road grid (vertices 0..60) beside a one-way 60-vertex chain
/// (60..120), labelled 1, 2, 3 in turn.  `fed` adds the edge 59 → 60 from
/// the grid into the chain, `ring` closes the chain with 119 → 60.  Under a 4-way range cut the grid is fragments 0–1 and the
/// chain fragments 2–3, so damage at the chain's far end stays local and the
/// non-monotone deltas take the bounded refresh.
fn fragmentation(fed: bool, ring: bool) -> Fragmentation {
    let mut b = GraphBuilder::directed();
    for e in road_grid(6, 10, 7).edges() {
        b.push_edge(*e);
    }
    let head = if fed { 59 } else { 60 };
    for v in head..119u64 {
        b.push_edge(Edge::weighted(v, v + 1, 2.0));
    }
    if ring {
        b.push_edge(Edge::weighted(119, 60, 2.0));
    }
    for v in 0..120u64 {
        b.push_vertex_label(v, 1 + (v % 3) as u32);
    }
    RangeEdgeCut::new(4).partition(&b.build()).unwrap()
}

fn session(workers: usize, mode: EngineMode) -> GrapeSession {
    GrapeSession::builder()
        .workers(workers)
        .mode(mode)
        .build()
        .unwrap()
}

/// Everything the goldens pin, as one comparable line.
fn counts(m: &EngineMetrics) -> String {
    let steps: Vec<_> = m
        .per_superstep
        .iter()
        .map(|s| (s.superstep, s.active_fragments, s.messages, s.bytes))
        .collect();
    format!(
        "supersteps {} msgs {} bytes {} seed {} peval {} inceval {} recovered {} checkpoints {} steps {:?}",
        m.supersteps,
        m.total_messages,
        m.total_bytes,
        m.seed_messages,
        m.peval_calls,
        m.inceval_calls,
        m.recovered_failures,
        m.checkpoints,
        steps
    )
}

/// A full run, then each `(name, delta, kind)` refresh on one prepared
/// handle, in order.  Returns `(case name, metrics)` per run.
fn cases<P: IncrementalPie>(
    s: &GrapeSession,
    frag: Fragmentation,
    family: &str,
    program: P,
    query: P::Query,
    refreshes: Vec<(&str, GraphDelta, RefreshKind)>,
) -> Vec<(String, EngineMetrics)> {
    let mut out = vec![(
        format!("{family} full"),
        s.run(&frag, &program, &query).unwrap().metrics,
    )];
    let mut prepared = s.prepare(frag, program, query).unwrap();
    for (name, delta, kind) in refreshes {
        let report = prepared.update(&delta).unwrap();
        assert_eq!(report.kind, kind, "{family} {name}");
        out.push((format!("{family} {name}"), report.metrics));
    }
    out
}

/// Every pinned run of one session.
fn all_cases(s: &GrapeSession) -> Vec<(String, EngineMetrics)> {
    let mut out = cases(
        s,
        fragmentation(true, false),
        "sssp",
        Sssp,
        SsspQuery::new(0),
        vec![
            (
                "monotone",
                GraphDelta::new()
                    .add_weighted_edge(0, 40, 1.0)
                    .add_weighted_edge(5, 75, 1.5),
                RefreshKind::Monotone,
            ),
            (
                "retracted",
                (24..29).fold(GraphDelta::new(), |d, v| d.remove_edge(v, v + 6)),
                RefreshKind::Retracted,
            ),
            (
                "bounded",
                GraphDelta::new().remove_vertex(100),
                RefreshKind::Bounded,
            ),
        ],
    );
    out.extend(cases(
        s,
        fragmentation(false, false),
        "cc",
        Cc,
        CcQuery,
        vec![
            (
                "bounded",
                GraphDelta::new().remove_edge(100, 101),
                RefreshKind::Bounded,
            ),
            (
                "monotone",
                GraphDelta::new().add_edge(5, 110).add_edge(2, 80),
                RefreshKind::Monotone,
            ),
        ],
    ));
    out.extend(cases(
        s,
        fragmentation(false, true),
        "sim",
        Sim::new(),
        SimQuery::new(Pattern::new(vec![1, 2, 3], vec![(0, 1), (1, 2), (2, 0)])),
        vec![
            (
                "monotone",
                GraphDelta::new().remove_edge(100, 101),
                RefreshKind::Monotone,
            ),
            (
                "bounded",
                GraphDelta::new().add_edge(100, 101),
                RefreshKind::Bounded,
            ),
        ],
    ));
    out
}

/// The BSP counts of every case, identical at every worker count.
const GOLDEN: &[(&str, &str)] = &[
    (
        "sssp full",
        "supersteps 4 msgs 14 bytes 224 seed 0 peval 4 inceval 4 recovered 0 checkpoints 0 steps [(0, 4, 6, 96), (1, 1, 7, 112), (2, 2, 1, 16), (3, 1, 0, 0)]",
    ),
    (
        "sssp monotone",
        "supersteps 3 msgs 11 bytes 176 seed 2 peval 0 inceval 6 recovered 0 checkpoints 0 steps [(0, 2, 6, 96), (1, 3, 3, 48), (2, 1, 0, 0)]",
    ),
    (
        "sssp retracted",
        "supersteps 1 msgs 2 bytes 32 seed 2 peval 0 inceval 1 recovered 0 checkpoints 0 steps [(0, 1, 0, 0)]",
    ),
    (
        "sssp bounded",
        "supersteps 2 msgs 1 bytes 16 seed 1 peval 1 inceval 1 recovered 0 checkpoints 0 steps [(0, 1, 0, 0), (1, 1, 0, 0)]",
    ),
    (
        "cc full",
        "supersteps 3 msgs 19 bytes 304 seed 0 peval 4 inceval 4 recovered 0 checkpoints 0 steps [(0, 4, 13, 208), (1, 3, 6, 96), (2, 1, 0, 0)]",
    ),
    (
        "cc bounded",
        "supersteps 2 msgs 1 bytes 16 seed 1 peval 1 inceval 1 recovered 0 checkpoints 0 steps [(0, 1, 0, 0), (1, 1, 0, 0)]",
    ),
    (
        "cc monotone",
        "supersteps 2 msgs 3 bytes 48 seed 2 peval 0 inceval 3 recovered 0 checkpoints 0 steps [(0, 2, 1, 16), (1, 1, 0, 0)]",
    ),
    (
        "sim full",
        "supersteps 2 msgs 12 bytes 156 seed 0 peval 4 inceval 2 recovered 0 checkpoints 0 steps [(0, 4, 12, 156), (1, 2, 0, 0)]",
    ),
    (
        "sim monotone",
        "supersteps 2 msgs 2 bytes 26 seed 1 peval 0 inceval 2 recovered 0 checkpoints 0 steps [(0, 1, 1, 13), (1, 1, 0, 0)]",
    ),
    (
        "sim bounded",
        "supersteps 1 msgs 0 bytes 0 seed 0 peval 2 inceval 0 recovered 0 checkpoints 0 steps [(0, 2, 0, 0)]",
    ),
];

/// Failure recovery on the SSSP full run: a restart (no checkpoint yet) and
/// a rollback to the last checkpoint.  One entry per superstep index — the
/// replayed round replaces the rolled-back one — while the totals keep the
/// re-shipped messages (20 and 15 against the failure-free 14).
const GOLDEN_RECOVERY: &[(&str, &str)] = &[
    (
        "sssp restart",
        "supersteps 4 msgs 20 bytes 320 seed 0 peval 8 inceval 4 recovered 1 checkpoints 0 steps [(0, 4, 6, 96), (1, 1, 7, 112), (2, 2, 1, 16), (3, 1, 0, 0)]",
    ),
    (
        "sssp rollback",
        "supersteps 4 msgs 15 bytes 240 seed 0 peval 4 inceval 6 recovered 1 checkpoints 2 steps [(0, 4, 6, 96), (1, 1, 7, 112), (2, 2, 1, 16), (3, 1, 0, 0)]",
    ),
];

#[test]
fn sync_counts_match_the_goldens() {
    for workers in [1, 2, 4] {
        let runs = all_cases(&session(workers, EngineMode::Sync));
        let names: Vec<&str> = runs.iter().map(|(n, _)| n.as_str()).collect();
        let golden: Vec<&str> = GOLDEN.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, golden, "case list");
        for ((name, metrics), (_, want)) in runs.iter().zip(GOLDEN) {
            assert_eq!(counts(metrics), *want, "{name}, {workers} workers");
        }
    }
}

#[test]
fn sync_recovery_counts_match_the_goldens() {
    let frag = fragmentation(true, false);
    for workers in [1, 2, 4] {
        let restart = GrapeSession::builder()
            .workers(workers)
            .mode(EngineMode::Sync)
            .inject_failure(1, 0)
            .build()
            .unwrap();
        let rollback = GrapeSession::builder()
            .workers(workers)
            .mode(EngineMode::Sync)
            .checkpoint_every(2)
            .inject_failure(3, 1)
            .build()
            .unwrap();
        for ((name, want), s) in GOLDEN_RECOVERY.iter().zip([restart, rollback]) {
            let metrics = s.run(&frag, &Sssp, &SsspQuery::new(0)).unwrap().metrics;
            assert_eq!(counts(&metrics), *want, "{name}, {workers} workers");
            assert_eq!(metrics.recovered_failures, 1, "{name}");
        }
    }
}

/// A small rating graph (30 users rate 12 items) plus the self-rating
/// `3 → 3`, whose user and item rows are one row, under a 4-way range cut.
fn ratings() -> Fragmentation {
    let mut b = GraphBuilder::directed();
    for e in bipartite_ratings(30, 12, 200, 4, 17).graph.edges() {
        b.push_edge(*e);
    }
    b.push_edge(Edge::weighted(3, 3, 4.0));
    RangeEdgeCut::new(4).partition(&b.build()).unwrap()
}

/// FNV-1a over every factor's bits, vertex by vertex in id order.
fn factor_digest(model: grape::algorithms::cf::CfResult) -> String {
    let mut rows: Vec<_> = model.into_factors().into_iter().collect();
    rows.sort_unstable_by_key(|&(v, _)| v);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = rows
        .iter()
        .flat_map(|(v, f)| std::iter::once(*v).chain(f.iter().map(|x| x.to_bits())));
    for byte in words.flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("rows {} digest {h:016x}", rows.len())
}

/// CF's full run and a prepared rating insert that retrains: the counts
/// line and the factor digest of each.
const GOLDEN_CF: &[(&str, &str, &str)] = &[
    (
        "cf full",
        "supersteps 6 msgs 225 bytes 10800 seed 0 peval 4 inceval 20 recovered 0 checkpoints 0 steps [(0, 4, 45, 2160), (1, 4, 45, 2160), (2, 4, 45, 2160), (3, 4, 45, 2160), (4, 4, 45, 2160), (5, 4, 0, 0)]",
        "rows 42 digest f57fbeea8b8326c6",
    ),
    (
        "cf retrain",
        "supersteps 6 msgs 225 bytes 10800 seed 0 peval 4 inceval 20 recovered 0 checkpoints 0 steps [(0, 4, 45, 2160), (1, 4, 45, 2160), (2, 4, 45, 2160), (3, 4, 45, 2160), (4, 4, 45, 2160), (5, 4, 0, 0)]",
        "rows 42 digest dcd8f7521e902ac5",
    ),
];

#[test]
fn sync_cf_counts_and_factors_match_the_goldens() {
    let query = CfQuery {
        epochs: 5,
        num_factors: 4,
        ..Default::default()
    };
    for workers in [1, 2, 4] {
        let s = session(workers, EngineMode::Sync);
        let full = s.run(&ratings(), &Cf, &query).unwrap();
        let mut prepared = s.prepare(ratings(), Cf, query.clone()).unwrap();
        let report = prepared
            .update(&GraphDelta::new().add_weighted_edge(7, 35, 2.0))
            .unwrap();
        assert_ne!(report.metrics.peval_calls, 0, "the insert retrains");
        let runs = [
            (full.metrics, full.output),
            (report.metrics, prepared.output()),
        ];
        for ((metrics, model), (name, want_counts, want_digest)) in runs.into_iter().zip(GOLDEN_CF)
        {
            assert_eq!(counts(&metrics), *want_counts, "{name}, {workers} workers");
            assert_eq!(
                factor_digest(model),
                *want_digest,
                "{name}, {workers} workers"
            );
        }
    }
}

#[test]
fn seed_messages_count_alike_in_both_modes() {
    let sync = all_cases(&session(2, EngineMode::Sync));
    let async_ = all_cases(&session(2, EngineMode::Async));
    for ((name, s), (_, a)) in sync.iter().zip(&async_) {
        for (mode, m) in [("sync", s), ("async", a)] {
            let flow: usize = m.per_superstep.iter().map(|s| s.messages).sum();
            assert_eq!(
                m.total_messages,
                m.seed_messages + flow,
                "{name} ({mode}): total = seeds + per-superstep flow"
            );
        }
        assert_eq!(s.seed_messages, a.seed_messages, "{name}: seeds per mode");
    }
    assert!(
        sync.iter().any(|(_, m)| m.seed_messages > 0),
        "no case seeds anything"
    );
}
