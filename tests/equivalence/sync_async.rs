//! Sync ≡ Async: under the monotonic condition of the Assurance Theorem,
//! [`EngineMode::Async`] (fragments as independent tasks draining streaming
//! mailboxes, no global superstep barrier) produces exactly the output of
//! the BSP runtime, over seeded random graphs, partitions and worker
//! counts.  The registration answer is the one-shot run's: `prepare` and
//! `run` share one engine path and differ only in retaining the partials.

use grape::graph::types::Edge;
use grape::partition::edge_cut::RangeEdgeCut;
use grape::prelude::*;

use crate::harness::*;

const ONE_SHOT: Profile = Profile {
    cases: 16,
    n: (2, 60),
    m: (1, 220),
    workers: (1, 5),
    ..BASE
};

fn holds(family: Family, p: &Profile, seed_base: u64) {
    for case in 0..p.cases {
        let [sync, async_] = MODES.map(|mode| {
            let axes = Axes::new(family, mode);
            stand(family, p, axes, seed_base + case).drive(Record::Ends)
        });
        assert_eq!(
            sync.answers(),
            async_.answers(),
            "{}: differs from Sync",
            async_.tag
        );
    }
}

#[test]
fn sssp_async_output_equals_sync_output() {
    holds(Family::Sssp, &ONE_SHOT, 0xA5_0100);
}

#[test]
fn cc_async_output_equals_sync_output() {
    const P: Profile = Profile {
        m: (1, 180),
        ..ONE_SHOT
    };
    holds(Family::Cc, &P, 0xA5_0200);
}

#[test]
fn sim_async_output_equals_sync_output() {
    const P: Profile = Profile {
        n: (2, 50),
        m: (1, 160),
        ..ONE_SHOT
    };
    holds(SIM, &P, 0xA5_0300);
}

#[test]
fn subiso_async_output_equals_sync_output() {
    const P: Profile = Profile {
        n: (2, 40),
        m: (1, 120),
        ..ONE_SHOT
    };
    holds(Family::SubIso, &P, 0xA5_0400);
}

/// The point of going barrier-free: on a high-diameter workload the slowest
/// fragment needs no more evaluation rounds than the BSP superstep count,
/// because fresher values arrive without waiting for a barrier.
#[test]
fn async_supersteps_never_exceed_sync_on_high_diameter_graph() {
    // A long path of fragments — the worst case for BSP round-trips.
    let mut b = GraphBuilder::directed();
    for v in 0..120u64 {
        b.push_edge(Edge::weighted(v, v + 1, 1.0));
    }
    let frag = RangeEdgeCut::new(6).partition(&b.build()).unwrap();
    let query = SsspQuery::new(0);
    let [sync, async_] = [EngineMode::Sync, EngineMode::Async].map(|mode| {
        Axes::new(Family::Sssp, mode)
            .session(3)
            .run(&frag, &Sssp, &query)
            .unwrap()
    });
    assert!(
        async_.metrics.supersteps <= sync.metrics.supersteps,
        "async {} vs sync {}",
        async_.metrics.supersteps,
        sync.metrics.supersteps
    );
}
