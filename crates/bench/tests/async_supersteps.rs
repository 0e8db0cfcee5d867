//! Superstep savings of the barrier-free runtime on the paper's workloads.
//!
//! The Fig. 7 stand-in (graph simulation over the liveJournal power-law
//! graph) plus the Table 1 stand-in (SSSP over the traffic road grid) are
//! run under both engine modes: the outputs must be identical (Assurance
//! Theorem) and the barrier-free runtime must need no more supersteps —
//! the max evaluation rounds of the slowest fragment — than the BSP run.
//! These are the numbers CHANGES.md records as "superstep savings".

use grape_bench::runner::partition;
use grape_bench::workloads::{self, Scale};

use grape_algorithms::sim::{Sim, SimQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_core::config::EngineMode;
use grape_core::session::GrapeSession;

fn session(workers: usize, mode: EngineMode) -> GrapeSession {
    GrapeSession::builder()
        .workers(workers)
        .mode(mode)
        .build()
        .unwrap()
}

/// With several workers the async superstep count depends on how threads
/// interleave, so the saving is checked on a one-worker Async session (one
/// thread sweeps the fragments in a fixed order); the answer is checked at
/// both widths.
#[test]
fn fig7_sim_async_saves_supersteps_and_keeps_the_answer() {
    let g = workloads::livejournal(Scale::Small);
    let pattern = workloads::sim_pattern(&g, Scale::Small, 0x71);
    let frag = partition(&g, 4);
    let query = SimQuery::new(pattern);

    let sync = session(4, EngineMode::Sync)
        .run(&frag, &Sim::new(), &query)
        .unwrap();
    for workers in [4, 1] {
        let async_ = session(workers, EngineMode::Async)
            .run(&frag, &Sim::new(), &query)
            .unwrap();
        assert_eq!(
            sync.output.relation(),
            async_.output.relation(),
            "fig7 sim: async output must equal sync output ({workers} workers)"
        );
        if workers == 1 {
            assert!(
                async_.metrics.supersteps <= sync.metrics.supersteps,
                "fig7 sim: async supersteps {} vs sync {}",
                async_.metrics.supersteps,
                sync.metrics.supersteps
            );
        }
    }
}

#[test]
fn table1_sssp_async_saves_supersteps_and_keeps_the_answer() {
    let g = workloads::traffic(Scale::Small);
    let frag = partition(&g, 4);
    let query = SsspQuery::new(0);

    let sync = session(4, EngineMode::Sync)
        .run(&frag, &Sssp, &query)
        .unwrap();
    let async_ = session(4, EngineMode::Async)
        .run(&frag, &Sssp, &query)
        .unwrap();

    for v in g.vertices() {
        assert_eq!(
            sync.output.distance(v),
            async_.output.distance(v),
            "traffic sssp: distance of vertex {v}"
        );
    }
    assert!(
        async_.metrics.supersteps <= sync.metrics.supersteps,
        "traffic sssp: async supersteps {} vs sync {}",
        async_.metrics.supersteps,
        sync.metrics.supersteps
    );
}
