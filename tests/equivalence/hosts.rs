//! InProcess ≡ Process: the answer to a query is byte-identical whether
//! fragments are evaluated in-process or sharded across grape-worker
//! subprocesses, in both engine modes, for all five families — one-shot,
//! along the prepare → update path, and through checkpoint/restart
//! recovery from injected failures.  The message transport follows the
//! mode under both hosts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use grape::graph::generators::road_grid;
use grape::prelude::*;

use crate::harness::*;

const CASES: Profile = Profile {
    cases: 3,
    ..BASE.sized((6, 50), (4, 160))
};

/// Runs every case on both hosts over `fragments` hash fragments (the
/// Process host with one subprocess per engine worker) and compares the
/// answers of every commit, the registration's being the one-shot run's.
fn holds(family: Family, p: &Profile, fragments: u64, seed_base: u64) {
    if !worker_available() {
        return;
    }
    let p = Profile {
        fragments: Some((fragments, fragments + 1)),
        ..*p
    };
    for mode in MODES {
        let workers = family.pinned_workers(mode).unwrap_or(2) as usize;
        for case in 0..p.cases {
            let [local, remote] = [TransportSpec::InProcess, TransportSpec::Process { workers }]
                .map(|host| {
                    let axes = Axes {
                        host,
                        part: Part::Hash,
                        ..Axes::new(family, mode)
                    };
                    stand(family, &p, axes, seed_base + case).drive(Record::Commits)
                });
            let tag = &remote.tag;
            assert_eq!(local.answers(), remote.answers(), "{tag}: hosts diverge");
        }
    }
}

#[test]
fn sssp_answers_are_byte_equal_across_transports() {
    holds(Family::Sssp, &CASES.sized((6, 50), (4, 180)), 4, 0x9C_0100);
}

#[test]
fn cc_answers_are_byte_equal_across_transports() {
    holds(Family::Cc, &CASES, 4, 0x9C_0200);
}

#[test]
fn sim_answers_are_byte_equal_across_transports() {
    // Both the naive and the index-optimized variants cross the pipe.
    for indexed in [false, true] {
        holds(Family::Sim { indexed }, &CASES, 3, 0x9C_0300);
    }
}

#[test]
fn subiso_answers_are_byte_equal_across_transports() {
    holds(
        Family::SubIso,
        &CASES.sized((6, 40), (4, 120)),
        3,
        0x9C_0400,
    );
}

#[test]
fn cf_answers_are_byte_equal_across_transports() {
    const P: Profile = Profile { cases: 1, ..CASES };
    holds(Family::Cf, &P, 3, 0x9C_0500);
}

/// The prepare → update path: retained partials ship to the workers at the
/// refresh handshake, seed messages cross the pipe, and every refreshed
/// answer must still be byte-equal to the in-process host's.
#[test]
fn incremental_refresh_is_byte_equal_across_transports() {
    const P: Profile = Profile {
        rounds: 3,
        mixes: &[Mix::Inserts(5)],
        ..CASES.sized((6, 40), (4, 140))
    };
    holds(Family::Sssp, &P, 4, 0x9C_0600);
}

/// Subprocess runs report the pipe traffic they caused, within a pinned
/// ceiling; in-process runs report none.
#[test]
fn pipe_bytes_are_accounted_only_for_the_process_transport() {
    if !worker_available() {
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x9C_0700);
    let graph = arb_graph(&mut rng, (6, 40), (4, 120), 0);
    let frag = HashEdgeCut::new(4).partition(&graph).unwrap();
    let query = SsspQuery::new(0);
    let [in_process, subprocess] = [TransportSpec::InProcess, PROCESS].map(|host| {
        let axes = Axes {
            host,
            ..Axes::new(Family::Sssp, EngineMode::Sync)
        };
        axes.session(2).run(&frag, &Sssp, &query).unwrap()
    });
    assert_eq!(in_process.metrics.pipe_bytes, 0);
    assert!(
        subprocess.metrics.pipe_bytes > 0,
        "a Process run must account its pipe traffic"
    );
    assert_eq!(subprocess.metrics.transport, "process");
    // The binary worker wire moves 4 501 payload bytes for this seeded run:
    // 5 147 → 4 844 when partials stopped carrying their fragment's vertex
    // ids, 4 844 → 4 501 when the typed replies dropped `"ok": true` and
    // partials crossed in shard order without fragment ids (the JSON wire
    // the binary one replaced moved 7 901).  The count is
    // deterministic under Sync, so the ceiling is exact: a wire that grows
    // fails here before it shows up in a benchmark run.
    assert!(
        subprocess.metrics.pipe_bytes <= 4_501,
        "pipe traffic grew to {} bytes",
        subprocess.metrics.pipe_bytes
    );
}

/// Checkpoint and restart recovery on subprocess workers: a checkpoint
/// pulls every partial back over the pipes, a rollback pushes them out
/// again (`set_partials`), and a restart without a checkpoint clears them
/// (`clear`).  Every injected failure must recover to the failure-free
/// answer byte for byte on both hosts, with equal checkpoint, superstep and
/// message counts.  Checkpointing every 2 supersteps makes the failure at
/// superstep 3 roll back to partials older than the live ones; every 1
/// restores the state just taken.  Failure injection is superstep-aligned,
/// so Sync only.
#[test]
fn injected_failure_recovery_is_byte_equal_across_hosts() {
    if !worker_available() {
        return;
    }
    let frag = HashEdgeCut::new(4)
        .partition(&road_grid(12, 12, 7))
        .unwrap();
    let query = SsspQuery::new(0);
    let clean = Axes::new(Family::Sssp, EngineMode::Sync)
        .session(2)
        .run(&frag, &Sssp, &query)
        .unwrap();
    let expected = canon(&Sssp, &query, &clean.output);
    for checkpoint_every in [Some(1), Some(2), None] {
        for (superstep, fragment) in [(1, 0), (2, 1), (3, 2)] {
            let counts = [TransportSpec::InProcess, PROCESS].map(|host| {
                let mut builder = GrapeSession::builder()
                    .workers(2)
                    .mode(EngineMode::Sync)
                    .transport(host)
                    .inject_failure(superstep, fragment);
                if let Some(every) = checkpoint_every {
                    builder = builder.checkpoint_every(every);
                }
                let run = builder.build().unwrap().run(&frag, &Sssp, &query).unwrap();
                let tag = format!(
                    "failure at ({superstep}, {fragment}), checkpoint {checkpoint_every:?}, \
                     {host:?}"
                );
                assert_eq!(run.metrics.recovered_failures, 1, "{tag}");
                assert_eq!(
                    run.metrics.checkpoints > 0,
                    checkpoint_every.is_some(),
                    "{tag}"
                );
                assert_eq!(
                    canon(&Sssp, &query, &run.output),
                    expected,
                    "{tag}: recovered answer differs from the failure-free run"
                );
                [
                    run.metrics.checkpoints,
                    run.metrics.supersteps,
                    run.metrics.total_messages,
                ]
            });
            let tag = format!("failure at ({superstep}, {fragment}), every {checkpoint_every:?}");
            assert_eq!(
                counts[0], counts[1],
                "{tag}: [checkpoints, supersteps, messages] diverge across hosts"
            );
        }
    }
}
