//! Serving many standing queries off one evolving road network.
//!
//! A navigation service answers shortest-path queries from many depots over
//! one city graph that keeps changing.  Instead of giving every depot its
//! own `PreparedQuery` — which would re-apply every `ΔG` once *per depot* —
//! a [`GrapeServer`] owns a single `Arc`-shared fragmentation timeline:
//!
//! * each depot registers once (`register` pays PEval once per query),
//! * every road update is applied to the fragmentation **once**
//!   (`apply` → one `apply_delta`, one rebuilt-fragment set shared by all
//!   registered queries through the `Arc<Fragment>` refcounting),
//! * rarely-asked depots are **evicted**: their partials spill to a
//!   binary store on disk, and the next `output()` reloads them — zero
//!   PEval calls, the fragmentation comes back from the server's timeline
//!   — and replays whatever deltas arrived while they were cold,
//! * per-delta refreshes fan out over a scoped worker pool as wide as the
//!   session's `refresh_threads` — every depot's refresh is independent
//!   once the shared `DeltaApplication` exists — and a burst of updates
//!   goes through `apply_batch`, one `apply` per delta in arrival order.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use grape::core::output_delta::OutputEvent;
use grape::core::serve::GrapeServer;
use grape::prelude::*;

fn main() {
    let graph = generators::road_grid(60, 60, 7);
    println!(
        "road network: {} intersections, {} road segments",
        graph.num_vertices(),
        graph.num_edges() / 2
    );

    let fragments = MetisLike::new(4).partition(&graph).expect("partition");
    // Refresh up to 4 depots concurrently once each ΔG is applied.
    let session = GrapeSession::builder()
        .workers(4)
        .refresh_threads(4)
        .build()
        .expect("session");
    let mut server = GrapeServer::new(session, fragments);

    // Three depots, three standing SSSP queries over ONE fragmentation.
    let depots: Vec<VertexId> = vec![0, 1770, 3599];
    let handles: Vec<_> = depots
        .iter()
        .map(|&d| server.register(Sssp, SsspQuery::new(d)).expect("register"))
        .collect();
    println!(
        "registered {} standing queries at timeline version {}",
        server.num_queries(),
        server.version()
    );

    // A dashboard watches depot 0: subscribe once, and from then on every
    // commit pushes the rows that *changed* — O(|change|) bytes — instead
    // of the dashboard re-polling the whole answer (`grapectl watch` is
    // this same stream over TCP).
    let watch = server.subscribe(&handles[0]).expect("subscribe");

    // Live updates: new road segments open.  One apply_delta; every
    // query's refresh reports the SAME rebuilt-fragment set.
    let new_roads = GraphDelta::new()
        .add_weighted_edge(10, 1000, 2.0)
        .add_weighted_edge(1000, 10, 2.0)
        .add_weighted_edge(42, 2042, 1.5)
        .add_weighted_edge(2042, 42, 1.5);
    let report = server.apply(&new_roads).expect("apply new roads");
    println!(
        "ΔG #1 (new segments): version {}, rebuilt fragments {:?}, \
         {} queries refreshed, {} total PEval calls",
        report.version,
        report.rebuilt,
        report.refreshed.len(),
        report.peval_calls()
    );
    for event in server.drain_events() {
        if let OutputEvent::Delta(delta) = event.event {
            println!(
                "  pushed to depot-0 watchers: v{} — {} changed row(s), {} removal(s) \
                 (not the {}-row answer)",
                event.version,
                delta.changed.len(),
                delta.removed.len(),
                server.output(&handles[0]).expect("output").num_reached()
            );
        }
    }

    // The overnight-only depot goes cold: spill it to disk.
    let cold = handles[2];
    let spill = server.evict(&cold).expect("evict");
    println!(
        "evicted depot {} → {} ({} of {} queries cold)",
        depots[2],
        spill.display(),
        server.num_evicted(),
        server.num_queries()
    );

    // A road closes while the depot is cold: resident queries retract the
    // shortest-path subtrees of the closed road (IncEval only, no PEval);
    // the cold one is deferred (the server retains the
    // timeline it will replay from).
    let closure = GraphDelta::new().remove_edge(10, 11).remove_edge(11, 10);
    let report = server.apply(&closure).expect("apply closure");
    println!(
        "ΔG #2 (closure): {} refreshed, deferred {:?}, retained versions {}",
        report.refreshed.len(),
        report.deferred,
        server.retained_versions()
    );

    // Asking the cold depot lazily rehydrates it: fragments + partials come
    // back from the snapshot file (no re-partitioning, no PEval) and the
    // missed closure is replayed.
    let rehydration = server.rehydrate(&cold).expect("rehydrate");
    println!(
        "rehydrated depot {}: {} delta(s) replayed with {} PEval calls \
         (the snapshot reload itself runs none; the closure's bounded \
         replay re-roots its damage frontier)",
        depots[2],
        rehydration.replayed.len(),
        rehydration.peval_calls()
    );

    // Morning rush: a burst of updates arrives at once.  `apply_batch`
    // commits it in arrival order, one `apply` per delta, and stops at the
    // first delta the partition layer rejects.
    let burst: Vec<GraphDelta> = (0..4)
        .map(|i| {
            GraphDelta::new()
                .add_weighted_edge(100 + i, 2000 + i, 1.0)
                .add_weighted_edge(2000 + i, 100 + i, 1.0)
        })
        .collect();
    let batch = server.apply_batch(&burst);
    println!(
        "ΔG burst: {} of {} deltas committed, rejected: {}",
        batch.reports.len(),
        burst.len(),
        if batch.rejected.is_none() {
            "none"
        } else {
            "yes"
        },
    );

    // The closure commit and every burst commit each pushed one more delta
    // to the subscription.
    let pending = server.drain_events();
    println!(
        "subscription caught {} more pushed delta(s) from the closure + burst",
        pending.len()
    );
    server.unsubscribe(watch).expect("unsubscribe");

    for (depot, handle) in depots.iter().zip(&handles) {
        let answer = server.output(handle).expect("output");
        println!(
            "depot {depot}: reaches {} intersections",
            answer.num_reached()
        );
    }
    println!(
        "timeline after everyone caught up: {} retained version(s)",
        server.retained_versions()
    );
}
