//! An embedded `graped`: spawn the daemon in-process on an ephemeral
//! port, drive it over real TCP through the typed client — the exact
//! shape the e2e tests use, and a template for load harnesses.
//!
//! ```bash
//! cargo run --release -p grape-daemon --example embedded
//! ```

use grape_core::spec::QuerySpec;
use grape_daemon::client::GrapeClient;
use grape_daemon::mock::mock_delta;
use grape_daemon::server::{DaemonConfig, GrapedHandle, GraphSource};

fn main() {
    let handle = GrapedHandle::spawn(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        graph: GraphSource::Grid {
            width: 12,
            height: 12,
            seed: 7,
        },
        ..DaemonConfig::default()
    })
    .expect("spawn daemon");
    println!("graped listening on {}", handle.addr());

    let mut client = GrapeClient::connect(handle.addr()).expect("connect");
    let sssp = client
        .register(QuerySpec::Sssp { source: 0 })
        .expect("register sssp");
    let cc = client.register(QuerySpec::Cc).expect("register cc");

    // Stream a few generated insert-only deltas (one commit each).
    for i in 0..5 {
        let applied = client.apply(mock_delta(7, 144, i)).expect("apply");
        println!(
            "v{}: rebuilt {} fragment(s), refreshed {:?}",
            applied.reports[0].version,
            applied.reports[0].rebuilt.len(),
            applied.reports[0].refreshed
        );
    }

    let status = client.status().expect("status");
    println!(
        "version {} across {} queries",
        status.version, status.num_queries
    );

    // Evict the SSSP query, let a delta land while it is cold, bring it
    // back: the daemon replays exactly what was missed.
    let spill = client.evict(sssp).expect("evict");
    println!("sssp spilled to {spill}");
    client
        .apply(mock_delta(7, 144, 5))
        .expect("apply while cold");
    let (replayed, peval_calls) = client.rehydrate(sssp).expect("rehydrate");
    println!("rehydrated: replayed {replayed} delta(s), {peval_calls} PEval call(s)");

    let metrics = client.metrics().expect("metrics");
    println!(
        "per-delta latency: p50 {:.3}ms p99 {:.3}ms over {} commit(s)",
        metrics.latency.p50_ms, metrics.latency.p99_ms, metrics.latency_samples
    );

    for query in [sssp, cc] {
        let answer = client.output(query).expect("output");
        println!(
            "query {query}: {} answer rows",
            match &answer {
                grape_daemon::protocol::QueryAnswer::Sssp { distances } => distances.len(),
                grape_daemon::protocol::QueryAnswer::Cc { components } => components.len(),
            }
        );
    }

    client.shutdown().expect("shutdown");
    handle.wait();
    println!("daemon stopped cleanly");
}
