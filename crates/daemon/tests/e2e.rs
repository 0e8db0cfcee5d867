//! Satellite: end-to-end daemon tests.
//!
//! Each test spawns a real `graped` (in-process, ephemeral port) and
//! drives it over actual TCP through the typed [`GrapeClient`]:
//!
//! * wire answers must be **byte-equal** to what a library-level
//!   [`GrapeServer`] produces on the same graph + delta stream, in both
//!   engine modes (the daemon adds transport, never semantics),
//! * N concurrent clients applying disjoint deltas must serialize to
//!   exactly one timeline commit per `ΔG` (the one-`apply_delta` invariant
//!   across the network boundary),
//! * the mock workload must serve and shut down cleanly,
//! * protocol errors must come back as in-protocol error frames without
//!   killing the connection.

use std::time::{Duration, Instant};

use grape_algorithms::cc::{Cc, CcQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_core::config::EngineMode;
use grape_core::output_delta::{wire_rows, OutputEvent};
use grape_core::serve::GrapeServer;
use grape_core::session::GrapeSession;
use grape_core::spec::QuerySpec;
use grape_daemon::client::{ClientError, GrapeClient};
use grape_daemon::mock::{mock_delta, MockConfig};
use grape_daemon::protocol::{
    self, ErrorKind, QueryAnswer, Request, RequestBody, Response, ResponseBody, ServerFrame,
};
use grape_daemon::server::{DaemonConfig, GrapedHandle, GraphSource};
use grape_graph::delta::GraphDelta;
use grape_graph::generators;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;
use serde::Value;

const GRID: (usize, usize, u64) = (6, 6, 7);
const BASE_VERTICES: u64 = 36;

fn daemon_config(mode: EngineMode) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        mode,
        graph: GraphSource::Grid {
            width: GRID.0,
            height: GRID.1,
            seed: GRID.2,
        },
        ..DaemonConfig::default()
    }
}

/// A library-level `GrapeServer` on the identical graph/session setup.
fn library_server(mode: EngineMode) -> GrapeServer {
    let graph = generators::road_grid(GRID.0, GRID.1, GRID.2);
    let fragmentation = MetisLike::new(4).partition(&graph).expect("partition");
    let session = GrapeSession::builder()
        .workers(2)
        .mode(mode)
        .refresh_threads(2)
        .build()
        .expect("session");
    GrapeServer::new(session, fragmentation)
}

fn json(answer: &QueryAnswer) -> String {
    serde_json::to_string(answer).expect("serialize answer")
}

/// An answer's canonical wire rows — the base an `OutputDelta` stream
/// replays over.
fn answer_rows(answer: &QueryAnswer) -> Vec<(Value, Value)> {
    match answer {
        QueryAnswer::Sssp { distances } => wire_rows(distances),
        QueryAnswer::Cc { components } => wire_rows(components),
    }
}

#[test]
fn wire_answers_are_byte_equal_to_library_answers_in_both_modes() {
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let deltas: Vec<GraphDelta> = (0..4).map(|i| mock_delta(11, BASE_VERTICES, i)).collect();

        // Library run: same graph, same queries, same stream.
        let mut lib = library_server(mode);
        let sssp = lib
            .register(Sssp, SsspQuery::new(0))
            .expect("register sssp");
        let cc = lib.register(Cc, CcQuery).expect("register cc");
        for delta in &deltas {
            lib.apply(delta).expect("library apply");
        }
        let lib_sssp = json(&QueryAnswer::from_sssp(
            &lib.output(&sssp).expect("lib sssp"),
        ));
        let lib_cc = json(&QueryAnswer::from_cc(&lib.output(&cc).expect("lib cc")));

        // Daemon run, over real TCP.
        let handle = GrapedHandle::spawn(daemon_config(mode)).expect("spawn daemon");
        let mut client = GrapeClient::connect(handle.addr()).expect("connect");
        let q_sssp = client
            .register(QuerySpec::Sssp { source: 0 })
            .expect("register sssp");
        let q_cc = client.register(QuerySpec::Cc).expect("register cc");
        for (i, delta) in deltas.iter().enumerate() {
            let applied = client.apply(delta.clone()).expect("wire apply");
            assert_eq!(applied.reports.len(), 1, "one commit per ΔG");
            assert_eq!(applied.reports[0].version, i + 1);
            assert!(applied.rejected.is_none());
        }
        let wire_sssp = json(&client.output(q_sssp).expect("wire sssp"));
        let wire_cc = json(&client.output(q_cc).expect("wire cc"));
        assert_eq!(wire_sssp, lib_sssp, "sssp answers diverge in {mode:?}");
        assert_eq!(wire_cc, lib_cc, "cc answers diverge in {mode:?}");

        // Evict + rehydrate round trip over the wire: the spilled query
        // must come back with the replayed deltas and the same answer.
        let spill = client.evict(q_sssp).expect("evict");
        assert!(!spill.is_empty());
        let late = mock_delta(11, BASE_VERTICES, 4);
        lib.apply(&late).expect("library late apply");
        client.apply(late).expect("wire late apply");
        let (replayed, _) = client.rehydrate(q_sssp).expect("rehydrate");
        assert_eq!(replayed, 1, "one delta arrived while evicted");
        let lib_sssp2 = json(&QueryAnswer::from_sssp(
            &lib.output(&sssp).expect("lib sssp"),
        ));
        assert_eq!(
            json(&client.output(q_sssp).expect("wire sssp after rehydrate")),
            lib_sssp2,
            "rehydrated answer diverges in {mode:?}"
        );
        let lib_cc2 = json(&QueryAnswer::from_cc(&lib.output(&cc).expect("lib cc")));
        assert_eq!(
            json(&client.try_output(q_cc).expect("wire try_output cc")),
            lib_cc2,
            "try_output diverges in {mode:?}"
        );

        // The second eviction replaces the spill file, and the answer
        // survives unchanged.
        client.evict(q_sssp).expect("second evict");
        assert_eq!(
            json(&client.output(q_sssp).expect("wire sssp after second evict")),
            lib_sssp2,
            "re-evicted answer diverges in {mode:?}"
        );

        let status = client.status().expect("status");
        assert!(
            !status.spill_dir.is_empty(),
            "status names the spill directory"
        );
        assert!(
            status.queries[0].status.spill_bytes > 0,
            "the sssp query's persisted store is visible in status"
        );
        assert_eq!(status.version, 5);
        assert_eq!(status.num_queries, 2);
        assert_eq!(status.num_evicted, 0);
        assert_eq!(status.queries.len(), 2);
        assert_eq!(status.queries[0].spec, QuerySpec::Sssp { source: 0 });
        assert_eq!(status.queries[1].spec, QuerySpec::Cc);
        for row in &status.queries {
            assert_eq!(row.status.version, 5);
            assert_eq!(row.status.updates_applied, 5);
            assert!(!row.status.poisoned);
        }

        let metrics = client.metrics().expect("metrics");
        assert_eq!(metrics.version, 5);
        assert_eq!(metrics.latency_samples, 5, "one latency sample per commit");
        assert_eq!(metrics.latency.samples, 5);
        assert!(metrics.latency.max_ms >= metrics.latency.p50_ms);

        client.shutdown().expect("shutdown");
        handle.wait();
    }
}

#[test]
fn concurrent_clients_serialize_to_one_commit_per_delta() {
    const CLIENTS: usize = 4;
    const DELTAS_PER_CLIENT: usize = 5;

    let handle = GrapedHandle::spawn(daemon_config(EngineMode::Sync)).expect("spawn daemon");
    let addr = handle.addr();
    let mut setup = GrapeClient::connect(addr).expect("connect");
    let q = setup
        .register(QuerySpec::Sssp { source: 0 })
        .expect("register");

    // Each client adds disjoint long-range shortcut edges from vertex 0
    // to non-adjacent grid vertices (10..30).  Vertex ids are dense, so
    // concurrent vertex *adds* would race over the id space — but edge
    // adds between existing vertices are valid under any interleaving.
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = GrapeClient::connect(addr).expect("connect");
                for j in 0..DELTAS_PER_CLIENT {
                    let v = 10 + (c * DELTAS_PER_CLIENT + j) as u64;
                    let delta = GraphDelta::new().add_weighted_edge(0, v, 1.0);
                    let applied = client.apply(delta).expect("apply");
                    // Every wire apply is exactly one timeline commit — no
                    // batching, no splitting, no double application,
                    // regardless of interleaving.
                    assert_eq!(applied.reports.len(), 1);
                    assert!(applied.rejected.is_none());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let total = CLIENTS * DELTAS_PER_CLIENT;
    let status = setup.status().expect("status");
    assert_eq!(status.version, total, "every ΔG applied exactly once");
    assert_eq!(status.queries[q].status.updates_applied, total);

    // All 20 shortcut targets sit at most one hop off the source: the
    // answer proves every interleaved stream landed.
    let QueryAnswer::Sssp { distances } = setup.output(q).expect("output") else {
        panic!("expected an sssp answer");
    };
    assert_eq!(distances.len(), BASE_VERTICES as usize);
    for v in 10..10 + total as u64 {
        let d = distances
            .iter()
            .find(|&&(vertex, _)| vertex == v)
            .map(|&(_, d)| d)
            .expect("shortcut target reachable");
        assert!(
            d <= 1.0,
            "vertex {v} should be one shortcut hop away, got {d}"
        );
    }

    setup.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn mock_daemon_serves_generated_workload_and_stops() {
    let mut config = daemon_config(EngineMode::default_from_env());
    config.mock = Some(MockConfig {
        queries: 2,
        deltas: 3,
        interval_ms: 1,
        seed: 7,
    });
    let handle = GrapedHandle::spawn(config).expect("spawn mock daemon");
    let mut client = GrapeClient::connect(handle.addr()).expect("connect");

    // 2 SSSP sources + the always-added CC query.
    let status = client.status().expect("status");
    assert_eq!(status.num_queries, 3);
    assert_eq!(status.queries[2].spec, QuerySpec::Cc);

    // The finite mock stream drains on its own; wait for it.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.status().expect("status");
        if status.version >= 3 {
            assert_eq!(status.version, 3);
            for row in &status.queries {
                assert_eq!(row.status.updates_applied, 3);
            }
            break;
        }
        assert!(Instant::now() < deadline, "mock stream never drained");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The workload is queryable: the mock deltas attached vertices 36..39.
    let QueryAnswer::Sssp { distances } = client.output(0).expect("output") else {
        panic!("expected an sssp answer");
    };
    assert_eq!(distances.len(), BASE_VERTICES as usize + 3);

    client.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn concurrent_watchers_get_identical_streams_that_replay_to_the_answer() {
    const WATCHERS: usize = 3;
    for mode in [EngineMode::Sync, EngineMode::Async] {
        let handle = GrapedHandle::spawn(daemon_config(mode)).expect("spawn daemon");
        let addr = handle.addr();
        let mut driver = GrapeClient::connect(addr).expect("connect driver");
        let q_sssp = driver
            .register(QuerySpec::Sssp { source: 0 })
            .expect("register sssp");
        let q_cc = driver.register(QuerySpec::Cc).expect("register cc");
        let base_sssp = driver.output(q_sssp).expect("baseline sssp");
        let base_cc = driver.output(q_cc).expect("baseline cc");

        // All watchers subscribe to both queries before any delta flows,
        // so every stream starts from the same baseline.
        let mut watchers: Vec<(GrapeClient, usize, usize)> = (0..WATCHERS)
            .map(|_| {
                let mut c = GrapeClient::connect(addr).expect("connect watcher");
                let s_sssp = c.subscribe(q_sssp).expect("subscribe sssp");
                let s_cc = c.subscribe(q_cc).expect("subscribe cc");
                (c, s_sssp, s_cc)
            })
            .collect();

        // Drive: two commits with everything resident, evict the SSSP
        // query, two commits while it is cold, rehydrate (its watchers
        // get one compacted delta covering both cold commits).
        for i in 0..2 {
            driver
                .apply(mock_delta(23, BASE_VERTICES, i))
                .expect("apply");
        }
        driver.evict(q_sssp).expect("evict");
        for i in 2..4 {
            driver
                .apply(mock_delta(23, BASE_VERTICES, i))
                .expect("apply");
        }
        driver.rehydrate(q_sssp).expect("rehydrate");
        let final_version = driver.status().expect("status").version;
        let fin_sssp = driver.output(q_sssp).expect("final sssp");
        let fin_cc = driver.output(q_cc).expect("final cc");

        // Each watcher drains its stream until both subscriptions have
        // caught up to the final version.
        let mut streams: Vec<Vec<(usize, usize, OutputEvent)>> = Vec::new();
        for (c, s_sssp, s_cc) in &mut watchers {
            let mut events = Vec::new();
            let (mut done_sssp, mut done_cc) = (false, false);
            while !(done_sssp && done_cc) {
                let e = c.next_event().expect("event");
                if e.version == final_version {
                    done_sssp |= e.subscription == *s_sssp;
                    done_cc |= e.subscription == *s_cc;
                }
                events.push((e.query, e.version, e.event));
            }
            streams.push(events);
        }

        // Identical streams for every watcher (subscription ids differ,
        // the (query, version, event) sequence must not).
        for (w, stream) in streams.iter().enumerate().skip(1) {
            assert_eq!(
                stream, &streams[0],
                "watcher {w} saw a different stream in {mode:?}"
            );
        }

        // Replaying the deltas over the baseline reproduces the final
        // answers byte-for-byte — the equivalence pin, over real TCP.
        let mut replay_sssp = answer_rows(&base_sssp);
        let mut replay_cc = answer_rows(&base_cc);
        for (query, _, event) in &streams[0] {
            let OutputEvent::Delta(delta) = event else {
                panic!("healthy queries must never push a poison event");
            };
            if *query == q_sssp {
                delta.apply_to(&mut replay_sssp);
            } else {
                delta.apply_to(&mut replay_cc);
            }
        }
        let bytes = |rows: &Vec<(Value, Value)>| serde_json::to_string(rows).expect("rows");
        assert_eq!(
            bytes(&replay_sssp),
            bytes(&answer_rows(&fin_sssp)),
            "sssp replay diverges in {mode:?}"
        );
        assert_eq!(
            bytes(&replay_cc),
            bytes(&answer_rows(&fin_cc)),
            "cc replay diverges in {mode:?}"
        );

        // Unsubscribe works over the wire; a second unsubscribe of the
        // same id is the typed UnknownSubscription error.
        let (c, s_sssp, s_cc) = &mut watchers[0];
        c.unsubscribe(*s_sssp).expect("unsubscribe");
        c.unsubscribe(*s_cc).expect("unsubscribe");
        match c.unsubscribe(*s_sssp) {
            Err(ClientError::Remote { kind, .. }) => {
                assert_eq!(kind, ErrorKind::UnknownSubscription)
            }
            other => panic!("expected UnknownSubscription, got {other:?}"),
        }

        driver.shutdown().expect("shutdown");
        handle.wait();
    }
}

#[test]
fn a_lone_event_frame_is_flushed_without_further_traffic() {
    // The connection writer coalesces a burst into one flush, so the rule
    // it must never break: a frame does not sit in the buffer waiting for
    // a later one.  A subscribes and then goes silent; B commits once; A's
    // event must arrive on its own.
    let handle = GrapedHandle::spawn(daemon_config(EngineMode::Sync)).expect("spawn daemon");
    let mut a = GrapeClient::connect(handle.addr()).expect("connect a");
    let mut b = GrapeClient::connect(handle.addr()).expect("connect b");
    let q = b.register(QuerySpec::Cc).expect("register");
    let sub = a.subscribe(q).expect("subscribe");

    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let _ = tx.send(a.next_event());
    });
    let applied = b.apply(mock_delta(5, BASE_VERTICES, 0)).expect("apply");
    let event = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the event frame was never flushed")
        .expect("event");
    assert_eq!(event.subscription, sub);
    assert_eq!(event.version, applied.reports[0].version);
    reader.join().expect("reader thread");

    b.shutdown().expect("shutdown");
    handle.wait();
}

/// A raw protocol connection: frames written and read by hand, so a test
/// can pipeline requests and look at event frames byte for byte.
struct RawConnection {
    reader: std::io::BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
}

impl RawConnection {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = std::net::TcpStream::connect(addr).expect("raw connect");
        let reader = std::io::BufReader::new(writer.try_clone().expect("clone"));
        RawConnection { reader, writer }
    }

    fn send(&mut self, id: u64, body: RequestBody) {
        protocol::send(&mut self.writer, &Request { id, body }).expect("send");
    }

    fn payload(&mut self) -> String {
        protocol::read_frame(&mut self.reader)
            .expect("read frame")
            .expect("frame before EOF")
    }

    fn frame(&mut self) -> ServerFrame {
        serde_json::from_str(&self.payload()).expect("server frame")
    }

    fn subscribe(&mut self, id: u64, query: usize) -> usize {
        self.send(id, RequestBody::Subscribe { query });
        match self.frame() {
            ServerFrame::Reply(Response {
                body: ResponseBody::Subscribed { subscription, .. },
                ..
            }) => subscription,
            other => panic!("expected a subscribed reply, got {other:?}"),
        }
    }
}

#[test]
fn each_delta_is_encoded_once_however_many_subscriptions_share_it() {
    const W: usize = 4;
    const N: usize = 3;
    let handle = GrapedHandle::spawn(daemon_config(EngineMode::Sync)).expect("spawn daemon");
    let mut driver = GrapeClient::connect(handle.addr()).expect("connect driver");
    let queries = [
        driver
            .register(QuerySpec::Sssp { source: 0 })
            .expect("register sssp"),
        driver.register(QuerySpec::Cc).expect("register cc"),
    ];
    let k = queries.len();

    let mut watcher = RawConnection::connect(handle.addr());
    let mut id = 0;
    for &query in &queries {
        for _ in 0..W {
            id += 1;
            watcher.subscribe(id, query);
        }
    }
    let before = driver.metrics().expect("metrics");
    assert_eq!((before.event_encodes, before.event_frames), (0, 0));

    for i in 0..N {
        driver
            .apply(mock_delta(31, BASE_VERTICES, i as u64))
            .expect("apply");
    }

    // (query, version) → the payloads pushed for it, split at the end of
    // the per-subscriber head.
    let mut groups: std::collections::BTreeMap<(usize, usize), Vec<(usize, String)>> =
        std::collections::BTreeMap::new();
    let mut bytes = 0;
    for _ in 0..N * k * W {
        let payload = watcher.payload();
        bytes += payload.len() as u64;
        let ServerFrame::Event(event) = serde_json::from_str(&payload).expect("frame") else {
            panic!("the watcher sent no request, so every frame is an event: {payload}");
        };
        let head = format!("{{\"subscription\":{},", event.subscription);
        let tail = payload
            .strip_prefix(&head)
            .unwrap_or_else(|| panic!("frame does not open with {head}: {payload}"));
        groups
            .entry((event.query, event.version))
            .or_default()
            .push((event.subscription, tail.to_string()));
    }
    assert_eq!(
        groups.len(),
        N * k,
        "one delta per watched query per commit"
    );
    for ((query, version), frames) in &groups {
        assert_eq!(frames.len(), W, "query {query} v{version}");
        let mut subs: Vec<usize> = frames.iter().map(|(sub, _)| *sub).collect();
        subs.sort_unstable();
        subs.dedup();
        assert_eq!(subs.len(), W, "every subscription gets its own frame");
        assert!(
            frames.iter().all(|(_, tail)| tail == &frames[0].1),
            "frames of query {query} v{version} differ beyond the subscription id"
        );
    }

    // The counters the `metrics` op reports: encode count independent of
    // W, frame count W times it, bytes exactly what the watcher read.
    let after = driver.metrics().expect("metrics");
    assert_eq!(after.event_encodes, (N * k) as u64);
    assert_eq!(after.event_frames, (N * k * W) as u64);
    assert_eq!(after.event_bytes, bytes);

    driver.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn pipelined_requests_keep_reply_order_around_their_events() {
    // One connection that watches a query AND pipelines apply + output
    // pairs without reading in between.  The engine thread emits reply,
    // then the commit's events, then the next reply into one channel; the
    // coalescing writer must put them on the wire in exactly that order.
    const PAIRS: u64 = 3;
    let handle = GrapedHandle::spawn(daemon_config(EngineMode::Sync)).expect("spawn daemon");
    let mut driver = GrapeClient::connect(handle.addr()).expect("connect driver");
    let q = driver.register(QuerySpec::Cc).expect("register");

    let mut conn = RawConnection::connect(handle.addr());
    let sub = conn.subscribe(1, q);
    for i in 0..PAIRS {
        conn.send(
            10 + 2 * i,
            RequestBody::Apply {
                delta: mock_delta(47, BASE_VERTICES, i),
            },
        );
        conn.send(11 + 2 * i, RequestBody::Output { query: q });
    }
    for i in 0..PAIRS {
        let version = match conn.frame() {
            ServerFrame::Reply(Response {
                id,
                body: ResponseBody::Applied { reports, .. },
            }) => {
                assert_eq!(id, 10 + 2 * i, "apply replies arrive in request order");
                reports[0].version
            }
            other => panic!("expected the apply reply of pair {i}, got {other:?}"),
        };
        match conn.frame() {
            ServerFrame::Event(event) => {
                assert_eq!((event.subscription, event.version), (sub, version));
            }
            other => panic!("expected the event of v{version}, got {other:?}"),
        }
        match conn.frame() {
            ServerFrame::Reply(Response {
                id,
                body: ResponseBody::Answer { .. },
            }) => assert_eq!(id, 11 + 2 * i, "output replies arrive in request order"),
            other => panic!("expected the output reply of pair {i}, got {other:?}"),
        }
    }

    driver.shutdown().expect("shutdown");
    handle.wait();
}

#[test]
fn dropped_connection_mid_call_names_the_op() {
    // A fake daemon that accepts, reads the request, then hangs up
    // without replying — the failure `grapectl` used to report as a bare
    // nonzero exit.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = std::io::BufReader::new(stream);
        let _ = protocol::read_frame(&mut reader);
        // Dropping the stream here closes the connection mid-call.
    });

    let mut client = GrapeClient::connect(addr).expect("connect");
    let err = client.status().expect_err("the daemon hung up");
    assert!(
        matches!(err, ClientError::MidCall { op: "status", .. }),
        "expected MidCall naming the op, got {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("`status`"), "must name the op: {msg}");
    assert!(
        msg.contains("mid-call"),
        "must say the connection died mid-call: {msg}"
    );
    fake.join().expect("fake daemon");
}

#[test]
fn protocol_errors_are_replies_not_disconnects() {
    let handle = GrapedHandle::spawn(daemon_config(EngineMode::Sync)).expect("spawn daemon");
    let mut client = GrapeClient::connect(handle.addr()).expect("connect");

    // Unknown handle: typed error, connection stays up.
    match client.output(99) {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownHandle),
        other => panic!("expected UnknownHandle, got {other:?}"),
    }

    // Double evict: NotResident.
    let q = client
        .register(QuerySpec::Sssp { source: 0 })
        .expect("register");
    client.evict(q).expect("first evict");
    match client.evict(q) {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::NotResident),
        other => panic!("expected NotResident, got {other:?}"),
    }
    // try_output on an evicted query never does the rehydration work.
    match client.try_output(q) {
        Err(ClientError::Remote { kind, .. }) => assert_eq!(kind, ErrorKind::NotResident),
        other => panic!("expected NotResident, got {other:?}"),
    }
    // output rehydrates lazily and still answers.
    assert!(matches!(
        client.output(q).expect("lazy rehydrate"),
        QueryAnswer::Sssp { .. }
    ));

    // A well-framed but invalid payload gets a BadRequest reply and the
    // connection keeps serving; raw frames to prove it end to end.
    {
        use std::io::{BufReader, BufWriter};
        let stream = std::net::TcpStream::connect(handle.addr()).expect("raw connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(stream);
        protocol::write_frame(&mut writer, "{\"id\":5,\"op\":\"frobnicate\"}").expect("write");
        let reply: Response = protocol::recv(&mut reader).expect("recv").expect("reply");
        // The bad request's own id comes back, so a pipelining client can
        // tell which of its requests failed.
        assert_eq!(reply.id, 5);
        assert!(matches!(
            reply.body,
            ResponseBody::Error {
                kind: ErrorKind::BadRequest,
                ..
            }
        ));
        protocol::send(
            &mut writer,
            &Request {
                id: 6,
                body: RequestBody::Status,
            },
        )
        .expect("send status");
        let reply: Response = protocol::recv(&mut reader).expect("recv").expect("reply");
        assert_eq!(reply.id, 6);
        assert!(matches!(reply.body, ResponseBody::Status { .. }));
    }

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// An `apply` past the id-growth bound gets a `RejectedDelta` reply that
/// names the id, commits nothing, and the connection serves the next
/// request.
#[test]
fn an_apply_past_the_id_bound_is_an_error_reply() {
    use grape_graph::delta::ID_SLACK;
    let handle = GrapedHandle::spawn(daemon_config(EngineMode::Sync)).expect("spawn daemon");
    let mut client = GrapeClient::connect(handle.addr()).expect("connect");
    client
        .register(QuerySpec::Sssp { source: 0 })
        .expect("register");
    let past = BASE_VERTICES + ID_SLACK + 1;
    match client.apply(GraphDelta::new().add_edge(0, past)) {
        Err(ClientError::Remote { kind, message }) => {
            assert_eq!(kind, ErrorKind::RejectedDelta);
            assert!(message.contains(&past.to_string()), "{message}");
        }
        other => panic!("expected RejectedDelta, got {other:?}"),
    }
    assert_eq!(client.status().expect("status").version, 0);
    client
        .apply(GraphDelta::new().add_edge(0, past - 1))
        .expect("the largest allowed id commits");
    assert_eq!(client.status().expect("status").version, 1);
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// Live `grape-worker` children of this process, via /proc (Linux CI;
/// elsewhere the scan degrades to "none found").
fn worker_children() -> Vec<u32> {
    let me = std::process::id();
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return found;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let comm = &stat[open + 1..close];
        let ppid: u32 = stat[close + 1..]
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        if comm == "grape-worker" && ppid == me {
            found.push(pid);
        }
    }
    found
}

/// The serving stack on subprocess shards (`graped --transport process`):
/// wire answers match a default-transport daemon byte-for-byte through a
/// register → apply → output lifecycle, the `metrics` op reports the pipe
/// traffic, and shutting the daemon down leaves no orphaned `grape-worker`
/// processes behind.
#[test]
fn process_transport_daemon_serves_and_reaps_its_workers() {
    if grape_core::worker_proto::locate_worker_binary().is_none() {
        eprintln!(
            "skipping process-transport daemon e2e: grape-worker binary not \
             built (run `cargo build -p grape-daemon --bins` first)"
        );
        return;
    }
    let mode = EngineMode::default_from_env();
    let deltas: Vec<GraphDelta> = (0..3).map(|i| mock_delta(11, BASE_VERTICES, i)).collect();

    let run = |transport: grape_core::TransportSpec| -> ((String, String), u64) {
        let mut config = daemon_config(mode);
        config.transport = transport;
        let handle = GrapedHandle::spawn(config).expect("spawn daemon");
        let mut client = GrapeClient::connect(handle.addr()).expect("connect");
        let q_sssp = client
            .register(QuerySpec::Sssp { source: 0 })
            .expect("register sssp");
        let q_cc = client.register(QuerySpec::Cc).expect("register cc");
        for delta in &deltas {
            client.apply(delta.clone()).expect("apply");
        }
        let sssp = json(&client.output(q_sssp).expect("sssp answer"));
        let cc = json(&client.output(q_cc).expect("cc answer"));
        let pipe_bytes = client.metrics().expect("metrics").pipe_bytes;
        client.shutdown().expect("shutdown");
        handle.wait();
        ((sssp, cc), pipe_bytes)
    };

    let (baseline, in_process_pipe) = run(grape_core::TransportSpec::InProcess);
    let (sharded, sharded_pipe) = run(grape_core::TransportSpec::Process { workers: 2 });
    assert_eq!(
        sharded, baseline,
        "({mode:?}) subprocess-sharded daemon answers diverge from in-process"
    );
    // The `metrics` op counts worker-pipe bytes: none in-process, every
    // registration's and refresh's traffic under `--transport process`.
    assert_eq!(in_process_pipe, 0, "({mode:?})");
    assert!(
        sharded_pipe > 0,
        "({mode:?}) process daemon reported no pipe bytes"
    );
    assert_eq!(
        worker_children(),
        Vec::<u32>::new(),
        "({mode:?}) daemon shutdown left orphaned grape-worker processes"
    );
}
