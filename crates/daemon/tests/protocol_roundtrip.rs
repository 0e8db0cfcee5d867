//! Satellite: wire-protocol round-trips.
//!
//! Every request and response variant must survive serialize → frame →
//! read → deserialize unchanged (including error frames), and the frame
//! reader must reject malformed input the same way the binary snapshot
//! readers' `ensure_fully_consumed` discipline does: nothing before, after,
//! or inside a frame may be silently ignored.

use std::io::Cursor;

use grape_core::engine::EngineError;
use grape_core::metrics::LatencySummary;
use grape_core::output_delta::{OutputEvent, QueryDelta, WireOutputDelta};
use grape_core::serve::{QueryStatus, ServeError};
use grape_core::spec::QuerySpec;
use grape_daemon::protocol::{
    self, ApplySummary, ErrorKind, EventFrame, MetricsInfo, QueryAnswer, QueryRow, RejectedDelta,
    Request, RequestBody, Response, ResponseBody, ServerFrame, StatusInfo, WireError,
    MAX_FRAME_BYTES,
};
use grape_graph::delta::GraphDelta;
use serde::{Serialize, Value};

fn roundtrip_request(body: RequestBody) {
    let request = Request { id: 42, body };
    let json = serde_json::to_string(&request).expect("serialize");
    let back: Request = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, request, "request did not round-trip: {json}");
}

fn roundtrip_response(body: ResponseBody) {
    let response = Response { id: 7, body };
    let json = serde_json::to_string(&response).expect("serialize");
    let back: Response = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, response, "response did not round-trip: {json}");
}

fn sample_delta() -> GraphDelta {
    GraphDelta::new()
        .add_vertex(9, 3)
        .add_weighted_edge(0, 9, 2.5)
        .remove_edge(1, 2)
        .remove_vertex(4)
}

fn sample_status() -> QueryStatus {
    QueryStatus {
        query: 1,
        version: 5,
        evicted: true,
        poisoned: false,
        updates_applied: 5,
        incremental_updates: 4,
        bounded_updates: 1,
        retracted_updates: 2,
        partial_bytes: 0,
        watchers: 0,
        spill_chain: 2,
        spill_bytes: 4096,
        compactions: 1,
    }
}

fn sample_summary() -> ApplySummary {
    ApplySummary {
        version: 3,
        rebuilt: vec![0, 2],
        reused: 6,
        refreshed: vec![0, 1],
        failed: vec![2],
        peval_calls: 1,
        caught_up: vec![1],
        deferred: vec![3],
        poisoned: vec![4],
    }
}

#[test]
fn every_request_variant_round_trips() {
    roundtrip_request(RequestBody::Status);
    roundtrip_request(RequestBody::Metrics { samples: false });
    roundtrip_request(RequestBody::Metrics { samples: true });
    roundtrip_request(RequestBody::Register {
        spec: QuerySpec::Sssp { source: 3 },
    });
    roundtrip_request(RequestBody::Register {
        spec: QuerySpec::Cc,
    });
    roundtrip_request(RequestBody::Apply {
        delta: sample_delta(),
    });
    roundtrip_request(RequestBody::ApplyBatch {
        deltas: vec![sample_delta(), GraphDelta::new()],
    });
    roundtrip_request(RequestBody::Output { query: 0 });
    roundtrip_request(RequestBody::TryOutput { query: 1 });
    roundtrip_request(RequestBody::Evict { query: 2 });
    roundtrip_request(RequestBody::Rehydrate { query: 3 });
    roundtrip_request(RequestBody::Compact { query: 3 });
    roundtrip_request(RequestBody::Subscribe { query: 4 });
    roundtrip_request(RequestBody::Unsubscribe { subscription: 2 });
    roundtrip_request(RequestBody::Shutdown);
}

#[test]
fn metrics_without_the_flag_still_parses_as_a_request() {
    // Pre-flag clients send `{"id":N,"op":"metrics"}`; absent means the
    // cheap summary-only reply.
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, "{\"id\":1,\"op\":\"metrics\"}").unwrap();
    let mut reader = Cursor::new(wire);
    let request: Request = protocol::recv(&mut reader).unwrap().expect("frame");
    assert_eq!(request.body, RequestBody::Metrics { samples: false });
}

#[test]
fn pre_tiering_status_frames_still_parse() {
    // A status reply from a daemon built before the tiered spill store
    // carries neither the spill fields on the query rows nor the
    // spill_dir/compactions on the summary line, nor the retraction count
    // added later; they all default.
    let json = "{\"id\":7,\"reply\":\"status\",\"status\":{\
        \"version\":1,\"retained_versions\":1,\
        \"num_queries\":1,\"num_evicted\":0,\"resident_partial_bytes\":10,\
        \"queries\":[{\"spec\":{\"query\":\"cc\"},\"status\":{\
            \"query\":0,\"version\":1,\"evicted\":false,\"poisoned\":false,\
            \"updates_applied\":1,\"incremental_updates\":1,\
            \"bounded_updates\":0,\"partial_bytes\":10,\"watchers\":0}}]}}";
    let back: Response = serde_json::from_str(json).expect("deserialize");
    let ResponseBody::Status { status: info } = back.body else {
        panic!("expected a status reply");
    };
    assert_eq!(info.spill_dir, "");
    assert_eq!(info.compactions, 0);
    assert_eq!(info.queries[0].status.spill_chain, 0);
    assert_eq!(info.queries[0].status.spill_bytes, 0);
    assert_eq!(info.queries[0].status.compactions, 0);
    assert_eq!(info.queries[0].status.retracted_updates, 0);

    // Likewise a metrics reply from a daemon that predates the spill
    // compaction count, the watch-event counters and the pipe-byte count.
    let json = "{\"id\":8,\"reply\":\"metrics\",\"metrics\":{\
        \"uptime_ms\":5,\"version\":1,\
        \"latency\":{\"samples\":1,\"mean_ms\":1.0,\"p50_ms\":1.0,\
            \"p99_ms\":1.0,\"max_ms\":1.0},\
        \"latency_samples\":1,\"samples\":null,\
        \"resident_partial_bytes\":10,\"queries\":[]}}";
    let back: Response = serde_json::from_str(json).expect("deserialize");
    let ResponseBody::Metrics { metrics: info } = back.body else {
        panic!("expected a metrics reply");
    };
    assert_eq!(info.compactions, 0);
    assert_eq!(
        (info.event_encodes, info.event_frames, info.event_bytes),
        (0, 0, 0)
    );
    assert_eq!(info.pipe_bytes, 0);
}

#[test]
fn every_response_variant_round_trips() {
    roundtrip_response(ResponseBody::Registered {
        query: 2,
        spec: QuerySpec::Sssp { source: 3 },
    });
    roundtrip_response(ResponseBody::Applied {
        reports: vec![sample_summary()],
        rejected: None,
    });
    roundtrip_response(ResponseBody::Applied {
        reports: vec![],
        rejected: Some(RejectedDelta {
            index: 1,
            reason: "cannot add vertex 9: id already exists".to_string(),
        }),
    });
    roundtrip_response(ResponseBody::Answer {
        query: 0,
        answer: QueryAnswer::Sssp {
            distances: vec![(0, 0.0), (1, 1.5), (7, 42.25)],
        },
    });
    roundtrip_response(ResponseBody::Answer {
        query: 1,
        answer: QueryAnswer::Cc {
            components: vec![(0, 0), (1, 0), (2, 2)],
        },
    });
    roundtrip_response(ResponseBody::Evicted {
        query: 3,
        spill: "/tmp/spill/q3".to_string(),
    });
    roundtrip_response(ResponseBody::Rehydrated {
        query: 3,
        replayed: 4,
        peval_calls: 0,
    });
    roundtrip_response(ResponseBody::Compacted {
        query: 3,
        folded: true,
    });
    roundtrip_response(ResponseBody::Compacted {
        query: 0,
        folded: false,
    });
    roundtrip_response(ResponseBody::Status {
        status: StatusInfo {
            version: 5,
            retained_versions: 6,
            num_queries: 2,
            num_evicted: 1,
            resident_partial_bytes: 1024,
            spill_dir: "/tmp/grape-spill".to_string(),
            compactions: 2,
            queries: vec![
                QueryRow {
                    spec: QuerySpec::Cc,
                    status: sample_status(),
                },
                QueryRow {
                    spec: QuerySpec::Sssp { source: 0 },
                    status: QueryStatus {
                        evicted: false,
                        partial_bytes: 1024,
                        ..sample_status()
                    },
                },
            ],
        },
    });
    roundtrip_response(ResponseBody::Metrics {
        metrics: MetricsInfo {
            uptime_ms: 12345,
            version: 5,
            latency: LatencySummary {
                samples: 9,
                mean_ms: 1.25,
                p50_ms: 1.0,
                p99_ms: 3.5,
                max_ms: 3.5,
            },
            latency_samples: 9,
            samples: None,
            resident_partial_bytes: 1024,
            compactions: 0,
            event_encodes: 0,
            event_frames: 0,
            event_bytes: 0,
            pipe_bytes: 0,
            queries: vec![],
        },
    });
    roundtrip_response(ResponseBody::Metrics {
        metrics: MetricsInfo {
            uptime_ms: 12345,
            version: 5,
            latency: LatencySummary {
                samples: 3,
                mean_ms: 1.25,
                p50_ms: 1.0,
                p99_ms: 3.5,
                max_ms: 3.5,
            },
            latency_samples: 3,
            samples: Some(vec![0.5, 1.0, 3.5]),
            resident_partial_bytes: 1024,
            compactions: 7,
            event_encodes: 18,
            event_frames: 72,
            event_bytes: 446_098,
            pipe_bytes: 440_512,
            queries: vec![],
        },
    });
    roundtrip_response(ResponseBody::Subscribed {
        query: 1,
        subscription: 3,
    });
    roundtrip_response(ResponseBody::Unsubscribed { subscription: 3 });
    roundtrip_response(ResponseBody::ShuttingDown);
}

#[test]
fn every_error_kind_round_trips_as_an_error_frame() {
    // Each kind, and the serve-layer refusals that must map onto it.
    let refused = |behind| ServeError::NotResident { query: 1, behind };
    for (kind, from) in [
        (ErrorKind::BadRequest, None),
        (ErrorKind::UnknownHandle, None),
        (ErrorKind::UnknownSubscription, None),
        (
            ErrorKind::Poisoned,
            Some(ServeError::Engine(EngineError::PoisonedHandle)),
        ),
        (ErrorKind::RejectedDelta, None),
        (ErrorKind::NotResident, Some(ServeError::AlreadyEvicted(1))),
        (ErrorKind::NotResident, Some(refused(None))),
        (ErrorKind::NotResident, Some(refused(Some((2, 5))))),
        (ErrorKind::Snapshot, None),
        (ErrorKind::Engine, None),
        (ErrorKind::ShuttingDown, None),
    ] {
        roundtrip_response(ResponseBody::Error {
            kind,
            message: format!("synthetic {kind:?}"),
        });
        if let Some(e) = from {
            let ResponseBody::Error { kind: mapped, .. } = protocol::serve_error_body(&e) else {
                panic!("{e} maps to a non-error body");
            };
            assert_eq!(mapped, kind, "{e}");
        }
    }
}

fn sample_event_delta() -> EventFrame {
    EventFrame {
        subscription: 2,
        query: 1,
        version: 6,
        event: OutputEvent::Delta(WireOutputDelta {
            changed: vec![(3u64.to_value(), 1.5f64.to_value())],
            removed: vec![9u64.to_value()],
        }),
    }
}

#[test]
fn server_frames_round_trip_and_discriminate() {
    // A pushed delta event survives the wire.
    let event = ServerFrame::Event(sample_event_delta());
    let json = serde_json::to_string(&event).expect("serialize");
    let back: ServerFrame = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, event, "{json}");
    // The event tag is what clients discriminate on.
    let value: Value = serde_json::from_str(&json).expect("value");
    assert!(value.get_field("event").is_some(), "{json}");

    // The terminal poison notice.
    let poisoned = ServerFrame::Event(EventFrame {
        subscription: 0,
        query: 0,
        version: 9,
        event: OutputEvent::Poisoned,
    });
    let json = serde_json::to_string(&poisoned).expect("serialize");
    let back: ServerFrame = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, poisoned, "{json}");

    // A reply read through the ServerFrame lens stays a reply.
    let reply = ServerFrame::Reply(Response {
        id: 5,
        body: ResponseBody::ShuttingDown,
    });
    let json = serde_json::to_string(&reply).expect("serialize");
    let back: ServerFrame = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, reply, "{json}");
}

#[test]
fn a_spliced_shared_tail_is_byte_identical_to_a_sent_event_frame() {
    // The daemon serializes an event's subscriber-independent tail once
    // and splices each subscription id in front; old per-frame readers
    // must not be able to tell.
    let events = [
        OutputEvent::Delta(WireOutputDelta::default()),
        OutputEvent::Delta(WireOutputDelta {
            // Non-finite floats degrade to null; string keys need escapes.
            changed: vec![
                (3u64.to_value(), f64::INFINITY.to_value()),
                (4u64.to_value(), f64::NAN.to_value()),
                (5u64.to_value(), (-0.0f64).to_value()),
                (
                    "quote\" slash\\ newline\n tab\t bell\u{7} é".to_value(),
                    1.5f64.to_value(),
                ),
            ],
            removed: vec![9u64.to_value(), "}{\",".to_value()],
        }),
        OutputEvent::Poisoned,
    ];
    for event in events {
        let delta = QueryDelta {
            query: 12,
            version: 345,
            event,
        };
        let tail = protocol::encode_event_tail(&delta);
        for subscription in [0, 7, 10, 99, 100, 123_456] {
            let mut sent = Vec::new();
            protocol::send(
                &mut sent,
                &ServerFrame::Event(EventFrame {
                    subscription,
                    query: delta.query,
                    version: delta.version,
                    event: delta.event.clone(),
                }),
            )
            .unwrap();
            let mut spliced = Vec::new();
            protocol::put_event_frame(&mut spliced, subscription, &tail).unwrap();
            assert_eq!(
                String::from_utf8(spliced).unwrap(),
                String::from_utf8(sent.clone()).unwrap()
            );
            // The length the daemon's `event_bytes` counter adds is the
            // payload's: the frame minus its length line and two newlines.
            let payload = protocol::read_frame(&mut Cursor::new(sent))
                .unwrap()
                .expect("frame");
            assert_eq!(
                protocol::event_payload_len(subscription, &tail),
                payload.len()
            );
        }
    }
}

#[test]
fn framed_send_recv_round_trips_over_a_byte_stream() {
    let mut wire = Vec::new();
    let ping = Request {
        id: 1,
        body: RequestBody::Status,
    };
    let apply = Request {
        id: 2,
        body: RequestBody::Apply {
            delta: sample_delta(),
        },
    };
    protocol::send(&mut wire, &ping).unwrap();
    protocol::send(&mut wire, &apply).unwrap();

    let mut reader = Cursor::new(wire);
    let first: Request = protocol::recv(&mut reader).unwrap().expect("first frame");
    let second: Request = protocol::recv(&mut reader).unwrap().expect("second frame");
    assert_eq!(first, ping);
    assert_eq!(second, apply);
    // Clean EOF after the last complete frame is not an error.
    assert!(protocol::recv::<_, Request>(&mut reader).unwrap().is_none());
}

fn expect_frame_error(bytes: &[u8], needle: &str) {
    let mut reader = Cursor::new(bytes.to_vec());
    match protocol::read_frame(&mut reader) {
        Err(WireError::Frame(m)) => {
            assert!(
                m.contains(needle),
                "error {m:?} does not mention {needle:?}"
            )
        }
        other => panic!("expected a Frame error mentioning {needle:?}, got {other:?}"),
    }
}

#[test]
fn malformed_frames_are_rejected() {
    // A length line that is not a number.
    expect_frame_error(b"abc\n{}\n", "bad frame length line");
    // A declared length above the allocation cap.
    expect_frame_error(format!("{}\n", MAX_FRAME_BYTES + 1).as_bytes(), "cap");
    // EOF in the middle of a declared payload.
    expect_frame_error(b"100\n{\"id\":1}", "truncated");
    // A payload longer than its declared length: the byte where the
    // terminating newline must sit is still payload.
    expect_frame_error(b"3\n{\"id\":1,\"op\":\"status\"}\n", "overruns");
    // A payload that is not UTF-8.
    expect_frame_error(b"2\n\xff\xfe\n", "UTF-8");
}

#[test]
fn trailing_garbage_inside_a_well_framed_payload_is_rejected() {
    // The frame is valid; the JSON value ends early.  The parser must not
    // silently ignore the garbage after it (ensure_fully_consumed on the
    // wire).
    let payload = "{\"id\":1,\"op\":\"status\"} trailing";
    let mut wire = Vec::new();
    protocol::write_frame(&mut wire, payload).unwrap();
    let mut reader = Cursor::new(wire);
    match protocol::recv::<_, Request>(&mut reader) {
        Err(WireError::Json(_)) => {}
        other => panic!("expected a Json error for trailing garbage, got {other:?}"),
    }
}

#[test]
fn unknown_tags_and_missing_fields_are_json_errors() {
    for payload in [
        "{\"id\":1,\"op\":\"frobnicate\"}", // unknown op
        "{\"id\":1}",                       // missing op
        "{\"op\":\"status\"}",              // missing id
        "{\"id\":1,\"op\":\"output\"}",     // missing query field
        "{\"id\":1,\"op\":\"register\",\"spec\":{\"query\":\"pagerank\"}}", // unknown spec
    ] {
        let mut wire = Vec::new();
        protocol::write_frame(&mut wire, payload).unwrap();
        let mut reader = Cursor::new(wire);
        match protocol::recv::<_, Request>(&mut reader) {
            Err(WireError::Json(_)) => {}
            other => panic!("payload {payload:?}: expected Json error, got {other:?}"),
        }
    }
}

#[test]
fn an_undecodable_request_reports_its_own_id_when_it_has_one() {
    let id_of = |payload: &str| protocol::decode_request(payload).unwrap_err().0;
    assert_eq!(id_of(r#"{"id":5,"op":"frobnicate"}"#), 5);
    assert_eq!(id_of(r#"{"id":5,"op":"output"}"#), 5);
    assert_eq!(id_of(r#"{"id":"five","op":"status"}"#), 0);
    assert_eq!(id_of(r#"{"op":"status"}"#), 0);
    assert_eq!(id_of("{not json"), 0);
    assert_eq!(
        protocol::decode_request(r#"{"id":6,"op":"status"}"#).unwrap(),
        Request {
            id: 6,
            body: RequestBody::Status,
        }
    );
}

#[test]
fn answer_kinds_equal_the_derived_wire_tags() {
    for answer in [
        QueryAnswer::Sssp { distances: vec![] },
        QueryAnswer::Cc { components: vec![] },
    ] {
        let value = answer.to_value();
        let tag = value.get_field("kind").and_then(|v| v.as_str());
        assert_eq!(Some(answer.kind()), tag, "{answer:?}");
    }
}

#[test]
fn answers_serialize_in_canonical_sorted_order() {
    // from_sssp / from_cc sort by vertex id, so two servers producing the
    // same answer produce byte-identical frames — the property the e2e
    // equality test leans on.
    let a = QueryAnswer::Sssp {
        distances: vec![(0, 0.0), (1, 2.0)],
    };
    let json = serde_json::to_string(&ResponseBody::Answer {
        query: 0,
        answer: a,
    })
    .unwrap();
    assert_eq!(
        json,
        "{\"reply\":\"answer\",\"query\":0,\"answer\":{\"kind\":\"sssp\",\"distances\":[[0,0.0],[1,2.0]]}}"
    );
}

/// Serializes `value`, asserts the exact JSON text, and decodes that text
/// back to `value`: one row of the golden table below.
fn golden<T>(value: T, json: &str)
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let sent = serde_json::to_string(&value).expect("serialize");
    assert_eq!(sent, json, "wire bytes changed for {value:?}");
    let back: T = serde_json::from_str(json).expect("deserialize");
    assert_eq!(back, value, "golden text did not decode back: {json}");
}

#[test]
fn golden_wire_bytes() {
    // Requests: every op, `metrics` with and without the samples flag.
    golden(RequestBody::Status, r#"{"op":"status"}"#);
    golden(
        RequestBody::Metrics { samples: false },
        r#"{"op":"metrics","samples":false}"#,
    );
    golden(
        RequestBody::Metrics { samples: true },
        r#"{"op":"metrics","samples":true}"#,
    );
    golden(
        RequestBody::Register {
            spec: QuerySpec::Sssp { source: 3 },
        },
        r#"{"op":"register","spec":{"query":"sssp","source":3}}"#,
    );
    golden(
        RequestBody::Apply {
            delta: sample_delta(),
        },
        r#"{"op":"apply","delta":{"added_vertices":[[9,3]],"added_edges":[{"src":0,"dst":9,"weight":2.5,"label":0}],"removed_edges":[[1,2]],"removed_vertices":[4]}}"#,
    );
    golden(
        RequestBody::ApplyBatch {
            deltas: vec![sample_delta(), GraphDelta::new()],
        },
        r#"{"op":"apply_batch","deltas":[{"added_vertices":[[9,3]],"added_edges":[{"src":0,"dst":9,"weight":2.5,"label":0}],"removed_edges":[[1,2]],"removed_vertices":[4]},{"added_vertices":[],"added_edges":[],"removed_edges":[],"removed_vertices":[]}]}"#,
    );
    golden(
        RequestBody::Output { query: 0 },
        r#"{"op":"output","query":0}"#,
    );
    golden(
        RequestBody::TryOutput { query: 1 },
        r#"{"op":"try_output","query":1}"#,
    );
    golden(
        RequestBody::Evict { query: 2 },
        r#"{"op":"evict","query":2}"#,
    );
    golden(
        RequestBody::Rehydrate { query: 3 },
        r#"{"op":"rehydrate","query":3}"#,
    );
    golden(
        RequestBody::Compact { query: 4 },
        r#"{"op":"compact","query":4}"#,
    );
    golden(
        RequestBody::Subscribe { query: 5 },
        r#"{"op":"subscribe","query":5}"#,
    );
    golden(
        RequestBody::Unsubscribe { subscription: 6 },
        r#"{"op":"unsubscribe","subscription":6}"#,
    );
    golden(RequestBody::Shutdown, r#"{"op":"shutdown"}"#);
    golden(
        Request {
            id: 42,
            body: RequestBody::Output { query: 7 },
        },
        r#"{"id":42,"op":"output","query":7}"#,
    );

    // Responses: every reply, `applied` with and without a rejection.
    golden(
        ResponseBody::Registered {
            query: 2,
            spec: QuerySpec::Cc,
        },
        r#"{"reply":"registered","query":2,"spec":{"query":"cc"}}"#,
    );
    golden(
        ResponseBody::Applied {
            reports: vec![sample_summary()],
            rejected: None,
        },
        r#"{"reply":"applied","reports":[{"version":3,"rebuilt":[0,2],"reused":6,"refreshed":[0,1],"failed":[2],"peval_calls":1,"caught_up":[1],"deferred":[3],"poisoned":[4]}],"rejected":null}"#,
    );
    golden(
        ResponseBody::Applied {
            reports: vec![],
            rejected: Some(RejectedDelta {
                index: 1,
                reason: "cannot add vertex 9".to_string(),
            }),
        },
        r#"{"reply":"applied","reports":[],"rejected":{"index":1,"reason":"cannot add vertex 9"}}"#,
    );
    golden(
        ResponseBody::Answer {
            query: 0,
            answer: QueryAnswer::Cc {
                components: vec![(0, 0), (1, 0)],
            },
        },
        r#"{"reply":"answer","query":0,"answer":{"kind":"cc","components":[[0,0],[1,0]]}}"#,
    );
    golden(
        ResponseBody::Evicted {
            query: 3,
            spill: "/tmp/spill/q3".to_string(),
        },
        r#"{"reply":"evicted","query":3,"spill":"/tmp/spill/q3"}"#,
    );
    golden(
        ResponseBody::Rehydrated {
            query: 3,
            replayed: 4,
            peval_calls: 0,
        },
        r#"{"reply":"rehydrated","query":3,"replayed":4,"peval_calls":0}"#,
    );
    golden(
        ResponseBody::Compacted {
            query: 3,
            folded: true,
        },
        r#"{"reply":"compacted","query":3,"folded":true}"#,
    );
    golden(
        ResponseBody::Subscribed {
            query: 1,
            subscription: 3,
        },
        r#"{"reply":"subscribed","query":1,"subscription":3}"#,
    );
    golden(
        ResponseBody::Unsubscribed { subscription: 3 },
        r#"{"reply":"unsubscribed","subscription":3}"#,
    );
    golden(
        ResponseBody::Status {
            status: StatusInfo {
                version: 5,
                retained_versions: 6,
                num_queries: 1,
                num_evicted: 1,
                resident_partial_bytes: 0,
                spill_dir: "/tmp/grape-spill".to_string(),
                compactions: 2,
                queries: vec![QueryRow {
                    spec: QuerySpec::Sssp { source: 0 },
                    status: sample_status(),
                }],
            },
        },
        r#"{"reply":"status","status":{"version":5,"retained_versions":6,"num_queries":1,"num_evicted":1,"resident_partial_bytes":0,"spill_dir":"/tmp/grape-spill","compactions":2,"queries":[{"spec":{"query":"sssp","source":0},"status":{"query":1,"version":5,"evicted":true,"poisoned":false,"updates_applied":5,"incremental_updates":4,"bounded_updates":1,"retracted_updates":2,"partial_bytes":0,"watchers":0,"spill_chain":2,"spill_bytes":4096,"compactions":1}}]}}"#,
    );
    golden(
        ResponseBody::Metrics {
            metrics: MetricsInfo {
                uptime_ms: 12345,
                version: 5,
                latency: LatencySummary {
                    samples: 2,
                    mean_ms: 1.25,
                    p50_ms: 1.0,
                    p99_ms: 1.5,
                    max_ms: 1.5,
                },
                latency_samples: 2,
                samples: Some(vec![1.0, 1.5]),
                resident_partial_bytes: 1024,
                compactions: 7,
                event_encodes: 18,
                event_frames: 72,
                event_bytes: 4096,
                pipe_bytes: 512,
                queries: vec![],
            },
        },
        r#"{"reply":"metrics","metrics":{"uptime_ms":12345,"version":5,"latency":{"samples":2,"mean_ms":1.25,"p50_ms":1.0,"p99_ms":1.5,"max_ms":1.5},"latency_samples":2,"samples":[1.0,1.5],"resident_partial_bytes":1024,"compactions":7,"event_encodes":18,"event_frames":72,"event_bytes":4096,"pipe_bytes":512,"queries":[]}}"#,
    );
    golden(ResponseBody::ShuttingDown, r#"{"reply":"shutting_down"}"#);
    golden(
        ResponseBody::Error {
            kind: ErrorKind::UnknownHandle,
            message: "unknown query 9".to_string(),
        },
        r#"{"reply":"error","kind":"UnknownHandle","message":"unknown query 9"}"#,
    );
    golden(
        Response {
            id: 7,
            body: ResponseBody::ShuttingDown,
        },
        r#"{"id":7,"reply":"shutting_down"}"#,
    );

    // Answers and specs on their own.
    golden(
        QueryAnswer::Sssp {
            distances: vec![(0, 0.0), (1, 2.5)],
        },
        r#"{"kind":"sssp","distances":[[0,0.0],[1,2.5]]}"#,
    );
    golden(
        QueryAnswer::Cc {
            components: vec![(0, 0), (2, 0)],
        },
        r#"{"kind":"cc","components":[[0,0],[2,0]]}"#,
    );
    golden(
        QuerySpec::Sssp { source: 3 },
        r#"{"query":"sssp","source":3}"#,
    );
    golden(QuerySpec::Cc, r#"{"query":"cc"}"#);

    // One event frame per output event.
    golden(
        sample_event_delta(),
        r#"{"subscription":2,"query":1,"version":6,"event":"delta","changed":[[3,1.5]],"removed":[9]}"#,
    );
    golden(
        EventFrame {
            subscription: 0,
            query: 1,
            version: 9,
            event: OutputEvent::Poisoned,
        },
        r#"{"subscription":0,"query":1,"version":9,"event":"poisoned"}"#,
    );
}
