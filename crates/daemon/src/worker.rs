//! The `grape-worker` subprocess body: the program registry behind the
//! [`grape_core::transport::TransportSpec::Process`] transport.
//!
//! The engine side ([`grape_core::worker_proto`]) is program-generic — it
//! ships the program's *name* in the init frame and leaves instantiation to
//! the worker binary.  This module owns that dispatch: it maps the wire
//! name to a concrete PIE program from `grape-algorithms` and hands the
//! pipe to [`grape_core::worker_proto::serve_program`], which runs
//! PEval/IncEval against the fragments this worker owns until the parent
//! closes the pipe.

use std::io::{BufRead, Write};

use grape_algorithms::{Cc, Cf, Sim, Sssp, SubIso};
use grape_core::frame;
use grape_core::worker_proto::{decode_init, serve_program};

/// Wire names this worker can serve, in registry order.
pub const KNOWN_PROGRAMS: &[&str] = &["sssp", "cc", "sim", "sim-optimized", "subiso", "cf"];

/// Reads the init handshake from `input`, instantiates the named program
/// and serves evaluation requests until end of stream.
///
/// Errors are transport-level (malformed handshake, unknown program,
/// broken pipe); the caller should print them to stderr and exit non-zero
/// so the parent engine sees the dead pipe and fails the run.
pub fn run(input: &mut dyn BufRead, output: &mut dyn Write) -> Result<(), String> {
    let mut payload = Vec::new();
    if !frame::read_frame(input, &mut payload).map_err(|e| e.to_string())? {
        return Ok(()); // parent died before the handshake: nothing to do
    }
    let (init, fragments) =
        decode_init(&payload).map_err(|e| format!("malformed init frame: {e}"))?;
    match init.program.as_str() {
        "sssp" => serve_program(&Sssp, init, fragments, input, output),
        "cc" => serve_program(&Cc, init, fragments, input, output),
        "sim" => serve_program(&Sim::new(), init, fragments, input, output),
        "sim-optimized" => serve_program(&Sim::with_index(), init, fragments, input, output),
        "subiso" => serve_program(&SubIso, init, fragments, input, output),
        "cf" => serve_program(&Cf, init, fragments, input, output),
        other => Err(format!(
            "unknown program {other:?} (this worker serves: {})",
            KNOWN_PROGRAMS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use grape_algorithms::{CcQuery, CfQuery, SimQuery, SsspQuery, SubIsoQuery};
    use grape_core::worker_proto::{
        decode, encode_init, encode_value, Handshake, WorkerReply, WorkerRequest,
    };
    use grape_graph::builder::GraphBuilder;
    use grape_graph::Pattern;
    use grape_partition::edge_cut::RangeEdgeCut;
    use grape_partition::snapshot::write_fragment_records;
    use grape_partition::strategy::PartitionStrategy;
    use serde::{Serialize, Value};

    use super::*;

    /// Frames each payload onto one byte stream and runs the worker over it.
    fn run_over(payloads: &[Vec<u8>]) -> Result<Vec<u8>, String> {
        let mut wire = Vec::new();
        for payload in payloads {
            frame::put_frame(&mut wire, &[payload]).unwrap();
        }
        let mut input = BufReader::new(&wire[..]);
        let mut output = Vec::new();
        run(&mut input, &mut output).map(|()| output)
    }

    /// The payload of one message's value tree.
    fn payload(msg: &impl Serialize) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_value(&mut payload, &msg.to_value());
        payload
    }

    /// An init payload with `header` and an empty fragment block.
    fn bare_init(header: Value) -> Vec<u8> {
        let mut payload = payload(&header);
        write_fragment_records(&[], &mut payload);
        payload
    }

    /// An init payload shipping fragment 0 of a one-fragment weighted path
    /// `0 → 1 → 2` to `program`.
    fn init(program: &str, query: Value, partials: Vec<Option<Value>>) -> Vec<u8> {
        let graph = GraphBuilder::directed()
            .add_labeled_edge(0, 1, 2.0, 1)
            .add_labeled_edge(1, 2, 3.0, 2)
            .build();
        let frag = RangeEdgeCut::new(1).partition(&graph).unwrap();
        let handshake = Handshake {
            program: program.to_string(),
            query,
            fragments: vec![0],
            partials,
        };
        let mut payload = Vec::new();
        encode_init(&mut payload, handshake, &[frag.fragment(0)]);
        payload
    }

    fn sssp_init(partials: Vec<Option<Value>>) -> Vec<u8> {
        init("sssp", SsspQuery::new(0).to_value(), partials)
    }

    /// The worker's replies, decoded.
    fn replies(output: &[u8]) -> Vec<WorkerReply> {
        let mut r = BufReader::new(output);
        let mut payload = Vec::new();
        let mut out = Vec::new();
        while frame::read_frame(&mut r, &mut payload).unwrap() {
            out.push(decode(&payload).unwrap());
        }
        out
    }

    /// The message of an error reply; panics on any other reply.
    fn error(reply: &WorkerReply) -> &str {
        match reply {
            WorkerReply::Error(e) => e,
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_is_an_orderly_shutdown() {
        assert!(run_over(&[]).unwrap().is_empty());
    }

    #[test]
    fn unknown_program_is_rejected() {
        let err = run_over(&[init("pagerank", Value::Null, Vec::new())]).unwrap_err();
        assert!(err.contains("unknown program"), "{err}");
        assert!(err.contains("sssp"), "{err}");
    }

    #[test]
    fn missing_program_field_is_rejected() {
        let header = Value::Map(vec![("op".to_string(), Value::Str("init".to_string()))]);
        let err = run_over(&[bare_init(header)]).unwrap_err();
        assert!(err.contains("missing field `program`"), "{err}");
    }

    /// An old parent that still sends a JSON-text init frame, and a value
    /// tree cut short, both fail the handshake cleanly.
    #[test]
    fn json_text_and_truncated_init_frames_are_malformed() {
        let json = br#"{"op":"init","program":"sssp","query":{"source":0},"fragments":[]}"#;
        let err = run_over(&[json.to_vec()]).unwrap_err();
        assert!(err.starts_with("malformed init frame"), "{err}");

        let header = payload(&WorkerRequest::Init(Handshake {
            program: "sssp".to_string(),
            query: Value::Null,
            fragments: Vec::new(),
            partials: Vec::new(),
        }));
        for cut in [1, header.len() / 2, header.len() - 1] {
            let err = run_over(&[header[..cut].to_vec()]).unwrap_err();
            assert!(err.starts_with("malformed init frame"), "cut {cut}: {err}");
        }
    }

    /// A whole conversation over binary frames: handshake with a real
    /// fragment, PEval, partial collection, a PEval of a fragment this
    /// worker does not own, orderly exit.
    #[test]
    fn sssp_conversation_over_binary_frames() {
        let output = run_over(&[
            sssp_init(Vec::new()),
            payload(&WorkerRequest::Peval { fragment: 0 }),
            payload(&WorkerRequest::GetPartials),
            payload(&WorkerRequest::Peval { fragment: 5 }),
            payload(&WorkerRequest::Exit),
        ])
        .unwrap();
        let replies = replies(&output);
        assert_eq!(replies.len(), 5, "handshake + one reply per request");
        assert_eq!(replies[0], WorkerReply::Done);
        assert!(
            matches!(replies[1], WorkerReply::Messages(_)),
            "{replies:?}"
        );
        let WorkerReply::Partials(partials) = &replies[2] else {
            panic!("get_partials reply carries partials: {:?}", replies[2]);
        };
        assert_eq!(partials.len(), 1);
        assert!(partials[0].is_some(), "the collected partial is present");
        assert!(error(&replies[3]).contains("not owned"), "{replies:?}");
        assert_eq!(replies[4], WorkerReply::Done);
    }

    /// A payload that is no request — an unknown op, bytes that are no
    /// value tree, a tree with a byte after it — is answered with an error,
    /// and the next request is still served.
    #[test]
    fn unknown_op_is_answered_and_the_worker_keeps_serving() {
        let frobnicate = Value::Map(vec![(
            "op".to_string(),
            Value::Str("frobnicate".to_string()),
        )]);
        let mut trailing = payload(&WorkerRequest::GetPartials);
        trailing.push(0);
        let output = run_over(&[
            sssp_init(Vec::new()),
            payload(&frobnicate),
            vec![0xff],
            trailing,
            payload(&WorkerRequest::Peval { fragment: 0 }),
        ])
        .unwrap();
        let replies = replies(&output);
        assert_eq!(replies.len(), 5);
        assert!(error(&replies[1]).contains("unknown variant `frobnicate`"));
        assert!(error(&replies[2]).starts_with("malformed request"));
        assert!(error(&replies[3]).contains("trailing"));
        assert!(
            matches!(replies[4], WorkerReply::Messages(_)),
            "{replies:?}"
        );
    }

    /// Every check on a request is an error reply that leaves the shard
    /// as it was: IncEval before PEval, an undecodable update, a partials
    /// list that does not cover the shard.  `set_partials` and `clear`
    /// really replace the partials, and partials retained in the handshake
    /// let IncEval run without a PEval.
    #[test]
    fn request_checks_are_error_replies_and_partials_move_as_told() {
        let inceval = |updates: Vec<Value>| {
            payload(&WorkerRequest::Inceval {
                fragment: 0,
                updates,
            })
        };
        let set = |partials: Vec<Option<Value>>| payload(&WorkerRequest::SetPartials { partials });
        let output = run_over(&[
            sssp_init(Vec::new()),
            inceval(Vec::new()),
            payload(&WorkerRequest::Peval { fragment: 0 }),
            inceval(vec![Value::Str("not a message".to_string())]),
            set(vec![None, None]),
            payload(&WorkerRequest::GetPartials),
            set(vec![None]),
            inceval(Vec::new()),
        ])
        .unwrap();
        let fresh = replies(&output);
        assert!(error(&fresh[1]).contains("IncEval before PEval"));
        assert!(error(&fresh[3]).contains("undecodable update"));
        assert!(error(&fresh[4]).contains("2 partials for 1 fragments"));
        let WorkerReply::Partials(kept) = &fresh[5] else {
            panic!("{fresh:?}");
        };
        assert!(kept[0].is_some(), "a rejected set_partials changes nothing");
        assert_eq!(fresh[6], WorkerReply::Done);
        assert!(error(&fresh[7]).contains("IncEval before PEval"));

        let output = run_over(&[
            sssp_init(kept.clone()),
            inceval(Vec::new()),
            payload(&WorkerRequest::Clear),
            inceval(Vec::new()),
        ])
        .unwrap();
        let retained = replies(&output);
        assert!(
            matches!(retained[1], WorkerReply::Messages(_)),
            "{retained:?}"
        );
        assert_eq!(retained[2], WorkerReply::Done);
        assert!(error(&retained[3]).contains("IncEval before PEval"));
    }

    /// A handshake the worker cannot hold ends the conversation: partials
    /// that do not cover the shard, ids that do not match the records, an
    /// undecodable partial.
    #[test]
    fn handshake_checks_end_the_conversation() {
        let two = sssp_init(vec![Some(Value::Null), Some(Value::Null)]);
        let err = run_over(&[two]).unwrap_err();
        assert!(err.contains("2 partials for 1 fragments"), "{err}");

        let header = Value::Map(vec![
            ("op".to_string(), Value::Str("init".to_string())),
            ("program".to_string(), Value::Str("sssp".to_string())),
            ("query".to_string(), SsspQuery::new(0).to_value()),
            ("fragments".to_string(), vec![0usize, 1].to_value()),
        ]);
        let err = run_over(&[bare_init(header)]).unwrap_err();
        assert!(err.contains("names 2 fragments but carries 0"), "{err}");

        let bad = sssp_init(vec![Some(Value::Str("x".to_string()))]);
        let err = run_over(&[bad]).unwrap_err();
        assert!(err.contains("undecodable partial"), "{err}");
    }

    /// `null` on the pipe means "no partial yet", so no family's partial
    /// may encode to it: every registered program's PEval partial crosses
    /// as a map (each family's partial is a struct with named fields).
    #[test]
    fn every_family_partial_crosses_as_a_map() {
        let sim = || SimQuery::new(Pattern::random(3, 4, &[1, 2], 7)).to_value();
        let cf = CfQuery {
            epochs: 1,
            num_factors: 2,
            ..Default::default()
        };
        let queries = [
            ("sssp", SsspQuery::new(0).to_value()),
            ("cc", CcQuery.to_value()),
            ("sim", sim()),
            ("sim-optimized", sim()),
            (
                "subiso",
                SubIsoQuery::new(Pattern::random(2, 1, &[1, 2], 7)).to_value(),
            ),
            ("cf", cf.to_value()),
        ];
        assert_eq!(queries.each_ref().map(|(name, _)| *name), KNOWN_PROGRAMS);
        for (name, query) in queries {
            let output = run_over(&[
                init(name, query, Vec::new()),
                payload(&WorkerRequest::Peval { fragment: 0 }),
                payload(&WorkerRequest::GetPartials),
            ])
            .unwrap();
            let replies = replies(&output);
            assert!(
                matches!(&replies[2], WorkerReply::Partials(p) if matches!(p[..], [Some(Value::Map(_))])),
                "{name}: {replies:?}"
            );
        }
    }
}
