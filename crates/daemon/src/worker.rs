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
use serde::Value;

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
    let name = init
        .get_field("program")
        .and_then(Value::as_str)
        .ok_or_else(|| "init frame is missing field `program`".to_string())?;
    match name {
        "sssp" => serve_program(&Sssp, &init, fragments, input, output),
        "cc" => serve_program(&Cc, &init, fragments, input, output),
        "sim" => serve_program(&Sim::new(), &init, fragments, input, output),
        "sim-optimized" => serve_program(&Sim::with_index(), &init, fragments, input, output),
        "subiso" => serve_program(&SubIso, &init, fragments, input, output),
        "cf" => serve_program(&Cf, &init, fragments, input, output),
        other => Err(format!(
            "unknown program {other:?} (this worker serves: {})",
            KNOWN_PROGRAMS.join(", ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use grape_algorithms::sssp::SsspQuery;
    use grape_core::worker_proto::{decode_value, encode_init, encode_value};
    use grape_graph::builder::GraphBuilder;
    use grape_partition::edge_cut::RangeEdgeCut;
    use grape_partition::snapshot::write_fragment_records;
    use grape_partition::strategy::PartitionStrategy;
    use serde::Serialize;

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

    /// An init payload with `header` and an empty fragment block.
    fn bare_init(header: Value) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_value(&mut payload, &header);
        write_fragment_records(&[], &mut payload);
        payload
    }

    fn request(op: &str, fields: Vec<(String, Value)>) -> Vec<u8> {
        let mut map = vec![("op".to_string(), Value::Str(op.to_string()))];
        map.extend(fields);
        let mut payload = Vec::new();
        encode_value(&mut payload, &Value::Map(map));
        payload
    }

    /// The worker's replies, decoded.
    fn replies(output: &[u8]) -> Vec<Value> {
        let mut r = BufReader::new(output);
        let mut payload = Vec::new();
        let mut out = Vec::new();
        while frame::read_frame(&mut r, &mut payload).unwrap() {
            out.push(decode_value(&payload).unwrap());
        }
        out
    }

    #[test]
    fn empty_stream_is_an_orderly_shutdown() {
        assert!(run_over(&[]).unwrap().is_empty());
    }

    #[test]
    fn unknown_program_is_rejected() {
        let init = bare_init(Value::Map(vec![(
            "program".to_string(),
            Value::Str("pagerank".to_string()),
        )]));
        let err = run_over(&[init]).unwrap_err();
        assert!(err.contains("unknown program"), "{err}");
        assert!(err.contains("sssp"), "{err}");
    }

    #[test]
    fn missing_program_field_is_rejected() {
        let err = run_over(&[bare_init(Value::Map(Vec::new()))]).unwrap_err();
        assert!(err.contains("missing field `program`"), "{err}");
    }

    /// An old parent that still sends a JSON-text init frame, and a value
    /// tree cut short, both fail the handshake cleanly.
    #[test]
    fn json_text_and_truncated_init_frames_are_malformed() {
        let json = br#"{"op":"init","program":"sssp","query":{"source":0},"fragments":[]}"#;
        let err = run_over(&[json.to_vec()]).unwrap_err();
        assert!(err.starts_with("malformed init frame"), "{err}");

        let mut header = Vec::new();
        encode_value(
            &mut header,
            &Value::Map(vec![(
                "program".to_string(),
                Value::Str("sssp".to_string()),
            )]),
        );
        for cut in [1, header.len() / 2, header.len() - 1] {
            let err = run_over(&[header[..cut].to_vec()]).unwrap_err();
            assert!(err.starts_with("malformed init frame"), "cut {cut}: {err}");
        }
    }

    /// A whole conversation over binary frames: handshake with a real
    /// fragment, PEval, partial collection, orderly exit.
    #[test]
    fn sssp_conversation_over_binary_frames() {
        let graph = GraphBuilder::directed()
            .add_weighted_edge(0, 1, 2.0)
            .add_weighted_edge(1, 2, 3.0)
            .build();
        let frag = RangeEdgeCut::new(1).partition(&graph).unwrap();
        let mut init = Vec::new();
        encode_init(
            &mut init,
            "sssp",
            SsspQuery::new(0).to_value(),
            &[(0, frag.fragment(0))],
            Vec::new(),
        );
        let output = run_over(&[
            init,
            request("peval", vec![("fragment".to_string(), Value::UInt(0))]),
            request("get_partials", Vec::new()),
            request("peval", vec![("fragment".to_string(), Value::UInt(5))]),
            request("exit", Vec::new()),
        ])
        .unwrap();
        let replies = replies(&output);
        assert_eq!(replies.len(), 5, "handshake + one reply per request");
        for (i, reply) in replies.iter().enumerate() {
            let ok = reply.get_field("ok") == Some(&Value::Bool(true));
            assert_eq!(ok, i != 3, "reply {i}: {reply:?}");
        }
        let Some(Value::Seq(partials)) = replies[2].get_field("partials") else {
            panic!("get_partials reply carries partials: {:?}", replies[2]);
        };
        assert_eq!(partials.len(), 1);
        assert_ne!(partials[0].get_field("partial"), Some(&Value::Null));
    }
}
