//! The worker-pipe protocol of [`crate::transport::TransportSpec::Process`].
//!
//! Under the process transport, fragments are sharded across OS worker
//! subprocesses (`grape-worker`, shipped by the daemon crate): PEval and
//! IncEval run inside the process that *owns* each fragment, and only the
//! handshake (query + fragments + retained partials), per-evaluation
//! update-parameter messages and the collected partials cross the pipe.
//! Message routing through `G_P`, seed injection, superstep scheduling and
//! checkpoint bookkeeping all stay in the parent — the worker is a pure
//! evaluation server.
//!
//! ## Wire
//!
//! Frames use the shared length-delimited framing of [`crate::frame`] over
//! the child's stdin/stdout.  Every payload is one binary value tree
//! (`grape_graph::io::write_value_tree`: tagged little-endian, each `f64`
//! carried as its bits) — except the `init` request, whose tree is
//! followed by the dense fragment block of
//! `grape_partition::snapshot::write_fragment_records`.  Nothing may follow
//! either: decoding rejects trailing bytes.  Every request is answered by
//! exactly one reply; replies carry `{"ok": true, ...}` on success and
//! `{"ok": false, "error": "…"}` on failure.
//!
//! ## Requests
//!
//! | op             | request fields                    | reply fields      |
//! |----------------|-----------------------------------|-------------------|
//! | `init`         | `program`, `query`, `fragments`, optional `partials` (+ fragment block) | — |
//! | `peval`        | `fragment`                        | `messages`, optional `again` |
//! | `inceval`      | `fragment`, `updates`             | `messages`, optional `again` |
//! | `get_partials` | —                                 | `partials`        |
//! | `set_partials` | `partials`                        | —                 |
//! | `clear`        | —                                 | —                 |
//! | `exit`         | —                                 | —                 |
//!
//! `fragments` lists the **global** fragment id of each record in the
//! block, in block order; `partials` entries are `{"id": …, "partial": …}`
//! with `null` for a slot that has not been evaluated yet;
//! `messages`/`updates` entries are whatever the program's
//! [`crate::pie::ProcessCodec`] produces (two-element `[key, value]`
//! sequences for [`crate::pie::SerdeProcessCodec`]); `again` is `true`, and
//! present only, when the evaluation called [`crate::pie::Messages::run_again`].

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;

use grape_graph::io::{ensure_fully_consumed, read_value_tree, write_value_tree};
use grape_partition::fragment::Fragment;
use grape_partition::snapshot::{read_fragment_records, write_fragment_records};
use serde::{Deserialize, Serialize, Value};

use crate::frame;
use crate::pie::{Messages, PieProgram};

/// Name of the environment variable that pins the worker binary path
/// (otherwise discovered next to the current executable).
pub const WORKER_BIN_ENV: &str = "GRAPE_WORKER_BIN";

/// Fault-injection hook for the kill-mid-superstep tests: when set to `n`,
/// a worker exits hard (no reply, no cleanup) after serving `n` evaluation
/// requests.
pub const WORKER_CRASH_ENV: &str = "GRAPE_WORKER_CRASH_AFTER";

/// Locates the `grape-worker` binary: the [`WORKER_BIN_ENV`] override
/// first, then siblings of the current executable (covering both
/// `target/<profile>/` for binaries and `target/<profile>/deps/` for test
/// executables).  `None` when no candidate exists — the caller decides
/// whether that is an error (engine) or a reason to skip (tests on a cold
/// build tree that never compiled the daemon crate).
pub fn locate_worker_binary() -> Option<PathBuf> {
    if let Ok(p) = std::env::var(WORKER_BIN_ENV) {
        if !p.is_empty() {
            let p = PathBuf::from(p);
            return p.is_file().then_some(p);
        }
    }
    let name = format!("grape-worker{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent();
    while let Some(d) = dir {
        let candidate = d.join(&name);
        if candidate.is_file() {
            return Some(candidate);
        }
        if d.file_name().is_some_and(|n| n == "target") {
            break;
        }
        dir = d.parent();
    }
    None
}

/// Appends the binary encoding of one value tree to a payload buffer.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    write_value_tree(out, v).expect("writing into a Vec cannot fail");
}

/// Decodes a payload that holds exactly one value tree.
pub fn decode_value(payload: &[u8]) -> Result<Value, String> {
    let mut rest = payload;
    let v = read_value_tree(&mut rest).map_err(|e| e.to_string())?;
    ensure_fully_consumed(&mut rest).map_err(|e| e.to_string())?;
    Ok(v)
}

/// Appends the `init` handshake payload: the header tree (program name,
/// encoded query, the global ids of `fragments`, and — only when present —
/// the retained partials paired with their ids), then the dense fragment
/// block.
pub fn encode_init(
    out: &mut Vec<u8>,
    program: &str,
    query: Value,
    fragments: &[(usize, &Fragment)],
    partials: Vec<(usize, Value)>,
) {
    let ids: Vec<Value> = fragments.iter().map(|(id, _)| id.to_value()).collect();
    let mut map = vec![
        ("op".to_string(), Value::Str("init".to_string())),
        ("program".to_string(), Value::Str(program.to_string())),
        ("query".to_string(), query),
        ("fragments".to_string(), Value::Seq(ids)),
    ];
    if !partials.is_empty() {
        map.push((
            "partials".to_string(),
            Value::Seq(partial_entries(partials)),
        ));
    }
    encode_value(out, &Value::Map(map));
    let records: Vec<&Fragment> = fragments.iter().map(|&(_, frag)| frag).collect();
    write_fragment_records(&records, out);
}

/// Splits an `init` payload into its header tree and the fragments of the
/// dense block after it (every byte must belong to one or the other).
pub fn decode_init(payload: &[u8]) -> Result<(Value, Vec<Fragment>), String> {
    let mut rest = payload;
    let header = read_value_tree(&mut rest).map_err(|e| e.to_string())?;
    let fragments = read_fragment_records(rest).map_err(|e| e.to_string())?;
    Ok((header, fragments))
}

/// `{"id": …, "partial": …}` entries, the shape of `partials` fields.
pub(crate) fn partial_entries(partials: impl IntoIterator<Item = (usize, Value)>) -> Vec<Value> {
    partials
        .into_iter()
        .map(|(id, p)| {
            Value::Map(vec![
                ("id".to_string(), id.to_value()),
                ("partial".to_string(), p),
            ])
        })
        .collect()
}

/// One end of a worker pipe with its reused buffers: each outgoing payload
/// is encoded into one buffer, framed into another and handed to the
/// writer in a single `write_all`; each incoming payload lands in a third.
#[derive(Default)]
pub(crate) struct Pipe {
    payload: Vec<u8>,
    frame: Vec<u8>,
    incoming: Vec<u8>,
}

impl Pipe {
    /// Sends one frame whose payload is whatever `encode` appends, and
    /// returns the payload's length.
    pub(crate) fn send(
        &mut self,
        w: &mut dyn Write,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<usize, String> {
        self.payload.clear();
        encode(&mut self.payload);
        self.frame.clear();
        frame::put_frame(&mut self.frame, &[&self.payload])
            .expect("writing into a Vec cannot fail");
        w.write_all(&self.frame)
            .and_then(|()| w.flush())
            .map_err(|e| format!("pipe write failed: {e}"))?;
        Ok(self.payload.len())
    }

    /// Sends one value tree as a frame.
    pub(crate) fn send_value(&mut self, w: &mut dyn Write, v: &Value) -> Result<usize, String> {
        self.send(w, |out| encode_value(out, v))
    }

    /// Reads the next frame's payload; `Ok(None)` is a clean end of stream
    /// (the peer closed the pipe before a length line).
    pub(crate) fn recv(&mut self, r: &mut dyn BufRead) -> Result<Option<&[u8]>, String> {
        match frame::read_frame(r, &mut self.incoming) {
            Ok(true) => Ok(Some(&self.incoming)),
            Ok(false) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }
}

fn get<'v>(v: &'v Value, name: &str) -> Result<&'v Value, String> {
    v.get_field(name)
        .ok_or_else(|| format!("request is missing field `{name}`"))
}

fn reply_ok(fields: Vec<(String, Value)>) -> Value {
    let mut map = vec![("ok".to_string(), Value::Bool(true))];
    map.extend(fields);
    Value::Map(map)
}

fn reply_err(msg: &str) -> Value {
    Value::Map(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::Str(msg.to_string())),
    ])
}

/// The worker side of the pipe protocol: serves one program's evaluation
/// requests until `exit` or end of stream.  `init` and `records` are the
/// already-decoded handshake ([`decode_init`]; the caller peeks at the
/// header's `program` field to pick `P`).
///
/// Request-level failures (unknown fragment, codec mismatch, IncEval before
/// PEval) are answered with `{"ok": false}` and the loop keeps serving —
/// the parent turns them into [`crate::engine::EngineError::Worker`] and
/// tears the child down.  Only transport-level failures (broken pipe,
/// malformed frame) abort the loop.
pub fn serve_program<P: PieProgram>(
    program: &P,
    init: &Value,
    records: Vec<Fragment>,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> Result<(), String> {
    let codec = program
        .process_codec()
        .ok_or_else(|| format!("program `{}` has no process codec", program.name()))?;

    // Handshake: query, owned fragments, optional retained partials.
    let query = codec
        .decode_query(get(init, "query")?)
        .map_err(|e| format!("handshake query: {e}"))?;
    let ids = Vec::<usize>::from_value(get(init, "fragments")?)
        .map_err(|e| format!("handshake fragment ids: {e}"))?;
    if ids.len() != records.len() {
        return Err(format!(
            "handshake names {} fragments but carries {}",
            ids.len(),
            records.len()
        ));
    }
    let mut fragments: HashMap<usize, Fragment> = HashMap::new();
    let mut partials: HashMap<usize, Option<P::Partial>> = HashMap::new();
    for (&id, frag) in ids.iter().zip(records) {
        fragments.insert(id, frag);
        partials.insert(id, None);
    }
    if let Some(Value::Seq(entries)) = init.get_field("partials") {
        for entry in entries {
            let id =
                usize::from_value(get(entry, "id")?).map_err(|e| format!("partial id: {e}"))?;
            if !fragments.contains_key(&id) {
                return Err(format!("handshake partial for unowned fragment {id}"));
            }
            let p = codec
                .decode_partial(get(entry, "partial")?)
                .map_err(|e| format!("partial {id}: {e}"))?;
            partials.insert(id, Some(p));
        }
    }
    let mut pipe = Pipe::default();
    pipe.send_value(output, &reply_ok(Vec::new()))?;

    let crash_after: Option<usize> = std::env::var(WORKER_CRASH_ENV)
        .ok()
        .and_then(|v| v.parse().ok());
    let mut evals_served = 0usize;
    let aggregate = |k: &P::Key, a: P::Value, b: P::Value| program.aggregate(k, a, b);

    loop {
        let Some(payload) = pipe.recv(input)? else {
            return Ok(()); // parent closed the pipe: orderly shutdown
        };
        let request = decode_value(payload).map_err(|e| format!("malformed request: {e}"))?;
        let op = request
            .get_field("op")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();

        let reply = match op.as_str() {
            "peval" | "inceval" => {
                if let Some(n) = crash_after {
                    if evals_served >= n {
                        std::process::exit(3); // fault injection: die mid-superstep
                    }
                }
                evals_served += 1;
                (|| -> Result<Value, String> {
                    let fi =
                        usize::from_value(get(&request, "fragment")?).map_err(|e| e.to_string())?;
                    let frag = fragments
                        .get(&fi)
                        .ok_or_else(|| format!("fragment {fi} is not owned by this worker"))?;
                    let mut msgs = Messages::with_aggregator(&aggregate);
                    if op == "peval" {
                        let partial = program.peval(&query, frag, &mut msgs);
                        partials.insert(fi, Some(partial));
                    } else {
                        let mut updates = Vec::new();
                        match get(&request, "updates")? {
                            Value::Seq(entries) => {
                                for entry in entries {
                                    updates.push(
                                        codec.decode_message(entry).map_err(|e| e.to_string())?,
                                    );
                                }
                            }
                            _ => return Err("`updates` is not a sequence".to_string()),
                        }
                        let partial =
                            partials
                                .get_mut(&fi)
                                .and_then(Option::as_mut)
                                .ok_or_else(|| {
                                    format!("IncEval before PEval: fragment {fi} has no partial")
                                })?;
                        program.inc_eval(&query, frag, partial, &updates, &mut msgs);
                    }
                    let encoded: Vec<Value> = msgs
                        .take()
                        .iter()
                        .map(|(k, v)| codec.encode_message(k, v))
                        .collect();
                    let mut fields = vec![("messages".to_string(), Value::Seq(encoded))];
                    if msgs.runs_again() {
                        fields.push(("again".to_string(), Value::Bool(true)));
                    }
                    Ok(reply_ok(fields))
                })()
                .unwrap_or_else(|e| reply_err(&e))
            }
            "get_partials" => {
                let encoded = partial_entries(ids.iter().map(|&id| {
                    let p = match &partials[&id] {
                        Some(p) => codec.encode_partial(p),
                        None => Value::Null,
                    };
                    (id, p)
                }));
                reply_ok(vec![("partials".to_string(), Value::Seq(encoded))])
            }
            "set_partials" => (|| -> Result<Value, String> {
                match get(&request, "partials")? {
                    Value::Seq(entries) => {
                        for entry in entries {
                            let id =
                                usize::from_value(get(entry, "id")?).map_err(|e| e.to_string())?;
                            if !fragments.contains_key(&id) {
                                return Err(format!("fragment {id} is not owned by this worker"));
                            }
                            let slot = match get(entry, "partial")? {
                                Value::Null => None,
                                v => Some(codec.decode_partial(v).map_err(|e| e.to_string())?),
                            };
                            partials.insert(id, slot);
                        }
                        Ok(reply_ok(Vec::new()))
                    }
                    _ => Err("`partials` is not a sequence".to_string()),
                }
            })()
            .unwrap_or_else(|e| reply_err(&e)),
            "clear" => {
                for slot in partials.values_mut() {
                    *slot = None;
                }
                reply_ok(Vec::new())
            }
            "exit" => {
                pipe.send_value(output, &reply_ok(Vec::new()))?;
                return Ok(());
            }
            other => reply_err(&format!("unknown op `{other}`")),
        };
        pipe.send_value(output, &reply)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::builder::GraphBuilder;
    use grape_partition::edge_cut::RangeEdgeCut;
    use grape_partition::strategy::PartitionStrategy;

    /// One pipe end's reused buffers carry frames of any size back to back:
    /// each `send` is one complete frame, each `recv` one payload.
    #[test]
    fn frames_round_trip() {
        let mut pipe = Pipe::default();
        let mut wire: Vec<u8> = Vec::new();
        let big = Value::Seq((0..1000u64).map(Value::UInt).collect());
        for v in [&Value::Null, &big, &Value::Str("x".to_string())] {
            let sent = pipe.send_value(&mut wire, v).unwrap();
            let mut expect = Vec::new();
            encode_value(&mut expect, v);
            assert_eq!(sent, expect.len());
        }
        pipe.send(&mut wire, |_| {}).unwrap();
        assert!(wire.starts_with(b"1\n\0\n"), "null is one tag byte");

        let mut r = std::io::BufReader::new(&wire[..]);
        let mut reader = Pipe::default();
        for v in [Value::Null, big, Value::Str("x".to_string())] {
            assert_eq!(
                decode_value(reader.recv(&mut r).unwrap().unwrap()).unwrap(),
                v
            );
        }
        assert_eq!(reader.recv(&mut r).unwrap(), Some(&[][..]));
        assert_eq!(reader.recv(&mut r).unwrap(), None);
    }

    /// The worker pipe inherits the shared framing's checks: the size cap
    /// before allocation, bad length lines, truncation, and overruns.
    #[test]
    fn oversized_and_malformed_frames_are_rejected() {
        let recv = |wire: &[u8]| {
            let mut r = std::io::BufReader::new(wire);
            Pipe::default().recv(&mut r).map(|p| p.map(<[u8]>::to_vec))
        };
        let cap = format!("{}\n", frame::MAX_FRAME_BYTES + 1);
        for (wire, needle) in [
            (&b"999999999999\npayload\n"[..], "cap"),
            (cap.as_bytes(), "cap"),
            (&b"not-a-length\n"[..], "bad frame length line"),
            (&b"10\nshort\n"[..], "truncated"),
            (&b"3\nlonger\n"[..], "overruns"),
        ] {
            let err = recv(wire).unwrap_err();
            assert!(err.contains(needle), "{err:?} vs {needle:?}");
        }
    }

    #[test]
    fn init_frame_carries_partials_only_when_present() {
        let graph = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&graph).unwrap();
        let shipped = [(1, frag.fragment(1))];

        let mut payload = Vec::new();
        encode_init(&mut payload, "sssp", Value::Null, &shipped, Vec::new());
        let (header, fragments) = decode_init(&payload).unwrap();
        assert!(header.get_field("partials").is_none());
        assert_eq!(
            header.get_field("program").and_then(Value::as_str),
            Some("sssp")
        );
        assert_eq!(
            header.get_field("fragments"),
            Some(&Value::Seq(vec![Value::UInt(1)]))
        );
        assert_eq!(fragments.len(), 1);
        assert_eq!(fragments[0].num_inner(), frag.fragment(1).num_inner());

        payload.clear();
        encode_init(
            &mut payload,
            "sssp",
            Value::Null,
            &shipped,
            vec![(1, Value::UInt(7))],
        );
        let (header, _) = decode_init(&payload).unwrap();
        assert!(header.get_field("partials").is_some());
    }

    #[test]
    fn payloads_reject_trailing_and_missing_bytes() {
        let mut payload = Vec::new();
        let clear = Value::Map(vec![("op".to_string(), Value::Str("clear".to_string()))]);
        encode_value(&mut payload, &clear);
        assert!(decode_value(&payload).is_ok());
        let mut longer = payload.clone();
        longer.push(0);
        assert!(decode_value(&longer).unwrap_err().contains("trailing"));
        assert!(decode_value(&payload[..payload.len() - 1]).is_err());

        // An init header with no fragment block after it.
        assert!(decode_init(&payload).is_err());
    }
}
