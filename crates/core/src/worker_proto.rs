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
//! carried as its bits) holding one [`WorkerRequest`] or [`WorkerReply`] —
//! except the `init` request, whose tree is followed by the dense fragment
//! block of `grape_partition::snapshot::write_fragment_records`.  Nothing
//! may follow either: decoding rejects trailing bytes.  Both types derive
//! their layout, as every daemon message does: a request is a map tagged by
//! `op`, a reply is `"done"` or a one-entry map named by its variant.
//! Every request is answered by exactly one reply.
//!
//! ## Requests
//!
//! | op             | request fields                        | reply                     |
//! |----------------|---------------------------------------|---------------------------|
//! | `init`         | `program`, `query`, `fragments`, `partials` unless empty (+ fragment block) | `done` |
//! | `peval`        | `fragment`                            | `messages` or `run_again` |
//! | `inceval`      | `fragment`, `updates`                 | `messages` or `run_again` |
//! | `get_partials` | —                                     | `partials`                |
//! | `set_partials` | `partials`                            | `done`                    |
//! | `clear`        | —                                     | `done`                    |
//! | `exit`         | —                                     | `done`                    |
//!
//! Any request after `init` may instead be answered by `{"error": "…"}`
//! (unknown op, unowned fragment, IncEval before PEval, a payload that
//! does not decode); the worker keeps serving.
//!
//! `fragments` lists the **global** fragment id of each record in the
//! block, in block order: the worker's shard of
//! [`grape_partition::shard::shard_assignment`].  Every `partials` list
//! follows that order, one slot per fragment, so no id crosses with a
//! partial; `null` marks a slot that has not been evaluated yet, which no
//! partial encodes to ([`crate::pie::ProcessCodec::encode_partial`]).
//! `query`, `messages`, `updates` and the partials are whatever the
//! program's [`crate::pie::ProcessCodec`] produces (two-element
//! `[key, value]` sequences for the messages of
//! [`crate::pie::SerdeProcessCodec`]); `run_again` carries the messages of
//! an evaluation that called [`crate::pie::Messages::run_again`].

use std::io::{BufRead, Write};
use std::path::PathBuf;

use grape_graph::io::{ensure_fully_consumed, read_value_tree, write_value_tree};
use grape_partition::fragment::Fragment;
use grape_partition::snapshot::{read_fragment_records, write_fragment_records};
use serde::{Deserialize, Serialize, Value};

use crate::frame;
use crate::pie::{Messages, PieProgram, ProcessCodec};

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

/// One request on the worker pipe, parent to child.  Program payloads
/// (query, partials, messages) are value trees made by the program's
/// [`crate::pie::ProcessCodec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum WorkerRequest {
    /// The first request of every conversation; its payload continues with
    /// the dense fragment block ([`encode_init`]).
    Init(Handshake),
    /// Run PEval on the owned fragment `fragment` (a global id).
    Peval { fragment: usize },
    /// Run IncEval on the owned fragment `fragment` with the encoded
    /// update-parameter messages `updates`.
    Inceval {
        fragment: usize,
        updates: Vec<Value>,
    },
    /// Return every owned fragment's partial.
    GetPartials,
    /// Overwrite every owned fragment's partial: one slot per owned
    /// fragment, in shard order; `None` clears it.
    SetPartials { partials: Vec<Option<Value>> },
    /// Drop every owned fragment's partial.
    Clear,
    /// Answer, then stop serving.
    Exit,
}

/// The fields of the `init` request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Handshake {
    /// The program's wire name ([`PieProgram::name`]).
    pub program: String,
    /// The encoded query.
    pub query: Value,
    /// The global id of each record in the fragment block, in block order.
    pub fragments: Vec<usize>,
    /// Retained partials, one slot per fragment in block order (an
    /// incremental refresh); empty, and then absent from the wire, for a
    /// run that starts from scratch.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub partials: Vec<Option<Value>>,
}

/// The one reply to each [`WorkerRequest`], child to parent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum WorkerReply {
    /// The request succeeded and returns nothing.
    Done,
    /// An evaluation's encoded update-parameter messages.
    Messages(Vec<Value>),
    /// The same, from an evaluation that called [`Messages::run_again`].
    RunAgain(Vec<Value>),
    /// Every owned fragment's partial, in shard order; `None` for one that
    /// has not been evaluated yet.
    Partials(Vec<Option<Value>>),
    /// The request failed; the worker keeps serving.
    Error(String),
}

impl WorkerReply {
    /// What `pick` takes from the reply a request calls for; the worker's
    /// error, or a reply `pick` rejects, is an error.
    pub(crate) fn expect<T>(self, pick: impl FnOnce(Self) -> Option<T>) -> Result<T, String> {
        match self {
            WorkerReply::Error(e) => Err(e),
            reply => pick(reply).ok_or_else(|| "unexpected worker reply".to_string()),
        }
    }
}

/// Appends the binary encoding of one value tree to a payload buffer.
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    write_value_tree(out, v).expect("writing into a Vec cannot fail");
}

/// Decodes a payload that holds exactly one value tree of `T`'s layout
/// (`T = Value` for any tree).
pub fn decode<T: Deserialize>(payload: &[u8]) -> Result<T, String> {
    let mut rest = payload;
    let v = read_value_tree(&mut rest).map_err(|e| e.to_string())?;
    ensure_fully_consumed(&mut rest).map_err(|e| e.to_string())?;
    T::from_value(&v).map_err(|e| e.to_string())
}

/// Appends the `init` payload: the request tree, then the dense block of
/// `records`, the fragments `handshake.fragments` names.
pub fn encode_init(out: &mut Vec<u8>, handshake: Handshake, records: &[&Fragment]) {
    encode_value(out, &WorkerRequest::Init(handshake).to_value());
    write_fragment_records(records, out);
}

/// Splits an `init` payload into its handshake and the fragments of the
/// dense block after it (every byte must belong to one or the other).
pub fn decode_init(payload: &[u8]) -> Result<(Handshake, Vec<Fragment>), String> {
    let mut rest = payload;
    let tree = read_value_tree(&mut rest).map_err(|e| e.to_string())?;
    let WorkerRequest::Init(handshake) =
        WorkerRequest::from_value(&tree).map_err(|e| e.to_string())?
    else {
        return Err("the first request is not `init`".to_string());
    };
    let fragments = read_fragment_records(rest).map_err(|e| e.to_string())?;
    Ok((handshake, fragments))
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

    /// Sends one message's value tree as a frame.
    pub(crate) fn send_value(
        &mut self,
        w: &mut dyn Write,
        msg: &impl Serialize,
    ) -> Result<usize, String> {
        self.send(w, |out| encode_value(out, &msg.to_value()))
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

/// One worker's state: the fragments it owns and their partials, both in
/// shard order.
struct Shard<'p, P: PieProgram> {
    program: &'p P,
    codec: &'p dyn ProcessCodec<P>,
    query: P::Query,
    ids: Vec<usize>,
    fragments: Vec<Fragment>,
    partials: Vec<Option<P::Partial>>,
    /// [`WORKER_CRASH_ENV`]: exit hard before evaluation number `n`.
    crash_after: Option<usize>,
    evals: usize,
}

impl<P: PieProgram> Shard<'_, P> {
    /// Decodes one partial slot per owned fragment.
    fn decode_partials(&self, slots: &[Option<Value>]) -> Result<Vec<Option<P::Partial>>, String> {
        let len = self.ids.len();
        if slots.len() != len {
            return Err(format!("{} partials for {len} fragments", slots.len()));
        }
        slots
            .iter()
            .map(|slot| {
                slot.as_ref()
                    .map(|v| self.codec.decode_partial(v))
                    .transpose()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("undecodable partial: {e}"))
    }

    /// Runs PEval (no `updates`) or IncEval on the owned fragment
    /// `fragment`.
    fn eval(&mut self, fragment: usize, updates: Option<&[Value]>) -> Result<WorkerReply, String> {
        if self.crash_after == Some(self.evals) {
            std::process::exit(3); // fault injection: die mid-superstep
        }
        self.evals += 1;
        let at = self
            .ids
            .iter()
            .position(|&id| id == fragment)
            .ok_or_else(|| format!("fragment {fragment} is not owned by this worker"))?;
        let (program, frag) = (self.program, &self.fragments[at]);
        let aggregate = |k: &P::Key, a: P::Value, b: P::Value| program.aggregate(k, a, b);
        let mut msgs = Messages::with_aggregator(&aggregate);
        match updates {
            None => self.partials[at] = Some(program.peval(&self.query, frag, &mut msgs)),
            Some(updates) => {
                let updates = updates
                    .iter()
                    .map(|m| self.codec.decode_message(m))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("undecodable update: {e}"))?;
                let partial = self.partials[at].as_mut().ok_or_else(|| {
                    format!("IncEval before PEval: fragment {fragment} has no partial")
                })?;
                program.inc_eval(&self.query, frag, partial, &updates, &mut msgs);
            }
        }
        let messages = msgs
            .take()
            .iter()
            .map(|(k, v)| self.codec.encode_message(k, v))
            .collect();
        Ok(if msgs.runs_again() {
            WorkerReply::RunAgain(messages)
        } else {
            WorkerReply::Messages(messages)
        })
    }

    fn handle(&mut self, request: WorkerRequest) -> Result<WorkerReply, String> {
        match request {
            WorkerRequest::Peval { fragment } => self.eval(fragment, None),
            WorkerRequest::Inceval { fragment, updates } => self.eval(fragment, Some(&updates)),
            WorkerRequest::GetPartials => Ok(WorkerReply::Partials(
                self.partials
                    .iter()
                    .map(|p| p.as_ref().map(|p| self.codec.encode_partial(p)))
                    .collect(),
            )),
            WorkerRequest::SetPartials { partials } => {
                self.partials = self.decode_partials(&partials)?;
                Ok(WorkerReply::Done)
            }
            WorkerRequest::Clear => {
                self.partials.fill(None);
                Ok(WorkerReply::Done)
            }
            WorkerRequest::Exit => Ok(WorkerReply::Done),
            WorkerRequest::Init(_) => Err("a second `init`".to_string()),
        }
    }
}

/// The worker side of the pipe protocol: serves one program's evaluation
/// requests until `exit` or end of stream.  `init` and `records` are the
/// already-decoded handshake ([`decode_init`]; the caller reads its
/// `program` to pick `P`).
///
/// Request-level failures (an undecodable request or unknown op, an
/// unowned fragment, a codec mismatch, IncEval before PEval) are answered
/// with [`WorkerReply::Error`] and the loop keeps serving — the parent
/// turns them into [`crate::engine::EngineError::Worker`] and tears the
/// child down.  Handshake and transport failures (broken pipe, malformed
/// frame) end the loop with an error.
pub fn serve_program<P: PieProgram>(
    program: &P,
    init: Handshake,
    records: Vec<Fragment>,
    input: &mut dyn BufRead,
    output: &mut dyn Write,
) -> Result<(), String> {
    let codec = program
        .process_codec()
        .ok_or_else(|| format!("program `{}` has no process codec", program.name()))?;
    let query = codec
        .decode_query(&init.query)
        .map_err(|e| format!("handshake query: {e}"))?;
    if init.fragments.len() != records.len() {
        return Err(format!(
            "handshake names {} fragments but carries {}",
            init.fragments.len(),
            records.len()
        ));
    }
    let mut shard = Shard {
        program,
        codec,
        query,
        partials: vec![None; records.len()],
        ids: init.fragments,
        fragments: records,
        crash_after: std::env::var(WORKER_CRASH_ENV)
            .ok()
            .and_then(|v| v.parse().ok()),
        evals: 0,
    };
    if !init.partials.is_empty() {
        shard.partials = shard
            .decode_partials(&init.partials)
            .map_err(|e| format!("handshake: {e}"))?;
    }
    let mut pipe = Pipe::default();
    pipe.send_value(output, &WorkerReply::Done)?;

    loop {
        let Some(payload) = pipe.recv(input)? else {
            return Ok(()); // parent closed the pipe: orderly shutdown
        };
        let request = decode::<WorkerRequest>(payload);
        let exit = matches!(request, Ok(WorkerRequest::Exit));
        let reply = request
            .map_err(|e| format!("malformed request: {e}"))
            .and_then(|request| shard.handle(request))
            .unwrap_or_else(WorkerReply::Error);
        pipe.send_value(output, &reply)?;
        if exit {
            return Ok(());
        }
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
                decode::<Value>(reader.recv(&mut r).unwrap().unwrap()).unwrap(),
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

    fn handshake(partials: Vec<Option<Value>>) -> Handshake {
        Handshake {
            program: "sssp".to_string(),
            query: Value::Null,
            fragments: vec![2],
            partials,
        }
    }

    /// Every variant of both types, as small instances: the golden table's
    /// rows and the round trip's inputs.
    fn requests() -> Vec<(&'static str, WorkerRequest)> {
        let message = Value::Seq(vec![Value::UInt(3), Value::Float(1.5)]);
        vec![
            ("init", WorkerRequest::Init(handshake(Vec::new()))),
            (
                "init with partials",
                WorkerRequest::Init(handshake(vec![Some(Value::UInt(7))])),
            ),
            ("peval", WorkerRequest::Peval { fragment: 2 }),
            (
                "inceval",
                WorkerRequest::Inceval {
                    fragment: 2,
                    updates: vec![message],
                },
            ),
            ("get_partials", WorkerRequest::GetPartials),
            (
                "set_partials",
                WorkerRequest::SetPartials {
                    partials: vec![None, Some(Value::UInt(7))],
                },
            ),
            ("clear", WorkerRequest::Clear),
            ("exit", WorkerRequest::Exit),
        ]
    }

    fn replies() -> Vec<(&'static str, WorkerReply)> {
        let message = Value::Seq(vec![Value::UInt(3), Value::Float(1.5)]);
        vec![
            ("done", WorkerReply::Done),
            ("messages", WorkerReply::Messages(vec![message])),
            ("run_again", WorkerReply::RunAgain(Vec::new())),
            (
                "partials",
                WorkerReply::Partials(vec![None, Some(Value::UInt(7))]),
            ),
            ("error", WorkerReply::Error("x".to_string())),
        ]
    }

    fn payload(msg: &impl Serialize) -> Vec<u8> {
        let mut out = Vec::new();
        encode_value(&mut out, &msg.to_value());
        out
    }

    #[test]
    fn every_variant_round_trips() {
        for (name, request) in requests() {
            assert_eq!(
                decode::<WorkerRequest>(&payload(&request)),
                Ok(request),
                "{name}"
            );
        }
        for (name, reply) in replies() {
            assert_eq!(decode::<WorkerReply>(&payload(&reply)), Ok(reply), "{name}");
        }
    }

    /// The exact payload bytes of one instance of each variant, one value
    /// token per group: a tag byte, `u64` lengths and scalars little-endian.
    /// Requests keep the `op`-tagged maps of the hand-built wire they
    /// replace byte for byte (an `init` from scratch has no `partials` key);
    /// a reply is `"done"` or a one-entry map named by its variant.
    #[test]
    fn golden_wire_bytes() {
        const OP: &str = "02000000000000006f70";
        let golden = [
            (
                "init",
                "080400000000000000 OP 060400000000000000696e6974 \
                 070000000000000070726f6772616d 06040000000000000073737370 \
                 05000000000000007175657279 00 \
                 0900000000000000667261676d656e7473 070100000000000000 030200000000000000",
            ),
            (
                "init with partials",
                "080500000000000000 OP 060400000000000000696e6974 \
                 070000000000000070726f6772616d 06040000000000000073737370 \
                 05000000000000007175657279 00 \
                 0900000000000000667261676d656e7473 070100000000000000 030200000000000000 \
                 08000000000000007061727469616c73 070100000000000000 030700000000000000",
            ),
            (
                "peval",
                "080200000000000000 OP 060500000000000000706576616c \
                 0800000000000000667261676d656e74 030200000000000000",
            ),
            (
                "inceval",
                "080300000000000000 OP 060700000000000000696e636576616c \
                 0800000000000000667261676d656e74 030200000000000000 \
                 070000000000000075706461746573 070100000000000000 \
                 070200000000000000 030300000000000000 05000000000000f83f",
            ),
            (
                "get_partials",
                "080100000000000000 OP 060c000000000000006765745f7061727469616c73",
            ),
            (
                "set_partials",
                "080200000000000000 OP 060c000000000000007365745f7061727469616c73 \
                 08000000000000007061727469616c73 070200000000000000 00 030700000000000000",
            ),
            (
                "clear",
                "080100000000000000 OP 060500000000000000636c656172",
            ),
            ("exit", "080100000000000000 OP 06040000000000000065786974"),
            ("done", "060400000000000000646f6e65"),
            (
                "messages",
                "080100000000000000 08000000000000006d65737361676573 070100000000000000 \
                 070200000000000000 030300000000000000 05000000000000f83f",
            ),
            (
                "run_again",
                "080100000000000000 090000000000000072756e5f616761696e 070000000000000000",
            ),
            (
                "partials",
                "080100000000000000 08000000000000007061727469616c73 070200000000000000 \
                 00 030700000000000000",
            ),
            (
                "error",
                "080100000000000000 05000000000000006572726f72 06010000000000000078",
            ),
        ];
        let encoded: Vec<(&str, Vec<u8>)> = requests()
            .iter()
            .map(|(name, r)| (*name, payload(r)))
            .chain(replies().iter().map(|(name, r)| (*name, payload(r))))
            .collect();
        assert_eq!(encoded.len(), golden.len());
        for ((name, bytes), (golden_name, hex)) in encoded.iter().zip(golden) {
            assert_eq!(*name, golden_name);
            let hex: String = hex.replace("OP", OP).split_whitespace().collect();
            let expected: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            assert_eq!(*bytes, expected, "{name}");
        }
    }

    /// The parent takes only what a request calls for: the worker's error
    /// comes through as the message, and a reply the pick rejects (another
    /// variant, or partials that do not cover the shard) is an error.
    #[test]
    fn replies_are_accepted_only_in_their_expected_shape() {
        let shard_of = |len: usize| {
            move |reply| match reply {
                WorkerReply::Partials(p) if p.len() == len => Some(p),
                _ => None,
            }
        };
        let two = || WorkerReply::Partials(vec![None, Some(Value::UInt(1))]);
        assert_eq!(two().expect(shard_of(2)).unwrap().len(), 2);
        for len in [1, 3] {
            assert_eq!(
                two().expect(shard_of(len)).unwrap_err(),
                "unexpected worker reply"
            );
        }
        assert_eq!(
            WorkerReply::Done.expect(shard_of(0)).unwrap_err(),
            "unexpected worker reply"
        );
        assert_eq!(
            WorkerReply::Error("boom".to_string()).expect(shard_of(0)),
            Err("boom".to_string())
        );
    }

    /// A run from scratch ships no `partials` key at all; a refresh ships
    /// one slot per fragment, and the dense block follows the tree.
    #[test]
    fn init_frame_carries_partials_only_when_present() {
        let graph = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&graph).unwrap();
        let shipped = Handshake {
            fragments: vec![1],
            ..handshake(Vec::new())
        };

        let mut payload = Vec::new();
        encode_init(&mut payload, shipped.clone(), &[frag.fragment(1)]);
        let tree = read_value_tree(&mut &payload[..]).unwrap();
        assert!(tree.get_field("partials").is_none());
        let (back, fragments) = decode_init(&payload).unwrap();
        assert_eq!(back, shipped);
        assert_eq!(fragments.len(), 1);
        assert_eq!(fragments[0].num_inner(), frag.fragment(1).num_inner());

        let refresh = Handshake {
            partials: vec![Some(Value::UInt(7))],
            ..shipped
        };
        payload.clear();
        encode_init(&mut payload, refresh.clone(), &[frag.fragment(1)]);
        assert_eq!(decode_init(&payload).unwrap().0, refresh);
    }

    #[test]
    fn payloads_reject_trailing_and_missing_bytes() {
        let clear = payload(&WorkerRequest::Clear);
        assert_eq!(decode::<WorkerRequest>(&clear), Ok(WorkerRequest::Clear));
        let mut longer = clear.clone();
        longer.push(0);
        assert!(decode::<WorkerRequest>(&longer)
            .unwrap_err()
            .contains("trailing"));
        assert!(decode::<WorkerRequest>(&clear[..clear.len() - 1]).is_err());

        // A request tree that is not `init`, and an init with no fragment
        // block after it.
        assert!(decode_init(&clear).unwrap_err().contains("not `init`"));
        let init = payload(&WorkerRequest::Init(handshake(Vec::new())));
        assert!(decode_init(&init).is_err());
    }
}
