//! The typed client `grapectl` (and the e2e tests) drive the daemon with.
//!
//! One blocking TCP connection, one request in flight at a time: `call`
//! stamps a fresh id, writes the frame, reads frames until the echoed id
//! matches.  Server-pushed [`EventFrame`]s may interleave with replies on
//! a subscribed connection; `call` buffers them for [`GrapeClient::
//! next_event`] instead of treating them as protocol violations.  A
//! mismatched reply id *is* a protocol violation, not something to skip
//! past.  In-protocol failures ([`ResponseBody::Error`]) surface as
//! [`ClientError::Remote`] so callers can match on the taxonomy.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use grape_core::spec::QuerySpec;
use grape_graph::delta::GraphDelta;

use crate::protocol::{
    self, ErrorKind, EventFrame, MetricsInfo, QueryAnswer, RejectedDelta, Request, RequestBody,
    ResponseBody, ServerFrame, StatusInfo, WireError,
};

/// A failure on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, framing or (de)serialization failed outside a call.
    Wire(WireError),
    /// The connection failed while a specific operation was in flight —
    /// names the op so `grapectl` can say *what* it was doing when the
    /// daemon went away instead of exiting nonzero-but-quiet.
    MidCall {
        /// The wire op that was in flight.
        op: &'static str,
        /// What actually went wrong (framing error, EOF, ...).
        detail: String,
    },
    /// The daemon replied with an in-protocol error.
    Remote {
        /// The error taxonomy entry.
        kind: ErrorKind,
        /// The daemon's message.
        message: String,
    },
    /// The daemon replied with something other than the expected variant.
    Protocol(String),
}

impl ClientError {
    fn mid_call(op: &'static str, detail: impl Into<String>) -> ClientError {
        ClientError::MidCall {
            op,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::MidCall { op, detail } => {
                write!(f, "connection failed mid-call during `{op}`: {detail}")
            }
            ClientError::Remote { kind, message } => {
                write!(f, "daemon error ({kind:?}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// The result of an `apply` / `apply_batch` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedBatch {
    /// One summary per commit, in stream order.
    pub reports: Vec<protocol::ApplySummary>,
    /// The rejection that stopped a batch, if any.
    pub rejected: Option<RejectedDelta>,
}

/// A blocking client over one TCP connection to a `graped`.
pub struct GrapeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Events pushed by the daemon that arrived while a reply was being
    /// awaited; drained by [`GrapeClient::next_event`] in arrival order.
    events: VecDeque<EventFrame>,
}

/// The wire name of a request's op — what `MidCall` reports; equal to the
/// derived `op` tag (pinned by a test).
fn op_name(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Status => "status",
        RequestBody::Metrics { .. } => "metrics",
        RequestBody::Register { .. } => "register",
        RequestBody::Apply { .. } => "apply",
        RequestBody::ApplyBatch { .. } => "apply_batch",
        RequestBody::Output { .. } => "output",
        RequestBody::TryOutput { .. } => "try_output",
        RequestBody::Evict { .. } => "evict",
        RequestBody::Rehydrate { .. } => "rehydrate",
        RequestBody::Compact { .. } => "compact",
        RequestBody::Subscribe { .. } => "subscribe",
        RequestBody::Unsubscribe { .. } => "unsubscribe",
        RequestBody::Shutdown => "shutdown",
    }
}

impl GrapeClient {
    /// Connects to a daemon.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(GrapeClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            next_id: 1,
            events: VecDeque::new(),
        })
    }

    /// Reads the next server frame, naming `op` if the connection fails.
    fn recv_frame(&mut self, op: &'static str) -> Result<ServerFrame, ClientError> {
        match protocol::recv(&mut self.reader) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(ClientError::mid_call(
                op,
                "connection closed before the reply",
            )),
            Err(e) => Err(ClientError::mid_call(op, e.to_string())),
        }
    }

    /// Sends one request and reads its reply (matching ids), buffering any
    /// pushed events that arrive in between.  Error replies pass through
    /// as `Ok(ResponseBody::Error { .. })`; the typed methods turn them
    /// into [`ClientError::Remote`].
    pub fn call(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        let op = op_name(&body);
        let id = self.next_id;
        self.next_id += 1;
        protocol::send(&mut self.writer, &Request { id, body })
            .map_err(|e| ClientError::mid_call(op, e.to_string()))?;
        loop {
            match self.recv_frame(op)? {
                ServerFrame::Event(event) => self.events.push_back(event),
                ServerFrame::Reply(response) => {
                    if response.id != id && response.id != 0 {
                        return Err(ClientError::Protocol(format!(
                            "reply id {} does not match request id {id}",
                            response.id
                        )));
                    }
                    return Ok(response.body);
                }
            }
        }
    }

    fn call_ok(&mut self, body: RequestBody) -> Result<ResponseBody, ClientError> {
        match self.call(body)? {
            ResponseBody::Error { kind, message } => Err(ClientError::Remote { kind, message }),
            other => Ok(other),
        }
    }

    /// `status`.
    pub fn status(&mut self) -> Result<StatusInfo, ClientError> {
        match self.call_ok(RequestBody::Status)? {
            ResponseBody::Status { status } => Ok(status),
            other => Err(unexpected("status", &other)),
        }
    }

    /// `metrics` — the cheap reply: summary only, no raw sample vector.
    pub fn metrics(&mut self) -> Result<MetricsInfo, ClientError> {
        self.metrics_opt(false)
    }

    /// `metrics` with the raw per-commit latency samples included
    /// (`grapectl metrics --samples`).
    pub fn metrics_with_samples(&mut self) -> Result<MetricsInfo, ClientError> {
        self.metrics_opt(true)
    }

    fn metrics_opt(&mut self, samples: bool) -> Result<MetricsInfo, ClientError> {
        match self.call_ok(RequestBody::Metrics { samples })? {
            ResponseBody::Metrics { metrics } => Ok(metrics),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Registers a standing query; returns its handle id.
    pub fn register(&mut self, spec: QuerySpec) -> Result<usize, ClientError> {
        match self.call_ok(RequestBody::Register { spec })? {
            ResponseBody::Registered { query, .. } => Ok(query),
            other => Err(unexpected("registered", &other)),
        }
    }

    /// Applies one delta.
    pub fn apply(&mut self, delta: GraphDelta) -> Result<AppliedBatch, ClientError> {
        match self.call_ok(RequestBody::Apply { delta })? {
            ResponseBody::Applied { reports, rejected } => Ok(AppliedBatch { reports, rejected }),
            other => Err(unexpected("applied", &other)),
        }
    }

    /// Applies a delta stream, one commit per delta, stopping at the first
    /// rejected delta.
    pub fn apply_batch(&mut self, deltas: Vec<GraphDelta>) -> Result<AppliedBatch, ClientError> {
        match self.call_ok(RequestBody::ApplyBatch { deltas })? {
            ResponseBody::Applied { reports, rejected } => Ok(AppliedBatch { reports, rejected }),
            other => Err(unexpected("applied", &other)),
        }
    }

    /// Assembles a query's answer (lazily rehydrating server-side).
    pub fn output(&mut self, query: usize) -> Result<QueryAnswer, ClientError> {
        match self.call_ok(RequestBody::Output { query })? {
            ResponseBody::Answer { answer, .. } => Ok(answer),
            other => Err(unexpected("answer", &other)),
        }
    }

    /// Assembles a query's answer only if no rehydration/replay is needed.
    pub fn try_output(&mut self, query: usize) -> Result<QueryAnswer, ClientError> {
        match self.call_ok(RequestBody::TryOutput { query })? {
            ResponseBody::Answer { answer, .. } => Ok(answer),
            other => Err(unexpected("answer", &other)),
        }
    }

    /// Spills a query; returns the daemon-side spill path.
    pub fn evict(&mut self, query: usize) -> Result<String, ClientError> {
        match self.call_ok(RequestBody::Evict { query })? {
            ResponseBody::Evicted { spill, .. } => Ok(spill),
            other => Err(unexpected("evicted", &other)),
        }
    }

    /// Rehydrates a query; returns `(deltas replayed, PEval calls)`.
    pub fn rehydrate(&mut self, query: usize) -> Result<(usize, usize), ClientError> {
        match self.call_ok(RequestBody::Rehydrate { query })? {
            ResponseBody::Rehydrated {
                replayed,
                peval_calls,
                ..
            } => Ok((replayed, peval_calls)),
            other => Err(unexpected("rehydrated", &other)),
        }
    }

    /// Folds a query's spill chain into a fresh base; returns whether
    /// anything was actually folded.
    pub fn compact(&mut self, query: usize) -> Result<bool, ClientError> {
        match self.call_ok(RequestBody::Compact { query })? {
            ResponseBody::Compacted { folded, .. } => Ok(folded),
            other => Err(unexpected("compacted", &other)),
        }
    }

    /// Subscribes to a query's answer-delta stream; returns the wire
    /// subscription id echoed in every pushed event.
    pub fn subscribe(&mut self, query: usize) -> Result<usize, ClientError> {
        match self.call_ok(RequestBody::Subscribe { query })? {
            ResponseBody::Subscribed { subscription, .. } => Ok(subscription),
            other => Err(unexpected("subscribed", &other)),
        }
    }

    /// Closes a subscription opened on this connection.
    pub fn unsubscribe(&mut self, subscription: usize) -> Result<(), ClientError> {
        match self.call_ok(RequestBody::Unsubscribe { subscription })? {
            ResponseBody::Unsubscribed { .. } => Ok(()),
            other => Err(unexpected("unsubscribed", &other)),
        }
    }

    /// The next pushed subscription event: pops the buffer if `call`
    /// already read one, otherwise blocks on the socket.  A reply frame
    /// arriving here is a protocol violation (no request is in flight).
    pub fn next_event(&mut self) -> Result<EventFrame, ClientError> {
        if let Some(event) = self.events.pop_front() {
            return Ok(event);
        }
        match self.recv_frame("watch")? {
            ServerFrame::Event(event) => Ok(event),
            ServerFrame::Reply(response) => Err(ClientError::Protocol(format!(
                "unsolicited reply with id {} while waiting for events",
                response.id
            ))),
        }
    }

    /// Asks the daemon to stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call_ok(RequestBody::Shutdown)? {
            ResponseBody::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &ResponseBody) -> ClientError {
    ClientError::Protocol(format!("expected a `{wanted}` reply, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    #[test]
    fn op_names_equal_the_derived_wire_tags() {
        for body in [
            RequestBody::Status,
            RequestBody::Metrics { samples: true },
            RequestBody::Register {
                spec: QuerySpec::Cc,
            },
            RequestBody::Apply {
                delta: GraphDelta::new(),
            },
            RequestBody::ApplyBatch { deltas: vec![] },
            RequestBody::Output { query: 0 },
            RequestBody::TryOutput { query: 0 },
            RequestBody::Evict { query: 0 },
            RequestBody::Rehydrate { query: 0 },
            RequestBody::Compact { query: 0 },
            RequestBody::Subscribe { query: 0 },
            RequestBody::Unsubscribe { subscription: 0 },
            RequestBody::Shutdown,
        ] {
            let value = body.to_value();
            let tag = value.get_field("op").and_then(|v| v.as_str());
            assert_eq!(Some(op_name(&body)), tag, "{body:?}");
        }
    }
}
