//! The wire protocol `graped` speaks and `grapectl` consumes.
//!
//! # Framing
//!
//! Length-delimited JSON lines: every frame is
//!
//! ```text
//! <decimal payload length in bytes> '\n' <payload (one JSON value)> '\n'
//! ```
//!
//! The explicit length makes the reader robust against payloads that could
//! themselves contain newlines, and the trailing `'\n'` is *verified*: a
//! payload that overruns or underruns its declared length is a protocol
//! error, mirroring the `ensure_fully_consumed` discipline of the binary
//! snapshot readers.  The JSON parser additionally rejects trailing
//! characters after the value, so garbage cannot hide inside a
//! correctly-framed payload either.  Frames above [`MAX_FRAME_BYTES`] are
//! rejected before any allocation.  The byte-level framing is
//! [`grape_core::frame`], shared with the worker pipes; this module adds
//! the UTF-8 check and the JSON codec on top.
//!
//! # Requests and responses
//!
//! Every [`Request`] carries a client-chosen `id`; the matching
//! [`Response`] echoes it, so a client can pipeline requests over one
//! connection.  Bodies are internally tagged maps — `{"id":1,"op":"status"}`
//! in, `{"id":1,"reply":"status",...}` out — and every message derives its
//! serde impls with real serde's attributes (`tag`, `rename_all`,
//! `flatten`), so the layout is what real serde would write.  Only
//! [`ServerFrame`] is written by hand: it dispatches on whether the
//! `event` key is present, which keeps the inner decode error.

use std::io::{BufRead, Write};
use std::sync::Arc;

use grape_algorithms::cc::CcResult;
use grape_algorithms::sssp::SsspResult;
use grape_core::frame::{self, FrameError};
use grape_core::metrics::LatencySummary;
use grape_core::output_delta::{OutputEvent, QueryDelta};
use grape_core::serve::{QueryStatus, ServeError, ServeReport};
use grape_core::spec::QuerySpec;
use grape_core::EngineError;
use grape_graph::delta::GraphDelta;
use grape_graph::types::VertexId;
use serde::{Deserialize, Error, Serialize, Value};

pub use grape_core::frame::MAX_FRAME_BYTES;

/// The default `graped` port.
pub const DEFAULT_PORT: u16 = 4817;

/// A framing- or transport-level failure (distinct from an in-protocol
/// [`ResponseBody::Error`], which is a well-formed reply).
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The frame itself was malformed: bad length line, oversized,
    /// truncated, payload overrunning its declared length, or non-UTF-8.
    Frame(String),
    /// The payload was not the expected JSON value.
    Json(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::Frame(m) => write!(f, "malformed frame: {m}"),
            WireError::Json(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => WireError::Io(e),
            FrameError::Malformed(m) => WireError::Frame(m),
        }
    }
}

/// Writes one frame ([`grape_core::frame::put_frame`]) and does **not**
/// flush.  The payload is the concatenation of `parts`, so a caller holding
/// a shared pre-encoded piece (see [`encode_event_tail`]) frames it without
/// copying it into a fresh string first.  [`write_frame`] and [`send`] are
/// this plus a flush, and the daemon's connection writer calls it per
/// queued frame and flushes once when its channel runs dry.
pub fn put_frame<W: Write>(w: &mut W, parts: &[&str]) -> std::io::Result<()> {
    frame::put_frame(w, parts)
}

/// Writes one frame ([`put_frame`]) and flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    put_frame(w, &[payload])?;
    w.flush()
}

/// Reads one frame's payload ([`grape_core::frame::read_frame`]) and
/// checks it is UTF-8.  `Ok(None)` on a clean EOF *before* the length line
/// — EOF anywhere else is a truncated frame.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<String>, WireError> {
    let mut buf = Vec::new();
    if !frame::read_frame(r, &mut buf)? {
        return Ok(None);
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| WireError::Frame("payload is not valid UTF-8".to_string()))
}

/// Serializes `value` and writes it as one frame ([`put_frame`]: no
/// flush).
pub fn put<W: Write, T: Serialize>(w: &mut W, value: &T) -> Result<(), WireError> {
    let json = serde_json::to_string(value).map_err(|e| WireError::Json(e.to_string()))?;
    put_frame(w, &[&json]).map_err(WireError::Io)
}

/// Serializes `value` and writes it as one frame, flushed.
pub fn send<W: Write, T: Serialize>(w: &mut W, value: &T) -> Result<(), WireError> {
    put(w, value)?;
    w.flush().map_err(WireError::Io)
}

/// Decodes one request payload.  On failure, also returns the id to
/// answer with: the payload's own `id` when it reads as a `u64` (so a
/// pipelining client learns which request was bad), else `0`.
pub fn decode_request(payload: &str) -> Result<Request, (u64, String)> {
    let value: Value = serde_json::from_str(payload).map_err(|e| (0, e.to_string()))?;
    Request::from_value(&value).map_err(|e| {
        let id = value
            .get_field("id")
            .and_then(|id| u64::from_value(id).ok());
        (id.unwrap_or(0), e.to_string())
    })
}

/// Reads one frame and deserializes it.  `Ok(None)` on clean EOF.
pub fn recv<R: BufRead, T: Deserialize>(r: &mut R) -> Result<Option<T>, WireError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    serde_json::from_str(&payload)
        .map(Some)
        .map_err(|e| WireError::Json(e.to_string()))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What a client can ask the daemon to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "op", rename_all = "snake_case")]
pub enum RequestBody {
    /// Server + per-query state.
    Status,
    /// Uptime, per-delta latency histogram, per-query counters.
    Metrics {
        /// Include the raw per-commit latency samples.  Off by default:
        /// the summary is a few scalars, the sample vector grows with the
        /// commit window and was serialized on every poll before this
        /// flag existed.  Optional on the wire so pre-flag clients keep
        /// working.
        #[serde(default)]
        samples: bool,
    },
    /// Register a standing query by spec; replies with its handle id.
    Register {
        /// The query to prepare.
        spec: QuerySpec,
    },
    /// Apply one `ΔG` (exactly one `Fragmentation::apply_delta`).
    Apply {
        /// The delta.
        delta: GraphDelta,
    },
    /// Apply a stream of deltas, one commit per delta, stopping at the
    /// first rejected delta.
    ApplyBatch {
        /// The deltas, in stream order.
        deltas: Vec<GraphDelta>,
    },
    /// Assemble a query's answer, lazily rehydrating if evicted.
    Output {
        /// The handle id from `Register`.
        query: usize,
    },
    /// Assemble a query's answer only if it is resident, caught up and
    /// healthy — never triggers rehydration or replay.
    TryOutput {
        /// The handle id.
        query: usize,
    },
    /// Spill a query's partials to disk: each eviction writes one plain
    /// file of every partial, replacing the query's previous one.
    Evict {
        /// The handle id.
        query: usize,
    },
    /// Reload an evicted query and replay the deltas it missed.
    Rehydrate {
        /// The handle id.
        query: usize,
    },
    /// Watch a query: the daemon pushes an [`EventFrame`] over **this**
    /// connection for every answer delta the query produces.
    Subscribe {
        /// The handle id.
        query: usize,
    },
    /// Stop a subscription previously opened on this daemon.
    Unsubscribe {
        /// The subscription id from the `subscribed` reply.
        subscription: usize,
    },
    /// Stop the daemon (replies before the listener goes down).
    Shutdown,
}

/// One framed request: a client-chosen id plus the operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Echoed verbatim in the response.
    pub id: u64,
    /// The operation.
    #[serde(flatten)]
    pub body: RequestBody,
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Why a request failed — the in-protocol error taxonomy.  The daemon maps
/// [`ServeError`] onto these; transport-level failures never reach this
/// type (they surface as [`WireError`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The request was well-framed but not a valid operation.
    BadRequest,
    /// The query id was never issued by this daemon.
    UnknownHandle,
    /// The subscription id is not active on this daemon (never issued, or
    /// already unsubscribed).
    UnknownSubscription,
    /// The query was quarantined by an earlier failed refresh.
    Poisoned,
    /// The partition layer rejected the delta; the timeline did not
    /// advance for it.
    RejectedDelta,
    /// The query is already evicted (for `evict`), or evicted/behind (for
    /// `try_output`, which never does work to fix that).
    NotResident,
    /// A spill file could not be written, read back, or decoded.
    Snapshot,
    /// The engine failed (refresh divergence, superstep limit, ...).
    Engine,
    /// The daemon is shutting down and no longer serves requests.
    ShuttingDown,
}

/// An apply/batch outcome flattened for the wire: the scalar facts of a
/// [`ServeReport`] plus the ids whose refresh failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApplySummary {
    /// Timeline version after this commit.
    pub version: usize,
    /// Fragments the single delta application rebuilt.
    pub rebuilt: Vec<usize>,
    /// Fragments every query kept sharing verbatim.
    pub reused: usize,
    /// Queries whose refresh succeeded.
    pub refreshed: Vec<usize>,
    /// Queries whose refresh failed (poisoned or left behind; see
    /// `status`).
    pub failed: Vec<usize>,
    /// Total PEval invocations across the successful refreshes.
    pub peval_calls: usize,
    /// Queries that were behind and caught up before this commit.
    pub caught_up: Vec<usize>,
    /// Evicted queries whose refresh is deferred until rehydration.
    pub deferred: Vec<usize>,
    /// Queries skipped because they are poisoned.
    pub poisoned: Vec<usize>,
}

impl From<&ServeReport> for ApplySummary {
    fn from(r: &ServeReport) -> Self {
        ApplySummary {
            version: r.version,
            rebuilt: r.rebuilt.clone(),
            reused: r.reused,
            refreshed: r
                .refreshed
                .iter()
                .filter(|q| q.result.is_ok())
                .map(|q| q.query)
                .collect(),
            failed: r
                .refreshed
                .iter()
                .filter(|q| q.result.is_err())
                .map(|q| q.query)
                .collect(),
            peval_calls: r.peval_calls(),
            caught_up: r.caught_up.clone(),
            deferred: r.deferred.clone(),
            poisoned: r.poisoned.clone(),
        }
    }
}

/// A delta the partition layer rejected mid-batch (wire mirror of
/// `BatchRejection`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectedDelta {
    /// Index into the submitted delta slice.
    pub index: usize,
    /// The partition layer's reason.
    pub reason: String,
}

/// One registered query's row in `status` / `metrics`: what it is (the
/// spec) plus where it stands (the engine-side [`QueryStatus`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryRow {
    /// The spec it was registered with.
    pub spec: QuerySpec,
    /// Engine-side serving state.
    pub status: QueryStatus,
}

/// The `status` reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatusInfo {
    /// Current timeline version: the number of deltas applied since start.
    pub version: usize,
    /// Timeline versions retained for replay.
    pub retained_versions: usize,
    /// Registered queries.
    pub num_queries: usize,
    /// Currently evicted queries.
    pub num_evicted: usize,
    /// Serialized size of all resident partials.
    pub resident_partial_bytes: usize,
    /// Where spill stores live on the daemon's filesystem (absent on the
    /// wire from older daemons).
    #[serde(default)]
    pub spill_dir: String,
    /// Per-query rows, sorted by id.
    pub queries: Vec<QueryRow>,
}

/// The `metrics` reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsInfo {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Current timeline version: the number of deltas applied since start.
    pub version: usize,
    /// Per-commit latency histogram recorded by the server itself.
    pub latency: LatencySummary,
    /// Live samples behind `latency` (windowed; see
    /// `GrapeServer::latency_summary`).
    pub latency_samples: usize,
    /// The raw per-commit latency samples in milliseconds — only when the
    /// request set `samples: true` (`grapectl metrics --samples`).
    pub samples: Option<Vec<f64>>,
    /// Serialized size of all resident partials.
    pub resident_partial_bytes: usize,
    /// Event payloads serialized since start: one per (watched query,
    /// commit or rehydration), however many subscriptions share it (absent
    /// on the wire from older daemons, like the two counters below).
    #[serde(default)]
    pub event_encodes: u64,
    /// Event frames queued to subscribers since start — each encode above
    /// times the subscriptions on its query.
    #[serde(default)]
    pub event_frames: u64,
    /// Payload bytes of those frames (the length line and newlines of the
    /// framing excluded).
    #[serde(default)]
    pub event_bytes: u64,
    /// Bytes moved over `grape-worker` pipes since start — every
    /// registration's and refresh's request + reply payloads; `0` unless
    /// the daemon runs `--transport process` (absent on the wire from
    /// older daemons).
    #[serde(default)]
    pub pipe_bytes: u64,
    /// Per-query rows, sorted by id.
    pub queries: Vec<QueryRow>,
}

/// A query's assembled answer in canonical wire form: rows sorted by
/// vertex id, so equal answers are byte-equal frames.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum QueryAnswer {
    /// Shortest distances (vertex, distance), sorted by vertex;
    /// unreachable vertices are absent.
    Sssp {
        /// The (vertex, distance) rows.
        distances: Vec<(VertexId, f64)>,
    },
    /// Component labels (vertex, component id), sorted by vertex.
    Cc {
        /// The (vertex, component) rows.
        components: Vec<(VertexId, VertexId)>,
    },
}

impl QueryAnswer {
    /// Canonicalizes an [`SsspResult`] (sorted by vertex id).
    pub fn from_sssp(result: &SsspResult) -> Self {
        let mut distances: Vec<(VertexId, f64)> =
            result.distances().iter().map(|(&v, &d)| (v, d)).collect();
        distances.sort_by_key(|&(v, _)| v);
        QueryAnswer::Sssp { distances }
    }

    /// Canonicalizes a [`CcResult`] (sorted by vertex id).
    pub fn from_cc(result: &CcResult) -> Self {
        let mut components: Vec<(VertexId, VertexId)> =
            result.labels().iter().map(|(&v, &c)| (v, c)).collect();
        components.sort_by_key(|&(v, _)| v);
        QueryAnswer::Cc { components }
    }

    /// The answer's query kind tag (`"sssp"`, `"cc"`).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryAnswer::Sssp { .. } => "sssp",
            QueryAnswer::Cc { .. } => "cc",
        }
    }
}

impl From<&SsspResult> for QueryAnswer {
    fn from(result: &SsspResult) -> Self {
        QueryAnswer::from_sssp(result)
    }
}

impl From<&CcResult> for QueryAnswer {
    fn from(result: &CcResult) -> Self {
        QueryAnswer::from_cc(result)
    }
}

/// What the daemon replies with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "reply", rename_all = "snake_case")]
pub enum ResponseBody {
    /// A query was registered under `query`.
    Registered {
        /// The handle id to use in later requests.
        query: usize,
        /// The spec, echoed back.
        spec: QuerySpec,
    },
    /// An apply / apply_batch outcome: one summary per commit, plus the
    /// rejection that stopped a batch (commits before it are durable).
    Applied {
        /// Per-commit summaries, in stream order.
        reports: Vec<ApplySummary>,
        /// The rejection that stopped a batch, if any.
        rejected: Option<RejectedDelta>,
    },
    /// A query's assembled answer.
    Answer {
        /// The handle id.
        query: usize,
        /// The canonical answer.
        answer: QueryAnswer,
    },
    /// A query was spilled to `spill`.
    Evicted {
        /// The handle id.
        query: usize,
        /// The spill file path on the daemon's filesystem.
        spill: String,
    },
    /// A query was reloaded and caught up.
    Rehydrated {
        /// The handle id.
        query: usize,
        /// Deltas replayed to catch up.
        replayed: usize,
        /// PEval invocations of the replay (0 on the monotone path).
        peval_calls: usize,
    },
    /// A subscription was opened; [`EventFrame`]s with this id follow on
    /// the same connection.
    Subscribed {
        /// The handle id.
        query: usize,
        /// The subscription id (echoed in every pushed event).
        subscription: usize,
    },
    /// A subscription was closed; no further events carry its id.
    Unsubscribed {
        /// The subscription id.
        subscription: usize,
    },
    /// The `status` reply.
    Status {
        /// The server and per-query state.
        status: StatusInfo,
    },
    /// The `metrics` reply.
    Metrics {
        /// Uptime, latency and per-query counters.
        metrics: MetricsInfo,
    },
    /// The daemon acknowledged `shutdown` and is going down.
    ShuttingDown,
    /// The request failed (the daemon keeps serving).
    Error {
        /// The error taxonomy entry.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// One framed response: the echoed request id plus the body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// The reply.
    #[serde(flatten)]
    pub body: ResponseBody,
}

/// Maps a [`ServeError`] onto the wire taxonomy.
pub fn serve_error_body(e: &ServeError) -> ResponseBody {
    let kind = match e {
        ServeError::Engine(EngineError::PoisonedHandle) => ErrorKind::Poisoned,
        ServeError::Engine(_) => ErrorKind::Engine,
        ServeError::Delta(_) => ErrorKind::RejectedDelta,
        ServeError::UnknownHandle(_) => ErrorKind::UnknownHandle,
        ServeError::AlreadyEvicted(_) | ServeError::NotResident { .. } => ErrorKind::NotResident,
        ServeError::UnknownSubscription(_) => ErrorKind::UnknownSubscription,
        ServeError::Snapshot(_) => ErrorKind::Snapshot,
    };
    ResponseBody::Error {
        kind,
        message: e.to_string(),
    }
}

/// A server-initiated push: one [`OutputEvent`] for one subscription.
///
/// Event frames share the connection with replies; clients tell them apart
/// because an event frame carries an `event` tag and never an `id`/`reply`
/// pair. Within one subscription, frames arrive in `version` order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventFrame {
    /// The subscription this event belongs to (wire id from `subscribed`).
    pub subscription: usize,
    /// The handle id of the watched query.
    pub query: usize,
    /// The server-side version the event advances the answer to.
    pub version: usize,
    /// The payload: an answer delta, or the terminal poison notice.
    #[serde(flatten)]
    pub event: OutputEvent,
}

/// The opening of every event frame's payload, up to the subscription id.
const EVENT_HEAD: &str = "{\"subscription\":";

/// Serializes the subscriber-independent tail of one [`QueryDelta`]'s event
/// frame — `"query":Q,"version":V,"event":…}` — **once**, so the daemon
/// can hand every subscriber of the query the same bytes.
/// [`put_event_frame`] splices the per-subscriber head in front; the result
/// is byte-identical to [`send`]ing the [`ServerFrame::Event`].
pub fn encode_event_tail(delta: &QueryDelta) -> Arc<str> {
    let json = serde_json::to_string(delta).expect("a Value tree always serializes");
    // Drop the map's own `{`: the head opens the frame's map instead.
    Arc::from(&json[1..])
}

/// Payload length of the event frame [`put_event_frame`] writes for
/// `subscription` over `tail`.
pub fn event_payload_len(subscription: usize, tail: &str) -> usize {
    let digits = subscription.checked_ilog10().unwrap_or(0) as usize + 1;
    EVENT_HEAD.len() + digits + 1 + tail.len()
}

/// Writes one event frame — `{"subscription":S,` spliced in front of a
/// shared [`encode_event_tail`] — without flushing.
pub fn put_event_frame<W: Write>(
    w: &mut W,
    subscription: usize,
    tail: &str,
) -> std::io::Result<()> {
    let id = subscription.to_string();
    put_frame(w, &[EVENT_HEAD, &id, ",", tail])
}

/// Anything the daemon writes on a connection: a reply or a pushed event.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum ServerFrame {
    /// A reply correlated to a request by id.
    Reply(Response),
    /// A server-initiated subscription event.
    Event(EventFrame),
}

impl Serialize for ServerFrame {
    fn to_value(&self) -> Value {
        match self {
            ServerFrame::Reply(response) => response.to_value(),
            ServerFrame::Event(frame) => frame.to_value(),
        }
    }
}

impl Deserialize for ServerFrame {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.get_field("event").is_some() {
            Ok(ServerFrame::Event(EventFrame::from_value(value)?))
        } else {
            Ok(ServerFrame::Reply(Response::from_value(value)?))
        }
    }
}
