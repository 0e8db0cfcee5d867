//! The `graped` daemon: TCP front, single-threaded engine back.
//!
//! Layout:
//!
//! ```text
//! client ──TCP──▶ connection thread ──┐
//! client ──TCP──▶ connection thread ──┼──mpsc──▶ engine thread (owns GrapeServer)
//! mock feeder ────────────────────────┘
//! ```
//!
//! Each accepted socket gets its own blocking reader thread; every parsed
//! request crosses the command channel with a private reply channel and is
//! executed **on the engine thread**, which is the only code that ever
//! touches the [`GrapeServer`].  Concurrent clients can interleave
//! requests however they like — applies still happen one at a time, in
//! channel arrival order, so each `ΔG` runs exactly one
//! `Fragmentation::apply_delta` (the invariant the serving layer is built
//! around, now enforced end-to-end by construction rather than by
//! caller discipline).
//!
//! Shutdown: a `shutdown` request (or [`GrapedHandle::shutdown`]) breaks
//! the engine loop, raises the stop flag and self-connects once to wake
//! the blocking `accept`.  In-flight requests on other connections get a
//! [`ErrorKind::ShuttingDown`] reply.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use grape_algorithms::cc::{Cc, CcQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_core::config::EngineMode;
use grape_core::engine::EngineError;
use grape_core::serve::{GrapeServer, QueryHandle, ServeError, SubscriptionId};
use grape_core::session::GrapeSession;
use grape_core::spec::QuerySpec;
use grape_core::transport::TransportSpec;
use grape_graph::generators;
use grape_graph::graph::Graph;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;

use crate::mock::{self, MockConfig};
use crate::protocol::{
    self, ApplySummary, ErrorKind, MetricsInfo, QueryAnswer, QueryRow, RejectedDelta, RequestBody,
    Response, ResponseBody, StatusInfo,
};

/// The graph a daemon starts from (deltas evolve it afterwards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A `width × height` road grid with seeded random weights
    /// ([`generators::road_grid`]).
    Grid {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
        /// Weight seed.
        seed: u64,
    },
    /// A path graph `0 → 1 → … → n-1` (tiny; for tests and smoke runs).
    Path {
        /// Number of vertices.
        n: usize,
    },
}

impl GraphSource {
    /// Builds the start graph.
    pub fn build(&self) -> Graph {
        match *self {
            GraphSource::Grid {
                width,
                height,
                seed,
            } => generators::road_grid(width, height, seed),
            GraphSource::Path { n } => {
                let mut b = grape_graph::builder::GraphBuilder::directed().ensure_vertices(n);
                for v in 1..n as u64 {
                    b = b.add_edge(v - 1, v);
                }
                b.build()
            }
        }
    }

    /// Parses `grid:<W>x<H>[@seed]` or `path:<N>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(rest) = s.strip_prefix("grid:") {
            let (dims, seed) = match rest.split_once('@') {
                Some((d, seed)) => (
                    d,
                    seed.parse::<u64>()
                        .map_err(|_| format!("bad grid seed in {s:?}"))?,
                ),
                None => (rest, 7),
            };
            let (w, h) = dims
                .split_once('x')
                .ok_or_else(|| format!("expected grid:<W>x<H> in {s:?}"))?;
            let width = w.parse().map_err(|_| format!("bad grid width in {s:?}"))?;
            let height = h.parse().map_err(|_| format!("bad grid height in {s:?}"))?;
            Ok(GraphSource::Grid {
                width,
                height,
                seed,
            })
        } else if let Some(n) = s.strip_prefix("path:") {
            Ok(GraphSource::Path {
                n: n.parse().map_err(|_| format!("bad path length in {s:?}"))?,
            })
        } else {
            Err(format!(
                "unknown graph source {s:?} (expected grid:<W>x<H>[@seed] or path:<N>)"
            ))
        }
    }
}

/// Everything needed to spawn a daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port `0` picks an ephemeral port (see
    /// [`GrapedHandle::addr`]).
    pub addr: String,
    /// Engine workers per query refresh.
    pub workers: usize,
    /// Refresh fan-out width of the `GrapeServer`.
    pub refresh_threads: usize,
    /// Fragments to partition the start graph into.
    pub fragments: usize,
    /// Engine mode (defaults to `GRAPE_ENGINE_MODE`).
    pub mode: EngineMode,
    /// Where the evaluations run: in the daemon (the default) or, under
    /// `TransportSpec::Process`, on `grape-worker` subprocesses.  The
    /// message transport follows `mode`.
    pub transport: TransportSpec,
    /// The start graph.
    pub graph: GraphSource,
    /// Explicit spill directory for evicted queries (temp dir otherwise).
    pub spill_dir: Option<PathBuf>,
    /// When set, registers the synthetic workload and feeds generated
    /// deltas (the `--mock` mode).
    pub mock: Option<MockConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: format!("127.0.0.1:{}", protocol::DEFAULT_PORT),
            workers: 2,
            refresh_threads: 2,
            fragments: 4,
            mode: EngineMode::default_from_env(),
            transport: TransportSpec::InProcess,
            graph: GraphSource::Grid {
                width: 24,
                height: 24,
                seed: 7,
            },
            spill_dir: None,
            mock: None,
        }
    }
}

/// A failure to *start* the daemon (once running, failures are per-request
/// protocol errors).
#[derive(Debug)]
pub enum DaemonError {
    /// Binding or socket setup failed.
    Io(std::io::Error),
    /// Partitioning the start graph failed.
    Partition(String),
    /// Preparing the mock workload failed.
    Register(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "cannot start daemon: {e}"),
            DaemonError::Partition(m) => write!(f, "cannot partition start graph: {m}"),
            DaemonError::Register(m) => write!(f, "cannot register mock workload: {m}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

/// A registered query's typed handle, erased into the one enum the engine
/// thread dispatches on (specs arrive as data, not as types).
#[derive(Clone, Copy)]
enum AnyHandle {
    Sssp(QueryHandle<Sssp>),
    Cc(QueryHandle<Cc>),
}

/// Runs `$body` with `$h` bound to the typed handle behind `$any`.
macro_rules! with_handle {
    ($any:expr, $h:ident => $body:expr) => {
        match $any {
            AnyHandle::Sssp($h) => $body,
            AnyHandle::Cc($h) => $body,
        }
    };
}

/// A failed request's error body, boxed: the `metrics` reply makes
/// [`ResponseBody`] too large to return by value on the error path.
type Failure = Box<ResponseBody>;

/// The wire error body of a serve-layer error.
fn serve_err(e: ServeError) -> Failure {
    Box::new(protocol::serve_error_body(&e))
}

/// What a connection's writer thread is handed: a reply to serialize, or a
/// pushed event whose payload the engine thread already serialized — once
/// for every subscriber of the query — minus the subscription id the writer
/// splices in front ([`protocol::put_event_frame`]).  On the wire both are
/// [`protocol::ServerFrame`]s; this enum never leaves the daemon.
pub(crate) enum Outbound {
    Reply(Response),
    Event { subscription: usize, tail: Arc<str> },
}

impl Outbound {
    /// Writes the frame into `w` without flushing.
    fn put<W: Write>(&self, w: &mut W) -> Result<(), protocol::WireError> {
        match self {
            Outbound::Reply(response) => protocol::put(w, response),
            Outbound::Event { subscription, tail } => {
                Ok(protocol::put_event_frame(w, *subscription, tail)?)
            }
        }
    }
}

/// A connection's writer thread: drains `frames` onto `stream` until every
/// sender is gone or a write fails.  Each wake-up writes the frame it woke
/// for plus everything queued behind it, then flushes once.
fn write_frames(stream: TcpStream, frames: Receiver<Outbound>) -> Result<(), protocol::WireError> {
    let mut writer = BufWriter::new(stream);
    while let Ok(frame) = frames.recv() {
        frame.put(&mut writer)?;
        while let Ok(queued) = frames.try_recv() {
            queued.put(&mut writer)?;
        }
        writer.flush()?;
    }
    Ok(())
}

/// One live wire subscription: the serve-layer id, the watched query, and
/// the connection writer that receives its pushed event frames.
struct Subscriber {
    sub: SubscriptionId,
    query: usize,
    tx: Sender<Outbound>,
}

/// The engine thread's state: the `GrapeServer` plus the spec/handle table
/// mapping wire-level query ids onto typed handles, plus the live wire
/// subscriptions fanning answer deltas back out to connections.
struct Engine {
    server: GrapeServer,
    entries: Vec<(QuerySpec, AnyHandle)>,
    subscribers: Vec<Subscriber>,
    started: Instant,
    /// Event payloads serialized / frames queued to subscribers / payload
    /// bytes of those frames, since start (the `metrics` op's
    /// `event_encodes`, `event_frames`, `event_bytes`).
    event_encodes: u64,
    event_frames: u64,
    event_bytes: u64,
}

impl Engine {
    fn err(kind: ErrorKind, message: impl Into<String>) -> Failure {
        Box::new(ResponseBody::Error {
            kind,
            message: message.into(),
        })
    }

    fn register(&mut self, spec: QuerySpec) -> Result<usize, ServeError> {
        let id = match spec {
            QuerySpec::Sssp { source } => {
                let h = self.server.register(Sssp, SsspQuery::new(source))?;
                self.entries.push((spec, AnyHandle::Sssp(h)));
                h.id()
            }
            QuerySpec::Cc => {
                let h = self.server.register(Cc, CcQuery)?;
                self.entries.push((spec, AnyHandle::Cc(h)));
                h.id()
            }
        };
        debug_assert_eq!(id + 1, self.entries.len(), "slot ids are dense");
        Ok(id)
    }

    fn rows(&self) -> Vec<QueryRow> {
        self.server
            .query_statuses()
            .into_iter()
            .map(|status| QueryRow {
                spec: self.entries[status.query].0,
                status,
            })
            .collect()
    }

    /// The handle behind wire query id `query`, or the error body every
    /// per-query request answers an unregistered id with.
    fn handle_of(&self, query: usize) -> Result<AnyHandle, Failure> {
        self.entries.get(query).map(|&(_, h)| h).ok_or_else(|| {
            Self::err(
                ErrorKind::UnknownHandle,
                format!("query handle {query} was never registered"),
            )
        })
    }

    /// Fans every answer delta buffered by the `GrapeServer` out to the
    /// matching wire subscriptions: the payload is serialized once per
    /// delta, and each subscriber of the query gets the shared bytes plus
    /// its own subscription id — the cost per extra watcher is one channel
    /// send.  A failed send means the connection's writer is gone: the
    /// subscriber is dropped and the serve-layer subscription closed (so
    /// the cold-watch buffer stops growing).
    fn pump_events(&mut self) {
        let deltas = self.server.drain_events();
        if deltas.is_empty() {
            return;
        }
        let mut dead: Vec<usize> = Vec::new();
        for delta in deltas {
            if !self.subscribers.iter().any(|s| s.query == delta.query) {
                continue;
            }
            let tail = protocol::encode_event_tail(&delta);
            self.event_encodes += 1;
            for (idx, sub) in self.subscribers.iter().enumerate() {
                if sub.query != delta.query || dead.contains(&idx) {
                    continue;
                }
                let subscription = sub.sub.id();
                let frame = Outbound::Event {
                    subscription,
                    tail: Arc::clone(&tail),
                };
                if sub.tx.send(frame).is_err() {
                    dead.push(idx);
                } else {
                    self.event_frames += 1;
                    self.event_bytes += protocol::event_payload_len(subscription, &tail) as u64;
                }
            }
        }
        dead.sort_unstable();
        for idx in dead.into_iter().rev() {
            let gone = self.subscribers.remove(idx);
            let _ = self.server.unsubscribe(gone.sub);
        }
    }

    /// Executes one request body; a failure comes back as the `Err` error
    /// body, so the arms can bail out with `?`.  Runs on the engine thread
    /// only.  `events` is the caller's event channel when the request
    /// arrived over a connection that can receive pushed frames.
    fn handle(
        &mut self,
        body: RequestBody,
        events: Option<&Sender<Outbound>>,
    ) -> Result<ResponseBody, Failure> {
        Ok(match body {
            RequestBody::Status => ResponseBody::Status {
                status: StatusInfo {
                    version: self.server.version(),
                    retained_versions: self.server.retained_versions(),
                    num_queries: self.server.num_queries(),
                    num_evicted: self.server.num_evicted(),
                    resident_partial_bytes: self.server.resident_partial_bytes(),
                    spill_dir: self.server.spill_dir().display().to_string(),
                    queries: self.rows(),
                },
            },
            RequestBody::Metrics { samples } => ResponseBody::Metrics {
                metrics: MetricsInfo {
                    uptime_ms: self.started.elapsed().as_millis() as u64,
                    version: self.server.version(),
                    latency: self.server.latency_summary(),
                    latency_samples: self.server.latency_samples(),
                    // The raw vector is opt-in: the summary above is O(1) on
                    // the wire, the samples are O(window).
                    samples: if samples {
                        Some(self.server.latency_samples_ms())
                    } else {
                        None
                    },
                    resident_partial_bytes: self.server.resident_partial_bytes(),
                    event_encodes: self.event_encodes,
                    event_frames: self.event_frames,
                    event_bytes: self.event_bytes,
                    pipe_bytes: self.server.pipe_bytes(),
                    queries: self.rows(),
                },
            },
            RequestBody::Register { spec } => {
                let query = self.register(spec).map_err(serve_err)?;
                ResponseBody::Registered { query, spec }
            }
            RequestBody::Apply { delta } => {
                let report = self.server.apply(&delta).map_err(serve_err)?;
                ResponseBody::Applied {
                    reports: vec![ApplySummary::from(&report)],
                    rejected: None,
                }
            }
            RequestBody::ApplyBatch { deltas } => {
                let batch = self.server.apply_batch(&deltas);
                ResponseBody::Applied {
                    reports: batch.reports.iter().map(ApplySummary::from).collect(),
                    rejected: batch.rejected.map(|r| RejectedDelta {
                        index: r.index,
                        reason: r.reason,
                    }),
                }
            }
            RequestBody::Output { query } => {
                let answer = with_handle!(self.handle_of(query)?, h => self
                    .server
                    .output(&h)
                    .map(|r| QueryAnswer::from(&r)))
                .map_err(serve_err)?;
                ResponseBody::Answer { query, answer }
            }
            RequestBody::TryOutput { query } => {
                let answer = with_handle!(self.handle_of(query)?, h => self
                    .server
                    .try_output(&h)
                    .map(|r| QueryAnswer::from(&r)))
                .map_err(|e| match e {
                    // A poisoned query's `try_output` reply names the query.
                    ServeError::Engine(EngineError::PoisonedHandle) => Self::err(
                        ErrorKind::Poisoned,
                        format!("query {query} was poisoned by an earlier failed refresh"),
                    ),
                    e => serve_err(e),
                })?;
                ResponseBody::Answer { query, answer }
            }
            RequestBody::Evict { query } => {
                let spill = with_handle!(self.handle_of(query)?, h => self.server.evict(&h))
                    .map_err(serve_err)?;
                ResponseBody::Evicted {
                    query,
                    spill: spill.display().to_string(),
                }
            }
            RequestBody::Rehydrate { query } => {
                let report = with_handle!(self.handle_of(query)?, h => self.server.rehydrate(&h))
                    .map_err(serve_err)?;
                ResponseBody::Rehydrated {
                    query,
                    replayed: report.replayed.len(),
                    peval_calls: report.peval_calls(),
                }
            }
            RequestBody::Subscribe { query } => {
                let Some(events) = events else {
                    return Err(Self::err(
                        ErrorKind::BadRequest,
                        "subscribe needs a connection that can receive pushed events",
                    ));
                };
                let sub = with_handle!(self.handle_of(query)?, h => self.server.subscribe(&h))
                    .map_err(serve_err)?;
                let subscription = sub.id();
                self.subscribers.push(Subscriber {
                    sub,
                    query,
                    tx: events.clone(),
                });
                ResponseBody::Subscribed {
                    query,
                    subscription,
                }
            }
            RequestBody::Unsubscribe { subscription } => {
                let idx = self
                    .subscribers
                    .iter()
                    .position(|s| s.sub.id() == subscription)
                    .ok_or_else(|| {
                        Self::err(
                            ErrorKind::UnknownSubscription,
                            format!("subscription {subscription} is not active"),
                        )
                    })?;
                let gone = self.subscribers.remove(idx);
                self.server.unsubscribe(gone.sub).map_err(serve_err)?;
                ResponseBody::Unsubscribed { subscription }
            }
            RequestBody::Shutdown => ResponseBody::ShuttingDown,
        })
    }
}

/// Where a command's reply goes: a private in-process channel (mock
/// feeder, [`GrapedHandle::shutdown`]) or a connection's writer thread,
/// where the reply is correlated to its request by id and interleaves
/// with pushed event frames.
pub(crate) enum Replier {
    /// In-process caller; gets the bare body.
    Channel(Sender<ResponseBody>),
    /// A connection's writer; gets a framed [`Response`].
    Connection {
        /// The connection's outbound frame channel.
        tx: Sender<Outbound>,
        /// The request id to echo.
        id: u64,
    },
}

impl Replier {
    /// Delivers the reply; `false` when the receiving side is gone.
    fn send(&self, body: ResponseBody) -> bool {
        match self {
            Replier::Channel(tx) => tx.send(body).is_ok(),
            Replier::Connection { tx, id } => {
                tx.send(Outbound::Reply(Response { id: *id, body })).is_ok()
            }
        }
    }

    /// The caller's event channel, when it can receive pushed frames.
    fn events(&self) -> Option<&Sender<Outbound>> {
        match self {
            Replier::Channel(_) => None,
            Replier::Connection { tx, .. } => Some(tx),
        }
    }
}

/// One request crossing from a socket (or the mock feeder) to the engine
/// thread, with its reply route.
pub(crate) struct Command {
    pub(crate) body: RequestBody,
    pub(crate) replier: Replier,
}

/// A running daemon.  Dropping the handle does **not** stop the daemon;
/// call [`GrapedHandle::shutdown`] (or send a `shutdown` request) first,
/// or [`GrapedHandle::wait`] to serve until one arrives.
pub struct GrapedHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    tx: Sender<Command>,
    accept: Option<JoinHandle<()>>,
    engine: Option<JoinHandle<()>>,
    feeder: Option<JoinHandle<()>>,
}

impl GrapedHandle {
    /// Builds the graph, prepares the (possibly mock) workload, binds the
    /// listener and starts the accept + engine threads.  Returns once the
    /// daemon accepts connections.
    pub fn spawn(config: DaemonConfig) -> Result<GrapedHandle, DaemonError> {
        let graph = config.graph.build();
        let fragmentation = MetisLike::new(config.fragments)
            .partition(&graph)
            .map_err(|e| DaemonError::Partition(e.to_string()))?;
        let session = GrapeSession::builder()
            .workers(config.workers)
            .mode(config.mode)
            .refresh_threads(config.refresh_threads)
            .transport(config.transport)
            .build()
            .map_err(|e| DaemonError::Partition(e.to_string()))?;
        let server = match &config.spill_dir {
            Some(dir) => GrapeServer::with_spill_dir(session, fragmentation, dir.clone()),
            None => GrapeServer::new(session, fragmentation),
        };
        let mut engine = Engine {
            server,
            entries: Vec::new(),
            subscribers: Vec::new(),
            started: Instant::now(),
            event_encodes: 0,
            event_frames: 0,
            event_bytes: 0,
        };
        if let Some(mock_cfg) = &config.mock {
            for spec in mock::workload(mock_cfg, graph.num_vertices()) {
                engine
                    .register(spec)
                    .map_err(|e| DaemonError::Register(e.to_string()))?;
            }
        }

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel::<Command>();

        let engine_thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_engine(engine, rx, stop, addr))
        };
        let feeder = config.mock.as_ref().map(|mock_cfg| {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            let cfg = mock_cfg.clone();
            let base_vertices = graph.num_vertices() as u64;
            std::thread::spawn(move || mock::feed(cfg, base_vertices, tx, stop))
        });
        let accept_thread = {
            let tx = tx.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || run_accept(listener, tx, stop))
        };
        Ok(GrapedHandle {
            addr,
            stop,
            tx,
            accept: Some(accept_thread),
            engine: Some(engine_thread),
            feeder,
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (a `shutdown` request arrived).
    pub fn wait(mut self) {
        self.join();
    }

    /// Stops the daemon: engine loop breaks, listener wakes, threads join.
    pub fn shutdown(mut self) {
        let (reply, ack) = std::sync::mpsc::channel();
        if self
            .tx
            .send(Command {
                body: RequestBody::Shutdown,
                replier: Replier::Channel(reply),
            })
            .is_ok()
        {
            let _ = ack.recv();
        } else {
            // The engine is already down (a client's shutdown won); just
            // make sure the accept loop wakes too.
            self.stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.addr);
        }
        self.join();
    }

    fn join(&mut self) {
        if let Some(t) = self.engine.take() {
            let _ = t.join();
        }
        if let Some(t) = self.feeder.take() {
            let _ = t.join();
        }
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
    }
}

/// The engine loop: the only code that touches the `GrapeServer`.  Breaks
/// on `shutdown` (after acking), then raises the stop flag and wakes the
/// accept loop.
fn run_engine(mut engine: Engine, rx: Receiver<Command>, stop: Arc<AtomicBool>, addr: SocketAddr) {
    while let Ok(cmd) = rx.recv() {
        let shutting_down = matches!(cmd.body, RequestBody::Shutdown);
        let response = engine
            .handle(cmd.body, cmd.replier.events())
            .unwrap_or_else(|error| *error);
        let _ = cmd.replier.send(response);
        // Push whatever the command produced (applies emit one delta per
        // watched query, rehydrations one compacted delta) before the
        // next command — and, on shutdown, before the writers go down.
        engine.pump_events();
        if shutting_down {
            break;
        }
    }
    stop.store(true, Ordering::SeqCst);
    // Wake the blocking accept() so the listener thread can observe the
    // flag and exit.
    let _ = TcpStream::connect(addr);
}

/// The accept loop: one blocking reader thread per connection.
fn run_accept(listener: TcpListener, tx: Sender<Command>, stop: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let tx = tx.clone();
        std::thread::spawn(move || serve_connection(stream, tx));
    }
}

/// Reads frames off one socket, funnels each request through the command
/// channel.  A framing error ends the connection (the byte stream can no
/// longer be trusted); a *payload* error (well-framed but not a valid
/// request) gets an error reply and the connection continues.
///
/// All outbound traffic — replies *and* pushed subscription events — goes
/// through one writer thread per connection, so an event can never tear a
/// reply frame mid-write.  The reader does not wait for a reply before
/// parsing the next request (requests pipeline); ordering is preserved
/// because the engine thread executes commands and emits both replies and
/// events into the same channel in arrival order.
///
/// The writer's flush rule is **flush when the channel runs dry**: it
/// writes every frame already queued into its buffer and flushes once, so
/// a commit's burst of event frames leaves in a few segments instead of one
/// per frame, while a lone reply (nothing queued behind it) still leaves
/// immediately — a frame never waits in the buffer for a later one.  The
/// socket runs with `TCP_NODELAY`, so the tail of a burst does not wait for
/// the peer's delayed ACK either.
fn serve_connection(stream: TcpStream, tx: Sender<Command>) {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let (frame_tx, frame_rx) = std::sync::mpsc::channel::<Outbound>();
    let writer = std::thread::spawn(move || {
        // A write error means the peer is gone; the reader side notices
        // on its own and the engine reaps the subscriptions.
        let _ = write_frames(stream, frame_rx);
    });
    loop {
        let request = match protocol::read_frame(&mut reader) {
            Ok(Some(payload)) => protocol::decode_request(&payload),
            Ok(None) => break,
            Err(e) => {
                let reply = Outbound::Reply(Response {
                    id: 0,
                    body: ResponseBody::Error {
                        kind: ErrorKind::BadRequest,
                        message: e.to_string(),
                    },
                });
                let _ = frame_tx.send(reply);
                break;
            }
        };
        let request = match request {
            Ok(request) => request,
            Err((id, message)) => {
                let reply = Outbound::Reply(Response {
                    id,
                    body: ResponseBody::Error {
                        kind: ErrorKind::BadRequest,
                        message,
                    },
                });
                if frame_tx.send(reply).is_err() {
                    break;
                }
                continue;
            }
        };
        let id = request.id;
        if tx
            .send(Command {
                body: request.body,
                replier: Replier::Connection {
                    tx: frame_tx.clone(),
                    id,
                },
            })
            .is_err()
        {
            let _ = frame_tx.send(Outbound::Reply(Response {
                id,
                body: ResponseBody::Error {
                    kind: ErrorKind::ShuttingDown,
                    message: "daemon is shutting down".to_string(),
                },
            }));
            break;
        }
    }
    // The writer drains until every sender is gone: ours (now), the
    // engine's per-reply cloned repliers, and any live subscribers (which
    // the engine drops when a send fails or the engine itself goes down).
    drop(frame_tx);
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_sources_parse_and_build() {
        assert_eq!(
            GraphSource::parse("grid:4x3").unwrap(),
            GraphSource::Grid {
                width: 4,
                height: 3,
                seed: 7
            }
        );
        assert_eq!(
            GraphSource::parse("grid:4x3@42").unwrap(),
            GraphSource::Grid {
                width: 4,
                height: 3,
                seed: 42
            }
        );
        assert_eq!(
            GraphSource::parse("path:9").unwrap(),
            GraphSource::Path { n: 9 }
        );
        assert!(GraphSource::parse("ring:5").is_err());
        assert!(GraphSource::parse("grid:4").is_err());

        let g = GraphSource::Path { n: 5 }.build();
        assert_eq!(g.num_vertices(), 5);
        let g = GraphSource::Grid {
            width: 4,
            height: 3,
            seed: 7,
        }
        .build();
        assert_eq!(g.num_vertices(), 12);
    }
}
