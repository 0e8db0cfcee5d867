//! The five daemon workloads: what they are, the operation loop both
//! drivers share, and the driver that runs it against the real `graped`
//! child over TCP through the public `GrapeClient`.
//!
//! Load model: a closed loop.  One writer connection sends a request and
//! waits for its reply; `serve-watch-read` adds one watcher connection on a
//! second thread and the writer also waits until the watcher has read the
//! commit's last event frame.  Two threads, two connections, never more.

use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grape_core::output_delta::{wire_rows, OutputEvent};
use grape_core::spec::QuerySpec;
use grape_daemon::protocol::{
    self, EventFrame, QueryAnswer, Request, RequestBody, Response, ResponseBody, ServerFrame,
};
use grape_daemon::GrapeClient;
use grape_graph::delta::GraphDelta;
use grape_graph::generators::road_grid;
use grape_graph::graph::Graph;
use serde::Value;

use crate::inputs::{spread_sources, DeltaStream, Mirror, StreamKind};
use crate::manifest::TAIL_PERCENTILE;
use crate::procs::{self, Graped};
use crate::stats::{self, samples_needed};
use crate::trace::{Recorder, SpanId};
use crate::{oracle, Metrics, RunOpts, RunResult, SETUPS};

/// Engine workers per refresh, refresh fan-out width and fragment count of
/// every daemon workload.
pub const WORKERS: usize = 2;
pub const REFRESH_THREADS: usize = 2;
pub const FRAGMENTS: usize = 4;
/// Weight seed of the start grid.
pub const GRID_SEED: u64 = 7;
/// Subscriptions the watcher holds on each query.
pub const WATCHERS_PER_QUERY: usize = 4;
/// `serve-watch-read` polls one answer after every this-many commits.
const OUTPUT_EVERY: usize = 2;
/// Commits between the evict and the rehydrate of one cold cycle.
const COMMITS_PER_CYCLE: usize = 2;
/// Share of `--seconds` each half of a traced run (the client-side half
/// against `graped`, the in-process half) measures for.
pub const TRACED_SHARE: f64 = 0.4;
/// An `output` reply slower than this counts as stalled.
const STALL_MS: f64 = 30.0;
/// How long the writer waits for the watcher before the commit counts as
/// timed out.
const EVENT_TIMEOUT: Duration = Duration::from_secs(30);

/// What one operation of a workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One `apply`.
    Commit,
    /// One `apply`, timed until the watcher has read the commit's last
    /// event frame; an `output` poll follows every second commit.
    WatchRead,
    /// `evict` one SSSP query (round-robin), two `apply`s, `rehydrate` it.
    ColdCycle,
}

/// A daemon workload.
pub struct ServeSpec {
    pub name: &'static str,
    /// Start graph: `grid:<w>x<h>@7`.
    pub grid: (usize, usize),
    /// Standing SSSP queries (one CC query is registered beside them).
    pub sssp_queries: usize,
    /// `--transport process`.
    pub process: bool,
    pub stream: StreamKind,
    pub shape: Shape,
    /// Un-timed operations that end set-up.
    pub warmup_ops: usize,
    /// Operations over which the traced run takes its exact counts.
    pub count_ops: usize,
}

/// The daemon workloads, in manifest order.
pub const SPECS: [ServeSpec; 5] = [
    ServeSpec {
        name: "serve-insert",
        grid: (96, 96),
        sssp_queries: 8,
        process: false,
        stream: StreamKind::Insert,
        shape: Shape::Commit,
        warmup_ops: 100,
        count_ops: 200,
    },
    ServeSpec {
        name: "serve-churn",
        grid: (96, 96),
        sssp_queries: 8,
        process: false,
        stream: StreamKind::Churn,
        shape: Shape::Commit,
        warmup_ops: 100,
        count_ops: 100,
    },
    ServeSpec {
        name: "serve-watch-read",
        grid: (96, 96),
        sssp_queries: 8,
        process: false,
        stream: StreamKind::Insert,
        shape: Shape::WatchRead,
        warmup_ops: 30,
        count_ops: 100,
    },
    ServeSpec {
        name: "cold-cycle",
        grid: (48, 48),
        sssp_queries: 8,
        process: false,
        stream: StreamKind::Insert,
        shape: Shape::ColdCycle,
        // One cycle per SSSP query, so every store has written its base
        // before timing starts.
        warmup_ops: 8,
        // Five evictions per query: the fifth pushes each chain past the
        // compaction threshold.
        count_ops: 40,
    },
    ServeSpec {
        name: "serve-process",
        grid: (32, 32),
        sssp_queries: 2,
        process: true,
        stream: StreamKind::Insert,
        shape: Shape::Commit,
        warmup_ops: 10,
        count_ops: 20,
    },
];

impl ServeSpec {
    /// The start graph.
    pub fn graph(&self) -> Graph {
        road_grid(self.grid.0, self.grid.1, GRID_SEED)
    }

    /// The standing queries: K SSSP with sources spread over the ids, then
    /// one CC.  A query's handle id is its position here.
    pub fn queries(&self, vertices: usize) -> Vec<QuerySpec> {
        let mut specs: Vec<QuerySpec> = spread_sources(vertices, self.sssp_queries)
            .into_iter()
            .map(|source| QuerySpec::Sssp { source })
            .collect();
        specs.push(QuerySpec::Cc);
        specs
    }

    /// Commits one operation makes.
    pub fn commits_per_op(&self) -> usize {
        match self.shape {
            Shape::ColdCycle => COMMITS_PER_CYCLE,
            Shape::Commit | Shape::WatchRead => 1,
        }
    }

    /// Event frames one commit pushes to the watcher.
    pub fn frames_per_commit(&self) -> usize {
        WATCHERS_PER_QUERY * (self.sssp_queries + 1)
    }
}

// ---------------------------------------------------------------------------
// The operation loop, shared by the daemon driver and the in-process replay
// ---------------------------------------------------------------------------

/// What the operation loop needs from the system under test.  Two
/// implementations: [`Remote`] (the `graped` child over TCP) and
/// `replay::Local` (the same calls made in-process, for the per-layer
/// trace).
pub trait Backend {
    /// Commits one `ΔG`; returns the timeline version after it.
    fn apply(
        &mut self,
        delta: &GraphDelta,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<usize, String>;

    /// Blocks until every event frame of `version` has been read by the
    /// watcher (`sent` is when the commit was sent).
    fn await_events(
        &mut self,
        version: usize,
        sent: Instant,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(), String>;

    /// Reads one query's full answer.
    fn output(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<QueryAnswer, String>;

    /// Spills one query.
    fn evict(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(), String>;

    /// Reloads one query; returns `(deltas replayed, PEval calls)`.
    fn rehydrate(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(usize, usize), String>;
}

/// The state of one workload run: where the delta stream stands, the
/// mirror of the graph, and the operation counter behind the round-robins.
pub struct Driver<'s> {
    spec: &'s ServeSpec,
    pub queries: Vec<QuerySpec>,
    /// Name of the span around each operation (`client.op` against the
    /// daemon, `replay.op` in-process), so one trace holds both.
    op_span: &'static str,
    stream: DeltaStream,
    mirror: Mirror,
    ops: usize,
    commits: usize,
}

/// What a measured section observed.
pub struct Measured {
    /// Per-operation latency in milliseconds, in order.
    pub op_ms: Vec<f64>,
    /// Wall time of the section.
    pub wall: Duration,
    /// The error that stopped the loop early, if any.
    pub aborted: Option<String>,
}

impl<'s> Driver<'s> {
    /// A driver at the start of the seeded stream.
    pub fn new(spec: &'s ServeSpec, graph: &Graph, seed: u64, op_span: &'static str) -> Self {
        Driver {
            spec,
            queries: spec.queries(graph.num_vertices()),
            op_span,
            stream: DeltaStream::new(spec.stream, graph, seed),
            mirror: Mirror::new(graph),
            ops: 0,
            commits: 0,
        }
    }

    /// The stream's input digest (see `DeltaStream::digest`).
    pub fn digest(&self, graph: &Graph) -> u64 {
        self.stream.digest(graph)
    }

    fn commit(
        &mut self,
        backend: &mut dyn Backend,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(usize, Instant), String> {
        let delta = self.stream.next_delta();
        self.mirror.apply(&delta);
        self.commits += 1;
        let sent = Instant::now();
        let version = backend.apply(&delta, rec, parent)?;
        if version != self.commits {
            return Err(format!(
                "commit {} reported version {version}",
                self.commits
            ));
        }
        Ok((version, sent))
    }

    /// Runs one operation of the workload's shape; returns its latency.
    pub fn one_op(
        &mut self,
        backend: &mut dyn Backend,
        rec: &mut Recorder,
    ) -> Result<Duration, String> {
        let index = self.ops;
        self.ops += 1;
        let op = rec.enter(self.op_span, None, self.commits + 1);
        let parent = op.id();
        match self.spec.shape {
            Shape::Commit => {
                self.commit(backend, rec, parent)?;
                Ok(rec.exit(op))
            }
            Shape::WatchRead => {
                let (version, sent) = self.commit(backend, rec, parent)?;
                backend.await_events(version, sent, rec, parent)?;
                let took = rec.exit(op);
                if (index + 1).is_multiple_of(OUTPUT_EVERY) {
                    let query = (index / OUTPUT_EVERY) % self.queries.len();
                    backend.output(query, rec, None)?;
                }
                Ok(took)
            }
            Shape::ColdCycle => {
                let query = index % self.spec.sssp_queries;
                backend.evict(query, rec, parent)?;
                for _ in 0..COMMITS_PER_CYCLE {
                    self.commit(backend, rec, parent)?;
                }
                let (replayed, peval_calls) = backend.rehydrate(query, rec, parent)?;
                if replayed != COMMITS_PER_CYCLE || peval_calls != 0 {
                    return Err(format!(
                        "rehydrate of query {query} replayed {replayed} deltas with {peval_calls} PEval calls, expected {COMMITS_PER_CYCLE} and 0"
                    ));
                }
                Ok(rec.exit(op))
            }
        }
    }

    /// The un-timed operations that end set-up.
    pub fn warm_up(&mut self, backend: &mut dyn Backend) -> Result<(), String> {
        let mut off = Recorder::new(false);
        for _ in 0..self.spec.warmup_ops {
            self.one_op(backend, &mut off)?;
        }
        Ok(())
    }

    /// The measured section: operations back to back for `seconds`, and
    /// until at least `min_ops` have completed.  An operation that fails
    /// stops the loop (the daemon's state is unknown after it).
    pub fn measure(
        &mut self,
        backend: &mut dyn Backend,
        rec: &mut Recorder,
        seconds: f64,
        min_ops: usize,
    ) -> Measured {
        let started = Instant::now();
        let mut op_ms = Vec::new();
        let mut aborted = None;
        while started.elapsed().as_secs_f64() < seconds || op_ms.len() < min_ops {
            match self.one_op(backend, rec) {
                Ok(took) => op_ms.push(took.as_secs_f64() * 1e3),
                Err(e) => {
                    aborted = Some(e);
                    break;
                }
            }
        }
        Measured {
            op_ms,
            wall: started.elapsed(),
            aborted,
        }
    }

    /// Reads every query's answer and compares it with the sequential
    /// oracle over the mirrored graph.  Returns `(checked, wrong, answers)`.
    pub fn check_answers(
        &self,
        backend: &mut dyn Backend,
        rec: &mut Recorder,
    ) -> (usize, usize, Vec<QueryAnswer>) {
        let graph = self.mirror.graph();
        let mut wrong = 0;
        let mut answers = Vec::new();
        for (query, &spec) in self.queries.iter().enumerate() {
            match backend.output(query, rec, None) {
                Ok(answer) => {
                    if !oracle::agrees(&answer, &oracle::expected(spec, &graph)) {
                        eprintln!("wrong answer: query {query} ({spec}) disagrees with the oracle");
                        wrong += 1;
                    }
                    answers.push(answer);
                }
                Err(e) => {
                    eprintln!("query {query} ({spec}): {e}");
                    wrong += 1;
                }
            }
        }
        (self.queries.len(), wrong, answers)
    }
}

// ---------------------------------------------------------------------------
// The daemon driver
// ---------------------------------------------------------------------------

/// What the watcher thread saw.
#[derive(Default)]
pub struct WatchLog {
    /// Frames read.
    frames: usize,
    /// Versions that ended with fewer frames than a commit pushes.
    short_versions: usize,
    /// The frames kept for folding: one subscription per query, or every
    /// frame when the run is traced.
    kept: Vec<EventFrame>,
}

struct Watch {
    seen: Receiver<(usize, Instant)>,
    thread: JoinHandle<WatchLog>,
    subscribed: Subscribed,
}

/// What the fold check needs to know about the subscriptions.
struct Subscribed {
    /// The first subscription id on each query.
    primary: Vec<usize>,
    /// Each query's answer when it was subscribed.
    baseline: Vec<QueryAnswer>,
}

fn watch_loop(
    mut client: GrapeClient,
    frames_per_commit: usize,
    primary: Vec<usize>,
    keep_all: bool,
    seen: Sender<(usize, Instant)>,
) -> WatchLog {
    let mut log = WatchLog::default();
    let (mut version, mut count) = (0, 0);
    // Ends when the daemon closes the connection at shutdown.
    while let Ok(frame) = client.next_event() {
        let at = Instant::now();
        log.frames += 1;
        if frame.version != version {
            if count != 0 && count != frames_per_commit {
                log.short_versions += 1;
            }
            version = frame.version;
            count = 0;
        }
        count += 1;
        if keep_all || primary.contains(&frame.subscription) {
            log.kept.push(frame);
        }
        if count == frames_per_commit {
            let _ = seen.send((version, at));
        }
    }
    log
}

/// The `graped` child over TCP.
pub struct Remote {
    client: GrapeClient,
    watch: Option<Watch>,
    /// Traced runs keep the first replies for the codec measurements.
    keep: Option<Kept>,
}

/// Messages a traced run keeps so the wire codec can be timed on them
/// afterwards, off the measured path: the first `commits` applies and the
/// answers polled during them.  The run always gets that far, so the byte
/// counts taken from these messages repeat exactly.
struct Kept {
    commits: usize,
    applies: Vec<(GraphDelta, ResponseBody)>,
    answers: Vec<(usize, QueryAnswer)>,
}

fn wire<T>(result: Result<T, grape_daemon::ClientError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

impl Backend for Remote {
    fn apply(
        &mut self,
        delta: &GraphDelta,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<usize, String> {
        let request = delta.clone();
        let span = rec.enter("daemon.apply", parent, 0);
        let result = self.client.apply(request);
        rec.exit(span);
        let batch = wire(result)?;
        let report = match (batch.reports.as_slice(), &batch.rejected) {
            ([report], None) => report,
            _ => return Err(format!("apply was not one clean commit: {batch:?}")),
        };
        if !report.failed.is_empty() || !report.poisoned.is_empty() {
            return Err(format!(
                "commit {} left queries behind: {report:?}",
                report.version
            ));
        }
        let version = report.version;
        if let Some(keep) = self.keep.as_mut().filter(|k| k.applies.len() < k.commits) {
            keep.applies.push((
                delta.clone(),
                ResponseBody::Applied {
                    reports: batch.reports,
                    rejected: None,
                },
            ));
        }
        Ok(version)
    }

    fn await_events(
        &mut self,
        version: usize,
        sent: Instant,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        let watch = self
            .watch
            .as_ref()
            .expect("watch workloads subscribe at set-up");
        loop {
            let (seen, at) = watch
                .seen
                .recv_timeout(EVENT_TIMEOUT)
                .map_err(|e| format!("events of version {version} never arrived: {e}"))?;
            if seen == version {
                rec.record("daemon.event", parent, version, sent, at);
                return Ok(());
            }
        }
    }

    fn output(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<QueryAnswer, String> {
        let span = rec.enter("daemon.output", parent, 0);
        let result = self.client.output(query);
        rec.exit(span);
        let answer = wire(result)?;
        if let Some(keep) = self.keep.as_mut().filter(|k| k.applies.len() < k.commits) {
            keep.answers.push((query, answer.clone()));
        }
        Ok(answer)
    }

    fn evict(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        let span = rec.enter("daemon.evict", parent, 0);
        let result = self.client.evict(query);
        rec.exit(span);
        wire(result).map(|_| ())
    }

    fn rehydrate(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(usize, usize), String> {
        let span = rec.enter("daemon.rehydrate", parent, 0);
        let result = self.client.rehydrate(query);
        rec.exit(span);
        wire(result)
    }
}

/// A daemon that finished set-up: the child, the connections, the driver
/// positioned after warm-up, and what set-up cost.
struct Session<'s> {
    graped: Graped,
    remote: Remote,
    driver: Driver<'s>,
    spill_dir: PathBuf,
    spawn_ms: f64,
    register_ms: f64,
    setup_s: f64,
}

fn graped_args(spec: &ServeSpec, spill_dir: &Path) -> Vec<String> {
    let mut args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--mode",
        "sync",
        "--workers",
        &WORKERS.to_string(),
        "--refresh-threads",
        &REFRESH_THREADS.to_string(),
        "--fragments",
        &FRAGMENTS.to_string(),
        "--graph",
        &format!("grid:{}x{}@{GRID_SEED}", spec.grid.0, spec.grid.1),
        "--spill-dir",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(spill_dir.display().to_string());
    if spec.process {
        args.extend(["--transport".to_string(), "process".to_string()]);
    }
    args
}

/// Set-up as a user pays it: exec → listening → last register ack →
/// subscriptions → warm-up done.
fn set_up<'s>(
    spec: &'s ServeSpec,
    graph: &Graph,
    opts: &RunOpts,
    marker: &str,
    attempt: usize,
) -> Result<Session<'s>, String> {
    let spill_dir = opts.out_dir.join(format!("spill-{}-{attempt}", spec.name));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let mut driver = Driver::new(spec, graph, opts.seed, "client.op");

    let started = Instant::now();
    let graped = procs::spawn_graped(
        &opts.bin_dir.join("graped"),
        &graped_args(spec, &spill_dir),
        marker,
    )?;
    let mut client = wire(GrapeClient::connect(graped.addr.as_str()))?;
    let spawn_ms = started.elapsed().as_secs_f64() * 1e3;

    let registering = Instant::now();
    for (expect, &query) in driver.queries.iter().enumerate() {
        let id = wire(client.register(query))?;
        if id != expect {
            return Err(format!(
                "query {query} registered as {id}, expected {expect}"
            ));
        }
    }
    let register_ms = registering.elapsed().as_secs_f64() * 1e3;

    let watch = if spec.shape == Shape::WatchRead {
        let mut watcher = wire(GrapeClient::connect(graped.addr.as_str()))?;
        let mut primary = Vec::new();
        for query in 0..driver.queries.len() {
            for w in 0..WATCHERS_PER_QUERY {
                let sub = wire(watcher.subscribe(query))?;
                if w == 0 {
                    primary.push(sub);
                }
            }
        }
        let mut baseline = Vec::new();
        for query in 0..driver.queries.len() {
            baseline.push(wire(client.output(query))?);
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let frames = spec.frames_per_commit();
        let (ids, keep_all) = (primary.clone(), opts.trace);
        let thread = std::thread::spawn(move || watch_loop(watcher, frames, ids, keep_all, tx));
        Some(Watch {
            seen: rx,
            thread,
            subscribed: Subscribed { primary, baseline },
        })
    } else {
        None
    };

    let mut remote = Remote {
        client,
        watch,
        keep: None,
    };
    driver.warm_up(&mut remote)?;
    Ok(Session {
        graped,
        remote,
        driver,
        spill_dir,
        spawn_ms,
        register_ms,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Stops the daemon, joins the watcher, removes the spill directory and
/// counts what survived.  Returns the watcher's log (when there was one)
/// and the orphan count.
fn tear_down(session: Session<'_>, marker: &str) -> (Option<(WatchLog, Subscribed)>, usize) {
    let Session {
        mut graped,
        mut remote,
        spill_dir,
        ..
    } = session;
    let _ = remote.client.shutdown();
    graped.guard.wait_exit(Duration::from_secs(5));
    let watched = remote
        .watch
        .take()
        .map(|w| (w.thread.join().unwrap_or_default(), w.subscribed));
    drop(remote);
    drop(graped);
    let _ = std::fs::remove_dir_all(spill_dir);
    (
        watched,
        procs::count_orphans(marker, Duration::from_secs(2)),
    )
}

fn answer_rows(answer: &QueryAnswer) -> Vec<(Value, Value)> {
    match answer {
        QueryAnswer::Sssp { distances } => wire_rows(distances),
        QueryAnswer::Cc { components } => wire_rows(components),
    }
}

/// Initial answer ⊕ the folded event stream must equal the final answer,
/// for every query; every commit must have pushed a full set of frames.
/// Returns `(checked, wrong)`.
fn check_fold(
    log: &WatchLog,
    watch: &Subscribed,
    finals: &[QueryAnswer],
    commits: usize,
    frames_per_commit: usize,
) -> (usize, usize) {
    let mut wrong = 0;
    for (query, baseline) in watch.baseline.iter().enumerate() {
        let mut rows = answer_rows(baseline);
        for frame in log
            .kept
            .iter()
            .filter(|f| f.subscription == watch.primary[query])
        {
            match &frame.event {
                OutputEvent::Delta(delta) => delta.apply_to(&mut rows),
                OutputEvent::Poisoned => wrong += 1,
            }
        }
        if finals.get(query).map(answer_rows) != Some(rows) {
            eprintln!("query {query}: folded event stream differs from the final answer");
            wrong += 1;
        }
    }
    if log.frames != commits * frames_per_commit || log.short_versions != 0 {
        eprintln!(
            "watcher read {} frames over {commits} commits ({} short versions), expected {} per commit",
            log.frames, log.short_versions, frames_per_commit
        );
        wrong += 1;
    }
    (watch.baseline.len() + 1, wrong)
}

/// Runs one daemon workload end to end (`opts.trace == false`) or its
/// client-side traced half (`opts.trace == true`; `replay` adds the
/// in-process half).
pub fn run(spec: &ServeSpec, opts: &RunOpts, rec: &mut Recorder) -> Result<RunResult, String> {
    let graph = spec.graph();
    let marker = procs::fresh_marker();
    eprintln!(
        "{}: input_digest {:016x} (seed {})",
        spec.name,
        Driver::new(spec, &graph, opts.seed, "client.op").digest(&graph),
        opts.seed
    );

    let mut setups = Vec::new();
    let mut orphans = 0;
    let attempts = if opts.trace { 1 } else { SETUPS };
    let mut session = None;
    for attempt in 0..attempts {
        if let Some(previous) = session.take() {
            orphans += tear_down(previous, &marker).1;
        }
        let ready = set_up(spec, &graph, opts, &marker, attempt)?;
        setups.push(ready.setup_s);
        session = Some(ready);
    }
    let mut session = session.expect("at least one set-up");
    let counted_commits = spec.count_ops * spec.commits_per_op();
    session.remote.keep = opts.trace.then(|| Kept {
        commits: counted_commits,
        applies: Vec::new(),
        answers: Vec::new(),
    });

    let pid = session.graped.guard.pid();
    let min_ops = if opts.trace {
        spec.count_ops
    } else {
        samples_needed(TAIL_PERCENTILE)
    };
    let seconds = if opts.trace {
        opts.seconds * TRACED_SHARE
    } else {
        opts.seconds
    };
    let cpu_before = procs::cpu_seconds(pid);
    let measured = session
        .driver
        .measure(&mut session.remote, rec, seconds, min_ops);
    let cpu_used = procs::cpu_seconds(pid) - cpu_before;
    let peak_rss: f64 = procs::marked_pids(&marker)
        .into_iter()
        .map(procs::peak_rss_mb)
        .sum();

    let mut attempted = measured.op_ms.len();
    let mut failed = 0;
    if let Some(error) = &measured.aborted {
        eprintln!("{}: operation {} failed: {error}", spec.name, attempted + 1);
        attempted += 1;
        failed += 1;
    }

    // Server-side commit latencies, before the final reads disturb nothing
    // but while the daemon is still up.
    let server_commit_ms = if opts.trace {
        let commits = measured.op_ms.len() * spec.commits_per_op();
        wire(session.remote.client.metrics_with_samples())?
            .samples
            .map(|s| s[s.len().saturating_sub(commits)..].to_vec())
            .unwrap_or_default()
    } else {
        Vec::new()
    };

    // Kept messages are the first of the measured section only, so their
    // sizes repeat exactly however long the run lasted.
    let kept = session.remote.keep.take();
    let mut off = Recorder::new(false);
    let (checked, wrong, finals) = session.driver.check_answers(&mut session.remote, &mut off);
    attempted += checked;
    failed += wrong;

    let commits = session.driver.commits;
    let (spawn_ms, register_ms) = (session.spawn_ms, session.register_ms);
    let (watched, left) = tear_down(session, &marker);
    orphans += left;
    let mut event_frames: Vec<EventFrame> = Vec::new();
    if let Some((log, watch)) = watched {
        let (checked, wrong) = check_fold(&log, &watch, &finals, commits, spec.frames_per_commit());
        attempted += checked;
        failed += wrong;
        event_frames = log.kept;
    }
    if orphans != 0 {
        eprintln!("{}: {orphans} processes outlived the run", spec.name);
        failed += orphans;
    }

    let metrics = if opts.trace {
        let mut metrics = Metrics::default();
        metrics.set("daemon.spawn_ms", spawn_ms);
        metrics.set("daemon.register_ms", register_ms);
        metrics.set("daemon.orphans", orphans as f64);
        client_layer_metrics(&mut metrics, rec, &server_commit_ms);
        if let Some(kept) = kept {
            let first = spec.warmup_ops * spec.commits_per_op();
            event_frames.retain(|f| (first + 1..=first + counted_commits).contains(&f.version));
            codec_metrics(&mut metrics, &kept, &event_frames);
        }
        metrics
    } else {
        Metrics::end_to_end(
            spec.name,
            &setups,
            &measured.op_ms,
            measured.wall,
            cpu_used,
            peak_rss,
        )
    };
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}

/// The daemon layer as the client sees it: medians of the spans around
/// each `GrapeClient` call, and what they imply.
fn client_layer_metrics(metrics: &mut Metrics, rec: &Recorder, server_commit_ms: &[f64]) {
    let apply = stats::median(&rec.durations_ms("daemon.apply"));
    let server = stats::median(server_commit_ms);
    metrics.set("daemon.apply_ms", apply);
    metrics.set("daemon.server_commit_ms", server);
    metrics.set("daemon.overhead_ms", apply - server);
    let events = rec.durations_ms("daemon.event");
    if !events.is_empty() {
        metrics.set("daemon.event_ms", stats::median(&events));
        metrics.set("daemon.event_lag_ms", stats::median(&events) - apply);
    }
    let outputs = rec.durations_ms("daemon.output");
    if !outputs.is_empty() {
        metrics.set("daemon.output_ms", stats::median(&outputs));
        let stalled = outputs.iter().filter(|&&ms| ms > STALL_MS).count();
        metrics.set(
            "daemon.output_stall_share",
            stalled as f64 / outputs.len() as f64,
        );
    }
    metrics.set(
        "daemon.evict_ms",
        stats::median(&rec.durations_ms("daemon.evict")),
    );
    metrics.set(
        "daemon.rehydrate_ms",
        stats::median(&rec.durations_ms("daemon.rehydrate")),
    );
}

/// Times `protocol::send` / `protocol::recv` over in-memory buffers for
/// the messages the run kept: the codec's share of the round trip.
fn codec_metrics(metrics: &mut Metrics, kept: &Kept, events: &[EventFrame]) {
    let ms = |started: Instant| started.elapsed().as_secs_f64() * 1e3;
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for (id, (delta, reply)) in kept.applies.iter().enumerate() {
        let request = Request {
            id: id as u64,
            body: RequestBody::Apply {
                delta: delta.clone(),
            },
        };
        let mut buffer = Vec::new();
        let started = Instant::now();
        protocol::send(&mut buffer, &request).expect("encode to memory");
        encode.push(ms(started));
        req_bytes.push(buffer.len() as f64);
        let started = Instant::now();
        let back: Option<Request> = protocol::recv(&mut buffer.as_slice()).expect("decode");
        decode.push(ms(started));
        assert_eq!(back.as_ref(), Some(&request), "request codec round trip");
        let mut buffer = Vec::new();
        let response = ServerFrame::Reply(Response {
            id: id as u64,
            body: reply.clone(),
        });
        protocol::send(&mut buffer, &response).expect("encode to memory");
        resp_bytes.push(buffer.len() as f64);
    }
    metrics.set("daemon.apply_req_bytes", stats::mean(&req_bytes));
    metrics.set("daemon.apply_resp_bytes", stats::mean(&resp_bytes));
    metrics.set("daemon.req_encode_ms", stats::median(&encode));
    metrics.set("daemon.req_decode_ms", stats::median(&decode));

    let (mut bytes, mut encode, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    for (query, answer) in &kept.answers {
        let response = ServerFrame::Reply(Response {
            id: 1,
            body: ResponseBody::Answer {
                query: *query,
                answer: answer.clone(),
            },
        });
        let mut buffer = Vec::new();
        let started = Instant::now();
        protocol::send(&mut buffer, &response).expect("encode to memory");
        encode.push(ms(started));
        bytes.push(buffer.len() as f64);
        let started = Instant::now();
        let _: Option<ServerFrame> = protocol::recv(&mut buffer.as_slice()).expect("decode");
        decode.push(ms(started));
    }
    metrics.set("daemon.answer_bytes", stats::mean(&bytes));
    metrics.set("daemon.answer_encode_ms", stats::median(&encode));
    metrics.set("daemon.answer_decode_ms", stats::median(&decode));

    if !events.is_empty() {
        // Per commit: every frame of one version, encoded back to back as
        // the connection's writer thread does.
        let mut per_version: std::collections::BTreeMap<usize, (f64, f64)> = Default::default();
        for frame in events {
            let mut buffer = Vec::new();
            let started = Instant::now();
            protocol::send(&mut buffer, &ServerFrame::Event(frame.clone()))
                .expect("encode to memory");
            let entry = per_version.entry(frame.version).or_default();
            entry.0 += buffer.len() as f64;
            entry.1 += ms(started);
        }
        let bytes: Vec<f64> = per_version.values().map(|v| v.0).collect();
        let encode: Vec<f64> = per_version.values().map(|v| v.1).collect();
        metrics.set("daemon.event_frame_bytes_per_commit", stats::mean(&bytes));
        metrics.set("daemon.event_encode_ms", stats::median(&encode));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perfect system: applies deltas to its own graph and answers from
    /// the oracle — except that it corrupts the answer of one query, or
    /// claims PEval calls on rehydrate, when told to.
    struct Fake {
        graph: Graph,
        queries: Vec<QuerySpec>,
        version: usize,
        evicted_at: Vec<Option<usize>>,
        corrupt_query: Option<usize>,
        peval_on_rehydrate: usize,
    }

    impl Fake {
        fn new(spec: &ServeSpec) -> Self {
            let graph = spec.graph();
            let queries = spec.queries(graph.num_vertices());
            Fake {
                evicted_at: vec![None; queries.len()],
                graph,
                queries,
                version: 0,
                corrupt_query: None,
                peval_on_rehydrate: 0,
            }
        }
    }

    impl Backend for Fake {
        fn apply(
            &mut self,
            delta: &GraphDelta,
            _rec: &mut Recorder,
            _parent: Option<SpanId>,
        ) -> Result<usize, String> {
            self.graph = self.graph.apply_delta(delta).map_err(|e| e.to_string())?;
            self.version += 1;
            Ok(self.version)
        }

        fn await_events(
            &mut self,
            _version: usize,
            _sent: Instant,
            _rec: &mut Recorder,
            _parent: Option<SpanId>,
        ) -> Result<(), String> {
            Ok(())
        }

        fn output(
            &mut self,
            query: usize,
            _rec: &mut Recorder,
            _parent: Option<SpanId>,
        ) -> Result<QueryAnswer, String> {
            let mut answer = oracle::expected(self.queries[query], &self.graph);
            if self.corrupt_query == Some(query) {
                match &mut answer {
                    QueryAnswer::Sssp { distances } => distances[1].1 += 0.5,
                    QueryAnswer::Cc { components } => components[1].1 += 1,
                }
            }
            Ok(answer)
        }

        fn evict(
            &mut self,
            query: usize,
            _rec: &mut Recorder,
            _parent: Option<SpanId>,
        ) -> Result<(), String> {
            self.evicted_at[query] = Some(self.version);
            Ok(())
        }

        fn rehydrate(
            &mut self,
            query: usize,
            _rec: &mut Recorder,
            _parent: Option<SpanId>,
        ) -> Result<(usize, usize), String> {
            let at = self.evicted_at[query].take().ok_or("not evicted")?;
            Ok((self.version - at, self.peval_on_rehydrate))
        }
    }

    const TINY: ServeSpec = ServeSpec {
        name: "tiny",
        grid: (6, 6),
        sssp_queries: 3,
        process: false,
        stream: StreamKind::Churn,
        shape: Shape::Commit,
        warmup_ops: 3,
        count_ops: 4,
    };

    #[test]
    fn a_wrong_answer_is_a_failed_operation() {
        let graph = TINY.graph();
        let mut driver = Driver::new(&TINY, &graph, 42, "test.op");
        let mut fake = Fake::new(&TINY);
        let mut rec = Recorder::new(false);
        driver.warm_up(&mut fake).unwrap();
        let measured = driver.measure(&mut fake, &mut rec, 0.0, 10);
        assert_eq!(measured.op_ms.len(), 10);
        assert!(measured.aborted.is_none());
        assert_eq!(fake.version, 13, "three warm-up commits, ten measured");

        let (checked, wrong, _) = driver.check_answers(&mut fake, &mut rec);
        assert_eq!((checked, wrong), (4, 0), "three SSSP queries and one CC");
        fake.corrupt_query = Some(2);
        let (_, wrong, _) = driver.check_answers(&mut fake, &mut rec);
        assert_eq!(wrong, 1, "the corrupted answer must be counted");
    }

    #[test]
    fn a_cold_cycle_must_replay_its_commits_without_peval() {
        let spec = ServeSpec {
            shape: Shape::ColdCycle,
            stream: StreamKind::Insert,
            ..TINY
        };
        let graph = spec.graph();
        let mut driver = Driver::new(&spec, &graph, 7, "test.op");
        let mut fake = Fake::new(&spec);
        let mut rec = Recorder::new(true);
        driver.one_op(&mut fake, &mut rec).unwrap();
        driver.one_op(&mut fake, &mut rec).unwrap();
        assert_eq!(fake.version, 2 * COMMITS_PER_CYCLE);
        assert_eq!(rec.durations_ms("test.op").len(), 2);

        fake.peval_on_rehydrate = 1;
        let error = driver.one_op(&mut fake, &mut rec).unwrap_err();
        assert!(error.contains("PEval"), "got: {error}");
        let measured = driver.measure(&mut fake, &mut rec, 0.0, 5);
        assert!(
            measured.aborted.is_some(),
            "a failed operation stops the loop"
        );
        assert!(measured.op_ms.is_empty());
    }

    #[test]
    fn the_watcher_must_see_every_frame_and_the_fold_must_land_on_the_answer() {
        let baseline = QueryAnswer::Cc {
            components: vec![(0, 0), (1, 1)],
        };
        let merged = QueryAnswer::Cc {
            components: vec![(0, 0), (1, 0)],
        };
        let frame = |subscription, version| EventFrame {
            subscription,
            query: 0,
            version,
            event: OutputEvent::Delta(grape_core::WireOutputDelta {
                changed: wire_rows(&[(1u64, 0u64)]),
                removed: Vec::new(),
            }),
        };
        let watch = Subscribed {
            primary: vec![5],
            baseline: vec![baseline.clone()],
        };
        let log = WatchLog {
            frames: 2,
            short_versions: 0,
            kept: vec![frame(5, 1)],
        };
        assert_eq!(
            check_fold(&log, &watch, std::slice::from_ref(&merged), 1, 2),
            (2, 0)
        );
        // The stream does not explain the final answer.
        assert_eq!(check_fold(&log, &watch, &[baseline], 1, 2).1, 1);
        // A frame went missing.
        let short = WatchLog { frames: 1, ..log };
        assert_eq!(check_fold(&short, &watch, &[merged], 1, 2).1, 1);
    }
}
