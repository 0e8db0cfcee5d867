//! The in-process half of a daemon workload's traced run: the same seeded
//! operations as `serve::run`, made directly against the layers' public
//! functions with a span around each call.
//!
//! What cannot be seen from outside a call is measured on a twin: the
//! harness keeps its own `Fragmentation` and applies each `ΔG` to it
//! (`partition.apply_delta`), derives the damage frontier a removal causes
//! (`partition.damage_frontier`), drives a private `QuerySpillStore` with
//! the state each eviction spilled (`partition.spill`/`load`/`compact`),
//! and runs a second `GrapeServer` that differs only in having one
//! subscription per query (`core.diff_output_ms` is the difference).
//! Exact counts are taken over the first `count_ops` operations, so they
//! repeat bit for bit however long the run lasts.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use grape_algorithms::cc::{Cc, CcQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_core::config::EngineMode;
use grape_core::pie::{IncrementalPie, PieProgram};
use grape_core::serve::{GrapeServer, QueryHandle, ServeReport};
use grape_core::session::GrapeSession;
use grape_core::spec::QuerySpec;
use grape_core::transport::TransportSpec;
use grape_core::OutputEvent;
use grape_daemon::protocol::QueryAnswer;
use grape_graph::delta::GraphDelta;
use grape_partition::delta::damage_frontier;
use grape_partition::fragment::Fragmentation;
use grape_partition::metis_like::MetisLike;
use grape_partition::snapshot::QuerySpillStore;
use grape_partition::strategy::PartitionStrategy;

use crate::serve::{
    Backend, Driver, ServeSpec, Shape, FRAGMENTS, REFRESH_THREADS, TRACED_SHARE,
    WATCHERS_PER_QUERY, WORKERS,
};
use crate::stats;
use crate::trace::{Recorder, SpanId};
use crate::{Metrics, RunOpts, RunResult};

/// `GrapeServer`'s default compaction threshold, which `graped` runs with:
/// a spill chain longer than this is folded into a fresh base.  The replay
/// applies the same rule to its own store.
const COMPACTION_THRESHOLD: usize = 4;

/// A typed handle, erased the way the daemon erases it.
enum AnyHandle {
    Sssp(QueryHandle<Sssp>),
    Cc(QueryHandle<Cc>),
}

/// One in-process `GrapeServer` with the workload's queries registered.
struct Served {
    server: GrapeServer,
    handles: Vec<AnyHandle>,
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

impl Served {
    fn new(session: &GrapeSession, fragmentation: &Fragmentation, spill_dir: PathBuf) -> Self {
        Served {
            server: GrapeServer::with_spill_dir(session.clone(), fragmentation.clone(), spill_dir),
            handles: Vec::new(),
        }
    }

    fn register(&mut self, spec: QuerySpec) -> Result<(), String> {
        let handle = match spec {
            QuerySpec::Sssp { source } => self
                .server
                .register(Sssp, SsspQuery::new(source))
                .map(AnyHandle::Sssp),
            QuerySpec::Cc => self.server.register(Cc, CcQuery).map(AnyHandle::Cc),
        };
        self.handles.push(handle.map_err(|e| e.to_string())?);
        Ok(())
    }

    fn subscribe(&mut self, query: usize) -> Result<(), String> {
        with_handle!(&self.handles[query], h => self.server.subscribe(h))
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Pipe bytes the registrations shipped (0 for in-process transports).
    fn register_pipe_bytes(&self) -> usize {
        self.handles
            .iter()
            .map(|any| {
                with_handle!(any, h => self
                    .server
                    .prepared(h)
                    .ok()
                    .flatten()
                    .map_or(0, |p| p.prepare_metrics().pipe_bytes))
            })
            .sum()
    }
}

/// Sums taken over the counted prefix of the run.
#[derive(Default)]
struct Counts {
    commits: usize,
    rebuilt: usize,
    damaged: usize,
    peval_calls: usize,
    inceval_calls: usize,
    supersteps: usize,
    messages: usize,
    msg_bytes: usize,
    pipe_bytes: usize,
    refreshes: usize,
    useful_refreshes: usize,
    event_rows: usize,
}

/// The in-process backend.
pub struct Local {
    queries: Vec<QuerySpec>,
    /// The server configured as the workload configures `graped`.
    main: Served,
    /// The same server with the opposite subscription state, run beside
    /// `main` over the counted prefix (not on `cold-cycle`, whose evictions
    /// it would have to shadow too).
    other: Option<Served>,
    /// Whether `main` is the one holding subscriptions.
    main_is_watched: bool,
    /// The harness's own fragmentation timeline.
    twin: Fragmentation,
    /// The harness's own spill stores, one per evicted query.
    twin_stores: HashMap<usize, QuerySpillStore>,
    twin_spill_dir: PathBuf,
    /// Commits still to be counted: 0 during warm-up, the counted prefix
    /// once [`Local::start_counting`] ran, 0 again when it is used up.
    to_count: usize,
    counts: Counts,
    /// Per-commit `watched − plain` apply time over the counted prefix.
    diff_output_ms: Vec<f64>,
    /// Per-refresh engine time by query kind.
    update_ms: [Vec<f64>; 2],
    replayed: Vec<f64>,
    base_bytes: Vec<f64>,
    inc_bytes: Vec<f64>,
    chain_len: Vec<f64>,
}

impl Local {
    /// Ends warm-up: forgets the refresh times it sampled and counts the
    /// next `commits`.
    fn start_counting(&mut self, commits: usize) {
        self.to_count = commits;
        self.update_ms = [Vec::new(), Vec::new()];
    }

    fn tally(&mut self, report: &ServeReport, counting: bool) -> Result<(), String> {
        for refresh in &report.refreshed {
            let update = refresh
                .result
                .as_ref()
                .map_err(|e| format!("query {} failed to refresh: {e}", refresh.query))?;
            let kind = match self.queries[refresh.query] {
                QuerySpec::Sssp { .. } => 0,
                QuerySpec::Cc => 1,
            };
            let m = &update.metrics;
            self.update_ms[kind].push(m.total_time.as_secs_f64() * 1e3);
            if counting {
                self.counts.peval_calls += m.peval_calls;
                self.counts.inceval_calls += m.inceval_calls;
                self.counts.supersteps += m.supersteps;
                self.counts.messages += m.total_messages;
                self.counts.msg_bytes += m.total_bytes;
                self.counts.pipe_bytes += m.pipe_bytes;
                self.counts.refreshes += 1;
            }
        }
        if counting {
            self.counts.rebuilt += report.rebuilt.len();
        }
        Ok(())
    }
}

impl Backend for Local {
    fn apply(
        &mut self,
        delta: &GraphDelta,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<usize, String> {
        let version = self.main.server.version() + 1;
        let counting = self.to_count > 0;

        let span = rec.enter("partition.apply_delta", parent, version);
        let applied = self.twin.apply_delta(delta);
        rec.exit(span);
        let applied = applied.map_err(|e| e.to_string())?;
        if delta.has_removals() {
            // The frontier every SSSP refresh derives for this delta (CC
            // shares the policy); sources do not enter it.
            let query = SsspQuery::new(0);
            let rebuilt: Vec<usize> = applied.affected.iter().map(|fd| fd.fragment).collect();
            let span = rec.enter("partition.damage_frontier", parent, version);
            let frontier = damage_frontier(
                &self.twin,
                &applied.fragmentation,
                &rebuilt,
                Sssp.damage_policy(&query),
                Sssp.scope(),
            );
            rec.exit(span);
            if counting {
                self.counts.damaged += frontier.damaged_ids().len();
            }
        }
        self.twin = applied.fragmentation;

        let span = rec.enter("core.serve_apply", parent, version);
        let report = self.main.server.apply(delta);
        let main_took = rec.exit(span);
        let report = report.map_err(|e| e.to_string())?;
        self.tally(&report, counting)?;
        let mut events = report.events;

        // The twin server keeps pace through warm-up and the counted
        // prefix, then is dropped: after that only `main` is measured.
        if let Some(other) = self.other.as_mut() {
            let span = rec.enter("core.twin_apply", parent, version);
            let shadow = other.server.apply(delta);
            let other_took = rec.exit(span);
            let shadow = shadow.map_err(|e| e.to_string())?;
            let (watched, plain) = if self.main_is_watched {
                (main_took, other_took)
            } else {
                events = shadow.events;
                (other_took, main_took)
            };
            if counting {
                self.diff_output_ms
                    .push((watched.as_secs_f64() - plain.as_secs_f64()) * 1e3);
            }
        }
        if counting {
            for event in &events {
                if let OutputEvent::Delta(delta) = &event.event {
                    self.counts.event_rows += delta.len();
                    self.counts.useful_refreshes += usize::from(!delta.is_empty());
                }
            }
            self.counts.commits += 1;
            self.to_count -= 1;
            if self.to_count == 0 {
                self.other = None;
            }
        }
        Ok(report.version)
    }

    fn await_events(
        &mut self,
        _version: usize,
        _sent: Instant,
        _rec: &mut Recorder,
        _parent: Option<SpanId>,
    ) -> Result<(), String> {
        // In-process the commit's events are in its `ServeReport`.
        Ok(())
    }

    fn output(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<QueryAnswer, String> {
        let served = &mut self.main;
        match &served.handles[query] {
            AnyHandle::Sssp(h) => {
                let span = rec.enter("core.output", parent, 0);
                let result = served.server.output(h);
                rec.exit(span);
                result.map(|r| QueryAnswer::from_sssp(&r))
            }
            AnyHandle::Cc(h) => {
                let span = rec.enter("core.output", parent, 0);
                let result = served.server.output(h);
                rec.exit(span);
                result.map(|r| QueryAnswer::from_cc(&r))
            }
        }
        .map_err(|e| e.to_string())
    }

    fn evict(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(), String> {
        let served = &mut self.main;
        let span = rec.enter("core.evict", parent, 0);
        let result = with_handle!(&served.handles[query], h => served.server.evict(h));
        rec.exit(span);
        result.map_err(|e| e.to_string())?;

        // The partition layer's share, on the harness's own store: fold
        // what the server just wrote, then spill that state again.  Done
        // through warm-up too, so the store's chain tracks the server's.
        let span = rec.enter("partition.recover", parent, 0);
        let on_disk = QuerySpillStore::recover(served.server.spill_dir(), query);
        rec.exit(span);
        let on_disk = on_disk
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("query {query} was evicted but left no spill store"))?;
        let span = rec.enter("partition.load", parent, 0);
        let loaded = on_disk.load();
        rec.exit(span);
        let loaded = loaded.map_err(|e| e.to_string())?;

        if !self.twin_stores.contains_key(&query) {
            let store =
                QuerySpillStore::create(&self.twin_spill_dir, query).map_err(|e| e.to_string())?;
            self.twin_stores.insert(query, store);
        }
        let store = self.twin_stores.get_mut(&query).expect("inserted above");
        let writes_base = !store.has_base();
        let span = rec.enter("partition.spill", parent, 0);
        let spilled = store.spill(served.server.fragmentation(), &loaded.partials);
        rec.exit(span);
        spilled.map_err(|e| e.to_string())?;
        let counting = self.to_count > 0;
        let written = store.stats().last_spill_bytes as f64;
        if counting {
            if writes_base {
                self.base_bytes.push(written);
            } else {
                self.inc_bytes.push(written);
            }
            self.chain_len.push(store.chain_len() as f64);
        }
        if store.chain_len() > COMPACTION_THRESHOLD {
            let span = rec.enter("partition.compact", parent, 0);
            let folded = store.compact();
            rec.exit(span);
            folded.map_err(|e| e.to_string())?;
            if counting {
                self.base_bytes.push(store.stats().base_bytes as f64);
            }
        }
        Ok(())
    }

    fn rehydrate(
        &mut self,
        query: usize,
        rec: &mut Recorder,
        parent: Option<SpanId>,
    ) -> Result<(usize, usize), String> {
        let served = &mut self.main;
        let span = rec.enter("core.rehydrate", parent, 0);
        let result = with_handle!(&served.handles[query], h => served.server.rehydrate(h));
        rec.exit(span);
        let report = result.map_err(|e| e.to_string())?;
        if self.to_count > 0 {
            self.replayed.push(report.replayed.len() as f64);
        }
        Ok((report.replayed.len(), report.peval_calls()))
    }
}

fn ratio(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Share of each `op` span's time that its child spans cover, as a median
/// over the run: the check that the trace accounts for the operation.
fn commit_coverage(rec: &Recorder) -> f64 {
    let whole = rec.durations_ms("replay.op");
    let own = rec.self_times_ms("replay.op");
    let shares: Vec<f64> = whole
        .iter()
        .zip(&own)
        .filter(|(w, _)| **w > 0.0)
        .map(|(w, o)| 1.0 - o / w)
        .collect();
    stats::median(&shares)
}

/// Runs the in-process traced half of `spec` and returns its per-layer
/// metrics.
pub fn run(spec: &ServeSpec, opts: &RunOpts, rec: &mut Recorder) -> Result<RunResult, String> {
    let graph = spec.graph();
    let dir = |name: &str| -> PathBuf {
        let path = opts.out_dir.join(format!("{name}-{}", spec.name));
        let _ = std::fs::remove_dir_all(&path);
        path
    };
    let span = rec.enter("partition.partition", None, 0);
    let fragmentation = MetisLike::new(FRAGMENTS).partition(&graph);
    let partition_ms = rec.exit(span).as_secs_f64() * 1e3;
    let fragmentation = fragmentation.map_err(|e| e.to_string())?;

    let mut builder = GrapeSession::builder()
        .workers(WORKERS)
        .mode(EngineMode::Sync)
        .refresh_threads(REFRESH_THREADS);
    if spec.process {
        builder = builder.transport(TransportSpec::Process { workers: WORKERS });
    }
    let session = builder.build().map_err(|e| e.to_string())?;

    let mut driver = Driver::new(spec, &graph, opts.seed, "replay.op");
    let queries = driver.queries.clone();
    let mut main = Served::new(&session, &fragmentation, dir("replay-spill"));
    for &query in &queries {
        let span = rec.enter("core.register", None, 0);
        let registered = main.register(query);
        rec.exit(span);
        registered?;
    }
    let main_is_watched = spec.shape == Shape::WatchRead;
    let other = if spec.shape == Shape::ColdCycle {
        None
    } else {
        let mut other = Served::new(&session, &fragmentation, dir("replay-spill-twin"));
        for &query in &queries {
            other.register(query)?;
        }
        Some(other)
    };
    let mut local = Local {
        queries: queries.clone(),
        main,
        other,
        main_is_watched,
        twin: fragmentation,
        twin_stores: HashMap::new(),
        twin_spill_dir: dir("replay-store-twin"),
        to_count: 0,
        counts: Counts::default(),
        diff_output_ms: Vec::new(),
        update_ms: [Vec::new(), Vec::new()],
        replayed: Vec::new(),
        base_bytes: Vec::new(),
        inc_bytes: Vec::new(),
        chain_len: Vec::new(),
    };
    let register_pipe_bytes = local.main.register_pipe_bytes();
    // `serve-watch-read` holds its W subscriptions per query on `main`;
    // elsewhere the twin holds one per query, which is all the core layer
    // distinguishes (it emits one event per watched query, whatever W).
    for query in 0..queries.len() {
        if main_is_watched {
            for _ in 0..WATCHERS_PER_QUERY {
                local.main.subscribe(query)?;
            }
        } else if let Some(other) = local.other.as_mut() {
            other.subscribe(query)?;
        }
    }

    driver.warm_up(&mut local)?;
    local.start_counting(spec.count_ops * spec.commits_per_op());

    let measured = driver.measure(&mut local, rec, opts.seconds * TRACED_SHARE, spec.count_ops);
    let mut attempted = measured.op_ms.len();
    let mut failed = 0;
    if let Some(error) = &measured.aborted {
        eprintln!("{} (in-process): operation failed: {error}", spec.name);
        attempted += 1;
        failed += 1;
    }
    let (checked, wrong, _) = driver.check_answers(&mut local, rec);
    attempted += checked;
    failed += wrong;

    let c = &local.counts;
    let counted = c.commits.max(1);
    let per_commit = |n: usize| n as f64 / counted as f64;
    let mut metrics = Metrics::default();
    metrics.set("partition.partition_ms", partition_ms);
    let spans_ms = |name: &str| stats::median(&rec.durations_ms(name));
    let apply_delta = spans_ms("partition.apply_delta");
    let serve_apply = spans_ms("core.serve_apply");
    metrics.set("partition.apply_delta_ms", apply_delta);
    metrics.set("partition.rebuilt_fragments", per_commit(c.rebuilt));
    metrics.set(
        "partition.damage_frontier_ms",
        spans_ms("partition.damage_frontier"),
    );
    metrics.set("partition.damaged_fragments", per_commit(c.damaged));
    metrics.set("partition.spill_ms", spans_ms("partition.spill"));
    metrics.set("partition.load_ms", spans_ms("partition.load"));
    metrics.set("partition.compact_ms", spans_ms("partition.compact"));
    metrics.set("partition.spill_bytes_base", stats::mean(&local.base_bytes));
    metrics.set("partition.spill_bytes_inc", stats::mean(&local.inc_bytes));
    metrics.set("partition.chain_len_mean", stats::mean(&local.chain_len));
    metrics.set("core.register_ms", spans_ms("core.register"));
    metrics.set("core.serve_apply_ms", serve_apply);
    metrics.set("core.refresh_self_ms", serve_apply - apply_delta);
    metrics.set("core.update_ms.sssp", stats::median(&local.update_ms[0]));
    metrics.set("core.update_ms.cc", stats::median(&local.update_ms[1]));
    metrics.set("core.peval_calls", per_commit(c.peval_calls));
    metrics.set("core.inceval_calls", per_commit(c.inceval_calls));
    metrics.set("core.supersteps", per_commit(c.supersteps));
    metrics.set("core.messages", per_commit(c.messages));
    metrics.set("core.msg_bytes", per_commit(c.msg_bytes));
    metrics.set("core.pipe_bytes_per_commit", per_commit(c.pipe_bytes));
    metrics.set("core.pipe_bytes_register", register_pipe_bytes as f64);
    metrics.set(
        "core.useful_refresh_ratio",
        ratio(c.useful_refreshes, c.refreshes),
    );
    metrics.set("core.event_rows", per_commit(c.event_rows));
    metrics.set("core.diff_output_ms", stats::median(&local.diff_output_ms));
    metrics.set("core.output_ms", spans_ms("core.output"));
    metrics.set("core.evict_ms", spans_ms("core.evict"));
    metrics.set("core.rehydrate_ms", spans_ms("core.rehydrate"));
    metrics.set("core.replayed_deltas", stats::mean(&local.replayed));
    metrics.set("trace.commit_coverage", commit_coverage(rec));
    for left_over in ["replay-spill", "replay-spill-twin", "replay-store-twin"] {
        dir(left_over);
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}
