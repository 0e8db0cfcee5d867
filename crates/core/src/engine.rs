//! The GRAPE engine runtime: the simultaneous fixpoint computation of
//! Section 3.1, written against the pluggable [`crate::transport`] layer.
//!
//! Given a fragmentation `F = (F_1, …, F_m)`, a PIE program and a query `Q`,
//! the engine
//!
//! 1. runs `PEval` on every fragment in parallel,
//! 2. routes the changed update parameters via the fragmentation graph `G_P`
//!    and hands them to the transport, which resolves conflicts with
//!    `aggregateMsg` and ships only *changed* values (the coordinator's
//!    message grouping of Section 3.2(3)),
//! 3. iterates `IncEval` on fragments with pending messages until no more
//!    updates can be made (the fixpoint), and
//! 4. calls `Assemble` on the partial results.
//!
//! Two runtimes share that skeleton:
//!
//! * **Superstep loop** ([`EngineMode::Sync`]) — BSP: all active fragments
//!   evaluate, then the transport flushes at a global barrier.  This is the
//!   model analysed in the paper, including superstep-aligned checkpointing
//!   and failure recovery.
//! * **Streaming loop** ([`EngineMode::Async`]) — no global barrier:
//!   fragments are independent tasks on their owning worker, draining their
//!   mailboxes to quiescence.  The superstep metric then reports the depth
//!   of an equivalent BSP schedule of the same deliveries — because fresher
//!   values arrive without waiting for a barrier, this is no larger (and on
//!   high-diameter workloads smaller) than the synchronous superstep count.
//!
//! Every run enters through one function, `run_parts`, and starts from a
//! `RunStart`: the retained partials, the seed messages, and the fragments
//! PEval roots in the first step (the per-fragment **PEval mask**,
//! `RunCtx::peval`).
//!
//! * A full run (`RunStart::full`) retains nothing, seeds nothing and masks
//!   every fragment — the classic PEval-everywhere superstep 0.
//! * An incremental refresh retains the partial results of an earlier run
//!   and pre-loads `ΔG`-derived seed messages.  The mask is **empty** for a
//!   monotone or retracted delta (the paper's "queries under updates"
//!   protocol of Section 3.4 — `Q(G ⊕ ΔG)` from `Q(G)` without a single
//!   PEval call) and equals the **damage frontier** for a bounded
//!   non-monotone refresh (PEval re-roots only the stale fragments).
//!
//! A full run is thus the refresh whose frontier is every fragment.
//! `run_parts` picks the worker host from the session's [`TransportSpec`]
//! (threads in this process, or `grape-worker` subprocesses), and
//! `schedule` picks the transport and the loop from the mode alone.
//!
//! Physical workers are OS threads; fragments are virtual workers mapped
//! onto physical workers by [`crate::load_balance::assign`].
//! Entry points: [`crate::session::GrapeSession::run`] (one-shot) and
//! [`crate::session::GrapeSession::prepare`] →
//! [`crate::prepared::PreparedQuery`] (prepare → answer → update).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::fragmentation_graph::{BorderScope, FragmentationGraph};

use crate::config::{EngineConfig, EngineMode};
use crate::host::{InProcessHost, ProcessHost, WorkerHost};
use crate::load_balance;
use crate::metrics::{EngineMetrics, SuperstepMetrics};
use crate::pie::{KeyVertex, PieProgram, SeedBatch};
use crate::session::GrapeSession;
use crate::transport::{
    BarrierTransport, ChannelTransport, MessageOps, Transport, TransportSnapshot, TransportSpec,
};

/// Errors produced by an engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The fragmentation contains no fragments.
    NoFragments,
    /// The fixpoint was not reached within `max_supersteps` — the program
    /// most likely violates the monotonic condition of the Assurance Theorem.
    DidNotConverge {
        /// The configured superstep limit that was hit.
        max_supersteps: usize,
    },
    /// The session/engine configuration is contradictory (e.g. the
    /// barrier-free mode with superstep-aligned checkpoints).
    InvalidConfig(String),
    /// A graph delta could not be applied to the prepared fragmentation
    /// (missing edge/vertex, vertex-cut partition, …).
    Delta(String),
    /// The prepared handle was poisoned by an earlier failed refresh: its
    /// retained partials were consumed or half-rebased when the engine
    /// errored, so its state no longer corresponds to any graph version.
    /// Re-`prepare` (or re-register with the server) before trusting it.
    PoisonedHandle,
    /// A worker subprocess failed mid-run (died, closed its pipe, or
    /// answered with a protocol error).  The run is aborted — no partial
    /// answer is served — and the host reaps every remaining subprocess.
    Worker(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoFragments => write!(f, "fragmentation has no fragments"),
            EngineError::DidNotConverge { max_supersteps } => write!(
                f,
                "no fixpoint after {max_supersteps} supersteps; \
                 the PIE program is probably not monotonic"
            ),
            EngineError::InvalidConfig(reason) => write!(f, "invalid configuration: {reason}"),
            EngineError::Delta(reason) => write!(f, "cannot apply graph delta: {reason}"),
            EngineError::PoisonedHandle => write!(
                f,
                "prepared query handle is poisoned by an earlier failed \
                 update; re-prepare before reading its output"
            ),
            EngineError::Worker(reason) => {
                write!(f, "worker subprocess failed: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of an engine run: the assembled output plus run metrics.
#[derive(Debug, Clone)]
pub struct RunResult<O> {
    /// The assembled answer `Q(G)`.
    pub output: O,
    /// Metrics of the run.
    pub metrics: EngineMetrics,
}

/// Borrowed per-run state shared by both runtimes.
///
/// Deliberately free of fragments, query and program: those live behind the
/// [`WorkerHost`] so the runtimes stay location-transparent — the same loop
/// drives in-process and subprocess workers.
struct RunCtx<'r> {
    config: &'r EngineConfig,
    num_fragments: usize,
    assignment: &'r [Vec<usize>],
    gp: &'r FragmentationGraph,
    scope: BorderScope,
    /// Which fragments run PEval in the rooting step: all of them for a
    /// full run, the *damage frontier* for a bounded refresh, none for an
    /// IncEval-only refresh.
    peval: &'r [bool],
}

/// The first host failure of a run (e.g. a dead worker subprocess).
/// Recording it raises the abort flag every worker thread checks before its
/// next evaluation, so the run returns the error instead of serving a
/// partial answer or spinning on counters a dead peer can no longer move.
struct FirstError {
    error: Mutex<Option<EngineError>>,
    abort: AtomicBool,
}

impl FirstError {
    fn new() -> Self {
        FirstError {
            error: Mutex::new(None),
            abort: AtomicBool::new(false),
        }
    }

    /// Keeps `e` unless an earlier failure was recorded, and raises the flag.
    fn record(&self, e: EngineError) {
        self.error.lock().get_or_insert(e);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    fn into_result(self) -> Result<(), EngineError> {
        self.error.into_inner().map_or(Ok(()), Err)
    }
}

/// Routes one evaluation's updates through `G_P` and ships them, batched per
/// destination, tagged with the sender's logical step.  `Some(mask)` drops
/// every destination whose mask entry is `false` (a bounded refresh delivers
/// its seeds to the re-rooted fragments only).
fn route_and_send<K: KeyVertex + Clone, V: Clone, T: Transport<K, V>>(
    ctx: &RunCtx<'_>,
    transport: &T,
    from: usize,
    step: usize,
    updates: Vec<(K, V)>,
    restrict_to: Option<&[bool]>,
) {
    if updates.is_empty() {
        return;
    }
    let mut per_dest: HashMap<usize, Vec<(K, V)>> = HashMap::new();
    for (key, value) in updates {
        for dest in ctx.gp.route(key.vertex(), from, ctx.scope) {
            if restrict_to.is_some_and(|mask| !mask[dest]) {
                continue;
            }
            per_dest
                .entry(dest)
                .or_default()
                .push((key.clone(), value.clone()));
        }
    }
    for (dest, batch) in per_dest {
        transport.send_batch(from, dest, step, batch);
    }
}

/// Validates a (mode, fault-tolerance) policy combination: checkpoints and
/// injected failures are superstep-aligned, so the barrier-free mode has
/// neither.
///
/// Called by [`crate::session::GrapeSessionBuilder::build`], the only way to
/// make a session; the engine runs only sessions, so every run has passed it.
pub(crate) fn validate_policies(config: &EngineConfig) -> Result<(), EngineError> {
    if config.mode == EngineMode::Async
        && (config.checkpoint_every.is_some() || !config.injected_failures.is_empty())
    {
        return Err(EngineError::InvalidConfig(
            "checkpointing and failure injection are superstep-aligned; \
             use EngineMode::Sync"
                .to_string(),
        ));
    }
    Ok(())
}

/// Runs a PIE program to its fixpoint and assembles the answer.  This is the
/// one-shot entry point behind [`crate::session::GrapeSession::run`] — a
/// full run whose partial results are assembled and then dropped.
pub(crate) fn execute<P: PieProgram>(
    session: &GrapeSession,
    fragmentation: &Fragmentation,
    program: &P,
    query: &P::Query,
) -> Result<RunResult<P::Output>, EngineError> {
    let total_start = Instant::now();
    let start = RunStart::full(fragmentation.num_fragments());
    let (partials, mut metrics) = run_parts(session, fragmentation, program, query, start)?;
    let output = program.assemble(query, partials);
    metrics.total_time = total_start.elapsed();
    Ok(RunResult { output, metrics })
}

/// What a run starts from.  A full run retains nothing, seeds nothing and
/// PEval-roots every fragment; an incremental refresh carries the previous
/// fixpoint's partials plus the `ΔG`-derived seed messages — a list of
/// `(sender fragment, changed update parameters)` that the engine routes
/// exactly like a normal evaluation's sends.
pub(crate) struct RunStart<P: PieProgram> {
    /// Retained partial results, one per fragment; `None` on a full run.
    /// The entries of fragments in `repeval` are placeholders: PEval
    /// overwrites them in the rooting step before anything reads them.
    pub partials: Option<Vec<P::Partial>>,
    /// Seed messages: the rebase step's changed update parameters (monotone
    /// refresh), the border values a retraction changed (retracted refresh)
    /// or the undamaged neighbours' reseeded border segments (bounded
    /// refresh).
    pub seeds: Vec<SeedBatch<P>>,
    /// The fragments PEval roots in the first step: every fragment on a
    /// full run, the damage frontier of a bounded refresh, none on the
    /// IncEval-only (monotone, retracted) refreshes.  When non-empty, seed
    /// messages are delivered to these fragments only.
    pub repeval: Vec<usize>,
}

impl<P: PieProgram> RunStart<P> {
    /// A full run over `m` fragments: nothing retained, PEval everywhere.
    pub fn full(m: usize) -> Self {
        RunStart {
            partials: None,
            seeds: Vec::new(),
            repeval: (0..m).collect(),
        }
    }
}

/// The one engine entry: roots the run from `start`, iterates IncEval to
/// the fixpoint and returns the per-fragment partial results `Q(F_i)`
/// without assembling them.  [`crate::prepared::PreparedQuery`] retains
/// these so later refreshes can skip PEval.  `EngineMetrics::peval_calls`
/// equals `|start.repeval|` by construction — **0** on the IncEval-only
/// refreshes, pinned by the equivalence suites.
pub(crate) fn run_parts<P: PieProgram>(
    session: &GrapeSession,
    fragmentation: &Fragmentation,
    program: &P,
    query: &P::Query,
    start: RunStart<P>,
) -> Result<(Vec<P::Partial>, EngineMetrics), EngineError> {
    let RunStart {
        partials: retained,
        seeds,
        repeval,
    } = start;
    let config = session.config();
    let m = fragmentation.num_fragments();
    if m == 0 {
        return Err(EngineError::NoFragments);
    }
    if let Some(retained) = &retained {
        if !config.injected_failures.is_empty() {
            return Err(EngineError::InvalidConfig(
                "failure injection is superstep-aligned to a PEval-rooted run; \
                 it is not supported on the incremental refresh path"
                    .to_string(),
            ));
        }
        if retained.len() != m {
            return Err(EngineError::InvalidConfig(format!(
                "retained {} partials for {} fragments",
                retained.len(),
                m
            )));
        }
    }
    let mut peval = vec![false; m];
    for &i in &repeval {
        if i >= m {
            return Err(EngineError::InvalidConfig(format!(
                "damage frontier names fragment {i} of {m}"
            )));
        }
        peval[i] = true;
    }
    debug_assert!(
        retained.is_some() || !peval.contains(&false),
        "a run without retained partials must PEval every fragment"
    );
    let hops = program.expansion_hops(query);
    if hops > 0 && repeval.is_empty() && !seeds.is_empty() {
        return Err(EngineError::InvalidConfig(
            "d-hop expansion programs cannot refresh from seed messages alone; \
             use the bounded refresh (damage frontier) or re-prepare"
                .to_string(),
        ));
    }

    let total_start = Instant::now();
    let mut metrics = EngineMetrics {
        program: program.name().to_string(),
        workers: config.num_workers,
        fragments: m,
        transport: session.transport().name(config.mode).to_string(),
        incremental: retained.is_some(),
        ..Default::default()
    };

    // Optional d-hop fragment expansion (SubIso), for the fragments PEval
    // roots only: a bounded refresh ships `|damaged|` neighbourhoods instead
    // of all `m`.  The shipped vertices/edges are counted as communication,
    // mirroring the paper's "message M_i … including all nodes and edges in
    // C_i.x̄ from other fragments".
    let fragments: Vec<Arc<Fragment>> = if hops > 0 {
        (0..m)
            .map(|i| {
                if !peval[i] {
                    return fragmentation.fragments()[i].clone();
                }
                let (f, shipped_vertices, shipped_edges) = fragmentation.expand_fragment(i, hops);
                metrics.add_expansion(shipped_vertices * 24 + shipped_edges * 24);
                Arc::new(f)
            })
            .collect()
    } else {
        fragmentation.fragments().to_vec()
    };

    // Map virtual workers (fragments) onto physical workers.
    let assignment = load_balance::assign(fragmentation, config.num_workers);
    let aggregate = |k: &P::Key, a: P::Value, b: P::Value| program.aggregate(k, a, b);
    let key_size = |k: &P::Key| program.key_size(k);
    let value_size = |v: &P::Value| program.value_size(v);
    let ops = MessageOps {
        aggregate: &aggregate,
        key_size: &key_size,
        value_size: &value_size,
    };
    let ctx = RunCtx {
        config,
        num_fragments: m,
        assignment: &assignment,
        gp: fragmentation.gp(),
        scope: program.scope(),
        peval: &peval,
    };

    // The host: where the evaluations run.
    let partials = match session.transport() {
        TransportSpec::Process { workers } => {
            let host =
                ProcessHost::spawn(program, query, &fragments, retained.as_deref(), workers)?;
            let pipe = host.pipe_counter();
            let collected =
                schedule(&ctx, &host, ops, seeds, &mut metrics).and_then(|()| host.into_partials());
            metrics.pipe_bytes = pipe.load(Ordering::Relaxed);
            collected?
        }
        TransportSpec::InProcess => {
            let host = InProcessHost::new(program, query, &fragments, &aggregate, retained);
            schedule(&ctx, &host, ops, seeds, &mut metrics)?;
            host.into_partials()?
        }
    };
    metrics.total_time = total_start.elapsed();
    Ok((partials, metrics))
}

/// Picks the transport and the loop from the mode: the superstep loop over
/// a [`BarrierTransport`] under [`EngineMode::Sync`], the streaming loop
/// over a [`ChannelTransport`] under [`EngineMode::Async`].  The seeds are
/// published before the loop starts.
fn schedule<P: PieProgram, H: WorkerHost<P>>(
    ctx: &RunCtx<'_>,
    host: &H,
    ops: MessageOps<'_, P::Key, P::Value>,
    seeds: Vec<SeedBatch<P>>,
    metrics: &mut EngineMetrics,
) -> Result<(), EngineError> {
    let m = ctx.num_fragments;
    match ctx.config.mode {
        EngineMode::Sync => {
            let transport = BarrierTransport::new(m, ops);
            seed(ctx, &transport, seeds, metrics);
            superstep_loop(ctx, host, &transport, metrics)
        }
        EngineMode::Async => {
            let transport = ChannelTransport::new(m, ops);
            seed(ctx, &transport, seeds, metrics);
            streaming_loop(ctx, host, &transport, metrics)
        }
    }
}

/// Routes the seed messages at logical step 0 and publishes them before the
/// loop starts, so the first round sees them like any other mail; the
/// published volume is accounted as `seed_messages` (separate from the
/// per-superstep flow, included in the run totals).  Fragments that PEval
/// re-roots start with no memory of their neighbours' values while everyone
/// else already holds them, so when the mask selects any fragment the seeds
/// reach those fragments only.
fn seed<K: KeyVertex + Clone, V: Clone, T: Transport<K, V>>(
    ctx: &RunCtx<'_>,
    transport: &T,
    seeds: Vec<(usize, Vec<(K, V)>)>,
    metrics: &mut EngineMetrics,
) {
    let restrict_to = ctx.peval.contains(&true).then_some(ctx.peval);
    for (from, updates) in seeds {
        route_and_send(ctx, transport, from, 0, updates, restrict_to);
    }
    transport.flush();
    let s = transport.stats();
    metrics.seed_messages = s.messages;
    metrics.total_messages += s.messages;
    metrics.total_bytes += s.bytes;
}

/// The BSP runtime: supersteps separated by a global barrier at which the
/// transport publishes messages.  Supports checkpointing and the arbitrator
/// recovery protocol of Section 6.
///
/// The host arrives with empty partials for a full run and pre-populated
/// ones for an incremental refresh; `ctx.peval` selects the fragments PEval
/// roots in superstep 0 (their slots are overwritten before anything reads
/// them).  At the fixpoint the caller collects the partials with
/// [`WorkerHost::into_partials`].
fn superstep_loop<P: PieProgram, H: WorkerHost<P>>(
    ctx: &RunCtx<'_>,
    host: &H,
    transport: &BarrierTransport<'_, P::Key, P::Value>,
    metrics: &mut EngineMetrics,
) -> Result<(), EngineError> {
    let m = ctx.num_fragments;
    let peval_count = AtomicUsize::new(0);
    let inceval_count = AtomicUsize::new(0);
    // Checkpoint = (next superstep, partials, mailboxes + delivered caches).
    #[allow(clippy::type_complexity)]
    let mut checkpoint: Option<(
        usize,
        Vec<Option<P::Partial>>,
        TransportSnapshot<P::Key, P::Value>,
    )> = None;
    let mut handled_failures = vec![false; ctx.config.injected_failures.len()];
    let mut superstep = 0usize;

    loop {
        if superstep >= ctx.config.max_supersteps {
            return Err(EngineError::DidNotConverge {
                max_supersteps: ctx.config.max_supersteps,
            });
        }

        // Failure injection + arbitrator recovery.
        let mut failed = false;
        for (idx, failure) in ctx.config.injected_failures.iter().enumerate() {
            if !handled_failures[idx] && failure.superstep == superstep && failure.fragment < m {
                handled_failures[idx] = true;
                failed = true;
                metrics.recovered_failures += 1;
            }
        }
        if failed {
            match &checkpoint {
                Some((step, saved_partials, saved_transport)) => {
                    superstep = *step;
                    host.restore_partials(saved_partials)?;
                    transport.restore(saved_transport);
                }
                None => {
                    // No checkpoint yet: restart the whole computation.
                    superstep = 0;
                    host.clear_partials()?;
                    transport.reset();
                }
            }
        }

        let step_start = Instant::now();
        // The rooting step: superstep 0 runs PEval on the fragments the
        // mask selects (all of them in a full run, the damage frontier in a
        // bounded refresh, none in an IncEval-only refresh).
        let rooting = superstep == 0;

        // Decide which fragments are active this superstep.
        let active: Vec<bool> = (0..m)
            .map(|i| (rooting && ctx.peval[i]) || transport.has_pending(i))
            .collect();
        let active_count = active.iter().filter(|&&a| a).count();
        if active_count == 0 {
            break;
        }

        // Local evaluation (PEval in the rooting step, IncEval otherwise),
        // spread over the physical workers.  A host failure (e.g. a dead
        // worker subprocess) aborts the whole superstep: every thread bails
        // at its next fragment, the first error wins, and the run returns
        // it instead of flushing — no partial answer is ever served.
        let stats_before = transport.stats();
        let active_ref = &active;
        let peval_count_ref = &peval_count;
        let inceval_count_ref = &inceval_count;
        let failure = FirstError::new();
        let failure_ref = &failure;
        std::thread::scope(|s| {
            for worker_fragments in ctx.assignment {
                s.spawn(move || {
                    for &fi in worker_fragments {
                        if failure_ref.aborted() {
                            return;
                        }
                        if !active_ref[fi] {
                            continue;
                        }
                        let evaluated = if rooting && ctx.peval[fi] {
                            host.peval(fi).inspect(|_| {
                                peval_count_ref.fetch_add(1, Ordering::Relaxed);
                            })
                        } else {
                            let drained = transport.drain(fi);
                            if drained.updates.is_empty() {
                                continue;
                            }
                            host.inc_eval(fi, &drained.updates).inspect(|_| {
                                inceval_count_ref.fetch_add(1, Ordering::Relaxed);
                            })
                        };
                        match evaluated {
                            Ok(updates) => {
                                route_and_send(ctx, transport, fi, superstep, updates, None)
                            }
                            Err(e) => {
                                failure_ref.record(e);
                                return;
                            }
                        }
                    }
                });
            }
        });
        failure.into_result()?;

        // Barrier: the transport publishes this superstep's messages.
        transport.flush();
        let stats_after = transport.stats();
        metrics.push_superstep(SuperstepMetrics {
            superstep,
            active_fragments: active_count,
            messages: stats_after.messages - stats_before.messages,
            bytes: stats_after.bytes - stats_before.bytes,
            duration: step_start.elapsed(),
        });
        metrics.eval_time += step_start.elapsed();

        // Checkpoint: the partials plus the published mailboxes.
        if let Some(every) = ctx.config.checkpoint_every {
            if (superstep + 1).is_multiple_of(every) {
                checkpoint = Some((
                    superstep + 1,
                    host.checkpoint_partials()?,
                    transport.snapshot(),
                ));
                metrics.checkpoints += 1;
            }
        }

        superstep += 1;
        if transport.pending_mailboxes() == 0 {
            break; // fixpoint: no pending messages anywhere
        }
    }

    metrics.peval_calls += peval_count.into_inner();
    metrics.inceval_calls += inceval_count.into_inner();
    Ok(())
}

/// One evaluation in the streaming runtime, for the per-superstep metric
/// buckets.
struct EvalRecord {
    /// The fragment that was evaluated.
    fragment: usize,
    /// The evaluation's assigned logical round: 0 for PEval; for IncEval,
    /// the superstep an equivalent BSP schedule would have run it in (see
    /// the round assignment in [`streaming_loop`]).
    step: usize,
    consumed_messages: usize,
    consumed_bytes: usize,
    duration: Duration,
}

/// The barrier-free runtime ([`EngineMode::Async`]): every physical worker
/// owns its assigned fragments and keeps draining their mailboxes until the
/// whole computation is quiescent — no superstep barrier, no coordinator
/// round-trips.  Messages produced by any fragment are visible to their
/// destinations immediately.
fn streaming_loop<P: PieProgram, H: WorkerHost<P>>(
    ctx: &RunCtx<'_>,
    host: &H,
    transport: &ChannelTransport<'_, P::Key, P::Value>,
    metrics: &mut EngineMetrics,
) -> Result<(), EngineError> {
    let peval_count = AtomicUsize::new(0);
    let inceval_count = AtomicUsize::new(0);
    // Quiescence: the run is over when every PEval finished, no mailbox has
    // pending mail, and no worker is mid-evaluation (a worker is "busy"
    // from before it drains until after it ships its results, so mail can
    // never be in flight while all three conditions hold *at one instant*).
    // The three counters cannot be read in one instant, so exits are
    // seqlock-style: `activity` is bumped immediately *before* every busy
    // transition, and an exit is valid only if it did not move across the
    // whole observation — then no busy transition completed inside the
    // window, `busy` was constant 0 throughout, no send was in flight, and
    // the observed zeros really did overlap.
    // Only the mask-selected fragments have a PEval to wait for (all of
    // them in a full run, the damage frontier in a bounded refresh, none in
    // an IncEval-only refresh).
    let unstarted = AtomicUsize::new(ctx.peval.iter().filter(|&&p| p).count());
    let busy = AtomicUsize::new(0);
    let activity = AtomicUsize::new(0);
    let diverged = AtomicBool::new(false);
    // A host failure (a dead worker subprocess) aborts the run; every
    // worker's drain loop checks the flag.
    let failure = FirstError::new();
    let records: Mutex<Vec<EvalRecord>> = Mutex::new(Vec::new());

    {
        let failure_ref = &failure;
        let unstarted_ref = &unstarted;
        let busy_ref = &busy;
        let activity_ref = &activity;
        let diverged_ref = &diverged;
        let records_ref = &records;
        let peval_count_ref = &peval_count;
        let inceval_count_ref = &inceval_count;
        std::thread::scope(|s| {
            for worker_fragments in ctx.assignment {
                s.spawn(move || {
                    let mut local: Vec<EvalRecord> = Vec::new();
                    // Per-fragment evaluation counters (this worker is the
                    // only one evaluating its fragments, so plain local
                    // counters suffice).  Each evaluation is also assigned a
                    // *logical round* — the superstep an equivalent BSP
                    // schedule would have run it in.  Two things bound that
                    // round from above: the fragment's own evaluation index
                    // (BSP evaluates a fragment at most once per round) and
                    // one past the newest information consumed (a message's
                    // sender round, carried as the transport step tag; BSP
                    // delivers a round-`r` message in round `r + 1`).  The
                    // assigned round is the min of the two, which keeps the
                    // metric stable against both piecemeal message arrival
                    // (which inflates evaluation counts) and chains of
                    // interim values (which inflate message depth).
                    let mut evals: HashMap<usize, usize> = HashMap::new();
                    // Ends a busy transition.  `activity` is always bumped
                    // BEFORE the busy transition it announces: an observer
                    // whose activity re-read is unchanged can then be sure
                    // no transition completed inside its window.
                    let done = || {
                        activity_ref.fetch_add(1, Ordering::SeqCst);
                        busy_ref.fetch_sub(1, Ordering::SeqCst);
                    };
                    // PEval for the mask-selected fragments this worker owns
                    // (all of its fragments in a full run, the damaged ones
                    // in a bounded refresh, none in an IncEval-only refresh
                    // — which starts straight from the retained partials and
                    // the pre-seeded mailboxes).  No global barrier
                    // afterwards: mail addressed to a fragment whose PEval
                    // has not run yet simply waits in its mailbox.  On an
                    // abort the drain loop below exits before its first
                    // sweep.
                    for &fi in worker_fragments {
                        if !ctx.peval[fi] {
                            continue;
                        }
                        if failure_ref.aborted() {
                            break;
                        }
                        let t0 = Instant::now();
                        let updates = match host.peval(fi) {
                            Ok(updates) => updates,
                            Err(e) => {
                                failure_ref.record(e);
                                break;
                            }
                        };
                        route_and_send(ctx, transport, fi, 0, updates, None);
                        unstarted_ref.fetch_sub(1, Ordering::SeqCst);
                        peval_count_ref.fetch_add(1, Ordering::Relaxed);
                        evals.insert(fi, 0);
                        local.push(EvalRecord {
                            fragment: fi,
                            step: 0,
                            consumed_messages: 0,
                            consumed_bytes: 0,
                            duration: t0.elapsed(),
                        });
                    }
                    // Drain to quiescence.
                    let mut idle_rounds = 0u32;
                    loop {
                        if diverged_ref.load(Ordering::SeqCst) || failure_ref.aborted() {
                            break;
                        }
                        let mut progressed = false;
                        // Fast path for idle spins: the lock-free global
                        // pending count skips the per-mailbox locking when
                        // there is nothing anywhere.
                        let anything_pending = transport.pending_mailboxes() > 0;
                        for &fi in worker_fragments {
                            if !anything_pending || !transport.has_pending(fi) {
                                continue;
                            }
                            activity_ref.fetch_add(1, Ordering::SeqCst);
                            busy_ref.fetch_add(1, Ordering::SeqCst);
                            let drained = transport.drain(fi);
                            if drained.updates.is_empty() {
                                done();
                                continue;
                            }
                            // A fragment's first evaluation runs in round 1
                            // after its PEval (round 0) and in round 0 when
                            // it had none (seeds carry step 0); every later
                            // one is one round past the previous.
                            let own = evals.get(&fi).map_or(0, |e| e + 1);
                            let step = own.min(drained.max_step + 1);
                            // Guard divergence on the *logical* round, not
                            // the raw evaluation count: piecemeal arrival
                            // legitimately inflates evaluation counts above
                            // the BSP superstep count, while the logical
                            // round still ratchets up without bound for a
                            // genuinely non-monotonic program (each message
                            // carries its sender's assigned round).
                            if step >= ctx.config.max_supersteps {
                                diverged_ref.store(true, Ordering::SeqCst);
                                done();
                                break;
                            }
                            evals.insert(fi, own);
                            let t0 = Instant::now();
                            let updates = match host.inc_eval(fi, &drained.updates) {
                                Ok(updates) => updates,
                                Err(e) => {
                                    failure_ref.record(e);
                                    done();
                                    break;
                                }
                            };
                            route_and_send(ctx, transport, fi, step, updates, None);
                            done();
                            inceval_count_ref.fetch_add(1, Ordering::Relaxed);
                            local.push(EvalRecord {
                                fragment: fi,
                                step,
                                consumed_messages: drained.messages,
                                consumed_bytes: drained.bytes,
                                duration: t0.elapsed(),
                            });
                            progressed = true;
                        }
                        if progressed {
                            idle_rounds = 0;
                            continue;
                        }
                        // Seqlock-style exit: with `activity` unchanged
                        // across the whole observation, `busy` was constant
                        // (and read 0, so constant 0) — no evaluation was in
                        // flight, so no send could race the mailbox read and
                        // the observed zeros genuinely overlapped.
                        let observed_activity = activity_ref.load(Ordering::SeqCst);
                        if unstarted_ref.load(Ordering::SeqCst) == 0
                            && transport.pending_mailboxes() == 0
                            && busy_ref.load(Ordering::SeqCst) == 0
                            && activity_ref.load(Ordering::SeqCst) == observed_activity
                        {
                            break;
                        }
                        idle_rounds += 1;
                        if idle_rounds > 64 {
                            std::thread::sleep(Duration::from_micros(50));
                        } else {
                            std::thread::yield_now();
                        }
                    }
                    records_ref.lock().extend(local);
                });
            }
        });
    }

    failure.into_result()?;
    if diverged.load(Ordering::SeqCst) {
        return Err(EngineError::DidNotConverge {
            max_supersteps: ctx.config.max_supersteps,
        });
    }

    // Bucket evaluations into logical supersteps by their assigned round:
    // the reported superstep count is the depth of an equivalent BSP
    // schedule of the same deliveries.  Messages consumed by an evaluation
    // in round `s` are attributed to the end of round `s - 1`, matching the
    // synchronous accounting; round-0 consumption only exists on a refresh,
    // where it is the injected seeds (accounted separately as
    // `seed_messages` by `seed`).
    let records = records.into_inner();
    if records.is_empty() {
        // Incremental refresh with nothing to do: zero supersteps.
        metrics.peval_calls += peval_count.into_inner();
        metrics.inceval_calls += inceval_count.into_inner();
        return Ok(());
    }
    let depth = records.iter().map(|r| r.step).max().unwrap_or(0);
    let mut steps: Vec<SuperstepMetrics> = (0..=depth)
        .map(|s| SuperstepMetrics {
            superstep: s,
            ..Default::default()
        })
        .collect();
    // A fragment evaluated twice in one logical round (piecemeal arrival)
    // is still one active fragment of that round — count distinct
    // fragments, keeping `active_fragments ≤ m` as under BSP.
    let mut active_per_step: Vec<std::collections::HashSet<usize>> =
        vec![std::collections::HashSet::new(); depth + 1];
    for r in &records {
        active_per_step[r.step].insert(r.fragment);
        steps[r.step].duration += r.duration;
        metrics.eval_time += r.duration;
        if r.step > 0 {
            steps[r.step - 1].messages += r.consumed_messages;
            steps[r.step - 1].bytes += r.consumed_bytes;
        }
    }
    for (s, active) in active_per_step.iter().enumerate() {
        steps[s].active_fragments = active.len();
    }
    for s in steps {
        metrics.push_superstep(s);
    }
    metrics.peval_calls += peval_count.into_inner();
    metrics.inceval_calls += inceval_count.into_inner();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pie::Messages;
    use crate::session::GrapeSession;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::types::VertexId;
    use grape_partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use grape_partition::fragmentation_graph::BorderScope;
    use grape_partition::strategy::PartitionStrategy;
    use std::collections::HashMap;

    /// A miniature PIE program used to exercise the engine without the
    /// algorithms crate: every vertex computes the minimum global vertex id
    /// reachable *backwards* along edges (i.e. min id over ancestors within
    /// its weakly-followed component by forward propagation).  Propagating
    /// minima is monotonic, so the Assurance Theorem applies.
    struct MinPropagation;

    type MinPartial = HashMap<VertexId, u64>;

    impl MinPropagation {
        /// Local fixpoint: propagate minima along local out-edges.
        fn local_propagate(frag: &Fragment, values: &mut MinPartial) {
            let mut changed = true;
            while changed {
                changed = false;
                for l in frag.all_locals() {
                    let v = frag.global_of(l);
                    let mine = values[&v];
                    for n in frag.out_edges(l) {
                        let t = frag.global_of(n.target as u32);
                        if mine < values[&t] {
                            values.insert(t, mine);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    impl PieProgram for MinPropagation {
        type Query = ();
        type Partial = MinPartial;
        type Key = VertexId;
        type Value = u64;
        type Output = HashMap<VertexId, u64>;

        fn name(&self) -> &str {
            "min-propagation"
        }

        fn scope(&self) -> BorderScope {
            BorderScope::Out
        }

        fn peval(&self, _q: &(), frag: &Fragment, ctx: &mut Messages<VertexId, u64>) -> MinPartial {
            let mut values: MinPartial = frag
                .all_locals()
                .map(|l| (frag.global_of(l), frag.global_of(l)))
                .collect();
            Self::local_propagate(frag, &mut values);
            for &l in frag.out_border_locals() {
                let v = frag.global_of(l);
                ctx.send(v, values[&v]);
            }
            values
        }

        fn inc_eval(
            &self,
            _q: &(),
            frag: &Fragment,
            partial: &mut MinPartial,
            messages: &[(VertexId, u64)],
            ctx: &mut Messages<VertexId, u64>,
        ) {
            let mut touched = false;
            for (v, value) in messages {
                if *value < partial[v] {
                    partial.insert(*v, *value);
                    touched = true;
                }
            }
            if touched {
                let before: MinPartial = partial.clone();
                Self::local_propagate(frag, partial);
                for &l in frag.out_border_locals() {
                    let v = frag.global_of(l);
                    if partial[&v] < before[&v] {
                        ctx.send(v, partial[&v]);
                    }
                }
            }
        }

        fn assemble(&self, _q: &(), partials: Vec<MinPartial>) -> HashMap<VertexId, u64> {
            let mut out = HashMap::new();
            for p in partials {
                for (v, value) in p {
                    out.entry(v)
                        .and_modify(|x: &mut u64| *x = (*x).min(value))
                        .or_insert(value);
                }
            }
            out
        }

        fn aggregate(&self, _key: &VertexId, a: u64, b: u64) -> u64 {
            a.min(b)
        }
    }

    fn ring_graph(n: u64) -> grape_graph::graph::Graph {
        let mut b = GraphBuilder::directed();
        for v in 0..n {
            b.push_edge(grape_graph::types::Edge::unweighted(v, (v + 1) % n));
        }
        b.build()
    }

    #[test]
    fn min_propagation_reaches_global_fixpoint() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::with_workers(3);
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        // Every vertex of the ring should converge to the global minimum 0.
        assert!(result.output.values().all(|&v| v == 0));
        assert!(
            result.metrics.supersteps >= 2,
            "ring needs multiple supersteps"
        );
        assert!(result.metrics.total_messages > 0);
    }

    #[test]
    fn single_fragment_terminates_after_peval() {
        let g = ring_graph(8);
        let frag = HashEdgeCut::new(1).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        assert_eq!(result.metrics.supersteps, 1);
        assert_eq!(result.metrics.total_messages, 0);
        assert!(result.output.values().all(|&v| v == 0));
    }

    #[test]
    fn asynchronous_mode_matches_synchronous_output() {
        let g = ring_graph(16);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let sync = GrapeSession::builder()
            .workers(4)
            .mode(EngineMode::Sync)
            .build()
            .unwrap()
            .run(&frag, &MinPropagation, &())
            .unwrap();
        let async_ = GrapeSession::builder()
            .workers(4)
            .mode(EngineMode::Async)
            .build()
            .unwrap()
            .run(&frag, &MinPropagation, &())
            .unwrap();
        assert_eq!(sync.output, async_.output);
        assert!(async_.metrics.supersteps <= sync.metrics.supersteps);
        assert_eq!(async_.metrics.transport, "channel");
        assert_eq!(sync.metrics.transport, "barrier");
    }

    #[test]
    fn worker_count_does_not_change_the_answer() {
        let g = ring_graph(20);
        let frag = HashEdgeCut::new(5).partition(&g).unwrap();
        let one = GrapeSession::with_workers(1)
            .run(&frag, &MinPropagation, &())
            .unwrap();
        let four = GrapeSession::with_workers(4)
            .run(&frag, &MinPropagation, &())
            .unwrap();
        assert_eq!(one.output, four.output);
    }

    #[test]
    fn failure_recovery_with_checkpoint_still_converges() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(3)
            .mode(EngineMode::Sync)
            .checkpoint_every(1)
            .inject_failure(2, 1)
            .build()
            .unwrap();
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        assert_eq!(result.metrics.recovered_failures, 1);
        assert!(result.metrics.checkpoints >= 1);
        assert!(result.output.values().all(|&v| v == 0));
    }

    #[test]
    fn failure_without_checkpoint_restarts_and_converges() {
        let g = ring_graph(9);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .inject_failure(1, 0)
            .build()
            .unwrap();
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        assert_eq!(result.metrics.recovered_failures, 1);
        assert!(result.output.values().all(|&v| v == 0));
    }

    /// A program without a process codec cannot cross worker pipes: the
    /// engine rejects `TransportSpec::Process` with a clear configuration
    /// error instead of spawning subprocesses it could not talk to.
    #[test]
    fn process_transport_requires_a_codec() {
        let g = ring_graph(8);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let err = GrapeSession::builder()
                .workers(2)
                .mode(mode)
                .transport(TransportSpec::Process { workers: 2 })
                .build()
                .unwrap()
                .run(&frag, &MinPropagation, &())
                .unwrap_err();
            match err {
                EngineError::InvalidConfig(msg) => {
                    assert!(msg.contains("process codec"), "{msg}")
                }
                other => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn superstep_limit_returns_error() {
        let g = ring_graph(32);
        let frag = RangeEdgeCut::new(8).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .max_supersteps(2)
            .build()
            .unwrap();
        let err = session.run(&frag, &MinPropagation, &()).unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { max_supersteps: 2 });
    }

    #[test]
    fn metrics_record_per_superstep_entries() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let result = GrapeSession::with_workers(2)
            .run(&frag, &MinPropagation, &())
            .unwrap();
        assert_eq!(
            result.metrics.per_superstep.len(),
            result.metrics.supersteps
        );
        assert_eq!(result.metrics.fragments, 4);
        assert!(result.metrics.seconds() >= 0.0);
        assert!(result.metrics.summary().contains("min-propagation"));
    }

    #[test]
    fn unchanged_values_are_not_reshipped() {
        // The delivered-cache must drop repeated identical values.  With the
        // ring, once a vertex's minimum stabilises no more messages flow.
        let g = ring_graph(10);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .build()
            .unwrap();
        let result = session.run(&frag, &MinPropagation, &()).unwrap();
        // Each border vertex can change at most a handful of times; far fewer
        // messages than vertices × supersteps.
        assert!(
            result.metrics.total_messages <= frag.num_border_vertices() * result.metrics.supersteps,
            "messages {} vs bound {}",
            result.metrics.total_messages,
            frag.num_border_vertices() * result.metrics.supersteps
        );
    }

    /// PEval/IncEval call accounting: a full run calls PEval exactly once
    /// per fragment, in both runtimes.
    #[test]
    fn full_runs_count_one_peval_per_fragment() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let result = GrapeSession::builder()
                .workers(2)
                .mode(mode)
                .build()
                .unwrap()
                .run(&frag, &MinPropagation, &())
                .unwrap();
            assert_eq!(result.metrics.peval_calls, 3, "{mode:?}");
            assert!(result.metrics.inceval_calls > 0, "{mode:?}");
            assert!(!result.metrics.incremental);
        }
    }

    /// A refresh whose frontier is every fragment, with no seeds, is a full
    /// run: the identity `RunStart::full` relies on.  Its placeholders are
    /// empty maps, which IncEval would index into and panic on, so the run
    /// also proves PEval overwrote every one of them first.
    #[test]
    fn full_frontier_refresh_equals_a_fresh_prepare() {
        let g = ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let session = GrapeSession::builder()
                .workers(2)
                .mode(mode)
                .build()
                .unwrap();
            let fresh = session.prepare(frag.clone(), MinPropagation, ()).unwrap();
            let start = RunStart {
                partials: Some(vec![MinPartial::new(); 3]),
                seeds: Vec::new(),
                repeval: vec![0, 1, 2],
            };
            let (partials, metrics) =
                run_parts(&session, &frag, &MinPropagation, &(), start).unwrap();
            assert_eq!(partials, fresh.partials(), "{mode:?}");
            assert_eq!(metrics.peval_calls, 3, "{mode:?}");
            assert!(metrics.incremental, "{mode:?}");
            if mode == EngineMode::Sync {
                let prepared = fresh.prepare_metrics();
                assert_eq!(metrics.supersteps, prepared.supersteps);
                assert_eq!(metrics.total_messages, prepared.total_messages);
                assert_eq!(metrics.inceval_calls, prepared.inceval_calls);
            }
        }
    }
}
