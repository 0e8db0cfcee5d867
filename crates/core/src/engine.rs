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
//! Under the barrier an evaluation may also ask to be run again next round
//! without mail ([`crate::pie::Messages::run_again`]), which is how the
//! simulated models of Theorem 2 keep a worker busy that has nothing
//! incoming.
//!
//! One scheduler loop runs that skeleton.  Every physical worker sweeps its
//! fragments on its own thread — PEval on the masked ones in round 0, then
//! drain → IncEval → route on every fragment with pending mail — and after
//! each sweep asks a **gate** what comes next.  The mode picks the gate, and
//! the gate decides only when mail becomes visible and when the run ends:
//!
//! * **Barrier** ([`EngineMode::Sync`]) — BSP: the workers meet at a barrier
//!   after every round, and the leader thread flushes the transport,
//!   records the round and handles superstep-aligned checkpoints and failure
//!   recovery before publishing the next round.  This is the model analysed
//!   in the paper.
//! * **Quiescence** ([`EngineMode::Async`]) — no barrier: mail is visible at
//!   once and the workers drain their mailboxes until the whole computation
//!   is quiescent.  The superstep metric then reports the depth of an
//!   equivalent BSP schedule of the same deliveries — because fresher
//!   values arrive without waiting for a barrier, this is no larger (and on
//!   high-diameter workloads smaller) than the synchronous superstep count.
//!
//! A panic inside an evaluation aborts the run in both modes and is
//! re-raised on the caller's thread once every worker has stopped; neither
//! gate waits for a worker that is gone.
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
//! `schedule` picks the transport and the gate from the mode alone.
//!
//! Physical workers are OS threads; fragments are virtual workers mapped
//! onto physical workers by [`crate::load_balance::assign`].
//! Entry points: [`crate::session::GrapeSession::run`] (one-shot) and
//! [`crate::session::GrapeSession::prepare`] →
//! [`crate::prepared::PreparedQuery`] (prepare → answer → update).

use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
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
    BarrierTransport, ChannelTransport, MessageOps, Transport, TransportSpec, TransportStats,
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

/// Borrowed per-run state of the scheduler loop.
///
/// Deliberately free of fragments, query and program: those live behind the
/// [`WorkerHost`] so the loop stays location-transparent — it drives
/// in-process and subprocess workers alike.
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
    /// Fragments whose last evaluation asked to run again next round
    /// ([`crate::pie::Messages::run_again`]).  The barrier's fixpoint waits
    /// for them as it waits for pending mail.
    again: Vec<AtomicBool>,
}

/// The first failure of a run: a host error (e.g. a dead worker
/// subprocess), a divergence, or a panic inside an evaluation.  Recording
/// one raises the abort flag every worker checks before its next
/// evaluation, so the run returns the error — or re-raises the panic on the
/// caller's thread — instead of serving a partial answer or spinning on
/// counters a dead peer can no longer move.
#[derive(Default)]
struct FirstError {
    /// `Ok(error)`, or `Err(payload)` of a panic.
    first: Mutex<Option<std::thread::Result<EngineError>>>,
    abort: AtomicBool,
}

impl FirstError {
    /// Runs one step of the run, catching a panic.  An error or a panic is
    /// kept unless an earlier failure was, raises the flag and yields `None`.
    fn guard<T>(&self, step: impl FnOnce() -> Result<T, EngineError>) -> Option<T> {
        let failed = match catch_unwind(AssertUnwindSafe(step)) {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(e)) => Ok(e),
            Err(payload) => Err(payload),
        };
        self.first.lock().get_or_insert(failed);
        self.abort.store(true, Ordering::SeqCst);
        None
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// The run's outcome, once every worker has stopped: a recorded panic is
    /// re-raised here, an error returned.
    fn into_result(self) -> Result<(), EngineError> {
        match self.first.into_inner() {
            None => Ok(()),
            Some(Ok(e)) => Err(e),
            Some(Err(payload)) => resume_unwind(payload),
        }
    }
}

/// Routes one evaluation's updates through `G_P` and ships them, batched per
/// destination, tagged with the sender's logical step.  `Some(mask)` drops
/// every destination whose mask entry is `false` (a bounded refresh delivers
/// its seeds to the re-rooted fragments only).
///
/// Per message it allocates nothing but its batch slots: the route fills one
/// reused buffer, batches are indexed by fragment, and the last destination
/// takes the key and value by move.
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
    let mut per_dest: Vec<Vec<(K, V)>> = (0..ctx.num_fragments).map(|_| Vec::new()).collect();
    let mut dests = Vec::new();
    for (key, value) in updates {
        ctx.gp.route(key.vertex(), from, ctx.scope, &mut dests);
        if let Some(mask) = restrict_to {
            dests.retain(|&dest| mask[dest]);
        }
        if let Some((&last, rest)) = dests.split_last() {
            for &dest in rest {
                per_dest[dest].push((key.clone(), value.clone()));
            }
            per_dest[last].push((key, value));
        }
    }
    for (dest, batch) in per_dest.into_iter().enumerate() {
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
    let output = program.assemble(query, fragmentation, partials);
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
    let exchange = program
        .expansion(query)
        .map_err(EngineError::InvalidConfig)?;
    if exchange.is_some() && repeval.is_empty() && !seeds.is_empty() {
        return Err(EngineError::InvalidConfig(
            "programs that declare an exchange cannot refresh from seed messages alone; \
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

    // The declared neighbourhood exchange (SubIso: the `d_Q`-hop,
    // pattern-labelled neighbourhood of the border), for the fragments PEval
    // roots only: a bounded refresh ships `|damaged|` neighbourhoods instead
    // of all `m`.  The shipped vertices/edges are counted as communication,
    // mirroring the paper's "message M_i … including all nodes and edges in
    // C_i.x̄ from other fragments".
    let fragments: Vec<Arc<Fragment>> = match &exchange {
        Some(exchange) => (0..m)
            .map(|i| {
                if !peval[i] {
                    return fragmentation.fragments()[i].clone();
                }
                let (f, shipped_vertices, shipped_edges) =
                    fragmentation.expand_fragment(i, exchange);
                metrics.add_expansion(shipped_vertices * 24 + shipped_edges * 24);
                Arc::new(f)
            })
            .collect(),
        None => fragmentation.fragments().to_vec(),
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
        again: (0..m).map(|_| AtomicBool::new(false)).collect(),
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

/// Builds the mode's transport and gate, publishes the seeds and runs the
/// one loop: a barrier over a [`BarrierTransport`] under
/// [`EngineMode::Sync`], quiescence over a [`ChannelTransport`] under
/// [`EngineMode::Async`].
fn schedule<P: PieProgram, H: WorkerHost<P>>(
    ctx: &RunCtx<'_>,
    host: &H,
    ops: MessageOps<'_, P::Key, P::Value>,
    seeds: Vec<SeedBatch<P>>,
    metrics: &mut EngineMetrics,
) -> Result<(), EngineError> {
    let m = ctx.num_fragments;
    let records = match ctx.config.mode {
        EngineMode::Sync => {
            let transport = BarrierTransport::new(m, ops);
            seed::<P>(ctx, &transport, ops, seeds, metrics);
            let gate = Gate::Barrier {
                barrier: Barrier::new(ctx.assignment.len()),
                active: AtomicUsize::new(0),
                next: AtomicUsize::new(0),
                lead: Mutex::new(Box::new(coordinator(ctx, host, &transport, metrics))),
            };
            run_loop(ctx, host, &transport, &gate)?
        }
        EngineMode::Async => {
            let transport = ChannelTransport::new(m, ops);
            let seeded = seed::<P>(ctx, &transport, ops, seeds, metrics);
            let gate = Gate::Quiescence {
                busy: AtomicIsize::new(ctx.assignment.len() as isize),
                activity: AtomicUsize::new(0),
            };
            let records = run_loop(ctx, host, &transport, &gate)?;
            bucket(&records, seeded, metrics);
            records
        }
    };
    let pevals = records.iter().filter(|r| r.consumed.is_none()).count();
    metrics.peval_calls += pevals;
    metrics.inceval_calls += records.len() - pevals;
    Ok(())
}

/// Routes the seed messages at logical step 0 and publishes them before the
/// loop starts, so the first round sees them like any other mail.
/// Fragments that PEval re-roots start with no memory of their neighbours'
/// values while everyone else already holds them, so when the mask selects
/// any fragment the seeds reach those fragments only.
///
/// The seeds pass through a barrier of their own first: it aggregates them
/// with `aggregateMsg` and charges them exactly as a Sync flush publishes
/// them, whatever the run's transport.  They are `seed_messages`, part of
/// the run totals and of no superstep.
fn seed<P: PieProgram>(
    ctx: &RunCtx<'_>,
    transport: &impl Transport<P::Key, P::Value>,
    ops: MessageOps<'_, P::Key, P::Value>,
    seeds: Vec<SeedBatch<P>>,
    metrics: &mut EngineMetrics,
) -> TransportStats {
    let restrict_to = ctx.peval.contains(&true).then_some(ctx.peval);
    let staged = BarrierTransport::new(ctx.num_fragments, ops);
    for (from, updates) in seeds {
        route_and_send(ctx, &staged, from, 0, updates, restrict_to);
    }
    let seeded = staged.flush();
    for dest in 0..ctx.num_fragments {
        transport.send_batch(dest, dest, 0, staged.drain(dest).updates);
    }
    transport.flush();
    metrics.seed_messages = seeded.messages;
    metrics.total_messages += seeded.messages;
    metrics.total_bytes += seeded.bytes;
    seeded
}

/// One evaluation of a run.
struct EvalRecord {
    fragment: usize,
    /// The logical step its sends carry: the superstep under the barrier,
    /// the round of an equivalent BSP schedule under quiescence; 0 for PEval.
    step: usize,
    /// Messages and bytes it consumed; `None` for PEval.
    consumed: Option<(usize, usize)>,
    duration: Duration,
}

/// When mail becomes visible and when the run ends — the only things the
/// two modes do differently.  Every worker runs the same loop ([`run_loop`])
/// and asks its gate after each sweep over its fragments which round to
/// sweep next.
enum Gate<'g> {
    /// BSP ([`EngineMode::Sync`]), the model analysed in the paper: sends
    /// are published only at a barrier the workers meet after every round.
    /// The thread the barrier elects leader runs the coordinator's work
    /// ([`coordinator`]) before the next round is published; a worker whose
    /// evaluation failed still meets every barrier, so none waits for it.
    Barrier {
        barrier: Barrier,
        /// Fragments evaluated in the current round, over all workers.
        active: AtomicUsize,
        /// The round the leader published last; `usize::MAX` stops the run.
        next: AtomicUsize,
        lead: Mutex<Coordinator<'g>>,
    },
    /// AP ([`EngineMode::Async`]): no barrier.  A send is visible at once,
    /// every worker keeps draining its fragments, and the run ends at
    /// quiescence — every first sweep done (so every PEval routed), no
    /// mailbox pending, no evaluation in flight.  Those cannot be read in
    /// one instant, so the exit is seqlock-style: `activity` is bumped
    /// immediately *before* every `busy` transition, and an exit is valid
    /// only if it did not move across the whole observation — then `busy`
    /// was constant 0 throughout, no send was in flight, and the observed
    /// zeros overlapped.
    Quiescence {
        /// Workers still in their first sweep plus evaluations in flight.
        busy: AtomicIsize,
        activity: AtomicUsize,
    },
}

/// The BSP coordinator: takes a finished round's active-fragment count and
/// whether the run was aborted, and returns the next superstep, or `None`
/// when the run is over.
type Coordinator<'g> =
    Box<dyn FnMut(usize, bool) -> Result<Option<usize>, EngineError> + Send + 'g>;

impl Gate<'_> {
    /// Counts an evaluation in (`+1`, before its drain) or out (`-1`, after
    /// its sends) for quiescence.
    fn mark(&self, delta: isize) {
        if let Gate::Quiescence { busy, activity } = self {
            activity.fetch_add(1, Ordering::SeqCst);
            busy.fetch_add(delta, Ordering::SeqCst);
        }
    }

    /// Ends a worker's sweep of `round`, which evaluated `evaluated`
    /// fragments: the round to sweep next, or `usize::MAX` to stop.
    fn next(
        &self,
        round: usize,
        evaluated: usize,
        idle: &mut u32,
        failure: &FirstError,
        pending: impl FnOnce() -> usize,
    ) -> usize {
        match self {
            Gate::Barrier {
                barrier,
                active,
                next,
                lead,
            } => {
                active.fetch_add(evaluated, Ordering::SeqCst);
                if barrier.wait().is_leader() {
                    let active = active.swap(0, Ordering::SeqCst);
                    let round = failure.guard(|| (lead.lock())(active, failure.aborted()));
                    next.store(round.flatten().unwrap_or(usize::MAX), Ordering::SeqCst);
                }
                barrier.wait();
                next.load(Ordering::SeqCst)
            }
            Gate::Quiescence { busy, activity } => {
                if round == 0 {
                    self.mark(-1); // this worker's PEvals are routed
                }
                if failure.aborted() {
                    return usize::MAX;
                }
                if evaluated > 0 {
                    *idle = 0;
                    return 1;
                }
                let observed = activity.load(Ordering::SeqCst);
                if pending() == 0
                    && busy.load(Ordering::SeqCst) == 0
                    && activity.load(Ordering::SeqCst) == observed
                {
                    return usize::MAX;
                }
                *idle += 1;
                if *idle > 64 {
                    std::thread::sleep(Duration::from_micros(50));
                } else {
                    std::thread::yield_now();
                }
                1
            }
        }
    }
}

/// The one scheduler loop.  Each physical worker runs on its own thread, in
/// one scope for the whole run — worker 0 on the calling thread, which
/// would otherwise only wait — and sweeps its fragments round after round
/// until its gate stops it: in round 0 it PEvals the mask-selected ones
/// (all of them in a full run, the damage frontier in a bounded refresh,
/// none in an IncEval-only refresh); every fragment with pending mail is
/// drained, IncEvaled and its sends routed.  A host error, a divergence or
/// a panic anywhere aborts the run, and a panic is re-raised here once
/// every worker has stopped.
fn run_loop<P: PieProgram, H: WorkerHost<P>, T: Transport<P::Key, P::Value>>(
    ctx: &RunCtx<'_>,
    host: &H,
    transport: &T,
    gate: &Gate<'_>,
) -> Result<Vec<EvalRecord>, EngineError> {
    // A refresh with nothing to do — no PEval, no seed in any mailbox —
    // ends here, before any thread starts: zero supersteps.
    if !ctx.peval.contains(&true) && transport.pending_mailboxes() == 0 {
        return Ok(Vec::new());
    }
    let failure = FirstError::default();
    let records = Mutex::new(Vec::new());
    let work = |mine: &[usize]| {
        let mut done: Vec<EvalRecord> = Vec::new();
        // Each fragment's evaluation count (only this worker evaluates it).
        let mut evals = vec![0; ctx.num_fragments];
        let (mut round, mut idle) = (0, 0);
        while round != usize::MAX {
            let before = done.len();
            // The lock-free global count skips the per-mailbox
            // checks when nothing is pending anywhere.
            let pending = transport.pending_mailboxes() > 0;
            for &fi in mine {
                let rooting = round == 0 && ctx.peval[fi];
                // Only this worker and the barrier's leader touch the flag,
                // on opposite sides of a barrier.
                let again = ctx.again[fi].load(Ordering::Relaxed);
                if failure.aborted() {
                    break;
                }
                if !(rooting || again || pending && transport.has_pending(fi)) {
                    continue;
                }
                gate.mark(1);
                let outcome = failure.guard(|| {
                    let started = Instant::now();
                    let drained = (!rooting).then(|| transport.drain(fi));
                    if !again && drained.as_ref().is_some_and(|d| d.updates.is_empty()) {
                        return Ok(None);
                    }
                    let own = evals[fi];
                    evals[fi] += 1;
                    // Under quiescence, the superstep an equivalent BSP
                    // schedule would have run this evaluation in.  The
                    // fragment's own evaluation index bounds it (BSP
                    // evaluates a fragment at most once per round), and so
                    // does one past the newest mail consumed (BSP delivers a
                    // round-`r` message in round `r + 1`); the min keeps the
                    // metric stable against both piecemeal arrival and
                    // chains of interim values.
                    let step = match (&drained, gate) {
                        (None, _) => 0,
                        (Some(_), Gate::Barrier { .. }) => round,
                        (Some(d), Gate::Quiescence { .. }) => own.min(d.max_step + 1),
                    };
                    // Guard divergence on the logical step: it ratchets up
                    // without bound only for a program that breaks the
                    // monotonic condition.
                    let max_supersteps = ctx.config.max_supersteps;
                    if step >= max_supersteps {
                        return Err(EngineError::DidNotConverge { max_supersteps });
                    }
                    let (updates, asked) = match &drained {
                        None => host.peval(fi)?,
                        Some(d) => host.inc_eval(fi, &d.updates)?,
                    };
                    if asked && matches!(gate, Gate::Quiescence { .. }) {
                        return Err(EngineError::InvalidConfig(
                            "an evaluation asked to run again next round; rounds exist \
                             under the barrier only, use EngineMode::Sync"
                                .to_string(),
                        ));
                    }
                    ctx.again[fi].store(asked, Ordering::Relaxed);
                    route_and_send(ctx, transport, fi, step, updates, None);
                    let consumed = drained.map(|d| (d.messages, d.bytes));
                    let duration = started.elapsed();
                    Ok(Some(EvalRecord {
                        fragment: fi,
                        step,
                        consumed,
                        duration,
                    }))
                });
                gate.mark(-1);
                match outcome {
                    Some(record) => done.extend(record),
                    None => break,
                }
            }
            let evaluated = done.len() - before;
            round = gate.next(round, evaluated, &mut idle, &failure, || {
                transport.pending_mailboxes()
            });
        }
        records.lock().extend(done);
    };
    let work = &work;
    std::thread::scope(|s| {
        for mine in &ctx.assignment[1..] {
            s.spawn(move || work(mine));
        }
        work(&ctx.assignment[0]);
    });
    failure.into_result()?;
    Ok(records.into_inner())
}

/// The coordinator of the BSP gate, run by the barrier's leader between
/// rounds: it flushes the transport, records the round (its `duration` is
/// the wall time between two gates), takes checkpoints, and applies the
/// failures injected at the next superstep — the arbitrator recovery of
/// Section 6 rolls the computation back to the last checkpoint, or
/// restarts it.  A replayed round replaces the one rolled back, so
/// `per_superstep` keeps one entry per superstep while the totals keep
/// every message re-shipped.
fn coordinator<'g, P: PieProgram, H: WorkerHost<P>>(
    ctx: &'g RunCtx<'g>,
    host: &'g H,
    transport: &'g BarrierTransport<'g, P::Key, P::Value>,
    metrics: &'g mut EngineMetrics,
) -> impl FnMut(usize, bool) -> Result<Option<usize>, EngineError> + Send + 'g {
    let mut checkpoint = None;
    let mut failures = ctx.config.injected_failures.clone();
    let (mut superstep, mut started) = (0, Instant::now());
    move |active, aborted| {
        if aborted {
            return Ok(None);
        }
        let flushed = transport.flush();
        let duration = started.elapsed();
        metrics.per_superstep.truncate(superstep);
        metrics.push_superstep(SuperstepMetrics {
            superstep,
            active_fragments: active,
            messages: flushed.messages,
            bytes: flushed.bytes,
            duration,
        });
        metrics.eval_time += duration;
        superstep += 1;
        if (ctx.config.checkpoint_every).is_some_and(|every| superstep.is_multiple_of(every)) {
            let again: Vec<bool> = ctx
                .again
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            checkpoint = Some((
                superstep,
                host.checkpoint_partials()?,
                transport.snapshot(),
                again,
            ));
            metrics.checkpoints += 1;
        }
        let again = ctx.again.iter().any(|a| a.load(Ordering::Relaxed));
        if transport.pending_mailboxes() == 0 && !again {
            return Ok(None); // the fixpoint: no pending messages or reruns
        }
        let unfired = failures.len();
        failures.retain(|f| f.superstep > superstep || f.fragment >= ctx.num_fragments);
        metrics.recovered_failures += unfired - failures.len();
        if failures.len() < unfired {
            match &checkpoint {
                Some((step, partials, mailboxes, again)) => {
                    superstep = *step;
                    host.restore_partials(partials)?;
                    transport.restore(mailboxes);
                    for (flag, &saved) in ctx.again.iter().zip(again) {
                        flag.store(saved, Ordering::Relaxed);
                    }
                }
                // A restart re-roots every fragment, and each PEval
                // overwrites its fragment's rerun flag.
                None => {
                    superstep = 0;
                    host.clear_partials()?;
                    transport.reset();
                }
            }
        }
        started = Instant::now();
        Ok(Some(superstep))
    }
}

/// Buckets the evaluations of a run under quiescence into logical
/// supersteps by their step, so the superstep count is the depth of an
/// equivalent BSP schedule of the same deliveries.  Mail consumed in round
/// `s` counts as routed at the end of round `s - 1` (of round 0 when `s` is
/// 0), as under BSP — except the seeds, which [`seed`] charged: every
/// seeded mailbox is first drained in round 0 or 1, so they come out of
/// round 0's bucket.  A fragment evaluated twice in one round (piecemeal
/// arrival) is one active fragment of it, keeping `active_fragments ≤ m`.
fn bucket(records: &[EvalRecord], seeded: TransportStats, metrics: &mut EngineMetrics) {
    let depth = records.iter().map(|r| r.step + 1).max().unwrap_or(0);
    let mut steps = vec![SuperstepMetrics::default(); depth];
    let mut active = vec![HashSet::new(); depth];
    for r in records {
        active[r.step].insert(r.fragment);
        steps[r.step].duration += r.duration;
        metrics.eval_time += r.duration;
        let (messages, bytes) = r.consumed.unwrap_or_default();
        steps[r.step.saturating_sub(1)].messages += messages;
        steps[r.step.saturating_sub(1)].bytes += bytes;
    }
    if let Some(first) = steps.first_mut() {
        first.messages = first.messages.saturating_sub(seeded.messages);
        first.bytes = first.bytes.saturating_sub(seeded.bytes);
    }
    for (superstep, (mut s, active)) in steps.into_iter().zip(active).enumerate() {
        s.superstep = superstep;
        s.active_fragments = active.len();
        metrics.push_superstep(s);
    }
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

        fn assemble(
            &self,
            _q: &(),
            _frag: &Fragmentation,
            partials: Vec<MinPartial>,
        ) -> HashMap<VertexId, u64> {
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

    /// `route_and_send` ships a key to every destination `G_P` names, the
    /// last by move and the others as copies, all equal; a mask drops the
    /// destinations it clears.
    #[test]
    fn route_and_send_delivers_equal_copies_to_every_destination() {
        // Vertex 0 (inner border of fragment 0) has an outer copy in each
        // of fragments 1, 2 and 3.
        let outer = [vec![], vec![0], vec![0], vec![0]];
        let inner_border = [vec![0], vec![], vec![], vec![]];
        let gp = FragmentationGraph::new(vec![0, 1, 2, 3], &outer, &inner_border);
        let config = EngineConfig::default();
        let ctx = RunCtx {
            config: &config,
            num_fragments: 4,
            assignment: &[],
            gp: &gp,
            scope: BorderScope::In,
            peval: &[],
            again: Vec::new(),
        };
        let ops: MessageOps<'_, VertexId, Vec<u64>> = MessageOps {
            aggregate: &|_, a, _| a,
            key_size: &|_| 8,
            value_size: &|v| 8 * v.len(),
        };
        let t = BarrierTransport::new(4, ops);
        route_and_send(&ctx, &t, 0, 0, vec![(0, vec![7, 8])], None);
        assert_eq!(t.flush().messages, 3);
        for dest in [1, 2, 3] {
            assert_eq!(t.drain(dest).updates, vec![(0, vec![7, 8])], "{dest}");
        }
        let mask = [true, true, false, true];
        route_and_send(&ctx, &t, 0, 1, vec![(0, vec![9])], Some(&mask));
        assert_eq!(t.flush().messages, 2);
        assert!(!t.has_pending(2), "masked out");
        for dest in [1, 3] {
            assert_eq!(t.drain(dest).updates, vec![(0, vec![9])], "{dest}");
        }
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
        assert_one_entry_per_superstep(&result.metrics);
    }

    /// After a recovery the replayed rounds replace the rolled-back ones:
    /// one `per_superstep` entry per superstep index.
    fn assert_one_entry_per_superstep(metrics: &EngineMetrics) {
        let steps: Vec<usize> = metrics.per_superstep.iter().map(|s| s.superstep).collect();
        assert_eq!(steps, (0..metrics.supersteps).collect::<Vec<_>>());
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
        assert_one_entry_per_superstep(&result.metrics);
    }

    /// `MinPropagation`, except that evaluating fragment 0 panics — in PEval
    /// or in IncEval.
    struct PanicsOnFragmentZero {
        in_peval: bool,
    }

    impl PieProgram for PanicsOnFragmentZero {
        type Query = ();
        type Partial = MinPartial;
        type Key = VertexId;
        type Value = u64;
        type Output = HashMap<VertexId, u64>;

        fn peval(&self, q: &(), frag: &Fragment, ctx: &mut Messages<VertexId, u64>) -> MinPartial {
            assert!(!(self.in_peval && frag.id() == 0), "PEval of fragment 0");
            MinPropagation.peval(q, frag, ctx)
        }

        fn inc_eval(
            &self,
            q: &(),
            frag: &Fragment,
            partial: &mut MinPartial,
            messages: &[(VertexId, u64)],
            ctx: &mut Messages<VertexId, u64>,
        ) {
            assert!(frag.id() != 0, "IncEval of fragment 0");
            MinPropagation.inc_eval(q, frag, partial, messages, ctx)
        }

        fn assemble(
            &self,
            q: &(),
            frag: &Fragmentation,
            partials: Vec<MinPartial>,
        ) -> HashMap<VertexId, u64> {
            MinPropagation.assemble(q, frag, partials)
        }

        fn aggregate(&self, key: &VertexId, a: u64, b: u64) -> u64 {
            MinPropagation.aggregate(key, a, b)
        }
    }

    /// A panic inside an evaluation reaches the caller of `run` as a panic,
    /// in both modes and at every width, instead of hanging the run: the
    /// other workers neither wait at a barrier nor spin on quiescence for a
    /// worker that is gone.
    #[test]
    fn a_panicking_evaluation_reaches_the_caller_in_both_modes() {
        for mode in [EngineMode::Sync, EngineMode::Async] {
            for workers in [1, 2] {
                for in_peval in [true, false] {
                    let (tx, rx) = std::sync::mpsc::channel();
                    std::thread::spawn(move || {
                        let frag = RangeEdgeCut::new(4).partition(&ring_graph(32)).unwrap();
                        let session = GrapeSession::builder()
                            .workers(workers)
                            .mode(mode)
                            .build()
                            .unwrap();
                        let program = PanicsOnFragmentZero { in_peval };
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            session.run(&frag, &program, &())
                        }));
                        let message =
                            outcome
                                .err()
                                .map(|payload| match payload.downcast::<&str>() {
                                    Ok(message) => message.to_string(),
                                    Err(payload) => *payload.downcast::<String>().unwrap(),
                                });
                        let _ = tx.send(message);
                    });
                    let case = format!("{mode:?}, {workers} workers, in_peval {in_peval}");
                    let message = rx
                        .recv_timeout(Duration::from_secs(10))
                        .unwrap_or_else(|_| panic!("{case}: the run hung"));
                    let want = if in_peval { "PEval" } else { "IncEval" };
                    assert!(
                        message.is_some_and(|m| m.contains(want)),
                        "{case}: the panic did not reach the caller"
                    );
                }
            }
        }
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

    /// Every fragment evaluates itself `k` more times with no mail: an
    /// evaluation that asks to run again.
    struct Countdown;

    impl PieProgram for Countdown {
        type Query = u32;
        type Partial = u32;
        type Key = VertexId;
        type Value = u64;
        type Output = Vec<u32>;

        fn peval(&self, k: &u32, _frag: &Fragment, ctx: &mut Messages<VertexId, u64>) -> u32 {
            if *k > 0 {
                ctx.run_again();
            }
            0
        }

        fn inc_eval(
            &self,
            k: &u32,
            _frag: &Fragment,
            runs: &mut u32,
            messages: &[(VertexId, u64)],
            ctx: &mut Messages<VertexId, u64>,
        ) {
            assert!(messages.is_empty(), "Countdown sends nothing");
            *runs += 1;
            if *runs < *k {
                ctx.run_again();
            }
        }

        fn assemble(&self, _k: &u32, _frag: &Fragmentation, partials: Vec<u32>) -> Vec<u32> {
            partials
        }

        fn aggregate(&self, _key: &VertexId, a: u64, _b: u64) -> u64 {
            a
        }
    }

    /// Under the barrier a rerun is a round with no mail: it charges no
    /// message, counts as an IncEval call and holds off the fixpoint; a
    /// rollback restores which fragments were due to run again.
    #[test]
    fn an_evaluation_that_asks_runs_again_next_superstep_under_the_barrier() {
        let frag = RangeEdgeCut::new(3).partition(&ring_graph(12)).unwrap();
        let plain = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .build()
            .unwrap();
        let recovering = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .checkpoint_every(1)
            .inject_failure(2, 1)
            .build()
            .unwrap();
        for session in [plain, recovering] {
            let result = session.run(&frag, &Countdown, &4).unwrap();
            assert_eq!(result.output, vec![4, 4, 4]);
            assert_eq!(result.metrics.supersteps, 5);
            assert_eq!(result.metrics.total_messages, 0);
            assert_eq!(result.metrics.peval_calls, 3);
            assert_one_entry_per_superstep(&result.metrics);
        }
        let capped = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(3)
            .build()
            .unwrap();
        let err = capped.run(&frag, &Countdown, &4).unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { max_supersteps: 3 });
    }

    /// Without a barrier there is no next round to run in, so the request
    /// fails the run with a configuration error instead of being dropped.
    #[test]
    fn asking_to_run_again_is_refused_without_a_barrier() {
        let frag = RangeEdgeCut::new(3).partition(&ring_graph(12)).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Async)
            .build()
            .unwrap();
        match session.run(&frag, &Countdown, &4) {
            Err(EngineError::InvalidConfig(reason)) => {
                assert!(reason.contains("EngineMode::Sync"), "{reason}")
            }
            other => panic!("a rerun must be refused under Async, got {other:?}"),
        }
        assert_eq!(session.run(&frag, &Countdown, &0).unwrap().output, [0; 3]);
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
