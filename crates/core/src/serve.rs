//! Serving many prepared queries off **one** delta stream.
//!
//! A single [`crate::prepared::PreparedQuery`] owns its fragmentation, so
//! `K` standing queries over the same evolving graph would apply every
//! `ΔG` `K` times and hold `K` fragment timelines.  The paper's
//! preprocess-once / answer-under-updates protocol (Section 3.4) only pays
//! off at scale when the preparation work — and the per-delta partition
//! maintenance — is **amortized** across all standing queries, the same
//! economy the answering-under-updates literature (Berkholz–Keppeler–
//! Schweikardt and the constant-delay-enumeration line) gets from separating
//! preprocessing from the update/answer loop.
//!
//! [`GrapeServer`] is that amortization layer:
//!
//! * it owns **one** `Arc`-shared [`Fragmentation`] timeline;
//! * [`GrapeServer::register`] prepares a query against the current version
//!   and returns a typed [`QueryHandle`];
//! * [`GrapeServer::apply`] runs `Fragmentation::apply_delta` **exactly
//!   once** per `ΔG` and fans the resulting [`DeltaApplication`] out to
//!   every resident query through its own monotone/retracted/bounded/full
//!   decision table (the crate-internal `PreparedQuery::refresh_from` — the update
//!   path of [`crate::prepared`] with the partition work factored out);
//!   the rebuilt fragment set is shared by all of them via the existing
//!   `Arc<Fragment>` refcounting;
//! * [`GrapeServer::evict`] writes a cold query's **partials** into its
//!   spill file ([`QuerySpillStore`], [`grape_partition::snapshot`]) and
//!   frees them.  Every eviction writes all the partials, one record each,
//!   and replaces the file the previous eviction wrote.  Fragments, `G_P`
//!   and the quotient tables are never written: they are shared structure,
//!   and the evicted query pins its timeline version, which holds them.
//!   The next [`GrapeServer::output`] (or an explicit
//!   [`GrapeServer::rehydrate`]) takes the fragmentation from that version
//!   (an `Arc` clone, no I/O), reads the partials back from the file —
//!   **without re-partitioning and without a single PEval call** — and
//!   replays the deltas that arrived while the query was cold.  The file
//!   is written plainly, without fsync or a staging rename: it is read
//!   only while its query is evicted, a query is evicted only once the
//!   whole file is written, and nothing reads it after the server is gone.
//!
//! The timeline keeps one fragmentation per version only while an evicted
//! query — or a resident one left *behind* by a failed refresh — still
//! needs it for replay (fragment storage is `Arc`-shared across versions,
//! so retaining a version costs one rebuilt-fragment delta, not a copy of
//! the graph); once every query has caught up the history is pruned.
//!
//! Each registered query is in exactly one lifecycle state — resident,
//! behind, evicted or poisoned — and the server decides every operation on
//! it by that state alone.  A failed monotone/retracted/bounded refresh
//! poisons the query (its partials were consumed), and the server
//! quarantines it.  A failed **full** re-preparation leaves the handle
//! consistent at its pre-delta fragmentation, so the query falls behind at
//! its old version and the server replays the retained steps into it —
//! exactly like an evicted query — before its next refresh or `output()`;
//! it is never handed a [`DeltaApplication`] derived from a fragmentation
//! it does not hold.
//!
//! **Concurrency.**  Within one [`GrapeServer::apply`] the per-query
//! refreshes fan out over a scoped worker pool as wide as the session's
//! `refresh_threads`
//! ([`crate::session::GrapeSessionBuilder::refresh_threads`]): each slot
//! owns its partials, the single [`DeltaApplication`] is shared
//! read-only, and the per-slot outcomes are merged into one [`ServeReport`]
//! sorted by handle id — byte-identical regardless of completion order.
//! A watched slot's answer delta is diffed by the worker that just
//! refreshed it, so the diffs of `K` watched queries run as wide as their
//! refreshes instead of one after another behind the join.
//! Everything that needs the whole server (catch-up replay, timeline
//! bookkeeping, pruning) stays serialized around the fan-out.  There is
//! one commit path: [`GrapeServer::apply_batch`] is a loop over
//! [`GrapeServer::apply`], and queries are spilled only by explicit
//! [`GrapeServer::evict`] calls.

use std::any::Any;
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grape_graph::delta::GraphDelta;
use grape_graph::io::{write_value_tree, IoError};
use grape_partition::delta::DeltaApplication;
use grape_partition::fragment::Fragmentation;
use grape_partition::snapshot::{QuerySpillStore, SnapshotError};
use serde::{Deserialize, Serialize, Value};

use crate::engine::EngineError;
use crate::metrics::LatencySummary;
use crate::output_delta::{apply_sorted, DeltaOutput, OutputEvent, QueryDelta, WireOutputDelta};
use crate::prepared::{PreparedQuery, QueryCounters, UpdateReport};
use crate::session::GrapeSession;

/// Process-unique server tokens: stamped into every [`QueryHandle`] so a
/// handle cannot silently operate on a *different* server that happens to
/// hold a same-typed query under the same id, and used to name the default
/// spill directory.
static SERVER_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Errors produced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// An engine error surfaced by prepare/refresh (including
    /// [`EngineError::PoisonedHandle`] for queries wrecked by an earlier
    /// failed refresh).
    Engine(EngineError),
    /// The delta was rejected by the partition layer; the timeline did not
    /// advance.
    Delta(String),
    /// The handle does not belong to this server (or the query type of the
    /// handle does not match the registered entry).
    UnknownHandle(usize),
    /// The query is already evicted.
    AlreadyEvicted(usize),
    /// A spill file could not be written, read back, or decoded.
    Snapshot(SnapshotError),
    /// The subscription does not belong to this server, or was already
    /// cancelled.
    UnknownSubscription(usize),
    /// [`GrapeServer::try_output`] will not answer without work: the query
    /// is evicted (`behind` is `None`) or behind the timeline's head after
    /// a failed full re-preparation (`behind` holds its version and the
    /// head's).  [`GrapeServer::output`] rehydrates or replays instead.
    NotResident {
        query: usize,
        behind: Option<(usize, usize)>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "{e}"),
            ServeError::Delta(reason) => write!(f, "cannot apply graph delta: {reason}"),
            ServeError::UnknownHandle(id) => {
                write!(f, "query handle {id} is not registered with this server")
            }
            ServeError::AlreadyEvicted(id) => write!(f, "query {id} is already evicted"),
            ServeError::Snapshot(e) => write!(f, "{e}"),
            ServeError::UnknownSubscription(id) => {
                write!(f, "subscription {id} is not active on this server")
            }
            ServeError::NotResident {
                query,
                behind: None,
            } => write!(f, "query {query} is evicted; use output or rehydrate"),
            ServeError::NotResident {
                query,
                behind: Some((version, head)),
            } => write!(
                f,
                "query {query} is behind (version {version} of {head}); use output or rehydrate"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Snapshot(SnapshotError::Io(IoError::Io(e)))
    }
}

impl From<IoError> for ServeError {
    fn from(e: IoError) -> Self {
        ServeError::Snapshot(SnapshotError::Io(e))
    }
}

/// A typed handle on a query registered with a [`GrapeServer`].  Cheap to
/// copy; the type parameter lets [`GrapeServer::output`] return the
/// program's real output type without downcasting at the call site, and
/// the embedded server token rejects handles presented to a server they
/// were not issued by.
pub struct QueryHandle<P> {
    server: usize,
    id: usize,
    _marker: PhantomData<fn() -> P>,
}

impl<P> QueryHandle<P> {
    /// The server-scoped query id (stable for the server's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }
}

impl<P> Clone for QueryHandle<P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for QueryHandle<P> {}

impl<P> std::fmt::Debug for QueryHandle<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryHandle({})", self.id)
    }
}

/// One registered query's refresh outcome within a [`ServeReport`].
#[derive(Debug)]
pub struct QueryRefresh {
    /// The query id ([`QueryHandle::id`]).
    pub query: usize,
    /// The query's own [`UpdateReport`] — or the engine error that stopped
    /// it (the server keeps serving the others).  A monotone, retracted or
    /// bounded refresh error poisons the query; a failed **full** re-preparation
    /// leaves it consistent at its pre-delta version, and the server
    /// retains the step and replays it (like an evicted query) before the
    /// next refresh or output.
    pub result: Result<UpdateReport, EngineError>,
}

/// What one [`GrapeServer::apply`] did: one `apply_delta`, then one refresh
/// per resident query.
#[derive(Debug)]
pub struct ServeReport {
    /// Timeline version after this delta.
    pub version: usize,
    /// Fragments the **single** delta application rebuilt — by construction
    /// identical to the `rebuilt` set of every per-query [`UpdateReport`].
    pub rebuilt: Vec<usize>,
    /// Fragments whose `Arc` storage every query keeps sharing verbatim.
    pub reused: usize,
    /// Per-query refresh outcomes, sorted by query id (the concurrent
    /// fan-out completes in arbitrary order; the report never shows it).
    pub refreshed: Vec<QueryRefresh>,
    /// Resident queries that were behind (an earlier full re-preparation
    /// failed) and were caught up by replaying the retained steps before
    /// this delta was applied to them.  Their [`QueryRefresh`] covers this
    /// delta only, not the replay.
    pub caught_up: Vec<usize>,
    /// Evicted queries whose refresh is deferred until rehydration (the
    /// server retains the timeline they will replay from).
    pub deferred: Vec<usize>,
    /// Queries skipped because an earlier failed refresh poisoned them.
    pub poisoned: Vec<usize>,
    /// Answer deltas for subscribed queries, sorted by query id: one
    /// [`OutputEvent::Delta`] per watched resident healthy query per commit
    /// (a catch-up replay folds into the same event), plus one terminal
    /// [`OutputEvent::Poisoned`] the first commit after a watched query is
    /// quarantined.  Also buffered on the server for
    /// [`GrapeServer::drain_events`].
    pub events: Vec<QueryDelta>,
}

impl ServeReport {
    /// Total PEval invocations across every successful per-query refresh —
    /// `0` when the whole delta stream stays on the monotone path.
    pub fn peval_calls(&self) -> usize {
        self.refreshed
            .iter()
            .filter_map(|r| r.result.as_ref().ok())
            .map(|r| r.metrics.peval_calls)
            .sum()
    }
}

/// What one [`GrapeServer::apply_batch`] did: one [`ServeReport`] per
/// committed delta, in stream order, plus the rejection (if any) that
/// stopped the batch.  Commits made before a rejection are durable — the
/// timeline advanced and every resident query refreshed — which is why a
/// batch returns a report instead of an all-or-nothing `Result`.
#[derive(Debug)]
pub struct BatchReport {
    /// One report per committed delta.
    pub reports: Vec<ServeReport>,
    /// Present when the partition layer rejected a delta; everything from
    /// that delta on was not applied.
    pub rejected: Option<BatchRejection>,
}

/// A delta the partition layer rejected mid-batch.
#[derive(Debug)]
pub struct BatchRejection {
    /// Index **into the caller's slice** of the rejected delta.
    pub index: usize,
    /// The partition layer's reason.
    pub reason: String,
}

/// An `io::Write` sink that only counts bytes: measures the serialized size
/// of resident partials ([`QueryStatus::partial_bytes`]) without building
/// the spill image in memory.
#[derive(Default)]
struct ByteCounter {
    bytes: usize,
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// What one [`GrapeServer::rehydrate`] did: the spill reload itself runs
/// zero PEval calls; `replayed` holds the per-delta reports of catching the
/// query up to the current timeline version.
#[derive(Debug)]
pub struct RehydrationReport {
    /// The query id.
    pub query: usize,
    /// One report per delta that arrived while the query was cold.
    pub replayed: Vec<UpdateReport>,
    /// When the query is watched and the replay was non-empty: the **one**
    /// compacted answer delta covering every delta missed while cold (the
    /// key-wise fold of the per-commit stream a resident watcher would have
    /// seen).  Also buffered for [`GrapeServer::drain_events`].
    pub events: Vec<QueryDelta>,
}

impl RehydrationReport {
    /// Total PEval invocations of the replay — `0` when every pending delta
    /// is monotone (and always `0` for an up-to-date evict → rehydrate
    /// round trip).
    pub fn peval_calls(&self) -> usize {
        self.replayed.iter().map(|r| r.metrics.peval_calls).sum()
    }
}

/// A serializable snapshot of one registered query's serving state — one
/// row of [`GrapeServer::query_statuses`], ready for a wire-level `status`
/// or `metrics` endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryStatus {
    /// The query id ([`QueryHandle::id`]).
    pub query: usize,
    /// The timeline version this query's state corresponds to — equals the
    /// server's version unless the query is evicted or behind.
    pub version: usize,
    /// Whether the query currently lives in its spill file.
    pub evicted: bool,
    /// Whether an earlier failed refresh quarantined the query.
    pub poisoned: bool,
    /// Deltas ever absorbed by this query (replays included, exactly once).
    pub updates_applied: usize,
    /// How many of those took the monotone (IncEval-only) path.
    pub incremental_updates: usize,
    /// How many took the bounded path.
    pub bounded_updates: usize,
    /// How many were non-monotone deltas the program absorbed by
    /// retraction (IncEval only, no PEval).
    #[serde(default)]
    pub retracted_updates: usize,
    /// Serialized size of the resident partials (`0` while evicted).
    pub partial_bytes: usize,
    /// Active subscriptions on this query ([`GrapeServer::subscribe`]).
    pub watchers: usize,
    /// Size of the query's spill file in bytes (`0` when the query has
    /// never spilled).
    #[serde(default)]
    pub spill_bytes: u64,
}

/// One step of the timeline: the delta and the `Arc`-shared
/// [`DeltaApplication`] it produced, retained so evicted (or behind)
/// queries can replay the refresh without a second `apply_delta` — and
/// without re-cloning the per-fragment restrictions per replaying query.
struct ServeStep {
    delta: GraphDelta,
    applied: Arc<DeltaApplication>,
}

/// Where one registered query is in its lifecycle.  Every operation on a
/// slot is decided by this value alone.  The transitions are
/// [`Slot::step`] (a refresh succeeds, falls behind or poisons), the spill
/// in [`GrapeServer::evict`], and the reload in [`GrapeServer::rehydrate`]
/// together with its fallback when the replay fails.
/// `docs/ARCHITECTURE.md` §1b tabulates every public operation in every
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Live partials at the timeline's head: every commit either refreshes
    /// the slot or moves it out of this state.
    Resident,
    /// Live partials at an older version: a full re-preparation failed and
    /// left the handle consistent there.  The retained steps are replayed
    /// into it before its next refresh, answer or subscription.
    Behind(usize),
    /// Partials in the slot's spill store, spilled at this version.  The
    /// handle keeps its program, query, counters and fragmentation — whose
    /// fragments and `G_P` are the pinned version's own — and commits
    /// defer it.
    Evicted(usize),
    /// A failed refresh consumed the partials.  The slot never refreshes or
    /// replays again and never pins history; its watchers got the terminal
    /// event when it entered this state.
    Poisoned,
}

impl SlotState {
    /// The timeline version the slot still needs for replay, if any.
    fn pinned(self) -> Option<usize> {
        match self {
            SlotState::Behind(version) | SlotState::Evicted(version) => Some(version),
            SlotState::Resident | SlotState::Poisoned => None,
        }
    }
}

/// Object-safe view of one registered query's handle and watch rows,
/// erasing the program type.  The handle is always there; its partials are
/// released while the slot is evicted.
trait ServedQuery: Send {
    fn refresh(
        &mut self,
        applied: &DeltaApplication,
        delta: &GraphDelta,
    ) -> Result<UpdateReport, EngineError>;
    /// Whether the handle's partials correspond to no graph version (a
    /// refresh consumed them and failed).
    fn is_poisoned(&self) -> bool;
    /// Writes the partials as `store`'s spill file and releases them.
    /// Returns the file's path.
    fn spill(&mut self, store: &mut QuerySpillStore) -> Result<PathBuf, ServeError>;
    /// Loads the partials from `store`'s spill file onto `at`, the timeline
    /// version they were spilled at.  The file stays the entry's recovery
    /// point until the next spill replaces it.
    fn reload(&mut self, at: &Fragmentation, store: &QuerySpillStore) -> Result<(), ServeError>;
    /// Releases the partials again, restores `counters` and clears the
    /// poison flag the failed step may have set: the inverse of a reload
    /// whose replay failed.
    fn unload(&mut self, counters: QueryCounters);
    fn counters(&self) -> &QueryCounters;
    /// Serialized size of the live partials (`0` once released).
    fn partial_bytes(&self) -> usize;
    /// Installs the watch baseline: the canonical rows of the current
    /// answer, against which every later [`ServedQuery::watch_emit`] diffs.
    /// No-op when a watch is already active.
    fn watch_begin(&mut self) -> Result<(), EngineError>;
    /// Drops the watch baseline; returns whether one was active.
    fn watch_end(&mut self) -> bool;
    /// Diffs the current answer against the last-emitted rows, advances
    /// them, and returns the wire delta.  Because the rows only move here,
    /// calling this **once** after a multi-step replay yields the key-wise
    /// fold (the compacted delta) of the stream a per-commit watcher would
    /// have seen.  `None` when no watch is active.
    fn watch_emit(&mut self) -> Option<WireOutputDelta>;
    fn as_any(&self) -> &dyn Any;
}

/// A registered query: its prepared handle plus the canonical rows last
/// emitted to its subscribers.  The rows survive evict → rehydrate round
/// trips (that is what makes the post-rehydration emission the *compacted*
/// delta of everything missed while cold), and a failed replay leaves them
/// at the pre-evict baseline, so the retry re-diffs from the same point.
struct ServedEntry<P: DeltaOutput> {
    prepared: PreparedQuery<P>,
    watch: Option<Vec<(P::OutKey, P::OutVal)>>,
}

impl<P> ServedQuery for ServedEntry<P>
where
    P: DeltaOutput + 'static,
    P::Partial: Serialize + Deserialize,
{
    fn refresh(
        &mut self,
        applied: &DeltaApplication,
        delta: &GraphDelta,
    ) -> Result<UpdateReport, EngineError> {
        self.prepared.refresh_from(applied, delta)
    }

    fn is_poisoned(&self) -> bool {
        self.prepared.is_poisoned()
    }

    fn spill(&mut self, store: &mut QuerySpillStore) -> Result<PathBuf, ServeError> {
        // Write before releasing, so a failed write leaves the partials
        // live and consistent.
        let p = &mut self.prepared;
        let partials: Vec<Value> = p.partials.iter().map(Serialize::to_value).collect();
        let path = store.spill(&p.fragmentation, &partials)?;
        p.partials = Vec::new();
        Ok(path)
    }

    fn reload(&mut self, at: &Fragmentation, store: &QuerySpillStore) -> Result<(), ServeError> {
        let loaded = store.load()?;
        if loaded.partials.len() != at.num_fragments() {
            return Err(ServeError::Snapshot(SnapshotError::Malformed(format!(
                "spill holds {} partials for a {}-fragment timeline",
                loaded.partials.len(),
                at.num_fragments()
            ))));
        }
        let partials: Vec<P::Partial> = loaded
            .partials
            .iter()
            .map(P::Partial::from_value)
            .collect::<Result<_, _>>()
            .map_err(|e| ServeError::Snapshot(SnapshotError::Malformed(e.to_string())))?;
        let p = &mut self.prepared;
        // The version the query was spilled at: its fragments, G_P and
        // quotient-table cell are shared with the timeline, not copied.
        p.fragmentation = at.clone();
        p.partials = partials;
        Ok(())
    }

    fn unload(&mut self, counters: QueryCounters) {
        let p = &mut self.prepared;
        p.partials = Vec::new();
        p.counters = counters;
        p.poisoned = false;
    }

    fn counters(&self) -> &QueryCounters {
        &self.prepared.counters
    }

    fn partial_bytes(&self) -> usize {
        let mut counter = ByteCounter::default();
        for partial in &self.prepared.partials {
            if write_value_tree(&mut counter, &partial.to_value()).is_err() {
                return 0;
            }
        }
        counter.bytes
    }

    fn watch_begin(&mut self) -> Result<(), EngineError> {
        if self.watch.is_none() {
            self.watch = Some(self.prepared.canonical_rows()?);
        }
        Ok(())
    }

    fn watch_end(&mut self) -> bool {
        self.watch.take().is_some()
    }

    fn watch_emit(&mut self) -> Option<WireOutputDelta> {
        let rows = self.watch.as_mut()?;
        let delta = self.prepared.output_delta_since(rows).ok()?;
        let wire = delta.to_wire();
        apply_sorted(rows, &delta);
        Some(wire)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One registered query: its handle, its lifecycle state and its spill
/// store.
struct Slot {
    entry: Box<dyn ServedQuery>,
    state: SlotState,
    /// The query's spill file — created on the first eviction and kept
    /// for the slot's lifetime (a failed replay falls back to it, and the
    /// next evict replaces it).
    store: Option<QuerySpillStore>,
}

impl Slot {
    /// Refreshes a live slot whose handle is at version `from` across one
    /// timeline step; `head` is the newest version once the step is taken.
    /// Success advances the slot (resident once it reaches `head`).  A
    /// failed full re-preparation leaves the handle consistent, so the slot
    /// stays behind at `from`.  Any other failure consumed the partials and
    /// poisons it.
    fn step(
        &mut self,
        applied: &DeltaApplication,
        delta: &GraphDelta,
        from: usize,
        head: usize,
    ) -> Result<UpdateReport, EngineError> {
        let result = self.entry.refresh(applied, delta);
        self.state = match &result {
            Ok(_) if from + 1 == head => SlotState::Resident,
            Ok(_) => SlotState::Behind(from + 1),
            Err(_) if self.entry.is_poisoned() => SlotState::Poisoned,
            Err(_) => SlotState::Behind(from),
        };
        result
    }

    /// What a watched slot owes its subscribers after a step or a replay:
    /// the answer delta since the last emission while resident, and the
    /// terminal [`OutputEvent::Poisoned`] on entering quarantine — once,
    /// because it drops the watch rows.  Nothing while behind or evicted,
    /// so a watcher never sees a partial delta.
    fn emit(&mut self) -> Option<OutputEvent> {
        match self.state {
            SlotState::Resident => self.entry.watch_emit().map(OutputEvent::Delta),
            SlotState::Poisoned => self.entry.watch_end().then_some(OutputEvent::Poisoned),
            SlotState::Behind(_) | SlotState::Evicted(_) => None,
        }
    }
}

/// An active answer-delta subscription on a [`GrapeServer`] query (see
/// [`GrapeServer::subscribe`]).  Cheap to copy; stamped with the server
/// token like a [`QueryHandle`], so a foreign id is rejected instead of
/// silently cancelling someone else's subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionId {
    server: usize,
    id: usize,
}

impl SubscriptionId {
    /// The server-scoped subscription id (stable for the server's
    /// lifetime).
    pub fn id(&self) -> usize {
        self.id
    }
}

/// One slot's share of a commit's fan-out: its id, its refresh outcome, and
/// the event it owes its watchers ([`Slot::emit`]).
type RefreshOutcome = (
    usize,
    Result<UpdateReport, EngineError>,
    Option<OutputEvent>,
);

/// A server multiplexing many prepared queries over one evolving graph.
/// See the [module docs](self) for the protocol.
pub struct GrapeServer {
    session: GrapeSession,
    /// `timeline[i]` is the fragmentation at version `base + i`; the last
    /// entry is current.  Older versions are retained only while an evicted
    /// query may still replay from them.
    base: usize,
    timeline: Vec<Fragmentation>,
    /// `steps[i]` takes version `base + i` to `base + i + 1`.
    steps: Vec<ServeStep>,
    slots: Vec<Slot>,
    spill_dir: PathBuf,
    /// Whether the server created `spill_dir` itself (the [`GrapeServer::new`]
    /// default) and may therefore delete it wholesale on drop.  A
    /// caller-provided directory is never removed.
    owns_spill_dir: bool,
    /// This server's process-unique token, stamped into every issued
    /// [`QueryHandle`].
    token: usize,
    /// Worker-pipe bytes moved by every registration and successful
    /// refresh (see [`GrapeServer::pipe_bytes`]).
    pipe_bytes: u64,
    /// Per-commit latency samples (see [`GrapeServer::latency_summary`]),
    /// windowed so a long-running server does not grow without bound.
    latencies: Vec<Duration>,
    /// `subs[i]` is the query id subscription `i` watches, `None` once
    /// cancelled.  Ids are never reused, so a stale [`SubscriptionId`]
    /// errors instead of aliasing a newer subscriber.
    subs: Vec<Option<usize>>,
    /// Answer deltas not yet collected by [`GrapeServer::drain_events`] —
    /// the push stream a serving front end forwards to its watchers.
    pending_events: Vec<QueryDelta>,
}

/// Keep at most this many latency samples resident: when the buffer
/// reaches `2 × LATENCY_WINDOW` the older half is dropped, so summaries
/// always cover the most recent `LATENCY_WINDOW..2×LATENCY_WINDOW`
/// commits with amortized O(1) bookkeeping per commit.
const LATENCY_WINDOW: usize = 4096;

impl GrapeServer {
    /// A server over `fragmentation`, spilling evicted queries under a
    /// process-unique directory inside the system temp dir (removed when
    /// the server is dropped).
    pub fn new(session: GrapeSession, fragmentation: Fragmentation) -> Self {
        let mut server = GrapeServer::with_spill_dir(session, fragmentation, PathBuf::new());
        server.spill_dir = std::env::temp_dir().join(format!(
            "grape-server-{}-{}",
            std::process::id(),
            server.token
        ));
        server.owns_spill_dir = true;
        server
    }

    /// A server with an explicit spill directory (created lazily on the
    /// first eviction, left in place on drop).
    pub fn with_spill_dir(
        session: GrapeSession,
        fragmentation: Fragmentation,
        spill_dir: PathBuf,
    ) -> Self {
        GrapeServer {
            session,
            base: 0,
            timeline: vec![fragmentation],
            steps: Vec::new(),
            slots: Vec::new(),
            spill_dir,
            owns_spill_dir: false,
            token: SERVER_SEQ.fetch_add(1, Ordering::Relaxed),
            pipe_bytes: 0,
            latencies: Vec::new(),
            subs: Vec::new(),
            pending_events: Vec::new(),
        }
    }

    /// The directory evicted queries spill into.
    pub fn spill_dir(&self) -> &Path {
        &self.spill_dir
    }

    /// Bytes moved over `grape-worker` pipes since the server started: the
    /// sum of [`crate::metrics::EngineMetrics::pipe_bytes`] over every registration and
    /// every successful refresh (commits, catch-ups, rehydration replays).
    /// Always `0` unless the session runs `TransportSpec::Process`.
    pub fn pipe_bytes(&self) -> u64 {
        self.pipe_bytes
    }

    /// The current fragmentation (the newest timeline version).
    pub fn fragmentation(&self) -> &Fragmentation {
        self.timeline.last().expect("timeline is never empty")
    }

    /// The current timeline version — the number of deltas applied, each
    /// to the shared fragmentation exactly once regardless of how many
    /// queries are registered.
    pub fn version(&self) -> usize {
        self.base + self.timeline.len() - 1
    }

    /// Serialized size of every resident query's partials (the sum of
    /// [`QueryStatus::partial_bytes`]).
    pub fn resident_partial_bytes(&self) -> usize {
        self.slots.iter().map(|s| s.entry.partial_bytes()).sum()
    }

    /// How many timeline versions are currently retained — `1` when every
    /// query is caught up, more only while evicted queries still need older
    /// versions for replay.
    pub fn retained_versions(&self) -> usize {
        self.timeline.len()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently evicted queries.
    pub fn num_evicted(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Evicted(_)))
            .count()
    }

    /// Records one per-commit latency sample, windowed: when the buffer
    /// reaches `2 × LATENCY_WINDOW` the older half is dropped (amortized
    /// O(1) per commit), so [`GrapeServer::latency_summary`] always covers
    /// the most recent commits.
    fn record_latency(&mut self, elapsed: Duration) {
        if self.latencies.len() >= 2 * LATENCY_WINDOW {
            self.latencies.drain(..LATENCY_WINDOW);
        }
        self.latencies.push(elapsed);
    }

    /// A [`LatencySummary`] (mean / p50 / p99 / max) over the per-commit
    /// latencies this server recorded itself — one sample per commit, from
    /// delta arrival (before `apply_delta`) to the end of the refresh
    /// fan-out.  Only the most
    /// recent window of commits is retained (see
    /// [`GrapeServer::latency_samples`] for the live sample count), so a
    /// long-running server reports recent behaviour, not its lifetime
    /// average.  The summary is `Serialize`, ready for a metrics endpoint.
    pub fn latency_summary(&self) -> LatencySummary {
        LatencySummary::from_durations(&self.latencies)
    }

    /// Number of latency samples currently retained (≤ 2 × 4096).
    pub fn latency_samples(&self) -> usize {
        self.latencies.len()
    }

    /// The retained raw per-commit latency samples, in milliseconds —
    /// the full vector behind [`GrapeServer::latency_summary`], for
    /// endpoints that only ship it on explicit request.
    pub fn latency_samples_ms(&self) -> Vec<f64> {
        self.latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect()
    }

    /// A serializable snapshot of one registered query's serving state, or
    /// `None` when no query `id` is registered.  Works off the type-erased
    /// slot, so it needs no handle and covers evicted and poisoned queries
    /// too; it serializes only this query's partials (for
    /// [`QueryStatus::partial_bytes`]).
    pub fn query_status(&self, id: usize) -> Option<QueryStatus> {
        let slot = self.slots.get(id)?;
        let counters = slot.entry.counters();
        Some(QueryStatus {
            query: id,
            version: slot.state.pinned().unwrap_or_else(|| self.version()),
            evicted: matches!(slot.state, SlotState::Evicted(_)),
            poisoned: slot.state == SlotState::Poisoned,
            updates_applied: counters.updates_applied,
            incremental_updates: counters.incremental_updates,
            bounded_updates: counters.bounded_updates,
            retracted_updates: counters.retracted_updates,
            partial_bytes: slot.entry.partial_bytes(),
            watchers: self.watcher_count(id),
            spill_bytes: slot.store.as_ref().map_or(0, QuerySpillStore::bytes),
        })
    }

    /// [`GrapeServer::query_status`] of every registered query, sorted by
    /// query id — the per-query rows behind a `status` / `metrics`
    /// endpoint.
    pub fn query_statuses(&self) -> Vec<QueryStatus> {
        (0..self.slots.len())
            .filter_map(|id| self.query_status(id))
            .collect()
    }

    /// Registers a standing query: prepares it (PEval + IncEval to the
    /// fixpoint) against the **current** timeline version and retains the
    /// handle.  The partial-result type must round-trip through the serde
    /// value encoding so the query can be evicted.
    pub fn register<P>(&mut self, program: P, query: P::Query) -> Result<QueryHandle<P>, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        let prepared = self
            .session
            .prepare(self.fragmentation().clone(), program, query)?;
        self.pipe_bytes += prepared.prepare_metrics().pipe_bytes as u64;
        let id = self.slots.len();
        self.slots.push(Slot {
            entry: Box::new(ServedEntry {
                prepared,
                watch: None,
            }),
            state: SlotState::Resident,
            store: None,
        });
        Ok(QueryHandle {
            server: self.token,
            id,
            _marker: PhantomData,
        })
    }

    /// Subscribes to the query's answer deltas: every later commit (and
    /// every post-eviction rehydration) pushes one [`QueryDelta`] for it
    /// into [`ServeReport::events`] / [`GrapeServer::drain_events`].  The
    /// baseline is the query's **current** answer — the query is brought
    /// resident and caught up first, so replaying the event stream over the
    /// answer observed at subscribe time always reproduces `output()`.
    /// Subscribing to a poisoned query errors (its stream would only ever
    /// hold the terminal event).
    pub fn subscribe<P>(&mut self, handle: &QueryHandle<P>) -> Result<SubscriptionId, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        self.rehydrate(handle)?;
        let slot = &mut self.slots[handle.id];
        if slot.state == SlotState::Poisoned {
            return Err(ServeError::Engine(EngineError::PoisonedHandle));
        }
        slot.entry.watch_begin().map_err(ServeError::Engine)?;
        let id = self.subs.len();
        self.subs.push(Some(handle.id));
        Ok(SubscriptionId {
            server: self.token,
            id,
        })
    }

    /// Cancels a subscription.  When the last subscriber of a query leaves,
    /// its watch state is dropped and the server stops computing answer
    /// deltas for it.
    pub fn unsubscribe(&mut self, sub: SubscriptionId) -> Result<(), ServeError> {
        if sub.server != self.token {
            return Err(ServeError::UnknownSubscription(sub.id));
        }
        let query = self
            .subs
            .get_mut(sub.id)
            .and_then(Option::take)
            .ok_or(ServeError::UnknownSubscription(sub.id))?;
        if self.watcher_count(query) == 0 {
            self.slots[query].entry.watch_end();
        }
        Ok(())
    }

    /// Active subscriptions on query `id`.
    pub fn watcher_count(&self, id: usize) -> usize {
        self.subs.iter().flatten().filter(|&&q| q == id).count()
    }

    /// Takes every answer delta produced since the last drain (by commits,
    /// rehydrations and lazy `output()` rehydrations), in production order —
    /// within one commit sorted by query id.  This is the stream a serving
    /// front end fans out to its watchers.
    pub fn drain_events(&mut self) -> Vec<QueryDelta> {
        std::mem::take(&mut self.pending_events)
    }

    /// Applies one `ΔG` to the shared fragmentation — **one**
    /// `Fragmentation::apply_delta` call, one rebuilt-fragment set — and
    /// refreshes every resident query from it.  Evicted queries are
    /// deferred (they replay on rehydration); queries poisoned by an
    /// earlier failed refresh are skipped.  A query whose monotone,
    /// retracted or bounded refresh errors is reported in [`ServeReport::refreshed`] and
    /// poisoned; a query whose **full** re-preparation errors stays
    /// consistent at its pre-delta version, and the server retains this
    /// step and replays it into the query before its next refresh or
    /// output.  The server and the other queries keep going either way.
    pub fn apply(&mut self, delta: &GraphDelta) -> Result<ServeReport, ServeError> {
        let started = Instant::now();
        let applied = self
            .fragmentation()
            .apply_delta(delta)
            .map_err(|e| ServeError::Delta(e.to_string()))?;
        Ok(self.commit(Arc::new(applied), delta, started))
    }

    /// Applies a delta stream: one [`GrapeServer::apply`] per delta, in
    /// order, on the calling thread.
    ///
    /// A rejected delta stops the batch: everything committed before it is
    /// durable and reported, the rejection carries the caller-slice index
    /// of the offending delta, and nothing after it is applied — which is
    /// why this returns a [`BatchReport`] rather than an all-or-nothing
    /// `Result`.  Per-query refresh *failures* never stop a batch (exactly
    /// as in [`GrapeServer::apply`], they are recorded in the delta's
    /// [`ServeReport`] and the failed slot keeps its true version).
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> BatchReport {
        let mut reports = Vec::with_capacity(deltas.len());
        let mut rejected = None;
        for (index, delta) in deltas.iter().enumerate() {
            match self.apply(delta) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    let reason = match e {
                        ServeError::Delta(reason) => reason,
                        other => other.to_string(),
                    };
                    rejected = Some(BatchRejection { index, reason });
                    break;
                }
            }
        }
        BatchReport { reports, rejected }
    }

    /// One commit: fans `applied` out to every ready resident query (on up
    /// to the session's `refresh_threads` scoped workers), merges the
    /// outcomes into an id-sorted [`ServeReport`], and advances the
    /// timeline.  Everything except the refreshes and the watched slots'
    /// answer diffs — catch-up replay, state transitions,
    /// retention/pruning — runs on the calling thread.  `started` marks
    /// when [`GrapeServer::apply`] began working on this delta (before
    /// `apply_delta`); the elapsed time is recorded as one latency sample.
    fn commit(
        &mut self,
        applied: Arc<DeltaApplication>,
        delta: &GraphDelta,
        started: Instant,
    ) -> ServeReport {
        let current = self.version();
        let rebuilt: Vec<usize> = applied.affected.iter().map(|fd| fd.fragment).collect();
        let reused = applied.fragmentation.num_fragments() - rebuilt.len();
        let new_version = current + 1;

        let mut refreshed = Vec::new();
        let mut caught_up = Vec::new();
        let mut deferred = Vec::new();
        let mut poisoned = Vec::new();
        let mut events: Vec<QueryDelta> = Vec::new();
        // Sequential pre-pass: classify every slot by its state, catching
        // up the behind ones (replay needs the whole server — the timeline
        // and its steps — so it cannot ride the fan-out).
        let mut ready = Vec::new();
        for id in 0..self.slots.len() {
            match self.slots[id].state {
                SlotState::Resident => ready.push(id),
                SlotState::Evicted(_) => deferred.push(id),
                SlotState::Poisoned => poisoned.push(id),
                // `refresh_from` requires the query's fragmentation to be
                // the one `applied` was derived from, so replay first.
                SlotState::Behind(_) => match self.replay(id) {
                    Ok(_) => {
                        caught_up.push(id);
                        ready.push(id);
                    }
                    Err(e) => {
                        // Still behind, or freshly poisoned — either way
                        // this delta cannot be applied to it yet.
                        if let Some(event) = self.slots[id].emit() {
                            events.push(QueryDelta {
                                query: id,
                                version: new_version,
                                event,
                            });
                        }
                        refreshed.push(QueryRefresh {
                            query: id,
                            result: Err(e),
                        });
                    }
                },
            }
        }

        // Concurrent fan-out: each ready slot refreshes against the shared
        // read-only DeltaApplication with exclusive access to its own
        // partials — and, when watched, diffs its answer on the same
        // worker, so the K diffs run `refresh_threads`-wide too.
        let results = Self::refresh_ready(
            &mut self.slots,
            &ready,
            self.session.config().refresh_threads,
            &applied,
            delta,
            current,
        );
        for (id, result, event) in results {
            if let Ok(report) = &result {
                self.pipe_bytes += report.metrics.pipe_bytes as u64;
            }
            if let Some(event) = event {
                events.push(QueryDelta {
                    query: id,
                    version: new_version,
                    event,
                });
            }
            refreshed.push(QueryRefresh { query: id, result });
        }
        // Deterministic report regardless of fan-out completion order, and
        // with the pre-pass's failed replays merged among the refreshes.
        refreshed.sort_by_key(|q| q.query);
        events.sort_by_key(|e| e.query);
        self.pending_events.extend(events.iter().cloned());

        if self.slots.iter().all(|s| s.state.pinned().is_none()) {
            // Hot path — everyone is resident and caught up, so no query
            // can ever need this step for replay: advance the timeline in
            // place without retaining (or cloning) the delta.
            self.base = new_version;
            self.timeline.clear();
            self.timeline.push(applied.fragmentation.clone());
            self.steps.clear();
        } else {
            // Someone — evicted, or resident but behind — may still replay
            // this step: retain the shared application itself (an `Arc`
            // bump, not a copy of the per-fragment restrictions).
            self.timeline.push(applied.fragmentation.clone());
            self.steps.push(ServeStep {
                delta: delta.clone(),
                applied,
            });
            self.prune();
        }
        self.record_latency(started.elapsed());
        ServeReport {
            version: new_version,
            rebuilt,
            reused,
            refreshed,
            caught_up,
            deferred,
            poisoned,
            events,
        }
    }

    /// Refreshes the ready slots, fanning out over up to `threads` scoped
    /// workers pulling from one shared queue.  Every ready slot is resident
    /// at `current`.  The worker that refreshed a slot also collects the
    /// event it owes its watchers ([`Slot::emit`]): one answer delta per
    /// watched query per commit, only after a successful refresh, so a
    /// failed one never advances the watch rows; a catch-up replay the
    /// commit's pre-pass performed folds into the same emission.  Returns
    /// `(id, outcome, event)` triples in completion order (the caller
    /// sorts the merged report).  An associated function
    /// over the slot slice (not `&mut self`) so the commit loop above can
    /// keep borrowing the rest of the server.
    fn refresh_ready(
        slots: &mut [Slot],
        ready: &[usize],
        threads: usize,
        applied: &DeltaApplication,
        delta: &GraphDelta,
        current: usize,
    ) -> Vec<RefreshOutcome> {
        let refresh_one = |id: usize, slot: &mut Slot| -> RefreshOutcome {
            let result = slot.step(applied, delta, current, current + 1);
            (id, result, slot.emit())
        };
        let width = threads.max(1).min(ready.len());
        if width <= 1 {
            return ready
                .iter()
                .map(|&id| refresh_one(id, &mut slots[id]))
                .collect();
        }
        // `ready` is ascending by construction, so membership is a binary
        // search away and the job list keeps slot order (workers may still
        // finish out of order; `commit` sorts what it reports).
        let jobs: Vec<(usize, &mut Slot)> = slots
            .iter_mut()
            .enumerate()
            .filter(|(id, _)| ready.binary_search(id).is_ok())
            .collect();
        let queue = std::sync::Mutex::new(jobs.into_iter());
        let results = std::sync::Mutex::new(Vec::with_capacity(ready.len()));
        std::thread::scope(|scope| {
            for _ in 0..width {
                scope.spawn(|| loop {
                    let job = queue.lock().expect("refresh queue lock").next();
                    let Some((id, slot)) = job else { break };
                    let outcome = refresh_one(id, slot);
                    results.lock().expect("refresh results lock").push(outcome);
                });
            }
        });
        results.into_inner().expect("refresh results lock")
    }

    /// Replays the retained steps into slot `id` while it is behind: until
    /// it reaches the head (resident), a step fails (still behind), or a
    /// step poisons it.  A slot in any other state has nothing to replay.
    /// Returns one report per replayed step.
    fn replay(&mut self, id: usize) -> Result<Vec<UpdateReport>, EngineError> {
        let head = self.version();
        let mut replayed = Vec::new();
        while let SlotState::Behind(from) = self.slots[id].state {
            // The timeline already holds every post-delta application, so
            // no step runs apply_delta again — and the retained `Arc`
            // means replaying copies none of the per-fragment restrictions.
            let step = &self.steps[from - self.base];
            let report = self.slots[id].step(&step.applied, &step.delta, from, head)?;
            self.pipe_bytes += report.metrics.pipe_bytes as u64;
            replayed.push(report);
        }
        Ok(replayed)
    }

    /// Writes a cold query's partials as its spill file, replacing the
    /// previous one, and frees them.  The server retains the timeline
    /// version the query was last refreshed at — the fragmentation the
    /// partials belong to — so a later rehydration replays only the deltas
    /// that arrived in between.  A failed write leaves the query as it was,
    /// partials included.  Returns the path of the file written.
    pub fn evict<P>(&mut self, handle: &QueryHandle<P>) -> Result<PathBuf, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        let id = handle.id;
        // The version the spilled partials belong to.
        let at = match self.slots[id].state {
            SlotState::Resident => self.version(),
            SlotState::Behind(version) => version,
            SlotState::Evicted(_) => return Err(ServeError::AlreadyEvicted(id)),
            SlotState::Poisoned => return Err(ServeError::Engine(EngineError::PoisonedHandle)),
        };
        let slot = &mut self.slots[id];
        if slot.store.is_none() {
            slot.store = Some(QuerySpillStore::create(&self.spill_dir, id)?);
        }
        let store = slot.store.as_mut().expect("created above");
        // A failed write leaves the partials live, so the state stands.
        let path = slot.entry.spill(store)?;
        slot.state = SlotState::Evicted(at);
        Ok(path)
    }

    /// Reloads an evicted query — its partials from the spill store, its
    /// fragmentation from the retained timeline version it was spilled at;
    /// zero PEval calls, no re-partitioning — and replays the deltas
    /// applied while it was cold (again without any `apply_delta`).  On a
    /// replay error the entry falls back to the on-disk partials — still
    /// evicted at its spill version, retryable — instead of being left
    /// resident with half-replayed state.
    ///
    /// On a **behind** query this replays the steps it missed (after a
    /// failed full re-preparation); on a resident or poisoned one it is a
    /// no-op returning an empty report.
    pub fn rehydrate<P>(&mut self, handle: &QueryHandle<P>) -> Result<RehydrationReport, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        let id = handle.id;
        let spilled = match self.slots[id].state {
            SlotState::Evicted(at) => Some((at, self.reload(id, at)?)),
            SlotState::Resident | SlotState::Behind(_) | SlotState::Poisoned => None,
        };
        let replayed = match self.replay(id) {
            Ok(replayed) => replayed,
            Err(e) => {
                let version = self.version();
                let slot = &mut self.slots[id];
                if let Some((at, counters)) = spilled {
                    // The in-memory state is half-replayed or poisoned; the
                    // on-disk store is the valid recovery point, so fall
                    // back to it — counters included, so a retry that
                    // replays the whole pending stream never double-counts
                    // the prefix that succeeded this time.  The watch rows
                    // were never advanced, so subscribers saw no partial
                    // delta and the retry re-diffs from the pre-evict
                    // baseline.
                    slot.entry.unload(counters);
                    slot.state = SlotState::Evicted(at);
                } else {
                    // Still behind, or freshly poisoned: then it no longer
                    // pins the history it failed to replay.
                    if let Some(event) = slot.emit() {
                        self.pending_events.push(QueryDelta {
                            query: id,
                            version,
                            event,
                        });
                    }
                    self.prune();
                }
                return Err(ServeError::Engine(e));
            }
        };
        if spilled.is_some() || !replayed.is_empty() {
            self.prune();
        }
        // One compacted answer delta for the whole replayed stream: the
        // watch rows last advanced at the previous emission.
        let mut events = Vec::new();
        if !replayed.is_empty() {
            if let Some(event) = self.slots[id].emit() {
                events.push(QueryDelta {
                    query: id,
                    version: self.version(),
                    event,
                });
            }
            self.pending_events.extend(events.iter().cloned());
        }
        Ok(RehydrationReport {
            query: id,
            replayed,
            events,
        })
    }

    /// Loads evicted slot `id`'s partials onto the timeline version `at`
    /// they were spilled at, leaving the slot resident when `at` is the
    /// head and behind otherwise.  Returns the counters the spill
    /// corresponds to, for a failed replay to fall back to.
    fn reload(&mut self, id: usize, at: usize) -> Result<QueryCounters, ServeError> {
        let head = self.version();
        let slot = &mut self.slots[id];
        let store = slot.store.as_ref().expect("evicted slots keep a store");
        slot.entry.reload(&self.timeline[at - self.base], store)?;
        slot.state = if at == head {
            SlotState::Resident
        } else {
            SlotState::Behind(at)
        };
        Ok(slot.entry.counters().clone())
    }

    /// Assembles the query's current answer, lazily rehydrating it first if
    /// it was evicted (or replaying the steps it is behind on).
    pub fn output<P>(&mut self, handle: &QueryHandle<P>) -> Result<P::Output, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.rehydrate(handle)?;
        self.try_output(handle)
    }

    /// The query's current answer when it can be given with no rehydration
    /// and no replay: [`ServeError::NotResident`] while the query is
    /// evicted or behind, [`EngineError::PoisonedHandle`] once it is
    /// poisoned.  [`GrapeServer::output`] does the work instead.
    pub fn try_output<P>(&self, handle: &QueryHandle<P>) -> Result<P::Output, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        let entry = self.entry_ref::<P>(handle)?;
        let query = handle.id;
        match self.slots[query].state {
            SlotState::Resident => entry.prepared.try_output().map_err(ServeError::Engine),
            SlotState::Behind(version) => Err(ServeError::NotResident {
                query,
                behind: Some((version, self.version())),
            }),
            SlotState::Evicted(_) => Err(ServeError::NotResident {
                query,
                behind: None,
            }),
            SlotState::Poisoned => Err(ServeError::Engine(EngineError::PoisonedHandle)),
        }
    }

    /// Borrow of the [`PreparedQuery`] behind a handle — `Ok(None)` while
    /// the query is evicted, [`ServeError::UnknownHandle`] when the handle
    /// was not issued by this server (or its query type does not match),
    /// so misuse surfaces instead of aliasing the evicted case.  Useful for
    /// metrics and tests (e.g. pinning that all handles share one fragment
    /// storage).
    pub fn prepared<P>(
        &self,
        handle: &QueryHandle<P>,
    ) -> Result<Option<&PreparedQuery<P>>, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        let entry = self.entry_ref::<P>(handle)?;
        Ok(match self.slots[handle.id].state {
            SlotState::Evicted(_) => None,
            SlotState::Resident | SlotState::Behind(_) | SlotState::Poisoned => {
                Some(&entry.prepared)
            }
        })
    }

    /// Whether the query behind `handle` is currently evicted.
    pub fn is_evicted<P>(&self, handle: &QueryHandle<P>) -> Result<bool, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        Ok(matches!(self.slots[handle.id].state, SlotState::Evicted(_)))
    }

    fn check_handle<P>(&self, handle: &QueryHandle<P>) -> Result<(), ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.entry_ref::<P>(handle).map(|_| ())
    }

    fn entry_ref<P>(&self, handle: &QueryHandle<P>) -> Result<&ServedEntry<P>, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        if handle.server != self.token {
            return Err(ServeError::UnknownHandle(handle.id));
        }
        self.slots
            .get(handle.id)
            .and_then(|s| s.entry.as_any().downcast_ref::<ServedEntry<P>>())
            .ok_or(ServeError::UnknownHandle(handle.id))
    }

    /// Drops timeline versions no query can need anymore: everything older
    /// than the oldest version a behind or evicted slot still pins.
    fn prune(&mut self) {
        let needed = self
            .slots
            .iter()
            .filter_map(|s| s.state.pinned())
            .min()
            .unwrap_or_else(|| self.version());
        if needed > self.base {
            let k = needed - self.base;
            self.timeline.drain(..k);
            self.steps.drain(..k);
            self.base = needed;
        }
    }
}

impl Drop for GrapeServer {
    fn drop(&mut self) {
        // Reclaim spill files of queries still evicted at shutdown — but
        // only from the directory this server created itself; a
        // caller-provided spill directory is never touched.
        if self.owns_spill_dir {
            let _ = std::fs::remove_dir_all(&self.spill_dir);
        }
    }
}

impl std::fmt::Debug for GrapeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GrapeServer")
            .field("version", &self.version())
            .field("queries", &self.slots.len())
            .field("evicted", &self.num_evicted())
            .field("retained_versions", &self.timeline.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineMode;
    use crate::prepared::RefreshKind;
    use crate::test_support::{
        path_graph, session, DivergingOnUpdate, MinForward, TrippablePrepare,
    };
    use grape_partition::edge_cut::RangeEdgeCut;
    use grape_partition::strategy::PartitionStrategy;

    fn server_with(
        n_queries: usize,
        mode: EngineMode,
    ) -> (GrapeServer, Vec<QueryHandle<MinForward>>) {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let mut server = GrapeServer::new(session(mode), frag);
        let handles = (0..n_queries)
            .map(|_| server.register(MinForward, ()).unwrap())
            .collect();
        (server, handles)
    }

    #[test]
    fn one_apply_per_delta_is_shared_by_every_query() {
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let (mut server, handles) = server_with(3, mode);
            assert_eq!(server.num_queries(), 3);

            // A monotone insert, then a bounded deletion.
            let deltas = [
                GraphDelta::new().add_edge(0, 2),
                GraphDelta::new().remove_edge(5, 6),
            ];
            for (d, delta) in deltas.iter().enumerate() {
                let report = server.apply(delta).unwrap();
                assert_eq!(report.version, d + 1, "{mode:?}");
                assert_eq!(report.refreshed.len(), 3, "{mode:?}");
                // The single delta application's rebuilt set IS every
                // query's rebuilt set.
                for qr in &report.refreshed {
                    let ur = qr.result.as_ref().unwrap();
                    assert_eq!(ur.rebuilt, report.rebuilt, "{mode:?}");
                    assert_eq!(ur.reused, report.reused, "{mode:?}");
                }
            }
            assert_eq!(server.version(), 2);
            assert_eq!(server.retained_versions(), 1, "nothing evicted: pruned");

            // Every handle shares the server's (single) fragment storage.
            for h in &handles {
                let prepared = server.prepared(h).unwrap().unwrap();
                for i in 0..server.fragmentation().num_fragments() {
                    assert!(
                        server
                            .fragmentation()
                            .shares_fragment_storage(prepared.fragmentation(), i),
                        "query {} fragment {i} was copied ({mode:?})",
                        h.id()
                    );
                }
            }

            // And each answer equals a from-scratch recompute.
            let recompute = session(mode)
                .run(server.fragmentation(), &MinForward, &())
                .unwrap();
            for h in handles {
                assert_eq!(server.output(&h).unwrap(), recompute.output, "{mode:?}");
            }
        }
    }

    #[test]
    fn evict_rehydrate_round_trip_is_exact_and_peval_free() {
        let (mut server, handles) = server_with(2, EngineMode::Sync);
        let (kept, cold) = (handles[0], handles[1]);
        server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        let resident = server.query_status(cold.id()).unwrap().partial_bytes;
        assert!(resident > 0, "resident partials have a measurable size");

        let spill = server.evict(&cold).unwrap();
        assert!(spill.exists());
        assert!(server.is_evicted(&cold).unwrap());
        assert!(
            server.prepared(&cold).unwrap().is_none(),
            "partials were released"
        );
        assert_eq!(server.query_status(cold.id()).unwrap().partial_bytes, 0);
        assert_eq!(
            server.resident_partial_bytes(),
            server.query_status(kept.id()).unwrap().partial_bytes,
            "only the resident query's partials count"
        );

        // Rehydration reads the partials back onto the timeline's
        // fragmentation: no PEval, no re-partitioning, answers identical to
        // the handle that never left memory.
        let report = server.rehydrate(&cold).unwrap();
        assert_eq!(report.replayed.len(), 0);
        assert_eq!(report.peval_calls(), 0);
        assert!(
            spill.exists(),
            "the file stays as the recovery point until the next evict"
        );
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());

        // Evicting again with no step since the last spill rewrites the
        // same file, and it reads back to the same answer.
        assert_eq!(server.evict(&cold).unwrap(), spill);
        let report = server.rehydrate(&cold).unwrap();
        assert_eq!((report.replayed.len(), report.peval_calls()), (0, 0));
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());

        // After a step, the next eviction replaces the file whole: its size
        // is the status row's, and no other file appears.
        server.apply(&GraphDelta::new().add_edge(0, 3)).unwrap();
        assert_eq!(server.evict(&cold).unwrap(), spill);
        let status = &server.query_statuses()[cold.id()];
        assert_eq!(status.spill_bytes, std::fs::metadata(&spill).unwrap().len());
        let files = std::fs::read_dir(spill.parent().unwrap()).unwrap().count();
        assert_eq!(files, 1, "one spill file for the one evicted query");
        server.rehydrate(&cold).unwrap();
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());
    }

    #[test]
    fn memory_budget_policy_respects_recorded_partial_sizes() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        // Measure one query's footprint with a single-query server first.
        let mut probe = GrapeServer::new(session(EngineMode::Sync), frag.clone());
        probe.register(MinForward, ()).unwrap();
        let one = probe.resident_partial_bytes();
        assert!(one > 0, "partials have a measurable size");

        // A budget for one resident query, not two: the caller's policy
        // evicts by the recorded sizes.
        let budget = one + one / 2;
        let mut server = GrapeServer::new(session(EngineMode::Sync), frag);
        let q0 = server.register(MinForward, ()).unwrap();
        assert!(server.resident_partial_bytes() <= budget, "one query fits");
        let q1 = server.register(MinForward, ()).unwrap();
        assert!(server.resident_partial_bytes() > budget, "two do not");
        server.evict(&q0).unwrap();
        assert_eq!(server.num_evicted(), 1);
        assert!(server.is_evicted(&q0).unwrap());
        assert!(!server.is_evicted(&q1).unwrap());
        assert_eq!(server.resident_partial_bytes(), one);
        assert!(server.resident_partial_bytes() <= budget);

        // Deltas arrive while q0 is cold; reading it rehydrates, replays,
        // and matches a recompute.
        let r = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r.deferred, vec![q0.id()]);
        server.apply(&GraphDelta::new().add_edge(3, 7)).unwrap();
        let recompute = session(EngineMode::Sync)
            .run(server.fragmentation(), &MinForward, &())
            .unwrap();
        assert_eq!(server.output(&q0).unwrap(), recompute.output);
        assert_eq!(server.output(&q1).unwrap(), recompute.output);
    }

    /// Rehydration does no fragment I/O: the entry's fragmentation is the
    /// timeline's own version — the same fragment `Arc`s, the same `G_P`,
    /// the same quotient-table cell — and the replay steps it forward
    /// through the timeline too.
    #[test]
    fn rehydration_takes_its_fragmentation_from_the_timeline() {
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let (mut server, handles) = server_with(1, mode);
            let h = handles[0];
            server.apply(&GraphDelta::new().add_edge(0, 5)).unwrap();

            // Up to date: the rehydrated entry holds the spilled version.
            // While evicted it holds no copy of G_P either: its handle's
            // fragmentation is the pinned version's.
            let spilled = server.fragmentation().clone();
            server.evict(&h).unwrap();
            let cold = server.entry_ref::<MinForward>(&h).unwrap();
            assert!(
                std::ptr::eq(cold.prepared.fragmentation().gp(), spilled.gp()),
                "an evicted query shares G_P with the timeline ({mode:?})"
            );
            server.rehydrate(&h).unwrap();
            let frag = server.prepared(&h).unwrap().unwrap().fragmentation();
            for i in 0..spilled.num_fragments() {
                assert!(frag.shares_fragment_storage(&spilled, i), "{mode:?} {i}");
            }
            assert!(std::ptr::eq(frag.gp(), spilled.gp()), "{mode:?}");
            assert!(
                Arc::ptr_eq(&frag.quotient_tables(), &spilled.quotient_tables()),
                "one quotient-table cell per version ({mode:?})"
            );

            // Behind: rehydrate starts from the spilled version and replays
            // onto the current one, still without copying a fragment.
            let spilled = server.fragmentation().clone();
            server.evict(&h).unwrap();
            let applied = server.apply(&GraphDelta::new().add_edge(12, 4)).unwrap();
            assert_eq!(server.rehydrate(&h).unwrap().replayed.len(), 1);
            let frag = server.prepared(&h).unwrap().unwrap().fragmentation();
            for i in 0..frag.num_fragments() {
                assert!(
                    frag.shares_fragment_storage(server.fragmentation(), i),
                    "{mode:?} {i}"
                );
                if !applied.rebuilt.contains(&i) {
                    assert!(frag.shares_fragment_storage(&spilled, i), "{mode:?} {i}");
                }
            }
            assert!(
                std::ptr::eq(frag.gp(), server.fragmentation().gp()),
                "{mode:?}"
            );
        }
    }

    /// A spill write that fails leaves the query resident with its
    /// partials, answering like a query that was never evicted; once the
    /// obstacle is gone the next evict and rehydrate succeed.
    #[test]
    fn failed_spill_write_leaves_the_query_live() {
        let (mut server, handles) = server_with(2, EngineMode::Sync);
        let (kept, cold) = (handles[0], handles[1]);
        let spill = server.evict(&cold).unwrap();
        server.rehydrate(&cold).unwrap();
        // A directory at the spill file's path fails the next write.
        std::fs::remove_file(&spill).unwrap();
        std::fs::create_dir(&spill).unwrap();
        server.apply(&GraphDelta::new().add_edge(0, 7)).unwrap();
        let resident = server.query_status(cold.id()).unwrap().partial_bytes;
        assert!(server.evict(&cold).is_err(), "the write cannot succeed");
        let status = server.query_status(cold.id()).unwrap();
        assert!(!status.evicted && !status.poisoned);
        assert_eq!(status.partial_bytes, resident, "the partials stay live");
        assert_eq!(
            server.try_output(&cold).unwrap(),
            server.output(&kept).unwrap()
        );
        server.apply(&GraphDelta::new().add_edge(12, 4)).unwrap();
        assert_eq!(
            server.try_output(&cold).unwrap(),
            server.output(&kept).unwrap()
        );

        std::fs::remove_dir(&spill).unwrap();
        assert_eq!(server.evict(&cold).unwrap(), spill);
        server.apply(&GraphDelta::new().add_edge(3, 9)).unwrap();
        assert_eq!(server.rehydrate(&cold).unwrap().replayed.len(), 1);
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());
    }

    #[test]
    fn deltas_arriving_while_cold_are_replayed_on_rehydration() {
        let (mut server, handles) = server_with(2, EngineMode::Sync);
        let (kept, cold) = (handles[0], handles[1]);

        server.evict(&cold).unwrap();
        let r1 = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r1.deferred, vec![cold.id()]);
        assert_eq!(r1.refreshed.len(), 1, "only the resident query refreshed");
        let r2 = server.apply(&GraphDelta::new().add_edge(20, 21)).unwrap();
        assert_eq!(r2.deferred, vec![cold.id()]);
        assert!(
            server.retained_versions() > 1,
            "history retained for the cold query"
        );

        // output() lazily rehydrates and replays both deltas — still zero
        // PEval calls, because the pending stream is monotone.
        let report = server.rehydrate(&cold).unwrap();
        assert_eq!(report.replayed.len(), 2);
        assert_eq!(report.peval_calls(), 0);
        assert_eq!(
            report.replayed[0].kind,
            RefreshKind::Monotone,
            "replay takes the same decision table"
        );
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());
        assert_eq!(
            server.retained_versions(),
            1,
            "history pruned once everyone caught up"
        );
    }

    #[test]
    fn eviction_bookkeeping_rejects_misuse() {
        let (mut server, handles) = server_with(1, EngineMode::Sync);
        let h = handles[0];
        server.evict(&h).unwrap();
        assert!(matches!(
            server.evict(&h).unwrap_err(),
            ServeError::AlreadyEvicted(_)
        ));
        // A handle from a DIFFERENT server is rejected even when the other
        // server holds a same-typed query under the same id.
        let (mut other, other_handles) = server_with(1, EngineMode::Sync);
        assert_eq!(h.id(), other_handles[0].id(), "same id, different server");
        assert!(matches!(
            other.output(&h).unwrap_err(),
            ServeError::UnknownHandle(_)
        ));
        // prepared() surfaces the foreign handle instead of aliasing it to
        // the evicted case's None.
        assert!(matches!(
            other.prepared(&h),
            Err(ServeError::UnknownHandle(_))
        ));
        assert!(matches!(
            other.try_output(&h),
            Err(ServeError::UnknownHandle(_))
        ));
        assert!(other.output(&other_handles[0]).is_ok());
    }

    /// A slot's lifecycle state as its status row reports it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        Resident,
        Behind,
        Evicted,
        Poisoned,
    }

    fn seen(server: &GrapeServer, id: usize) -> Seen {
        let status = server.query_status(id).unwrap();
        match (status.evicted, status.poisoned) {
            (true, _) => Seen::Evicted,
            (_, true) => Seen::Poisoned,
            _ if status.version == server.version() => Seen::Resident,
            _ => Seen::Behind,
        }
    }

    const OPS: [&str; 7] = [
        "apply",
        "evict",
        "rehydrate",
        "output",
        "try_output",
        "subscribe",
        "query_status",
    ];

    /// Runs `op` on the query and names its outcome: how the commit's report
    /// lists the query for `apply`, the error for a refused call.
    fn run_op<P>(server: &mut GrapeServer, h: QueryHandle<P>, op: &str) -> &'static str
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        let result = match op {
            "apply" => {
                let r = server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
                let refreshed = r.refreshed.iter().find(|q| q.query == h.id());
                return if r.caught_up.contains(&h.id()) {
                    "caught-up"
                } else if r.deferred.contains(&h.id()) {
                    "deferred"
                } else if r.poisoned.contains(&h.id()) {
                    "skipped"
                } else if refreshed.is_some_and(|q| q.result.is_ok()) {
                    "refreshed"
                } else {
                    "failed"
                };
            }
            "evict" => server.evict(&h).map(drop),
            "rehydrate" => server.rehydrate(&h).map(drop),
            "output" => server.output(&h).map(drop),
            "try_output" => server.try_output(&h).map(drop),
            "subscribe" => server.subscribe(&h).map(drop),
            "query_status" => server
                .query_status(h.id())
                .map(drop)
                .ok_or(ServeError::UnknownHandle(h.id())),
            _ => unreachable!("unknown op {op}"),
        };
        match result {
            Ok(()) => "ok",
            Err(ServeError::AlreadyEvicted(_)) => "already-evicted",
            Err(ServeError::NotResident { .. }) => "not-resident",
            Err(ServeError::Engine(EngineError::PoisonedHandle)) => "poisoned",
            Err(e) => panic!("{op}: unexpected {e}"),
        }
    }

    /// A fresh server holding one query in `state`, one commit past
    /// registration: resident (healthy), behind (its full re-preparation
    /// failed, then the program healed), evicted before the commit, or
    /// poisoned by it.
    fn lifecycle_fixture(
        state: Seen,
    ) -> (
        GrapeServer,
        Result<QueryHandle<TrippablePrepare>, QueryHandle<DivergingOnUpdate>>,
    ) {
        let frag = RangeEdgeCut::new(3)
            .partition(&crate::test_support::ring_graph(12))
            .unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s, frag);
        let delta = GraphDelta::new().add_edge(0, 2);
        // `Err` carries the poisoned fixture's `DivergingOnUpdate` handle.
        let handle = if state == Seen::Poisoned {
            let h = server.register(DivergingOnUpdate, ()).unwrap();
            server.apply(&delta).unwrap();
            Err(h)
        } else {
            let program = TrippablePrepare::new();
            let h = server.register(program.clone(), ()).unwrap();
            match state {
                Seen::Behind => program.trip(),
                Seen::Evicted => drop(server.evict(&h).unwrap()),
                _ => {}
            }
            server.apply(&delta).unwrap();
            program.heal();
            Ok(h)
        };
        (server, handle)
    }

    /// Every public operation in every lifecycle state: what it answers,
    /// and the state it leaves the query in (read off its status row).
    /// The same table is in `docs/ARCHITECTURE.md` §1b.
    #[test]
    fn every_op_in_every_lifecycle_state() {
        use Seen::*;
        let table: [(Seen, [(&str, Seen); 7]); 4] = [
            (
                Resident,
                [
                    ("refreshed", Resident),
                    ("ok", Evicted),
                    ("ok", Resident),
                    ("ok", Resident),
                    ("ok", Resident),
                    ("ok", Resident),
                    ("ok", Resident),
                ],
            ),
            (
                Behind,
                [
                    ("caught-up", Resident),
                    ("ok", Evicted),
                    ("ok", Resident),
                    ("ok", Resident),
                    ("not-resident", Behind),
                    ("ok", Resident),
                    ("ok", Behind),
                ],
            ),
            (
                Evicted,
                [
                    ("deferred", Evicted),
                    ("already-evicted", Evicted),
                    ("ok", Resident),
                    ("ok", Resident),
                    ("not-resident", Evicted),
                    ("ok", Resident),
                    ("ok", Evicted),
                ],
            ),
            (
                Poisoned,
                [
                    ("skipped", Poisoned),
                    ("poisoned", Poisoned),
                    ("ok", Poisoned),
                    ("poisoned", Poisoned),
                    ("poisoned", Poisoned),
                    ("poisoned", Poisoned),
                    ("ok", Poisoned),
                ],
            ),
        ];
        for (state, row) in table {
            for (op, (outcome, after)) in OPS.iter().zip(row) {
                let (mut server, handle) = lifecycle_fixture(state);
                let id = handle.map_or_else(|h| h.id(), |h| h.id());
                assert_eq!(seen(&server, id), state, "fixture");
                let got = match handle {
                    Ok(h) => run_op(&mut server, h, op),
                    Err(h) => run_op(&mut server, h, op),
                };
                assert_eq!(
                    (got, seen(&server, id)),
                    (outcome, after),
                    "{state:?} × {op}"
                );
                // The timeline keeps exactly the versions the query's own
                // version still needs: none past the head unless it pins.
                let version = server.query_status(id).unwrap().version;
                assert_eq!(
                    server.retained_versions(),
                    server.version() - version + 1,
                    "{state:?} × {op}"
                );
            }
        }
    }

    #[test]
    fn dropping_a_server_reclaims_its_default_spill_dir() {
        let (mut server, handles) = server_with(1, EngineMode::Sync);
        let spill = server.evict(&handles[0]).unwrap();
        let dir = spill.parent().unwrap().to_path_buf();
        assert!(dir.exists());
        drop(server);
        assert!(!dir.exists(), "default spill dir is removed on drop");
    }

    #[test]
    fn corrupted_spill_files_are_rejected_not_half_loaded() {
        let (mut server, handles) = server_with(1, EngineMode::Sync);
        let h = handles[0];
        let spill = server.evict(&h).unwrap();
        // Concatenated partial records must line up exactly: a trailing
        // byte is corruption, not slack.
        let mut bytes = std::fs::read(&spill).unwrap();
        bytes.push(0x55);
        std::fs::write(&spill, bytes).unwrap();
        let err = server.rehydrate(&h).unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)), "{err}");
        // The entry stays evicted (and retryable) rather than half-loaded.
        assert!(server.is_evicted(&h).unwrap());
    }

    /// Regression for the version-desync on a failed full re-preparation:
    /// the handle stays consistent at the pre-delta fragmentation, so the
    /// server must keep it on its old version and replay the retained
    /// steps later — never hand it a `DeltaApplication` derived from a
    /// fragmentation it does not hold (silent garbage), and never serve a
    /// stale answer as if it were current.
    #[test]
    fn a_failed_full_repreparation_stays_behind_and_catches_up() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s.clone(), frag);
        let healthy = server.register(MinForward, ()).unwrap();
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();
        let out_v0 = server.output(&flaky).unwrap();

        // Every delta is non-monotone for the flaky program and its damage
        // covers the whole ring: full re-preparation — which diverges while
        // the program is tripped, WITHOUT poisoning the handle.
        flaky_prog.trip();
        let r1 = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        let by_id = |r: &ServeReport, id: usize| {
            r.refreshed
                .iter()
                .find(|q| q.query == id)
                .unwrap()
                .result
                .clone()
        };
        assert!(by_id(&r1, healthy.id()).is_ok());
        assert!(by_id(&r1, flaky.id()).is_err());
        assert_eq!(server.version(), 1, "the timeline itself advanced");
        assert!(
            server.retained_versions() > 1,
            "history retained for the behind query"
        );

        // While still tripped, output() replays (and fails loudly) instead
        // of serving the stale version-0 answer as current.
        assert!(matches!(
            server.output(&flaky).unwrap_err(),
            ServeError::Engine(EngineError::DidNotConverge { .. })
        ));

        // Once healed, the next apply first replays the missed step, then
        // refreshes with the new delta — outputs equal a recompute.
        flaky_prog.heal();
        let r2 = server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        assert_eq!(r2.caught_up, vec![flaky.id()]);
        assert!(by_id(&r2, flaky.id()).is_ok());
        assert!(r2.poisoned.is_empty(), "a behind query is not poisoned");
        assert_eq!(server.retained_versions(), 1, "caught up: history pruned");

        let recompute = s
            .run(server.fragmentation(), &flaky_prog, &())
            .unwrap()
            .output;
        assert_eq!(server.output(&flaky).unwrap(), recompute);
        assert_ne!(
            server.output(&flaky).unwrap(),
            out_v0,
            "the replayed refreshes really moved the answer"
        );
        let recompute = s
            .run(server.fragmentation(), &MinForward, &())
            .unwrap()
            .output;
        assert_eq!(server.output(&healthy).unwrap(), recompute);
    }

    /// The report is id-sorted even when the pre-pass pushes first: a
    /// behind slot whose replay fails is reported before the refresh of a
    /// ready slot with a lower id has run.
    #[test]
    fn a_failed_catch_up_is_reported_in_id_order() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s, frag);
        let healthy = server.register(MinForward, ()).unwrap();
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();
        assert!(healthy.id() < flaky.id());

        flaky_prog.trip();
        server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        let r = server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        let order: Vec<(usize, bool)> = r
            .refreshed
            .iter()
            .map(|q| (q.query, q.result.is_ok()))
            .collect();
        assert_eq!(order, vec![(healthy.id(), true), (flaky.id(), false)]);
    }

    /// Regression for the same desync via rehydrate(): a replay failure
    /// after the spill reload must not leave the entry resident,
    /// unpoisoned and behind with its spill already deleted — it falls
    /// back to the on-disk snapshot (still evicted, retryable) and the
    /// spill file survives until a replay fully succeeds.
    #[test]
    fn a_failed_replay_falls_back_to_the_spill_file() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s.clone(), frag);
        let _healthy = server.register(MinForward, ()).unwrap();
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();

        let spill = server.evict(&flaky).unwrap();
        flaky_prog.trip();
        let r = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r.deferred, vec![flaky.id()]);

        // The reload succeeds, the replayed full re-preparation diverges:
        // back to the snapshot, spill intact, history still retained.
        let err = server.rehydrate(&flaky).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Engine(EngineError::DidNotConverge { .. })
        ));
        assert!(server.is_evicted(&flaky).unwrap());
        assert!(spill.exists(), "spill survives until a replay succeeds");
        assert!(server.retained_versions() > 1);

        // Retry after healing: replay lands, the store stays on disk as the
        // recovery point, answer equals a recompute on the current graph.
        flaky_prog.heal();
        let report = server.rehydrate(&flaky).unwrap();
        assert_eq!(report.replayed.len(), 1);
        assert!(
            spill.exists(),
            "the spill store outlives a successful replay"
        );
        assert_eq!(server.retained_versions(), 1);
        let recompute = s
            .run(server.fragmentation(), &flaky_prog, &())
            .unwrap()
            .output;
        assert_eq!(server.output(&flaky).unwrap(), recompute);
    }

    /// A failed replay falls back to the snapshot *counters included*: the
    /// retry replays the whole pending stream from the snapshot, so the
    /// prefix that succeeded on the first attempt must not be counted
    /// twice.
    #[test]
    fn a_failed_replay_retry_does_not_double_count_the_replayed_prefix() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s.clone(), frag);
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();

        // Two deltas arrive while cold: a no-op (always replays fine) and
        // an insert whose full re-preparation diverges while tripped.
        server.evict(&flaky).unwrap();
        server.apply(&GraphDelta::new()).unwrap();
        server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();

        // First attempt: step 1 lands, step 2 fails → back to the snapshot.
        flaky_prog.trip();
        server.rehydrate(&flaky).unwrap_err();
        assert!(server.is_evicted(&flaky).unwrap());

        // Retry replays BOTH steps again; the first attempt's successful
        // prefix was rolled back with the state, so nothing double-counts.
        flaky_prog.heal();
        let report = server.rehydrate(&flaky).unwrap();
        assert_eq!(report.replayed.len(), 2);
        let p = server.prepared(&flaky).unwrap().unwrap();
        assert_eq!(p.updates_applied(), 2, "two deltas were ever absorbed");
        assert_eq!(p.incremental_updates(), 1, "the no-op counted once");
    }

    /// A query can be poisoned *while behind*: it falls behind on a failed
    /// full re-preparation, and a later catch-up replay fails on the
    /// monotone/bounded (partial-consuming) path.  Its version must not be
    /// allowed to fall below the pruned timeline base — every later access
    /// must surface `PoisonedHandle`, never a panicking index underflow —
    /// and the dead query must not pin the retained history.
    #[test]
    fn poisoned_mid_replay_surfaces_as_an_error_and_never_pins_history() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s.clone(), frag);
        let healthy = server.register(MinForward, ()).unwrap();
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();

        // Fall behind: the insert is non-monotone for the tripped program,
        // its full re-preparation diverges, the handle stays at version 0.
        flaky_prog.trip();
        server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert!(server.retained_versions() > 1);

        // Replaying that insert now takes the (always-diverging) monotone
        // path: the catch-up inside output() poisons the handle mid-replay.
        flaky_prog.allow_monotone_inserts();
        assert!(matches!(
            server.output(&flaky).unwrap_err(),
            ServeError::Engine(EngineError::DidNotConverge { .. })
        ));
        assert_eq!(
            server.retained_versions(),
            1,
            "poisoning drops the history the dead query pinned"
        );

        // Another query's round trip keeps it that way...
        server.evict(&healthy).unwrap();
        server.rehydrate(&healthy).unwrap();
        assert_eq!(server.retained_versions(), 1, "poison does not pin");

        // ...and the poisoned query keeps surfacing as an error — not a
        // version-arithmetic panic — on every later access.
        assert!(matches!(
            server.output(&flaky).unwrap_err(),
            ServeError::Engine(EngineError::PoisonedHandle)
        ));
        let recompute = s
            .run(server.fragmentation(), &MinForward, &())
            .unwrap()
            .output;
        assert_eq!(server.output(&healthy).unwrap(), recompute);
    }

    #[test]
    fn a_poisoned_query_is_quarantined_and_the_rest_keep_serving() {
        // A ring, so the diverging program's escalation actually cycles.
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s.clone(), frag);
        let healthy = server.register(MinForward, ()).unwrap();
        let doomed = server.register(DivergingOnUpdate, ()).unwrap();

        // The diverging query fails its refresh; the report carries the
        // error, the healthy query's refresh still lands.
        let r1 = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r1.refreshed.len(), 2);
        let by_id = |id: usize| r1.refreshed.iter().find(|q| q.query == id).unwrap();
        assert!(by_id(healthy.id()).result.is_ok());
        assert!(by_id(doomed.id()).result.is_err());

        // Subsequent deltas skip the poisoned query explicitly.
        let r2 = server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        assert_eq!(r2.poisoned, vec![doomed.id()]);
        assert_eq!(r2.refreshed.len(), 1);
        assert!(matches!(
            server.output(&doomed).unwrap_err(),
            ServeError::Engine(EngineError::PoisonedHandle)
        ));
        let recompute = s.run(server.fragmentation(), &MinForward, &()).unwrap();
        assert_eq!(server.output(&healthy).unwrap(), recompute.output);
        assert_eq!(server.retained_versions(), 1, "poison does not pin history");
    }

    /// The concurrent fan-out is invisible: reports (ids, order, outcomes)
    /// and outputs are identical whatever the thread count.
    #[test]
    fn fan_out_width_never_changes_reports_or_outputs() {
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let deltas = [
                GraphDelta::new().add_edge(0, 2),
                GraphDelta::new().remove_edge(5, 6),
                GraphDelta::new().add_edge(3, 9),
            ];
            let mut baseline: Option<Vec<Vec<usize>>> = None;
            for threads in [1usize, 3] {
                let g = path_graph(12);
                let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
                let s = GrapeSession::builder()
                    .workers(2)
                    .mode(mode)
                    .refresh_threads(threads)
                    .build()
                    .unwrap();
                let mut server = GrapeServer::new(s, frag);
                let handles: Vec<_> = (0..4)
                    .map(|_| server.register(MinForward, ()).unwrap())
                    .collect();
                let mut seen = Vec::new();
                for delta in &deltas {
                    let report = server.apply(delta).unwrap();
                    let ids: Vec<usize> = report.refreshed.iter().map(|q| q.query).collect();
                    assert_eq!(ids, vec![0, 1, 2, 3], "sorted by id ({mode:?})");
                    assert!(report.refreshed.iter().all(|q| q.result.is_ok()));
                    seen.push(report.rebuilt.clone());
                }
                let recompute = session(mode)
                    .run(server.fragmentation(), &MinForward, &())
                    .unwrap();
                for h in &handles {
                    assert_eq!(server.output(h).unwrap(), recompute.output, "{mode:?}");
                }
                match &baseline {
                    None => baseline = Some(seen),
                    Some(b) => assert_eq!(b, &seen, "rebuilt sets differ ({mode:?})"),
                }
            }
        }
    }

    /// `apply_batch` IS N sequential applies: same versions, same
    /// per-delta reports, same timeline pruning, same outputs.
    #[test]
    fn apply_batch_equals_sequential_applies() {
        let deltas = vec![
            GraphDelta::new().add_edge(0, 2),
            GraphDelta::new().remove_edge(5, 6),
            GraphDelta::new().add_edge(7, 1),
            GraphDelta::new(),
        ];
        let make = || {
            let g = path_graph(12);
            let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
            let mut server = GrapeServer::new(session(EngineMode::Sync), frag);
            let handles: Vec<_> = (0..3)
                .map(|_| server.register(MinForward, ()).unwrap())
                .collect();
            (server, handles)
        };
        let (mut batched, bh) = make();
        let (mut sequential, sh) = make();

        let batch = batched.apply_batch(&deltas);
        assert!(batch.rejected.is_none());
        assert_eq!(batch.reports.len(), deltas.len(), "one report per delta");
        let seq_reports: Vec<ServeReport> = deltas
            .iter()
            .map(|d| sequential.apply(d).unwrap())
            .collect();
        for (b, s) in batch.reports.iter().zip(&seq_reports) {
            assert_eq!(b.version, s.version);
            assert_eq!(b.rebuilt, s.rebuilt);
            assert_eq!(b.reused, s.reused);
            let ids = |r: &ServeReport| r.refreshed.iter().map(|q| q.query).collect::<Vec<_>>();
            assert_eq!(ids(b), ids(s));
            for (qb, qs) in b.refreshed.iter().zip(&s.refreshed) {
                assert_eq!(qb.result.is_ok(), qs.result.is_ok());
                assert_eq!(
                    qb.result.as_ref().unwrap().kind,
                    qs.result.as_ref().unwrap().kind
                );
            }
        }
        assert_eq!(batched.version(), sequential.version());
        assert_eq!(batched.retained_versions(), 1, "pruned exactly like apply");
        for (hb, hs) in bh.iter().zip(&sh) {
            assert_eq!(batched.output(hb).unwrap(), sequential.output(hs).unwrap());
        }
    }

    /// A rejected delta stops the batch; everything committed before it is
    /// durable, the index points into the caller's slice, and the server
    /// keeps serving.
    #[test]
    fn a_rejected_delta_stops_the_batch_after_durable_commits() {
        let (mut server, handles) = server_with(2, EngineMode::Sync);
        let batch = server.apply_batch(&[
            GraphDelta::new().add_edge(0, 2),
            GraphDelta::new().remove_edge(40, 41), // not in the graph
            GraphDelta::new().add_edge(1, 3),      // never reached
        ]);
        assert_eq!(batch.reports.len(), 1, "first delta committed");
        let rejection = batch.rejected.expect("second delta was rejected");
        assert_eq!(rejection.index, 1);
        assert!(rejection.reason.contains("cannot remove edge"));
        assert_eq!(server.version(), 1);

        // The server is still healthy: later deltas and outputs work.
        server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        let recompute = session(EngineMode::Sync)
            .run(server.fragmentation(), &MinForward, &())
            .unwrap();
        for h in &handles {
            assert_eq!(server.output(h).unwrap(), recompute.output);
        }
    }

    /// A refresh failure inside a batch leaves the earlier commits durable
    /// and the failed slot on its true version — the batch keeps going and
    /// the slot catches up after healing, exactly like the single-apply
    /// path.
    #[test]
    fn a_refresh_failure_inside_a_batch_leaves_commits_durable() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s.clone(), frag);
        let healthy = server.register(MinForward, ()).unwrap();
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();

        flaky_prog.trip();
        let batch = server.apply_batch(&[
            GraphDelta::new().add_edge(0, 2),
            GraphDelta::new().add_edge(1, 3),
        ]);
        assert!(batch.rejected.is_none(), "refresh failures never reject");
        assert_eq!(batch.reports.len(), 2, "both commits durable");
        let by_id = |r: &ServeReport, id: usize| {
            r.refreshed
                .iter()
                .find(|q| q.query == id)
                .unwrap()
                .result
                .clone()
        };
        for r in &batch.reports {
            assert!(by_id(r, healthy.id()).is_ok());
            assert!(by_id(r, flaky.id()).is_err());
        }
        assert_eq!(server.version(), 2, "the timeline advanced twice");
        assert!(
            server.retained_versions() > 1,
            "history retained for the behind slot"
        );

        flaky_prog.heal();
        let r = server.apply(&GraphDelta::new().add_edge(2, 4)).unwrap();
        assert_eq!(r.caught_up, vec![flaky.id()], "replayed both missed steps");
        let recompute = s
            .run(server.fragmentation(), &flaky_prog, &())
            .unwrap()
            .output;
        assert_eq!(server.output(&flaky).unwrap(), recompute);
    }

    /// The current answer as canonical wire rows — what a subscriber that
    /// replays the delta stream must end up holding.
    fn wire_answer(server: &mut GrapeServer, h: &QueryHandle<MinForward>) -> Vec<(Value, Value)> {
        let out = server.output(h).unwrap();
        crate::output_delta::wire_rows(&MinForward.canonical(&(), &out))
    }

    /// The subscription contract: one answer delta per watched query per
    /// commit (empty commits included, so the stream stays aligned), and
    /// replaying the stream over the answer observed at subscribe time
    /// reproduces `output()` exactly.
    #[test]
    fn subscriptions_stream_one_delta_per_commit_and_replay_reproduces_output() {
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let (mut server, handles) = server_with(2, mode);
            let watched = handles[0];
            let sub = server.subscribe(&watched).unwrap();
            let mut rows = wire_answer(&mut server, &watched);
            assert!(server.drain_events().is_empty(), "no commits yet");

            let deltas = [
                GraphDelta::new().add_edge(0, 2),
                GraphDelta::new().remove_edge(5, 6),
                GraphDelta::new(),
            ];
            for delta in &deltas {
                let report = server.apply(delta).unwrap();
                assert_eq!(report.events.len(), 1, "one event per commit ({mode:?})");
                let ev = &report.events[0];
                assert_eq!(ev.query, watched.id());
                assert_eq!(ev.version, report.version);
                let OutputEvent::Delta(wire) = &ev.event else {
                    panic!("a healthy stream has no terminal event");
                };
                wire.apply_to(&mut rows);
            }
            assert_eq!(rows, wire_answer(&mut server, &watched), "{mode:?}");

            // The push buffer carries the same stream for a serving front
            // end, and statuses count the watcher.
            assert_eq!(server.drain_events().len(), deltas.len());
            assert_eq!(server.query_statuses()[watched.id()].watchers, 1);
            assert_eq!(server.query_statuses()[handles[1].id()].watchers, 0);
            server.unsubscribe(sub).unwrap();
        }
    }

    /// Subscribe → evict → apply-while-cold → rehydrate yields exactly one
    /// delta: the key-wise fold of the per-commit stream a resident watcher
    /// of the same query saw — and replaying it still lands on `output()`.
    #[test]
    fn a_cold_watchers_missed_stream_compacts_into_one_rehydration_delta() {
        let (mut server, handles) = server_with(2, EngineMode::Sync);
        let (resident, cold) = (handles[0], handles[1]);
        let _sub_r = server.subscribe(&resident).unwrap();
        let _sub_c = server.subscribe(&cold).unwrap();
        let mut cold_rows = wire_answer(&mut server, &cold);
        server.drain_events();

        server.evict(&cold).unwrap();
        // Successive removals only: every touched key moves further from
        // its baseline value and never reverts, so fold-of-stream and
        // diff-against-baseline must coincide *exactly* (with a revert the
        // diff would rightly omit the key while the fold keeps it).
        let deltas = [
            GraphDelta::new().remove_edge(0, 1),
            GraphDelta::new().remove_edge(5, 6),
            GraphDelta::new().remove_edge(8, 9),
        ];
        let mut resident_stream: Vec<WireOutputDelta> = Vec::new();
        for delta in &deltas {
            let report = server.apply(delta).unwrap();
            assert_eq!(report.events.len(), 1, "the cold watcher emits nothing");
            assert_eq!(report.events[0].query, resident.id());
            let OutputEvent::Delta(wire) = &report.events[0].event else {
                panic!("healthy stream");
            };
            resident_stream.push(wire.clone());
        }

        let report = server.rehydrate(&cold).unwrap();
        assert_eq!(report.replayed.len(), deltas.len());
        assert_eq!(report.events.len(), 1, "one compacted delta for the gap");
        let OutputEvent::Delta(compacted) = &report.events[0].event else {
            panic!("a successful replay is never terminal");
        };

        // Identical queries ⇒ the compacted delta IS the fold of the
        // stream the resident watcher received commit by commit.
        let mut folded = WireOutputDelta::default();
        for wire in &resident_stream {
            folded.fold(wire);
        }
        assert_eq!(compacted, &folded);
        assert!(
            !compacted.is_empty(),
            "the removals really moved the answer"
        );
        let mut via_fold = cold_rows.clone();
        folded.apply_to(&mut via_fold);
        compacted.apply_to(&mut cold_rows);
        assert_eq!(cold_rows, wire_answer(&mut server, &cold));
        assert_eq!(via_fold, cold_rows, "fold and compaction replay alike");
    }

    /// A watched query that gets poisoned emits the terminal event exactly
    /// once and never a partial delta — not from the failed commit, not
    /// from the poisoning replay, not from later commits.
    #[test]
    fn a_watched_query_poisoned_mid_replay_emits_one_terminal_event_only() {
        let g = crate::test_support::ring_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut server = GrapeServer::new(s, frag);
        let flaky_prog = TrippablePrepare::new();
        let flaky = server.register(flaky_prog.clone(), ()).unwrap();
        server.subscribe(&flaky).unwrap();
        server.drain_events();

        // Fall behind on a failed full re-preparation: no event at all —
        // in particular no delta derived from half-refreshed state.
        flaky_prog.trip();
        let r = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert!(r.events.is_empty(), "a behind query emits nothing");

        // The catch-up replay inside output() poisons the handle: exactly
        // one terminal event, no partial delta.
        flaky_prog.allow_monotone_inserts();
        assert!(server.output(&flaky).is_err());
        let events = server.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].query, flaky.id());
        assert_eq!(events[0].event, OutputEvent::Poisoned);

        // Later commits skip the quarantined query without repeating it.
        let r = server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        assert!(r.events.is_empty());
        assert!(server.drain_events().is_empty());

        // And a new subscription on the corpse is refused.
        assert!(matches!(
            server.subscribe(&flaky).unwrap_err(),
            ServeError::Engine(EngineError::PoisonedHandle)
        ));
    }

    #[test]
    fn unsubscribe_stops_the_stream_and_rejects_foreign_or_stale_ids() {
        let (mut server, handles) = server_with(1, EngineMode::Sync);
        let h = handles[0];
        let sub = server.subscribe(&h).unwrap();
        let r = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r.events.len(), 1);
        server.unsubscribe(sub).unwrap();
        let r = server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        assert!(r.events.is_empty(), "no watchers, no delta computation");
        assert!(
            matches!(
                server.unsubscribe(sub).unwrap_err(),
                ServeError::UnknownSubscription(_)
            ),
            "a subscription cancels once"
        );

        // Two subscribers share one watch; it ends with the second.
        let s1 = server.subscribe(&h).unwrap();
        let s2 = server.subscribe(&h).unwrap();
        assert_eq!(server.query_statuses()[h.id()].watchers, 2);
        server.unsubscribe(s1).unwrap();
        let r = server.apply(&GraphDelta::new().add_edge(2, 5)).unwrap();
        assert_eq!(r.events.len(), 1, "still watched");
        server.unsubscribe(s2).unwrap();
        assert_eq!(server.query_statuses()[h.id()].watchers, 0);

        // A foreign server's subscription id is rejected, not aliased.
        let (mut other, other_handles) = server_with(1, EngineMode::Sync);
        let foreign = other.subscribe(&other_handles[0]).unwrap();
        assert!(matches!(
            server.unsubscribe(foreign).unwrap_err(),
            ServeError::UnknownSubscription(_)
        ));
    }
}
