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
//! * [`GrapeServer::evict`] spills a cold query's **partials** into its
//!   [`QuerySpillStore`] ([`grape_partition::snapshot`]) and frees them:
//!   the first eviction writes a **base** (one record per partial); later
//!   evictions append **increments** holding only the partials that
//!   changed since the previous spill.  Fragments, `G_P` and the quotient
//!   tables are never written: they are shared structure, and the evicted
//!   query pins its timeline version, which holds them.  The next
//!   [`GrapeServer::output`] (or an explicit [`GrapeServer::rehydrate`])
//!   takes the fragmentation from that version (an `Arc` clone, no I/O),
//!   folds base ⊕ increments into the partials — **without
//!   re-partitioning and without a single PEval call** — and replays the
//!   deltas that arrived while the query was cold.  When the increments
//!   outweigh the base on disk (or on an explicit [`GrapeServer::compact`])
//!   the chain is folded into a fresh base atomically, so a reload never
//!   reads more than twice the base's bytes.  Every store write stages
//!   through a temp file, fsync and rename, so a crash mid-spill leaves
//!   the previous on-disk state fully readable.  Spill files are process
//!   scratch: nothing reads them after the server is gone.
//!
//! The timeline keeps one fragmentation per version only while an evicted
//! query — or a resident one left *behind* by a failed refresh — still
//! needs it for replay (fragment storage is `Arc`-shared across versions,
//! so retaining a version costs one rebuilt-fragment delta, not a copy of
//! the graph); once every query has caught up the history is pruned.
//!
//! Refresh failures keep every query's version honest.  A failed
//! monotone/retracted/bounded refresh poisons the query (its partials were consumed),
//! and the server quarantines it.  A failed **full** re-preparation leaves
//! the handle consistent at its pre-delta fragmentation, so the server
//! keeps the query on its old version and replays the retained steps into
//! it — exactly like an evicted query — before its next refresh or
//! `output()`; it is never handed a [`DeltaApplication`] derived from a
//! fragmentation it does not hold.
//!
//! **Concurrency.**  Within one [`GrapeServer::apply`] the per-query
//! refreshes fan out over a scoped worker pool ([`GrapeServer::threads`]):
//! each slot owns its partials, the single [`DeltaApplication`] is shared
//! read-only, and the per-slot outcomes are merged into one [`ServeReport`]
//! sorted by handle id — byte-identical regardless of completion order.
//! A watched slot's answer delta is diffed by the worker that just
//! refreshed it, so the diffs of `K` watched queries run as wide as their
//! refreshes instead of one after another behind the join.
//! Everything that needs the whole server (catch-up replay, timeline
//! bookkeeping, pruning, eviction) stays serialized around the fan-out.
//! [`GrapeServer::apply_batch`] additionally pipelines the partition work:
//! while the queries refresh against `ΔG_n`, a dedicated thread is already
//! running `Fragmentation::apply_delta` for `ΔG_{n+1}`; with
//! [`GrapeServer::group_commit`] enabled, small consecutive
//! edge-insert-only deltas merge into a single `DeltaApplication` (the
//! merge is restricted to that shape because removals and vertex inserts
//! validate against the pre-batch graph — see
//! [`GraphDelta::is_edge_insert_only`]).  The server can also spill cold
//! queries on its own via an [`EvictionPolicy`] driven by touch recency
//! and resident partial bytes.

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
use grape_partition::snapshot::{QuerySpillStore, SnapshotError, SpillStoreStats};
use serde::{Deserialize, Serialize, Value};

use crate::engine::EngineError;
use crate::metrics::{EngineMetrics, LatencySummary};
use crate::output_delta::{apply_sorted, DeltaOutput, OutputEvent, QueryDelta, WireOutputDelta};
use crate::pie::IncrementalPie;
use crate::prepared::{PreparedQuery, UpdateReport};
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
    /// Raw deltas this commit absorbed — `1` for [`GrapeServer::apply`],
    /// the group size for a group-committed [`GrapeServer::apply_batch`]
    /// step.
    pub deltas: usize,
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
    /// Queries the server's [`EvictionPolicy`] spilled after this commit
    /// (empty under [`EvictionPolicy::Manual`]).
    pub evicted: Vec<usize>,
    /// Queries whose policy-driven spill left increments outweighing their
    /// base on disk, folding the chain into a fresh base.
    pub compacted: Vec<usize>,
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
/// committed group, in stream order, plus the rejection (if any) that
/// stopped the batch.  Commits made before a rejection are durable — the
/// timeline advanced and every resident query refreshed — which is why a
/// batch returns a report instead of an all-or-nothing `Result`.
#[derive(Debug)]
pub struct BatchReport {
    /// One report per committed group (a group is one delta unless
    /// [`GrapeServer::group_commit`] merged consecutive edge-insert-only
    /// deltas).
    pub reports: Vec<ServeReport>,
    /// Present when the partition layer rejected a delta; everything from
    /// that delta on was not applied.
    pub rejected: Option<BatchRejection>,
}

impl BatchReport {
    /// Raw deltas the batch durably committed (counts every member of a
    /// merged group).
    pub fn deltas_committed(&self) -> usize {
        self.reports.iter().map(|r| r.deltas).sum()
    }
}

/// A delta the partition layer rejected mid-batch.
#[derive(Debug)]
pub struct BatchRejection {
    /// Index **into the caller's slice** of the first raw delta of the
    /// rejected group.
    pub index: usize,
    /// The partition layer's reason.
    pub reason: String,
}

/// When the server itself spills queries to disk (on top of explicit
/// [`GrapeServer::evict`] calls, which always work).
///
/// Recency is *user interest*: [`GrapeServer::register`],
/// [`GrapeServer::rehydrate`] and [`GrapeServer::output`] touch a query;
/// the server's own refreshes do not.  The policy is enforced after
/// `register` and after every commit — a just-rehydrated query may
/// transiently exceed the limit until the next delta arrives, so an actively
/// watched query is never spilled in the middle of its `output()`.
/// Poisoned queries cannot be spilled (their partials are gone) and are
/// skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Only explicit [`GrapeServer::evict`] calls spill queries (default).
    Manual,
    /// Keep at most `max_resident` queries resident; beyond that the
    /// least-recently-touched resident query spills.
    Lru {
        /// Resident-query cap.
        max_resident: usize,
    },
    /// Keep the serialized size of all resident partials
    /// ([`GrapeServer::resident_partial_bytes`]) within `bytes`, spilling
    /// least-recently-touched queries until it fits.
    MemoryBudget {
        /// Resident partial-bytes cap.
        bytes: usize,
    },
}

/// An `io::Write` sink that only counts bytes: measures the serialized size
/// of resident partials for [`EvictionPolicy::MemoryBudget`] without
/// building the spill image in memory.
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
    /// Increments currently chained on the query's spill base (`0` when the
    /// query has never spilled, or right after a compaction).
    #[serde(default)]
    pub spill_chain: usize,
    /// Total on-disk footprint of the query's spill store (base +
    /// increments), in bytes.
    #[serde(default)]
    pub spill_bytes: u64,
    /// Completed compactions of the query's spill store.
    #[serde(default)]
    pub compactions: u64,
}

/// One step of the timeline: the delta and the `Arc`-shared
/// [`DeltaApplication`] it produced, retained so evicted (or behind)
/// queries can replay the refresh without a second `apply_delta` — and
/// without re-cloning the per-fragment restrictions per replaying query.
struct ServeStep {
    delta: GraphDelta,
    applied: Arc<DeltaApplication>,
}

/// Object-safe view of one registered query, erasing the program type.
trait ServedQuery: Send {
    fn refresh(
        &mut self,
        applied: &DeltaApplication,
        delta: &GraphDelta,
    ) -> Result<UpdateReport, EngineError>;
    /// Spills the entry's partials into its store (base on the first call,
    /// changed-partial increments afterwards) and demotes it to cold.
    /// Returns the path of the file the store wrote.
    fn evict(&mut self, store: &mut QuerySpillStore) -> Result<PathBuf, ServeError>;
    /// Reloads the entry: partials from its spill store (base ⊕
    /// increments), fragmentation from `at`, the timeline version it was
    /// spilled at.  The store is **not** cleared afterwards — it stays the
    /// entry's on-disk recovery point, and the next evict appends to it.
    fn rehydrate(&mut self, at: &Fragmentation, store: &QuerySpillStore) -> Result<(), ServeError>;
    /// Drops the resident in-memory state (possibly poisoned or
    /// half-replayed) and points the entry back at its spill store — the
    /// inverse of a reload whose replay failed.  The folded on-disk state
    /// becomes the entry's state again (with `book` as its counters), so
    /// the entry is evicted and retryable.
    fn demote(&mut self, book: QueryBookkeeping);
    /// The entry's current counters/metrics — from the live handle when
    /// resident, from the cold state when evicted.
    fn bookkeeping(&self) -> QueryBookkeeping;
    /// Serialized size of the resident partials (`0` when evicted): the
    /// unit [`EvictionPolicy::MemoryBudget`] accounts in.
    fn partial_bytes(&self) -> usize;
    fn is_evicted(&self) -> bool;
    fn is_poisoned(&self) -> bool;
    /// Installs the watch baseline: the canonical rows of the current
    /// answer, against which every later [`ServedQuery::watch_emit`] diffs.
    /// No-op when a watch is already active.  Must be called on a resident,
    /// healthy entry.
    fn watch_begin(&mut self) -> Result<(), EngineError>;
    /// Drops the watch baseline (when the last subscriber leaves).
    fn watch_end(&mut self);
    fn watch_active(&self) -> bool;
    /// Diffs the current answer against the last-emitted rows, advances
    /// them, and returns the wire delta.  Because the rows only move here,
    /// calling this **once** after a multi-step replay yields the key-wise
    /// fold (the compacted delta) of the stream a per-commit watcher would
    /// have seen.  `None` when no watch is active, the entry is not
    /// resident, or it is poisoned — the rows then stay at the last emitted
    /// state, so a watcher never sees a partial delta.
    fn watch_emit(&mut self) -> Option<WireOutputDelta>;
    fn as_any(&self) -> &dyn Any;
}

/// The counters and metrics of a query that must survive an evict →
/// rehydrate round trip.  Captured *before* a post-reload replay so that a
/// failed replay can fall back to the values the on-disk snapshot actually
/// corresponds to — the successfully replayed prefix is rolled back with
/// the state, not double-counted by the retry.
#[derive(Clone)]
struct QueryBookkeeping {
    prepare_metrics: EngineMetrics,
    last_metrics: EngineMetrics,
    updates_applied: usize,
    incremental_updates: usize,
    bounded_updates: usize,
    retracted_updates: usize,
}

/// The program, query and bookkeeping of an evicted entry — everything that
/// stays in memory while its partials live in the slot's
/// [`QuerySpillStore`] (the fragmentation stays in the server's timeline).
struct ColdState<P: IncrementalPie> {
    session: GrapeSession,
    program: P,
    query: P::Query,
    book: QueryBookkeeping,
}

/// A registered query: resident (a live [`PreparedQuery`]) or evicted (a
/// [`ColdState`] pointing at its spill file).  Exactly one of the two is
/// `Some`.  `watch` is orthogonal to residency: the last canonical rows
/// emitted to subscribers survive evict → rehydrate round trips (that is
/// what makes the post-rehydration emission the *compacted* delta of
/// everything missed while cold), and a failed replay leaves them at the
/// pre-evict baseline, so the retry re-diffs from the same point.
struct ServedEntry<P: DeltaOutput> {
    prepared: Option<PreparedQuery<P>>,
    cold: Option<ColdState<P>>,
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
        self.prepared
            .as_mut()
            .expect("refresh is only called on resident entries")
            .refresh_from(applied, delta)
    }

    fn evict(&mut self, store: &mut QuerySpillStore) -> Result<PathBuf, ServeError> {
        // Write the spill while the entry is still intact, so a failed
        // write leaves the query resident and consistent.
        let path = {
            let p = self
                .prepared
                .as_ref()
                .expect("evict is only called on resident entries");
            if p.is_poisoned() {
                return Err(ServeError::Engine(EngineError::PoisonedHandle));
            }
            let partials: Vec<Value> = p.partials.iter().map(Serialize::to_value).collect();
            store.spill(&p.fragmentation, &partials)?
        };
        let book = self.bookkeeping();
        self.demote(book);
        Ok(path)
    }

    fn rehydrate(&mut self, at: &Fragmentation, store: &QuerySpillStore) -> Result<(), ServeError> {
        assert!(
            self.cold.is_some(),
            "rehydrate is only called on evicted entries"
        );
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
        let cold = self.cold.take().expect("checked above");
        self.prepared = Some(PreparedQuery {
            session: cold.session,
            program: cold.program,
            query: cold.query,
            // The version the query was spilled at: its fragments, G_P and
            // quotient-table cell are shared with the timeline, not copied.
            fragmentation: at.clone(),
            partials,
            prepare_metrics: cold.book.prepare_metrics,
            last_metrics: cold.book.last_metrics,
            updates_applied: cold.book.updates_applied,
            incremental_updates: cold.book.incremental_updates,
            bounded_updates: cold.book.bounded_updates,
            retracted_updates: cold.book.retracted_updates,
            poisoned: false,
        });
        Ok(())
    }

    fn demote(&mut self, book: QueryBookkeeping) {
        let prepared = self
            .prepared
            .take()
            .expect("demote is only called on resident entries");
        self.cold = Some(ColdState {
            session: prepared.session,
            program: prepared.program,
            query: prepared.query,
            book,
        });
    }

    fn bookkeeping(&self) -> QueryBookkeeping {
        if let Some(p) = &self.prepared {
            QueryBookkeeping {
                prepare_metrics: p.prepare_metrics.clone(),
                last_metrics: p.last_metrics.clone(),
                updates_applied: p.updates_applied,
                incremental_updates: p.incremental_updates,
                bounded_updates: p.bounded_updates,
                retracted_updates: p.retracted_updates,
            }
        } else {
            self.cold
                .as_ref()
                .expect("an entry is always resident or cold")
                .book
                .clone()
        }
    }

    fn partial_bytes(&self) -> usize {
        match &self.prepared {
            Some(p) => {
                let mut counter = ByteCounter::default();
                for partial in &p.partials {
                    if write_value_tree(&mut counter, &partial.to_value()).is_err() {
                        return 0;
                    }
                }
                counter.bytes
            }
            None => 0,
        }
    }

    fn is_evicted(&self) -> bool {
        self.cold.is_some()
    }

    fn is_poisoned(&self) -> bool {
        self.prepared.as_ref().is_some_and(|p| p.is_poisoned())
    }

    fn watch_begin(&mut self) -> Result<(), EngineError> {
        if self.watch.is_some() {
            return Ok(());
        }
        let p = self
            .prepared
            .as_ref()
            .expect("watch_begin is only called on resident entries");
        self.watch = Some(p.canonical_rows()?);
        Ok(())
    }

    fn watch_end(&mut self) {
        self.watch = None;
    }

    fn watch_active(&self) -> bool {
        self.watch.is_some()
    }

    fn watch_emit(&mut self) -> Option<WireOutputDelta> {
        let rows = self.watch.as_mut()?;
        let delta = self.prepared.as_ref()?.output_delta_since(rows).ok()?;
        let wire = delta.to_wire();
        apply_sorted(rows, &delta);
        Some(wire)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// One registered query plus the timeline version its state corresponds to.
struct Slot {
    entry: Box<dyn ServedQuery>,
    version: usize,
    /// The query's on-disk partial log — created on the first
    /// eviction and kept for the slot's lifetime (it outlives rehydration
    /// as the recovery point the next evict appends to).
    store: Option<QuerySpillStore>,
    /// Logical timestamp of the last *user* touch (register / rehydrate /
    /// output); drives [`EvictionPolicy`] recency.
    last_touch: u64,
    /// Whether a watched query's terminal [`OutputEvent::Poisoned`] has
    /// already been pushed — the event is emitted exactly once.
    poison_notified: bool,
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
/// the answer delta it emitted (watched, resident, refreshed successfully).
type RefreshOutcome = (
    usize,
    Result<UpdateReport, EngineError>,
    Option<WireOutputDelta>,
);

/// One planned commit of an [`GrapeServer::apply_batch`]: the (possibly
/// merged) delta, the index of its first raw delta in the caller's slice,
/// and how many raw deltas it absorbs.
struct DeltaGroup {
    start: usize,
    raw: usize,
    delta: GraphDelta,
}

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
    /// Refresh fan-out width (≥ 1); seeded from the session's
    /// `refresh_threads`, overridable with [`GrapeServer::threads`].  Never
    /// clamped to the machine's parallelism — the caller asked for this
    /// width.
    refresh_threads: usize,
    /// Group-commit cap in delta ops; `0` disables grouping (the default:
    /// every delta of an `apply_batch` is its own commit).
    group_limit: usize,
    /// Server-driven eviction policy.
    policy: EvictionPolicy,
    /// Completed spill-store compactions across all queries.
    compactions: u64,
    /// Worker-pipe bytes moved by every registration and successful
    /// refresh (see [`GrapeServer::pipe_bytes`]).
    pipe_bytes: u64,
    /// Monotone clock behind [`Slot::last_touch`].
    touch_clock: u64,
    /// Raw deltas absorbed — counts every member of a group-committed
    /// batch, so it can exceed the number of timeline commits.
    deltas_absorbed: usize,
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
        let refresh_threads = session.config().refresh_threads.max(1);
        GrapeServer {
            session,
            base: 0,
            timeline: vec![fragmentation],
            steps: Vec::new(),
            slots: Vec::new(),
            spill_dir,
            owns_spill_dir: false,
            token: SERVER_SEQ.fetch_add(1, Ordering::Relaxed),
            refresh_threads,
            group_limit: 0,
            policy: EvictionPolicy::Manual,
            compactions: 0,
            pipe_bytes: 0,
            touch_clock: 0,
            deltas_absorbed: 0,
            latencies: Vec::new(),
            subs: Vec::new(),
            pending_events: Vec::new(),
        }
    }

    /// Sets the refresh fan-out width: up to `n` resident queries refresh
    /// concurrently per commit (clamped to ≥ 1, and at run time to the
    /// number of queries actually ready).  Deliberately **not** clamped to
    /// the machine's parallelism.  Each refresh still runs its own engine
    /// with the session's `num_workers` threads, so the total thread demand
    /// is `n × num_workers`.
    pub fn threads(mut self, n: usize) -> Self {
        self.refresh_threads = n.max(1);
        self
    }

    /// Enables group-commit for [`GrapeServer::apply_batch`]: consecutive
    /// deltas merge into one commit while the merged batch stays within
    /// `max_ops` updates **and** every appended delta is edge-insert-only
    /// ([`GraphDelta::is_edge_insert_only`] explains why other shapes are
    /// not sequential-equivalent under merging).  Any delta may *start* a
    /// group.  `0` (the default) disables grouping.
    pub fn group_commit(mut self, max_ops: usize) -> Self {
        self.group_limit = max_ops;
        self
    }

    /// Sets the server-driven [`EvictionPolicy`] (default
    /// [`EvictionPolicy::Manual`]).  Enforced after `register` and after
    /// every commit; spills performed by a commit are listed in
    /// [`ServeReport::evicted`].
    pub fn eviction_policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured refresh fan-out width.
    pub fn refresh_threads(&self) -> usize {
        self.refresh_threads
    }

    /// The directory evicted queries spill into.
    pub fn spill_dir(&self) -> &Path {
        &self.spill_dir
    }

    /// Completed spill-store compactions across all queries — byte-rule
    /// folds at evict time plus explicit [`GrapeServer::compact`] calls.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Bytes moved over `grape-worker` pipes since the server started: the
    /// sum of [`EngineMetrics::pipe_bytes`] over every registration and
    /// every successful refresh (commits, catch-ups, rehydration replays).
    /// Always `0` unless the session runs `TransportSpec::Process`.
    pub fn pipe_bytes(&self) -> u64 {
        self.pipe_bytes
    }

    /// The current fragmentation (the newest timeline version).
    pub fn fragmentation(&self) -> &Fragmentation {
        self.timeline.last().expect("timeline is never empty")
    }

    /// The current timeline version — the number of commits.  Equals
    /// [`GrapeServer::deltas_applied`] unless [`GrapeServer::group_commit`]
    /// merged consecutive deltas into one commit.
    pub fn version(&self) -> usize {
        self.base + self.timeline.len() - 1
    }

    /// How many raw deltas this server has absorbed (each applied to the
    /// shared fragmentation exactly once — possibly group-committed with
    /// its neighbors — regardless of how many queries are registered).
    pub fn deltas_applied(&self) -> usize {
        self.deltas_absorbed
    }

    /// Serialized size of every resident query's partials — what
    /// [`EvictionPolicy::MemoryBudget`] accounts against.
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
        self.slots.iter().filter(|s| s.entry.is_evicted()).count()
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
    /// delta arrival to the end of the refresh fan-out (for the pipelined
    /// [`GrapeServer::apply_batch`] the sample starts at commit pickup, so
    /// the overlapped partition work is not double-billed).  Only the most
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

    /// A serializable snapshot of every registered query's serving state,
    /// sorted by query id — the per-query rows behind a `status` /
    /// `metrics` endpoint.  Works off the type-erased slots, so it needs no
    /// handles and covers evicted and poisoned queries too.
    pub fn query_statuses(&self) -> Vec<QueryStatus> {
        self.slots
            .iter()
            .enumerate()
            .map(|(id, slot)| {
                let book = slot.entry.bookkeeping();
                let spill: SpillStoreStats = slot
                    .store
                    .as_ref()
                    .map(QuerySpillStore::stats)
                    .unwrap_or_default();
                QueryStatus {
                    query: id,
                    version: slot.version,
                    evicted: slot.entry.is_evicted(),
                    poisoned: slot.entry.is_poisoned(),
                    updates_applied: book.updates_applied,
                    incremental_updates: book.incremental_updates,
                    bounded_updates: book.bounded_updates,
                    retracted_updates: book.retracted_updates,
                    partial_bytes: slot.entry.partial_bytes(),
                    watchers: self.watcher_count(id),
                    spill_chain: spill.chain_len,
                    spill_bytes: spill.base_bytes + spill.increment_bytes,
                    compactions: spill.compactions,
                }
            })
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
                prepared: Some(prepared),
                cold: None,
                watch: None,
            }),
            version: self.version(),
            store: None,
            last_touch: 0,
            poison_notified: false,
        });
        self.touch(id);
        self.enforce_policy();
        Ok(QueryHandle {
            server: self.token,
            id,
            _marker: PhantomData,
        })
    }

    /// Records user interest in a slot (LRU recency).
    fn touch(&mut self, id: usize) {
        self.touch_clock += 1;
        self.slots[id].last_touch = self.touch_clock;
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
        if slot.entry.is_poisoned() {
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
            self.slots[query].poison_notified = false;
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
        Ok(self.commit(Arc::new(applied), delta, 1, started))
    }

    /// Applies a whole delta stream, pipelined: a dedicated thread runs
    /// `Fragmentation::apply_delta` for `ΔG_{n+1}` while the registered
    /// queries still refresh against `ΔG_n` (the partition work and the
    /// refresh fan-out overlap; the commits themselves stay in stream
    /// order).  With [`GrapeServer::group_commit`] enabled, consecutive
    /// edge-insert-only deltas merge into one commit first.
    ///
    /// A rejected delta stops the batch: everything committed before it is
    /// durable and reported, the rejection carries the caller-slice index
    /// of the offending delta, and nothing after it is applied — which is
    /// why this returns a [`BatchReport`] rather than an all-or-nothing
    /// `Result`.  Per-query refresh *failures* never stop a batch (exactly
    /// as in [`GrapeServer::apply`], they are recorded in the group's
    /// [`ServeReport`] and the failed slot keeps its true version).
    pub fn apply_batch(&mut self, deltas: &[GraphDelta]) -> BatchReport {
        let groups = self.plan_groups(deltas);
        let mut reports = Vec::with_capacity(groups.len());
        let mut rejected = None;
        let base = self.fragmentation().clone();
        type Applied = Result<Arc<DeltaApplication>, (usize, String)>;
        let (tx, rx) = std::sync::mpsc::sync_channel::<Applied>(1);
        std::thread::scope(|scope| {
            let planned = &groups;
            scope.spawn(move || {
                // The applier chains apply_delta group by group off the
                // snapshot it started from; commit() pushes the exact same
                // fragmentation values onto the timeline, in the same
                // order, so the main thread never observes a fork.  The
                // application crosses the channel behind an `Arc`: the
                // refresh fan-out, the retained step and any later replay
                // all share one copy.
                let mut frag = base;
                for group in planned {
                    match frag.apply_delta(&group.delta) {
                        Ok(applied) => {
                            frag = applied.fragmentation.clone();
                            if tx.send(Ok(Arc::new(applied))).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(Err((group.start, e.to_string())));
                            return;
                        }
                    }
                }
            });
            for group in &groups {
                let started = Instant::now();
                match rx.recv() {
                    Ok(Ok(applied)) => {
                        reports.push(self.commit(applied, &group.delta, group.raw, started));
                    }
                    Ok(Err((index, reason))) => {
                        rejected = Some(BatchRejection { index, reason });
                        break;
                    }
                    Err(_) => break,
                }
            }
        });
        BatchReport { reports, rejected }
    }

    /// Splits a delta stream into commit groups under the
    /// [`GrapeServer::group_commit`] rule: any delta starts a group; a
    /// delta joins the open group only if it is edge-insert-only and the
    /// merged size stays within the cap.
    fn plan_groups(&self, deltas: &[GraphDelta]) -> Vec<DeltaGroup> {
        let mut groups: Vec<DeltaGroup> = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            if self.group_limit > 0 {
                if let Some(open) = groups.last_mut() {
                    if delta.is_edge_insert_only()
                        && open.delta.len() + delta.len() <= self.group_limit
                    {
                        open.delta = std::mem::take(&mut open.delta).merge(delta);
                        open.raw += 1;
                        continue;
                    }
                }
            }
            groups.push(DeltaGroup {
                start: i,
                raw: 1,
                delta: delta.clone(),
            });
        }
        groups
    }

    /// One commit: fans `applied` out to every ready resident query (on up
    /// to `refresh_threads` scoped workers), merges the outcomes into an
    /// id-sorted [`ServeReport`], and advances the timeline.  Everything
    /// except the refreshes and the watched slots' answer diffs — catch-up
    /// replay, version bookkeeping, retention/pruning, policy eviction —
    /// runs on the calling thread.  `started` marks when the server began
    /// working on this delta (before `apply_delta` for
    /// [`GrapeServer::apply`], at commit pickup for the pipelined
    /// [`GrapeServer::apply_batch`]); the elapsed time is recorded as one
    /// latency sample.
    fn commit(
        &mut self,
        applied: Arc<DeltaApplication>,
        delta: &GraphDelta,
        raw_deltas: usize,
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
        // Sequential pre-pass: classify every slot, catching up the ones
        // left behind by an earlier failed full re-preparation (replay
        // needs the whole server — timeline indices and slot versions — so
        // it cannot ride the fan-out).
        let mut ready = Vec::new();
        for id in 0..self.slots.len() {
            if self.slots[id].entry.is_evicted() {
                deferred.push(id);
                continue;
            }
            if self.slots[id].entry.is_poisoned() {
                // A poisoned query can never refresh again; advance its
                // version so it does not pin the timeline history.
                self.slots[id].version = new_version;
                poisoned.push(id);
                continue;
            }
            // A resident query can be *behind* after a failed full
            // re-preparation (the one refresh error that leaves the handle
            // consistent at an older version).  `refresh_from` requires the
            // query's fragmentation to be the one `applied` was derived
            // from, so replay the retained steps first.
            if self.slots[id].version < current {
                match self.replay_resident(id, current) {
                    Ok(_) => caught_up.push(id),
                    Err(e) => {
                        // Still behind (its version tracks the replayed
                        // prefix) or freshly poisoned — either way this
                        // delta cannot be applied to it yet.
                        if self.slots[id].entry.is_poisoned() {
                            self.slots[id].version = new_version;
                        }
                        refreshed.push(QueryRefresh {
                            query: id,
                            result: Err(e),
                        });
                        continue;
                    }
                }
            }
            ready.push(id);
        }

        // Concurrent fan-out: each ready slot refreshes against the shared
        // read-only DeltaApplication with exclusive access to its own
        // partials — and, when watched, diffs its answer on the same
        // worker, so the K diffs run `refresh_threads`-wide too.
        let results = Self::refresh_ready(
            &mut self.slots,
            &ready,
            self.refresh_threads,
            &applied,
            delta,
        );
        let mut events: Vec<QueryDelta> = Vec::new();
        for (id, result, emitted) in results {
            if let Ok(report) = &result {
                self.pipe_bytes += report.metrics.pipe_bytes as u64;
            }
            if result.is_ok() || self.slots[id].entry.is_poisoned() {
                // Success, or quarantined forever: the query never replays
                // this step.
                self.slots[id].version = new_version;
            }
            // Otherwise the failed full re-preparation left the handle
            // consistent at `current`; keep its true version so the step
            // retained below replays into it later.
            if let Some(wire) = emitted {
                events.push(QueryDelta {
                    query: id,
                    version: new_version,
                    event: OutputEvent::Delta(wire),
                });
            }
            refreshed.push(QueryRefresh { query: id, result });
        }
        // Deterministic report regardless of fan-out completion order.
        refreshed.sort_by_key(|q| q.query);
        // Terminal events for watched queries quarantined by now —
        // whether they were poisoned this commit or found poisoned in the
        // pre-pass — exactly once each.
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.entry.watch_active() && slot.entry.is_poisoned() && !slot.poison_notified {
                slot.poison_notified = true;
                events.push(QueryDelta {
                    query: id,
                    version: new_version,
                    event: OutputEvent::Poisoned,
                });
            }
        }
        events.sort_by_key(|e| e.query);
        self.pending_events.extend(events.iter().cloned());

        if self.slots.iter().all(|s| s.version == new_version) {
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
        self.deltas_absorbed += raw_deltas;
        self.record_latency(started.elapsed());
        let (evicted, compacted) = self.enforce_policy();
        ServeReport {
            version: new_version,
            deltas: raw_deltas,
            rebuilt,
            reused,
            refreshed,
            caught_up,
            deferred,
            poisoned,
            evicted,
            compacted,
            events,
        }
    }

    /// Refreshes the ready slots, fanning out over up to `threads` scoped
    /// workers pulling from one shared queue.  The worker that refreshed a
    /// slot also emits its answer delta ([`ServedQuery::watch_emit`]) — one
    /// per watched query per commit, and only after a successful refresh,
    /// so a failed one never advances the watch rows; a catch-up replay the
    /// commit's pre-pass performed folds into the same emission.  Returns
    /// `(id, outcome, answer delta)` triples sorted by id.  An associated
    /// function over the slot slice (not `&mut self`) so the commit loop
    /// above can keep borrowing the rest of the server.
    fn refresh_ready(
        slots: &mut [Slot],
        ready: &[usize],
        threads: usize,
        applied: &DeltaApplication,
        delta: &GraphDelta,
    ) -> Vec<RefreshOutcome> {
        fn refresh_one(
            id: usize,
            entry: &mut dyn ServedQuery,
            applied: &DeltaApplication,
            delta: &GraphDelta,
        ) -> RefreshOutcome {
            let result = entry.refresh(applied, delta);
            let emitted = if result.is_ok() {
                entry.watch_emit()
            } else {
                None
            };
            (id, result, emitted)
        }
        let width = threads.max(1).min(ready.len());
        if width <= 1 {
            return ready
                .iter()
                .map(|&id| refresh_one(id, slots[id].entry.as_mut(), applied, delta))
                .collect();
        }
        // `ready` is ascending by construction, so membership is a binary
        // search away and the job list keeps slot order (workers may still
        // finish out of order; the sort below restores it).
        let jobs: Vec<(usize, &mut Box<dyn ServedQuery>)> = slots
            .iter_mut()
            .enumerate()
            .filter(|(id, _)| ready.binary_search(id).is_ok())
            .map(|(id, slot)| (id, &mut slot.entry))
            .collect();
        let queue = std::sync::Mutex::new(jobs.into_iter());
        let results = std::sync::Mutex::new(Vec::with_capacity(ready.len()));
        std::thread::scope(|scope| {
            for _ in 0..width {
                scope.spawn(|| loop {
                    let job = queue.lock().expect("refresh queue lock").next();
                    let Some((id, entry)) = job else { break };
                    let outcome = refresh_one(id, entry.as_mut(), applied, delta);
                    results.lock().expect("refresh results lock").push(outcome);
                });
            }
        });
        let mut out = results.into_inner().expect("refresh results lock");
        out.sort_by_key(|(id, ..)| *id);
        out
    }

    /// Spills slot `id` into its store (shared by explicit
    /// [`GrapeServer::evict`] and the [`EvictionPolicy`]), folding the
    /// increment chain once its bytes outweigh the base's.  Returns the
    /// path written and whether a compaction ran.
    fn spill_slot(&mut self, id: usize) -> Result<(PathBuf, bool), ServeError> {
        if self.slots[id].store.is_none() {
            self.slots[id].store = Some(QuerySpillStore::create(&self.spill_dir, id)?);
        }
        let mut store = self.slots[id].store.take().expect("created above");
        let result = self.slots[id].entry.evict(&mut store).and_then(|path| {
            let stats = store.stats();
            if stats.increment_bytes > stats.base_bytes && store.compact()? {
                Ok((store.base_path(), true))
            } else {
                Ok((path, false))
            }
        });
        self.slots[id].store = Some(store);
        let (path, compacted) = result?;
        if compacted {
            self.compactions += 1;
        }
        Ok((path, compacted))
    }

    /// Folds slot `id`'s increment chain into a fresh base, if it has one.
    fn compact_slot(&mut self, id: usize) -> Result<bool, ServeError> {
        let Some(store) = self.slots[id].store.as_mut() else {
            return Ok(false);
        };
        let folded = store.compact()?;
        if folded {
            self.compactions += 1;
        }
        Ok(folded)
    }

    fn over_budget(&self) -> bool {
        match self.policy {
            EvictionPolicy::Manual => false,
            EvictionPolicy::Lru { max_resident } => {
                self.slots.iter().filter(|s| !s.entry.is_evicted()).count() > max_resident
            }
            EvictionPolicy::MemoryBudget { bytes } => self.resident_partial_bytes() > bytes,
        }
    }

    /// Spills least-recently-touched resident queries until the policy is
    /// satisfied (or no spillable candidate remains — poisoned entries
    /// cannot spill, and a slot whose spill failed is not retried within
    /// one enforcement pass).  Returns the ids spilled and the subset whose
    /// spill triggered a chain compaction.
    fn enforce_policy(&mut self) -> (Vec<usize>, Vec<usize>) {
        let mut evicted = Vec::new();
        let mut compacted = Vec::new();
        if self.policy == EvictionPolicy::Manual {
            return (evicted, compacted);
        }
        let mut skipped: Vec<usize> = Vec::new();
        while self.over_budget() {
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(id, s)| {
                    !s.entry.is_evicted() && !s.entry.is_poisoned() && !skipped.contains(id)
                })
                .min_by_key(|(_, s)| s.last_touch)
                .map(|(id, _)| id);
            let Some(id) = victim else { break };
            match self.spill_slot(id) {
                Ok((_, folded)) => {
                    evicted.push(id);
                    if folded {
                        compacted.push(id);
                    }
                }
                Err(_) => skipped.push(id),
            }
        }
        (evicted, compacted)
    }

    /// Replays the retained steps from a **resident** query's version up to
    /// `upto`, advancing its version per successful step.  On an error the
    /// version keeps tracking the successfully replayed prefix (unless the
    /// failure poisoned the entry, which the caller handles).
    fn replay_resident(
        &mut self,
        id: usize,
        upto: usize,
    ) -> Result<Vec<UpdateReport>, EngineError> {
        let mut replayed = Vec::new();
        while self.slots[id].version < upto {
            if self.slots[id].entry.is_poisoned() {
                // A poisoned entry can never replay — and since poison
                // never pins history its version may even have fallen
                // below `base`, so surface the poison before touching the
                // step indices.
                return Err(EngineError::PoisonedHandle);
            }
            // The timeline already holds every post-delta application, so
            // no step runs apply_delta again — and the retained `Arc`
            // means replaying costs a refcount bump, not a copy of the
            // per-fragment restrictions.
            let i = self.slots[id].version - self.base;
            let applied = self.steps[i].applied.clone();
            let report = self.slots[id]
                .entry
                .refresh(&applied, &self.steps[i].delta)?;
            self.slots[id].version += 1;
            self.pipe_bytes += report.metrics.pipe_bytes as u64;
            replayed.push(report);
        }
        Ok(replayed)
    }

    /// Spills a cold query's partials into its store and frees its
    /// in-memory state: a base on the first eviction, an increment (the
    /// changed partials only) afterwards.  The server retains the timeline
    /// version the query was last refreshed at — the fragmentation the
    /// partials belong to — so a later rehydration replays only the deltas
    /// that arrived in between.  Returns the path of the file written (the
    /// fresh base when this eviction triggered a compaction).
    pub fn evict<P>(&mut self, handle: &QueryHandle<P>) -> Result<PathBuf, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        if self.slots[handle.id].entry.is_evicted() {
            return Err(ServeError::AlreadyEvicted(handle.id));
        }
        self.spill_slot(handle.id).map(|(path, _)| path)
    }

    /// Folds the query's spill-store increment chain into a fresh base,
    /// atomically.  Works whether the query is resident or
    /// evicted (the store outlives rehydration); returns `false` when the
    /// query has never spilled or its chain is already empty.
    pub fn compact<P>(&mut self, handle: &QueryHandle<P>) -> Result<bool, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        self.compact_slot(handle.id)
    }

    /// Reloads an evicted query — its partials from the spill store, its
    /// fragmentation from the retained timeline version it was spilled at;
    /// zero PEval calls, no re-partitioning — and replays the deltas
    /// applied while it was cold (again without any `apply_delta`).  On a
    /// replay error the entry falls back to the on-disk partials — still
    /// evicted at its spill version, retryable — instead of being left
    /// resident with half-replayed state.
    ///
    /// On a **resident** query this replays any steps the query is still
    /// behind on (after a failed full re-preparation) and is otherwise a
    /// no-op returning an empty report.
    pub fn rehydrate<P>(&mut self, handle: &QueryHandle<P>) -> Result<RehydrationReport, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        let id = handle.id;
        self.touch(id);
        let current = self.version();
        if !self.slots[id].entry.is_evicted() {
            // Resident — but possibly behind: catch it up so output()
            // never serves a stale version.
            let replayed = match self.replay_resident(id, current) {
                Ok(replayed) => replayed,
                Err(e) => {
                    if self.slots[id].entry.is_poisoned() {
                        // Freshly poisoned mid-replay: it can never catch
                        // up, so don't let it pin history (mirrors apply()).
                        self.slots[id].version = current;
                        self.emit_poisoned(id);
                    }
                    return Err(ServeError::Engine(e));
                }
            };
            let events = if replayed.is_empty() {
                Vec::new()
            } else {
                self.prune();
                self.emit_compacted(id)
            };
            return Ok(RehydrationReport {
                query: id,
                replayed,
                events,
            });
        }
        let at = self.slots[id].version;
        // Captured while still cold: the counters the snapshot corresponds
        // to, in case a failed replay has to fall back to it.
        let book = self.slots[id].entry.bookkeeping();
        let store = self.slots[id]
            .store
            .take()
            .expect("evicted entries always have a spill store");
        let reloaded = {
            let frozen = &self.timeline[at - self.base];
            self.slots[id].entry.rehydrate(frozen, &store)
        };
        self.slots[id].store = Some(store);
        reloaded?;
        match self.replay_resident(id, current) {
            Ok(replayed) => {
                // The spill store stays on disk as the query's recovery
                // point; the next eviction appends an increment to it
                // instead of rewriting the world.
                self.prune();
                let events = if replayed.is_empty() {
                    Vec::new()
                } else {
                    self.emit_compacted(id)
                };
                Ok(RehydrationReport {
                    query: id,
                    replayed,
                    events,
                })
            }
            Err(e) => {
                // The in-memory state is half-replayed or poisoned; the
                // on-disk store is the valid recovery point, so fall back
                // to it — counters included, so a retry that replays the
                // whole pending stream never double-counts the prefix that
                // succeeded this time.  The watch rows were never advanced,
                // so subscribers saw no partial delta and the retry
                // re-diffs from the pre-evict baseline.
                self.slots[id].entry.demote(book);
                self.slots[id].version = at;
                Err(ServeError::Engine(e))
            }
        }
    }

    /// The single compacted answer delta after a successful multi-step
    /// replay: the watch rows last advanced at the previous emission, so
    /// one [`ServedQuery::watch_emit`] covers the whole replayed stream,
    /// key-wise folded.  Buffered for [`GrapeServer::drain_events`] and
    /// returned for the caller's report.
    fn emit_compacted(&mut self, id: usize) -> Vec<QueryDelta> {
        let version = self.version();
        let mut events = Vec::new();
        if let Some(wire) = self.slots[id].entry.watch_emit() {
            events.push(QueryDelta {
                query: id,
                version,
                event: OutputEvent::Delta(wire),
            });
        }
        self.pending_events.extend(events.iter().cloned());
        events
    }

    /// The terminal [`OutputEvent::Poisoned`] for a watched query — pushed
    /// exactly once, and never accompanied by a partial delta (the watch
    /// rows only move on success).
    fn emit_poisoned(&mut self, id: usize) {
        let version = self.version();
        let slot = &mut self.slots[id];
        if slot.entry.watch_active() && slot.entry.is_poisoned() && !slot.poison_notified {
            slot.poison_notified = true;
            self.pending_events.push(QueryDelta {
                query: id,
                version,
                event: OutputEvent::Poisoned,
            });
        }
    }

    /// Assembles the query's current answer, lazily rehydrating it first if
    /// it was evicted.
    pub fn output<P>(&mut self, handle: &QueryHandle<P>) -> Result<P::Output, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.rehydrate(handle)?;
        let entry = self.entry_ref::<P>(handle)?;
        entry
            .prepared
            .as_ref()
            .expect("rehydrate left the entry resident")
            .try_output()
            .map_err(ServeError::Engine)
    }

    /// Borrow of the resident [`PreparedQuery`] behind a handle —
    /// `Ok(None)` while the query is evicted, [`ServeError::UnknownHandle`]
    /// when the handle was not issued by this server (or its query type
    /// does not match), so misuse surfaces instead of aliasing the evicted
    /// case.  Useful for metrics and tests (e.g. pinning that all handles
    /// share one fragment storage).
    pub fn prepared<P>(
        &self,
        handle: &QueryHandle<P>,
    ) -> Result<Option<&PreparedQuery<P>>, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        Ok(self.entry_ref::<P>(handle)?.prepared.as_ref())
    }

    /// Whether the query behind `handle` is currently evicted.
    pub fn is_evicted<P>(&self, handle: &QueryHandle<P>) -> Result<bool, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        Ok(self.slots[handle.id].entry.is_evicted())
    }

    fn check_handle<P>(&self, handle: &QueryHandle<P>) -> Result<(), ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        if handle.server != self.token {
            return Err(ServeError::UnknownHandle(handle.id));
        }
        let slot = self
            .slots
            .get(handle.id)
            .ok_or(ServeError::UnknownHandle(handle.id))?;
        if !slot.entry.as_any().is::<ServedEntry<P>>() {
            return Err(ServeError::UnknownHandle(handle.id));
        }
        Ok(())
    }

    fn entry_ref<P>(&self, handle: &QueryHandle<P>) -> Result<&ServedEntry<P>, ServeError>
    where
        P: DeltaOutput + 'static,
        P::Partial: Serialize + Deserialize,
    {
        self.check_handle::<P>(handle)?;
        self.slots
            .get(handle.id)
            .and_then(|s| s.entry.as_any().downcast_ref::<ServedEntry<P>>())
            .ok_or(ServeError::UnknownHandle(handle.id))
    }

    /// Drops timeline versions no query can need anymore: everything older
    /// than the oldest version still needed for replay — by an evicted
    /// query, or by a resident one left behind by a failed full
    /// re-preparation.  Poisoned queries never replay and are ignored.
    fn prune(&mut self) {
        let needed = self
            .slots
            .iter()
            .filter(|s| !s.entry.is_poisoned())
            .map(|s| s.version)
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
            assert_eq!(server.deltas_applied(), 2);
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

        let spill = server.evict(&cold).unwrap();
        assert!(spill.exists());
        assert!(server.is_evicted(&cold).unwrap());
        assert!(
            server.prepared(&cold).unwrap().is_none(),
            "partials were released"
        );

        // Rehydration folds the partials back onto the timeline's
        // fragmentation: no PEval, no re-partitioning, answers identical to
        // the handle that never left memory.
        let report = server.rehydrate(&cold).unwrap();
        assert_eq!(report.replayed.len(), 0);
        assert_eq!(report.peval_calls(), 0);
        assert!(
            spill.exists(),
            "the store persists as the recovery point the next evict appends to"
        );
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());

        // The second eviction appends an increment of the changed partials
        // instead of rewriting the base.
        server.apply(&GraphDelta::new().add_edge(0, 3)).unwrap();
        let second = server.evict(&cold).unwrap();
        assert!(
            second.to_string_lossy().ends_with(".inc-0"),
            "expected an increment, wrote {second:?}"
        );
        let status = &server.query_statuses()[cold.id()];
        assert_eq!(status.spill_chain, 1);
        assert!(status.spill_bytes > 0);
        let base_len = std::fs::metadata(&spill).unwrap().len();
        let inc_len = std::fs::metadata(&second).unwrap().len();
        assert!(
            inc_len < base_len,
            "increment ({inc_len} bytes) should undercut the base ({base_len} bytes)"
        );
        server.rehydrate(&cold).unwrap();
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());
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
            let spilled = server.fragmentation().clone();
            server.evict(&h).unwrap();
            server.rehydrate(&h).unwrap();
            let frag = server.prepared(&h).unwrap().unwrap().fragmentation();
            for i in 0..spilled.num_fragments() {
                assert!(frag.shares_fragment_storage(&spilled, i), "{mode:?} {i}");
            }
            assert_eq!(frag.gp(), spilled.gp(), "{mode:?}");
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
            assert_eq!(frag.gp(), server.fragmentation().gp(), "{mode:?}");
        }
    }

    #[test]
    fn compaction_bounds_the_chain_and_explicit_compact_folds_it() {
        let (mut server, handles) = server_with(2, EngineMode::Sync);
        let (kept, cold) = (handles[0], handles[1]);

        for round in 0..6u64 {
            server.evict(&cold).unwrap();
            server
                .apply(&GraphDelta::new().add_edge(12 + round, round))
                .unwrap();
            server.rehydrate(&cold).unwrap();
            let stats = server.slots[cold.id()].store.as_ref().unwrap().stats();
            assert!(
                stats.increment_bytes <= stats.base_bytes,
                "round {round}: the byte rule folds increments that outweigh the base \
                 ({} > {} bytes)",
                stats.increment_bytes,
                stats.base_bytes
            );
        }
        assert!(server.compactions() >= 1, "byte-rule folds happened");
        assert_eq!(server.output(&cold).unwrap(), server.output(&kept).unwrap());

        // An explicit compact folds whatever chain remains and is
        // idempotent once the chain is empty.
        server.evict(&cold).unwrap();
        server.rehydrate(&cold).unwrap();
        if server.query_statuses()[cold.id()].spill_chain > 0 {
            assert!(server.compact(&cold).unwrap());
        }
        assert_eq!(server.query_statuses()[cold.id()].spill_chain, 0);
        assert!(!server.compact(&cold).unwrap());
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
        assert!(other.output(&other_handles[0]).is_ok());
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

        // Another query's round trip prunes the history the dead query no
        // longer needs...
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
                let mut server = GrapeServer::new(session(mode), frag).threads(threads);
                assert_eq!(server.refresh_threads(), threads);
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

    /// `apply_batch` without group-commit IS N sequential applies: same
    /// versions, same per-delta reports, same timeline pruning, same
    /// outputs.
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
        assert_eq!(batch.reports.len(), deltas.len(), "no grouping by default");
        assert_eq!(batch.deltas_committed(), deltas.len());
        let seq_reports: Vec<ServeReport> = deltas
            .iter()
            .map(|d| sequential.apply(d).unwrap())
            .collect();
        for (b, s) in batch.reports.iter().zip(&seq_reports) {
            assert_eq!(b.version, s.version);
            assert_eq!(b.deltas, 1);
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
        assert_eq!(batched.deltas_applied(), sequential.deltas_applied());
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
        assert_eq!(batch.deltas_committed(), 1);
        let rejection = batch.rejected.expect("second delta was rejected");
        assert_eq!(rejection.index, 1);
        assert!(rejection.reason.contains("cannot remove edge"));
        assert_eq!(server.version(), 1);
        assert_eq!(server.deltas_applied(), 1);

        // The server is still healthy: later deltas and outputs work.
        server.apply(&GraphDelta::new().add_edge(1, 3)).unwrap();
        let recompute = session(EngineMode::Sync)
            .run(server.fragmentation(), &MinForward, &())
            .unwrap();
        for h in &handles {
            assert_eq!(server.output(h).unwrap(), recompute.output);
        }
    }

    /// Group-commit merges runs of edge-insert-only deltas into a single
    /// `DeltaApplication`: one timeline commit, one refresh per query per
    /// group — pinned via version / updates_applied — while
    /// `deltas_applied` keeps counting raw deltas.
    #[test]
    fn group_commit_runs_one_delta_application_per_group() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let mut server = GrapeServer::new(session(EngineMode::Sync), frag).group_commit(16);
        let h = server.register(MinForward, ()).unwrap();

        let deltas = vec![
            GraphDelta::new().add_edge(0, 2),
            GraphDelta::new().add_edge(0, 3),
            GraphDelta::new().add_edge(1, 4),
            GraphDelta::new().add_edge(2, 5),
            GraphDelta::new().remove_edge(5, 6), // starts group 2
            GraphDelta::new().add_edge(6, 8),    // merges into group 2
            GraphDelta::new().add_edge(7, 9),
        ];
        let batch = server.apply_batch(&deltas);
        assert!(batch.rejected.is_none());
        assert_eq!(batch.reports.len(), 2, "two groups");
        assert_eq!(batch.reports[0].deltas, 4);
        assert_eq!(batch.reports[1].deltas, 3);
        assert_eq!(
            batch.reports[0].peval_calls(),
            0,
            "the merged insert-only group stays monotone"
        );
        assert_eq!(server.version(), 2, "one timeline commit per group");
        assert_eq!(server.deltas_applied(), 7, "raw deltas still counted");
        let p = server.prepared(&h).unwrap().unwrap();
        assert_eq!(p.updates_applied(), 2, "one refresh per group");

        // The answer still equals a from-scratch recompute AND an ungrouped
        // sequential server over the same stream.
        let recompute = session(EngineMode::Sync)
            .run(server.fragmentation(), &MinForward, &())
            .unwrap();
        assert_eq!(server.output(&h).unwrap(), recompute.output);
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let mut plain = GrapeServer::new(session(EngineMode::Sync), frag);
        let ph = plain.register(MinForward, ()).unwrap();
        for d in &deltas {
            plain.apply(d).unwrap();
        }
        assert_eq!(server.output(&h).unwrap(), plain.output(&ph).unwrap());
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

    /// LRU spills the least-recently-*touched* resident query exactly when
    /// residency exceeds `max_resident` — touches being user interest
    /// (register / output / rehydrate), not server refreshes.
    #[test]
    fn lru_policy_evicts_the_least_recently_touched_at_the_boundary() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let mut server = GrapeServer::new(session(EngineMode::Sync), frag)
            .eviction_policy(EvictionPolicy::Lru { max_resident: 2 });
        let q0 = server.register(MinForward, ()).unwrap();
        let q1 = server.register(MinForward, ()).unwrap();
        assert_eq!(server.num_evicted(), 0, "at the cap, nothing spills");

        // Touch q0 so q1 becomes the LRU victim.
        server.output(&q0).unwrap();
        let q2 = server.register(MinForward, ()).unwrap();
        assert_eq!(server.num_evicted(), 1, "max_resident+1 spills exactly one");
        assert!(server.is_evicted(&q1).unwrap(), "least-recently-touched");
        assert!(!server.is_evicted(&q0).unwrap());
        assert!(!server.is_evicted(&q2).unwrap());

        // Watching the evicted query rehydrates it (transiently 3 resident);
        // the next commit re-enforces the cap and reports who it spilled.
        server.output(&q1).unwrap();
        assert_eq!(server.num_evicted(), 0, "rehydration may exceed the cap");
        let r = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r.evicted, vec![q0.id()], "now q0 is least recent");
        assert_eq!(server.num_evicted(), 1);

        // Everyone still answers exactly, evicted or not, with the fan-out.
        let recompute = session(EngineMode::Sync)
            .run(server.fragmentation(), &MinForward, &())
            .unwrap();
        for h in [&q0, &q1, &q2] {
            assert_eq!(server.output(h).unwrap(), recompute.output);
        }
    }

    /// The memory-budget policy accounts real serialized partial sizes and
    /// spills least-recently-touched queries until the total fits; an
    /// evicted-then-watched query rehydrates and catches up under a
    /// concurrent apply.
    #[test]
    fn memory_budget_policy_respects_recorded_partial_sizes() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        // Measure one query's footprint with a plain server first.
        let mut probe = GrapeServer::new(session(EngineMode::Sync), frag.clone());
        probe.register(MinForward, ()).unwrap();
        let one = probe.resident_partial_bytes();
        assert!(one > 0, "partials have a measurable size");

        // Budget for one resident query, not two.
        let budget = one + one / 2;
        let mut server = GrapeServer::new(session(EngineMode::Sync), frag)
            .threads(4)
            .eviction_policy(EvictionPolicy::MemoryBudget { bytes: budget });
        let q0 = server.register(MinForward, ()).unwrap();
        assert_eq!(server.num_evicted(), 0, "one query fits");
        let q1 = server.register(MinForward, ()).unwrap();
        assert!(
            server.is_evicted(&q0).unwrap(),
            "q0 was least recently touched"
        );
        assert!(!server.is_evicted(&q1).unwrap());
        assert!(server.resident_partial_bytes() <= budget);

        // Deltas arrive while q0 is cold; watching it rehydrates, replays,
        // and matches a recompute — under the concurrent fan-out.
        let r = server.apply(&GraphDelta::new().add_edge(0, 2)).unwrap();
        assert_eq!(r.deferred, vec![q0.id()]);
        server.apply(&GraphDelta::new().add_edge(3, 7)).unwrap();
        let recompute = session(EngineMode::Sync)
            .run(server.fragmentation(), &MinForward, &())
            .unwrap();
        assert_eq!(server.output(&q0).unwrap(), recompute.output);
        assert_eq!(server.output(&q1).unwrap(), recompute.output);
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

    /// Under group-commit a merged group is one commit — and therefore one
    /// answer delta, which still replays to the exact answer.
    #[test]
    fn group_commit_emits_one_merged_delta_per_commit() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let mut server = GrapeServer::new(session(EngineMode::Sync), frag).group_commit(16);
        let h = server.register(MinForward, ()).unwrap();
        server.subscribe(&h).unwrap();
        let mut rows = wire_answer(&mut server, &h);
        server.drain_events();

        let deltas = vec![
            GraphDelta::new().add_edge(0, 2),
            GraphDelta::new().add_edge(0, 3),
            GraphDelta::new().add_edge(1, 4),
        ];
        let batch = server.apply_batch(&deltas);
        assert!(batch.rejected.is_none());
        assert_eq!(batch.reports.len(), 1, "one merged commit");
        assert_eq!(batch.reports[0].events.len(), 1, "one merged answer delta");
        let OutputEvent::Delta(wire) = &batch.reports[0].events[0].event else {
            panic!("healthy stream");
        };
        wire.apply_to(&mut rows);
        assert_eq!(rows, wire_answer(&mut server, &h));
    }
}
