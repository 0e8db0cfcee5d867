//! The PIE programming model (Section 3 of the paper).
//!
//! A *PIE program* consists of three sequential functions — `PEval`,
//! `IncEval` and `Assemble` — together with a *message preamble*: the
//! declaration of status variables attached to border vertices (the *update
//! parameters* `C_i.x̄`), a [`crate::pie::PieProgram::scope`] selecting
//! whether they live on `F_i.O`, `F_i.I` or both, and an `aggregateMsg`
//! conflict-resolution function.
//!
//! The GRAPE engine takes care of everything else: running PEval on every
//! fragment in parallel, collecting the changed update parameters, resolving
//! conflicts, routing them via the fragmentation graph `G_P`, iterating
//! IncEval to a fixpoint and finally calling Assemble.

use std::hash::Hash;

use grape_graph::delta::GraphDelta;
use grape_graph::hash::KeyedHashMap;
use grape_graph::types::VertexId;
use grape_partition::delta::{DeltaApplication, FragmentDelta};
use grape_partition::fragment::{Expansion, Fragment, Fragmentation};
use grape_partition::fragmentation_graph::BorderScope;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

pub use grape_partition::delta::DamagePolicy;

/// An `aggregateMsg` conflict-resolution function, borrowed from the PIE
/// program for the duration of one evaluation or one run.
pub type AggregateFn<'a, K, V> = &'a (dyn Fn(&K, V, V) -> V + Sync);

/// Message keys identify an update parameter (a status variable).  The engine
/// only needs to know which *vertex* the variable is attached to in order to
/// route it through `G_P`; everything else about the key is opaque.
pub trait KeyVertex {
    /// The border vertex this update parameter is attached to.
    fn vertex(&self) -> VertexId;
}

impl KeyVertex for VertexId {
    fn vertex(&self) -> VertexId {
        *self
    }
}

/// Keys of the form `(tag, vertex)` — e.g. graph simulation attaches one
/// Boolean variable `x_(u, v)` per (query node `u`, border vertex `v`) pair.
impl KeyVertex for (u32, VertexId) {
    fn vertex(&self) -> VertexId {
        self.1
    }
}

/// Message buffer handed to `PEval` / `IncEval`, playing the role of the
/// *message segment* of the paper's programming interface: the program pushes
/// the (changed) values of its update parameters here, and the engine turns
/// them into messages.
///
/// When constructed with [`Messages::with_aggregator`] (which is how the
/// engine hands it to programs), duplicate sends of the same key are
/// **coalesced at insert time** with the program's `aggregateMsg` function —
/// a program that declares `dist(s, v)` twice in one evaluation buffers only
/// the winning value, and the buffer never grows beyond one entry per key.
///
/// It also carries the one request an evaluation can make of the scheduler
/// besides sending: [`Messages::run_again`].
pub struct Messages<'a, K, V> {
    updates: Vec<(K, V)>,
    /// Key → position in `updates`; only maintained when `agg` is set.
    index: KeyedHashMap<K, usize>,
    agg: Option<AggregateFn<'a, K, V>>,
    again: bool,
}

impl<K, V> std::fmt::Debug for Messages<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Messages")
            .field("updates", &self.updates.len())
            .field("coalescing", &self.agg.is_some())
            .field("again", &self.again)
            .finish()
    }
}

impl<'a, K, V> Messages<'a, K, V> {
    /// Creates an empty buffer that keeps duplicate keys verbatim.
    pub fn new() -> Self {
        Messages {
            updates: Vec::new(),
            index: KeyedHashMap::default(),
            agg: None,
            again: false,
        }
    }

    /// Creates an empty buffer that coalesces duplicate keys at insert time
    /// with the given `aggregateMsg` function (what the engine does with
    /// [`PieProgram::aggregate`]).
    pub fn with_aggregator(agg: AggregateFn<'a, K, V>) -> Self {
        Messages {
            updates: Vec::new(),
            index: KeyedHashMap::default(),
            agg: Some(agg),
            again: false,
        }
    }

    /// Declares that the update parameter `key` now has value `value`.
    ///
    /// Programs should only send *changed* values (e.g. SSSP sends
    /// `dist(s, v)` only when it decreased) — this is what keeps GRAPE's
    /// communication so much below the vertex-centric systems.  Competing
    /// sends of the same key are resolved by the aggregator when one was
    /// installed (e.g. `min` keeps the shortest SSSP distance).
    pub fn send(&mut self, key: K, value: V)
    where
        K: Clone + Eq + Hash,
        V: Clone,
    {
        match self.agg {
            Some(agg) => match self.index.get(&key) {
                Some(&i) => {
                    let slot = &mut self.updates[i].1;
                    *slot = agg(&key, slot.clone(), value);
                }
                None => {
                    self.index.insert(key.clone(), self.updates.len());
                    self.updates.push((key, value));
                }
            },
            None => self.updates.push((key, value)),
        }
    }

    /// Number of buffered updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Asks the engine to evaluate this fragment again in the next
    /// superstep, with an empty message list if no mail arrives for it.  The
    /// other computation models use it for work that needs no mail: a BSP or
    /// vertex-centric worker's messages to itself, and a MapReduce worker's
    /// reduce and remap steps.  It is no message: nothing is routed or charged, and the
    /// fixpoint waits for it as it waits for pending mail.  Rounds exist
    /// under the barrier only, so under [`crate::config::EngineMode::Async`]
    /// the run fails with [`crate::engine::EngineError::InvalidConfig`].
    pub fn run_again(&mut self) {
        self.again = true;
    }

    /// Whether this evaluation asked to run again ([`Messages::run_again`]).
    pub(crate) fn runs_again(&self) -> bool {
        self.again
    }

    /// Drains the buffered updates (used by the engine).
    pub fn take(&mut self) -> Vec<(K, V)> {
        self.index.clear();
        std::mem::take(&mut self.updates)
    }
}

impl<K, V> Default for Messages<'_, K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A PIE program: sequential `PEval`, `IncEval`, `Assemble` plus the message
/// preamble (update-parameter scope and `aggregateMsg`).
///
/// The type parameters mirror the paper:
///
/// * [`PieProgram::Query`] — the query `Q ∈ 𝒬`,
/// * [`PieProgram::Partial`] — the partial result `Q(F_i)` kept at worker `i`
///   between supersteps,
/// * [`PieProgram::Key`] / [`PieProgram::Value`] — an update parameter
///   (status variable) and its value,
/// * [`PieProgram::Output`] — the assembled answer `Q(G)`.
///
/// The fragmentation is the only local → global id map.  A partial holds
/// values in its base fragment's local order (one entry per
/// [`Fragment::num_local`] where it is per-vertex) and no vertex ids:
/// [`PieProgram::assemble`] reads them from the [`Fragmentation`] the
/// partials were computed on, through [`Fragment::global_of`] and
/// [`Fragment::num_inner`].  A program that declares an [`Expansion`] is
/// the exception: it evaluates over expanded fragments, which are not
/// retained, so its partial keeps global ids (SubIso's matches).
pub trait PieProgram: Send + Sync {
    /// The query type `Q`.
    type Query: Clone + Send + Sync + 'static;
    /// Per-fragment partial result `Q(F_i)`, persisted across supersteps.
    /// `Clone` is required so the engine can checkpoint it for fault
    /// tolerance.
    type Partial: Clone + Send + 'static;
    /// Identity of an update parameter.
    type Key: KeyVertex + Clone + Eq + Hash + Send + Sync + 'static;
    /// Value of an update parameter.
    type Value: Clone + PartialEq + Send + Sync + 'static;
    /// The assembled output `Q(G)`.
    type Output: Send + 'static;

    /// Human-readable program name, used in metrics and benchmark output.
    fn name(&self) -> &str {
        "pie-program"
    }

    /// Which border set the update parameters are attached to
    /// (the candidate set `C_i` of the message preamble).
    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    /// The neighbourhood exchange this query needs before PEval runs: the
    /// engine evaluates over [`Fragmentation::expand_fragment`]'s expansion
    /// instead of the base fragment and charges what it ships to
    /// communication.  `Ok(None)`, the default, declares no exchange; SubIso
    /// declares its pattern's diameter `d_Q` and labels.  `Err` names why no
    /// exchange can make this query's answer local; the engine reports it
    /// as [`crate::engine::EngineError::InvalidConfig`].
    fn expansion(&self, query: &Self::Query) -> Result<Option<Expansion>, String> {
        let _ = query;
        Ok(None)
    }

    /// Partial evaluation: compute `Q(F_i)` on the local fragment and declare
    /// the initial values of the update parameters through `ctx`.
    fn peval(
        &self,
        query: &Self::Query,
        frag: &Fragment,
        ctx: &mut Messages<Self::Key, Self::Value>,
    ) -> Self::Partial;

    /// Incremental evaluation: compute `Q(F_i ⊕ M_i)` given the message `M_i`
    /// (updates to this fragment's update parameters), reusing `partial`.
    /// Changed update parameters are again declared through `ctx`.
    fn inc_eval(
        &self,
        query: &Self::Query,
        frag: &Fragment,
        partial: &mut Self::Partial,
        messages: &[(Self::Key, Self::Value)],
        ctx: &mut Messages<Self::Key, Self::Value>,
    );

    /// Combines the partial results of all fragments into `Q(G)`.
    /// `partials` holds one entry per fragment of `frag`, in fragment
    /// order, each computed on that fragment.
    fn assemble(
        &self,
        query: &Self::Query,
        frag: &Fragmentation,
        partials: Vec<Self::Partial>,
    ) -> Self::Output;

    /// `aggregateMsg`: resolves conflicts when several workers assign values
    /// to the same update parameter in the same superstep (e.g. `min` for
    /// SSSP distances).  Must be associative and commutative; together with a
    /// partial order on values it gives the monotonic condition of the
    /// Assurance Theorem.
    fn aggregate(&self, key: &Self::Key, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Approximate wire size of a key, used for communication accounting.
    fn key_size(&self, _key: &Self::Key) -> usize {
        std::mem::size_of::<Self::Key>()
    }

    /// Approximate wire size of a value, used for communication accounting.
    fn value_size(&self, _value: &Self::Value) -> usize {
        std::mem::size_of::<Self::Value>()
    }

    /// The wire codec used when this program runs under
    /// [`crate::transport::TransportSpec::Process`]: queries, partials and
    /// update parameters must cross the worker pipes as value trees.
    ///
    /// The default `None` means the program cannot execute multi-process —
    /// the engine rejects the combination with a clear
    /// [`crate::engine::EngineError::InvalidConfig`].  Programs whose
    /// associated types are all serde-capable return
    /// `Some(&SerdeProcessCodec)`.
    fn process_codec(&self) -> Option<&dyn ProcessCodec<Self>>
    where
        Self: Sized,
    {
        None
    }
}

/// Encodes/decodes one PIE program's associated types for the worker-pipe
/// protocol of [`crate::transport::TransportSpec::Process`].
///
/// Both ends use the same codec: the parent (`ProcessHost`) encodes the
/// query/partials/messages it ships and decodes what comes back; the
/// `grape-worker` child does the mirror image.  Implementations must be
/// deterministic and lossless — the equivalence contract (answers byte-equal
/// across transports) rides on every value surviving the round trip exactly.
pub trait ProcessCodec<P: PieProgram>: Sync {
    /// Encodes a query for the worker handshake.
    fn encode_query(&self, query: &P::Query) -> Value;
    /// Decodes a handshake query (worker side).
    fn decode_query(&self, v: &Value) -> Result<P::Query, SerdeError>;
    /// Encodes one partial result.  Never `Value::Null`: on the worker
    /// pipe `null` marks a fragment that has no partial yet, so such a
    /// partial would come back missing and fail the run.
    fn encode_partial(&self, partial: &P::Partial) -> Value;
    /// Decodes one partial result.
    fn decode_partial(&self, v: &Value) -> Result<P::Partial, SerdeError>;
    /// Encodes one update-parameter message `(key, value)`.
    fn encode_message(&self, key: &P::Key, value: &P::Value) -> Value;
    /// Decodes one update-parameter message.
    fn decode_message(&self, v: &Value) -> Result<(P::Key, P::Value), SerdeError>;
}

/// The [`ProcessCodec`] for programs whose query, partial, key and value
/// types all implement the serde traits: plain value-tree round trips.
/// Messages ship as two-element sequences `[key, value]`.
pub struct SerdeProcessCodec;

impl<P> ProcessCodec<P> for SerdeProcessCodec
where
    P: PieProgram,
    P::Query: Serialize + Deserialize,
    P::Partial: Serialize + Deserialize,
    P::Key: Serialize + Deserialize,
    P::Value: Serialize + Deserialize,
{
    fn encode_query(&self, query: &P::Query) -> Value {
        query.to_value()
    }

    fn decode_query(&self, v: &Value) -> Result<P::Query, SerdeError> {
        P::Query::from_value(v)
    }

    fn encode_partial(&self, partial: &P::Partial) -> Value {
        partial.to_value()
    }

    fn decode_partial(&self, v: &Value) -> Result<P::Partial, SerdeError> {
        P::Partial::from_value(v)
    }

    fn encode_message(&self, key: &P::Key, value: &P::Value) -> Value {
        Value::Seq(vec![key.to_value(), value.to_value()])
    }

    fn decode_message(&self, v: &Value) -> Result<(P::Key, P::Value), SerdeError> {
        match v {
            Value::Seq(items) if items.len() == 2 => Ok((
                P::Key::from_value(&items[0])?,
                P::Value::from_value(&items[1])?,
            )),
            _ => Err(SerdeError::custom("expected a [key, value] message pair")),
        }
    }
}

/// The result of [`IncrementalPie::rebase`]: the partial rebased onto the
/// updated fragment, plus the update parameters whose values changed as a
/// consequence of `ΔG` (routed by the engine like a normal evaluation's
/// sends).
pub type Rebased<P> = (
    <P as PieProgram>::Partial,
    Vec<(<P as PieProgram>::Key, <P as PieProgram>::Value)>,
);

/// One fragment's seed batch: the sender fragment and the changed update
/// parameters a rebase or retraction produced, routed through `G_P` like a
/// normal evaluation's sends.
pub type SeedBatch<P> = (
    usize,
    Vec<(<P as PieProgram>::Key, <P as PieProgram>::Value)>,
);

/// What [`IncrementalPie::retract`] returns when it absorbs a non-monotone
/// delta: the seeds of the IncEval-only refresh that follows, and how many
/// retained cells it reset.
pub struct Retraction<P: PieProgram> {
    /// The changed border values, one batch per sending fragment.
    pub seeds: Vec<SeedBatch<P>>,
    /// Retained partial-result cells the retraction reset before
    /// re-deriving them (reported as `UpdateReport::retracted`).
    pub retracted: usize,
}

/// Extension trait for PIE programs that can answer queries **under graph
/// updates** (the paper's Section 3.4): once `Q(G)` has been prepared, the
/// program can compute `Q(G ⊕ ΔG)` by rebasing its retained partials onto the
/// updated fragments and letting the engine iterate IncEval — no PEval.
///
/// The protocol, driven by [`crate::prepared::PreparedQuery::update`]:
///
/// 1. the partition layer applies `ΔG` to the fragmentation (fragments,
///    border sets and `G_P` are maintained there);
/// 2. for every structurally changed fragment, [`IncrementalPie::rebase`]
///    repairs that fragment's partial *locally* and returns the update
///    parameters whose values changed as a consequence of `ΔG` — the
///    messages `M_i` that IncEval would otherwise never learn about;
/// 3. the engine routes those seeds through `G_P` and runs the ordinary
///    IncEval fixpoint from the retained partials.
///
/// This path is only sound when the delta moves every update parameter in
/// the direction of the program's partial order (the monotone condition of
/// the Assurance Theorem): SSSP and CC tolerate *insertions* (distances and
/// component ids only decrease), graph simulation tolerates *deletions*
/// (match variables only flip to `false`).  [`IncrementalPie::delta_is_monotone`]
/// makes that call per program.
///
/// A **non-monotone** delta is first offered to [`IncrementalPie::retract`]:
/// a program that can name the retained cells the delta invalidated resets
/// just those and the refresh stays IncEval-only (SSSP retracts the
/// shortest-path subtree below a removed tight edge; CC keeps its labels
/// when no removal splits a component).  A delta the program declines runs
/// the *bounded refresh* instead.  The program's
/// [`IncrementalPie::damage_policy`] tells the partition layer how far the
/// staleness spreads across the fragment quotient graph
/// ([`grape_partition::delta::damage_frontier`]); PEval re-roots only the
/// damaged fragments, every undamaged fragment keeps its retained partial,
/// and — under [`DamagePolicy::Reachability`] — the undamaged neighbours'
/// border segments are re-emitted via [`IncrementalPie::reseed`] so the
/// freshly re-rooted fragments re-learn the values they contribute.  Only
/// when the frontier covers every fragment does the refresh degenerate into
/// the classic full re-preparation.
pub trait IncrementalPie: PieProgram {
    /// Whether `delta` can be absorbed by the IncEval-only refresh: every
    /// update parameter must only ever move along the program's partial
    /// order under this delta.  A delta for which this returns `false` is
    /// offered to [`IncrementalPie::retract`] and, if the program declines
    /// it, refreshed by the bounded refresh (PEval on the damage frontier).
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool;

    /// Absorbs a **non-monotone** delta without PEval, or declines it.
    ///
    /// `old` is the fragmentation the retained `partials` (one per
    /// fragment, in fragment order) were computed on, `applied` what
    /// `old.apply_delta(delta)` returned.  A program that can bound what
    /// the delta invalidated rewrites `partials` in place so that every
    /// entry is a partial of the corresponding fragment of
    /// `applied.fragmentation` from which the IncEval fixpoint, started
    /// with the returned seeds, reaches exactly the from-scratch answer —
    /// rebuilt fragments included, since the caller rebases nothing else.
    ///
    /// Returning `None` declines the delta and must leave `partials`
    /// untouched; the bounded refresh then runs as if this hook did not
    /// exist.  The default declines everything.
    fn retract(
        &self,
        query: &Self::Query,
        old: &Fragmentation,
        applied: &DeltaApplication,
        delta: &GraphDelta,
        partials: &mut [Self::Partial],
    ) -> Option<Retraction<Self>>
    where
        Self: Sized,
    {
        let _ = (query, old, applied, delta, partials);
        None
    }

    /// Rebases the retained partial result of one *affected* fragment onto
    /// its rebuilt incarnation and returns the changed update parameters.
    ///
    /// `old_frag` is the fragment the partial was computed on, `new_frag`
    /// the rebuilt fragment, and `delta` the restriction of `ΔG` to this
    /// fragment.  Local ids may have shifted: the partial is in `old_frag`'s
    /// local order, so `old_frag.local_of(new_frag.global_of(l))` finds the
    /// retained entry of new local `l`, and the rebased partial is in
    /// `new_frag`'s order.  The
    /// returned messages are routed through `G_P` exactly like the sends of
    /// a normal evaluation; only *changed* values should be returned, in
    /// keeping with GRAPE's changed-parameters-only discipline.
    ///
    /// The engine calls it for monotone deltas only, so implementations may
    /// assume the direction of change (e.g. SSSP distances never increase);
    /// a program's own [`IncrementalPie::retract`] may call it for a
    /// non-monotone delta it has shown to be equivalent to a monotone one
    /// (CC, when no removal splits a component).
    fn rebase(
        &self,
        query: &Self::Query,
        old_frag: &Fragment,
        new_frag: &Fragment,
        partial: Self::Partial,
        delta: &FragmentDelta,
    ) -> Rebased<Self>;

    /// How far a **non-monotone** delta's damage spreads across fragments —
    /// the policy of the bounded refresh (`peval_calls == |damaged|` instead
    /// of a full re-preparation).
    ///
    /// The default, [`DamagePolicy::Component`], is sound for *any*
    /// deterministic program without further cooperation: damage swallows
    /// whole quotient connected components, so no message ever crosses the
    /// damaged/undamaged boundary and both sides reproduce a full
    /// recompute's values independently.  Programs whose fixpoint is
    /// schedule-independent given boundary inputs (the Assurance-Theorem
    /// programs) should narrow this to [`DamagePolicy::Reachability`] and
    /// implement [`IncrementalPie::reseed`]; programs whose partial is a
    /// pure function of a bounded neighborhood (SubIso) can return
    /// [`DamagePolicy::Halo`].
    fn damage_policy(&self, query: &Self::Query) -> DamagePolicy {
        let _ = query;
        DamagePolicy::Component
    }

    /// Re-emits the **full border segment** of a retained partial — the
    /// current value of every update parameter this fragment contributes —
    /// so that a freshly re-PEval'ed neighbour can re-learn them during a
    /// bounded refresh.  Only called for *undamaged* fragments feeding a
    /// damaged one, and only under [`DamagePolicy::Reachability`]; the
    /// engine routes the values like ordinary sends but delivers them to
    /// damaged fragments exclusively.
    ///
    /// Unlike the changed-values-only discipline of normal evaluation, this
    /// must emit *all* current border values: the receiver starts from a
    /// fresh PEval and has no memory of them.
    fn reseed(
        &self,
        query: &Self::Query,
        frag: &Fragment,
        partial: &Self::Partial,
    ) -> Vec<(Self::Key, Self::Value)> {
        let _ = (query, frag, partial);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_key_routes_to_itself() {
        let v: VertexId = 17;
        assert_eq!(v.vertex(), 17);
        assert_eq!((3u32, 42u64).vertex(), 42);
    }

    #[test]
    fn message_buffer_accumulates_and_drains() {
        let mut m: Messages<VertexId, f64> = Messages::new();
        assert!(m.is_empty());
        m.send(1, 0.5);
        m.send(2, 1.5);
        assert_eq!(m.len(), 2);
        let drained = m.take();
        assert_eq!(drained, vec![(1, 0.5), (2, 1.5)]);
        assert!(m.is_empty());
    }

    #[test]
    fn default_is_empty() {
        let m: Messages<VertexId, bool> = Messages::default();
        assert!(m.is_empty());
    }

    /// Competing sends for the same key coalesce at insert time with
    /// `aggregateMsg` semantics: for SSSP distances (`min`), the shortest
    /// distance wins regardless of send order, and only one entry is kept.
    #[test]
    fn competing_sssp_distances_coalesce_to_the_minimum() {
        let min = |_k: &VertexId, a: f64, b: f64| a.min(b);
        let mut m: Messages<VertexId, f64> = Messages::with_aggregator(&min);
        m.send(7, 5.0);
        m.send(7, 3.0);
        m.send(7, 4.0);
        m.send(9, 1.5);
        assert_eq!(m.len(), 2, "duplicate keys must not grow the buffer");
        let mut drained = m.take();
        drained.sort_by_key(|(k, _)| *k);
        assert_eq!(drained, vec![(7, 3.0), (9, 1.5)]);
        assert!(m.is_empty());
    }

    /// The coalescing index is rebuilt after `take`, so a reused buffer
    /// still aggregates correctly.
    #[test]
    fn coalescing_survives_take_and_reuse() {
        let min = |_k: &VertexId, a: u64, b: u64| a.min(b);
        let mut m: Messages<VertexId, u64> = Messages::with_aggregator(&min);
        m.send(1, 10);
        assert_eq!(m.take(), vec![(1, 10)]);
        m.send(1, 8);
        m.send(1, 9);
        assert_eq!(m.take(), vec![(1, 8)]);
    }

    /// Without an aggregator the buffer keeps duplicates verbatim (legacy
    /// behaviour used by unit tests that inspect raw sends).
    #[test]
    fn plain_buffer_keeps_duplicates() {
        let mut m: Messages<VertexId, f64> = Messages::new();
        m.send(1, 2.0);
        m.send(1, 1.0);
        assert_eq!(m.len(), 2);
    }
}
