//! # grape-core
//!
//! The GRAPE engine — the primary contribution of
//! *Parallelizing Sequential Graph Computations* (SIGMOD 2017).
//!
//! GRAPE parallelizes **sequential** graph algorithms as a whole: the user
//! supplies a *PIE program* (a batch algorithm `PEval`, an incremental
//! algorithm `IncEval`, and a combiner `Assemble`, plus the declaration of
//! the status variables attached to border vertices), and the engine runs it
//! over a fragmented graph as a simultaneous fixpoint:
//!
//! ```text
//! R_i^0     = PEval(Q, F_i)
//! R_i^{r+1} = IncEval(Q, R_i^r, F_i, M_i)      (messages M_i = changed update parameters)
//! Q(G)      = Assemble(R_1^{r0}, …, R_m^{r0})  (when no more updates exist)
//! ```
//!
//! Under the monotonic condition of the Assurance Theorem (update parameters
//! drawn from a finite domain and updated along a partial order — enforced in
//! practice by the `aggregateMsg` function), this terminates with the answer
//! the sequential algorithms would produce.
//!
//! Modules:
//!
//! * [`pie`] — the [`pie::PieProgram`] trait (the programming model) and the
//!   [`pie::IncrementalPie`] extension for queries under updates,
//! * [`session`] — the user entry point: [`session::GrapeSession`] and its
//!   fluent builder (workers, mode, limits, fault tolerance, refresh width,
//!   and where evaluations run),
//! * [`prepared`] — prepared queries over evolving graphs:
//!   [`prepared::PreparedQuery`] retains the per-fragment partials so
//!   `Q(G ⊕ ΔG)` is answered by IncEval alone,
//! * [`serve`] — [`serve::GrapeServer`]: many prepared queries multiplexed
//!   over **one** delta stream (one `apply_delta` per `ΔG`, shared
//!   `Arc<Fragment>` storage), with eviction/rehydration through the
//!   per-fragment binary snapshots,
//! * [`output_delta`] — answer deltas: the [`output_delta::DeltaOutput`]
//!   contract programs implement so subscriptions
//!   ([`serve::GrapeServer::subscribe`]) can push *which rows changed*
//!   instead of making watchers re-poll whole answers,
//! * [`spec`] — [`spec::QuerySpec`]: serializable, wire-nameable query
//!   specifications for serving processes (`graped`),
//! * [`engine`] — the two runtimes (BSP superstep loop and the barrier-free
//!   streaming loop) behind a session,
//! * [`transport`] — the message substrate ([`transport::Transport`], with
//!   barrier and mpsc-style channel implementations; the mode picks one) and
//!   [`transport::TransportSpec`], where evaluations run,
//! * [`worker_proto`] — the binary pipe protocol of subprocess workers
//!   (`TransportSpec::Process`), framed by [`frame`], the length-delimited
//!   framing the daemon's TCP protocol shares,
//! * [`config`] — engine configuration (workers, sync/async mode, fault
//!   tolerance, superstep limits),
//! * [`metrics`] — response-time / superstep / communication accounting,
//! * [`load_balance`] — mapping of fragments (virtual workers) onto physical
//!   workers ([`load_balance::assign`]),
//! * [`simulate`] — MapReduce and BSP simulation layers (Theorem 2).

pub mod config;
pub mod engine;
pub mod frame;
mod host;
pub mod load_balance;
pub mod metrics;
pub mod output_delta;
pub mod pie;
pub mod prepared;
pub mod serve;
pub mod session;
pub mod simulate;
pub mod spec;
#[doc(hidden)]
pub mod test_support;
pub mod transport;
pub mod worker_proto;

pub use config::{EngineConfig, EngineMode};
pub use engine::{EngineError, RunResult};
pub use metrics::{EngineMetrics, LatencySummary};
pub use output_delta::{DeltaOutput, OutputDelta, OutputEvent, QueryDelta, WireOutputDelta};
pub use pie::{IncrementalPie, KeyVertex, Messages, PieProgram, ProcessCodec, SerdeProcessCodec};
pub use prepared::{PreparedQuery, RefreshKind, UpdateReport};
pub use serve::{
    BatchRejection, BatchReport, GrapeServer, QueryHandle, QueryStatus, RehydrationReport,
    ServeError, ServeReport, SubscriptionId,
};
pub use session::{GrapeSession, GrapeSessionBuilder};
pub use spec::QuerySpec;
pub use transport::{Transport, TransportSpec};
