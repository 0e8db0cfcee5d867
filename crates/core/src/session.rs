//! Sessions: the user-facing entry point of the engine.
//!
//! A [`GrapeSession`] bundles the run policies — workers, mode, limits,
//! fault tolerance, refresh width and where evaluations run — behind one
//! fluent builder with exactly one setter per policy:
//!
//! ```
//! use grape_core::config::EngineMode;
//! use grape_core::session::GrapeSession;
//!
//! let session = GrapeSession::builder()
//!     .workers(8)
//!     .mode(EngineMode::Async)
//!     .build()
//!     .unwrap();
//! assert_eq!(session.config().num_workers, 8);
//! ```
//!
//! The message substrate follows the mode (a barrier under
//! [`EngineMode::Sync`], streaming mailboxes under [`EngineMode::Async`]);
//! [`GrapeSessionBuilder::transport`] only chooses where the evaluations
//! run ([`TransportSpec`]).
//!
//! The session is cheap to clone, stateless between runs, and reusable:
//! `session.run(&fragmentation, &program, &query)` executes one query and
//! returns the same [`RunResult`] shape as always, while
//! `session.prepare(fragmentation, program, query)` returns a
//! [`crate::prepared::PreparedQuery`] that retains the per-fragment partials
//! for answering under graph updates.  Contradictory policies (the
//! barrier-free [`EngineMode::Async`] with superstep-aligned checkpointing
//! or failure injection) are rejected at [`GrapeSessionBuilder::build`]
//! time rather than at run time.

use crate::config::{EngineConfig, EngineMode};
use crate::engine::{execute, EngineError, RunResult};
use crate::pie::PieProgram;
use crate::transport::TransportSpec;

use grape_partition::fragment::Fragmentation;

/// A configured, reusable handle on the GRAPE engine.
///
/// Construct it with [`GrapeSession::builder`] (full control) or
/// [`GrapeSession::with_workers`] (defaults everywhere else).
#[derive(Debug, Clone)]
pub struct GrapeSession {
    config: EngineConfig,
    transport: TransportSpec,
}

impl GrapeSession {
    /// Starts building a session.
    pub fn builder() -> GrapeSessionBuilder {
        GrapeSessionBuilder::default()
    }

    /// A session with `num_workers` physical workers and default policies
    /// everywhere else.
    pub fn with_workers(num_workers: usize) -> Self {
        GrapeSession::builder()
            .workers(num_workers)
            .build()
            .expect("a bare worker-count session is always valid")
    }

    /// Runs a PIE program over a fragmented graph and returns the assembled
    /// output together with the run metrics.
    ///
    /// One-shot: the per-fragment partial results are assembled and dropped.
    /// To answer the same query repeatedly while the graph evolves, use
    /// [`GrapeSession::prepare`] (defined in [`crate::prepared`]) and apply
    /// [`crate::prepared::PreparedQuery::update`] instead of re-running.
    pub fn run<P: PieProgram>(
        &self,
        fragmentation: &Fragmentation,
        program: &P,
        query: &P::Query,
    ) -> Result<RunResult<P::Output>, EngineError> {
        execute(self, fragmentation, program, query)
    }

    /// The session configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Where the evaluations run.
    pub fn transport(&self) -> TransportSpec {
        self.transport
    }
}

impl Default for GrapeSession {
    fn default() -> Self {
        GrapeSession::builder()
            .build()
            .expect("the default session is always valid")
    }
}

/// Fluent builder for [`GrapeSession`].
#[derive(Debug, Clone, Default)]
pub struct GrapeSessionBuilder {
    config: EngineConfig,
    transport: TransportSpec,
}

impl GrapeSessionBuilder {
    /// Number of physical workers (threads); clamped to ≥ 1.
    pub fn workers(mut self, num_workers: usize) -> Self {
        self.config.num_workers = num_workers.max(1);
        self
    }

    /// Execution mode (default: [`EngineMode::default_from_env`]).
    pub fn mode(mut self, mode: EngineMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Superstep safety limit.
    pub fn max_supersteps(mut self, max: usize) -> Self {
        self.config.max_supersteps = max.max(1);
        self
    }

    /// Checkpoint every `n` supersteps ([`EngineMode::Sync`] only).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.config.checkpoint_every = Some(n.max(1));
        self
    }

    /// Injects a worker failure ([`EngineMode::Sync`] only).
    pub fn inject_failure(mut self, superstep: usize, fragment: usize) -> Self {
        self.config = self.config.with_injected_failure(superstep, fragment);
        self
    }

    /// Refresh fan-out width of every [`crate::serve::GrapeServer`] built on
    /// this session: up to `threads` resident queries refresh concurrently
    /// per commit (clamped to ≥ 1, and at run time to the number of queries
    /// ready).  Not clamped to the machine's parallelism.  Each refresh
    /// still runs its own engine with `num_workers` threads, so the total
    /// thread demand is `threads × num_workers`.
    pub fn refresh_threads(mut self, threads: usize) -> Self {
        self.config.refresh_threads = threads.max(1);
        self
    }

    /// Where the evaluations run (default: [`TransportSpec::InProcess`]).
    pub fn transport(mut self, transport: TransportSpec) -> Self {
        self.transport = transport;
        self
    }

    /// Validates the combined policies and produces the session.  The
    /// engine runs only sessions, so every run has passed this check.
    pub fn build(self) -> Result<GrapeSession, EngineError> {
        crate::engine::validate_policies(&self.config)?;
        Ok(GrapeSession {
            config: self.config,
            transport: self.transport,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pie::Messages;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::types::VertexId;
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::fragment::Fragment;
    use grape_partition::strategy::PartitionStrategy;

    /// The smallest possible PIE program: PEval counts local vertices, no
    /// messages, Assemble sums.  Enough to prove a session is reusable.
    struct CountVertices;

    impl PieProgram for CountVertices {
        type Query = ();
        type Partial = usize;
        type Key = VertexId;
        type Value = u64;
        type Output = usize;

        fn peval(&self, _q: &(), frag: &Fragment, _ctx: &mut Messages<VertexId, u64>) -> usize {
            frag.num_inner()
        }

        fn inc_eval(
            &self,
            _q: &(),
            _frag: &Fragment,
            _partial: &mut usize,
            _messages: &[(VertexId, u64)],
            _ctx: &mut Messages<VertexId, u64>,
        ) {
        }

        fn assemble(&self, _q: &(), _frag: &Fragmentation, partials: Vec<usize>) -> usize {
            partials.into_iter().sum()
        }

        fn aggregate(&self, _key: &VertexId, a: u64, _b: u64) -> u64 {
            a
        }
    }

    fn tiny_fragmentation() -> grape_partition::fragment::Fragmentation {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .build();
        HashEdgeCut::new(2).partition(&g).unwrap()
    }

    #[test]
    fn builder_sets_every_policy() {
        let session = GrapeSession::builder()
            .workers(8)
            .mode(EngineMode::Async)
            .max_supersteps(50)
            .refresh_threads(4)
            .transport(TransportSpec::Process { workers: 3 })
            .build()
            .unwrap();
        assert_eq!(session.config().num_workers, 8);
        assert_eq!(session.config().mode, EngineMode::Async);
        assert_eq!(session.config().max_supersteps, 50);
        assert_eq!(session.config().refresh_threads, 4);
        let clamped = GrapeSession::builder().refresh_threads(0).build().unwrap();
        assert_eq!(clamped.config().refresh_threads, 1, "clamps to one");
        assert_eq!(session.transport(), TransportSpec::Process { workers: 3 });
    }

    #[test]
    fn transport_defaults_follow_the_mode() {
        let sync = GrapeSession::builder()
            .mode(EngineMode::Sync)
            .build()
            .unwrap();
        assert_eq!(sync.transport(), TransportSpec::InProcess);
        let async_ = GrapeSession::builder()
            .mode(EngineMode::Async)
            .build()
            .unwrap();
        assert_eq!(async_.transport(), TransportSpec::InProcess);
    }

    #[test]
    fn async_mode_rejects_superstep_aligned_fault_tolerance() {
        let err = GrapeSession::builder()
            .mode(EngineMode::Async)
            .checkpoint_every(2)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
        let err = GrapeSession::builder()
            .mode(EngineMode::Async)
            .inject_failure(1, 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn workers_clamped_to_one() {
        assert_eq!(GrapeSession::with_workers(0).config().num_workers, 1);
    }

    #[test]
    fn a_session_is_reusable_across_runs() {
        let frag = tiny_fragmentation();
        let session = GrapeSession::with_workers(2);
        let first = session.run(&frag, &CountVertices, &()).unwrap();
        let second = session.run(&frag, &CountVertices, &()).unwrap();
        assert_eq!(first.output, 4);
        assert_eq!(second.output, 4);
    }
}
