//! Engine configuration: the paper's "configuration panel" (Fig. 1), where
//! the user picks the number of workers, plus knobs for the execution mode,
//! fault tolerance and termination safety net.
//!
//! Configurations are set through [`crate::session::GrapeSession::builder`],
//! one setter per field; a session exposes its configuration read-only
//! through [`crate::session::GrapeSession::config`].

/// Synchronisation mode of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// BSP-style synchronous supersteps (the model analysed in the paper):
    /// a global barrier between supersteps, messages published at the
    /// barrier by [`crate::transport::BarrierTransport`].
    Sync,
    /// Asynchronous extension (mentioned as future work in the paper's
    /// conclusion): fragments run as independent tasks draining their
    /// mailboxes ([`crate::transport::ChannelTransport`]) to quiescence —
    /// there is **no global superstep barrier**.  Results are identical
    /// under the monotonic condition, usually with fewer supersteps (the
    /// superstep metric then reports the depth of an equivalent BSP
    /// schedule of the same message deliveries).
    Async,
}

impl EngineMode {
    /// The process-wide default mode: `Sync`, unless the environment
    /// variable `GRAPE_ENGINE_MODE` is set to `async` (used by CI to run
    /// the whole test suite through the barrier-free runtime).
    pub fn default_from_env() -> Self {
        match std::env::var("GRAPE_ENGINE_MODE") {
            Ok(v) if v.eq_ignore_ascii_case("async") || v.eq_ignore_ascii_case("asynchronous") => {
                EngineMode::Async
            }
            _ => EngineMode::Sync,
        }
    }
}

/// An injected worker failure, used to exercise the fault-tolerance path
/// (Section 6, "Fault tolerance"): at the start of superstep `superstep`, the
/// fragment `fragment` loses its state and must be recovered from the last
/// checkpoint by the arbitrator.  Only meaningful in [`EngineMode::Sync`]
/// (checkpoints are superstep-aligned).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFailure {
    /// Superstep (1-based IncEval rounds; PEval is superstep 0).
    pub superstep: usize,
    /// Fragment whose state is lost.
    pub fragment: usize,
}

/// Configuration of a GRAPE run (see [`crate::session::GrapeSession`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of physical workers (threads).  Fragments (virtual workers) are
    /// mapped onto physical workers by [`crate::load_balance::assign`].
    pub num_workers: usize,
    /// Execution mode.
    pub mode: EngineMode,
    /// Safety net: abort with an error after this many supersteps (the
    /// Assurance Theorem guarantees termination for monotonic programs, but a
    /// buggy user program might not be monotonic).
    pub max_supersteps: usize,
    /// Take a checkpoint of all partial results every `n` supersteps
    /// (`None` disables checkpointing).  Synchronous mode only.
    pub checkpoint_every: Option<usize>,
    /// Failures to inject (testing / evaluation of the recovery path).
    /// Synchronous mode only.
    pub injected_failures: Vec<InjectedFailure>,
    /// Number of threads a [`crate::serve::GrapeServer`] uses to fan
    /// refreshes out over its resident queries (the per-query engines still
    /// use `num_workers` threads each).  Set it with
    /// [`crate::session::GrapeSessionBuilder::refresh_threads`].
    pub refresh_threads: usize,
}

impl EngineConfig {
    /// A configuration with `num_workers` physical workers, default safety
    /// limits, and the process default mode (see
    /// [`EngineMode::default_from_env`]).
    pub fn with_workers(num_workers: usize) -> Self {
        EngineConfig {
            num_workers: num_workers.max(1),
            mode: EngineMode::default_from_env(),
            max_supersteps: 100_000,
            checkpoint_every: None,
            injected_failures: Vec::new(),
            refresh_threads: 1,
        }
    }

    /// Adds an injected failure.
    pub fn with_injected_failure(mut self, superstep: usize, fragment: usize) -> Self {
        self.injected_failures.push(InjectedFailure {
            superstep,
            fragment,
        });
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::with_workers(std::thread::available_parallelism().map_or(4, |n| n.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_workers_clamps_to_one() {
        assert_eq!(EngineConfig::with_workers(0).num_workers, 1);
        assert_eq!(EngineConfig::with_workers(8).num_workers, 8);
    }

    #[test]
    fn builder_methods_set_fields() {
        let cfg = EngineConfig::with_workers(2).with_injected_failure(3, 1);
        assert_eq!(cfg.num_workers, 2);
        assert_eq!(
            cfg.injected_failures,
            vec![InjectedFailure {
                superstep: 3,
                fragment: 1
            }]
        );
    }

    #[test]
    fn default_config_has_at_least_one_worker() {
        let cfg = EngineConfig::default();
        assert!(cfg.num_workers >= 1);
        assert_eq!(cfg.mode, EngineMode::default_from_env());
        assert!(cfg.checkpoint_every.is_none());
    }
}
