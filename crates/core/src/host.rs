//! Location-transparent worker hosts.
//!
//! The engine's scheduler loop ([`crate::engine`]) never touches fragment
//! storage or partial results directly: it schedules *evaluations* against a
//! [`WorkerHost`], which owns the fragments and the retained partials and
//! runs PEval/IncEval wherever they live —
//!
//! * [`InProcessHost`] — fragments stay in shared memory and evaluations
//!   run on the calling thread (the classic single-process GRAPE engine);
//! * [`ProcessHost`] — fragments are sharded across `grape-worker` OS
//!   subprocesses ([`grape_partition::shard`]), evaluations execute inside
//!   the owning process, and only messages/partials cross the stdin/stdout
//!   pipes ([`crate::worker_proto`]).
//!
//! The host boundary is exactly the paper's worker boundary: everything the
//! coordinator does (routing through `G_P`, `aggregateMsg` at the receiving
//! mailbox, superstep scheduling, checkpoints) stays with the engine;
//! everything a worker does (sequential PEval/IncEval over an owned
//! fragment) happens behind this trait.

use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use grape_partition::fragment::Fragment;
use grape_partition::shard::{owner, shard_assignment};
use serde::Serialize;

use crate::engine::EngineError;
use crate::pie::{AggregateFn, Messages, PieProgram, ProcessCodec};
use crate::worker_proto::{
    decode, encode_init, encode_value, locate_worker_binary, Handshake, Pipe, WorkerReply,
    WorkerRequest, WORKER_BIN_ENV,
};

/// What one PEval/IncEval evaluation hands back to the engine: the
/// coalesced update-parameter messages it produced and whether it asked to
/// run again next round ([`Messages::run_again`]), or the error that
/// stopped it.
pub(crate) type EvalResult<P> = Result<(Updates<P>, bool), EngineError>;

/// One evaluation's update-parameter messages.
type Updates<P> = Vec<(<P as PieProgram>::Key, <P as PieProgram>::Value)>;

/// Where one run's evaluations execute.  The engine addresses fragments by
/// index and never sees where they live.
///
/// Hosts apply the program's `aggregateMsg` at insert time to the messages
/// an evaluation produces (via [`Messages::with_aggregator`]), so the
/// engine receives already-coalesced update batches from every host alike.
pub(crate) trait WorkerHost<P: PieProgram>: Sync {
    /// Runs PEval on fragment `fi`, installs its partial, and returns the
    /// produced update-parameter messages.
    fn peval(&self, fi: usize) -> EvalResult<P>;

    /// Runs IncEval on fragment `fi` with the drained `updates`, mutating
    /// its retained partial in place.
    fn inc_eval(&self, fi: usize, updates: &[(P::Key, P::Value)]) -> EvalResult<P>;

    /// Clones every fragment's current partial (checkpointing).
    fn checkpoint_partials(&self) -> Result<Vec<Option<P::Partial>>, EngineError>;

    /// Overwrites every fragment's partial from a checkpoint.
    fn restore_partials(&self, saved: &[Option<P::Partial>]) -> Result<(), EngineError>;

    /// Drops every fragment's partial (restart-from-scratch recovery).
    fn clear_partials(&self) -> Result<(), EngineError>;

    /// Tears the host down and returns the final partials, one per
    /// fragment, in fragment order.
    fn into_partials(self) -> Result<Vec<P::Partial>, EngineError>
    where
        Self: Sized;
}

/// The shared-memory host: fragments and partials live in this process and
/// evaluations run on the engine's worker threads.
pub(crate) struct InProcessHost<'r, P: PieProgram> {
    program: &'r P,
    query: &'r P::Query,
    fragments: &'r [Arc<Fragment>],
    aggregate: AggregateFn<'r, P::Key, P::Value>,
    partials: Vec<Mutex<Option<P::Partial>>>,
}

impl<'r, P: PieProgram> InProcessHost<'r, P> {
    /// `retained` pre-populates the partials: `None` (no partial yet) for a
    /// full run, the retained partials for an incremental refresh.
    pub fn new(
        program: &'r P,
        query: &'r P::Query,
        fragments: &'r [Arc<Fragment>],
        aggregate: AggregateFn<'r, P::Key, P::Value>,
        retained: Option<Vec<P::Partial>>,
    ) -> Self {
        let partials = match retained {
            Some(partials) => partials.into_iter().map(|p| Mutex::new(Some(p))).collect(),
            None => fragments.iter().map(|_| Mutex::new(None)).collect(),
        };
        InProcessHost {
            program,
            query,
            fragments,
            aggregate,
            partials,
        }
    }
}

impl<P: PieProgram> WorkerHost<P> for InProcessHost<'_, P> {
    fn peval(&self, fi: usize) -> EvalResult<P> {
        let mut msgs = Messages::with_aggregator(self.aggregate);
        let partial = self
            .program
            .peval(self.query, &self.fragments[fi], &mut msgs);
        *self.partials[fi].lock() = Some(partial);
        Ok((msgs.take(), msgs.runs_again()))
    }

    fn inc_eval(&self, fi: usize, updates: &[(P::Key, P::Value)]) -> EvalResult<P> {
        let mut msgs = Messages::with_aggregator(self.aggregate);
        let mut guard = self.partials[fi].lock();
        let partial = guard
            .as_mut()
            .expect("IncEval before PEval: missing partial result");
        self.program
            .inc_eval(self.query, &self.fragments[fi], partial, updates, &mut msgs);
        Ok((msgs.take(), msgs.runs_again()))
    }

    fn checkpoint_partials(&self) -> Result<Vec<Option<P::Partial>>, EngineError> {
        Ok(self.partials.iter().map(|p| p.lock().clone()).collect())
    }

    fn restore_partials(&self, saved: &[Option<P::Partial>]) -> Result<(), EngineError> {
        for (slot, p) in self.partials.iter().zip(saved) {
            *slot.lock() = p.clone();
        }
        Ok(())
    }

    fn clear_partials(&self) -> Result<(), EngineError> {
        for slot in &self.partials {
            *slot.lock() = None;
        }
        Ok(())
    }

    fn into_partials(self) -> Result<Vec<P::Partial>, EngineError> {
        Ok(self
            .partials
            .into_iter()
            .map(|p| p.into_inner().expect("every fragment has a partial result"))
            .collect())
    }
}

/// Accepts an acknowledgement ([`WorkerReply::expect`]).
fn done(reply: WorkerReply) -> Option<()> {
    (reply == WorkerReply::Done).then_some(())
}

/// One spawned `grape-worker` subprocess with its pipe endpoints and the
/// encode/decode buffers reused across every request of the run.
struct WorkerChild {
    child: Child,
    stdin: ChildStdin,
    stdout: std::io::BufReader<ChildStdout>,
    pipe: Pipe,
}

impl WorkerChild {
    /// One request/reply round trip: the request payload is whatever
    /// `encode` appends, written to the pipe in one `write_all`.  Returns
    /// the reply plus the bytes that crossed the pipe (request + reply
    /// payloads).
    fn request(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(WorkerReply, usize), String> {
        let sent = self.pipe.send(&mut self.stdin, encode)?;
        let reply = self
            .pipe
            .recv(&mut self.stdout)?
            .ok_or_else(|| "worker subprocess closed its pipe mid-run".to_string())?;
        let bytes = sent + reply.len();
        let reply = decode(reply).map_err(|e| format!("malformed worker reply: {e}"))?;
        Ok((reply, bytes))
    }
}

impl Drop for WorkerChild {
    /// Reap on every exit path: a host that is dropped mid-run (engine
    /// error, panic unwind, daemon shutdown) kills and waits for its
    /// children, so no orphan `grape-worker` survives the parent.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The multi-process host behind [`crate::transport::TransportSpec::Process`]:
/// spawns one `grape-worker` per shard, ships each shard's fragments (and,
/// on a refresh, retained partials) in the handshake, and forwards every
/// evaluation to the owning subprocess.
pub(crate) struct ProcessHost<'r, P: PieProgram> {
    codec: &'r dyn ProcessCodec<P>,
    children: Vec<Mutex<WorkerChild>>,
    /// Child index → the fragments it owns, in the order every partials
    /// list on its pipe follows.
    shards: Vec<Vec<usize>>,
    pipe_bytes: Arc<AtomicUsize>,
}

impl<'r, P: PieProgram> ProcessHost<'r, P> {
    /// Spawns `workers` subprocesses (clamped to `1..=fragments.len()`),
    /// handshakes each with its shard, and returns the connected host.
    /// `partials` pre-populates the workers' retained partials (incremental
    /// refresh); `None` starts everyone empty (full run).
    pub fn spawn(
        program: &'r P,
        query: &P::Query,
        fragments: &[Arc<Fragment>],
        partials: Option<&[P::Partial]>,
        workers: usize,
    ) -> Result<Self, EngineError> {
        let codec = program.process_codec().ok_or_else(|| {
            EngineError::InvalidConfig(format!(
                "program `{}` has no process codec; \
                 implement PieProgram::process_codec to run under TransportSpec::Process",
                program.name()
            ))
        })?;
        let binary = locate_worker_binary().ok_or_else(|| {
            EngineError::InvalidConfig(format!(
                "grape-worker binary not found; build the grape-daemon crate \
                 or point {WORKER_BIN_ENV} at it"
            ))
        })?;

        let shards = shard_assignment(fragments.len(), workers.clamp(1, fragments.len()));
        let pipe_bytes = Arc::new(AtomicUsize::new(0));
        let mut children = Vec::with_capacity(shards.len());
        for (wi, shard) in shards.iter().enumerate() {
            let mut child = Command::new(&binary)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    EngineError::Worker(format!("cannot spawn {}: {e}", binary.display()))
                })?;
            let mut worker = WorkerChild {
                stdin: child.stdin.take().expect("piped stdin"),
                stdout: std::io::BufReader::new(child.stdout.take().expect("piped stdout")),
                child,
                pipe: Pipe::default(),
            };
            // Handshake: only this shard's fragments (and partials) ship.
            let handshake = Handshake {
                program: program.name().to_string(),
                query: codec.encode_query(query),
                fragments: shard.clone(),
                partials: partials.map_or_else(Vec::new, |ps| {
                    shard
                        .iter()
                        .map(|&fi| Some(codec.encode_partial(&ps[fi])))
                        .collect()
                }),
            };
            let records: Vec<&Fragment> = shard.iter().map(|&fi| fragments[fi].as_ref()).collect();
            worker
                .request(|out| encode_init(out, handshake, &records))
                .and_then(|(reply, bytes)| {
                    pipe_bytes.fetch_add(bytes, Ordering::Relaxed);
                    reply.expect(done)
                })
                .map_err(|e| EngineError::Worker(format!("worker {wi} handshake: {e}")))?;
            children.push(Mutex::new(worker));
        }

        Ok(ProcessHost {
            codec,
            children,
            shards,
            pipe_bytes,
        })
    }

    /// The shared pipe-byte counter, for metrics read after the host is
    /// consumed by [`WorkerHost::into_partials`].
    pub fn pipe_counter(&self) -> Arc<AtomicUsize> {
        self.pipe_bytes.clone()
    }

    /// Sends `request` to child `wi` and takes what `pick` accepts from
    /// its reply ([`WorkerReply::expect`]).
    fn rpc<T>(
        &self,
        wi: usize,
        request: &WorkerRequest,
        pick: impl FnOnce(WorkerReply) -> Option<T>,
    ) -> Result<T, EngineError> {
        self.children[wi]
            .lock()
            .request(|out| encode_value(out, &request.to_value()))
            .and_then(|(reply, bytes)| {
                self.pipe_bytes.fetch_add(bytes, Ordering::Relaxed);
                reply.expect(pick)
            })
            .map_err(|e| EngineError::Worker(format!("worker {wi}: {e}")))
    }

    fn eval(&self, fi: usize, request: &WorkerRequest) -> EvalResult<P> {
        let wi = owner(fi, self.shards.len());
        let (messages, again) = self.rpc(wi, request, |reply| match reply {
            WorkerReply::Messages(m) => Some((m, false)),
            WorkerReply::RunAgain(m) => Some((m, true)),
            _ => None,
        })?;
        let messages = messages
            .iter()
            .map(|m| self.codec.decode_message(m))
            .collect::<Result<_, _>>()
            .map_err(|e| EngineError::Worker(format!("undecodable worker message: {e}")))?;
        Ok((messages, again))
    }
}

impl<P: PieProgram> WorkerHost<P> for ProcessHost<'_, P> {
    fn peval(&self, fi: usize) -> EvalResult<P> {
        self.eval(fi, &WorkerRequest::Peval { fragment: fi })
    }

    fn inc_eval(&self, fi: usize, updates: &[(P::Key, P::Value)]) -> EvalResult<P> {
        let updates = updates
            .iter()
            .map(|(k, v)| self.codec.encode_message(k, v))
            .collect();
        self.eval(
            fi,
            &WorkerRequest::Inceval {
                fragment: fi,
                updates,
            },
        )
    }

    fn checkpoint_partials(&self) -> Result<Vec<Option<P::Partial>>, EngineError> {
        let mut out: Vec<Option<P::Partial>> = Vec::new();
        out.resize_with(self.shards.iter().map(Vec::len).sum(), || None);
        for (wi, shard) in self.shards.iter().enumerate() {
            // One slot per owned fragment, or the reply is rejected.
            let slots = self.rpc(wi, &WorkerRequest::GetPartials, |reply| match reply {
                WorkerReply::Partials(p) if p.len() == shard.len() => Some(p),
                _ => None,
            })?;
            for (&fi, slot) in shard.iter().zip(&slots) {
                out[fi] = slot
                    .as_ref()
                    .map(|v| self.codec.decode_partial(v))
                    .transpose()
                    .map_err(|e| EngineError::Worker(format!("undecodable partial {fi}: {e}")))?;
            }
        }
        Ok(out)
    }

    fn restore_partials(&self, saved: &[Option<P::Partial>]) -> Result<(), EngineError> {
        for (wi, shard) in self.shards.iter().enumerate() {
            let partials = shard
                .iter()
                .map(|&fi| saved[fi].as_ref().map(|p| self.codec.encode_partial(p)))
                .collect();
            self.rpc(wi, &WorkerRequest::SetPartials { partials }, done)?;
        }
        Ok(())
    }

    fn clear_partials(&self) -> Result<(), EngineError> {
        for wi in 0..self.children.len() {
            self.rpc(wi, &WorkerRequest::Clear, done)?;
        }
        Ok(())
    }

    fn into_partials(self) -> Result<Vec<P::Partial>, EngineError> {
        let collected = self.checkpoint_partials()?;
        // Orderly shutdown: `exit` then wait; `WorkerChild::drop` turns any
        // straggler into kill + wait.
        for wi in 0..self.children.len() {
            let _ = self.rpc(wi, &WorkerRequest::Exit, done);
        }
        for child in &self.children {
            let _ = child.lock().child.wait();
        }
        collected
            .into_iter()
            .enumerate()
            .map(|(fi, p)| {
                p.ok_or_else(|| {
                    EngineError::Worker(format!("fragment {fi} has no partial at the fixpoint"))
                })
            })
            .collect()
    }
}
