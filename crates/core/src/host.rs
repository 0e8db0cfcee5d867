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
use grape_partition::shard::shard_assignment;
use serde::{Deserialize, Serialize, Value};

use crate::engine::EngineError;
use crate::pie::{AggregateFn, Messages, PieProgram, ProcessCodec};
use crate::worker_proto::{
    decode_value, encode_init, encode_value, locate_worker_binary, partial_entries, Pipe,
    WORKER_BIN_ENV,
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
    fn request(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(Value, usize), String> {
        let sent = self.pipe.send(&mut self.stdin, encode)?;
        let reply = self
            .pipe
            .recv(&mut self.stdout)?
            .ok_or_else(|| "worker subprocess closed its pipe mid-run".to_string())?;
        let bytes = sent + reply.len();
        let v = decode_value(reply).map_err(|e| format!("malformed worker reply: {e}"))?;
        Ok((v, bytes))
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
    /// Fragment index → index into `children`.
    owner: Vec<usize>,
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
        let m = fragments.len();
        let workers = workers.clamp(1, m);
        let binary = locate_worker_binary().ok_or_else(|| {
            EngineError::InvalidConfig(format!(
                "grape-worker binary not found; build the grape-daemon crate \
                 or point {WORKER_BIN_ENV} at it"
            ))
        })?;

        let shards = shard_assignment(m, workers);
        let mut owner = vec![0usize; m];
        let pipe_bytes = Arc::new(AtomicUsize::new(0));
        let mut children = Vec::with_capacity(workers);
        for (wi, shard) in shards.iter().enumerate() {
            for &fi in shard {
                owner[fi] = wi;
            }
            let mut child = Command::new(&binary)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| {
                    EngineError::Worker(format!("cannot spawn {}: {e}", binary.display()))
                })?;
            let stdin = child.stdin.take().expect("piped stdin");
            let stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
            let mut worker = WorkerChild {
                child,
                stdin,
                stdout,
                pipe: Pipe::default(),
            };
            // Handshake: only this shard's fragments (and partials) ship.
            let shard_frags: Vec<(usize, &Fragment)> = shard
                .iter()
                .map(|&fi| (fi, fragments[fi].as_ref()))
                .collect();
            let shard_partials: Vec<(usize, Value)> = match partials {
                Some(ps) => shard
                    .iter()
                    .map(|&fi| (fi, codec.encode_partial(&ps[fi])))
                    .collect(),
                None => Vec::new(),
            };
            let query = codec.encode_query(query);
            let (reply, bytes) = worker
                .request(|out| {
                    encode_init(out, program.name(), query, &shard_frags, shard_partials)
                })
                .map_err(|e| EngineError::Worker(format!("worker {wi} handshake: {e}")))?;
            pipe_bytes.fetch_add(bytes, Ordering::Relaxed);
            check_ok(&reply).map_err(EngineError::Worker)?;
            children.push(Mutex::new(worker));
        }

        Ok(ProcessHost {
            codec,
            children,
            owner,
            pipe_bytes,
        })
    }

    /// The shared pipe-byte counter, for metrics read after the host is
    /// consumed by [`WorkerHost::into_partials`].
    pub fn pipe_counter(&self) -> Arc<AtomicUsize> {
        self.pipe_bytes.clone()
    }

    fn rpc(&self, wi: usize, request: &Value) -> Result<Value, EngineError> {
        let (reply, bytes) = self.children[wi]
            .lock()
            .request(|out| encode_value(out, request))
            .map_err(|e| EngineError::Worker(format!("worker {wi}: {e}")))?;
        self.pipe_bytes.fetch_add(bytes, Ordering::Relaxed);
        check_ok(&reply).map_err(|e| EngineError::Worker(format!("worker {wi}: {e}")))?;
        Ok(reply)
    }

    fn eval(&self, fi: usize, request: Value) -> EvalResult<P> {
        let reply = self.rpc(self.owner[fi], &request)?;
        let mut out = Vec::new();
        match reply.get_field("messages") {
            Some(Value::Seq(entries)) => {
                for entry in entries {
                    out.push(self.codec.decode_message(entry).map_err(|e| {
                        EngineError::Worker(format!("undecodable worker message: {e}"))
                    })?);
                }
            }
            _ => {
                return Err(EngineError::Worker(
                    "worker reply is missing `messages`".to_string(),
                ))
            }
        }
        Ok((out, reply.get_field("again") == Some(&Value::Bool(true))))
    }
}

fn check_ok(reply: &Value) -> Result<(), String> {
    match reply.get_field("ok") {
        Some(Value::Bool(true)) => Ok(()),
        _ => Err(reply
            .get_field("error")
            .and_then(Value::as_str)
            .unwrap_or("worker reported an unspecified error")
            .to_string()),
    }
}

fn op_frame(op: &str, fields: Vec<(String, Value)>) -> Value {
    let mut map = vec![("op".to_string(), Value::Str(op.to_string()))];
    map.extend(fields);
    Value::Map(map)
}

impl<P: PieProgram> WorkerHost<P> for ProcessHost<'_, P> {
    fn peval(&self, fi: usize) -> EvalResult<P> {
        self.eval(
            fi,
            op_frame("peval", vec![("fragment".to_string(), fi.to_value())]),
        )
    }

    fn inc_eval(&self, fi: usize, updates: &[(P::Key, P::Value)]) -> EvalResult<P> {
        let encoded: Vec<Value> = updates
            .iter()
            .map(|(k, v)| self.codec.encode_message(k, v))
            .collect();
        self.eval(
            fi,
            op_frame(
                "inceval",
                vec![
                    ("fragment".to_string(), fi.to_value()),
                    ("updates".to_string(), Value::Seq(encoded)),
                ],
            ),
        )
    }

    fn checkpoint_partials(&self) -> Result<Vec<Option<P::Partial>>, EngineError> {
        let mut out: Vec<Option<P::Partial>> = (0..self.owner.len()).map(|_| None).collect();
        for wi in 0..self.children.len() {
            let reply = self.rpc(wi, &op_frame("get_partials", Vec::new()))?;
            let Some(Value::Seq(entries)) = reply.get_field("partials") else {
                return Err(EngineError::Worker(
                    "worker reply is missing `partials`".to_string(),
                ));
            };
            for entry in entries {
                let id = entry
                    .get_field("id")
                    .and_then(|v| usize::from_value(v).ok())
                    .ok_or_else(|| {
                        EngineError::Worker("worker partial without an id".to_string())
                    })?;
                if id >= out.len() || self.owner[id] != wi {
                    return Err(EngineError::Worker(format!(
                        "worker {wi} returned a partial for fragment {id} it does not own"
                    )));
                }
                match entry.get_field("partial") {
                    Some(Value::Null) | None => {}
                    Some(v) => {
                        out[id] = Some(self.codec.decode_partial(v).map_err(|e| {
                            EngineError::Worker(format!("undecodable partial {id}: {e}"))
                        })?);
                    }
                }
            }
        }
        Ok(out)
    }

    fn restore_partials(&self, saved: &[Option<P::Partial>]) -> Result<(), EngineError> {
        for wi in 0..self.children.len() {
            let entries = saved
                .iter()
                .enumerate()
                .filter(|&(fi, _)| self.owner.get(fi) == Some(&wi))
                .map(|(fi, p)| {
                    let p = match p {
                        Some(p) => self.codec.encode_partial(p),
                        None => Value::Null,
                    };
                    (fi, p)
                });
            self.rpc(
                wi,
                &op_frame(
                    "set_partials",
                    vec![("partials".to_string(), Value::Seq(partial_entries(entries)))],
                ),
            )?;
        }
        Ok(())
    }

    fn clear_partials(&self) -> Result<(), EngineError> {
        for wi in 0..self.children.len() {
            self.rpc(wi, &op_frame("clear", Vec::new()))?;
        }
        Ok(())
    }

    fn into_partials(self) -> Result<Vec<P::Partial>, EngineError> {
        let collected = self.checkpoint_partials()?;
        // Orderly shutdown: `exit` then wait; `WorkerChild::drop` turns any
        // straggler into kill + wait.
        for wi in 0..self.children.len() {
            let _ = self.rpc(wi, &op_frame("exit", Vec::new()));
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
