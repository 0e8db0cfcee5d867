//! Simulation of other parallel models on GRAPE (Theorem 2), run on GRAPE's
//! own engine.
//!
//! The paper proves that BSP, MapReduce and (CREW) PRAM programs can be
//! simulated on GRAPE with no extra asymptotic cost: BSP workers map to GRAPE
//! workers one-to-one, and each MapReduce round becomes two supersteps driven
//! by key-value messages (Section 3.5 / 4.2).  [`Bsp`] is that compilation:
//! a BSP program is a block program over one fragment per worker, run as a
//! PIE program ([`BlockAsPie`]) by a Sync [`grape_core::session::GrapeSession`],
//! so a BSP superstep is an engine superstep and a BSP message an engine
//! message.  [`MapReduce`] compiles a job into a BSP program.  The costs the
//! tests check ("same number of rounds/supersteps, message volume equal to
//! the shuffled data") are the engine's own
//! [`grape_core::metrics::EngineMetrics`].
//!
//! PRAM follows from MapReduce (a CREW PRAM step is simulated by one
//! MapReduce round, Karloff et al.), so no separate adapter is needed; the
//! composition is exercised in the integration tests.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use grape_core::config::EngineConfig;
use grape_core::engine::{EngineError, RunResult};
use grape_graph::builder::GraphBuilder;
use grape_graph::types::VertexId;
use grape_partition::edge_cut::RangeEdgeCut;
use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::strategy::PartitionStrategy;

use crate::block_centric::{model_session, BlockAsPie, BlockContext, BlockProgram};

// ---------------------------------------------------------------------------
// BSP
// ---------------------------------------------------------------------------

/// Outbox handed to a BSP worker during a superstep.
#[derive(Debug)]
pub struct BspOutbox<M> {
    messages: Vec<(usize, M)>,
}

impl<M> BspOutbox<M> {
    /// Sends `message` to worker `to` (modulo the worker count), delivered
    /// at the next superstep.
    pub fn send(&mut self, to: usize, message: M) {
        self.messages.push((to, message));
    }
}

/// A BSP program in the sense of Valiant: per-worker state, a superstep
/// function consuming the inbox and producing outgoing messages.
pub trait BspProgram: Send + Sync {
    /// Per-worker state.
    type State: Clone + Send + 'static;
    /// Message type.
    type Message: Clone + PartialEq + Send + Sync + 'static;

    /// Initial state of worker `w`.
    fn init(&self, worker: usize, num_workers: usize) -> Self::State;

    /// One superstep of worker `w`.  Every worker runs the first superstep;
    /// after that a worker runs when its inbox is not empty, as a GRAPE
    /// fragment runs IncEval on incoming messages.  The run terminates
    /// when a superstep produces no messages at all.
    fn superstep(
        &self,
        worker: usize,
        state: &mut Self::State,
        inbox: Vec<Self::Message>,
        outbox: &mut BspOutbox<Self::Message>,
    );
}

/// Theorem 2(1): a BSP program on `n` workers as a block program, one
/// GRAPE worker per BSP worker.  Worker `w` is the one vertex of fragment
/// `w`, and a message to worker `t` is addressed to vertex `t`, which `G_P`
/// routes to its owner.  A message a worker sends itself never leaves it:
/// it is kept with the worker's state, delivered first next superstep
/// ([`BlockContext::run_again`]), and not charged.
pub struct Bsp<'p, B> {
    program: &'p B,
    workers: usize,
}

/// The state of one BSP worker.
#[derive(Clone)]
pub struct BspWorker<S, M> {
    state: S,
    to_self: Vec<M>,
}

impl<'p, B: BspProgram> Bsp<'p, B> {
    /// `program` on `workers` BSP workers (at least one).
    pub fn new(program: &'p B, workers: usize) -> Self {
        Bsp {
            program,
            workers: workers.max(1),
        }
    }

    /// Runs the program to its last superstep on a Sync session with one
    /// thread per worker.  Hitting `max_supersteps` first is
    /// [`EngineError::DidNotConverge`].  The output is each worker's final
    /// state, in worker order.
    pub fn run(&self, max_supersteps: usize) -> Result<RunResult<Vec<B::State>>, EngineError> {
        let workers = GraphBuilder::directed().ensure_vertices(self.workers);
        let fragments = RangeEdgeCut::new(self.workers)
            .partition(&workers.build())
            .expect("one fragment per vertex");
        model_session(self.workers, max_supersteps).run(&fragments, &BlockAsPie::new(self), &())
    }
}

impl<B: BspProgram> BlockProgram for Bsp<'_, B> {
    type Query = ();
    type BlockState = BspWorker<B::State, B::Message>;
    type Message = B::Message;
    type Output = Vec<B::State>;

    fn name(&self) -> &str {
        "bsp"
    }

    fn init(&self, _: &(), frag: &Fragment) -> Self::BlockState {
        BspWorker {
            state: self.program.init(frag.id(), self.workers),
            to_self: Vec::new(),
        }
    }

    fn compute(
        &self,
        _: &(),
        frag: &Fragment,
        worker: &mut Self::BlockState,
        messages: &[(VertexId, B::Message)],
        ctx: &mut BlockContext<B::Message>,
    ) {
        let w = frag.id();
        let mut inbox = std::mem::take(&mut worker.to_self);
        inbox.extend(messages.iter().map(|(_, m)| m.clone()));
        let mut outbox = BspOutbox {
            messages: Vec::new(),
        };
        self.program
            .superstep(w, &mut worker.state, inbox, &mut outbox);
        for (to, message) in outbox.messages {
            match to % self.workers {
                to if to == w => worker.to_self.push(message),
                to => ctx.send(to as VertexId, message),
            }
        }
        if !worker.to_self.is_empty() {
            ctx.run_again();
        }
    }

    fn output(&self, _: &(), _: &Fragmentation, workers: Vec<Self::BlockState>) -> Vec<B::State> {
        workers.into_iter().map(|w| w.state).collect()
    }
}

// ---------------------------------------------------------------------------
// MapReduce
// ---------------------------------------------------------------------------

/// A MapReduce job (one round of `map` followed by `reduce`; multi-round jobs
/// feed the reduce output back into `map`).
pub trait MapReduceJob: Send + Sync {
    /// Input record type of the first round.
    type Input: Clone + Send + Sync;
    /// Intermediate key.
    type Key: Clone + Eq + Hash + Send + Sync + 'static;
    /// Intermediate value.
    type Value: Clone + PartialEq + Send + Sync + 'static;

    /// Number of map-shuffle-reduce rounds (≥ 1).
    fn rounds(&self) -> usize {
        1
    }

    /// The map function of round 1.
    fn map(&self, input: &Self::Input) -> Vec<(Self::Key, Self::Value)>;

    /// The map function of rounds > 1 (defaults to the identity).
    fn remap(&self, key: &Self::Key, value: &Self::Value) -> Vec<(Self::Key, Self::Value)> {
        vec![(key.clone(), value.clone())]
    }

    /// The reduce function.
    fn reduce(&self, key: &Self::Key, values: Vec<Self::Value>) -> Vec<(Self::Key, Self::Value)>;
}

/// Theorem 2(2): a MapReduce job as a BSP program.  The first superstep
/// maps the worker's share of the inputs (input `i` goes to worker
/// `i mod n`) and shuffles; the next one reduces; each later round remaps
/// in a superstep of its own and reduces in the next, so `r` rounds take
/// `2r` supersteps.  A shuffled pair is one engine message; a pair whose
/// reducer is its own mapper stays put and is not charged.  A worker with
/// nothing incoming still takes its reduce or remap step: it reminds itself
/// with a `None` message, which never leaves it either.
pub struct MapReduce<J: MapReduceJob> {
    job: J,
    inputs: Vec<J::Input>,
    workers: usize,
}

/// The state of one MapReduce worker.
#[derive(Clone)]
pub struct MapReduceWorker<K, V> {
    steps: usize,
    /// Map output before a shuffle, reduce output after one.
    pairs: Vec<(K, V)>,
    /// Pairs this worker shuffled to another worker.
    shuffled: usize,
}

/// What a MapReduce job returns: the last round's reduce output, in worker
/// order, plus the model's own cost accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReduceOutput<K, V> {
    /// Reduce output of the last round.
    pub pairs: Vec<(K, V)>,
    /// Map-shuffle-reduce rounds executed.
    pub rounds: usize,
    /// Key-value pairs shuffled across workers.
    pub shuffled_pairs: usize,
}

/// The output type of job `J`.
pub type JobOutput<J> = MapReduceOutput<<J as MapReduceJob>::Key, <J as MapReduceJob>::Value>;

impl<J: MapReduceJob> MapReduce<J> {
    /// `job` over `inputs` on `workers` workers (at least one).
    pub fn new(job: J, inputs: Vec<J::Input>, workers: usize) -> Self {
        MapReduce {
            job,
            inputs,
            workers: workers.max(1),
        }
    }

    /// Runs the job on a Sync session with one thread per worker.
    pub fn run(&self) -> Result<RunResult<JobOutput<J>>, EngineError> {
        let cap = EngineConfig::default().max_supersteps;
        let RunResult { output, metrics } = Bsp::new(self, self.workers).run(cap)?;
        let output = MapReduceOutput {
            rounds: output.iter().map(|w| w.steps / 2).max().unwrap_or(0),
            shuffled_pairs: output.iter().map(|w| w.shuffled).sum(),
            pairs: output.into_iter().flat_map(|w| w.pairs).collect(),
        };
        Ok(RunResult { output, metrics })
    }
}

impl<J: MapReduceJob> BspProgram for MapReduce<J> {
    type State = MapReduceWorker<J::Key, J::Value>;
    type Message = Option<(J::Key, J::Value)>;

    fn init(&self, _worker: usize, _workers: usize) -> Self::State {
        MapReduceWorker {
            steps: 0,
            pairs: Vec::new(),
            shuffled: 0,
        }
    }

    fn superstep(
        &self,
        w: usize,
        worker: &mut Self::State,
        inbox: Vec<Self::Message>,
        outbox: &mut BspOutbox<Self::Message>,
    ) {
        worker.steps += 1;
        if worker.steps.is_multiple_of(2) {
            let mut groups: HashMap<J::Key, Vec<J::Value>> = HashMap::new();
            for (k, v) in inbox.into_iter().flatten() {
                groups.entry(k).or_default().push(v);
            }
            worker.pairs = groups
                .into_iter()
                .flat_map(|(k, vs)| self.job.reduce(&k, vs))
                .collect();
            if worker.steps < 2 * self.job.rounds() {
                outbox.send(w, None);
            }
            return;
        }
        // Map (the first step) or remap, then shuffle each pair to the worker
        // its key hashes to.
        let pairs: Vec<_> = match worker.steps {
            1 => (w..self.inputs.len())
                .step_by(self.workers)
                .flat_map(|i| self.job.map(&self.inputs[i]))
                .collect(),
            _ => std::mem::take(&mut worker.pairs)
                .iter()
                .flat_map(|(k, v)| self.job.remap(k, v))
                .collect(),
        };
        for (k, v) in pairs {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut hasher);
            let dest = (hasher.finish() % self.workers as u64) as usize;
            worker.shuffled += usize::from(dest != w);
            outbox.send(dest, Some((k, v)));
        }
        outbox.send(w, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic word count.
    struct WordCount;

    impl MapReduceJob for WordCount {
        type Input = String;
        type Key = String;
        type Value = u64;

        fn map(&self, input: &String) -> Vec<(String, u64)> {
            input
                .split_whitespace()
                .map(|w| (w.to_string(), 1))
                .collect()
        }

        fn reduce(&self, key: &String, values: Vec<u64>) -> Vec<(String, u64)> {
            vec![(key.clone(), values.iter().sum())]
        }
    }

    fn word_count(docs: &[String], workers: usize) -> RunResult<MapReduceOutput<String, u64>> {
        MapReduce::new(WordCount, docs.to_vec(), workers)
            .run()
            .unwrap()
    }

    #[test]
    fn word_count_produces_correct_counts() {
        let docs = vec![
            "the quick brown fox".to_string(),
            "the lazy dog".to_string(),
            "the quick dog".to_string(),
        ];
        let result = word_count(&docs, 3);
        let counts: HashMap<String, u64> = result.output.pairs.into_iter().collect();
        assert_eq!(counts["the"], 3);
        assert_eq!(counts["quick"], 2);
        assert_eq!(counts["dog"], 2);
        assert_eq!(counts["fox"], 1);
        assert_eq!(result.output.rounds, 1);
        assert_eq!(
            result.metrics.supersteps, 2,
            "one map + one reduce superstep"
        );
    }

    /// One worker shuffles nothing, so only its own request keeps it going
    /// into the reduce superstep.
    #[test]
    fn word_count_is_worker_count_independent() {
        let docs: Vec<String> = (0..20)
            .map(|i| format!("w{} common w{}", i % 5, i % 3))
            .collect();
        let to_map = |result: RunResult<MapReduceOutput<String, u64>>| -> HashMap<String, u64> {
            result.output.pairs.into_iter().collect()
        };
        let one = word_count(&docs, 1);
        assert_eq!(one.metrics.supersteps, 2);
        assert_eq!(one.metrics.total_messages, 0);
        assert_eq!(to_map(one), to_map(word_count(&docs, 4)));
    }

    /// Two-round job: round 1 counts words, round 2 buckets counts by parity.
    struct ParityOfCounts;

    impl MapReduceJob for ParityOfCounts {
        type Input = String;
        type Key = String;
        type Value = u64;

        fn rounds(&self) -> usize {
            2
        }

        fn map(&self, input: &String) -> Vec<(String, u64)> {
            input
                .split_whitespace()
                .map(|w| (w.to_string(), 1))
                .collect()
        }

        fn remap(&self, _key: &String, value: &u64) -> Vec<(String, u64)> {
            let bucket = if value.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            };
            vec![(bucket.to_string(), 1)]
        }

        fn reduce(&self, key: &String, values: Vec<u64>) -> Vec<(String, u64)> {
            vec![(key.clone(), values.iter().sum())]
        }
    }

    #[test]
    fn multi_round_jobs_use_two_supersteps_per_round_plus_remap() {
        let docs = vec!["a a b".to_string(), "a b c".to_string()];
        let result = MapReduce::new(ParityOfCounts, docs, 2).run().unwrap();
        let counts: HashMap<String, u64> = result.output.pairs.into_iter().collect();
        // counts: a=3 (odd), b=2 (even), c=1 (odd) → odd: 2 words, even: 1 word.
        assert_eq!(counts["odd"], 2);
        assert_eq!(counts["even"], 1);
        assert_eq!(result.output.rounds, 2);
        assert_eq!(result.metrics.supersteps, 4);
        assert_eq!(result.metrics.total_messages, result.output.shuffled_pairs);
    }

    /// Token ring: worker 0 sends a counter around the ring `laps` times.
    struct TokenRing {
        laps: u64,
    }

    impl BspProgram for TokenRing {
        type State = u64; // number of times this worker saw the token
        type Message = u64; // remaining hops

        fn init(&self, _worker: usize, _num_workers: usize) -> u64 {
            0
        }

        fn superstep(
            &self,
            worker: usize,
            state: &mut u64,
            inbox: Vec<u64>,
            outbox: &mut BspOutbox<u64>,
        ) {
            if worker == 0 && *state == 0 && inbox.is_empty() {
                *state = 1;
                outbox.send(1, self.laps);
                return;
            }
            for remaining in inbox {
                *state += 1;
                if remaining > 1 {
                    outbox.send(worker + 1, remaining - 1);
                }
            }
        }
    }

    #[test]
    fn bsp_token_ring_visits_every_worker() {
        let result = Bsp::new(&TokenRing { laps: 7 }, 4).run(100).unwrap();
        // Token visits workers 1, 2, 3, 0, 1, 2, 3 (7 hops).
        assert_eq!(result.output.iter().sum::<u64>(), 8); // 7 receipts + worker 0 start
        assert_eq!(result.metrics.total_messages, 7);
        assert_eq!(
            result.metrics.supersteps, 8,
            "one start superstep + 7 hop supersteps"
        );
    }

    #[test]
    fn a_non_terminating_bsp_program_fails_at_the_session_superstep_cap() {
        let err = Bsp::new(&TokenRing { laps: 1000 }, 2).run(5).unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { max_supersteps: 5 });
    }

    /// A send to oneself arrives next superstep, in sender order, without
    /// crossing the wire: one worker passes the token to itself.
    #[test]
    fn a_bsp_worker_sending_itself_is_run_again_and_not_charged() {
        let result = Bsp::new(&TokenRing { laps: 3 }, 1).run(100).unwrap();
        assert_eq!(result.output, vec![4]);
        assert_eq!(result.metrics.supersteps, 4);
        assert_eq!(result.metrics.total_messages, 0);
    }
}
