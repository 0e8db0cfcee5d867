//! Blogel's B-compute model as a PIE program: every block (fragment) runs a
//! *batch* local computation per superstep and exchanges messages
//! addressed to vertices of other blocks.  [`BlockAsPie`] runs a
//! [`BlockProgram`] on GRAPE's engine, so the baseline and GRAPE share one
//! runtime and differ only in their programs.  The BSP and MapReduce
//! simulations of Theorem 2 ([`crate::simulate`]) are block programs too.
//!
//! The crucial difference to GRAPE is that there is no incremental
//! evaluation: each superstep re-runs the block's batch logic over the whole
//! fragment and typically re-ships every border value it computed, not only
//! the changed ones — which is where the paper's factor-of-a-few gaps in both
//! time and communication come from.
//!
//! A block message is not an update parameter: two messages to one vertex
//! must both arrive, and an unchanged value must ship again.  So every
//! message gets a key of its own, [`ModelKey`], unique per sender fragment,
//! sender evaluation and send.  `Messages` coalescing, the mailbox's
//! `aggregateMsg` and the delivered cache then never merge or drop one, and
//! the engine charges each once: its [`BlockProgram::message_size`] plus a
//! vertex id.  A block's inbox is sorted by that key, which is the order the
//! senders produced it in.

use grape_core::config::{EngineConfig, EngineMode};
use grape_core::engine::{EngineError, RunResult};
use grape_core::pie::{KeyVertex, Messages, PieProgram};
use grape_core::session::GrapeSession;
use grape_graph::types::VertexId;
use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::fragmentation_graph::BorderScope;

/// Message outbox of a block.
#[derive(Debug)]
pub struct BlockContext<M> {
    messages: Vec<(VertexId, M)>,
    again: bool,
}

impl<M> BlockContext<M> {
    /// Sends `message` to (the block owning) vertex `to`.
    pub fn send(&mut self, to: VertexId, message: M) {
        self.messages.push((to, message));
    }

    /// Asks to compute again next superstep, with an empty inbox if no mail
    /// arrives ([`Messages::run_again`]).
    pub fn run_again(&mut self) {
        self.again = true;
    }
}

/// How block-to-block messages addressed to a vertex are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockRouting {
    /// Deliver to the block owning the vertex (SSSP, CC).
    Owner,
    /// Deliver to every block holding the vertex as an outer copy (Sim).
    OuterHolders,
    /// Deliver to every block holding the vertex in any role (CF).
    All,
}

/// A block program (Blogel's B-compute).
pub trait BlockProgram: Send + Sync {
    /// The query.
    type Query: Clone + Send + Sync + 'static;
    /// Per-block state.
    type BlockState: Clone + Send + 'static;
    /// Message type (addressed to vertices).
    type Message: Clone + PartialEq + Send + Sync + 'static;
    /// Final output.
    type Output: Send + 'static;

    /// Program name for metrics.
    fn name(&self) -> &str;

    /// How messages are routed (see [`BlockRouting`]).
    fn routing(&self) -> BlockRouting {
        BlockRouting::Owner
    }

    /// Initial state of a block.
    fn init(&self, query: &Self::Query, frag: &Fragment) -> Self::BlockState;

    /// One superstep of one block: consume the inbox, recompute, emit
    /// messages.  Every block runs the first superstep with an empty inbox,
    /// and afterwards whenever mail arrives or it asked to run again; the
    /// run terminates when no block does either.
    fn compute(
        &self,
        query: &Self::Query,
        frag: &Fragment,
        state: &mut Self::BlockState,
        messages: &[(VertexId, Self::Message)],
        ctx: &mut BlockContext<Self::Message>,
    );

    /// Collects the output from all block states, one per fragment of
    /// `frag`, in fragment order.  A state holds values in its fragment's
    /// local order and names vertices through `frag`, as a PIE partial does
    /// ([`PieProgram`]).
    fn output(
        &self,
        query: &Self::Query,
        frag: &Fragmentation,
        states: Vec<Self::BlockState>,
    ) -> Self::Output;

    /// Approximate wire size of a message.
    fn message_size(&self, _message: &Self::Message) -> usize {
        std::mem::size_of::<Self::Message>()
    }
}

/// The key of one block message.  Its order is the delivery order of an
/// inbox: by sender, then by the sender's evaluation, then by send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey {
    /// The sending fragment.
    pub sender: u32,
    /// The sender's evaluation index: 0 for PEval, `i` for its `i`-th
    /// IncEval.
    pub eval: u32,
    /// The message's position among that evaluation's sends.
    pub seq: u32,
    /// The vertex the message is addressed to; `G_P` routes it from there.
    pub target: VertexId,
}

impl KeyVertex for ModelKey {
    fn vertex(&self) -> VertexId {
        self.target
    }
}

/// A [`BlockProgram`] as a PIE program: PEval is `init` plus the first
/// `compute`, IncEval every later `compute`.
pub struct BlockAsPie<'p, B> {
    program: &'p B,
}

/// The partial result of one block: its state and how often it ran.
#[derive(Clone)]
pub struct Block<S> {
    state: S,
    evals: u32,
}

impl<'p, B: BlockProgram> BlockAsPie<'p, B> {
    /// Adapts `program`.
    pub fn new(program: &'p B) -> Self {
        BlockAsPie { program }
    }

    fn compute(
        &self,
        query: &B::Query,
        frag: &Fragment,
        block: &mut Block<B::BlockState>,
        inbox: &[(VertexId, B::Message)],
        ctx: &mut Messages<ModelKey, B::Message>,
    ) {
        let mut out = BlockContext {
            messages: Vec::new(),
            again: false,
        };
        self.program
            .compute(query, frag, &mut block.state, inbox, &mut out);
        let (sender, eval) = (frag.id() as u32, block.evals);
        block.evals += 1;
        for (seq, (target, message)) in (0..).zip(out.messages) {
            let key = ModelKey {
                sender,
                eval,
                seq,
                target,
            };
            ctx.send(key, message);
        }
        if out.again {
            ctx.run_again();
        }
    }
}

impl<B: BlockProgram> PieProgram for BlockAsPie<'_, B> {
    type Query = B::Query;
    type Partial = Block<B::BlockState>;
    type Key = ModelKey;
    type Value = B::Message;
    type Output = B::Output;

    fn name(&self) -> &str {
        self.program.name()
    }

    fn scope(&self) -> BorderScope {
        match self.program.routing() {
            BlockRouting::Owner => BorderScope::Out,
            BlockRouting::OuterHolders => BorderScope::In,
            BlockRouting::All => BorderScope::Both,
        }
    }

    fn peval(
        &self,
        query: &B::Query,
        frag: &Fragment,
        ctx: &mut Messages<ModelKey, B::Message>,
    ) -> Self::Partial {
        let mut block = Block {
            state: self.program.init(query, frag),
            evals: 0,
        };
        self.compute(query, frag, &mut block, &[], ctx);
        block
    }

    fn inc_eval(
        &self,
        query: &B::Query,
        frag: &Fragment,
        block: &mut Self::Partial,
        messages: &[(ModelKey, B::Message)],
        ctx: &mut Messages<ModelKey, B::Message>,
    ) {
        let mut inbox = messages.to_vec();
        inbox.sort_unstable_by_key(|(key, _)| *key);
        let inbox: Vec<_> = inbox.into_iter().map(|(k, m)| (k.target, m)).collect();
        self.compute(query, frag, block, &inbox, ctx);
    }

    fn assemble(
        &self,
        query: &B::Query,
        frag: &Fragmentation,
        blocks: Vec<Self::Partial>,
    ) -> B::Output {
        self.program
            .output(query, frag, blocks.into_iter().map(|b| b.state).collect())
    }

    /// Every message has a key of its own, so no two ever meet.
    fn aggregate(&self, _key: &ModelKey, _a: B::Message, b: B::Message) -> B::Message {
        b
    }

    /// The target vertex id: sender, evaluation and send index are the
    /// message's place in the stream, not payload.
    fn key_size(&self, _key: &ModelKey) -> usize {
        std::mem::size_of::<VertexId>()
    }

    fn value_size(&self, message: &B::Message) -> usize {
        self.program.message_size(message)
    }
}

/// A session of `workers` threads pinned to [`EngineMode::Sync`]: block
/// programs are BSP, so their supersteps are the barrier's rounds.
pub fn model_session(workers: usize, max_supersteps: usize) -> GrapeSession {
    GrapeSession::builder()
        .workers(workers)
        .mode(EngineMode::Sync)
        .max_supersteps(max_supersteps)
        .build()
        .expect("a Sync session without fault injection is valid")
}

/// Runs a block program over a fragmentation on a Sync session of
/// `workers` threads, with the engine's default superstep cap.
pub fn run_block<B: BlockProgram>(
    fragmentation: &Fragmentation,
    program: &B,
    query: &B::Query,
    workers: usize,
) -> Result<RunResult<B::Output>, EngineError> {
    model_session(workers, EngineConfig::default().max_supersteps).run(
        fragmentation,
        &BlockAsPie::new(program),
        query,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::builder::GraphBuilder;
    use grape_partition::edge_cut::RangeEdgeCut;
    use grape_partition::strategy::PartitionStrategy;

    /// Toy block program: each block floods the minimum global id it has seen
    /// for each of its border vertices.
    struct BlockMin;

    impl BlockProgram for BlockMin {
        type Query = ();
        type BlockState = std::collections::HashMap<VertexId, VertexId>;
        type Message = VertexId;
        type Output = std::collections::HashMap<VertexId, VertexId>;

        fn name(&self) -> &str {
            "block-min"
        }

        fn init(&self, _q: &(), frag: &Fragment) -> Self::BlockState {
            frag.all_locals()
                .map(|l| (frag.global_of(l), frag.global_of(l)))
                .collect()
        }

        fn compute(
            &self,
            _q: &(),
            frag: &Fragment,
            state: &mut Self::BlockState,
            messages: &[(VertexId, VertexId)],
            ctx: &mut BlockContext<VertexId>,
        ) {
            let before = state.clone();
            for (v, value) in messages {
                if let Some(entry) = state.get_mut(v) {
                    if value < entry {
                        *entry = *value;
                    }
                }
            }
            // Full local propagation (batch recomputation, Blogel-style).
            let mut changed = true;
            while changed {
                changed = false;
                for l in frag.all_locals() {
                    let v = frag.global_of(l);
                    let mine = state[&v];
                    for n in frag.out_edges(l) {
                        let t = frag.global_of(n.target as u32);
                        if mine < state[&t] {
                            state.insert(t, mine);
                            changed = true;
                        }
                    }
                }
            }
            // Ship the changed border values, one message per incident cross
            // edge (block-to-block messages travel per edge, as in Blogel).
            for &l in frag.out_border_locals() {
                let v = frag.global_of(l);
                if state[&v] < before[&v] {
                    let copies = frag.in_edges(l).len().max(1);
                    for _ in 0..copies {
                        ctx.send(v, state[&v]);
                    }
                }
            }
        }

        fn output(
            &self,
            _q: &(),
            _frag: &Fragmentation,
            states: Vec<Self::BlockState>,
        ) -> Self::Output {
            let mut out = std::collections::HashMap::new();
            for s in states {
                for (v, value) in s {
                    out.entry(v)
                        .and_modify(|e: &mut VertexId| *e = (*e).min(value))
                        .or_insert(value);
                }
            }
            out
        }
    }

    #[test]
    fn block_min_converges_on_a_ring() {
        let mut b = GraphBuilder::directed();
        for v in 0..12u64 {
            b.push_edge(grape_graph::types::Edge::unweighted(v, (v + 1) % 12));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let result = model_session(3, 50)
            .run(&frag, &BlockAsPie::new(&BlockMin), &())
            .unwrap();
        assert!(result.output.values().all(|&v| v == 0));
        assert!(result.metrics.supersteps >= 2);
    }

    #[test]
    fn terminates_without_hitting_the_superstep_limit() {
        let mut b = GraphBuilder::directed();
        for v in 0..20u64 {
            b.push_edge(grape_graph::types::Edge::unweighted(v, (v + 1) % 20));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let result = model_session(2, 50)
            .run(&frag, &BlockAsPie::new(&BlockMin), &())
            .unwrap();
        let (out, metrics) = (result.output, result.metrics);
        assert!(out.values().all(|&v| v == 0));
        assert!(
            metrics.supersteps < 20,
            "took {} supersteps",
            metrics.supersteps
        );
        assert!(metrics.total_messages > 0);
    }

    /// A block program that never stops talking: every superstep re-ships
    /// each out-border vertex's id.
    struct Chatter;

    impl BlockProgram for Chatter {
        type Query = ();
        type BlockState = ();
        type Message = VertexId;
        type Output = ();

        fn name(&self) -> &str {
            "chatter"
        }

        fn init(&self, _q: &(), _frag: &Fragment) {}

        fn compute(
            &self,
            _q: &(),
            frag: &Fragment,
            _state: &mut (),
            _messages: &[(VertexId, VertexId)],
            ctx: &mut BlockContext<VertexId>,
        ) {
            for &l in frag.out_border_locals() {
                ctx.send(frag.global_of(l), frag.global_of(l));
            }
        }

        fn output(&self, _q: &(), _frag: &Fragmentation, _states: Vec<()>) {}
    }

    /// A block program that never terminates fails at the session's
    /// superstep cap instead of returning an unconverged answer.
    #[test]
    fn a_non_terminating_block_program_fails_at_the_session_superstep_cap() {
        let mut b = GraphBuilder::directed();
        for v in 0..8u64 {
            b.push_edge(grape_graph::types::Edge::unweighted(v, (v + 1) % 8));
        }
        let frag = RangeEdgeCut::new(2).partition(&b.build()).unwrap();
        let err = model_session(2, 5)
            .run(&frag, &BlockAsPie::new(&Chatter), &())
            .unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { max_supersteps: 5 });
    }
}
