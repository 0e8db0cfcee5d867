//! A synchronous vertex-centric ("think like a vertex") model in the style
//! of Pregel / Giraph, also used to model synchronous GraphLab (the paper
//! implements both synchronously and observes nearly identical behaviour),
//! run on GRAPE's engine as a block program ([`crate::block_centric`]).
//!
//! Vertices are hash-partitioned across workers, one fragment per worker;
//! each superstep runs `compute` on every *active* vertex (a vertex is
//! active in superstep 0 or when it has incoming messages), and all messages
//! are delivered at the next superstep.  Only messages crossing worker
//! boundaries are engine messages and count towards the communication
//! volume, mirroring how the paper measures data shipment.  A worker's
//! messages to its own vertices stay with it, and it runs again next
//! superstep ([`BlockContext::run_again`]).
//!
//! Two things a vertex program reads are not engine state, so each message
//! carries them: the superstep (a worker with no mail sits a superstep out
//! and cannot count them; under the barrier a message sent in superstep `s`
//! is read in `s + 1`), and the sending worker, which places a worker's own
//! messages among the others in the order the combiner folds an inbox (by
//! sending worker, then send order).  Neither is charged.

use std::collections::HashMap;

use grape_core::config::EngineConfig;
use grape_core::engine::{EngineError, RunResult};
use grape_graph::graph::Graph;
use grape_graph::types::VertexId;
use grape_partition::edge_cut::{mix64, HashEdgeCut};
use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::strategy::PartitionStrategy;

use crate::block_centric::{model_session, BlockAsPie, BlockContext, BlockProgram};

/// Message outbox handed to a vertex during `compute`.
#[derive(Debug)]
pub struct VertexContext<M> {
    messages: Vec<(VertexId, M)>,
}

impl<M> VertexContext<M> {
    /// Sends `message` to vertex `to`, delivered at the next superstep.
    pub fn send(&mut self, to: VertexId, message: M) {
        self.messages.push((to, message));
    }
}

/// A vertex program (the unit of "recasting" the paper contrasts with PIE
/// programs — see Fig. 10 for the Giraph SSSP example).
pub trait VertexProgram: Send + Sync {
    /// The query.
    type Query: Clone + Send + Sync + 'static;
    /// The per-vertex state.
    type VertexValue: Clone + Send + Sync + 'static;
    /// The message type.
    type Message: Clone + PartialEq + Send + Sync + 'static;
    /// The collected output.
    type Output: Send + 'static;

    /// Program name for metrics.
    fn name(&self) -> &str;

    /// Initial value of a vertex.
    fn init(&self, query: &Self::Query, graph: &Graph, v: VertexId) -> Self::VertexValue;

    /// One superstep of one vertex.
    #[allow(clippy::too_many_arguments)] // mirrors the Pregel compute() signature
    fn compute(
        &self,
        query: &Self::Query,
        graph: &Graph,
        v: VertexId,
        value: &mut Self::VertexValue,
        superstep: usize,
        messages: &[Self::Message],
        ctx: &mut VertexContext<Self::Message>,
    );

    /// Optional combiner applied to messages with the same destination.
    fn combine(&self, _a: &Self::Message, _b: &Self::Message) -> Option<Self::Message> {
        None
    }

    /// Collects the final output from all vertex values.
    fn output(
        &self,
        query: &Self::Query,
        graph: &Graph,
        values: Vec<Self::VertexValue>,
    ) -> Self::Output;

    /// Approximate wire size of a message.
    fn message_size(&self, _message: &Self::Message) -> usize {
        std::mem::size_of::<Self::Message>()
    }
}

/// A vertex message between workers, with the superstep and worker that
/// sent it.
#[derive(Debug, Clone, PartialEq)]
struct Stamped<M> {
    superstep: usize,
    from: usize,
    message: M,
}

/// The state of one worker: its vertices in id order, their values, the
/// superstep it ran last and its messages to its own vertices.
#[derive(Clone)]
struct Worker<V, M> {
    vertices: Vec<VertexId>,
    values: Vec<V>,
    superstep: Option<usize>,
    local: Vec<(VertexId, M)>,
}

/// A vertex program over `graph` as a block program.
struct Vertices<'g, P> {
    program: &'g P,
    graph: &'g Graph,
    workers: usize,
}

impl<P: VertexProgram> BlockProgram for Vertices<'_, P> {
    type Query = P::Query;
    type BlockState = Worker<P::VertexValue, P::Message>;
    type Message = Stamped<P::Message>;
    type Output = P::Output;

    fn name(&self) -> &str {
        self.program.name()
    }

    fn init(&self, query: &P::Query, frag: &Fragment) -> Self::BlockState {
        let mut vertices: Vec<VertexId> = frag.inner_locals().map(|l| frag.global_of(l)).collect();
        vertices.sort_unstable();
        Worker {
            values: vertices
                .iter()
                .map(|&v| self.program.init(query, self.graph, v))
                .collect(),
            vertices,
            superstep: None,
            local: Vec::new(),
        }
    }

    fn compute(
        &self,
        query: &P::Query,
        frag: &Fragment,
        worker: &mut Self::BlockState,
        messages: &[(VertexId, Stamped<P::Message>)],
        ctx: &mut BlockContext<Stamped<P::Message>>,
    ) {
        let w = frag.id();
        let superstep = match (messages.first(), worker.superstep) {
            (Some((_, m)), _) => m.superstep + 1,
            (None, last) => last.map_or(0, |s| s + 1),
        };
        worker.superstep = Some(superstep);
        let mine = messages.partition_point(|(_, m)| m.from < w);
        let stamped = |(to, m): &(VertexId, Stamped<P::Message>)| (*to, m.message.clone());
        let arrivals = (messages[..mine].iter().map(stamped))
            .chain(std::mem::take(&mut worker.local))
            .chain(messages[mine..].iter().map(stamped));
        let mut inboxes: HashMap<VertexId, Vec<P::Message>> = HashMap::new();
        for (to, message) in arrivals {
            let inbox = inboxes.entry(to).or_default();
            match inbox.last_mut() {
                Some(last) => match self.program.combine(last, &message) {
                    Some(merged) => *last = merged,
                    None => inbox.push(message),
                },
                None => inbox.push(message),
            }
        }
        for (&v, value) in worker.vertices.iter().zip(&mut worker.values) {
            let inbox = inboxes.remove(&v);
            if superstep > 0 && inbox.is_none() {
                continue;
            }
            let mut sent = VertexContext {
                messages: Vec::new(),
            };
            let inbox = inbox.unwrap_or_default();
            let graph = self.graph;
            self.program
                .compute(query, graph, v, value, superstep, &inbox, &mut sent);
            for (to, message) in sent.messages {
                if to as usize >= graph.num_vertices() {
                    continue;
                }
                if (mix64(to) % self.workers as u64) as usize == w {
                    worker.local.push((to, message));
                } else {
                    let message = Stamped {
                        superstep,
                        from: w,
                        message,
                    };
                    ctx.send(to, message);
                }
            }
        }
        if !worker.local.is_empty() {
            ctx.run_again();
        }
    }

    fn output(
        &self,
        query: &P::Query,
        _frag: &Fragmentation,
        workers: Vec<Self::BlockState>,
    ) -> P::Output {
        let mut values: Vec<(VertexId, P::VertexValue)> = workers
            .into_iter()
            .flat_map(|w| w.vertices.into_iter().zip(w.values))
            .collect();
        values.sort_unstable_by_key(|(v, _)| *v);
        let values = values.into_iter().map(|(_, value)| value).collect();
        self.program.output(query, self.graph, values)
    }

    fn message_size(&self, stamped: &Stamped<P::Message>) -> usize {
        self.program.message_size(&stamped.message)
    }
}

/// Runs a vertex program to quiescence on `workers` workers, one fragment
/// of a hash edge-cut each, on a Sync session with the engine's default
/// superstep cap.
pub fn run_vertex<P: VertexProgram>(
    graph: &Graph,
    program: &P,
    query: &P::Query,
    workers: usize,
) -> Result<RunResult<P::Output>, EngineError> {
    let workers = workers.max(1);
    let fragments = HashEdgeCut::new(workers)
        .partition(graph)
        .map_err(|e| EngineError::InvalidConfig(e.to_string()))?;
    let vertices = Vertices {
        program,
        graph,
        workers,
    };
    model_session(workers, EngineConfig::default().max_supersteps).run(
        &fragments,
        &BlockAsPie::new(&vertices),
        query,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::builder::GraphBuilder;

    /// Toy program: flood the maximum vertex id through the graph.
    struct MaxFlood;

    impl VertexProgram for MaxFlood {
        type Query = ();
        type VertexValue = VertexId;
        type Message = VertexId;
        type Output = Vec<VertexId>;

        fn name(&self) -> &str {
            "max-flood"
        }

        fn init(&self, _q: &(), _g: &Graph, v: VertexId) -> VertexId {
            v
        }

        fn compute(
            &self,
            _q: &(),
            g: &Graph,
            v: VertexId,
            value: &mut VertexId,
            superstep: usize,
            messages: &[VertexId],
            ctx: &mut VertexContext<VertexId>,
        ) {
            let best = messages.iter().copied().max().unwrap_or(*value);
            if superstep == 0 || best > *value {
                *value = (*value).max(best);
                for n in g.out_neighbors(v) {
                    ctx.send(n.target, *value);
                }
            }
        }

        fn combine(&self, a: &VertexId, b: &VertexId) -> Option<VertexId> {
            Some(*a.max(b))
        }

        fn output(&self, _q: &(), _g: &Graph, values: Vec<VertexId>) -> Vec<VertexId> {
            values
        }
    }

    #[test]
    fn max_flood_reaches_fixpoint_on_a_cycle() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0)
            .build();
        let result = run_vertex(&g, &MaxFlood, &(), 2).unwrap();
        let (values, metrics) = (result.output, result.metrics);
        assert!(values.iter().all(|&v| v == 3));
        assert!(metrics.supersteps >= 4, "needs about diameter supersteps");
        assert!(metrics.total_messages > 0);
    }

    #[test]
    fn workers_do_not_change_the_answer() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .build();
        let a = run_vertex(&g, &MaxFlood, &(), 1).unwrap().output;
        let b = run_vertex(&g, &MaxFlood, &(), 4).unwrap().output;
        assert_eq!(a, b);
    }
}
