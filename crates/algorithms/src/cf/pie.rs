//! The CF PIE program (Section 5.3).
//!
//! Message preamble: a status variable `v.x = (v.f, t)` per vertex — the
//! factor vector plus the timestamp of its last update; candidate set
//! `C_i = F_i.O` (and, symmetrically, updated master copies are pushed back
//! to the replicas, hence [`BorderScope::Both`]); `aggregateMsg = max` on the
//! timestamp (latest update wins).
//!
//! * PEval — the sequential SGD of Koren et al. over the fragment's local
//!   ratings (a "mini-batch" in the paper's wording).
//! * IncEval — ISGD: apply the received factor vectors, then run another
//!   local epoch touching only the affected vectors, until the configured
//!   number of epochs is exhausted.
//! * Assemble — union of the factor vectors (master copies win).
//!
//! CF also implements [`IncrementalPie`] for prepared queries over evolving
//! rating graphs: **rating inserts are an epoch-seeded factor refresh** over
//! the affected user/item vertices.  SGD training is trajectory-dependent —
//! a new rating participates in *every* epoch, so no delta is monotone and
//! there is no sound way to splice boundary factors mid-training.  The
//! damage policy is therefore [`DamagePolicy::Component`]: the refresh
//! re-initializes the factors of every fragment in the quotient connected
//! component(s) the new ratings touch and re-runs their epoch budget from
//! epoch 1, while fragments of untouched components keep their trained
//! factors verbatim (no message ever crossed the component boundary, so
//! they equal a full retraining's by construction).
//!
//! On a rating graph whose quotient is one connected component the frontier
//! degenerates to a full retrain — the honest answer for a model whose
//! every factor depends on every rating.

use std::collections::HashMap;

use grape_core::output_delta::DeltaOutput;
use grape_core::pie::{
    DamagePolicy, IncrementalPie, Messages, PieProgram, ProcessCodec, SerdeProcessCodec,
};
use grape_graph::delta::GraphDelta;
use grape_graph::types::VertexId;
use grape_partition::delta::FragmentDelta;
use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::fragmentation_graph::BorderScope;
use serde::{Deserialize, Serialize};

use crate::cf::sequential::{initial_factors, sgd_step, CfModel};

/// A collaborative-filtering query: the training hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CfQuery {
    /// Latent factor dimensionality.
    pub num_factors: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization.
    pub regularization: f64,
    /// Number of local epochs (supersteps) each fragment performs — the
    /// convergence criterion, as in the paper, is a predetermined number of
    /// rounds.
    pub epochs: usize,
}

impl Default for CfQuery {
    fn default() -> Self {
        CfQuery {
            num_factors: 8,
            learning_rate: 0.05,
            regularization: 0.05,
            epochs: 8,
        }
    }
}

/// The assembled answer: a trained [`CfModel`].
pub type CfResult = CfModel;

/// The value of the `v.x = (v.f, t)` status variable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorUpdate {
    /// The factor vector `v.f`.
    pub factors: Vec<f64>,
    /// The epoch (timestamp) at which it was last updated.
    pub timestamp: u64,
}

/// Per-fragment partial result: the factor vector and timestamp of every
/// local vertex, in the fragment's local order, and the epoch count.
/// Serializable so a served CF query can spill to disk and rehydrate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CfPartial {
    factors: Vec<Vec<f64>>,
    timestamps: Vec<u64>,
    epoch: u64,
}

/// The CF PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cf;

impl Cf {
    /// One local SGD epoch over the fragment's edges, updating the user and
    /// item rows in place.  A self-rating `u → u` updates one row: it takes
    /// the user's update, as if the item's were written first.
    fn local_epoch(frag: &Fragment, query: &CfQuery, partial: &mut CfPartial) {
        let mut self_rated = Vec::new();
        for l in frag.inner_locals() {
            let u = l as usize;
            for n in frag.out_edges(l) {
                let t = n.target as usize;
                let (user, item) = match u.cmp(&t) {
                    std::cmp::Ordering::Less => {
                        let (head, tail) = partial.factors.split_at_mut(t);
                        (&mut head[u], &mut tail[0])
                    }
                    std::cmp::Ordering::Greater => {
                        let (head, tail) = partial.factors.split_at_mut(u);
                        (&mut tail[0], &mut head[t])
                    }
                    std::cmp::Ordering::Equal => {
                        self_rated.clone_from(&partial.factors[u]);
                        (&mut partial.factors[u], &mut self_rated)
                    }
                };
                sgd_step(
                    user,
                    item,
                    n.weight,
                    query.learning_rate,
                    query.regularization,
                );
                partial.timestamps[u] = partial.epoch;
                partial.timestamps[t] = partial.epoch;
            }
        }
    }

    /// Emits the factor vectors of all border vertices.
    fn send_border(
        frag: &Fragment,
        partial: &CfPartial,
        ctx: &mut Messages<VertexId, FactorUpdate>,
    ) {
        let mut border: Vec<u32> = frag.out_border_locals().to_vec();
        border.extend_from_slice(frag.in_border_locals());
        border.sort_unstable();
        border.dedup();
        for l in border {
            ctx.send(
                frag.global_of(l),
                FactorUpdate {
                    factors: partial.factors[l as usize].clone(),
                    timestamp: partial.timestamps[l as usize],
                },
            );
        }
    }
}

impl PieProgram for Cf {
    type Query = CfQuery;
    type Partial = CfPartial;
    type Key = VertexId;
    type Value = FactorUpdate;
    type Output = CfResult;

    fn name(&self) -> &str {
        "cf"
    }

    fn process_codec(&self) -> Option<&dyn ProcessCodec<Self>> {
        Some(&SerdeProcessCodec)
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Both
    }

    fn peval(
        &self,
        query: &CfQuery,
        frag: &Fragment,
        ctx: &mut Messages<VertexId, FactorUpdate>,
    ) -> CfPartial {
        let k = frag.num_local();
        let mut partial = CfPartial {
            factors: (0..k)
                .map(|l| initial_factors(frag.global_of(l as u32), query.num_factors))
                .collect(),
            timestamps: vec![0; k],
            epoch: 1,
        };
        Self::local_epoch(frag, query, &mut partial);
        if query.epochs > 1 {
            Self::send_border(frag, &partial, ctx);
        }
        partial
    }

    fn inc_eval(
        &self,
        query: &CfQuery,
        frag: &Fragment,
        partial: &mut CfPartial,
        messages: &[(VertexId, FactorUpdate)],
        ctx: &mut Messages<VertexId, FactorUpdate>,
    ) {
        // ISGD: adopt the freshest factor vectors for shared vertices.
        for (v, update) in messages {
            if let Some(l) = frag.local_of(*v) {
                if update.timestamp >= partial.timestamps[l as usize] {
                    partial.factors[l as usize].clone_from(&update.factors);
                    partial.timestamps[l as usize] = update.timestamp;
                }
            }
        }
        if partial.epoch as usize >= query.epochs {
            return; // converged (epoch budget exhausted): no further messages
        }
        partial.epoch += 1;
        Self::local_epoch(frag, query, partial);
        Self::send_border(frag, partial, ctx);
    }

    fn assemble(
        &self,
        _query: &CfQuery,
        frag: &Fragmentation,
        partials: Vec<CfPartial>,
    ) -> CfResult {
        debug_assert_eq!(partials.len(), frag.num_fragments());
        let mut factors: HashMap<VertexId, Vec<f64>> = HashMap::new();
        let mut stamps: HashMap<VertexId, u64> = HashMap::new();
        for (f, partial) in frag.fragments().iter().zip(partials) {
            debug_assert_eq!(partial.factors.len(), f.num_local());
            for (l, row) in f.all_locals().zip(partial.factors) {
                let v = f.global_of(l);
                let stamp = partial.timestamps[l as usize] * 2 + u64::from(f.is_inner(l));
                if stamps.get(&v).is_none_or(|&s| stamp > s) {
                    stamps.insert(v, stamp);
                    factors.insert(v, row);
                }
            }
        }
        CfModel::new(factors)
    }

    fn aggregate(&self, _key: &VertexId, a: FactorUpdate, b: FactorUpdate) -> FactorUpdate {
        // Latest timestamp wins; equal timestamps are averaged (deterministic
        // and commutative, which keeps the run reproducible).
        match a.timestamp.cmp(&b.timestamp) {
            std::cmp::Ordering::Greater => a,
            std::cmp::Ordering::Less => b,
            std::cmp::Ordering::Equal => FactorUpdate {
                factors: a
                    .factors
                    .iter()
                    .zip(&b.factors)
                    .map(|(x, y)| (x + y) / 2.0)
                    .collect(),
                timestamp: a.timestamp,
            },
        }
    }

    fn value_size(&self, value: &FactorUpdate) -> usize {
        value.factors.len() * std::mem::size_of::<f64>() + std::mem::size_of::<u64>()
    }
}

impl IncrementalPie for Cf {
    /// SGD training has no monotone direction: a new rating participates in
    /// every epoch, so both inserts and removals change the trajectory of
    /// their whole component.  Every non-empty delta takes the bounded
    /// (component-closed) refresh.
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        delta.is_empty()
    }

    /// Only reachable for deltas that changed no fragment structurally
    /// (empty `ΔG`), where there is nothing to repair.
    fn rebase(
        &self,
        _query: &CfQuery,
        _old_frag: &Fragment,
        _new_frag: &Fragment,
        partial: CfPartial,
        _delta: &FragmentDelta,
    ) -> (CfPartial, Vec<(VertexId, FactorUpdate)>) {
        (partial, Vec::new())
    }

    /// Epoch-seeded factor refresh: the whole quotient component of every
    /// changed fragment retrains from epoch 1 (PEval re-initializes the
    /// affected user/item factor vectors); untouched components keep their
    /// trained factors.
    fn damage_policy(&self, _query: &CfQuery) -> DamagePolicy {
        DamagePolicy::Component
    }
}

impl DeltaOutput for Cf {
    type OutKey = VertexId;
    type OutVal = Vec<f64>;

    /// One row per vertex: `(v, factor vector)`, sorted by id — a retrained
    /// component surfaces as the changed rows of exactly its members (the
    /// "re-ranked items").
    fn canonical(&self, _query: &CfQuery, output: &CfResult) -> Vec<(VertexId, Vec<f64>)> {
        let mut rows: Vec<(VertexId, Vec<f64>)> = output
            .factors()
            .iter()
            .map(|(&v, f)| (v, f.clone()))
            .collect();
        rows.sort_unstable_by_key(|&(v, _)| v);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::session::GrapeSession;
    use grape_graph::generators::bipartite_ratings;
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::strategy::PartitionStrategy;

    use crate::cf::sequential::{sgd_train, CfConfig};

    fn train_distributed(
        fragments: usize,
        epochs: usize,
        seed: u64,
    ) -> (
        CfModel,
        grape_core::metrics::EngineMetrics,
        grape_graph::graph::Graph,
    ) {
        // CF's epoch accounting is superstep-aligned (one epoch per IncEval
        // round), so the training pipeline pins synchronous mode.
        let data = bipartite_ratings(60, 30, 800, 4, seed);
        let frag = HashEdgeCut::new(fragments).partition(&data.graph).unwrap();
        let query = CfQuery {
            epochs,
            num_factors: 4,
            ..Default::default()
        };
        let result = GrapeSession::builder()
            .workers(4)
            .mode(grape_core::config::EngineMode::Sync)
            .build()
            .unwrap()
            .run(&frag, &Cf, &query)
            .unwrap();
        (result.output, result.metrics, data.graph)
    }

    #[test]
    fn distributed_training_reduces_rmse_close_to_sequential() {
        let (model, _, graph) = train_distributed(4, 10, 1);
        let sequential = sgd_train(
            &graph,
            &CfConfig {
                epochs: 10,
                num_factors: 4,
                ..Default::default()
            },
        );
        let dist_rmse = model.rmse(&graph);
        let seq_rmse = sequential.rmse(&graph);
        assert!(dist_rmse < 1.0, "distributed rmse too high: {dist_rmse}");
        assert!(
            dist_rmse < seq_rmse * 2.0 + 0.2,
            "distributed rmse {dist_rmse} far from sequential {seq_rmse}"
        );
    }

    #[test]
    fn every_rated_vertex_gets_factors() {
        let (model, _, graph) = train_distributed(3, 4, 2);
        for e in graph.edges() {
            assert!(model.factors_of(e.src).is_some());
            assert!(model.factors_of(e.dst).is_some());
        }
    }

    #[test]
    fn supersteps_match_epoch_budget() {
        let (_, metrics, _) = train_distributed(4, 5, 3);
        // PEval + (epochs - 1) IncEval rounds + the final quiescent exchange.
        assert!(
            metrics.supersteps >= 5 && metrics.supersteps <= 7,
            "{}",
            metrics.supersteps
        );
    }

    #[test]
    fn single_epoch_terminates_after_peval() {
        let (_, metrics, _) = train_distributed(4, 1, 4);
        assert_eq!(metrics.supersteps, 1);
        assert_eq!(metrics.total_messages, 0);
    }

    #[test]
    fn prepared_rating_insert_refreshes_only_the_touched_component() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::builder::GraphBuilder;
        use grape_graph::delta::GraphDelta;
        use grape_graph::types::Edge;
        use grape_partition::edge_cut::RangeEdgeCut;

        // Two disjoint rating blocks: users 0–3 rate items 4–7, users 8–11
        // rate items 12–15.  Four range fragments of 4 vertices — fragments
        // {0,1} form one quotient component, {2,3} the other.
        let mut b = GraphBuilder::directed();
        for u in 0..4u64 {
            for i in 0..3u64 {
                b.push_edge(Edge::weighted(
                    u,
                    4 + (u + i) % 4,
                    1.0 + ((u + i) % 5) as f64,
                ));
            }
        }
        for u in 8..12u64 {
            for i in 0..3u64 {
                b.push_edge(Edge::weighted(
                    u,
                    12 + (u + i) % 4,
                    1.0 + ((u * (i + 1)) % 5) as f64,
                ));
            }
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(4).partition(&g).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(grape_core::config::EngineMode::Sync)
            .build()
            .unwrap();
        let query = CfQuery {
            epochs: 4,
            num_factors: 4,
            ..Default::default()
        };
        let mut prepared = session.prepare(frag, Cf, query.clone()).unwrap();

        // A new rating inside the second block: epoch-seeded factor refresh
        // over that component's user/item vertices only.
        let report = prepared
            .update(&GraphDelta::new().add_weighted_edge(9, 15, 5.0))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded);
        assert_eq!(report.repeval, vec![2, 3], "only the touched component");
        assert_eq!(report.metrics.peval_calls, 2);
        assert_eq!(prepared.bounded_updates(), 1);

        // Exact equivalence with a full retraining on the updated graph:
        // the untouched component's factors never depended on the other's.
        let recompute = session.run(prepared.fragmentation(), &Cf, &query).unwrap();
        assert_eq!(
            prepared.output().into_factors(),
            recompute.output.into_factors()
        );
    }

    #[test]
    fn rating_insert_in_a_connected_quotient_retrains_fully() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        // One bipartite block: every fragment shares items with the others,
        // so the honest frontier is everything — a full retrain.
        let data = bipartite_ratings(40, 16, 400, 4, 9);
        let frag = HashEdgeCut::new(3).partition(&data.graph).unwrap();
        let session = GrapeSession::builder()
            .workers(2)
            .mode(grape_core::config::EngineMode::Sync)
            .build()
            .unwrap();
        let query = CfQuery {
            epochs: 3,
            num_factors: 4,
            ..Default::default()
        };
        let mut prepared = session.prepare(frag, Cf, query.clone()).unwrap();
        let report = prepared
            .update(&GraphDelta::new().add_weighted_edge(0, 45, 3.0))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(report.metrics.peval_calls, 3);
        let recompute = session.run(prepared.fragmentation(), &Cf, &query).unwrap();
        assert_eq!(
            prepared.output().into_factors(),
            recompute.output.into_factors()
        );
    }

    #[test]
    fn more_epochs_do_not_increase_rmse() {
        let (short_model, _, graph) = train_distributed(4, 2, 5);
        let (long_model, _, graph2) = train_distributed(4, 12, 5);
        // Same seed → same graph; guard against generator drift.
        assert_eq!(graph.num_edges(), graph2.num_edges());
        assert!(long_model.rmse(&graph) <= short_model.rmse(&graph) + 0.05);
    }
}
