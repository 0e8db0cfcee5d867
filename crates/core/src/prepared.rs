//! Prepared queries over evolving graphs: **prepare → answer → update**.
//!
//! [`crate::session::GrapeSession::run`] throws every partial result away.
//! That is fine for one-shot analytics, but serving queries over a graph
//! that keeps changing wants the paper's stronger protocol (Section 3.4):
//! pay PEval once, keep the per-fragment partials `Q(F_i)`, and absorb each
//! `ΔG` with IncEval alone.
//!
//! ```text
//! let mut prepared = session.prepare(fragmentation, Sssp, SsspQuery::new(0))?;
//! let q_of_g = prepared.output();          // Q(G), assembled from partials
//! prepared.update(&delta)?;                // Q(G ⊕ ΔG): IncEval only
//! let refreshed = prepared.output();
//! ```
//!
//! [`PreparedQuery`] owns the partitioned fragments, the retained partials
//! and the session policies.  [`PreparedQuery::update`] applies a batched
//! [`GraphDelta`]: the partition layer rebuilds only the affected fragments
//! (maintaining border sets and `G_P`), the program's
//! [`IncrementalPie::rebase`] converts the structural change into seed
//! messages, and the engine re-enters the IncEval fixpoint from the retained
//! state — zero PEval calls for monotone deltas, pinned by
//! [`crate::metrics::EngineMetrics::peval_calls`].  A non-monotone delta
//! (e.g. an edge deletion under SSSP) is first offered to the program's
//! [`IncrementalPie::retract`], which resets only the retained cells the
//! removals invalidated and keeps the refresh IncEval-only; a delta the
//! program declines takes the **bounded refresh**: the damage frontier
//! derived from `ΔG` via `G_P` is re-rooted with PEval while every
//! undamaged fragment keeps (and reseeds) its retained partial, so
//! `peval_calls == |damaged|` instead of `num_fragments`; only a frontier
//! covering every fragment degenerates into the classic full
//! re-preparation.  On every path [`PreparedQuery::output`] equals a
//! from-scratch recompute on the updated graph.

use grape_graph::delta::GraphDelta;
use grape_partition::delta::{damage_frontier, DeltaApplication};
use grape_partition::fragment::Fragmentation;

use crate::engine::{run_parts, EngineError, RunStart};
use crate::metrics::EngineMetrics;
use crate::output_delta::{diff_sorted, DeltaOutput, OutputDelta};
use crate::pie::{IncrementalPie, PieProgram, SeedBatch};
use crate::session::GrapeSession;

/// A prepared query: the partitioned graph, the program, the query and the
/// retained per-fragment partial results `Q(F_i)`, ready to be assembled
/// ([`PreparedQuery::output`]) or refreshed under updates
/// ([`PreparedQuery::update`]).
///
/// Created by [`GrapeSession::prepare`].
///
/// Fields are crate-visible so the serving layer
/// ([`crate::serve::GrapeServer`]) can spill a handle's state to disk on
/// eviction and rebuild it on rehydration without re-running PEval.
#[derive(Debug)]
pub struct PreparedQuery<P: PieProgram> {
    pub(crate) session: GrapeSession,
    pub(crate) program: P,
    pub(crate) query: P::Query,
    pub(crate) fragmentation: Fragmentation,
    pub(crate) partials: Vec<P::Partial>,
    pub(crate) prepare_metrics: EngineMetrics,
    pub(crate) last_metrics: EngineMetrics,
    pub(crate) updates_applied: usize,
    pub(crate) incremental_updates: usize,
    pub(crate) bounded_updates: usize,
    pub(crate) retracted_updates: usize,
    /// Set while a refresh has consumed or half-rebased the retained
    /// partials and cleared only when the refresh commits: a handle left
    /// with this flag holds state that corresponds to no graph version.
    pub(crate) poisoned: bool,
}

/// Which refresh path one [`PreparedQuery::update`] took — the decision
/// table of the bounded-refresh protocol (see `docs/ARCHITECTURE.md` §1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshKind {
    /// The delta was in the program's monotone direction: affected
    /// fragments were rebased, IncEval alone absorbed the change
    /// (`peval_calls == 0`).
    Monotone,
    /// Non-monotone delta the program absorbed with
    /// [`IncrementalPie::retract`]: only the retained cells the removals
    /// invalidated were reset, then IncEval alone re-derived them
    /// (`peval_calls == 0`).
    Retracted,
    /// Non-monotone delta with a localized damage frontier: PEval re-rooted
    /// only the damaged fragments, the rest kept their retained partials
    /// (`peval_calls == repeval.len() < num_fragments`).
    Bounded,
    /// The damage frontier covered every fragment: full re-preparation
    /// (`peval_calls == num_fragments`).
    Full,
}

/// What one [`PreparedQuery::update`] call did.
#[derive(Debug, Clone)]
pub struct UpdateReport {
    /// `true` when the delta was absorbed without PEval (`kind` is
    /// `Monotone` or `Retracted`).
    pub incremental: bool,
    /// Which refresh path ran.
    pub kind: RefreshKind,
    /// Retained cells the retraction reset (`0` on every other path).
    pub retracted: usize,
    /// Number of fragments whose structure changed under the delta
    /// (`== rebuilt.len()`, kept for compatibility).
    pub affected_fragments: usize,
    /// Fragments the partition layer rebuilt because `ΔG` touched their
    /// local structure; everything else was **reused** verbatim (shared
    /// `Arc` storage).
    pub rebuilt: Vec<usize>,
    /// Fragments the engine re-rooted with PEval: empty on the monotone
    /// and retracted paths, the damage frontier on the bounded path, all
    /// fragments on the full path.  `metrics.peval_calls == repeval.len()` always.
    pub repeval: Vec<usize>,
    /// Number of fragments whose structure the partition layer reused
    /// verbatim (`num_fragments - rebuilt.len()`).
    pub reused: usize,
    /// Engine metrics of the refresh (or of the full re-preparation).
    /// On the monotone and retracted paths `metrics.peval_calls == 0`.
    pub metrics: EngineMetrics,
}

impl GrapeSession {
    /// Prepares a query: partitions stay as given, PEval + IncEval run to
    /// the fixpoint, and the resulting per-fragment partials are retained in
    /// the returned handle instead of being assembled and dropped.
    ///
    /// `run(&f, &p, &q)` is equivalent to
    /// `prepare(f, p, q).map(|prepared| prepared.output())` — both share the
    /// same engine path; `run` simply skips the retention.
    pub fn prepare<P: PieProgram>(
        &self,
        fragmentation: Fragmentation,
        program: P,
        query: P::Query,
    ) -> Result<PreparedQuery<P>, EngineError> {
        let start = RunStart::full(fragmentation.num_fragments());
        let (partials, metrics) = run_parts(self, &fragmentation, &program, &query, start)?;
        Ok(PreparedQuery {
            session: self.clone(),
            program,
            query,
            fragmentation,
            partials,
            prepare_metrics: metrics.clone(),
            last_metrics: metrics,
            updates_applied: 0,
            incremental_updates: 0,
            bounded_updates: 0,
            retracted_updates: 0,
            poisoned: false,
        })
    }
}

impl<P: PieProgram> PreparedQuery<P> {
    /// Assembles `Q(G)` from the retained partials.  Cheap relative to a
    /// run: no PEval, no IncEval, no messages — just `Assemble`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is [poisoned](PreparedQuery::is_poisoned) by an
    /// earlier failed [`PreparedQuery::update`]: the retained partials were
    /// consumed or half-rebased when the engine errored, and assembling
    /// them would silently return an empty or garbage answer.  Use
    /// [`PreparedQuery::try_output`] to get an error instead.
    pub fn output(&self) -> P::Output {
        self.try_output()
            .expect("PreparedQuery::output on a poisoned handle (an earlier update failed)")
    }

    /// [`PreparedQuery::output`] that surfaces a poisoned handle as
    /// [`EngineError::PoisonedHandle`] instead of panicking.
    pub fn try_output(&self) -> Result<P::Output, EngineError> {
        if self.poisoned {
            return Err(EngineError::PoisonedHandle);
        }
        Ok(self.program.assemble(&self.query, self.partials.clone()))
    }

    /// Whether an earlier failed update left this handle without a
    /// consistent set of retained partials.  A poisoned handle refuses
    /// [`PreparedQuery::output`] and further updates; re-`prepare` to
    /// recover.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The program this query was prepared with.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The query `Q`.
    pub fn query(&self) -> &P::Query {
        &self.query
    }

    /// The current fragmentation (reflects every applied delta).
    pub fn fragmentation(&self) -> &Fragmentation {
        &self.fragmentation
    }

    /// The retained per-fragment partials `Q(F_i)`, in fragment order —
    /// what [`crate::output_delta::DeltaOutput::diff_output`] reads.
    pub fn partials(&self) -> &[P::Partial] {
        &self.partials
    }

    /// Metrics of the initial preparation run.
    pub fn prepare_metrics(&self) -> &EngineMetrics {
        &self.prepare_metrics
    }

    /// Metrics of the most recent engine work (the preparation, or the last
    /// update's refresh / fallback re-preparation).
    pub fn last_metrics(&self) -> &EngineMetrics {
        &self.last_metrics
    }

    /// Number of deltas applied so far (incremental or fallback).
    pub fn updates_applied(&self) -> usize {
        self.updates_applied
    }

    /// Number of deltas absorbed by the monotone IncEval-only path.
    pub fn incremental_updates(&self) -> usize {
        self.incremental_updates
    }

    /// Number of non-monotone deltas absorbed by the bounded refresh
    /// (PEval on the damage frontier only, not everywhere).
    pub fn bounded_updates(&self) -> usize {
        self.bounded_updates
    }

    /// Number of non-monotone deltas absorbed by the program's retraction
    /// (IncEval only, no PEval).
    pub fn retracted_updates(&self) -> usize {
        self.retracted_updates
    }
}

impl<P: IncrementalPie> PreparedQuery<P> {
    /// Applies a batched graph update and refreshes the retained partials so
    /// that [`PreparedQuery::output`] returns `Q(G ⊕ ΔG)`.
    ///
    /// The decision table (see `docs/ARCHITECTURE.md` §1a):
    ///
    /// 1. **Monotone** — the delta is in the program's monotone direction
    ///    ([`IncrementalPie::delta_is_monotone`]): affected fragments are
    ///    rebased, their changed update parameters are seeded through `G_P`,
    ///    and the engine iterates **IncEval only** to the new fixpoint from
    ///    the retained state (`metrics.peval_calls == 0`).
    /// 2. **Retracted** — the delta is non-monotone and the program's
    ///    [`IncrementalPie::retract`] absorbed it: it reset only the
    ///    retained cells the removals invalidated, and IncEval alone
    ///    re-derives them (`metrics.peval_calls == 0`).
    /// 3. **Bounded** — the program declined, and the delta's *damage
    ///    frontier* ([`IncrementalPie::damage_policy`]) does not cover every
    ///    fragment: PEval re-roots only the damaged fragments, the undamaged
    ///    ones keep their retained partials and — under the reachability
    ///    policy — reseed their border segments into the fixpoint
    ///    (`metrics.peval_calls == |damaged| < num_fragments`).
    /// 4. **Full** — the frontier covers everything: classic full
    ///    re-preparation (PEval everywhere).
    ///
    /// All four produce output identical to a from-scratch recompute on the
    /// updated graph, pinned by `tests/delta_fuzz.rs`.
    ///
    /// On an engine error during the monotone, retracted or bounded refresh
    /// the handle is **poisoned** — its partials were consumed or half-rebased, so
    /// [`PreparedQuery::output`] panics, [`PreparedQuery::try_output`] and
    /// further updates return [`EngineError::PoisonedHandle`] — instead of
    /// silently assembling an empty answer.  A delta rejected by the
    /// partition layer, or a failed *full* re-preparation, leaves the
    /// handle consistent at the pre-delta graph.
    pub fn update(&mut self, delta: &GraphDelta) -> Result<UpdateReport, EngineError> {
        if self.poisoned {
            return Err(EngineError::PoisonedHandle);
        }
        let applied = self
            .fragmentation
            .apply_delta(delta)
            .map_err(|e| EngineError::Delta(e.to_string()))?;
        self.refresh_from(&applied, delta)
    }

    /// Refreshes this handle from an **already applied** delta: the second
    /// half of [`PreparedQuery::update`], split out so that
    /// [`crate::serve::GrapeServer`] can run `Fragmentation::apply_delta`
    /// **once** per `ΔG` and fan the resulting [`DeltaApplication`] out to
    /// every registered query.  `self.fragmentation` must be the
    /// fragmentation `applied` was derived from (they share `Arc<Fragment>`
    /// storage for every fragment the delta did not rebuild).
    pub(crate) fn refresh_from(
        &mut self,
        applied: &DeltaApplication,
        delta: &GraphDelta,
    ) -> Result<UpdateReport, EngineError> {
        if self.poisoned {
            return Err(EngineError::PoisonedHandle);
        }
        let m = applied.fragmentation.num_fragments();
        let rebuilt: Vec<usize> = applied.affected.iter().map(|fd| fd.fragment).collect();

        // A delta that changed no fragment's structure (an empty `ΔG`) is a
        // no-op for every program: the retained partials already *are* the
        // fixpoint.  Short-circuit before the engine — no workers, no
        // transport, no fragment assignment just to report zero supersteps.
        if applied.affected.is_empty() {
            self.fragmentation = applied.fragmentation.clone();
            let metrics = EngineMetrics {
                program: self.program.name().to_string(),
                workers: self.session.config().num_workers,
                fragments: m,
                transport: self
                    .session
                    .transport()
                    .name(self.session.config().mode)
                    .to_string(),
                incremental: true,
                ..Default::default()
            };
            return Ok(self.commit(RefreshKind::Monotone, rebuilt, Vec::new(), 0, metrics));
        }

        // The monotone path needs the program's blessing.  d-hop expansion
        // programs evaluate over expanded fragments the handle does not
        // retain, so their rebase path is unavailable — they go through the
        // bounded refresh, which re-expands exactly the damaged fragments.
        let monotone =
            self.program.delta_is_monotone(delta) && self.program.expansion_hops(&self.query) == 0;

        // From here until a refresh commits, the handle holds rebased,
        // retracted or taken partials: an engine error must not let
        // `output()` assemble them.
        self.poisoned = true;
        if monotone {
            // Rebase the affected fragments' partials and collect the seeds.
            let mut seeds = Vec::with_capacity(applied.affected.len());
            for fd in &applied.affected {
                let fi = fd.fragment;
                let old_partial = self.partials[fi].clone();
                let (new_partial, sends) = self.program.rebase(
                    &self.query,
                    self.fragmentation.fragment(fi),
                    applied.fragmentation.fragment(fi),
                    old_partial,
                    fd,
                );
                self.partials[fi] = new_partial;
                if !sends.is_empty() {
                    seeds.push((fi, sends));
                }
            }
            let metrics = self.run_refresh(applied, seeds, Vec::new())?;
            return Ok(self.commit(RefreshKind::Monotone, rebuilt, Vec::new(), 0, metrics));
        }

        // Non-monotone: the program may retract exactly the retained cells
        // the removals invalidated and keep the refresh IncEval-only.
        if let Some(retraction) = self.program.retract(
            &self.query,
            &self.fragmentation,
            applied,
            delta,
            &mut self.partials,
        ) {
            let metrics = self.run_refresh(applied, retraction.seeds, Vec::new())?;
            return Ok(self.commit(
                RefreshKind::Retracted,
                rebuilt,
                Vec::new(),
                retraction.retracted,
                metrics,
            ));
        }
        // Declined: the partials are untouched.
        self.poisoned = false;

        // Derive the damage frontier from ΔG over the union of the old and
        // new fragment quotient graphs.
        let frontier = damage_frontier(
            &self.fragmentation,
            &applied.fragmentation,
            &rebuilt,
            self.program.damage_policy(&self.query),
            self.program.scope(),
        );
        let repeval = frontier.damaged_ids();

        if repeval.len() == m {
            // The frontier covers everything: classic full re-preparation.
            // Nothing is mutated before `run_parts` succeeds, so an error
            // here leaves the handle consistent at the old graph.
            let (partials, metrics) = run_parts(
                &self.session,
                &applied.fragmentation,
                &self.program,
                &self.query,
                RunStart::full(m),
            )?;
            self.fragmentation = applied.fragmentation.clone();
            self.partials = partials;
            return Ok(self.commit(RefreshKind::Full, rebuilt, repeval, 0, metrics));
        }

        // Bounded refresh: undamaged fragments that feed a damaged one
        // re-emit their retained border segments (the freshly re-rooted
        // fragments have no memory of them); the engine re-runs PEval on
        // the frontier only and iterates IncEval to the fixpoint.
        let mut seeds = Vec::new();
        for &i in &frontier.reseed_sources {
            let sends = self.program.reseed(
                &self.query,
                applied.fragmentation.fragment(i),
                &self.partials[i],
            );
            if !sends.is_empty() {
                seeds.push((i, sends));
            }
        }
        // The taken partials are unrecoverable past this point.
        self.poisoned = true;
        let metrics = self.run_refresh(applied, seeds, repeval.clone())?;
        Ok(self.commit(RefreshKind::Bounded, rebuilt, repeval, 0, metrics))
    }

    /// Takes the retained partials, runs the refresh (PEval re-roots
    /// `repeval`, IncEval iterates from `seeds` to the fixpoint) and
    /// installs its result together with the updated fragmentation,
    /// clearing the poison flag.  On an engine error the handle stays
    /// poisoned.
    fn run_refresh(
        &mut self,
        applied: &DeltaApplication,
        seeds: Vec<SeedBatch<P>>,
        repeval: Vec<usize>,
    ) -> Result<EngineMetrics, EngineError> {
        let start = RunStart {
            partials: Some(std::mem::take(&mut self.partials)),
            seeds,
            repeval,
        };
        let (partials, metrics) = run_parts(
            &self.session,
            &applied.fragmentation,
            &self.program,
            &self.query,
            start,
        )?;
        self.fragmentation = applied.fragmentation.clone();
        self.partials = partials;
        self.poisoned = false;
        Ok(metrics)
    }

    /// Books one absorbed delta under its refresh kind and builds the
    /// report.
    fn commit(
        &mut self,
        kind: RefreshKind,
        rebuilt: Vec<usize>,
        repeval: Vec<usize>,
        retracted: usize,
        metrics: EngineMetrics,
    ) -> UpdateReport {
        self.updates_applied += 1;
        match kind {
            RefreshKind::Monotone => self.incremental_updates += 1,
            RefreshKind::Retracted => self.retracted_updates += 1,
            RefreshKind::Bounded => self.bounded_updates += 1,
            RefreshKind::Full => {}
        }
        self.last_metrics = metrics.clone();
        UpdateReport {
            incremental: matches!(kind, RefreshKind::Monotone | RefreshKind::Retracted),
            kind,
            retracted,
            affected_fragments: rebuilt.len(),
            reused: self.fragmentation.num_fragments() - rebuilt.len(),
            rebuilt,
            repeval,
            metrics,
        }
    }
}

/// The canonical, key-sorted row form of a [`DeltaOutput`] program's answer.
pub type CanonicalRows<P> = Vec<(<P as DeltaOutput>::OutKey, <P as DeltaOutput>::OutVal)>;

/// What [`PreparedQuery::update_with_delta`] returns: the refresh report
/// plus the typed answer delta the refresh induced.
pub type UpdateWithDelta<P> = (
    UpdateReport,
    OutputDelta<<P as DeltaOutput>::OutKey, <P as DeltaOutput>::OutVal>,
);

impl<P: DeltaOutput> PreparedQuery<P> {
    /// The canonical, key-sorted row form of the current answer
    /// ([`DeltaOutput::canonical`] over a fresh assemble).
    ///
    /// Returns [`EngineError::PoisonedHandle`] on a poisoned handle — a
    /// poisoned handle's partials correspond to no graph version, so they
    /// must never become a diff baseline.
    pub fn canonical_rows(&self) -> Result<CanonicalRows<P>, EngineError> {
        let output = self.try_output()?;
        Ok(self.program.canonical(&self.query, &output))
    }

    /// The [`OutputDelta`] of the current answer relative to `previous`
    /// canonical rows: the program's [`DeltaOutput::diff_output`] fast
    /// path straight from the retained partials when it accepts, the
    /// assemble-and-[`diff_sorted`] fallback otherwise.
    ///
    /// Combined with [`PreparedQuery::update`] this is the push contract:
    /// snapshot `canonical_rows`, apply any number of deltas, and
    /// `output_delta_since` reports exactly which rows changed — folding
    /// several updates into one key-wise-compacted delta for free.
    pub fn output_delta_since(
        &self,
        previous: &[(P::OutKey, P::OutVal)],
    ) -> Result<OutputDelta<P::OutKey, P::OutVal>, EngineError> {
        if self.poisoned {
            return Err(EngineError::PoisonedHandle);
        }
        if let Some(delta) = self
            .program
            .diff_output(&self.query, previous, &self.partials)
        {
            return Ok(delta);
        }
        Ok(diff_sorted(previous, &self.canonical_rows()?))
    }

    /// [`PreparedQuery::update`] that additionally produces the typed
    /// [`OutputDelta`] the update caused, relative to the pre-update
    /// answer.
    pub fn update_with_delta(
        &mut self,
        delta: &GraphDelta,
    ) -> Result<UpdateWithDelta<P>, EngineError> {
        let previous = self.canonical_rows()?;
        let report = self.update(delta)?;
        let output_delta = self.output_delta_since(&previous)?;
        Ok((report, output_delta))
    }
}

impl<P: PieProgram + Clone> Clone for PreparedQuery<P> {
    fn clone(&self) -> Self {
        PreparedQuery {
            session: self.session.clone(),
            program: self.program.clone(),
            query: self.query.clone(),
            fragmentation: self.fragmentation.clone(),
            partials: self.partials.clone(),
            prepare_metrics: self.prepare_metrics.clone(),
            last_metrics: self.last_metrics.clone(),
            updates_applied: self.updates_applied,
            incremental_updates: self.incremental_updates,
            bounded_updates: self.bounded_updates,
            retracted_updates: self.retracted_updates,
            poisoned: self.poisoned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineMode;
    use crate::test_support::{path_graph, ring_graph, session, DivergingOnUpdate, MinForward};
    use grape_partition::edge_cut::RangeEdgeCut;
    use grape_partition::strategy::PartitionStrategy;

    #[test]
    fn prepare_output_equals_run_output() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = session(EngineMode::Sync);
        let run = s.run(&frag, &MinForward, &()).unwrap();
        let prepared = s.prepare(frag, MinForward, ()).unwrap();
        assert_eq!(prepared.output(), run.output);
        assert_eq!(prepared.prepare_metrics().peval_calls, 3);
        assert_eq!(prepared.updates_applied(), 0);
    }

    #[test]
    fn monotone_update_runs_zero_pevals_and_matches_recompute() {
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let g = path_graph(12);
            let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
            let s = session(mode);
            let mut prepared = s.prepare(frag, MinForward, ()).unwrap();

            // Every path vertex already carries the minimum 0, so no edge
            // inside the path changes a value: grow a detached cluster
            // first, then bridge it.
            let grow = GraphDelta::new().add_edge(20, 21).add_edge(21, 22);
            let report = prepared.update(&grow).unwrap();
            assert!(report.incremental);
            assert_eq!(report.metrics.peval_calls, 0);
            assert!(report.metrics.incremental);

            // Bridge: 3 -> 20 drags min 0 into the new cluster.
            let bridge = GraphDelta::new().add_edge(3, 20);
            let report = prepared.update(&bridge).unwrap();
            assert!(report.incremental);
            assert_eq!(report.metrics.peval_calls, 0);

            // Equivalence with a full recompute on the updated graph.
            let recompute = s.run(prepared.fragmentation(), &MinForward, &()).unwrap();
            assert_eq!(prepared.output(), recompute.output, "{mode:?}");
            assert_eq!(prepared.output()[&22], 0, "{mode:?}");
            assert_eq!(prepared.updates_applied(), 2);
            assert_eq!(prepared.incremental_updates(), 2);
        }
    }

    #[test]
    fn non_monotone_update_falls_back_to_full_reprepare() {
        // Deleting the only cross edge damages both fragments (the stale
        // downstream fragment is reachable through the OLD quotient graph),
        // so the frontier covers everything: full re-preparation.
        let g = path_graph(8);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let s = session(EngineMode::Sync);
        let mut prepared = s.prepare(frag, MinForward, ()).unwrap();
        let report = prepared
            .update(&GraphDelta::new().remove_edge(3, 4))
            .unwrap();
        assert!(!report.incremental);
        assert_eq!(report.kind, RefreshKind::Full);
        assert_eq!(report.metrics.peval_calls, 2, "full re-preparation");
        assert_eq!(report.repeval, vec![0, 1]);
        let recompute = s.run(prepared.fragmentation(), &MinForward, &()).unwrap();
        assert_eq!(prepared.output(), recompute.output);
        // The cut path: 4..8 no longer reach min 0.
        assert_eq!(prepared.output()[&5], 4);
        assert_eq!(prepared.incremental_updates(), 0);
    }

    #[test]
    fn localized_deletion_takes_the_bounded_refresh() {
        // Path 0..12 over three range fragments {0..4}, {4..8}, {8..12}.
        // Deleting the fragment-local edge 5 → 6 damages F1 and (via Out-
        // scope reachability) its downstream F2 — but never F0, whose
        // retained partial is reused and whose border value is reseeded.
        for mode in [EngineMode::Sync, EngineMode::Async] {
            let g = path_graph(12);
            let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
            let s = session(mode);
            let mut prepared = s.prepare(frag, MinForward, ()).unwrap();
            let report = prepared
                .update(&GraphDelta::new().remove_edge(5, 6))
                .unwrap();
            assert!(!report.incremental, "{mode:?}");
            assert_eq!(report.kind, RefreshKind::Bounded, "{mode:?}");
            assert_eq!(report.rebuilt, vec![1], "only F1 changed structurally");
            assert_eq!(report.repeval, vec![1, 2], "damage frontier ({mode:?})");
            assert_eq!(
                report.metrics.peval_calls, 2,
                "peval_calls == |damaged| < num_fragments ({mode:?})"
            );
            assert_eq!(report.reused, 2);
            assert!(report.metrics.incremental);
            assert_eq!(prepared.bounded_updates(), 1);

            let recompute = s.run(prepared.fragmentation(), &MinForward, &()).unwrap();
            assert_eq!(prepared.output(), recompute.output, "{mode:?}");
            // The deletion cuts min-0 propagation at vertex 6.
            assert_eq!(prepared.output()[&5], 0, "{mode:?}");
            assert_eq!(prepared.output()[&7], 6, "{mode:?}");
            assert_eq!(prepared.output()[&11], 6, "{mode:?}");
        }
    }

    #[test]
    fn empty_delta_is_a_cheap_noop_refresh() {
        let g = path_graph(9);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = session(EngineMode::Sync);
        let mut prepared = s.prepare(frag, MinForward, ()).unwrap();
        let before = prepared.output();
        let report = prepared.update(&GraphDelta::new()).unwrap();
        assert!(report.incremental);
        assert_eq!(report.affected_fragments, 0);
        assert_eq!(report.metrics.peval_calls, 0);
        assert_eq!(report.metrics.inceval_calls, 0);
        assert_eq!(report.metrics.supersteps, 0);
        assert_eq!(prepared.output(), before);
    }

    #[test]
    fn delta_errors_surface_as_engine_errors() {
        let g = path_graph(6);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let s = session(EngineMode::Sync);
        let mut prepared = s.prepare(frag, MinForward, ()).unwrap();
        let err = prepared
            .update(&GraphDelta::new().remove_edge(5, 0))
            .unwrap_err();
        assert!(matches!(err, EngineError::Delta(_)));
        // A delta the partition layer rejected never touched the retained
        // partials: the handle stays consistent, not poisoned.
        assert!(!prepared.is_poisoned());
        assert_eq!(prepared.output()[&3], 0);
    }

    /// Regression for the silently-poisoned error path: a refresh that
    /// errors after consuming the retained partials must leave the handle
    /// *explicitly* stale — `output()` used to assemble the taken-out
    /// (empty) partials and silently return an empty result.
    #[test]
    fn failed_refresh_poisons_the_handle_instead_of_emptying_it() {
        let g = ring_graph(8);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        // PEval converges instantly; the seeded refresh escalates forever.
        let mut prepared = s.prepare(frag, DivergingOnUpdate, ()).unwrap();
        assert!(!prepared.is_poisoned());

        let err = prepared
            .update(&GraphDelta::new().add_edge(0, 2))
            .unwrap_err();
        assert_eq!(err, EngineError::DidNotConverge { max_supersteps: 4 });

        // The handle is explicitly stale, on every read path.
        assert!(prepared.is_poisoned());
        assert!(matches!(
            prepared.try_output().unwrap_err(),
            EngineError::PoisonedHandle
        ));
        assert!(matches!(
            prepared.update(&GraphDelta::new()).unwrap_err(),
            EngineError::PoisonedHandle
        ));
        // Poison is part of the state: clones of a wrecked handle are
        // equally unusable.
        assert!(prepared.clone().is_poisoned());
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn output_on_a_poisoned_handle_panics_loudly() {
        let g = ring_graph(8);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .max_supersteps(4)
            .build()
            .unwrap();
        let mut prepared = s.prepare(frag, DivergingOnUpdate, ()).unwrap();
        let _ = prepared.update(&GraphDelta::new().add_edge(0, 2));
        let _ = prepared.output(); // must panic, not return 0
    }

    /// The empty-delta short-circuit must answer before entering the
    /// engine.  Pinned through a side door: the engine rejects
    /// failure-injection sessions on every run that starts from retained
    /// partials, so a no-op update succeeding on one proves the engine was
    /// never spun up.
    #[test]
    fn empty_delta_short_circuits_before_the_engine() {
        let g = path_graph(9);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = GrapeSession::builder()
            .workers(2)
            .mode(EngineMode::Sync)
            .checkpoint_every(1)
            .inject_failure(99, 0) // never fires during prepare
            .build()
            .unwrap();
        let mut prepared = s.prepare(frag, MinForward, ()).unwrap();
        let before = prepared.output();
        let report = prepared.update(&GraphDelta::new()).unwrap();
        assert!(report.incremental);
        assert_eq!(report.kind, RefreshKind::Monotone);
        assert!(report.rebuilt.is_empty());
        assert_eq!(report.reused, 3);
        assert_eq!(report.metrics.supersteps, 0);
        assert_eq!(report.metrics.seed_messages, 0);
        assert_eq!(report.metrics.total_messages, 0);
        assert_eq!(prepared.output(), before);
        assert_eq!(prepared.updates_applied(), 1);
        assert_eq!(prepared.incremental_updates(), 1);
    }

    /// Two clones applying different deltas must not alias state through
    /// the shared `Arc<Fragment>` storage: copy-on-write at the
    /// fragmentation level, pinned fragment by fragment.
    #[test]
    fn cloned_handles_diverge_without_aliasing_state() {
        let g = path_graph(12);
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let s = session(EngineMode::Sync);
        let mut a = s.prepare(frag, MinForward, ()).unwrap();
        let mut b = a.clone();
        for i in 0..3 {
            assert!(
                a.fragmentation()
                    .shares_fragment_storage(b.fragmentation(), i),
                "clones start fully shared (fragment {i})"
            );
        }

        // a: monotone insert local to F0.  b: bounded deletion rebuilding F1.
        a.update(&GraphDelta::new().add_edge(0, 2)).unwrap();
        b.update(&GraphDelta::new().remove_edge(5, 6)).unwrap();

        // Each clone equals an independent recompute over ITS graph version.
        let ra = s.run(a.fragmentation(), &MinForward, &()).unwrap();
        assert_eq!(a.output(), ra.output);
        let rb = s.run(b.fragmentation(), &MinForward, &()).unwrap();
        assert_eq!(b.output(), rb.output);
        // And the versions genuinely diverged: a's path is intact, b's cut.
        assert_eq!(a.output()[&7], 0);
        assert_eq!(b.output()[&7], 6);

        // Copy-on-write surface: only the fragments each delta rebuilt were
        // unshared; the fragment neither touched is still one allocation.
        assert!(!a
            .fragmentation()
            .shares_fragment_storage(b.fragmentation(), 0));
        assert!(!a
            .fragmentation()
            .shares_fragment_storage(b.fragmentation(), 1));
        assert!(
            a.fragmentation()
                .shares_fragment_storage(b.fragmentation(), 2),
            "fragment 2 was structurally untouched by both deltas"
        );
    }
}
