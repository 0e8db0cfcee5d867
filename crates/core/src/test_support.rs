//! Miniature `IncrementalPie` programs shared by the unit tests of
//! [`crate::prepared`] and [`crate::serve`] — small enough to reason about
//! by hand, complete enough to exercise every refresh path.
//!
//! Compiled into the library (`#[doc(hidden)]`) rather than `#[cfg(test)]`
//! so the workspace-level concurrency fuzz (the widths relation of
//! `tests/equivalence/`) can drive the same failure-injection programs.
//! Not a public API.

#![allow(dead_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use grape_graph::builder::GraphBuilder;
use grape_graph::delta::GraphDelta;
use grape_graph::types::{Edge, VertexId};
use grape_partition::delta::FragmentDelta;
use grape_partition::fragment::{Fragment, Fragmentation};
use grape_partition::fragmentation_graph::BorderScope;

use crate::config::EngineMode;
use crate::output_delta::DeltaOutput;
use crate::pie::{IncrementalPie, Messages, PieProgram};
use crate::session::GrapeSession;

/// Forward min-id propagation, keyed by **global** id so the partial
/// survives fragment rebuilds without remapping — the smallest possible
/// `IncrementalPie` program.  Its partial (`HashMap<u64, u64>`) round-trips
/// through the serde value encoding, so it is also evictable.
#[derive(Clone)]
pub struct MinForward;

pub type MinPartial = HashMap<VertexId, u64>;

fn local_fixpoint(frag: &Fragment, values: &mut MinPartial) {
    let mut changed = true;
    while changed {
        changed = false;
        for l in frag.all_locals() {
            let v = frag.global_of(l);
            let mine = values[&v];
            for n in frag.out_edges(l) {
                let t = frag.global_of(n.target as u32);
                if mine < values[&t] {
                    values.insert(t, mine);
                    changed = true;
                }
            }
        }
    }
}

impl PieProgram for MinForward {
    type Query = ();
    type Partial = MinPartial;
    type Key = VertexId;
    type Value = u64;
    type Output = HashMap<VertexId, u64>;

    fn name(&self) -> &str {
        "min-forward"
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    fn peval(&self, _q: &(), frag: &Fragment, ctx: &mut Messages<VertexId, u64>) -> MinPartial {
        let mut values: MinPartial = frag
            .all_locals()
            .map(|l| (frag.global_of(l), frag.global_of(l)))
            .collect();
        local_fixpoint(frag, &mut values);
        for &l in frag.out_border_locals() {
            let v = frag.global_of(l);
            ctx.send(v, values[&v]);
        }
        values
    }

    fn inc_eval(
        &self,
        _q: &(),
        frag: &Fragment,
        partial: &mut MinPartial,
        messages: &[(VertexId, u64)],
        ctx: &mut Messages<VertexId, u64>,
    ) {
        let mut touched = false;
        for (v, value) in messages {
            if partial.get(v).is_some_and(|cur| value < cur) {
                partial.insert(*v, *value);
                touched = true;
            }
        }
        if touched {
            let before = partial.clone();
            local_fixpoint(frag, partial);
            for &l in frag.out_border_locals() {
                let v = frag.global_of(l);
                if partial[&v] < before[&v] {
                    ctx.send(v, partial[&v]);
                }
            }
        }
    }

    fn assemble(&self, _q: &(), _: &Fragmentation, partials: Vec<MinPartial>) -> Self::Output {
        let mut out = HashMap::new();
        for p in partials {
            for (v, value) in p {
                out.entry(v)
                    .and_modify(|x: &mut u64| *x = (*x).min(value))
                    .or_insert(value);
            }
        }
        out
    }

    fn aggregate(&self, _key: &VertexId, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

impl IncrementalPie for MinForward {
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        !delta.has_removals()
    }

    fn damage_policy(&self, _query: &()) -> crate::pie::DamagePolicy {
        // Min propagation has a schedule-independent fixpoint: the
        // reachability frontier plus reseeded borders is exact.
        crate::pie::DamagePolicy::Reachability
    }

    fn reseed(&self, _query: &(), frag: &Fragment, partial: &MinPartial) -> Vec<(VertexId, u64)> {
        frag.out_border_locals()
            .iter()
            .map(|&l| {
                let v = frag.global_of(l);
                (v, partial[&v])
            })
            .collect()
    }

    fn rebase(
        &self,
        _query: &(),
        _old_frag: &Fragment,
        new_frag: &Fragment,
        mut partial: MinPartial,
        _delta: &FragmentDelta,
    ) -> (MinPartial, Vec<(VertexId, u64)>) {
        let old: MinPartial = partial.clone();
        // New locals start at their own id; re-run the local fixpoint.
        for l in new_frag.all_locals() {
            let v = new_frag.global_of(l);
            partial.entry(v).or_insert(v);
        }
        partial.retain(|&v, _| new_frag.local_of(v).is_some());
        local_fixpoint(new_frag, &mut partial);
        let mut sends = Vec::new();
        for &l in new_frag.out_border_locals() {
            let v = new_frag.global_of(l);
            if partial[&v] < old.get(&v).copied().unwrap_or(u64::MAX) {
                sends.push((v, partial[&v]));
            }
        }
        (partial, sends)
    }
}

impl DeltaOutput for MinForward {
    type OutKey = VertexId;
    type OutVal = u64;

    fn canonical(&self, _q: &(), output: &HashMap<VertexId, u64>) -> Vec<(VertexId, u64)> {
        let mut rows: Vec<(VertexId, u64)> = output.iter().map(|(&v, &m)| (v, m)).collect();
        rows.sort_unstable();
        rows
    }
}

/// A deliberately broken program: its PEval fixpoint is trivial (no
/// messages), but any seeded refresh escalates values forever — the update
/// path hits the superstep limit and errors.  Used to regression-test the
/// poisoned-handle protocol.
#[derive(Clone)]
pub struct DivergingOnUpdate;

impl PieProgram for DivergingOnUpdate {
    type Query = ();
    type Partial = u64;
    type Key = VertexId;
    type Value = u64;
    type Output = u64;

    fn name(&self) -> &str {
        "diverging-on-update"
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    fn peval(&self, _q: &(), _frag: &Fragment, _ctx: &mut Messages<VertexId, u64>) -> u64 {
        0
    }

    fn inc_eval(
        &self,
        _q: &(),
        frag: &Fragment,
        partial: &mut u64,
        messages: &[(VertexId, u64)],
        ctx: &mut Messages<VertexId, u64>,
    ) {
        // Escalate: every received value is re-sent increased, so the
        // "fixpoint" recedes forever.
        let next = messages.iter().map(|&(_, v)| v).max().unwrap_or(0) + 1;
        *partial = next;
        for &l in frag.out_border_locals() {
            ctx.send(frag.global_of(l), next);
        }
    }

    fn assemble(&self, _q: &(), _frag: &Fragmentation, partials: Vec<u64>) -> u64 {
        partials.into_iter().sum()
    }

    fn aggregate(&self, _key: &VertexId, a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

impl IncrementalPie for DivergingOnUpdate {
    fn delta_is_monotone(&self, _delta: &GraphDelta) -> bool {
        true
    }

    fn rebase(
        &self,
        _query: &(),
        _old_frag: &Fragment,
        new_frag: &Fragment,
        partial: u64,
        _delta: &FragmentDelta,
    ) -> (u64, Vec<(VertexId, u64)>) {
        // Seed the escalation through the rebuilt fragment's border.
        let sends = new_frag
            .out_border_locals()
            .iter()
            .map(|&l| (new_frag.global_of(l), partial + 1))
            .collect();
        (partial, sends)
    }
}

impl DeltaOutput for DivergingOnUpdate {
    type OutKey = u64;
    type OutVal = u64;

    fn canonical(&self, _q: &(), output: &u64) -> Vec<(u64, u64)> {
        vec![(0, *output)]
    }
}

/// A program whose **full re-preparation** can be made to fail on demand.
/// Healthy, it is a trivial edge-counting program (partial = local edge
/// count, output = their sum); tripped, its PEval seeds an escalation that
/// [`PieProgram::inc_eval`] chases past the superstep limit
/// (`DidNotConverge`).  By default every delta is declared non-monotone and
/// the default `Component` damage policy swallows a connected quotient
/// graph whole, so on a ring any update takes the full re-preparation path
/// — the one refresh error that leaves the handle *unpoisoned* and
/// consistent at the pre-delta graph.  Used to regression-test that the
/// serving layer keeps such a query on its true (older) version and
/// replays it later, instead of silently refreshing it with a mismatched
/// delta.
///
/// [`TrippablePrepare::allow_monotone_inserts`] flips a second switch:
/// insert-only deltas are then declared monotone, and the monotone refresh
/// *always* diverges (its rebase seeds the same escalation) — the one
/// refresh error that **poisons** the handle.  That combination lets a
/// test drive a query behind first and poison it mid-replay afterwards.
#[derive(Clone, Default)]
pub struct TrippablePrepare {
    tripped: Arc<AtomicBool>,
    monotone_inserts: Arc<AtomicBool>,
}

impl TrippablePrepare {
    /// Healthy, and with every delta non-monotone.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes every subsequent full (re-)preparation diverge.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
    }

    /// Lets subsequent preparations converge again.
    pub fn heal(&self) {
        self.tripped.store(false, Ordering::SeqCst);
    }

    /// Declares insert-only deltas monotone from now on — and their rebase
    /// seeds the diverging escalation, so the monotone refresh errors after
    /// consuming the partials: the poisoning failure mode.
    pub fn allow_monotone_inserts(&self) {
        self.monotone_inserts.store(true, Ordering::SeqCst);
    }
}

impl PieProgram for TrippablePrepare {
    type Query = ();
    type Partial = u64;
    type Key = VertexId;
    type Value = u64;
    type Output = u64;

    fn name(&self) -> &str {
        "trippable-prepare"
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    fn peval(&self, _q: &(), frag: &Fragment, ctx: &mut Messages<VertexId, u64>) -> u64 {
        let edges = frag
            .all_locals()
            .map(|l| frag.out_edges(l).len() as u64)
            .sum();
        if self.tripped.load(Ordering::SeqCst) {
            for &l in frag.out_border_locals() {
                ctx.send(frag.global_of(l), 1);
            }
        }
        edges
    }

    fn inc_eval(
        &self,
        _q: &(),
        frag: &Fragment,
        _partial: &mut u64,
        messages: &[(VertexId, u64)],
        ctx: &mut Messages<VertexId, u64>,
    ) {
        // Only ever seeded while tripped: chase the escalation forever so
        // the run hits the superstep limit.
        if messages.is_empty() {
            return;
        }
        let next = messages.iter().map(|&(_, v)| v).max().unwrap_or(0) + 1;
        for &l in frag.out_border_locals() {
            ctx.send(frag.global_of(l), next);
        }
    }

    fn assemble(&self, _q: &(), _frag: &Fragmentation, partials: Vec<u64>) -> u64 {
        partials.into_iter().sum()
    }

    fn aggregate(&self, _key: &VertexId, a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

impl IncrementalPie for TrippablePrepare {
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        self.monotone_inserts.load(Ordering::SeqCst) && !delta.has_removals()
    }

    fn rebase(
        &self,
        _query: &(),
        _old_frag: &Fragment,
        new_frag: &Fragment,
        partial: u64,
        _delta: &FragmentDelta,
    ) -> (u64, Vec<(VertexId, u64)>) {
        // Only reachable with `allow_monotone_inserts`: seed the escalation
        // through the rebuilt fragment's border so the refresh diverges and
        // poisons the handle.
        let sends = new_frag
            .out_border_locals()
            .iter()
            .map(|&l| (new_frag.global_of(l), partial + 1))
            .collect();
        (partial, sends)
    }
}

impl DeltaOutput for TrippablePrepare {
    type OutKey = u64;
    type OutVal = u64;

    fn canonical(&self, _q: &(), output: &u64) -> Vec<(u64, u64)> {
        vec![(0, *output)]
    }
}

/// `0 → 1 → … → n-1` path graph.
pub fn path_graph(n: u64) -> grape_graph::graph::Graph {
    let mut b = GraphBuilder::directed();
    for v in 0..n - 1 {
        b.push_edge(Edge::unweighted(v, v + 1));
    }
    b.build()
}

/// `0 → 1 → … → n-1 → 0` ring graph (every fragment has a downstream).
pub fn ring_graph(n: u64) -> grape_graph::graph::Graph {
    let mut b = GraphBuilder::directed();
    for v in 0..n {
        b.push_edge(Edge::unweighted(v, (v + 1) % n));
    }
    b.build()
}

/// A two-worker session in the given mode.
pub fn session(mode: EngineMode) -> GrapeSession {
    GrapeSession::builder()
        .workers(2)
        .mode(mode)
        .build()
        .unwrap()
}
