//! The SubIso PIE program (Section 5.1).
//!
//! Message preamble: the candidate set `C_i` is the `d_Q`-neighborhood of the
//! border restricted to the pattern's labels, where `d_Q` is the pattern
//! diameter: every vertex reached from a pattern-labelled border vertex by at
//! most `d_Q` hops through pattern-labelled vertices, with the edges among
//! them.  Every vertex of a match carries a pattern label and a match of a
//! connected pattern is connected through its own vertices, so a vertex or
//! edge outside `C_i` can never be part of a match anchored at an inner
//! vertex.  (Disconnected patterns are refused with
//! [`grape_core::engine::EngineError::InvalidConfig`]: no neighbourhood makes
//! their matches local.)  The status variables are the (immutable) ids of the
//! shipped nodes and edges, so no partial order is needed and no further
//! messages flow after the neighborhood exchange.
//!
//! * The engine performs the neighborhood exchange
//!   ([`PieProgram::expansion`], fragment expansion) and charges it to the
//!   communication account.
//! * PEval then runs VF2 on the expanded fragment, keeping only matches whose
//!   anchor (the vertex matched to query node 0) is an *inner* vertex — every
//!   match is therefore reported by exactly one fragment (locality of
//!   subgraph isomorphism).
//! * IncEval is never triggered (no messages), so the whole computation takes
//!   a constant number of supersteps.
//! * Assemble concatenates the per-fragment match lists.
//!
//! SubIso also implements [`IncrementalPie`]: a fragment's match list is a
//! pure function of its `d_Q`-hop expanded subgraph, so **any** delta
//! (insert or delete — neither direction is monotone for match sets) takes
//! the bounded refresh with a *pattern-radius* damage frontier,
//! [`DamagePolicy::Halo`]`(d_Q + 1)`: a changed edge can only enter a
//! fragment's expansion if the fragment is within `d_Q + 1` quotient-graph
//! hops of the edge's owner.  Damaged fragments re-expand and re-match;
//! everyone else keeps its retained matches verbatim.  No messages flow, so
//! no reseeding is needed.

use grape_core::output_delta::DeltaOutput;
use grape_core::pie::{
    DamagePolicy, IncrementalPie, Messages, PieProgram, ProcessCodec, SerdeProcessCodec,
};
use grape_graph::delta::GraphDelta;
use grape_graph::pattern::Pattern;
use grape_graph::types::VertexId;
use grape_partition::delta::FragmentDelta;
use grape_partition::fragment::{Expansion, Fragment, Fragmentation};
use grape_partition::fragmentation_graph::BorderScope;
use serde::{Deserialize, Serialize};

use crate::subiso::vf2::{subgraph_isomorphism_filtered, Match};

/// A subgraph-isomorphism query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubIsoQuery {
    /// The pattern to match.
    pub pattern: Pattern,
    /// Cap on the number of matches reported per fragment (SubIso is
    /// NP-complete; the paper's workloads use small patterns, ours
    /// additionally bound the enumeration).
    pub max_matches_per_fragment: usize,
}

impl SubIsoQuery {
    /// Creates a query with the default per-fragment cap of 10 000 matches.
    pub fn new(pattern: Pattern) -> Self {
        SubIsoQuery {
            pattern,
            max_matches_per_fragment: 10_000,
        }
    }

    /// Overrides the per-fragment match cap.
    pub fn with_max_matches(mut self, cap: usize) -> Self {
        self.max_matches_per_fragment = cap;
        self
    }
}

/// The assembled answer: all matches, each a mapping query node → vertex.
#[derive(Debug, Clone, Default)]
pub struct SubIsoResult {
    matches: Vec<Match>,
}

impl SubIsoResult {
    /// All matches.
    pub fn matches(&self) -> &[Match] {
        &self.matches
    }

    /// Number of matches found.
    pub fn num_matches(&self) -> usize {
        self.matches.len()
    }
}

/// Per-fragment partial result: the locally found matches, in global vertex
/// ids — SubIso evaluates over expanded fragments, which are not retained,
/// so its partial cannot lean on the fragmentation for ids.  Serializable so
/// a served SubIso query can spill to disk and rehydrate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubIsoPartial {
    matches: Vec<Match>,
}

/// The SubIso PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubIso;

impl PieProgram for SubIso {
    type Query = SubIsoQuery;
    type Partial = SubIsoPartial;
    type Key = VertexId;
    type Value = bool;
    type Output = SubIsoResult;

    fn name(&self) -> &str {
        "subiso"
    }

    fn process_codec(&self) -> Option<&dyn ProcessCodec<Self>> {
        Some(&SerdeProcessCodec)
    }

    fn scope(&self) -> BorderScope {
        BorderScope::Out
    }

    /// The `d_Q`-hop neighbourhood of the border through pattern-labelled
    /// vertices; none for a single-node pattern, whose matches are single
    /// inner vertices.  A disconnected pattern is refused: its components
    /// can match arbitrarily far apart, so no neighbourhood makes a match
    /// local.
    fn expansion(&self, query: &SubIsoQuery) -> Result<Option<Expansion>, String> {
        let pattern = &query.pattern;
        if !pattern.is_connected() {
            return Err(format!(
                "subiso pattern with labels {:?} and edges {:?} is not connected; \
                 its matches are not local to any fragment's neighbourhood",
                pattern.labels(),
                pattern.edges()
            ));
        }
        let hops = pattern.diameter();
        let mut labels = pattern.labels().to_vec();
        labels.sort_unstable();
        labels.dedup();
        Ok((hops > 0).then_some(Expansion {
            hops,
            labels: Some(labels),
        }))
    }

    fn peval(
        &self,
        query: &SubIsoQuery,
        frag: &Fragment,
        _ctx: &mut Messages<VertexId, bool>,
    ) -> SubIsoPartial {
        // The fragment's local graph uses local ids; VF2 runs on it directly
        // and the matches are translated back to global ids.  Anchors are
        // restricted to inner vertices so every match is counted exactly once
        // across fragments.
        let local_matches = subgraph_isomorphism_filtered(
            frag.local_graph(),
            &query.pattern,
            query.max_matches_per_fragment,
            &|v| frag.is_inner(v as u32),
        );
        let matches = local_matches
            .into_iter()
            .map(|m| m.into_iter().map(|l| frag.global_of(l as u32)).collect())
            .collect();
        SubIsoPartial { matches }
    }

    fn inc_eval(
        &self,
        _query: &SubIsoQuery,
        _frag: &Fragment,
        _partial: &mut SubIsoPartial,
        _messages: &[(VertexId, bool)],
        _ctx: &mut Messages<VertexId, bool>,
    ) {
        // The update parameters (shipped node/edge ids) never change, so no
        // incremental work is ever required (Section 5.1: "IncEval sends no
        // messages since the values of variables in C_i.x̄ remain unchanged").
    }

    fn assemble(
        &self,
        _query: &SubIsoQuery,
        _frag: &Fragmentation,
        partials: Vec<SubIsoPartial>,
    ) -> SubIsoResult {
        let mut matches: Vec<Match> = partials.into_iter().flat_map(|p| p.matches).collect();
        matches.sort_unstable();
        matches.dedup();
        SubIsoResult { matches }
    }

    fn aggregate(&self, _key: &VertexId, a: bool, _b: bool) -> bool {
        a
    }
}

impl IncrementalPie for SubIso {
    /// Match sets have no monotone direction: inserts create matches,
    /// deletes destroy them.  Every non-empty delta takes the bounded
    /// (pattern-radius) refresh.
    fn delta_is_monotone(&self, delta: &GraphDelta) -> bool {
        delta.is_empty()
    }

    /// Only reachable for deltas that changed no fragment structurally
    /// (empty `ΔG`): the retained matches are already exact.
    fn rebase(
        &self,
        _query: &SubIsoQuery,
        _old_frag: &Fragment,
        _new_frag: &Fragment,
        partial: SubIsoPartial,
        _delta: &FragmentDelta,
    ) -> (SubIsoPartial, Vec<(VertexId, bool)>) {
        (partial, Vec::new())
    }

    /// Delta-scoped candidate invalidation: re-match only the fragments
    /// whose `d_Q`-hop expansion can see a changed edge — within
    /// `d_Q + 1` quotient hops of the structurally changed fragments.
    fn damage_policy(&self, query: &SubIsoQuery) -> DamagePolicy {
        DamagePolicy::Halo(query.pattern.diameter() + 1)
    }
}

impl DeltaOutput for SubIso {
    type OutKey = Match;
    type OutVal = bool;

    /// One row per match — the match itself is the key (the value carries no
    /// information), so added and retracted matches surface as `changed` and
    /// `removed` rows respectively.
    fn canonical(&self, _query: &SubIsoQuery, output: &SubIsoResult) -> Vec<(Match, bool)> {
        // `assemble` already sorts and dedups the concatenated match lists.
        output.matches().iter().map(|m| (m.clone(), true)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::session::GrapeSession;
    use grape_graph::generators::labeled_kg;
    use grape_graph::graph::Graph;
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::metis_like::MetisLike;
    use grape_partition::strategy::PartitionStrategy;

    use crate::subiso::vf2::subgraph_isomorphism;

    fn run_subiso(g: &Graph, pattern: &Pattern, fragments: usize) -> (SubIsoResult, usize) {
        let frag = HashEdgeCut::new(fragments).partition(g).unwrap();
        let result = GrapeSession::with_workers(4)
            .run(&frag, &SubIso, &SubIsoQuery::new(pattern.clone()))
            .unwrap();
        (result.output, result.metrics.supersteps)
    }

    fn sorted(mut m: Vec<Match>) -> Vec<Match> {
        m.sort_unstable();
        m
    }

    #[test]
    fn matches_sequential_on_labeled_graphs() {
        for seed in 0..3u64 {
            let g = labeled_kg(150, 450, 4, 2, seed);
            let alphabet: Vec<u32> = (1..=4).collect();
            let pattern = Pattern::random(3, 3, &alphabet, seed + 40);
            let expected = sorted(subgraph_isomorphism(&g, &pattern, usize::MAX));
            let (result, _) = run_subiso(&g, &pattern, 4);
            assert_eq!(sorted(result.matches().to_vec()), expected, "seed {seed}");
        }
    }

    #[test]
    fn terminates_in_constant_supersteps() {
        let g = labeled_kg(200, 600, 4, 2, 9);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 3);
        let (_, supersteps) = run_subiso(&g, &pattern, 6);
        assert!(
            supersteps <= 2,
            "SubIso should not iterate, took {supersteps}"
        );
    }

    #[test]
    fn expansion_is_charged_to_communication() {
        let g = labeled_kg(300, 900, 4, 2, 5);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 4, &alphabet, 8);
        let frag = MetisLike::new(4).partition(&g).unwrap();
        let result = GrapeSession::with_workers(2)
            .run(&frag, &SubIso, &SubIsoQuery::new(pattern))
            .unwrap();
        assert!(result.metrics.expansion_bytes > 0);
        assert_eq!(result.metrics.total_messages, 0);
    }

    #[test]
    fn no_duplicate_matches_across_fragments() {
        let g = labeled_kg(120, 500, 3, 2, 2);
        let alphabet: Vec<u32> = (1..=3).collect();
        let pattern = Pattern::random(2, 2, &alphabet, 17);
        let (result, _) = run_subiso(&g, &pattern, 5);
        let mut seen = std::collections::HashSet::new();
        for m in result.matches() {
            assert!(seen.insert(m.clone()), "duplicate match {m:?}");
        }
    }

    #[test]
    fn prepared_update_rematches_only_the_pattern_radius() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::builder::GraphBuilder;
        use grape_graph::delta::GraphDelta;
        use grape_partition::edge_cut::RangeEdgeCut;

        // A labeled path over six range fragments of 5; the 2-node pattern
        // has diameter 1, so the damage halo is 2 quotient hops.
        let mut b = GraphBuilder::directed();
        for v in 0..29u64 {
            b.push_edge(grape_graph::types::Edge::unweighted(v, v + 1));
        }
        for v in 0..30u64 {
            b.push_vertex_label(v, 1 + (v % 2) as u32);
        }
        let g = b.build();
        let pattern = Pattern::new(vec![1, 2], vec![(0, 1)]);
        assert_eq!(pattern.diameter(), 1);
        let frag = RangeEdgeCut::new(6).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let query = SubIsoQuery::new(pattern.clone());
        let mut prepared = session.prepare(frag, SubIso, query.clone()).unwrap();
        let before = prepared.output().num_matches();
        assert!(before > 0);

        // Delete the fragment-local edge 2 → 3: matches further than the
        // pattern radius away cannot change, so fragments 3..6 keep their
        // retained match lists without re-expansion or re-matching.
        let report = prepared
            .update(&GraphDelta::new().remove_edge(2, 3))
            .unwrap();
        assert_eq!(report.kind, RefreshKind::Bounded);
        assert_eq!(report.repeval, vec![0, 1, 2], "pattern-radius halo");
        assert_eq!(report.metrics.peval_calls, 3, "3 of 6 fragments re-matched");
        assert!(
            report.metrics.expansion_bytes > 0,
            "damaged re-expansion is charged"
        );

        let recompute = session
            .run(prepared.fragmentation(), &SubIso, &query)
            .unwrap();
        assert_eq!(
            sorted(prepared.output().matches().to_vec()),
            sorted(recompute.output.matches().to_vec())
        );
        assert_eq!(prepared.output().num_matches(), before - 1);
    }

    #[test]
    fn prepared_update_handles_insertions_too() {
        use grape_core::prepared::RefreshKind;
        use grape_graph::delta::GraphDelta;

        let g = labeled_kg(150, 450, 4, 2, 12);
        let alphabet: Vec<u32> = (1..=4).collect();
        let pattern = Pattern::random(3, 3, &alphabet, 77);
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let query = SubIsoQuery::new(pattern.clone());
        let mut prepared = session.prepare(frag, SubIso, query.clone()).unwrap();

        let e = g.edges()[17];
        let delta = GraphDelta::new()
            .add_edge_record(grape_graph::types::Edge::new(e.src, e.dst, 1.0, e.label));
        let report = prepared.update(&delta).unwrap();
        assert!(matches!(
            report.kind,
            RefreshKind::Bounded | RefreshKind::Full
        ));
        let recompute = session
            .run(prepared.fragmentation(), &SubIso, &query)
            .unwrap();
        assert_eq!(
            sorted(prepared.output().matches().to_vec()),
            sorted(recompute.output.matches().to_vec())
        );
    }

    /// The probe behind [`Pattern::is_connected`]: two unconnected pattern
    /// nodes match any label-1/label-2 pair, however far apart, so the
    /// engine returned 15 of the oracle's 25 matches.  It must refuse.
    #[test]
    fn disconnected_pattern_is_refused_not_answered_partially() {
        use grape_core::engine::EngineError;
        use grape_graph::builder::GraphBuilder;
        use grape_partition::edge_cut::RangeEdgeCut;

        let mut b = GraphBuilder::directed();
        for v in 0..9u64 {
            b.push_edge(grape_graph::types::Edge::unweighted(v, v + 1));
        }
        for v in 0..10u64 {
            b.push_vertex_label(v, 1 + (v % 2) as u32);
        }
        let g = b.build();
        let pattern = Pattern::new(vec![1, 2], vec![]);
        assert_eq!(subgraph_isomorphism(&g, &pattern, usize::MAX).len(), 25);
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let session = GrapeSession::with_workers(2);
        let query = SubIsoQuery::new(pattern);
        let run = session.run(&frag, &SubIso, &query).err();
        let prepare = session.prepare(frag, SubIso, query).err();
        for (entry, err) in [("run", run), ("prepare", prepare)] {
            match err {
                Some(EngineError::InvalidConfig(reason)) => assert!(
                    reason.contains("labels [1, 2] and edges [] is not connected"),
                    "{entry}: {reason}"
                ),
                other => panic!("{entry} must refuse the pattern, got {other:?}"),
            }
        }
    }

    /// SubIso as it ran before its exchange was restricted to pattern
    /// labels: the label-oblivious `d_Q`-hop exchange, everything else
    /// SubIso's own.
    struct FullExchange;

    impl PieProgram for FullExchange {
        type Query = SubIsoQuery;
        type Partial = SubIsoPartial;
        type Key = VertexId;
        type Value = bool;
        type Output = SubIsoResult;

        fn expansion(&self, query: &SubIsoQuery) -> Result<Option<Expansion>, String> {
            let hops = query.pattern.diameter();
            Ok((hops > 0).then_some(Expansion { hops, labels: None }))
        }

        fn peval(
            &self,
            query: &SubIsoQuery,
            frag: &Fragment,
            ctx: &mut Messages<VertexId, bool>,
        ) -> SubIsoPartial {
            SubIso.peval(query, frag, ctx)
        }

        fn inc_eval(
            &self,
            query: &SubIsoQuery,
            frag: &Fragment,
            partial: &mut SubIsoPartial,
            messages: &[(VertexId, bool)],
            ctx: &mut Messages<VertexId, bool>,
        ) {
            SubIso.inc_eval(query, frag, partial, messages, ctx);
        }

        fn assemble(
            &self,
            query: &SubIsoQuery,
            frag: &Fragmentation,
            partials: Vec<SubIsoPartial>,
        ) -> SubIsoResult {
            SubIso.assemble(query, frag, partials)
        }

        fn aggregate(&self, key: &VertexId, a: bool, b: bool) -> bool {
            SubIso.aggregate(key, a, b)
        }
    }

    /// The label-restricted exchange drops only what no match can use: on
    /// every seeded graph and version of the expansion pins, in both modes,
    /// each fragment's capped partial is the same match *sequence* as over
    /// the full exchange (so VF2 meets the surviving candidates in the same
    /// order), and the uncapped answer equals the VF2 oracle.
    #[test]
    fn restricted_exchange_keeps_every_capped_partial() {
        use grape_core::config::EngineMode;
        use grape_partition::test_support::{seeded_graphs, versions};

        const CAP: usize = 2;
        for (seed, g) in seeded_graphs().iter().enumerate() {
            // Labels 1 and 2 occur in every seeded graph, and every graph
            // has more labels, so the restriction has vertices to drop.
            let patterns = [
                Pattern::new(vec![1, 2, 1], vec![(0, 1), (2, 1)]),
                Pattern::random(3, 3, &[1, 2], 40 + seed as u64),
            ];
            for (name, frag) in versions(g, seed as u64) {
                for pattern in &patterns {
                    let oracle = sorted(subgraph_isomorphism(frag.source(), pattern, usize::MAX));
                    for mode in [EngineMode::Sync, EngineMode::Async] {
                        let at = format!("graph {seed} {name} {pattern:?} {mode:?}");
                        let session = GrapeSession::builder()
                            .workers(2)
                            .mode(mode)
                            .build()
                            .unwrap();
                        let query = SubIsoQuery::new(pattern.clone());
                        let run = session.run(&frag, &SubIso, &query).unwrap();
                        assert_eq!(run.output.matches(), oracle.as_slice(), "{at}: oracle");

                        let capped = query.with_max_matches(CAP);
                        let restricted = session.prepare(frag.clone(), SubIso, capped.clone());
                        let full = session.prepare(frag.clone(), FullExchange, capped);
                        let (restricted, full) = (restricted.unwrap(), full.unwrap());
                        let sequences = |partials: &[SubIsoPartial]| -> Vec<Vec<Match>> {
                            partials.iter().map(|p| p.matches.clone()).collect()
                        };
                        let ours = sequences(restricted.partials());
                        assert_eq!(ours, sequences(full.partials()), "{at}: partials");
                        assert!(
                            oracle.len() <= CAP || ours.iter().any(|m| m.len() == CAP),
                            "{at}: the cap never binds"
                        );
                        assert!(
                            restricted.prepare_metrics().expansion_bytes
                                <= full.prepare_metrics().expansion_bytes,
                            "{at}: the restriction ships more"
                        );
                    }
                }
            }
        }
    }

    /// A parallel edge never repeats a match.  The seeded undirected graph
    /// has parallel edges; on it VF2 enumerates exactly a brute-force
    /// oracle's matches, each once, and the prepared partials hold each of
    /// them once.
    #[test]
    fn parallel_edges_never_repeat_a_match() {
        use grape_partition::test_support::seeded_graphs;

        let g = &seeded_graphs()[1];
        let n = g.num_vertices() as VertexId;
        let has_edge = |a: VertexId, b: VertexId| g.out_neighbors(a).iter().any(|e| e.target == b);
        let patterns = [
            Pattern::new(vec![1, 2, 1], vec![(0, 1), (2, 1)]),
            Pattern::random(3, 3, &[1, 2], 41),
        ];
        let mut oracles = Vec::new();
        for pattern in &patterns {
            // Every injective triple, in lexicographic order.
            let mut oracle: Vec<Match> = Vec::new();
            for m in
                (0..n).flat_map(|a| (0..n).flat_map(move |b| (0..n).map(move |c| vec![a, b, c])))
            {
                let injective = m[0] != m[1] && m[1] != m[2] && m[0] != m[2];
                if injective
                    && (0..3).all(|u| g.vertex_label(m[u]) == pattern.label(u as u32))
                    && pattern
                        .edges()
                        .iter()
                        .all(|&(u, w)| has_edge(m[u as usize], m[w as usize]))
                {
                    oracle.push(m);
                }
            }
            let vf2 = sorted(subgraph_isomorphism(g, pattern, usize::MAX));
            assert_eq!(vf2, oracle, "{pattern:?}: VF2");

            let frag = HashEdgeCut::new(4).partition(g).unwrap();
            let query = SubIsoQuery::new(pattern.clone());
            let prepared = GrapeSession::with_workers(2)
                .prepare(frag, SubIso, query)
                .unwrap();
            let held: Vec<Match> = prepared
                .partials()
                .iter()
                .flat_map(|p| p.matches.clone())
                .collect();
            assert_eq!(sorted(held), oracle, "{pattern:?}: partials");
            oracles.push(oracle);
        }
        assert!(
            oracles.iter().any(|o| o.contains(&vec![4, 48, 28])),
            "the match VF2 once repeated per parallel edge is found"
        );
    }

    #[test]
    fn fragment_count_does_not_change_match_set() {
        let g = labeled_kg(100, 350, 3, 2, 4);
        let alphabet: Vec<u32> = (1..=3).collect();
        let pattern = Pattern::random(3, 3, &alphabet, 21);
        let (one, _) = run_subiso(&g, &pattern, 1);
        let (eight, _) = run_subiso(&g, &pattern, 8);
        assert_eq!(
            sorted(one.matches().to_vec()),
            sorted(eight.matches().to_vec())
        );
    }
}
