//! Fragments `F_i` and the fragmentation `F = (F_1, …, F_m)`.
//!
//! A [`Fragment`] is the unit of work of a GRAPE (virtual) worker: a local
//! subgraph over *local* dense vertex ids together with the mapping to global
//! ids, the inner/outer split, and the border sets `F_i.I` / `F_i.O`.
//! A [`Fragmentation`] bundles all fragments with the fragmentation graph
//! `G_P` and keeps a handle to the source graph so that PIE programs that
//! need `d`-hop neighborhood expansion (SubIso, Section 5.1) can be served.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use grape_graph::csr::Neighbor;
use grape_graph::graph::{Directedness, Graph};
use grape_graph::types::{Edge, Label, VertexId};

use crate::delta::QuotientTables;
use crate::fragmentation_graph::FragmentationGraph;

/// Local (fragment-internal) vertex index.
pub type LocalId = u32;

/// A fragment `F_i`: a local subgraph plus border bookkeeping.
#[derive(Debug, Clone)]
pub struct Fragment {
    id: usize,
    /// Local adjacency: dense local ids `0..num_local`, directed edges.
    local: Graph,
    /// Local id → global id.
    globals: Vec<VertexId>,
    /// Global id → local id.
    to_local: HashMap<VertexId, LocalId>,
    /// Local ids `0..num_inner` are inner vertices; the rest are outer copies.
    num_inner: usize,
    /// `F_i.I`: inner vertices (local ids) with an incoming cross edge.
    in_border: Vec<LocalId>,
    /// `F_i.O`: outer copies (local ids).
    out_border: Vec<LocalId>,
}

impl Fragment {
    /// Fragment identifier `i`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of local vertices (inner + outer copies).
    pub fn num_local(&self) -> usize {
        self.globals.len()
    }

    /// Number of inner vertices `|V_i|`.
    pub fn num_inner(&self) -> usize {
        self.num_inner
    }

    /// Number of local (directed) edges.
    pub fn num_local_edges(&self) -> usize {
        self.local.num_edges()
    }

    /// The local graph over local ids.  Outer copies have no outgoing edges.
    pub fn local_graph(&self) -> &Graph {
        &self.local
    }

    /// Local ids of all inner vertices.
    pub fn inner_locals(&self) -> impl Iterator<Item = LocalId> {
        0..self.num_inner as LocalId
    }

    /// Local ids of all vertices (inner then outer copies).
    pub fn all_locals(&self) -> impl Iterator<Item = LocalId> {
        0..self.globals.len() as LocalId
    }

    /// Local ids of the outer copies (`F_i.O`).
    pub fn out_border_locals(&self) -> &[LocalId] {
        &self.out_border
    }

    /// Local ids of the inner border (`F_i.I`).
    pub fn in_border_locals(&self) -> &[LocalId] {
        &self.in_border
    }

    /// Global ids of `F_i.O`.
    pub fn out_border_globals(&self) -> Vec<VertexId> {
        self.out_border
            .iter()
            .map(|&l| self.globals[l as usize])
            .collect()
    }

    /// Global ids of `F_i.I`.
    pub fn in_border_globals(&self) -> Vec<VertexId> {
        self.in_border
            .iter()
            .map(|&l| self.globals[l as usize])
            .collect()
    }

    /// Whether the local id denotes an inner vertex.
    #[inline]
    pub fn is_inner(&self, local: LocalId) -> bool {
        (local as usize) < self.num_inner
    }

    /// Whether the local id is in `F_i.O ∪ F_i.I` — the vertices whose
    /// update parameters leave the fragment.  `O(log |border|)`: both
    /// border lists are ascending ([`Fragment::check_invariants`]).
    #[inline]
    pub fn is_border(&self, local: LocalId) -> bool {
        let set = if self.is_inner(local) {
            &self.in_border
        } else {
            &self.out_border
        };
        set.binary_search(&local).is_ok()
    }

    /// Global id of a local vertex.
    #[inline]
    pub fn global_of(&self, local: LocalId) -> VertexId {
        self.globals[local as usize]
    }

    /// Local id of a global vertex, if present in this fragment.
    #[inline]
    pub fn local_of(&self, global: VertexId) -> Option<LocalId> {
        self.to_local.get(&global).copied()
    }

    /// Label of a local vertex.
    #[inline]
    pub fn label(&self, local: LocalId) -> Label {
        self.local.vertex_label(local as VertexId)
    }

    /// Outgoing local edges of a local vertex (targets are local ids).
    #[inline]
    pub fn out_edges(&self, local: LocalId) -> &[Neighbor] {
        self.local.out_neighbors(local as VertexId)
    }

    /// Incoming local edges of a local vertex (sources are local ids).
    #[inline]
    pub fn in_edges(&self, local: LocalId) -> &[Neighbor] {
        self.local.in_neighbors(local as VertexId)
    }

    /// Consistency checks used by tests: mapping is a bijection, inner/outer
    /// split matches the border sets, all border ids are in range and each
    /// border list is strictly ascending.
    pub fn check_invariants(&self) -> bool {
        let bijective = self.globals.len() == self.to_local.len()
            && self
                .globals
                .iter()
                .enumerate()
                .all(|(l, g)| self.to_local.get(g) == Some(&(l as LocalId)));
        let borders_in_range = self.out_border.iter().all(|&l| !self.is_inner(l))
            && self.in_border.iter().all(|&l| self.is_inner(l));
        let ascending = |set: &[LocalId]| set.windows(2).all(|w| w[0] < w[1]);
        bijective
            && borders_in_range
            && ascending(&self.out_border)
            && ascending(&self.in_border)
            && self.local.check_invariants()
    }

    /// Reassembles a fragment from its persisted parts (the inverse of the
    /// field accessors the snapshot codec reads).  The global → local map is
    /// derived from `globals`; the caller is expected to validate the result
    /// with [`Fragment::check_invariants`].
    pub(crate) fn from_raw_parts(
        id: usize,
        local: Graph,
        globals: Vec<VertexId>,
        num_inner: usize,
        in_border: Vec<LocalId>,
        out_border: Vec<LocalId>,
    ) -> Fragment {
        let to_local: HashMap<VertexId, LocalId> = globals
            .iter()
            .enumerate()
            .map(|(l, &v)| (v, l as LocalId))
            .collect();
        Fragment {
            id,
            local,
            globals,
            to_local,
            num_inner,
            in_border,
            out_border,
        }
    }

    /// Whether two fragments are structurally identical: same vertex mapping,
    /// inner/outer split, border sets and local adjacency.  Both sides must
    /// come from the deterministic edge-cut construction (which they do —
    /// this is how delta application decides that a candidate fragment was
    /// not actually affected by `ΔG`).
    pub(crate) fn same_structure(&self, other: &Fragment) -> bool {
        self.id == other.id
            && self.num_inner == other.num_inner
            && self.globals == other.globals
            && self.in_border == other.in_border
            && self.out_border == other.out_border
            && self.local.edges() == other.local.edges()
    }
}

/// A complete fragmentation: all fragments, the fragmentation graph `G_P`,
/// and a shared handle on the source graph.
///
/// Fragments are **refcounted** (`Arc<Fragment>`): cloning a fragmentation —
/// which is how every `PreparedQuery` handle gets its own copy — shares the
/// fragment storage instead of duplicating it, so a server can keep
/// thousands of prepared queries over one evolving graph cheaply.  Delta
/// application replaces only the rebuilt fragments' `Arc`s; untouched
/// fragments stay shared across all handles.
#[derive(Debug, Clone)]
pub struct Fragmentation {
    fragments: Vec<Arc<Fragment>>,
    gp: FragmentationGraph,
    source: Arc<Graph>,
    strategy_name: String,
    /// Lazily derived quotient routing tables (see
    /// [`crate::delta::QuotientTables`]): one derivation per fragmentation
    /// *version*, shared across clones — cloning keeps the `Arc` so every
    /// prepared-query handle over this version reads the same cell.
    quotient: Arc<OnceLock<Arc<QuotientTables>>>,
}

impl Fragmentation {
    /// Number of fragments `m`.
    pub fn num_fragments(&self) -> usize {
        self.fragments.len()
    }

    /// The fragments (shared handles).
    pub fn fragments(&self) -> &[Arc<Fragment>] {
        &self.fragments
    }

    /// Fragment `i`.
    pub fn fragment(&self, i: usize) -> &Fragment {
        &self.fragments[i]
    }

    /// Whether two fragmentations share the storage of fragment `i` (used by
    /// tests to pin the refcounting behaviour).
    pub fn shares_fragment_storage(&self, other: &Fragmentation, i: usize) -> bool {
        Arc::ptr_eq(&self.fragments[i], &other.fragments[i])
    }

    /// The fragmentation graph `G_P`.
    pub fn gp(&self) -> &FragmentationGraph {
        &self.gp
    }

    /// The partitioned source graph.
    pub fn source(&self) -> &Arc<Graph> {
        &self.source
    }

    /// Name of the strategy that produced this fragmentation.
    pub fn strategy_name(&self) -> &str {
        &self.strategy_name
    }

    /// The quotient-table cache cell of this version (see
    /// [`Fragmentation::quotient_tables`] in `crate::delta`).
    pub(crate) fn quotient_cell(&self) -> &OnceLock<Arc<QuotientTables>> {
        &self.quotient
    }

    /// Total number of border vertices `|F.O| = |F.I|`-ish (distinct).
    pub fn num_border_vertices(&self) -> usize {
        self.gp.border_vertices().count()
    }

    /// Builds an *expanded* copy of fragment `i` that additionally contains
    /// every vertex and edge within `hops` hops (following either direction)
    /// of the fragment's inner border `F_i.I`, as required by the SubIso PIE
    /// program (candidate set `C_i` with `d = d_Q`, Section 5.1).
    ///
    /// Returns the expanded fragment together with the number of vertices and
    /// edges that had to be *shipped* from other fragments (used by the
    /// engine to account for communication).
    pub fn expand_fragment(&self, i: usize, hops: usize) -> (Fragment, usize, usize) {
        let base = &self.fragments[i];
        let g = self.source.as_ref();
        // Start from all vertices already present locally.
        let mut keep: HashMap<VertexId, bool> = HashMap::new(); // vertex -> is_inner
        for l in base.all_locals() {
            keep.insert(base.global_of(l), base.is_inner(l));
        }
        // BFS outward from the inner border, up to `hops` hops, both directions.
        let mut frontier: Vec<VertexId> = base.in_border_globals();
        // Also expand around outer copies so the matched neighborhoods are complete.
        frontier.extend(base.out_border_globals());
        for _ in 0..hops {
            let mut next = Vec::new();
            for &v in &frontier {
                for n in g.out_neighbors(v).iter().chain(g.in_neighbors(v).iter()) {
                    if let std::collections::hash_map::Entry::Vacant(e) = keep.entry(n.target) {
                        e.insert(false);
                        next.push(n.target);
                    }
                }
            }
            frontier = next;
        }
        // Assemble the vertex list: inner vertices first (same order as base).
        let mut globals: Vec<VertexId> = base.inner_locals().map(|l| base.global_of(l)).collect();
        let mut extra: Vec<VertexId> = keep
            .iter()
            .filter(|(v, is_inner)| !**is_inner && !globals.contains(*v))
            .map(|(v, _)| *v)
            .collect();
        extra.sort_unstable();
        let shipped_vertices = keep.len() - base.num_local();
        globals.extend(extra);

        let to_local: HashMap<VertexId, LocalId> = globals
            .iter()
            .enumerate()
            .map(|(l, &v)| (v, l as LocalId))
            .collect();

        // Local edges: every source-graph edge with both endpoints kept.
        let mut edges = Vec::new();
        let mut shipped_edges = 0usize;
        for (&v, _) in keep.iter() {
            let src_local = to_local[&v];
            let src_is_inner = base.local_of(v).map(|l| base.is_inner(l)).unwrap_or(false);
            for n in g.out_neighbors(v) {
                if let Some(&dst_local) = to_local.get(&n.target) {
                    edges.push(Edge::new(
                        src_local as VertexId,
                        dst_local as VertexId,
                        n.weight,
                        n.label,
                    ));
                    if !src_is_inner {
                        shipped_edges += 1;
                    }
                }
            }
        }
        let labels: Vec<Label> = globals.iter().map(|&v| g.vertex_label(v)).collect();
        let local = Graph::from_parts(Directedness::Directed, globals.len(), edges, labels);

        let num_inner = base.num_inner();
        let expanded = Fragment {
            id: i,
            local,
            globals,
            to_local,
            num_inner,
            in_border: base.in_border.clone(),
            out_border: base.out_border.clone(),
        };
        (expanded, shipped_vertices, shipped_edges)
    }
}

/// Builds fragment `i` of an edge-cut fragmentation: the given inner
/// vertices (in global order) plus outer copies discovered from their
/// out-edges, the local adjacency, and both border sets.  Shared by the
/// full [`build_edge_cut`] construction and by the incremental rebuild in
/// [`crate::delta`], so delta application and fresh partitioning produce
/// byte-identical fragments.
pub(crate) fn build_edge_cut_fragment(
    g: &Graph,
    assignment: &[u32],
    i: usize,
    inner_vs: &[VertexId],
) -> Fragment {
    let mut globals: Vec<VertexId> = inner_vs.to_vec();
    let mut to_local: HashMap<VertexId, LocalId> = globals
        .iter()
        .enumerate()
        .map(|(l, &v)| (v, l as LocalId))
        .collect();
    let num_inner = globals.len();

    // Discover outer copies: targets of edges leaving inner vertices that
    // are owned elsewhere.
    for &v in inner_vs {
        for n in g.out_neighbors(v) {
            if assignment[n.target as usize] as usize != i && !to_local.contains_key(&n.target) {
                to_local.insert(n.target, globals.len() as LocalId);
                globals.push(n.target);
            }
        }
    }

    // Local edges: all out-edges of inner vertices.
    let mut edges = Vec::new();
    for &v in inner_vs {
        let src_local = to_local[&v];
        for n in g.out_neighbors(v) {
            let dst_local = to_local[&n.target];
            edges.push(Edge::new(
                src_local as VertexId,
                dst_local as VertexId,
                n.weight,
                n.label,
            ));
        }
    }
    let labels: Vec<Label> = globals.iter().map(|&v| g.vertex_label(v)).collect();
    let local = Graph::from_parts(Directedness::Directed, globals.len(), edges, labels);

    // F_i.I: inner vertices with an incoming edge from another fragment.
    let mut in_border: Vec<LocalId> = Vec::new();
    for (l, &v) in globals.iter().enumerate().take(num_inner) {
        let has_cross_in = g
            .in_neighbors(v)
            .iter()
            .any(|n| assignment[n.target as usize] as usize != i);
        if has_cross_in {
            in_border.push(l as LocalId);
        }
    }
    let out_border: Vec<LocalId> = (num_inner as LocalId..globals.len() as LocalId).collect();

    Fragment {
        id: i,
        local,
        globals,
        to_local,
        num_inner,
        in_border,
        out_border,
    }
}

/// Assembles a [`Fragmentation`] from already-built fragments, recomputing
/// the fragmentation graph `G_P` from their border sets.  Used by
/// [`build_edge_cut`] and by delta application.
pub(crate) fn assemble_edge_cut(
    fragments: Vec<Arc<Fragment>>,
    assignment: Vec<u32>,
    source: Arc<Graph>,
    strategy_name: String,
) -> Fragmentation {
    let outer_sets: Vec<Vec<VertexId>> = fragments.iter().map(|f| f.out_border_globals()).collect();
    let in_border_sets: Vec<Vec<VertexId>> =
        fragments.iter().map(|f| f.in_border_globals()).collect();
    let gp = FragmentationGraph::new(assignment, &outer_sets, &in_border_sets);
    Fragmentation {
        fragments,
        gp,
        source,
        strategy_name,
        quotient: Arc::new(OnceLock::new()),
    }
}

/// Builds an edge-cut fragmentation from a vertex → fragment assignment.
///
/// Fragment `i` receives every vertex assigned to it plus, for every edge
/// leaving one of its vertices, the (outer copy of the) target vertex.
pub fn build_edge_cut(
    graph: &Arc<Graph>,
    assignment: &[u32],
    num_fragments: usize,
    strategy_name: &str,
) -> Fragmentation {
    assert_eq!(
        assignment.len(),
        graph.num_vertices(),
        "assignment covers every vertex"
    );
    assert!(num_fragments > 0, "need at least one fragment");
    let g = graph.as_ref();

    // Group inner vertices per fragment, preserving global order.
    let mut inner: Vec<Vec<VertexId>> = vec![Vec::new(); num_fragments];
    for v in g.vertices() {
        let f = assignment[v as usize] as usize;
        assert!(f < num_fragments, "assignment out of range");
        inner[f].push(v);
    }

    let fragments: Vec<Arc<Fragment>> = inner
        .iter()
        .enumerate()
        .map(|(i, inner_vs)| Arc::new(build_edge_cut_fragment(g, assignment, i, inner_vs)))
        .collect();
    assemble_edge_cut(
        fragments,
        assignment.to_vec(),
        Arc::clone(graph),
        strategy_name.to_string(),
    )
}

/// Builds a vertex-cut fragmentation from an edge → fragment assignment.
///
/// Every fragment receives the edges assigned to it plus copies of their
/// endpoints.  The *master* (owner) of a vertex is the fragment holding most
/// of its edges; replicated vertices form both border sets (`F.O = F.I`
/// corresponds to entry/exit vertices, Section 2).
pub fn build_vertex_cut(
    graph: &Arc<Graph>,
    edge_assignment: &[u32],
    num_fragments: usize,
    strategy_name: &str,
) -> Fragmentation {
    let g = graph.as_ref();
    assert_eq!(
        edge_assignment.len(),
        g.num_edges(),
        "assignment covers every edge"
    );
    assert!(num_fragments > 0, "need at least one fragment");

    // Which fragments touch each vertex, and how often.
    let mut touch: Vec<HashMap<u32, usize>> = vec![HashMap::new(); g.num_vertices()];
    for (e, &f) in g.edges().iter().zip(edge_assignment) {
        *touch[e.src as usize].entry(f).or_insert(0) += 1;
        *touch[e.dst as usize].entry(f).or_insert(0) += 1;
    }
    // Master assignment: the fragment with most incident edges (ties: lowest id);
    // isolated vertices go to fragment (v % m) to keep them somewhere.
    let mut owner = vec![0u32; g.num_vertices()];
    for v in g.vertices() {
        let t = &touch[v as usize];
        owner[v as usize] = if t.is_empty() {
            (v % num_fragments as u64) as u32
        } else {
            let max = t.values().max().copied().unwrap_or(0);
            t.iter()
                .filter(|(_, &c)| c == max)
                .map(|(&f, _)| f)
                .min()
                .unwrap_or(0)
        };
    }

    let mut fragments = Vec::with_capacity(num_fragments);
    let mut outer_sets = Vec::with_capacity(num_fragments);
    let mut in_border_sets = Vec::with_capacity(num_fragments);

    for i in 0..num_fragments {
        // Vertices present: masters first, replicas after.
        let mut masters: Vec<VertexId> = Vec::new();
        let mut replicas: Vec<VertexId> = Vec::new();
        for v in g.vertices() {
            let present = touch[v as usize].contains_key(&(i as u32))
                || (owner[v as usize] as usize == i && touch[v as usize].is_empty());
            if present {
                if owner[v as usize] as usize == i {
                    masters.push(v);
                } else {
                    replicas.push(v);
                }
            }
        }
        let num_inner = masters.len();
        let mut globals = masters;
        globals.extend(replicas.iter().copied());
        let to_local: HashMap<VertexId, LocalId> = globals
            .iter()
            .enumerate()
            .map(|(l, &v)| (v, l as LocalId))
            .collect();

        // Local edges: the edges assigned to this fragment.
        let mut edges = Vec::new();
        for (e, &f) in g.edges().iter().zip(edge_assignment) {
            if f as usize != i {
                continue;
            }
            let s = to_local[&e.src];
            let d = to_local[&e.dst];
            edges.push(Edge::new(s as VertexId, d as VertexId, e.weight, e.label));
            if !g.is_directed() && e.src != e.dst {
                edges.push(Edge::new(d as VertexId, s as VertexId, e.weight, e.label));
            }
        }
        let labels: Vec<Label> = globals.iter().map(|&v| g.vertex_label(v)).collect();
        let local = Graph::from_parts(Directedness::Directed, globals.len(), edges, labels);

        // Border sets: every vertex replicated on 2+ fragments, present here.
        let mut in_border = Vec::new();
        let mut out_border = Vec::new();
        let mut in_border_globals = Vec::new();
        let mut out_border_globals = Vec::new();
        for (l, &v) in globals.iter().enumerate() {
            let replicated = touch[v as usize].len() > 1
                || (touch[v as usize].len() == 1 && owner[v as usize] as usize != i);
            if !replicated {
                continue;
            }
            if l < num_inner {
                in_border.push(l as LocalId);
                in_border_globals.push(v);
            } else {
                out_border.push(l as LocalId);
                out_border_globals.push(v);
            }
        }

        outer_sets.push(out_border_globals);
        in_border_sets.push(in_border_globals);
        fragments.push(Arc::new(Fragment {
            id: i,
            local,
            globals,
            to_local,
            num_inner,
            in_border,
            out_border,
        }));
    }

    let gp =
        FragmentationGraph::new(owner, &outer_sets, &in_border_sets).with_shared_vertex_routing();
    Fragmentation {
        fragments,
        gp,
        source: Arc::clone(graph),
        strategy_name: strategy_name.to_string(),
        quotient: Arc::new(OnceLock::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::builder::GraphBuilder;

    fn chain_graph() -> Arc<Graph> {
        // 0 -> 1 -> 2 -> 3 -> 4 -> 5 (weights 1)
        let mut b = GraphBuilder::directed();
        for v in 0..5u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        Arc::new(b.build())
    }

    #[test]
    fn edge_cut_fragments_cover_all_vertices_and_edges() {
        let g = chain_graph();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        assert_eq!(frag.num_fragments(), 2);
        let total_inner: usize = frag.fragments().iter().map(|f| f.num_inner()).sum();
        assert_eq!(total_inner, 6);
        let total_edges: usize = frag.fragments().iter().map(|f| f.num_local_edges()).sum();
        assert_eq!(total_edges, 5);
        assert!(frag.fragments().iter().all(|f| f.check_invariants()));
    }

    #[test]
    fn edge_cut_border_sets_are_correct() {
        let g = chain_graph();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        let f0 = frag.fragment(0);
        let f1 = frag.fragment(1);
        // Cross edge 2 -> 3: F0.O = {3}, F1.I = {3}; F0.I = {}, F1.O = {}.
        assert_eq!(f0.out_border_globals(), vec![3]);
        assert!(f0.in_border_globals().is_empty());
        assert_eq!(f1.in_border_globals(), vec![3]);
        assert!(f1.out_border_globals().is_empty());
        // Outer copy 3 exists locally in F0 but is not inner.
        let l3 = f0.local_of(3).unwrap();
        assert!(!f0.is_inner(l3));
    }

    #[test]
    fn edge_cut_local_adjacency_matches_global() {
        let g = chain_graph();
        let assignment = vec![0, 1, 0, 1, 0, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        for f in frag.fragments() {
            for l in f.inner_locals() {
                let v = f.global_of(l);
                let local_targets: Vec<VertexId> = f
                    .out_edges(l)
                    .iter()
                    .map(|n| f.global_of(n.target as LocalId))
                    .collect();
                let global_targets: Vec<VertexId> =
                    g.out_neighbors(v).iter().map(|n| n.target).collect();
                assert_eq!(local_targets, global_targets, "vertex {v}");
            }
        }
    }

    #[test]
    fn single_fragment_has_no_borders() {
        let g = chain_graph();
        let assignment = vec![0; 6];
        let frag = build_edge_cut(&g, &assignment, 1, "test");
        let f = frag.fragment(0);
        assert!(f.out_border_globals().is_empty());
        assert!(f.in_border_globals().is_empty());
        assert_eq!(f.num_inner(), 6);
        assert_eq!(frag.num_border_vertices(), 0);
    }

    #[test]
    fn vertex_cut_replicates_shared_endpoints() {
        let g = chain_graph();
        // Edges 0..5 alternate between fragments.
        let edge_assignment = vec![0, 1, 0, 1, 0];
        let frag = build_vertex_cut(&g, &edge_assignment, 2, "vc");
        // Vertex 1 touches edges (0→1) in F0 and (1→2) in F1 → replicated.
        let holders: Vec<usize> = frag
            .fragments()
            .iter()
            .filter(|f| f.local_of(1).is_some())
            .map(|f| f.id())
            .collect();
        assert_eq!(holders.len(), 2);
        assert!(frag.gp().is_border(1));
        // Every edge appears in exactly one fragment.
        let total_edges: usize = frag.fragments().iter().map(|f| f.num_local_edges()).sum();
        assert_eq!(total_edges, 5);
        assert!(frag.fragments().iter().all(|f| f.check_invariants()));
    }

    #[test]
    fn expand_fragment_pulls_in_neighborhood() {
        let g = chain_graph();
        let assignment = vec![0, 0, 1, 1, 2, 2];
        let frag = build_edge_cut(&g, &assignment, 3, "test");
        // Fragment 1 owns {2, 3}; expanding by 2 hops should pull in 0,1,4,5.
        let (expanded, shipped_v, shipped_e) = frag.expand_fragment(1, 2);
        assert_eq!(expanded.num_inner(), 2);
        assert!(
            expanded.num_local() >= 5,
            "expanded to {} vertices",
            expanded.num_local()
        );
        assert!(shipped_v >= 2);
        assert!(shipped_e >= 1);
        assert!(expanded.check_invariants());
        // Inner vertices keep their identity.
        assert_eq!(expanded.global_of(0), 2);
        assert_eq!(expanded.global_of(1), 3);
    }

    #[test]
    fn expand_zero_hops_is_identity_sized() {
        let g = chain_graph();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        let (expanded, shipped_v, _) = frag.expand_fragment(0, 0);
        assert_eq!(expanded.num_local(), frag.fragment(0).num_local());
        assert_eq!(shipped_v, 0);
    }

    #[test]
    fn cloned_fragmentations_share_fragment_storage() {
        // The refcounting contract behind prepared-query serving: a clone
        // (what every `PreparedQuery` handle holds) must not duplicate the
        // fragment storage.
        let g = chain_graph();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        let clone = frag.clone();
        for i in 0..frag.num_fragments() {
            assert!(
                frag.shares_fragment_storage(&clone, i),
                "fragment {i} was deep-copied"
            );
        }
    }

    #[test]
    fn undirected_graph_edge_cut_keeps_symmetric_adjacency_for_inner_pairs() {
        let g = Arc::new(
            GraphBuilder::undirected()
                .add_edge(0, 1)
                .add_edge(1, 2)
                .add_edge(2, 3)
                .build(),
        );
        let assignment = vec![0, 0, 1, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        let f0 = frag.fragment(0);
        let l0 = f0.local_of(0).unwrap();
        let l1 = f0.local_of(1).unwrap();
        assert!(f0.out_edges(l0).iter().any(|n| n.target as LocalId == l1));
        assert!(f0.out_edges(l1).iter().any(|n| n.target as LocalId == l0));
        // Cross edge 1-2 gives F0 an outer copy of 2 and F1 an outer copy of 1.
        assert_eq!(f0.out_border_globals(), vec![2]);
        assert_eq!(frag.fragment(1).out_border_globals(), vec![1]);
    }
}
