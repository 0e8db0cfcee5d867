//! Fragments `F_i` and the fragmentation `F = (F_1, …, F_m)`.
//!
//! A [`Fragment`] is the unit of work of a GRAPE (virtual) worker: a local
//! subgraph over *local* dense vertex ids together with the mapping to global
//! ids, the inner/outer split, and the border sets `F_i.I` / `F_i.O`.
//! A [`Fragmentation`] bundles all fragments with the fragmentation graph
//! `G_P`.  The fragments are the only stored copy of the graph: the global
//! graph ([`Fragmentation::source`]) is a per-version view, kept as given at
//! partition time and otherwise derived from the fragments on first use —
//! by oracles, tests, and the `d`-hop neighborhood expansion SubIso needs
//! (Section 5.1, declared as an [`Expansion`]).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use grape_graph::csr::Neighbor;
use grape_graph::graph::{Directedness, Graph};
use grape_graph::hash::KeyedHashMap;
use grape_graph::types::{Edge, Label, VertexId};

use crate::delta::QuotientTables;
use crate::fragmentation_graph::FragmentationGraph;

/// Local (fragment-internal) vertex index.
pub type LocalId = u32;

/// A fragment `F_i`: a local subgraph plus border bookkeeping.
#[derive(Debug, Clone)]
pub struct Fragment {
    pub(crate) id: usize,
    /// Local adjacency: dense local ids `0..num_local`, directed edges.
    /// Shared, so a delta that only flips the fragment's `F_i.I` copies no
    /// adjacency.
    pub(crate) local: Arc<Graph>,
    /// Local id → global id.
    pub(crate) globals: Vec<VertexId>,
    /// Global id → local id.
    pub(crate) to_local: KeyedHashMap<VertexId, LocalId>,
    /// Local ids `0..num_inner` are inner vertices; the rest are outer copies.
    pub(crate) num_inner: usize,
    /// `F_i.I`: inner vertices (local ids) with an incoming cross edge.
    pub(crate) in_border: Vec<LocalId>,
    /// `F_i.O`: outer copies (local ids).
    pub(crate) out_border: Vec<LocalId>,
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
        let to_local: KeyedHashMap<VertexId, LocalId> = globals
            .iter()
            .enumerate()
            .map(|(l, &v)| (v, l as LocalId))
            .collect();
        Fragment {
            id,
            local: Arc::new(local),
            globals,
            to_local,
            num_inner,
            in_border,
            out_border,
        }
    }

    /// Whether two fragments are structurally identical: same vertex mapping
    /// both ways, inner/outer split, border sets and local adjacency — the
    /// edge list and every local vertex's in-row, sources in order (vertex
    /// labels are not compared).
    #[cfg(test)]
    pub(crate) fn same_structure(&self, other: &Fragment) -> bool {
        self.id == other.id
            && self.num_inner == other.num_inner
            && self.globals == other.globals
            && self.to_local == other.to_local
            && self.in_border == other.in_border
            && self.out_border == other.out_border
            && self.local.edges() == other.local.edges()
            && self
                .all_locals()
                .all(|l| self.in_edges(l) == other.in_edges(l))
    }
}

/// A neighbourhood exchange: what [`Fragmentation::expand_fragment`] ships
/// to a fragment before PEval runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expansion {
    /// How far the exchange grows from the border, in undirected hops.
    pub hops: usize,
    /// The vertex labels the exchange may ship and keep edges between;
    /// `None` admits every vertex (the label-oblivious `d`-hop exchange).
    pub labels: Option<Vec<Label>>,
}

impl Expansion {
    /// Whether a vertex with `label` is labelled under this exchange.
    #[inline]
    pub fn admits(&self, label: Label) -> bool {
        self.labels.as_ref().is_none_or(|ls| ls.contains(&label))
    }
}

/// A complete fragmentation: all fragments and the fragmentation graph
/// `G_P`.
///
/// Fragments and `G_P` are **refcounted** (`Arc`): cloning a fragmentation —
/// which is how every `PreparedQuery` handle gets its own copy — shares
/// their storage instead of duplicating it, so a server can keep thousands
/// of prepared queries (resident or evicted) over one evolving graph
/// cheaply.  Delta
/// application replaces only the patched fragments' `Arc`s; untouched
/// fragments stay shared across all handles.
///
/// The fragments are the graph: no global copy is maintained under `ΔG`.
/// [`Fragmentation::source`] is a derived per-version view — holding the
/// input graph at partition time, built from the fragments on first call
/// for a version produced by [`Fragmentation::apply_delta`].
#[derive(Debug, Clone)]
pub struct Fragmentation {
    fragments: Vec<Arc<Fragment>>,
    /// Never mutated: a delta builds a new `G_P` for the new version.
    gp: Arc<FragmentationGraph>,
    directed: bool,
    strategy_name: String,
    /// The global graph of this version, shared across clones like
    /// `quotient`: pre-filled with the input graph at partition time,
    /// otherwise derived from the fragments on first use.
    source: Arc<OnceLock<Arc<Graph>>>,
    /// Lazily derived quotient routing tables (see
    /// [`crate::delta::QuotientTables`]): one derivation per fragmentation
    /// *version*, shared across clones — cloning keeps the `Arc` so every
    /// prepared-query handle over this version reads the same cell.
    quotient: Arc<OnceLock<Arc<QuotientTables>>>,
}

impl Fragmentation {
    /// Assembles a fragmentation; `source` is the global graph when the
    /// caller has it (partition time), `None` for a delta-produced version.
    pub(crate) fn from_parts(
        fragments: Vec<Arc<Fragment>>,
        gp: FragmentationGraph,
        directed: bool,
        strategy_name: String,
        source: Option<Arc<Graph>>,
    ) -> Fragmentation {
        Fragmentation {
            fragments,
            gp: Arc::new(gp),
            directed,
            strategy_name,
            source: Arc::new(source.map_or_else(OnceLock::new, OnceLock::from)),
            quotient: Arc::new(OnceLock::new()),
        }
    }

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

    /// Whether the partitioned graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// The global graph of this version.  At partition time this is the
    /// input graph; a version produced by [`Fragmentation::apply_delta`]
    /// derives it from its fragments on the first call — `O(|V| + |E|)`,
    /// once per version, shared across clones.  The update path never
    /// calls it; oracles, tests and [`Fragmentation::expand_fragment`] do.
    ///
    /// A derived graph lists its edges by source vertex, so its edge order
    /// differs from the input's; on an undirected graph each edge is stored
    /// as `(min, max)` and per-vertex adjacency order can differ too.
    pub fn source(&self) -> &Arc<Graph> {
        self.source.get_or_init(|| Arc::new(self.derive_source()))
    }

    /// Whether this version holds its global graph — pre-filled at
    /// partition time or built by a [`Fragmentation::source`] call.  Lets
    /// tests pin that the serving path never builds it.
    pub fn source_is_built(&self) -> bool {
        self.source.get().is_some()
    }

    /// Rebuilds the global graph from the fragments: every vertex with its
    /// owner's label, every edge from its source's owner (an undirected
    /// edge sits in both endpoints' adjacency and is kept once).  Only
    /// edge-cut versions are ever derived: a vertex-cut fragmentation keeps
    /// its input graph, since `apply_delta` rejects it.
    fn derive_source(&self) -> Graph {
        let n = self.gp.num_vertices();
        let mut home: Vec<(usize, LocalId)> = vec![(0, 0); n];
        for f in &self.fragments {
            for l in f.inner_locals() {
                home[f.global_of(l) as usize] = (f.id, l);
            }
        }
        let mut labels = Vec::with_capacity(n);
        let mut edges = Vec::new();
        for (v, &(i, l)) in home.iter().enumerate() {
            let f = &self.fragments[i];
            let v = v as VertexId;
            labels.push(f.label(l));
            for nb in f.out_edges(l) {
                let t = f.global_of(nb.target as LocalId);
                if self.directed || v <= t {
                    edges.push(Edge::new(v, t, nb.weight, nb.label));
                }
            }
        }
        let directedness = if self.directed {
            Directedness::Directed
        } else {
            Directedness::Undirected
        };
        Graph::from_parts(directedness, n, edges, labels)
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

    /// Builds an *expanded* copy of fragment `i` for the neighbourhood
    /// exchange `exchange` declares (the SubIso PIE program's candidate set
    /// `C_i` with `d = d_Q`, Section 5.1).
    ///
    /// A vertex is *labelled* when [`Expansion::admits`] its label (every
    /// vertex, for a label-oblivious exchange).  The expanded fragment keeps
    /// every vertex of the base fragment and adds every vertex reached by a
    /// walk of up to `exchange.hops` hops (following either direction) that
    /// starts at a labelled vertex of the border `F_i.I ∪ F_i.O` and steps
    /// only onto labelled vertices.
    ///
    /// Invariant: every vertex reachable from a labelled inner vertex
    /// within `hops` hops through labelled vertices is present.  On such a
    /// path, the edge after its last inner vertex is a cross edge with a
    /// labelled endpoint in `F_i.I` or `F_i.O`, and the rest of the path
    /// avoids inner vertices, so the walk from that border vertex reaches
    /// the path's end.  A match of a connected pattern whose labels are all
    /// admitted is connected through its own labelled vertices and lies
    /// within `d_Q` hops of each of them.  That is what makes SubIso's
    /// rule — report exactly the matches anchored at an inner vertex —
    /// exact for connected patterns of diameter at most `hops`.
    ///
    /// The expanded fragment lists the inner vertices first (in the base's
    /// order), then every other present vertex in ascending global id; its
    /// edges are the source graph's edges between present labelled
    /// vertices, in that vertex order.  Both border lists keep the base's
    /// vertices.
    ///
    /// Returns the expanded fragment together with the number of vertices and
    /// edges that had to be *shipped* from other fragments (used by the
    /// engine to account for communication): the vertices the walk added,
    /// and the edges whose source is not inner.
    pub fn expand_fragment(&self, i: usize, exchange: &Expansion) -> (Fragment, usize, usize) {
        let base = &self.fragments[i];
        let g = self.source().as_ref();
        let n = g.num_vertices();
        let labelled = |v: VertexId| exchange.admits(g.vertex_label(v));
        // Start from all vertices already present locally; `extra` collects
        // the non-inner ones (outer copies, then everything shipped).
        let mut present = vec![false; n];
        let mut extra: Vec<VertexId> = Vec::new();
        for l in base.all_locals() {
            let v = base.global_of(l);
            present[v as usize] = true;
            if !base.is_inner(l) {
                extra.push(v);
            }
        }
        let num_outer = extra.len();
        // BFS outward from the labelled vertices of both border sets, up to
        // `hops` hops, both directions, through labelled vertices only.
        let mut frontier: Vec<VertexId> = base.in_border_globals();
        frontier.extend(base.out_border_globals());
        frontier.retain(|&v| labelled(v));
        for _ in 0..exchange.hops {
            let mut next = Vec::new();
            for &v in &frontier {
                for nb in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                    let seen = &mut present[nb.target as usize];
                    if !*seen && labelled(nb.target) {
                        *seen = true;
                        next.push(nb.target);
                    }
                }
            }
            extra.extend_from_slice(&next);
            frontier = next;
        }
        let shipped_vertices = extra.len() - num_outer;
        // Inner vertices first (same order as base), then the rest by id.
        extra.sort_unstable();
        let num_inner = base.num_inner();
        let mut globals: Vec<VertexId> = Vec::with_capacity(num_inner + extra.len());
        globals.extend(base.inner_locals().map(|l| base.global_of(l)));
        globals.extend(extra);
        let labels: Vec<Label> = globals.iter().map(|&v| g.vertex_label(v)).collect();
        // `local_of` maps every present vertex (the borders need them all);
        // `keep` marks the labelled ones, the only edge endpoints.
        let mut local_of = vec![LocalId::MAX; n];
        let mut keep = vec![false; globals.len()];
        for (l, &v) in globals.iter().enumerate() {
            local_of[v as usize] = l as LocalId;
            keep[l] = exchange.admits(labels[l]);
        }

        // Local edges: every source-graph edge between present labelled
        // vertices, in `globals` order so the expansion is the same on
        // every run.
        let mut edges = Vec::new();
        let mut shipped_edges = 0usize;
        for (src_local, &v) in globals.iter().enumerate() {
            if !keep[src_local] {
                continue;
            }
            let before = edges.len();
            for nb in g.out_neighbors(v) {
                let dst_local = local_of[nb.target as usize];
                if dst_local != LocalId::MAX && keep[dst_local as usize] {
                    edges.push(Edge::new(
                        src_local as VertexId,
                        dst_local as VertexId,
                        nb.weight,
                        nb.label,
                    ));
                }
            }
            if src_local >= num_inner {
                shipped_edges += edges.len() - before;
            }
        }
        let local = Graph::from_parts(Directedness::Directed, globals.len(), edges, labels);

        // The outer copies moved to their place in id order: remap `F_i.O`.
        let mut out_border: Vec<LocalId> = base
            .out_border
            .iter()
            .map(|&l| local_of[base.global_of(l) as usize])
            .collect();
        out_border.sort_unstable();
        let expanded = Fragment::from_raw_parts(
            i,
            local,
            globals,
            num_inner,
            base.in_border.clone(),
            out_border,
        );
        (expanded, shipped_vertices, shipped_edges)
    }
}

/// Builds fragment `i` of an edge-cut fragmentation: the given inner
/// vertices (in global order) plus outer copies discovered from their
/// out-edges, the local adjacency, and both border sets.  Delta application
/// ([`crate::delta`]) patches fragments instead of calling this, and its
/// tests pin that the patch is byte-identical to this construction over the
/// updated graph.
pub(crate) fn build_edge_cut_fragment(
    g: &Graph,
    assignment: &[u32],
    i: usize,
    inner_vs: &[VertexId],
) -> Fragment {
    let mut globals: Vec<VertexId> = inner_vs.to_vec();
    let mut to_local: KeyedHashMap<VertexId, LocalId> = globals
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
        local: Arc::new(local),
        globals,
        to_local,
        num_inner,
        in_border,
        out_border,
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
    let outer_sets: Vec<Vec<VertexId>> = fragments.iter().map(|f| f.out_border_globals()).collect();
    let in_border_sets: Vec<Vec<VertexId>> =
        fragments.iter().map(|f| f.in_border_globals()).collect();
    let gp = FragmentationGraph::new(assignment.to_vec(), &outer_sets, &in_border_sets);
    Fragmentation::from_parts(
        fragments,
        gp,
        g.is_directed(),
        strategy_name.to_string(),
        Some(Arc::clone(graph)),
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
        let to_local: KeyedHashMap<VertexId, LocalId> = globals
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
            local: Arc::new(local),
            globals,
            to_local,
            num_inner,
            in_border,
            out_border,
        }));
    }

    let gp =
        FragmentationGraph::new(owner, &outer_sets, &in_border_sets).with_shared_vertex_routing();
    Fragmentation::from_parts(
        fragments,
        gp,
        g.is_directed(),
        strategy_name.to_string(),
        Some(Arc::clone(graph)),
    )
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

    /// The label-oblivious exchange of `hops` hops.
    fn oblivious(hops: usize) -> Expansion {
        Expansion { hops, labels: None }
    }

    #[test]
    fn expand_fragment_pulls_in_neighborhood() {
        let g = chain_graph();
        let assignment = vec![0, 0, 1, 1, 2, 2];
        let frag = build_edge_cut(&g, &assignment, 3, "test");
        // Fragment 1 owns {2, 3} and holds an outer copy of 4; the walk
        // starts at 2 (F.I) and 4 (F.O): hop 1 reaches 1 and 5, hop 2
        // reaches 0.
        let (expanded, shipped_v, shipped_e) = frag.expand_fragment(1, &oblivious(2));
        assert_eq!(expanded.num_inner(), 2);
        assert_eq!(expanded.globals, vec![2, 3, 0, 1, 4, 5]);
        // Shipped: vertices 0, 1, 5 and the edges 0→1, 1→2, 4→5 (sources
        // that are not inner); 2→3 and 3→4 were local already.
        assert_eq!((shipped_v, shipped_e), (3, 3));
        assert_eq!(expanded.num_local_edges(), 5);
        assert!(expanded.check_invariants());
        // Inner vertices keep their identity.
        assert_eq!(expanded.global_of(0), 2);
        assert_eq!(expanded.global_of(1), 3);
    }

    #[test]
    fn an_unlabelled_vertex_blocks_the_walk() {
        // The chain with every vertex labelled 1 except vertex 1.
        let mut b = GraphBuilder::directed();
        for v in 0..5u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        for v in 0..6u64 {
            b.push_vertex_label(v, if v == 1 { 2 } else { 1 });
        }
        let g = Arc::new(b.build());
        let frag = build_edge_cut(&g, &[0, 0, 1, 1, 2, 2], 3, "test");
        let exchange = Expansion {
            hops: 2,
            labels: Some(vec![1]),
        };
        // Vertex 0 is two hops from the inner vertex 2, but only through the
        // unlabelled 1: the walk from 2 stops, the walk from 4 ships 5.
        let (expanded, shipped_v, shipped_e) = frag.expand_fragment(1, &exchange);
        assert_eq!(expanded.globals, vec![2, 3, 4, 5]);
        assert_eq!((shipped_v, shipped_e), (1, 1), "vertex 5, edge 4→5");
        assert_eq!(expanded.num_local_edges(), 3);
        assert!(expanded.check_invariants());
        // An unlabelled outer copy stays (both borders keep their vertices)
        // but carries no edge and starts no walk.
        let frag = build_edge_cut(&g, &[0, 1, 1, 1, 1, 1], 2, "test");
        let (expanded, shipped_v, shipped_e) = frag.expand_fragment(0, &exchange);
        assert_eq!(expanded.globals, vec![0, 1]);
        assert_eq!(expanded.out_border_globals(), vec![1]);
        assert_eq!(
            (shipped_v, shipped_e, expanded.num_local_edges()),
            (0, 0, 0)
        );
    }

    #[test]
    fn expand_zero_hops_is_identity_sized() {
        let g = chain_graph();
        let assignment = vec![0, 0, 0, 1, 1, 1];
        let frag = build_edge_cut(&g, &assignment, 2, "test");
        let (expanded, shipped_v, _) = frag.expand_fragment(0, &oblivious(0));
        assert_eq!(expanded.num_local(), frag.fragment(0).num_local());
        assert_eq!(shipped_v, 0);
    }

    #[test]
    fn expansion_is_the_same_on_every_run() {
        // A grid-ish graph, so the halo has many vertices and edges whose
        // order a hash map would scramble.
        let mut b = GraphBuilder::directed();
        for v in 0..40u64 {
            b.push_edge(Edge::weighted(v, (v + 1) % 40, 1.0));
            b.push_edge(Edge::weighted(v, (v * 7 + 3) % 40, 2.0));
        }
        let g = Arc::new(b.build());
        let assignment: Vec<u32> = (0..40).map(|v| (v / 10) as u32).collect();
        let frag = build_edge_cut(&g, &assignment, 4, "test");
        for i in 0..frag.num_fragments() {
            let (a, ..) = frag.expand_fragment(i, &oblivious(2));
            let (b, ..) = frag.expand_fragment(i, &oblivious(2));
            assert!(a.same_structure(&b), "fragment {i}");
            assert_eq!(a.in_edges(0), b.in_edges(0), "fragment {i}");
        }
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

/// Pins [`Fragmentation::expand_fragment`] against the hash-map
/// implementation it replaced, run on the label-induced subgraph.
#[cfg(test)]
mod expansion {
    use super::*;
    use crate::metis_like::MetisLike;
    use crate::strategy::PartitionStrategy;
    use crate::test_support::{seeded_graphs, versions};
    use grape_graph::generators::labeled_kg;

    /// Each hop count with the label-oblivious exchange and two label
    /// sets: one admits half the alphabet of the uniform graphs, the other
    /// a single label (and, on the knowledge graph, its commonest types).
    fn exchanges(hops: usize) -> [Expansion; 3] {
        [None, Some(vec![1, 3]), Some(vec![2])].map(|labels| Expansion { hops, labels })
    }

    /// The expansion as it was computed with a `keep` map (vertex → is
    /// inner) and a global → local map, with `F_i.O` remapped to the
    /// expanded local ids — over the subgraph induced by the labelled
    /// vertices: the walk starts at labelled border vertices, sees only
    /// labelled neighbours, and only labelled vertices carry edges.  The
    /// base's own vertices stay, labelled or not.
    fn reference_expand(
        frag: &Fragmentation,
        i: usize,
        exchange: &Expansion,
    ) -> (Fragment, usize, usize) {
        let base = frag.fragment(i);
        let g = frag.source().as_ref();
        let labelled = |v: VertexId| exchange.admits(g.vertex_label(v));
        let induced = |v: VertexId| {
            let around = g.out_neighbors(v).iter().chain(g.in_neighbors(v).iter());
            around.filter(move |n| labelled(v) && labelled(n.target))
        };
        let mut keep: HashMap<VertexId, bool> = HashMap::new();
        for l in base.all_locals() {
            keep.insert(base.global_of(l), base.is_inner(l));
        }
        let mut frontier: Vec<VertexId> = base.in_border_globals();
        frontier.extend(base.out_border_globals());
        frontier.retain(|&v| labelled(v));
        for _ in 0..exchange.hops {
            let mut next = Vec::new();
            for &v in &frontier {
                for n in induced(v) {
                    if let std::collections::hash_map::Entry::Vacant(e) = keep.entry(n.target) {
                        e.insert(false);
                        next.push(n.target);
                    }
                }
            }
            frontier = next;
        }
        let mut globals: Vec<VertexId> = base.inner_locals().map(|l| base.global_of(l)).collect();
        let mut extra: Vec<VertexId> = keep
            .iter()
            .filter(|(_, is_inner)| !**is_inner)
            .map(|(v, _)| *v)
            .collect();
        extra.sort_unstable();
        let shipped_vertices = keep.len() - base.num_local();
        globals.extend(extra);
        let to_local: KeyedHashMap<VertexId, LocalId> = globals
            .iter()
            .enumerate()
            .map(|(l, &v)| (v, l as LocalId))
            .collect();
        let mut edges = Vec::new();
        let mut shipped_edges = 0usize;
        for (src_local, &v) in globals.iter().enumerate() {
            let src_is_inner = src_local < base.num_inner();
            for n in g
                .out_neighbors(v)
                .iter()
                .filter(|n| labelled(v) && labelled(n.target))
            {
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
        let mut out_border: Vec<LocalId> = base
            .out_border_globals()
            .iter()
            .map(|v| to_local[v])
            .collect();
        out_border.sort_unstable();
        let expanded = Fragment {
            id: i,
            local: Arc::new(local),
            globals,
            to_local,
            num_inner: base.num_inner(),
            in_border: base.in_border.clone(),
            out_border,
        };
        (expanded, shipped_vertices, shipped_edges)
    }

    #[test]
    fn expansion_matches_the_hash_map_reference() {
        for (seed, g) in seeded_graphs().iter().enumerate() {
            for (name, frag) in versions(g, seed as u64) {
                for hops in 0..=3 {
                    for exchange in exchanges(hops) {
                        for i in 0..frag.num_fragments() {
                            let at = format!("graph {seed} {name} {exchange:?} fragment {i}");
                            let (a, av, ae) = frag.expand_fragment(i, &exchange);
                            let (b, bv, be) = reference_expand(&frag, i, &exchange);
                            assert_eq!(a.globals, b.globals, "{at}: globals");
                            assert_eq!(
                                a.local_graph().vertex_labels(),
                                b.local_graph().vertex_labels(),
                                "{at}: labels"
                            );
                            assert_eq!(a.num_inner, b.num_inner, "{at}: num_inner");
                            assert_eq!(a.in_border, b.in_border, "{at}: F.I");
                            assert_eq!(a.out_border, b.out_border, "{at}: F.O");
                            for l in a.all_locals() {
                                assert_eq!(
                                    a.out_edges(l),
                                    b.out_edges(l),
                                    "{at}: out-edges of {l}"
                                );
                                assert_eq!(a.in_edges(l), b.in_edges(l), "{at}: in-edges of {l}");
                            }
                            assert_eq!((av, ae), (bv, be), "{at}: shipped counts");
                            assert!(a.check_invariants(), "{at}: invariants");
                        }
                    }
                }
            }
        }
    }

    /// Outer copies move to id order in the expansion; both border lists
    /// must still name the base's vertices, labelled or not.
    #[test]
    fn expanded_borders_keep_their_vertices() {
        let g = labeled_kg(400, 1600, 20, 16, 7);
        let frag = MetisLike::new(4).partition(&g).unwrap();
        for hops in 0..=2 {
            for exchange in exchanges(hops) {
                for i in 0..frag.num_fragments() {
                    let base = frag.fragment(i);
                    let (expanded, ..) = frag.expand_fragment(i, &exchange);
                    let mut outer = base.out_border_globals();
                    outer.sort_unstable();
                    assert!(!outer.is_empty(), "fragment {i} has outer copies");
                    assert_eq!(
                        expanded.out_border_globals(),
                        outer,
                        "{exchange:?} fragment {i}"
                    );
                    assert_eq!(
                        expanded.in_border_globals(),
                        base.in_border_globals(),
                        "{exchange:?} fragment {i}"
                    );
                }
            }
        }
    }

    /// The invariant SubIso's inner-anchor rule rests on: every vertex
    /// reachable from a labelled inner vertex within `hops` (undirected)
    /// hops through labelled vertices is present.
    #[test]
    fn expansion_holds_every_vertex_near_an_inner_vertex() {
        for (seed, g) in seeded_graphs().iter().enumerate() {
            for (name, frag) in versions(g, seed as u64) {
                let source = frag.source();
                for hops in 0..=2 {
                    for exchange in exchanges(hops) {
                        let labelled = |v: VertexId| exchange.admits(source.vertex_label(v));
                        for i in 0..frag.num_fragments() {
                            let (expanded, ..) = frag.expand_fragment(i, &exchange);
                            let base = frag.fragment(i);
                            let mut frontier: Vec<VertexId> = base
                                .inner_locals()
                                .map(|l| base.global_of(l))
                                .filter(|&v| labelled(v))
                                .collect();
                            let mut seen: std::collections::HashSet<VertexId> =
                                frontier.iter().copied().collect();
                            for _ in 0..hops {
                                let mut next = Vec::new();
                                for &v in &frontier {
                                    let around = source.out_neighbors(v).iter();
                                    for nb in around.chain(source.in_neighbors(v)) {
                                        if labelled(nb.target) && seen.insert(nb.target) {
                                            next.push(nb.target);
                                        }
                                    }
                                }
                                frontier = next;
                            }
                            for v in seen {
                                assert!(
                                    expanded.local_of(v).is_some(),
                                    "graph {seed} {name} {exchange:?} fragment {i}: {v} missing"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
