//! Applying a [`GraphDelta`] to a [`Fragmentation`]: fragment patches,
//! border-set maintenance and fragmentation-graph (`G_P`) maintenance.
//!
//! The update path of a prepared query (see `grape_core::prepared`) needs
//! three things from the partition layer when `ΔG` arrives:
//!
//! 1. the **updated fragments** — only the fragments whose local structure
//!    (inner vertices, outer copies, local edges, border sets) actually
//!    changed are replaced; all others keep their `Arc`, so their retained
//!    partial results stay valid by construction;
//! 2. the **updated `G_P`** — border sets can grow or shrink with `ΔG`, and
//!    message routing must follow immediately;
//! 3. the **per-fragment restriction of `ΔG`** ([`FragmentDelta`]) — what an
//!    `IncrementalPie` program's rebase step needs in order to convert the
//!    delta into update-parameter messages.
//!
//! The fragments are the only copy of the graph, so the cost of a delta does
//! not depend on `|G|`.  Removals are validated against the owner
//! fragment's adjacency (same [`GraphDeltaError`]s, same precedence as
//! [`grape_graph::graph::Graph::apply_delta`], which stays as the oracle).
//! Each touched fragment is then patched from its own CSR in one
//! `O(|F_i| + |ΔG|)` pass — the inner vertices whose adjacency `ΔG` edits
//! are rewritten (old edges in order minus the removed ones, then the added
//! ones in delta order, exactly the adjacency a rebuilt global CSR would
//! have), outer copies are rediscovered and local ids remapped through a
//! dense table, the new CSR rows are spliced from the old ones (no edge list
//! is re-sorted) — and the result is byte-identical to a fresh
//! [`crate::fragment::build_edge_cut`] of the updated graph under the same
//! assignment.  A fragment whose in-border set alone flips shares its local
//! graph with the old version.
//! `G_P` is cloned (its holder lists are packed into one buffer per map, so
//! the clone copies two flat allocations) and updated from the patched
//! fragments' outer-set diffs
//! only; a vertex whose outer-copy holders become empty or non-empty flips
//! its owner's in-border set (`v ∈ F_i.I` iff some other fragment holds `v`
//! as an outer copy).  A removed vertex's in-neighbours are found through
//! its holders in `G_P`.
//!
//! Delta application is implemented for **edge-cut** fragmentations (the
//! default strategy family, including [`crate::metis_like::MetisLike`] and
//! the hash/range cuts).  Vertex-cut fragmentations are rejected with
//! [`DeltaError::UnsupportedPartition`]: moving an edge of a shared vertex
//! can re-elect the master replica, which silently re-keys retained state.
//!
//! New vertices introduced by `ΔG` are assigned to fragment `v mod m` — the
//! same stateless rule a streaming partitioner would apply; a later
//! re-partition can rebalance.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use grape_graph::csr::Neighbor;
use grape_graph::delta::{DeltaError as GraphDeltaError, GraphDelta};
use grape_graph::graph::Graph;
use grape_graph::types::{Edge, Label, VertexId, NO_LABEL};

use crate::fragment::{Fragment, Fragmentation, LocalId};
use crate::fragmentation_graph::BorderScope;

/// Errors produced by [`Fragmentation::apply_delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta does not fit the graph (missing edge/vertex, …).
    Graph(GraphDeltaError),
    /// The fragmentation was not produced by an edge-cut strategy.
    UnsupportedPartition(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Graph(e) => write!(f, "{e}"),
            DeltaError::UnsupportedPartition(kind) => write!(
                f,
                "delta application needs an edge-cut fragmentation, got {kind}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<GraphDeltaError> for DeltaError {
    fn from(e: GraphDeltaError) -> Self {
        DeltaError::Graph(e)
    }
}

/// The restriction of a [`GraphDelta`] to one fragment: the updates that are
/// visible in that fragment's local subgraph.  Handed to
/// `IncrementalPie::rebase` so a program can convert the structural change
/// into update-parameter messages.
///
/// Edge removals implied by a *vertex* removal are not enumerated here (they
/// follow from [`FragmentDelta::removed_vertices`] and the old fragment's
/// adjacency); only explicit edge removals are listed.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentDelta {
    /// The fragment this restriction belongs to.
    pub fragment: usize,
    /// Inserted edges present in this fragment's local subgraph (global ids).
    pub added_edges: Vec<Edge>,
    /// Explicitly removed edges that were local to this fragment (global ids).
    pub removed_edges: Vec<(VertexId, VertexId)>,
    /// Vertices that are newly present in this fragment (inner or outer copy).
    pub added_vertices: Vec<VertexId>,
    /// Vertices that left this fragment's local vertex set, plus detached
    /// (removed-but-still-owned) inner vertices.
    pub removed_vertices: Vec<VertexId>,
}

/// The result of applying `ΔG` to a fragmentation.
#[derive(Debug, Clone)]
pub struct DeltaApplication {
    /// The updated fragmentation: patched affected fragments, shared
    /// unaffected ones, and the updated `G_P`.
    pub fragmentation: Fragmentation,
    /// One entry per fragment whose structure changed, with the delta
    /// restricted to it.  Fragments not listed here are bit-identical to
    /// before and their retained partial results need no rebase.
    pub affected: Vec<FragmentDelta>,
}

/// `ΔG` indexed by the vertex whose adjacency each update edits.
struct DeltaIndex {
    /// Per vertex, the neighbours its adjacency gains, in delta order: an
    /// edge enters its source's list, on undirected graphs also its
    /// target's (a self-loop once).
    added: HashMap<VertexId, Vec<Neighbor>>,
    /// Per vertex, the neighbours it loses every edge to.
    removed: HashMap<VertexId, Vec<VertexId>>,
    /// Detached vertices, sorted.
    detached: Vec<VertexId>,
    /// Labels of inserted vertices (the last insertion of an id wins).
    labels: HashMap<VertexId, Label>,
}

impl DeltaIndex {
    fn new(delta: &GraphDelta, directed: bool) -> DeltaIndex {
        let mut added: HashMap<VertexId, Vec<Neighbor>> = HashMap::new();
        for e in delta.added_edges() {
            let to = |target| Neighbor {
                target,
                weight: e.weight,
                label: e.label,
            };
            added.entry(e.src).or_default().push(to(e.dst));
            if !directed && e.src != e.dst {
                added.entry(e.dst).or_default().push(to(e.src));
            }
        }
        let mut removed: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for &(src, dst) in delta.removed_edges() {
            removed.entry(src).or_default().push(dst);
            if !directed {
                removed.entry(dst).or_default().push(src);
            }
        }
        let mut detached = delta.removed_vertices().to_vec();
        detached.sort_unstable();
        detached.dedup();
        DeltaIndex {
            added,
            removed,
            detached,
            labels: delta.added_vertices().iter().copied().collect(),
        }
    }

    fn is_detached(&self, v: VertexId) -> bool {
        self.detached.binary_search(&v).is_ok()
    }
}

/// The edit `ΔG` makes to one fragment: the inner vertices whose adjacency
/// it rewrites (old local ids) and the new vertices it gains as inner ones.
#[derive(Default)]
struct Edit {
    dirty: Vec<LocalId>,
    fresh: Vec<VertexId>,
}

/// A fragment after `ΔG`, before its in-border set is known (that needs the
/// updated `G_P`; until then it carries the old one).
struct Patched {
    fragment: Fragment,
    /// Vertices that joined the vertex set, in new local order: the fresh
    /// inner vertices first, then the new outer copies.
    joined: Vec<VertexId>,
    fresh: usize,
    /// Outer copies that left the vertex set, in old local order.
    left: Vec<VertexId>,
}

/// Marks a slot of `Fragmentation::patch`'s remap table with no local id yet.
const UNMAPPED: usize = usize::MAX;

impl Fragmentation {
    /// Applies a batch of graph updates, maintaining fragments, border sets
    /// and the fragmentation graph.  See the module docs for semantics and
    /// the edge-cut restriction.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaApplication, DeltaError> {
        if self.gp().shared_vertex_routing() {
            return Err(DeltaError::UnsupportedPartition("vertex-cut".to_string()));
        }
        self.validate(delta)?;
        let old_gp = self.gp();
        let m = self.num_fragments();
        let old_n = old_gp.num_vertices();
        // Ids stay dense and stable: new ids are hashed onto fragments.
        let new_n = delta
            .added_vertices()
            .iter()
            .map(|&(v, _)| v)
            .chain(delta.added_edges().iter().flat_map(|e| [e.src, e.dst]))
            .map(|v| v as usize + 1)
            .fold(old_n, usize::max);
        let owner_of = |v: VertexId| {
            if (v as usize) < old_n {
                old_gp.owner(v)
            } else {
                (v % m as VertexId) as usize
            }
        };
        let index = DeltaIndex::new(delta, self.is_directed());

        // Which inner vertices' adjacency the delta rewrites: the endpoints
        // of changed edges whose adjacency holds them, every detached vertex,
        // and a detached vertex's in-neighbours — local sources of an edge
        // into it in the fragments holding it (its owner and, per `G_P`, its
        // outer-copy holders).
        let mut edits: BTreeMap<usize, Edit> = BTreeMap::new();
        let mut mark = |i: usize, l: LocalId| edits.entry(i).or_default().dirty.push(l);
        for &v in index.added.keys().chain(index.removed.keys()) {
            if (v as usize) < old_n {
                let i = old_gp.owner(v);
                mark(i, self.inner_local(i, v));
            }
        }
        for &v in &index.detached {
            let owner = old_gp.owner(v);
            mark(owner, self.inner_local(owner, v));
            let holders = old_gp.outer_holders(v).iter().map(|&j| j as usize);
            for i in std::iter::once(owner).chain(holders) {
                let f = self.fragment(i);
                let copy = f.local_of(v).expect("a holder holds its copy");
                for nb in f.in_edges(copy) {
                    mark(i, nb.target as LocalId);
                }
            }
        }
        for v in old_n as VertexId..new_n as VertexId {
            edits.entry(owner_of(v)).or_default().fresh.push(v);
        }

        let mut patched: BTreeMap<usize, Patched> = BTreeMap::new();
        for (i, edit) in edits {
            if let Some(p) = self.patch(i, edit, &index, old_n) {
                patched.insert(i, p);
            }
        }

        // G_P: the outer-set diffs, then the in-border flips they cause.
        let mut gp = old_gp.clone();
        for v in old_n as VertexId..new_n as VertexId {
            gp.push_owner(owner_of(v) as u32);
        }
        let mut touched: Vec<VertexId> = Vec::new();
        for (&i, p) in &patched {
            for &v in &p.left {
                gp.remove_outer_holder(v, i as u32);
            }
            for &v in &p.joined[p.fresh..] {
                gp.add_outer_holder(v, i as u32);
            }
            touched.extend(&p.left);
            touched.extend(&p.joined[p.fresh..]);
        }
        touched.sort_unstable();
        touched.dedup();
        let mut flips: BTreeMap<usize, Vec<(VertexId, bool)>> = BTreeMap::new();
        for v in touched {
            let was = (v as usize) < old_n && !old_gp.outer_holders(v).is_empty();
            let is = !gp.outer_holders(v).is_empty();
            if was != is {
                let owner = owner_of(v);
                gp.set_in_holder(v, is.then_some(owner as u32));
                flips.entry(owner).or_default().push((v, is));
            }
        }

        // Finish every changed fragment: its in-border set, then its share
        // of the delta.
        let changed: BTreeSet<usize> = patched.keys().chain(flips.keys()).copied().collect();
        let mut fragments: Vec<Arc<Fragment>> = self.fragments().to_vec();
        let mut affected: Vec<FragmentDelta> = Vec::with_capacity(changed.len());
        for i in changed {
            let (mut fragment, joined, left) = match patched.remove(&i) {
                Some(p) => (p.fragment, p.joined, p.left),
                None => (self.fragment(i).clone(), Vec::new(), Vec::new()),
            };
            if let Some(flips) = flips.get(&i) {
                let local = |v| fragment.local_of(v).expect("an owner holds its vertex");
                let off: BTreeSet<LocalId> =
                    flips.iter().filter(|f| !f.1).map(|f| local(f.0)).collect();
                let on: Vec<LocalId> = flips.iter().filter(|f| f.1).map(|f| local(f.0)).collect();
                let mut in_border: Vec<LocalId> = fragment
                    .in_border
                    .iter()
                    .copied()
                    .filter(|l| !off.contains(l))
                    .chain(on)
                    .collect();
                in_border.sort_unstable();
                fragment.in_border = in_border;
            }
            affected.push(restrict_delta(
                delta,
                &fragment,
                joined,
                left,
                &owner_of,
                self.is_directed(),
            ));
            fragments[i] = Arc::new(fragment);
        }

        let fragmentation = Fragmentation::from_parts(
            fragments,
            gp,
            self.is_directed(),
            self.strategy_name().to_string(),
            None,
        );
        Ok(DeltaApplication {
            fragmentation,
            affected,
        })
    }

    /// Checks `delta` against this version with [`Graph::apply_delta`]'s
    /// rules and precedence: removed vertices must exist, then removed edges
    /// must exist (either orientation on undirected graphs — looked up in
    /// the source's owner fragment), then inserted vertices must be new,
    /// then new ids must keep to the growth bound
    /// ([`GraphDelta::check_id_growth`]), so a delta cannot make this pass
    /// create an unbounded run of vertices.
    fn validate(&self, delta: &GraphDelta) -> Result<(), GraphDeltaError> {
        let n = self.gp().num_vertices();
        for &v in delta.removed_vertices() {
            if v as usize >= n {
                return Err(GraphDeltaError::MissingVertex(v));
            }
        }
        for &(src, dst) in delta.removed_edges() {
            let found = (src as usize) < n && {
                let i = self.gp().owner(src);
                let f = self.fragment(i);
                let l = self.inner_local(i, src);
                f.out_edges(l)
                    .iter()
                    .any(|nb| f.global_of(nb.target as LocalId) == dst)
            };
            if !found {
                return Err(GraphDeltaError::MissingEdge { src, dst });
            }
        }
        for &(v, _) in delta.added_vertices() {
            if (v as usize) < n {
                return Err(GraphDeltaError::VertexExists(v));
            }
        }
        delta.check_id_growth(n)
    }

    /// The local id of `v` in its owner fragment `i`.
    fn inner_local(&self, i: usize, v: VertexId) -> LocalId {
        self.fragment(i)
            .local_of(v)
            .expect("an owner holds its inner vertices")
    }

    /// Patches fragment `i` under `edit`, or `None` when its local graph
    /// comes out unchanged (its in-border set may still flip).
    ///
    /// Targets of a rewritten adjacency are *slots*: `0..num_local` are the
    /// old local ids, `num_local + k` is `extra[k]`, a vertex the old
    /// fragment lacks (fresh inner vertices first).  Outer copies are then
    /// rediscovered in the order [`crate::fragment::build_edge_cut_fragment`]
    /// finds them — first appearance over the inner vertices' adjacency —
    /// through a dense slot → local-id table, so the pass hashes only the
    /// delta's own vertices.
    ///
    /// The new CSR is spliced from the old one, never re-sorted: inner
    /// vertices keep their local ids, so an untouched out-row is copied with
    /// its targets mapped through the table and an untouched in-row is
    /// copied as is; only the in-rows of the targets a rewritten row lost or
    /// gained are re-merged.  The edge list is written with the out-rows.
    /// That is `O(|F_i| + |ΔG|)` copying with no sort, and the result equals
    /// [`Graph::from_parts`] over the updated edge list.
    fn patch(&self, i: usize, mut edit: Edit, index: &DeltaIndex, old_n: usize) -> Option<Patched> {
        let old = self.fragment(i);
        let n_old = old.num_local();
        let old_inner = old.num_inner();
        let fresh = edit.fresh.len();
        let fresh_ids = edit.fresh.clone();
        let mut extra: Vec<VertexId> = edit.fresh;
        let mut slot_of: HashMap<VertexId, usize> = extra
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, n_old + k))
            .collect();
        let mut resolve = |v: VertexId| -> usize {
            if let Some(l) = old.local_of(v) {
                return l as usize;
            }
            *slot_of.entry(v).or_insert_with(|| {
                extra.push(v);
                n_old + extra.len() - 1
            })
        };
        // v's adjacency after ΔG: its old edges in order minus the removed
        // ones, then the inserted ones in delta order.
        let mut rewrite = |v: VertexId, base: &[Neighbor]| -> Vec<Neighbor> {
            let gone = index.removed.get(&v);
            let mut adj: Vec<Neighbor> = if index.is_detached(v) {
                Vec::new()
            } else {
                base.iter()
                    .filter(|nb| {
                        let t = old.global_of(nb.target as LocalId);
                        !index.is_detached(t) && !gone.is_some_and(|g| g.contains(&t))
                    })
                    .copied()
                    .collect()
            };
            for nb in index.added.get(&v).into_iter().flatten() {
                adj.push(Neighbor {
                    target: resolve(nb.target) as VertexId,
                    ..*nb
                });
            }
            adj
        };

        edit.dirty.sort_unstable();
        edit.dirty.dedup();
        // The rows ΔG rewrites, by local id (inner ids never move): the
        // changed old rows, ascending, then the fresh vertices' rows.
        let mut rows: Vec<(usize, Vec<Neighbor>)> = Vec::new();
        for &l in &edit.dirty {
            let adj = rewrite(old.global_of(l), old.out_edges(l));
            if adj != old.out_edges(l) {
                rows.push((l as usize, adj));
            }
        }
        if rows.is_empty() && fresh == 0 {
            return None;
        }
        let rewritten = rows.len();
        for (k, &v) in fresh_ids.iter().enumerate() {
            rows.push((old_inner + k, rewrite(v, &[])));
        }
        // At most this many edges: the old ones and every rewritten row's.
        let num_edges =
            old.num_local_edges() + rows.iter().map(|(_, adj)| adj.len()).sum::<usize>();

        // Slot → new local id: inner vertices keep theirs, fresh ones follow
        // them, outer copies get theirs in order of first appearance — found
        // in the same pass that writes the out-rows and the edge list.
        let num_inner = old_inner + fresh;
        let num_slots = n_old + extra.len();
        let mut remap = vec![UNMAPPED; num_slots];
        let mut slots: Vec<usize> = (0..old_inner).chain(n_old..n_old + fresh).collect();
        for (l, &s) in slots.iter().enumerate() {
            remap[s] = l;
        }
        // Out-rows and the edge list in one pass over the rows, untouched
        // ones from the old fragment, rewritten ones from `rows`.
        let mut out_offsets = Vec::with_capacity(num_slots + 1);
        let mut out_entries = Vec::with_capacity(num_edges);
        let mut edges = Vec::with_capacity(num_edges);
        out_offsets.push(0);
        let mut changed = rows.iter().peekable();
        for u in 0..num_inner {
            let row = match changed.next_if(|(v, _)| *v == u) {
                Some((_, adj)) => &adj[..],
                None => old.out_edges(u as LocalId),
            };
            let start = out_entries.len();
            out_entries.extend(row.iter().map(|nb| {
                let s = nb.target as usize;
                if remap[s] == UNMAPPED {
                    remap[s] = slots.len();
                    slots.push(s);
                }
                Neighbor {
                    target: remap[s] as VertexId,
                    ..*nb
                }
            }));
            let src = u as VertexId;
            edges.extend(
                out_entries[start..]
                    .iter()
                    .map(|nb| Edge::new(src, nb.target, nb.weight, nb.label)),
            );
            out_offsets.push(out_entries.len());
        }
        out_offsets.resize(slots.len() + 1, out_entries.len());

        // In-rows.  Their sources are inner, so an untouched one is copied
        // as is.  A target a rewritten row lost or gained is re-merged: its
        // old row minus the rewritten sources, merged by source with the
        // entries the rewritten rows now give it (grouped by a stable sort,
        // so each source's entries keep out-row order).
        let mut remerge = vec![false; num_slots];
        let mut entering: Vec<(usize, Neighbor)> = Vec::new();
        for (u, adj) in &rows {
            for nb in adj {
                remerge[nb.target as usize] = true;
                let source = Neighbor {
                    target: *u as VertexId,
                    ..*nb
                };
                entering.push((nb.target as usize, source));
            }
        }
        for (u, _) in &rows[..rewritten] {
            for nb in old.out_edges(*u as LocalId) {
                remerge[nb.target as usize] = true;
            }
        }
        entering.sort_by_key(|&(s, _)| s);
        let is_rewritten = |source: VertexId| {
            rows[..rewritten]
                .binary_search_by_key(&(source as usize), |(u, _)| *u)
                .is_ok()
        };
        let mut in_offsets = Vec::with_capacity(slots.len() + 1);
        let mut in_entries = Vec::with_capacity(num_edges);
        in_offsets.push(0);
        for &s in &slots {
            let old_row = match s < n_old {
                true => old.in_edges(s as LocalId),
                false => &[],
            };
            if remerge[s] {
                let from = entering.partition_point(|&(t, _)| t < s);
                let to = entering.partition_point(|&(t, _)| t <= s);
                let mut new_sources = entering[from..to].iter().map(|&(_, nb)| nb).peekable();
                for nb in old_row.iter().filter(|nb| !is_rewritten(nb.target)) {
                    while let Some(e) = new_sources.next_if(|e| e.target < nb.target) {
                        in_entries.push(e);
                    }
                    in_entries.push(*nb);
                }
                in_entries.extend(new_sources);
            } else {
                in_entries.extend_from_slice(old_row);
            }
            in_offsets.push(in_entries.len());
        }

        let globals: Vec<VertexId> = slots
            .iter()
            .map(|&s| match s.checked_sub(n_old) {
                Some(k) => extra[k],
                None => old.global_of(s as LocalId),
            })
            .collect();
        let labels: Vec<Label> = slots
            .iter()
            .zip(&globals)
            .map(|(&s, &v)| match s < n_old {
                true => old.label(s as LocalId),
                false => self.label_of_new(v, index, old_n),
            })
            .collect();
        let local = Graph::from_csr_parts(
            edges,
            out_offsets,
            out_entries,
            in_offsets,
            in_entries,
            labels,
        );

        let left: Vec<VertexId> = (old_inner..n_old)
            .filter(|&l| remap[l] == UNMAPPED)
            .map(|l| old.global_of(l as LocalId))
            .collect();
        let mut to_local = old.to_local.clone();
        for v in &left {
            to_local.remove(v);
        }
        let mut joined = Vec::new();
        for (l, &s) in slots.iter().enumerate().skip(old_inner) {
            if s >= n_old {
                joined.push(globals[l]);
                to_local.insert(globals[l], l as LocalId);
            } else if s != l {
                to_local.insert(globals[l], l as LocalId);
            }
        }
        let fragment = Fragment {
            id: i,
            local: Arc::new(local),
            to_local,
            num_inner,
            in_border: old.in_border.clone(),
            out_border: (num_inner as LocalId..globals.len() as LocalId).collect(),
            globals,
        };
        Some(Patched {
            fragment,
            joined,
            fresh,
            left,
        })
    }

    /// The label of a vertex a fragment gains: an existing vertex carries
    /// its owner's label, a new one its inserted label (or none).
    fn label_of_new(&self, v: VertexId, index: &DeltaIndex, old_n: usize) -> Label {
        if (v as usize) < old_n {
            let i = self.gp().owner(v);
            self.fragment(i).label(self.inner_local(i, v))
        } else {
            index.labels.get(&v).copied().unwrap_or(NO_LABEL)
        }
    }
}

/// Restricts `delta` to the changed fragment `frag` (already updated),
/// given the vertices that joined and left its vertex set.
fn restrict_delta(
    delta: &GraphDelta,
    frag: &Fragment,
    added_vertices: Vec<VertexId>,
    mut removed_vertices: Vec<VertexId>,
    owner_of: &dyn Fn(VertexId) -> usize,
    directed: bool,
) -> FragmentDelta {
    let i = frag.id();
    // An edge lives in the local subgraph of its source's owner; undirected
    // edges additionally appear (mirrored) in the target's owner.
    let local_edge =
        |src: VertexId, dst: VertexId| owner_of(src) == i || (!directed && owner_of(dst) == i);
    let added_edges: Vec<Edge> = delta
        .added_edges()
        .iter()
        .filter(|e| local_edge(e.src, e.dst))
        .copied()
        .collect();
    let removed_edges: Vec<(VertexId, VertexId)> = delta
        .removed_edges()
        .iter()
        .filter(|&&(s, d)| local_edge(s, d))
        .copied()
        .collect();
    // Detached inner vertices stay present (tombstones) but count as removed
    // for the program's purposes.
    for &v in delta.removed_vertices() {
        if frag.local_of(v).is_some() && !removed_vertices.contains(&v) {
            removed_vertices.push(v);
        }
    }
    FragmentDelta {
        fragment: i,
        added_edges,
        removed_edges,
        added_vertices,
        removed_vertices,
    }
}

// ---------------------------------------------------------------------------
// Damage frontier
// ---------------------------------------------------------------------------

/// How far the damage of a **non-monotone** delta spreads across fragments —
/// the policy behind the engine's *bounded refresh* (re-PEval only the
/// damaged fragments instead of everywhere).  A PIE program picks the policy
/// that matches its dependency structure; the partition layer turns it into
/// a concrete fragment set via [`damage_frontier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamagePolicy {
    /// Closure of the structurally changed fragments under **message-flow
    /// reachability** (the program's [`BorderScope`], over the union of the
    /// old and new quotient graphs).  Sound for programs whose fixpoint is
    /// schedule-independent given fixed boundary inputs — the
    /// Assurance-Theorem programs (SSSP, CC, Sim) — *provided* the retained
    /// border values of undamaged fragments are reseeded into the fixpoint
    /// (`IncrementalPie::reseed`): every undamaged fragment's partial is a
    /// function of its own unchanged structure and of inputs from other
    /// undamaged fragments only, so it equals a full recompute's by
    /// construction.
    Reachability,
    /// Whole quotient **connected components** containing a changed
    /// fragment.  For trajectory-dependent programs (CF's SGD epochs): no
    /// boundary exchange between damaged and undamaged fragments may exist
    /// at all, so damage swallows everything transitively connected — but
    /// updates confined to one component leave the others untouched.
    Component,
    /// Changed fragments plus a `k`-hop halo in the (undirected) quotient
    /// graph.  For programs whose partial is a pure function of a bounded
    /// neighborhood — PEval derives it without boundary inputs, so no
    /// reseeding happens under this policy (SubIso: a changed edge can
    /// only enter a fragment's `d_Q`-hop expansion if the fragment is
    /// within `d_Q + 1` quotient hops of the edge's owner, so
    /// `Halo(d_Q + 1)` is sound).
    Halo(usize),
}

/// The derived routing tables of the fragment quotient graph: the
/// message-flow successor sets for every [`BorderScope`] plus the undirected
/// structural adjacency.  They are a pure function of `G_P`, O(m²) small,
/// and consulted on every damage-frontier computation — so a
/// [`Fragmentation`] derives them **once** and caches the result (shared
/// across clones of the same version).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuotientTables {
    /// Successor sets under [`BorderScope::Out`].
    pub successors_out: Vec<BTreeSet<usize>>,
    /// Successor sets under [`BorderScope::In`].
    pub successors_in: Vec<BTreeSet<usize>>,
    /// Successor sets under [`BorderScope::Both`].
    pub successors_both: Vec<BTreeSet<usize>>,
    /// Undirected structural adjacency: fragments sharing a border vertex.
    pub adjacency: Vec<BTreeSet<usize>>,
}

impl QuotientTables {
    /// Derives all four tables from a fragmentation's `G_P` in one pass over
    /// the border vertices.  Each border vertex `v` is held by its owner,
    /// its outer-copy holders and its in-border holders; every holder `i`
    /// gains the destinations `G_P`'s
    /// [`route`](crate::fragmentation_graph::FragmentationGraph::route)
    /// would give an update to `v` from `i`, read straight off those lists
    /// into dense `m × m` relations.
    pub fn derive(frag: &Fragmentation) -> QuotientTables {
        let gp = frag.gp();
        let m = frag.num_fragments();
        let shared = gp.shared_vertex_routing();
        // Row-major `m × m` relations; `Both` routes to every other holder,
        // which is exactly the structural adjacency.
        let mut out = vec![false; m * m];
        let mut inn = vec![false; m * m];
        let mut both = vec![false; m * m];
        for v in gp.border_vertices() {
            let owner = gp.owner(v) as u32;
            let outer = gp.outer_holders(v);
            let in_border = gp.in_holders(v);
            let holders = || std::iter::once(&owner).chain(outer).chain(in_border);
            // `Out` falls back to the owner when no fragment holds `v` in
            // `F.I`; under vertex-cut routing both scopes act as `Both`.
            let out_dests = if in_border.is_empty() {
                std::slice::from_ref(&owner)
            } else {
                in_border
            };
            for &i in holders() {
                let row = i as usize * m;
                for &j in holders() {
                    both[row + j as usize] = true;
                }
                if !shared {
                    for &j in out_dests {
                        out[row + j as usize] = true;
                    }
                    for &j in outer {
                        inn[row + j as usize] = true;
                    }
                }
            }
        }
        if shared {
            out.clone_from(&both);
            inn.clone_from(&both);
        }
        // A fragment is never its own destination.
        let table = |rel: &[bool]| -> Vec<BTreeSet<usize>> {
            (0..m)
                .map(|i| {
                    let row = &rel[i * m..(i + 1) * m];
                    (0..m).filter(|&j| j != i && row[j]).collect()
                })
                .collect()
        };
        let successors_both = table(&both);
        QuotientTables {
            successors_out: table(&out),
            successors_in: table(&inn),
            adjacency: successors_both.clone(),
            successors_both,
        }
    }

    /// The successor table of one scope.
    pub fn successors(&self, scope: BorderScope) -> &[BTreeSet<usize>] {
        match scope {
            BorderScope::Out => &self.successors_out,
            BorderScope::In => &self.successors_in,
            BorderScope::Both => &self.successors_both,
        }
    }
}

impl Fragmentation {
    /// The cached quotient tables of this fragmentation version, deriving
    /// them on first use.  Clones of one version share the cache; delta
    /// application produces a fresh (empty) cell for the new version.
    pub fn quotient_tables(&self) -> Arc<QuotientTables> {
        self.quotient_cell()
            .get_or_init(|| Arc::new(QuotientTables::derive(self)))
            .clone()
    }

    /// The message-flow successor sets of the fragment quotient graph: for
    /// every fragment `i`, the fragments an update parameter produced by `i`
    /// can reach under `scope` (derived from `G_P` exactly like the engine's
    /// routing, so the frontier never under-approximates real traffic).
    /// Served from the per-version cache.
    pub fn quotient_successors(&self, scope: BorderScope) -> Vec<BTreeSet<usize>> {
        self.quotient_tables().successors(scope).to_vec()
    }

    /// Undirected structural adjacency of the fragment quotient graph:
    /// fragments are adjacent iff they hold a copy of a common border
    /// vertex (i.e. a cross edge connects them, in either direction).
    /// Served from the per-version cache.
    pub fn quotient_adjacency(&self) -> Vec<BTreeSet<usize>> {
        self.quotient_tables().adjacency.clone()
    }
}

/// Unions two successor tables (old and new quotient graphs): stale state
/// propagated along an edge that the delta *removed* is still stale, so the
/// frontier must follow both.
fn union_tables(a: Vec<BTreeSet<usize>>, b: Vec<BTreeSet<usize>>) -> Vec<BTreeSet<usize>> {
    a.into_iter()
        .zip(b)
        .map(|(mut x, y)| {
            x.extend(y);
            x
        })
        .collect()
}

/// BFS over a successor table from `seeds`, bounded by `max_hops`
/// (`usize::MAX` = full closure).  Returns the damage mask.
fn bfs_closure(table: &[BTreeSet<usize>], seeds: &[usize], max_hops: usize) -> Vec<bool> {
    let m = table.len();
    let mut damaged = vec![false; m];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    for &s in seeds {
        if s < m && !damaged[s] {
            damaged[s] = true;
            queue.push_back((s, 0));
        }
    }
    while let Some((i, depth)) = queue.pop_front() {
        if depth >= max_hops {
            continue;
        }
        for &j in &table[i] {
            if j < m && !damaged[j] {
                damaged[j] = true;
                queue.push_back((j, depth + 1));
            }
        }
    }
    damaged
}

/// The damage frontier of a non-monotone delta, as computed by
/// [`damage_frontier`].
#[derive(Debug, Clone)]
pub struct DamageFrontier {
    /// Mask of fragments whose retained partial results may be stale and
    /// must be re-rooted with PEval during a bounded refresh.
    pub damaged: Vec<bool>,
    /// The *undamaged* fragments whose retained border values the refresh
    /// must reseed: those with at least one damaged message-flow successor
    /// in the **new** quotient graph (a freshly re-PEval'ed fragment would
    /// otherwise never re-learn the values its undamaged neighbours
    /// contributed).  Only populated under [`DamagePolicy::Reachability`]
    /// — the component closure has no cross-boundary flow by construction,
    /// and halo programs derive their partials without boundary inputs.
    pub reseed_sources: Vec<usize>,
}

impl DamageFrontier {
    /// The damaged fragment ids, ascending.
    pub fn damaged_ids(&self) -> Vec<usize> {
        self.damaged
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Computes the **damage frontier** of a non-monotone delta.  `changed` is
/// the set of structurally changed fragments
/// (`DeltaApplication::affected`), always contained in the damage mask;
/// `old`/`new` are the fragmentations before and after the delta (the
/// closure follows the union of both quotient graphs: stale state
/// propagated along an edge the delta *removed* is still stale).
pub fn damage_frontier(
    old: &Fragmentation,
    new: &Fragmentation,
    changed: &[usize],
    policy: DamagePolicy,
    scope: BorderScope,
) -> DamageFrontier {
    let (damaged, new_successors) = match policy {
        DamagePolicy::Reachability => {
            let new_succ = new.quotient_successors(scope);
            let table = union_tables(old.quotient_successors(scope), new_succ.clone());
            (bfs_closure(&table, changed, usize::MAX), Some(new_succ))
        }
        DamagePolicy::Component => {
            let table = union_tables(old.quotient_adjacency(), new.quotient_adjacency());
            (bfs_closure(&table, changed, usize::MAX), None)
        }
        DamagePolicy::Halo(k) => {
            let table = union_tables(old.quotient_adjacency(), new.quotient_adjacency());
            (bfs_closure(&table, changed, k), None)
        }
    };
    let reseed_sources = new_successors
        .map(|succ| {
            succ.iter()
                .enumerate()
                .filter(|(i, s)| !damaged[*i] && s.iter().any(|&j| damaged[j]))
                .map(|(i, _)| i)
                .collect()
        })
        .unwrap_or_default();
    DamageFrontier {
        damaged,
        reseed_sources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use crate::fragmentation_graph::FragmentationGraph;
    use crate::metis_like::MetisLike;
    use crate::strategy::PartitionStrategy;
    use crate::vertex_cut::GreedyVertexCut;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::graph::Directedness;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// 0 -> 1 -> 2 -> 3 -> 4 -> 5, ranges {0,1,2} and {3,4,5}.
    fn chain() -> (Graph, Fragmentation) {
        let mut b = GraphBuilder::directed();
        for v in 0..5u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        (g, frag)
    }

    /// Applies `delta` to `frag` (a partition of `g`) and pins patch ≡
    /// rebuild: every fragment, its labels and `G_P` equal a fresh edge-cut
    /// partition of `Graph::apply_delta`'s result under the same
    /// assignment; the affected list names exactly the fragments whose
    /// structure changed, with the restriction the rebuild derives; every
    /// other fragment keeps its storage; and the derived source is the
    /// updated graph.  Returns the application and the updated graph.
    fn checked(g: &Graph, frag: &Fragmentation, delta: &GraphDelta) -> (DeltaApplication, Graph) {
        let applied = frag.apply_delta(delta).expect("valid delta");
        let oracle = g.apply_delta(delta).expect("the oracle agrees");
        let new = &applied.fragmentation;
        let m = new.num_fragments();
        let assignment: Vec<u32> = (0..oracle.num_vertices() as VertexId)
            .map(|v| new.gp().owner(v) as u32)
            .collect();
        let fresh =
            crate::fragment::build_edge_cut(&Arc::new(oracle.clone()), &assignment, m, "fresh");
        assert_eq!(new.gp(), fresh.gp(), "G_P");
        let owner_of = |v: VertexId| assignment[v as usize] as usize;
        let mut expected_affected = Vec::new();
        for i in 0..m {
            let (a, b) = (new.fragment(i), fresh.fragment(i));
            assert!(a.same_structure(b), "fragment {i} differs from the rebuild");
            assert_eq!(
                a.in_border_globals(),
                b.in_border_globals(),
                "fragment {i} F.I"
            );
            assert_eq!(
                a.local_graph().vertex_labels(),
                b.local_graph().vertex_labels(),
                "fragment {i} labels"
            );
            assert!(a.check_invariants(), "fragment {i} invariants");
            let old = frag.fragment(i);
            if b.same_structure(old) {
                assert!(
                    frag.shares_fragment_storage(new, i),
                    "fragment {i} was copied"
                );
            } else {
                expected_affected.push(rebuild_restriction(
                    delta,
                    old,
                    b,
                    &owner_of,
                    g.is_directed(),
                ));
            }
        }
        assert_eq!(applied.affected, expected_affected, "affected fragments");

        let source = new.source();
        assert_eq!(source.num_vertices(), oracle.num_vertices());
        assert_eq!(source.vertex_labels(), oracle.vertex_labels());
        let key = |e: &Edge| {
            let (s, d) = if g.is_directed() {
                (e.src, e.dst)
            } else {
                (e.src.min(e.dst), e.src.max(e.dst))
            };
            (s, d, e.weight.to_bits(), e.label)
        };
        let mut ours: Vec<_> = source.edges().iter().map(key).collect();
        let mut theirs: Vec<_> = oracle.edges().iter().map(key).collect();
        ours.sort_unstable();
        theirs.sort_unstable();
        assert_eq!(ours, theirs, "derived source edges");
        (applied, oracle)
    }

    /// The restriction the rebuild-and-compare path derived from the old
    /// and the rebuilt fragment.
    fn rebuild_restriction(
        delta: &GraphDelta,
        old: &Fragment,
        new: &Fragment,
        owner_of: &dyn Fn(VertexId) -> usize,
        directed: bool,
    ) -> FragmentDelta {
        let added_vertices = new
            .all_locals()
            .map(|l| new.global_of(l))
            .filter(|&v| old.local_of(v).is_none())
            .collect();
        let removed_vertices = old
            .all_locals()
            .map(|l| old.global_of(l))
            .filter(|&v| new.local_of(v).is_none())
            .collect();
        restrict_delta(
            delta,
            new,
            added_vertices,
            removed_vertices,
            owner_of,
            directed,
        )
    }

    #[test]
    fn inserting_a_cross_edge_grows_both_border_sets() {
        let (g, frag) = chain();
        // New cross edge 1 -> 4: F0 gains outer copy 4, F1 gains in-border 4.
        let delta = GraphDelta::new().add_weighted_edge(1, 4, 2.0);
        let (applied, _) = checked(&g, &frag, &delta);
        let f0 = applied.fragmentation.fragment(0);
        let f1 = applied.fragmentation.fragment(1);
        let mut f0_out = f0.out_border_globals();
        f0_out.sort_unstable();
        assert_eq!(f0_out, vec![3, 4]);
        assert!(f1.in_border_globals().contains(&4));
        assert!(applied.fragmentation.gp().is_border(4));
        assert_eq!(applied.affected.len(), 2);
        // The restriction routes the edge to fragment 0 (owner of vertex 1).
        let d0 = applied.affected.iter().find(|d| d.fragment == 0).unwrap();
        assert_eq!(d0.added_edges.len(), 1);
        assert_eq!(d0.added_vertices, vec![4]);
        let d1 = applied.affected.iter().find(|d| d.fragment == 1).unwrap();
        assert!(
            d1.added_edges.is_empty(),
            "directed edge is not local to F1"
        );
    }

    #[test]
    fn purely_local_insert_affects_one_fragment() {
        let (g, frag) = chain();
        let delta = GraphDelta::new().add_weighted_edge(0, 2, 5.0);
        let (applied, _) = checked(&g, &frag, &delta);
        assert_eq!(applied.affected.len(), 1);
        assert_eq!(applied.affected[0].fragment, 0);
    }

    #[test]
    fn removing_the_only_cross_edge_clears_the_border() {
        let (g, frag) = chain();
        assert!(frag.gp().is_border(3));
        let delta = GraphDelta::new().remove_edge(2, 3);
        let (applied, _) = checked(&g, &frag, &delta);
        assert!(!applied.fragmentation.gp().is_border(3));
        assert!(applied
            .fragmentation
            .fragment(0)
            .out_border_globals()
            .is_empty());
        assert!(applied
            .fragmentation
            .fragment(1)
            .in_border_globals()
            .is_empty());
    }

    #[test]
    fn new_vertices_are_hashed_onto_fragments() {
        let (g, frag) = chain();
        // Vertex 7 -> fragment 7 % 2 = 1; edge 5 -> 7 is fragment-local to
        // F1; the implicitly created gap vertex 6 lands in fragment 6 % 2 = 0.
        let delta = GraphDelta::new().add_weighted_edge(5, 7, 1.0);
        let (applied, _) = checked(&g, &frag, &delta);
        assert_eq!(applied.fragmentation.gp().owner(7), 1);
        assert_eq!(applied.affected.len(), 2);
        let d0 = applied.affected.iter().find(|d| d.fragment == 0).unwrap();
        assert_eq!(d0.added_vertices, vec![6], "implicit gap vertex");
        let d1 = applied.affected.iter().find(|d| d.fragment == 1).unwrap();
        assert!(d1.added_vertices.contains(&7));
        assert_eq!(d1.added_edges.len(), 1);
    }

    #[test]
    fn vertex_removal_drops_copies_everywhere() {
        let (g, frag) = chain();
        let delta = GraphDelta::new().remove_vertex(3);
        let (applied, _) = checked(&g, &frag, &delta);
        // F0 loses the outer copy of 3; F1 keeps the detached inner vertex.
        let f0 = applied.fragmentation.fragment(0);
        let f1 = applied.fragmentation.fragment(1);
        assert!(f0.local_of(3).is_none());
        assert!(f1.local_of(3).is_some(), "tombstone stays with its owner");
        assert!(!applied.fragmentation.gp().is_border(3));
        let d0 = applied.affected.iter().find(|d| d.fragment == 0).unwrap();
        assert!(d0.removed_vertices.contains(&3));
        let d1 = applied.affected.iter().find(|d| d.fragment == 1).unwrap();
        assert!(
            d1.removed_vertices.contains(&3),
            "detached counts as removed"
        );
    }

    #[test]
    fn untouched_fragments_are_reused_not_rebuilt() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(2, 3)
            .add_edge(4, 5)
            .ensure_vertices(6)
            .build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        let delta = GraphDelta::new().add_weighted_edge(0, 1, 9.0);
        let (applied, _) = checked(&g, &frag, &delta);
        assert_eq!(applied.affected.len(), 1);
        assert_eq!(applied.affected[0].fragment, 0);
        // Reused means *shared*: the untouched fragments' `Arc`s survive
        // delta application, so prepared queries over the old fragmentation
        // keep sharing their storage with the updated one.
        assert!(!frag.shares_fragment_storage(&applied.fragmentation, 0));
        assert!(frag.shares_fragment_storage(&applied.fragmentation, 1));
        assert!(frag.shares_fragment_storage(&applied.fragmentation, 2));
    }

    #[test]
    fn undirected_cross_insert_is_local_to_both_owners() {
        let g = GraphBuilder::undirected()
            .add_edge(0, 1)
            .add_edge(2, 3)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let delta = GraphDelta::new().add_edge(1, 2);
        let (applied, _) = checked(&g, &frag, &delta);
        assert_eq!(applied.affected.len(), 2);
        for d in &applied.affected {
            assert_eq!(d.added_edges.len(), 1, "fragment {}", d.fragment);
        }
    }

    #[test]
    fn empty_delta_changes_nothing() {
        let (_, frag) = chain();
        let applied = frag.apply_delta(&GraphDelta::new()).unwrap();
        assert!(applied.affected.is_empty());
        assert_eq!(applied.fragmentation.num_fragments(), 2);
    }

    #[test]
    fn vertex_cut_partitions_are_rejected() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .build();
        let frag = GreedyVertexCut::new(2).partition(&g).unwrap();
        let err = frag
            .apply_delta(&GraphDelta::new().add_edge(0, 2))
            .unwrap_err();
        assert!(matches!(err, DeltaError::UnsupportedPartition(_)));
    }

    /// The id-growth bound holds for fragmentations as for graphs: the
    /// largest id it allows is patched in, one past fails with the graph's
    /// error and leaves the fragmentation as it was.
    #[test]
    fn new_ids_stay_below_the_growth_bound() {
        use grape_graph::delta::ID_SLACK;
        let (g, frag) = chain();
        let n = g.num_vertices() as VertexId;
        let allowed = GraphDelta::new()
            .add_vertex(n, 1)
            .add_edge(2, n + ID_SLACK + 1);
        let (applied, _) = checked(&g, &frag, &allowed);
        assert_eq!(
            applied.fragmentation.gp().num_vertices() as VertexId,
            n + ID_SLACK + 2
        );
        let past = GraphDelta::new()
            .add_vertex(n, 1)
            .add_edge(2, n + ID_SLACK + 2);
        let bound = n + ID_SLACK + 2;
        let err = GraphDeltaError::IdBeyondBound { id: bound, bound };
        assert_eq!(g.apply_delta(&past).unwrap_err(), err);
        assert_eq!(frag.apply_delta(&past).unwrap_err(), DeltaError::Graph(err));
        assert_eq!(frag.gp().num_vertices(), g.num_vertices());
        assert_eq!(frag.source().num_vertices(), g.num_vertices());
    }

    #[test]
    fn graph_level_errors_pass_through() {
        let (_, frag) = chain();
        let err = frag
            .apply_delta(&GraphDelta::new().remove_edge(5, 0))
            .unwrap_err();
        assert!(matches!(err, DeltaError::Graph(_)));
    }

    /// 0→1→2→3→4→5→6→7→8, three range fragments {0..2}, {3..5}, {6..8}.
    fn three_chain() -> (Graph, Fragmentation) {
        let mut b = GraphBuilder::directed();
        for v in 0..8u64 {
            b.push_edge(Edge::weighted(v, v + 1, 1.0));
        }
        let g = b.build();
        let frag = RangeEdgeCut::new(3).partition(&g).unwrap();
        (g, frag)
    }

    fn ids(mask: &[bool]) -> Vec<usize> {
        mask.iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn quotient_successors_follow_the_scope() {
        let (_, frag) = three_chain();
        // Out scope: values for outer copies flow downstream (F0 holds the
        // outer copy of 3 owned by F1, …).
        let out = frag.quotient_successors(BorderScope::Out);
        assert_eq!(out[0].iter().copied().collect::<Vec<_>>(), vec![1]);
        assert_eq!(out[1].iter().copied().collect::<Vec<_>>(), vec![2]);
        assert!(out[2].is_empty());
        // In scope: values of in-border vertices flow back to copy holders.
        let inward = frag.quotient_successors(BorderScope::In);
        assert!(inward[0].is_empty());
        assert_eq!(inward[1].iter().copied().collect::<Vec<_>>(), vec![0]);
        assert_eq!(inward[2].iter().copied().collect::<Vec<_>>(), vec![1]);
        // Structural adjacency is the symmetric closure.
        let adj = frag.quotient_adjacency();
        assert_eq!(adj[1].iter().copied().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn quotient_tables_cache_is_shared_across_clones() {
        let (_, frag) = three_chain();
        let t1 = frag.quotient_tables();
        let t2 = frag.clone().quotient_tables();
        assert!(Arc::ptr_eq(&t1, &t2), "clones share one derivation");
        assert_eq!(
            t1.successors(BorderScope::Out),
            frag.quotient_successors(BorderScope::Out)
        );
        let applied = frag.apply_delta(&GraphDelta::new()).unwrap();
        assert!(
            !Arc::ptr_eq(&applied.fragmentation.quotient_tables(), &t1),
            "a new version derives its own tables"
        );
    }

    #[test]
    fn reachability_frontier_spreads_downstream_only() {
        let (_, frag) = three_chain();
        // Delete the fragment-local edge 4 → 5: only F1 is rebuilt.
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(4, 5))
            .unwrap();
        assert_eq!(applied.affected.len(), 1);
        assert_eq!(applied.affected[0].fragment, 1);
        let mask = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[1],
            DamagePolicy::Reachability,
            BorderScope::Out,
        );
        // Under Out scope stale state can only flow downstream: F0 is safe.
        assert_eq!(ids(&mask.damaged), vec![1, 2]);
        assert_eq!(mask.damaged_ids(), vec![1, 2]);
        // Its retained border values must be reseeded into the fixpoint iff
        // it feeds a damaged fragment — F0 feeds F1.
        assert_eq!(mask.reseed_sources, vec![0]);
    }

    #[test]
    fn component_frontier_swallows_the_connected_component() {
        let (_, frag) = three_chain();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(4, 5))
            .unwrap();
        let mask = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[1],
            DamagePolicy::Component,
            BorderScope::Both,
        );
        assert_eq!(ids(&mask.damaged), vec![0, 1, 2]);
        assert!(
            mask.reseed_sources.is_empty(),
            "component closure never reseeds"
        );
    }

    #[test]
    fn halo_frontier_is_hop_bounded() {
        let (_, frag) = three_chain();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(1, 2))
            .unwrap();
        let zero = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[0],
            DamagePolicy::Halo(0),
            BorderScope::Out,
        );
        assert_eq!(ids(&zero.damaged), vec![0]);
        let one = damage_frontier(
            &frag,
            &applied.fragmentation,
            &[0],
            DamagePolicy::Halo(1),
            BorderScope::Out,
        );
        assert_eq!(ids(&one.damaged), vec![0, 1]);
    }

    #[test]
    fn frontier_follows_removed_edges_through_the_old_quotient() {
        // Deleting the only cross edge between F0 and F1 still damages F1
        // under Reachability: stale state flowed along it before the delta,
        // and the new quotient graph no longer records the adjacency.
        let (_, frag) = chain();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(2, 3))
            .unwrap();
        assert!(!applied.fragmentation.gp().is_border(3));
        let changed: Vec<usize> = applied.affected.iter().map(|d| d.fragment).collect();
        let mask = damage_frontier(
            &frag,
            &applied.fragmentation,
            &changed,
            DamagePolicy::Reachability,
            BorderScope::Out,
        );
        assert!(
            mask.damaged[1],
            "downstream fragment must be damaged via the OLD edge"
        );
    }

    #[test]
    fn disconnected_components_stay_undamaged() {
        // Two disjoint chains in separate fragments.
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .build();
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        let applied = frag
            .apply_delta(&GraphDelta::new().remove_edge(0, 1))
            .unwrap();
        for policy in [
            DamagePolicy::Reachability,
            DamagePolicy::Component,
            DamagePolicy::Halo(9),
        ] {
            let mask = damage_frontier(
                &frag,
                &applied.fragmentation,
                &[0],
                policy,
                BorderScope::Out,
            );
            assert_eq!(ids(&mask.damaged), vec![0], "{policy:?}");
        }
    }

    #[test]
    fn hash_cut_round_trips_a_mixed_delta() {
        let mut b = GraphBuilder::directed();
        for v in 0..20u64 {
            b.push_edge(Edge::weighted(v, (v * 7 + 1) % 20, 1.0 + v as f64));
        }
        let g = b.build();
        let frag = HashEdgeCut::new(4).partition(&g).unwrap();
        let delta = GraphDelta::new()
            .add_weighted_edge(3, 18, 0.5)
            .add_weighted_edge(20, 4, 2.0)
            .remove_edge(0, 1);
        let (applied, _) = checked(&g, &frag, &delta);
        assert_eq!(applied.fragmentation.source().num_vertices(), 21);
    }

    /// A small random graph with parallel edges, self-loops and labels.
    fn random_graph(rng: &mut StdRng, directedness: Directedness) -> Graph {
        let n = 24u64;
        let mut b = GraphBuilder::new(directedness).ensure_vertices(n as usize);
        for _ in 0..48 {
            let src = rng.gen_range(0..n);
            let dst = if rng.gen_range(0..8) == 0 {
                src
            } else {
                rng.gen_range(0..n)
            };
            let edge = Edge::new(src, dst, rng.gen_range(1..4) as f64, rng.gen_range(0..2));
            b.push_edge(edge);
            if rng.gen_range(0..6) == 0 {
                b.push_edge(edge);
            }
        }
        for v in 0..n {
            b.push_vertex_label(v, rng.gen_range(0..3));
        }
        b.build()
    }

    /// A valid mixed delta over `g`: inserts (self-loops, parallel copies,
    /// edges to new ids past a gap), removals of present edges (re-inserted
    /// identically now and then), vertex insertions and detachments.
    fn random_delta(rng: &mut StdRng, g: &Graph) -> GraphDelta {
        let n = g.num_vertices() as u64;
        let edges = g.edges();
        let mut delta = GraphDelta::new();
        for _ in 0..rng.gen_range(0..4) {
            let src = rng.gen_range(0..n);
            let dst = match rng.gen_range(0..5) {
                0 => src,
                1 => n + rng.gen_range(0..3),
                _ => rng.gen_range(0..n),
            };
            delta = delta.add_edge_record(Edge::new(src, dst, rng.gen_range(1..4) as f64, 0));
        }
        if !edges.is_empty() {
            for _ in 0..rng.gen_range(0..3) {
                let e = edges[rng.gen_range(0..edges.len())];
                let (src, dst) = if !g.is_directed() && rng.gen_range(0..2) == 0 {
                    (e.dst, e.src)
                } else {
                    (e.src, e.dst)
                };
                delta = delta.remove_edge(src, dst);
                match rng.gen_range(0..4) {
                    0 => delta = delta.add_edge_record(e),
                    1 => delta = delta.add_edge_record(edges[rng.gen_range(0..edges.len())]),
                    _ => {}
                }
            }
        }
        if rng.gen_range(0..4) == 0 {
            delta = delta.remove_vertex(rng.gen_range(0..n));
        }
        if rng.gen_range(0..5) == 0 {
            delta = delta.add_vertex(n + rng.gen_range(0..4), rng.gen_range(1..3));
        }
        delta
    }

    /// An invalid delta: one bad update (missing edge or vertex, an existing
    /// id re-inserted, ids out of range) mixed into valid ones, so the
    /// error's precedence is exercised too.
    fn invalid_delta(rng: &mut StdRng, g: &Graph) -> GraphDelta {
        let n = g.num_vertices() as u64;
        let mut delta = random_delta(rng, g);
        match rng.gen_range(0..6) {
            0 => delta = delta.remove_vertex(n + rng.gen_range(0..1_000_000)),
            1 => delta = delta.remove_edge(n + rng.gen_range(0..5), rng.gen_range(0..n)),
            2 => delta = delta.remove_edge(rng.gen_range(0..n), n + rng.gen_range(0..5)),
            3 => delta = delta.add_vertex(rng.gen_range(0..n), 1),
            _ => {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                delta = delta.remove_edge(src, dst);
            }
        }
        delta
    }

    /// The quotient tables as they were derived: every holder of every
    /// border vertex asks `G_P::route` for its destinations.
    fn reference_tables(frag: &Fragmentation) -> QuotientTables {
        let gp = frag.gp();
        let m = frag.num_fragments();
        let mut tables = QuotientTables {
            successors_out: vec![BTreeSet::new(); m],
            successors_in: vec![BTreeSet::new(); m],
            successors_both: vec![BTreeSet::new(); m],
            adjacency: vec![BTreeSet::new(); m],
        };
        let mut dests = Vec::new();
        for v in gp.border_vertices() {
            let mut holders: BTreeSet<usize> = BTreeSet::new();
            holders.insert(gp.owner(v));
            holders.extend(gp.outer_holders(v).iter().map(|&i| i as usize));
            holders.extend(gp.in_holders(v).iter().map(|&i| i as usize));
            for &i in &holders {
                for (scope, successors) in [
                    (BorderScope::Out, &mut tables.successors_out),
                    (BorderScope::In, &mut tables.successors_in),
                    (BorderScope::Both, &mut tables.successors_both),
                ] {
                    gp.route(v, i, scope, &mut dests);
                    successors[i].extend(&dests);
                }
                for &j in &holders {
                    if i != j {
                        tables.adjacency[i].insert(j);
                    }
                }
            }
        }
        tables
    }

    /// The dense derivation equals the `route()` one on edge cuts, on
    /// vertex cuts (shared-vertex routing) and along seeded delta chains.
    #[test]
    fn quotient_tables_match_the_route_reference() {
        let check = |frag: &Fragmentation, at: &str| {
            assert_eq!(QuotientTables::derive(frag), reference_tables(frag), "{at}");
        };
        let kg = grape_graph::generators::labeled_kg(400, 1600, 20, 16, 7);
        for m in [1, 4, 7] {
            let ec = MetisLike::new(m).partition(&kg).unwrap();
            check(&ec, "kg metis");
            // A `G_P` with every `F.I` empty: `Out` falls back to the owner.
            let owner = (0..kg.num_vertices() as VertexId)
                .map(|v| ec.gp().owner(v) as u32)
                .collect();
            let outer: Vec<Vec<VertexId>> = ec
                .fragments()
                .iter()
                .map(|f| f.out_border_globals())
                .collect();
            let gp = FragmentationGraph::new(owner, &outer, &vec![Vec::new(); m]);
            let no_in = Fragmentation::from_parts(
                ec.fragments().to_vec(),
                gp,
                true,
                "no F.I".to_string(),
                None,
            );
            check(&no_in, "kg metis without F.I");
            let vc = GreedyVertexCut::new(m).partition(&kg).unwrap();
            assert!(vc.gp().shared_vertex_routing());
            check(&vc, "kg vertex cut");
        }
        for seed in 0..6u64 {
            for directedness in [Directedness::Directed, Directedness::Undirected] {
                let mut rng = StdRng::seed_from_u64(seed);
                let g0 = random_graph(&mut rng, directedness);
                let vc = GreedyVertexCut::new(3).partition(&g0).unwrap();
                check(&vc, &format!("seed {seed} {directedness:?} vertex cut"));
                let strategies: [Box<dyn PartitionStrategy>; 3] = [
                    Box::new(HashEdgeCut::new(4)),
                    Box::new(RangeEdgeCut::new(3)),
                    Box::new(MetisLike::new(4)),
                ];
                for strategy in strategies {
                    let mut g = g0.clone();
                    let mut frag = strategy.partition(&g).unwrap();
                    for step in 0..12 {
                        let at = format!(
                            "seed {seed} {directedness:?} {} step {step}",
                            strategy.name()
                        );
                        check(&frag, &at);
                        let delta = random_delta(&mut rng, &g);
                        frag = frag.apply_delta(&delta).unwrap().fragmentation;
                        g = g.apply_delta(&delta).unwrap();
                    }
                }
            }
        }
    }

    /// Patch ≡ rebuild over seeded chains of mixed deltas, for Hash, Range
    /// and MetisLike cuts on directed and undirected graphs; invalid deltas
    /// fail exactly like `Graph::apply_delta` and leave nothing behind.
    #[test]
    fn patch_matches_rebuild_over_random_delta_chains() {
        for seed in 0..6u64 {
            for directedness in [Directedness::Directed, Directedness::Undirected] {
                let strategies: [Box<dyn PartitionStrategy>; 3] = [
                    Box::new(HashEdgeCut::new(4)),
                    Box::new(RangeEdgeCut::new(3)),
                    Box::new(MetisLike::new(4)),
                ];
                for strategy in strategies {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut g = random_graph(&mut rng, directedness);
                    let mut frag = strategy.partition(&g).unwrap();
                    for step in 0..25 {
                        let bad = invalid_delta(&mut rng, &g);
                        match g.apply_delta(&bad) {
                            Err(e) => assert_eq!(
                                frag.apply_delta(&bad).unwrap_err(),
                                DeltaError::Graph(e),
                                "seed {seed} step {step} {directedness:?} {}",
                                strategy.name()
                            ),
                            Ok(_) => assert!(frag.apply_delta(&bad).is_ok()),
                        }
                        let delta = random_delta(&mut rng, &g);
                        let (applied, next) = checked(&g, &frag, &delta);
                        frag = applied.fragmentation;
                        g = next;
                    }
                }
            }
        }
    }
}
