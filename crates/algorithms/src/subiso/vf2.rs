//! VF2-style subgraph isomorphism enumeration over a whole graph.
//!
//! This is the sequential algorithm the SubIso PIE program plugs in, and the
//! oracle the distributed tests compare against.  It enumerates *injective*
//! mappings `φ : V_Q → V` such that labels match and every query edge
//! `(u, u')` has the edge `(φ(u), φ(u'))` in the graph.

use std::collections::HashSet;

use grape_graph::graph::Graph;
use grape_graph::pattern::Pattern;
use grape_graph::types::VertexId;

/// One match: `mapping[u]` is the graph vertex matched to query node `u`.
pub type Match = Vec<VertexId>;

/// Enumerates subgraph-isomorphism matches of `pattern` in `graph`, stopping
/// after `max_matches` matches (SubIso is NP-complete; the cap keeps dense
/// benchmark graphs tractable, as any practical system must).
pub fn subgraph_isomorphism(graph: &Graph, pattern: &Pattern, max_matches: usize) -> Vec<Match> {
    let q = pattern.num_nodes();
    if q == 0 {
        return Vec::new();
    }
    let order = matching_order(pattern);
    let mut matches = Vec::new();
    let mut mapping = vec![VertexId::MAX; q];
    let mut used: HashSet<VertexId> = HashSet::new();
    extend(
        graph,
        pattern,
        &order,
        0,
        &mut mapping,
        &mut used,
        &mut matches,
        max_matches,
        &|_v| true,
    );
    matches
}

/// Same as [`subgraph_isomorphism`] but only keeps matches whose *anchor*
/// (the vertex matched to the first query node of the matching order, which
/// is query node 0) satisfies `anchor_filter`.  The PIE program uses this to
/// count every match exactly once: only the fragment owning the anchor
/// reports it.
pub fn subgraph_isomorphism_filtered<F: Fn(VertexId) -> bool>(
    graph: &Graph,
    pattern: &Pattern,
    max_matches: usize,
    anchor_filter: &F,
) -> Vec<Match> {
    let q = pattern.num_nodes();
    if q == 0 {
        return Vec::new();
    }
    let order = matching_order(pattern);
    let mut matches = Vec::new();
    let mut mapping = vec![VertexId::MAX; q];
    let mut used: HashSet<VertexId> = HashSet::new();
    extend(
        graph,
        pattern,
        &order,
        0,
        &mut mapping,
        &mut used,
        &mut matches,
        max_matches,
        anchor_filter,
    );
    matches
}

/// Chooses a matching order where, whenever possible, each query node is
/// adjacent (in either direction) to an already-placed one; query node 0
/// always comes first so the anchor semantics are stable.
fn matching_order(pattern: &Pattern) -> Vec<u32> {
    let q = pattern.num_nodes();
    let mut order = Vec::with_capacity(q);
    let mut placed = vec![false; q];
    order.push(0u32);
    placed[0] = true;
    while order.len() < q {
        let next = (0..q as u32)
            .filter(|&u| !placed[u as usize])
            .max_by_key(|&u| {
                pattern
                    .children(u)
                    .iter()
                    .chain(pattern.parents(u))
                    .filter(|&&w| placed[w as usize])
                    .count()
            })
            .expect("unplaced node exists");
        placed[next as usize] = true;
        order.push(next);
    }
    order
}

#[allow(clippy::too_many_arguments)]
fn extend<F: Fn(VertexId) -> bool>(
    graph: &Graph,
    pattern: &Pattern,
    order: &[u32],
    depth: usize,
    mapping: &mut Vec<VertexId>,
    used: &mut HashSet<VertexId>,
    matches: &mut Vec<Match>,
    max_matches: usize,
    anchor_filter: &F,
) {
    if matches.len() >= max_matches {
        return;
    }
    if depth == order.len() {
        matches.push(mapping.clone());
        return;
    }
    let u = order[depth];
    let candidates = candidate_vertices(graph, pattern, order, depth, mapping);
    for v in candidates {
        if matches.len() >= max_matches {
            return;
        }
        if used.contains(&v) || graph.vertex_label(v) != pattern.label(u) {
            continue;
        }
        if depth == 0 && !anchor_filter(v) {
            continue;
        }
        if !consistent(graph, pattern, mapping, u, v) {
            continue;
        }
        mapping[u as usize] = v;
        used.insert(v);
        extend(
            graph,
            pattern,
            order,
            depth + 1,
            mapping,
            used,
            matches,
            max_matches,
            anchor_filter,
        );
        used.remove(&v);
        mapping[u as usize] = VertexId::MAX;
    }
}

/// Candidate vertices for the query node at `order[depth]`: neighbours of an
/// already-mapped pattern neighbour when one exists, otherwise every vertex.
/// Each candidate comes once, in first-occurrence order, however many
/// parallel edges lead to it — otherwise a match would be enumerated once
/// per parallel edge.
fn candidate_vertices(
    graph: &Graph,
    pattern: &Pattern,
    order: &[u32],
    depth: usize,
    mapping: &[VertexId],
) -> Vec<VertexId> {
    let u = order[depth];
    // A mapped parent w with edge (w, u): candidates are out-neighbours of φ(w).
    for &w in pattern.parents(u) {
        let m = mapping[w as usize];
        if m != VertexId::MAX {
            return distinct(graph.out_neighbors(m).iter().map(|n| n.target));
        }
    }
    // A mapped child w with edge (u, w): candidates are in-neighbours of φ(w).
    for &w in pattern.children(u) {
        let m = mapping[w as usize];
        if m != VertexId::MAX {
            return distinct(graph.in_neighbors(m).iter().map(|n| n.target));
        }
    }
    graph.vertices().collect()
}

/// `targets` without repeats, in first-occurrence order.  Neighbour lists
/// are grouped by a counting sort, not sorted by target, so repeats need
/// not be adjacent.
fn distinct(targets: impl Iterator<Item = VertexId>) -> Vec<VertexId> {
    let mut seen = HashSet::new();
    targets.filter(|&v| seen.insert(v)).collect()
}

/// Checks that mapping `u → v` preserves every query edge between `u` and the
/// already-mapped query nodes.
fn consistent(graph: &Graph, pattern: &Pattern, mapping: &[VertexId], u: u32, v: VertexId) -> bool {
    for &child in pattern.children(u) {
        let m = mapping[child as usize];
        if m != VertexId::MAX && !graph.out_neighbors(v).iter().any(|n| n.target == m) {
            return false;
        }
    }
    for &parent in pattern.parents(u) {
        let m = mapping[parent as usize];
        if m != VertexId::MAX && !graph.out_neighbors(m).iter().any(|n| n.target == v) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::builder::GraphBuilder;
    use grape_graph::generators::labeled_kg;

    fn labeled_triangle_graph() -> Graph {
        // Two triangles sharing labels: (0,1,2) and (3,4,5), labels 1,2,3.
        GraphBuilder::directed()
            .add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 0)
            .add_edge(3, 4)
            .add_edge(4, 5)
            .add_edge(5, 3)
            .set_vertex_label(0, 1)
            .set_vertex_label(1, 2)
            .set_vertex_label(2, 3)
            .set_vertex_label(3, 1)
            .set_vertex_label(4, 2)
            .set_vertex_label(5, 3)
            .build()
    }

    fn triangle_pattern() -> Pattern {
        Pattern::new(vec![1, 2, 3], vec![(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn finds_both_triangles() {
        let matches = subgraph_isomorphism(&labeled_triangle_graph(), &triangle_pattern(), 100);
        assert_eq!(matches.len(), 2);
        assert!(matches.contains(&vec![0, 1, 2]));
        assert!(matches.contains(&vec![3, 4, 5]));
    }

    #[test]
    fn respects_edge_directions() {
        let g = GraphBuilder::directed()
            .add_edge(0, 1)
            .set_vertex_label(0, 1)
            .set_vertex_label(1, 2)
            .build();
        let forward = Pattern::new(vec![1, 2], vec![(0, 1)]);
        let backward = Pattern::new(vec![1, 2], vec![(1, 0)]);
        assert_eq!(subgraph_isomorphism(&g, &forward, 10).len(), 1);
        assert_eq!(subgraph_isomorphism(&g, &backward, 10).len(), 0);
    }

    #[test]
    fn injectivity_prevents_vertex_reuse() {
        // Pattern: two distinct nodes of label 1 pointing at a label-2 node.
        let g = GraphBuilder::directed()
            .add_edge(0, 2)
            .set_vertex_label(0, 1)
            .set_vertex_label(1, 1)
            .set_vertex_label(2, 2)
            .build();
        let p = Pattern::new(vec![1, 1, 2], vec![(0, 2), (1, 2)]);
        // Only vertex 0 has an edge to 2, so no injective match exists.
        assert!(subgraph_isomorphism(&g, &p, 10).is_empty());
    }

    #[test]
    fn max_matches_caps_enumeration() {
        let g = labeled_kg(200, 1500, 3, 2, 1);
        let p = Pattern::new(vec![1, 1], vec![(0, 1)]);
        let capped = subgraph_isomorphism(&g, &p, 5);
        assert_eq!(capped.len(), 5);
    }

    #[test]
    fn anchor_filter_restricts_first_node() {
        let g = labeled_triangle_graph();
        let matches = subgraph_isomorphism_filtered(&g, &triangle_pattern(), 100, &|v| v < 3);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0], vec![0, 1, 2]);
    }

    #[test]
    fn empty_pattern_has_no_matches() {
        let g = labeled_triangle_graph();
        let p = Pattern::new(vec![], vec![]);
        assert!(subgraph_isomorphism(&g, &p, 10).is_empty());
    }
}
