//! Pattern graphs `Q = (V_Q, E_Q, L_Q)` for graph pattern matching
//! (Section 5.1 of the paper: graph simulation and subgraph isomorphism).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::types::Label;

/// A small, directed, node-labeled pattern graph.
///
/// Query nodes are dense `0..k` indices (`u32` because patterns are tiny).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pattern {
    labels: Vec<Label>,
    edges: Vec<(u32, u32)>,
    out: Vec<Vec<u32>>,
    r#in: Vec<Vec<u32>>,
}

impl Pattern {
    /// Creates a pattern with `labels.len()` query nodes carrying the given
    /// labels and the given directed query edges.
    pub fn new(labels: Vec<Label>, edges: Vec<(u32, u32)>) -> Self {
        let k = labels.len();
        let mut out = vec![Vec::new(); k];
        let mut r#in = vec![Vec::new(); k];
        for &(u, v) in &edges {
            assert!(
                (u as usize) < k && (v as usize) < k,
                "pattern edge out of bounds"
            );
            out[u as usize].push(v);
            r#in[v as usize].push(u);
        }
        Pattern {
            labels,
            edges,
            out,
            r#in,
        }
    }

    /// Single-node pattern, matching every vertex with `label`.
    pub fn single(label: Label) -> Self {
        Pattern::new(vec![label], Vec::new())
    }

    /// Number of query nodes `|V_Q|`.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of query edges `|E_Q|`.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Label of query node `u` (paper: `L_Q(u)`).
    pub fn label(&self, u: u32) -> Label {
        self.labels[u as usize]
    }

    /// All query node labels.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// All query edges.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Children of query node `u`.
    pub fn children(&self, u: u32) -> &[u32] {
        &self.out[u as usize]
    }

    /// Parents of query node `u`.
    pub fn parents(&self, u: u32) -> &[u32] {
        &self.r#in[u as usize]
    }

    /// Whether every query node reaches every other one, ignoring edge
    /// directions.  The empty pattern counts as connected.
    pub fn is_connected(&self) -> bool {
        let k = self.num_nodes();
        if k == 0 {
            return true;
        }
        let mut adj = vec![Vec::new(); k];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v as usize);
            adj[v as usize].push(u as usize);
        }
        let mut seen = vec![false; k];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// Diameter `d_Q` of the pattern: the maximum over all connected node
    /// pairs of the length of the shortest (undirected) path between them.
    /// Used by the SubIso PIE program to bound the neighborhood
    /// `N_{d_Q}(v)` shipped to each fragment (Section 5.1).  Node pairs in
    /// different components are ignored, so the bound holds only for a
    /// pattern that [`Pattern::is_connected`].
    pub fn diameter(&self) -> usize {
        let k = self.num_nodes();
        if k == 0 {
            return 0;
        }
        // Undirected adjacency for the BFS.
        let mut adj = vec![Vec::new(); k];
        for &(u, v) in &self.edges {
            adj[u as usize].push(v as usize);
            adj[v as usize].push(u as usize);
        }
        let mut best = 0usize;
        let mut dist = vec![usize::MAX; k];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..k {
            dist.iter_mut().for_each(|d| *d = usize::MAX);
            dist[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &v in &adj[u] {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        best = best.max(dist[v]);
                        queue.push_back(v);
                    }
                }
            }
        }
        best
    }

    /// Generates a random connected pattern with `nodes` query nodes and
    /// approximately `edges` query edges, labels drawn from `alphabet`.
    ///
    /// This mirrors the paper's workload: "20 pattern queries … controlled by
    /// `|Q| = (|V_Q|, |E_Q|)`, using labels drawn from the graphs".
    pub fn random(nodes: usize, edges: usize, alphabet: &[Label], seed: u64) -> Self {
        assert!(nodes > 0, "pattern needs at least one node");
        assert!(!alphabet.is_empty(), "label alphabet must not be empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let labels: Vec<Label> = (0..nodes)
            .map(|_| *alphabet.choose(&mut rng).expect("non-empty"))
            .collect();
        let mut edge_set = std::collections::BTreeSet::new();
        // Spanning chain to keep the pattern connected.
        for u in 1..nodes as u32 {
            let parent = rng.gen_range(0..u);
            edge_set.insert((parent, u));
        }
        // Extra random edges up to the requested count.
        let mut attempts = 0;
        while edge_set.len() < edges && attempts < edges * 20 {
            let u = rng.gen_range(0..nodes as u32);
            let v = rng.gen_range(0..nodes as u32);
            if u != v {
                edge_set.insert((u, v));
            }
            attempts += 1;
        }
        Pattern::new(labels, edge_set.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Pattern {
        Pattern::new(vec![1, 2, 3], vec![(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_accessors() {
        let p = triangle();
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.label(1), 2);
        assert_eq!(p.children(0), &[1]);
        assert_eq!(p.parents(0), &[2]);
    }

    #[test]
    fn diameter_of_triangle_is_one() {
        assert_eq!(triangle().diameter(), 1);
    }

    #[test]
    fn diameter_of_path() {
        let p = Pattern::new(vec![0, 0, 0, 0], vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(p.diameter(), 3);
    }

    #[test]
    fn diameter_of_single_node_is_zero() {
        assert_eq!(Pattern::single(5).diameter(), 0);
    }

    #[test]
    fn connectivity_ignores_edge_direction() {
        assert!(triangle().is_connected());
        assert!(Pattern::single(5).is_connected());
        assert!(Pattern::new(vec![1, 2, 3], vec![(1, 0), (1, 2)]).is_connected());
        assert!(!Pattern::new(vec![1, 2], vec![]).is_connected());
        let two_pairs = Pattern::new(vec![1, 2, 1, 2], vec![(0, 1), (2, 3)]);
        assert!(!two_pairs.is_connected());
        assert_eq!(two_pairs.diameter(), 1, "only connected pairs count");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        Pattern::new(vec![0, 1], vec![(0, 2)]);
    }

    #[test]
    fn random_pattern_is_connected_and_sized() {
        let p = Pattern::random(8, 15, &[1, 2, 3, 4], 42);
        assert_eq!(p.num_nodes(), 8);
        assert!(p.num_edges() >= 7, "needs at least a spanning tree");
        assert!(p.num_edges() <= 15);
        assert!(p.is_connected());
        assert!(p.diameter() >= 1);
    }

    #[test]
    fn random_pattern_is_deterministic_per_seed() {
        let a = Pattern::random(6, 10, &[1, 2, 3], 7);
        let b = Pattern::random(6, 10, &[1, 2, 3], 7);
        assert_eq!(a, b);
        let c = Pattern::random(6, 10, &[1, 2, 3], 8);
        assert!(a != c || a.labels() == c.labels()); // different seed usually differs
    }

    #[test]
    fn random_pattern_labels_come_from_alphabet() {
        let alphabet = vec![10, 20, 30];
        let p = Pattern::random(5, 8, &alphabet, 1);
        assert!(p.labels().iter().all(|l| alphabet.contains(l)));
    }
}
