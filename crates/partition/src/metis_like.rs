//! A multilevel edge-cut partitioner standing in for METIS (the paper's
//! default partition strategy, Section 6 / 7).
//!
//! The classic multilevel scheme is implemented from scratch:
//!
//! 1. **Coarsening** — repeated heavy-edge matching contracts matched vertex
//!    pairs into super-vertices until the graph is small,
//! 2. **Initial partitioning** — greedy BFS region growing over the coarsest
//!    graph, balanced by accumulated vertex weight,
//! 3. **Uncoarsening + refinement** — the assignment is projected back level
//!    by level and improved with boundary Kernighan–Lin/Fiduccia–Mattheyses
//!    style passes that move border vertices to the neighbouring part with
//!    the largest positive gain, subject to a balance constraint.

use std::sync::Arc;

use grape_graph::graph::Graph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fragment::{build_edge_cut, Fragmentation};
use crate::strategy::{validate, PartitionError, PartitionStrategy};

/// Allowed imbalance: a part may hold up to `BALANCE_FACTOR × ideal` vertex
/// weight (METIS default is 1.03; we are slightly more permissive because
/// the graphs are small).
const BALANCE_FACTOR: f64 = 1.1;

/// Number of boundary refinement passes per level.
const REFINEMENT_PASSES: usize = 4;

/// Multilevel METIS-like edge-cut partitioner.
#[derive(Debug, Clone)]
pub struct MetisLike {
    num_fragments: usize,
    /// RNG seed controlling matching/tie-breaking order.
    seed: u64,
}

impl MetisLike {
    /// Creates a partitioner with the default seed.
    pub fn new(num_fragments: usize) -> Self {
        MetisLike {
            num_fragments,
            seed: 42,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A level of the multilevel hierarchy: a weighted graph plus the mapping of
/// the finer level's vertices onto this level's super-vertices.
struct Level {
    /// Undirected weighted adjacency: `adj[v]` = (neighbor, edge weight).
    adj: Vec<Vec<(usize, f64)>>,
    /// Vertex weights (number of original vertices contracted into each).
    vweight: Vec<usize>,
    /// Fine-vertex → coarse-vertex map (from the previous level).
    fine_to_coarse: Vec<usize>,
}

impl PartitionStrategy for MetisLike {
    fn name(&self) -> &str {
        "metis-like"
    }

    fn num_fragments(&self) -> usize {
        self.num_fragments
    }

    fn partition_arc(&self, graph: &Arc<Graph>) -> Result<Fragmentation, PartitionError> {
        validate(graph, self.num_fragments)?;
        let assignment = self.compute_assignment(graph);
        Ok(build_edge_cut(
            graph,
            &assignment,
            self.num_fragments,
            self.name(),
        ))
    }
}

impl MetisLike {
    /// Computes the vertex → fragment assignment for the whole multilevel
    /// pipeline.  Exposed for tests and for the quality benchmarks.
    pub fn compute_assignment(&self, graph: &Graph) -> Vec<u32> {
        let n = graph.num_vertices();
        if self.num_fragments == 1 {
            return vec![0; n];
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Base level: symmetrised adjacency with unit edge weights (parallel
        // edges accumulate weight).
        let mut base_adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for e in graph.edges() {
            if e.src == e.dst {
                continue;
            }
            base_adj[e.src as usize].push((e.dst as usize, 1.0));
            base_adj[e.dst as usize].push((e.src as usize, 1.0));
        }
        let mut levels: Vec<Level> = vec![Level {
            adj: base_adj,
            vweight: vec![1; n],
            fine_to_coarse: Vec::new(),
        }];

        // Coarsen until small enough or stuck.
        let target = (self.num_fragments * 16).max(64);
        while levels.last().unwrap().vweight.len() > target {
            let current = levels.last().unwrap();
            let (coarse, map) = coarsen(current, &mut rng);
            let shrink = coarse.vweight.len() as f64 / current.vweight.len() as f64;
            if shrink > 0.95 {
                break; // matching no longer makes progress
            }
            levels.push(Level {
                fine_to_coarse: map,
                ..coarse
            });
        }

        // Initial partition on the coarsest level.
        let coarsest = levels.last().unwrap();
        let total_weight: usize = coarsest.vweight.iter().sum();
        let mut part = initial_partition(coarsest, self.num_fragments, &mut rng);
        let max_part_weight =
            ((total_weight as f64 / self.num_fragments as f64) * BALANCE_FACTOR).ceil() as usize;
        refine(
            coarsest,
            &mut part,
            self.num_fragments,
            max_part_weight,
            REFINEMENT_PASSES,
        );

        // Project back and refine at every level.
        for level_idx in (1..levels.len()).rev() {
            let fine = &levels[level_idx - 1];
            let map = &levels[level_idx].fine_to_coarse;
            let mut fine_part = vec![0u32; fine.vweight.len()];
            for (v, &c) in map.iter().enumerate() {
                fine_part[v] = part[c];
            }
            refine(
                fine,
                &mut fine_part,
                self.num_fragments,
                max_part_weight,
                REFINEMENT_PASSES,
            );
            part = fine_part;
        }
        part
    }
}

/// Heavy-edge matching coarsening step.
fn coarsen(level: &Level, rng: &mut StdRng) -> (Level, Vec<usize>) {
    let n = level.vweight.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut matched = vec![usize::MAX; n];
    let mut num_coarse = 0usize;
    let mut coarse_of = vec![usize::MAX; n];
    for &v in &order {
        if matched[v] != usize::MAX {
            continue;
        }
        // Heaviest unmatched neighbor.
        let mut best: Option<(usize, f64)> = None;
        for &(u, w) in &level.adj[v] {
            if matched[u] == usize::MAX && u != v {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        let c = num_coarse;
        num_coarse += 1;
        match best {
            Some((u, _)) => {
                matched[v] = u;
                matched[u] = v;
                coarse_of[v] = c;
                coarse_of[u] = c;
            }
            None => {
                matched[v] = v;
                coarse_of[v] = c;
            }
        }
    }

    // Build the coarse graph.
    let mut vweight = vec![0usize; num_coarse];
    for v in 0..n {
        vweight[coarse_of[v]] += level.vweight[v];
    }
    let mut adj_maps: Vec<std::collections::HashMap<usize, f64>> =
        vec![std::collections::HashMap::new(); num_coarse];
    for v in 0..n {
        let cv = coarse_of[v];
        for &(u, w) in &level.adj[v] {
            let cu = coarse_of[u];
            if cu != cv {
                *adj_maps[cv].entry(cu).or_insert(0.0) += w;
            }
        }
    }
    let adj: Vec<Vec<(usize, f64)>> = adj_maps
        .into_iter()
        .map(|m| {
            let mut list: Vec<(usize, f64)> = m.into_iter().collect();
            // HashMap iteration order is unspecified; sort so the whole
            // pipeline stays deterministic for a fixed seed.
            list.sort_unstable_by_key(|&(u, _)| u);
            list
        })
        .collect();
    (
        Level {
            adj,
            vweight,
            fine_to_coarse: Vec::new(),
        },
        coarse_of,
    )
}

/// Greedy BFS region growing initial partition.
fn initial_partition(level: &Level, k: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = level.vweight.len();
    let total: usize = level.vweight.iter().sum();
    let ideal = (total as f64 / k as f64).ceil() as usize;
    let mut part = vec![u32::MAX; n];
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut order_iter = order.iter();
    let mut current = 0u32;
    let mut current_weight = 0usize;
    let mut queue = std::collections::VecDeque::new();

    loop {
        // Find an unassigned seed for the current part.
        if queue.is_empty() {
            let seed = order_iter.by_ref().find(|&&v| part[v] == u32::MAX);
            match seed {
                Some(&v) => queue.push_back(v),
                None => break,
            }
        }
        while let Some(v) = queue.pop_front() {
            if part[v] != u32::MAX {
                continue;
            }
            part[v] = current;
            current_weight += level.vweight[v];
            if current_weight >= ideal && (current as usize) < k - 1 {
                current += 1;
                current_weight = 0;
                queue.clear();
                break;
            }
            for &(u, _) in &level.adj[v] {
                if part[u] == u32::MAX {
                    queue.push_back(u);
                }
            }
        }
        if part.iter().all(|&p| p != u32::MAX) {
            break;
        }
    }
    part
}

/// Boundary refinement: move border vertices to the neighbouring part with
/// the best positive gain while respecting the balance constraint.
fn refine(level: &Level, part: &mut [u32], k: usize, max_weight: usize, passes: usize) {
    let n = level.vweight.len();
    let mut weights = vec![0usize; k];
    for v in 0..n {
        weights[part[v] as usize] += level.vweight[v];
    }
    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let from = part[v] as usize;
            // Connectivity of v to each part.
            let mut conn = vec![0.0f64; k];
            for &(u, w) in &level.adj[v] {
                conn[part[u] as usize] += w;
            }
            let mut best_part = from;
            let mut best_gain = 0.0f64;
            for p in 0..k {
                if p == from {
                    continue;
                }
                let gain = conn[p] - conn[from];
                if gain > best_gain && weights[p] + level.vweight[v] <= max_weight {
                    best_gain = gain;
                    best_part = p;
                }
            }
            if best_part != from {
                weights[from] -= level.vweight[v];
                weights[best_part] += level.vweight[v];
                part[v] = best_part as u32;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Edge cut of an assignment: the number of edges whose endpoints fall into
/// different parts.  Exposed for the quality tests/benches.
pub fn edge_cut_of(graph: &Graph, assignment: &[u32]) -> usize {
    graph
        .edges()
        .iter()
        .filter(|e| assignment[e.src as usize] != assignment[e.dst as usize])
        .count()
}

impl Level {
    /// Helper constructor used in unit tests.
    #[cfg(test)]
    fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push((b, 1.0));
            adj[b].push((a, 1.0));
        }
        Level {
            adj,
            vweight: vec![1; n],
            fine_to_coarse: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::HashEdgeCut;
    use grape_graph::generators::{power_law, road_grid};
    use grape_graph::types::VertexId as Vid;

    #[test]
    fn produces_valid_balanced_partition() {
        let g = road_grid(16, 16, 1);
        let strategy = MetisLike::new(4);
        let frag = strategy.partition(&g).unwrap();
        assert_eq!(frag.num_fragments(), 4);
        let sizes: Vec<usize> = frag.fragments().iter().map(|f| f.num_inner()).collect();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 256);
        let ideal = 64.0;
        for &s in &sizes {
            assert!(
                (s as f64) < ideal * 1.35 && (s as f64) > ideal * 0.5,
                "imbalanced part: {sizes:?}"
            );
        }
    }

    #[test]
    fn cuts_fewer_edges_than_hash_on_grid() {
        let g = road_grid(24, 24, 2);
        let metis_cut = edge_cut_of(&g, &MetisLike::new(4).compute_assignment(&g));
        let hash_assignment: Vec<u32> = {
            let frag = HashEdgeCut::new(4).partition(&g).unwrap();
            let mut a = vec![0u32; g.num_vertices()];
            for f in frag.fragments() {
                for l in f.inner_locals() {
                    a[f.global_of(l) as usize] = f.id() as u32;
                }
            }
            a
        };
        let hash_cut = edge_cut_of(&g, &hash_assignment);
        assert!(
            metis_cut * 2 < hash_cut,
            "metis-like cut {metis_cut} should be far below hash cut {hash_cut}"
        );
    }

    #[test]
    fn works_on_power_law_graphs() {
        let g = power_law(2000, 8000, 0, 3);
        let frag = MetisLike::new(8).partition(&g).unwrap();
        let total: usize = frag.fragments().iter().map(|f| f.num_inner()).sum();
        assert_eq!(total, 2000);
        assert!(frag.fragments().iter().all(|f| f.check_invariants()));
    }

    #[test]
    fn single_fragment_is_trivial() {
        let g = road_grid(5, 5, 1);
        let assignment = MetisLike::new(1).compute_assignment(&g);
        assert!(assignment.iter().all(|&p| p == 0));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = power_law(500, 2000, 0, 4);
        let a = MetisLike::new(4).with_seed(7).compute_assignment(&g);
        let b = MetisLike::new(4).with_seed(7).compute_assignment(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn coarsening_shrinks_and_preserves_weight() {
        let level = Level::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let mut rng = StdRng::seed_from_u64(1);
        let (coarse, map) = coarsen(&level, &mut rng);
        assert!(coarse.vweight.len() < 6);
        assert_eq!(coarse.vweight.iter().sum::<usize>(), 6);
        assert_eq!(map.len(), 6);
        assert!(map.iter().all(|&c| c < coarse.vweight.len()));
    }

    #[test]
    fn refinement_reduces_cut_on_a_bad_start() {
        // Two cliques joined by one edge, started with a terrible split.
        let mut edges = Vec::new();
        for a in 0..4 {
            for b in (a + 1)..4 {
                edges.push((a, b));
                edges.push((a + 4, b + 4));
            }
        }
        edges.push((3, 4));
        let level = Level::from_edges(8, &edges);
        // Alternating assignment cuts many edges.
        let mut part: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        refine(&level, &mut part, 2, 5, 8);
        // After refinement each clique should be (mostly) on one side.
        let cut = {
            let mut c = 0;
            for (v, adj) in level.adj.iter().enumerate() {
                for &(u, _) in adj {
                    if u > v && part[u] != part[v] {
                        c += 1;
                    }
                }
            }
            c
        };
        assert!(cut <= 2, "refined cut still {cut}");
    }

    #[test]
    fn edge_cut_of_counts_cross_edges() {
        let g = road_grid(4, 1, 0); // path of 4 vertices
        let cut = edge_cut_of(&g, &[0, 0, 1, 1]);
        // Path 0-1-2-3 stored as bidirectional directed edges: the 1-2 segment
        // contributes two directed edges.
        assert_eq!(cut, 2);
        let all_same: Vec<u32> = vec![0; g.num_vertices() as usize];
        assert_eq!(edge_cut_of(&g, &all_same), 0);
        let _ = g.vertices().collect::<Vec<Vid>>();
    }
}
