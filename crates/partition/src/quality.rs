//! Partition quality metrics: edge cut, balance, replication factor and
//! border-vertex counts.  Used by tests, by the load balancer, and by the
//! ablation benches that compare partition strategies.

use crate::fragment::Fragmentation;

/// Summary statistics of a fragmentation.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of fragments.
    pub num_fragments: usize,
    /// Number of cross-fragment (cut) directed edges.
    pub cut_edges: usize,
    /// Fraction of edges cut.
    pub cut_ratio: f64,
    /// Largest fragment inner-vertex count divided by the ideal size.
    pub vertex_balance: f64,
    /// Largest fragment local-edge count divided by the ideal size.
    pub edge_balance: f64,
    /// Average number of copies (inner + outer) per vertex.
    pub replication_factor: f64,
    /// Total number of distinct border vertices.
    pub border_vertices: usize,
}

/// Computes all quality statistics of a fragmentation.
pub fn evaluate(frag: &Fragmentation) -> PartitionQuality {
    let m = frag.num_fragments();
    let n = frag.gp().num_vertices().max(1);

    let cut_edges = cut_edge_count(frag);
    let total_directed_edges: usize = frag
        .fragments()
        .iter()
        .map(|f| f.num_local_edges())
        .sum::<usize>()
        .max(1);

    let max_inner = frag
        .fragments()
        .iter()
        .map(|f| f.num_inner())
        .max()
        .unwrap_or(0);
    let ideal_inner = n as f64 / m as f64;
    let max_edges = frag
        .fragments()
        .iter()
        .map(|f| f.num_local_edges())
        .max()
        .unwrap_or(0);
    let ideal_edges = total_directed_edges as f64 / m as f64;

    PartitionQuality {
        num_fragments: m,
        cut_edges,
        cut_ratio: cut_edges as f64 / total_directed_edges as f64,
        vertex_balance: max_inner as f64 / ideal_inner.max(1.0),
        edge_balance: max_edges as f64 / ideal_edges.max(1.0),
        replication_factor: replication_factor(frag),
        border_vertices: frag.num_border_vertices(),
    }
}

/// Number of local directed edges whose target is an outer copy, i.e. edges
/// crossing fragments.
pub fn cut_edge_count(frag: &Fragmentation) -> usize {
    frag.fragments()
        .iter()
        .map(|f| {
            f.inner_locals()
                .map(|l| {
                    f.out_edges(l)
                        .iter()
                        .filter(|n| !f.is_inner(n.target as u32))
                        .count()
                })
                .sum::<usize>()
        })
        .sum()
}

/// Average number of fragment-local copies per vertex (1.0 means no
/// replication at all; edge-cut partitions replicate border vertices as outer
/// copies, vertex-cut partitions replicate shared endpoints).
pub fn replication_factor(frag: &Fragmentation) -> f64 {
    let n = frag.gp().num_vertices();
    if n == 0 {
        return 1.0;
    }
    let copies: usize = frag.fragments().iter().map(|f| f.num_local()).sum();
    copies as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_cut::{HashEdgeCut, RangeEdgeCut};
    use crate::metis_like::MetisLike;
    use crate::strategy::PartitionStrategy;
    use grape_graph::generators::road_grid;

    #[test]
    fn single_fragment_quality_is_trivial() {
        let g = road_grid(8, 8, 1);
        let frag = HashEdgeCut::new(1).partition(&g).unwrap();
        let q = evaluate(&frag);
        assert_eq!(q.cut_edges, 0);
        assert_eq!(q.border_vertices, 0);
        assert!((q.replication_factor - 1.0).abs() < 1e-9);
        assert!((q.vertex_balance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn metis_like_beats_hash_on_cut_ratio() {
        let g = road_grid(20, 20, 2);
        let hash_q = evaluate(&HashEdgeCut::new(4).partition(&g).unwrap());
        let metis_q = evaluate(&MetisLike::new(4).partition(&g).unwrap());
        assert!(metis_q.cut_ratio < hash_q.cut_ratio);
        assert!(metis_q.cut_edges < hash_q.cut_edges);
    }

    #[test]
    fn balance_close_to_one_for_range_partition() {
        let g = road_grid(16, 16, 3);
        let q = evaluate(&RangeEdgeCut::new(4).partition(&g).unwrap());
        assert!(
            q.vertex_balance <= 1.01,
            "vertex balance {}",
            q.vertex_balance
        );
    }

    #[test]
    fn replication_factor_counts_outer_copies() {
        let g = road_grid(4, 1, 0); // path 0-1-2-3
        let frag = RangeEdgeCut::new(2).partition(&g).unwrap();
        // Fragments {0,1} and {2,3}; each side holds one outer copy of the other.
        let rf = replication_factor(&frag);
        assert!(rf > 1.0 && rf <= 1.5);
        assert_eq!(cut_edge_count(&frag), 2); // bidirectional road segment 1-2
    }
}
