//! Load balancer: maps the `m` fragments (virtual workers) onto the `n`
//! physical workers (Section 6, "Load balancing").
//!
//! The cost of a virtual worker is estimated from the fragment size and the
//! number of its border nodes (the paper's bi-criteria objective mixing
//! computation and communication cost); assignment uses the classic
//! longest-processing-time greedy rule, which is a 4/3-approximation of
//! makespan minimisation and is what matters for skewed (power-law) graphs.

use grape_partition::fragment::Fragmentation;

/// Estimated cost of one fragment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentCost {
    /// Fragment id.
    pub fragment: usize,
    /// Computation cost estimate (inner vertices + local edges).
    pub compute: f64,
    /// Communication cost estimate (border vertices).
    pub communicate: f64,
}

/// Relative weight of communication cost vs computation cost in
/// [`FragmentCost::total`].
pub const COMM_WEIGHT: f64 = 4.0;

impl FragmentCost {
    /// Combined cost: `compute + COMM_WEIGHT · communicate`.
    pub fn total(&self) -> f64 {
        self.compute + COMM_WEIGHT * self.communicate
    }
}

/// Estimates per-fragment costs for a fragmentation.
pub fn estimate(frag: &Fragmentation) -> Vec<FragmentCost> {
    frag.fragments()
        .iter()
        .map(|f| FragmentCost {
            fragment: f.id(),
            compute: f.num_inner() as f64 + f.num_local_edges() as f64,
            communicate: (f.in_border_locals().len() + f.out_border_locals().len()) as f64,
        })
        .collect()
}

/// Assigns fragments to `num_workers` physical workers.  Returns, for each
/// worker, the list of fragment ids it executes.
///
/// Fragments are considered in decreasing total cost and always handed to
/// the currently least-loaded worker (LPT greedy).
pub fn assign(frag: &Fragmentation, num_workers: usize) -> Vec<Vec<usize>> {
    let num_workers = num_workers.max(1);
    let mut costs = estimate(frag);
    costs.sort_by(|a, b| {
        b.total()
            .partial_cmp(&a.total())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut assignment = vec![Vec::new(); num_workers];
    let mut loads = vec![0.0f64; num_workers];
    for cost in costs {
        let target = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0);
        assignment[target].push(cost.fragment);
        loads[target] += cost.total();
    }
    // Keep fragment order within a worker deterministic.
    for list in &mut assignment {
        list.sort_unstable();
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::power_law;
    use grape_partition::edge_cut::HashEdgeCut;
    use grape_partition::strategy::PartitionStrategy;

    fn fragmentation(m: usize) -> Fragmentation {
        let g = power_law(600, 2400, 0, 1);
        HashEdgeCut::new(m).partition(&g).unwrap()
    }

    #[test]
    fn every_fragment_assigned_exactly_once() {
        let frag = fragmentation(8);
        let assignment = assign(&frag, 3);
        let mut seen = [false; 8];
        for worker in &assignment {
            for &f in worker {
                assert!(!seen[f], "fragment {f} assigned twice");
                seen[f] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn more_workers_than_fragments_leaves_some_idle() {
        let frag = fragmentation(2);
        let assignment = assign(&frag, 4);
        assert_eq!(assignment.len(), 4);
        let used = assignment.iter().filter(|w| !w.is_empty()).count();
        assert_eq!(used, 2);
    }

    #[test]
    fn loads_are_roughly_balanced() {
        let frag = fragmentation(16);
        let costs = estimate(&frag);
        let assignment = assign(&frag, 4);
        let load_of = |worker: &Vec<usize>| -> f64 {
            worker
                .iter()
                .map(|&f| costs.iter().find(|c| c.fragment == f).unwrap().total())
                .sum()
        };
        let loads: Vec<f64> = assignment.iter().map(load_of).collect();
        let max = loads.iter().cloned().fold(f64::MIN, f64::max);
        let min = loads.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max <= min * 1.6 + 1.0, "unbalanced loads {loads:?}");
    }

    #[test]
    fn estimate_reports_all_fragments() {
        let frag = fragmentation(4);
        let costs = estimate(&frag);
        assert_eq!(costs.len(), 4);
        assert!(costs.iter().all(|c| c.compute > 0.0));
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let frag = fragmentation(3);
        let assignment = assign(&frag, 0);
        assert_eq!(assignment.len(), 1);
        assert_eq!(assignment[0].len(), 3);
    }
}
