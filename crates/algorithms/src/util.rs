//! Small shared utilities for the algorithm implementations.

use std::cmp::Ordering;

use grape_core::output_delta::OutputDelta;
use grape_graph::types::VertexId;

/// A `(distance, vertex)` entry for min-heaps over `f64` distances.
///
/// `f64` is not `Ord`; distances produced by shortest-path algorithms are
/// never NaN, so comparing through `partial_cmp` with an `Equal` fallback is
/// safe and keeps the heap total-ordered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinDist<V> {
    /// Distance (priority; smaller pops first).
    pub dist: f64,
    /// Payload vertex.
    pub vertex: V,
}

impl<V: PartialEq> Eq for MinDist<V> {}

impl<V: PartialEq> PartialOrd for MinDist<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: PartialEq> Ord for MinDist<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest distance on top.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

/// Positive infinity used as the "unreached" distance (paper: `dist(s, v) = ∞`).
pub const INF: f64 = f64::INFINITY;

/// The sort-free `diff_output` of the min-aggregated, vertex-keyed answers
/// (SSSP distances, CC labels): diffs `previous` against the per-vertex
/// minimum of `rows` — every fragment's `(vertex, value)` pairs, outer
/// copies included, whose owner-side value is the global minimum at the
/// fixpoint — without hashing or sorting.
///
/// The minima are filled into a dense table indexed by vertex id (`absent`
/// marks a vertex no row names, or names only with `absent` itself), and
/// one walk of the table in id order against the key-sorted `previous`
/// yields the delta already sorted: `O(max id + |rows| + |previous|)`.
/// Returns `None` when the ids are too sparse for a table that size to be
/// worth it; the engine then takes its assemble-and-`diff_sorted` path,
/// which is correct for any ids.
pub(crate) fn diff_min_rows<V: Copy + PartialOrd>(
    previous: &[(VertexId, V)],
    absent: V,
    rows: impl Iterator<Item = (VertexId, V)> + Clone,
) -> Option<OutputDelta<VertexId, V>> {
    let (count, max_id) = rows
        .clone()
        .fold((0usize, 0), |(n, max), (v, _)| (n + 1, max.max(v)));
    if max_id >= (4 * count + 1024) as VertexId {
        return None;
    }
    let mut table = vec![absent; if count == 0 { 0 } else { max_id as usize + 1 }];
    for (v, value) in rows {
        let slot = &mut table[v as usize];
        if value < *slot {
            *slot = value;
        }
    }
    let mut delta = OutputDelta::empty();
    let mut previous = previous.iter().peekable();
    for (v, &value) in table.iter().enumerate() {
        let v = v as VertexId;
        // The walk visits every id up to the table's end, so a previous
        // row inside that range is always met at its own key.
        let before = previous.next_if(|&&(key, _)| key == v);
        if value != absent {
            if before.is_none_or(|&(_, old)| old != value) {
                delta.changed.push((v, value));
            }
        } else if before.is_some() {
            delta.removed.push(v);
        }
    }
    delta.removed.extend(previous.map(|&(key, _)| key));
    Some(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn heap_pops_smallest_distance_first() {
        let mut heap = BinaryHeap::new();
        heap.push(MinDist {
            dist: 3.0,
            vertex: 3u32,
        });
        heap.push(MinDist {
            dist: 1.0,
            vertex: 1u32,
        });
        heap.push(MinDist {
            dist: 2.0,
            vertex: 2u32,
        });
        assert_eq!(heap.pop().unwrap().vertex, 1);
        assert_eq!(heap.pop().unwrap().vertex, 2);
        assert_eq!(heap.pop().unwrap().vertex, 3);
    }

    /// A previous key inside the table that no row names is removed, as is
    /// one past its end; with no rows at all, every previous key is.
    #[test]
    fn diff_min_rows_removes_ids_no_row_names() {
        let previous: Vec<(VertexId, VertexId)> = vec![(1, 1), (2, 2), (6, 6), (20, 20)];
        let rows = [(1, 1), (2, 5), (9, 2), (2, 1)];
        let delta = diff_min_rows(&previous, VertexId::MAX, rows.into_iter()).unwrap();
        assert_eq!(delta.changed, vec![(2, 1), (9, 2)]);
        assert_eq!(delta.removed, vec![6, 20]);

        let nothing = diff_min_rows(&previous, VertexId::MAX, std::iter::empty()).unwrap();
        assert!(nothing.changed.is_empty());
        assert_eq!(nothing.removed, vec![1, 2, 6, 20]);
    }

    /// A dense table over ids this sparse would dwarf the answer: the fast
    /// path declines, for distances and labels alike, and the engine
    /// assembles instead.  The bound is `4 · |rows| + 1024`.
    #[test]
    fn diff_min_rows_declines_sparse_ids() {
        let previous = [(0, 0.0), (1, 2.5), (4, 1.0), (20, 9.0)];
        assert!(diff_min_rows(&previous, INF, [(1 << 40, 1.0)].into_iter()).is_none());
        let labels: [(VertexId, VertexId); 1] = [(1, 1)];
        let sparse = [(1 << 40, 1 << 40)];
        assert!(diff_min_rows(&labels, VertexId::MAX, sparse.into_iter()).is_none());

        assert!(diff_min_rows(&previous, INF, [(1027, 1.0)].into_iter()).is_some());
        assert!(diff_min_rows(&previous, INF, [(1028, 1.0)].into_iter()).is_none());
    }

    #[test]
    fn infinity_sorts_last() {
        let mut heap = BinaryHeap::new();
        heap.push(MinDist {
            dist: INF,
            vertex: 0u32,
        });
        heap.push(MinDist {
            dist: 5.0,
            vertex: 1u32,
        });
        assert_eq!(heap.pop().unwrap().vertex, 1);
    }
}
