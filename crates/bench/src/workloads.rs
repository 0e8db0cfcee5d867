//! Benchmark workloads: scaled-down synthetic stand-ins for the paper's
//! datasets (see DESIGN.md §3 for the substitution rationale), plus the
//! random delta batches of the prepared-query update experiment.

use grape_graph::delta::GraphDelta;
use grape_graph::generators::{bipartite_ratings, labeled_kg, power_law, road_grid, RatingData};
use grape_graph::graph::Graph;
use grape_graph::pattern::Pattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload scale: `Small` keeps tier-1's shape checks fast; `Medium` is
/// what the `experiments` binary uses to regenerate the paper's tables and
/// figures; `Large` is the CI-excluded nightly profile that checks the
/// paper's shapes at millions of edges (the `#[ignore]`d tests of
/// `crates/bench/tests/paper_shapes.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few thousand vertices — seconds for the whole suite.
    Small,
    /// Tens of thousands of vertices — minutes for the whole suite.
    Medium,
    /// Hundreds of thousands of vertices, millions of edges — nightly only.
    Large,
}

impl Scale {
    /// Parses the `--scale` CLI flag value.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" | "full" => Some(Scale::Medium),
            "large" | "nightly" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The flag value / machine-readable name of the scale.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Large => "large",
        }
    }
}

/// Stand-in for the `traffic` US road network: a grid with huge diameter.
pub fn traffic(scale: Scale) -> Graph {
    match scale {
        Scale::Small => road_grid(48, 48, 0xF00D),
        Scale::Medium => road_grid(120, 120, 0xF00D),
        Scale::Large => road_grid(700, 700, 0xF00D),
    }
}

/// Stand-in for `liveJournal`: a power-law social graph with 100 labels.
pub fn livejournal(scale: Scale) -> Graph {
    match scale {
        Scale::Small => power_law(3_000, 15_000, 100, 0xBEEF),
        Scale::Medium => power_law(20_000, 120_000, 100, 0xBEEF),
        Scale::Large => power_law(400_000, 2_400_000, 100, 0xBEEF),
    }
}

/// Stand-in for `DBpedia`: a knowledge graph with 200 node / 160 edge types.
pub fn dbpedia(scale: Scale) -> Graph {
    match scale {
        Scale::Small => labeled_kg(3_000, 12_000, 200, 160, 0xCAFE),
        Scale::Medium => labeled_kg(20_000, 80_000, 200, 160, 0xCAFE),
        Scale::Large => labeled_kg(300_000, 1_500_000, 200, 160, 0xCAFE),
    }
}

/// Stand-in for `movieLens`: a bipartite rating graph.  `training_fraction`
/// scales the number of observed ratings (the paper uses 90% and 50%).
pub fn movielens(scale: Scale, training_fraction: f64) -> RatingData {
    let (users, items, base_ratings) = match scale {
        Scale::Small => (400, 120, 6_000),
        Scale::Medium => (2_000, 600, 40_000),
        Scale::Large => (30_000, 8_000, 1_000_000),
    };
    let ratings = ((base_ratings as f64) * training_fraction).round() as usize;
    bipartite_ratings(users, items, ratings, 8, 0xD00D)
}

/// Synthetic graphs for the Fig. 9 scalability sweep; `step` indexes the
/// paper's sizes (10M,40M) … (50M,200M), scaled down by three orders of
/// magnitude (one order at `Scale::Large`).
pub fn synthetic(step: usize, scale: Scale) -> Graph {
    let factor = match scale {
        Scale::Small => 1_000,
        Scale::Medium => 5_000,
        Scale::Large => 100_000,
    };
    let vertices = (step + 1) * 10 * factor / 10;
    let edges = vertices * 4;
    power_law(vertices, edges, 50, 0xACE + step as u64)
}

/// Size of one `ΔG` batch in the prepared-query update experiment.
pub fn delta_batch_size(scale: Scale) -> usize {
    match scale {
        Scale::Small => 64,
        Scale::Medium => 512,
        Scale::Large => 8_192,
    }
}

/// A batch of `count` random weighted edge insertions between existing
/// vertices — the monotone update direction for SSSP and CC.
///
/// Insertions are *localized*: each new edge connects a random vertex to one
/// at most 32 ids away.  This models the update streams of the evolving-
/// graph setting (new road segments join nearby intersections, new social
/// edges cluster) and is what makes the incremental refresh's affected
/// region — and therefore its message bill — small relative to a recompute;
/// a batch of random long-range shortcuts would legitimately invalidate
/// distances almost everywhere.
pub fn insertion_delta(graph: &Graph, count: usize, seed: u64) -> GraphDelta {
    ranged_insertion_delta(0, graph.num_vertices() as u64, count, seed)
}

/// A batch of `count` distinct random edge deletions drawn from the existing
/// edge list — the monotone update direction for graph simulation.
pub fn deletion_delta(graph: &Graph, count: usize, seed: u64) -> GraphDelta {
    ranged_deletion_delta(graph, 0, graph.num_vertices() as u64, count, seed)
}

/// A *regional* traffic network: `regions` disjoint road grids (think
/// separate metropolitan areas with no connecting road in the dataset).
/// Region `r` owns the contiguous id range `r * region_size(scale) ..
/// (r + 1) * region_size(scale)`, so a range partition with a fragment
/// count dividing `regions` aligns fragments to regions — the workload of
/// the `recompute vs bounded vs monotone` comparison, where a road closure
/// in one region must not re-prepare the others.
pub fn regional_traffic(scale: Scale, regions: usize) -> Graph {
    use grape_graph::builder::GraphBuilder;
    use grape_graph::types::Edge;

    let side = regional_side(scale);
    let region_size = (side * side) as u64;
    let mut b = GraphBuilder::directed().ensure_vertices(side * side * regions);
    for r in 0..regions {
        let grid = road_grid(side, side, 0xF00D + r as u64);
        let offset = r as u64 * region_size;
        for e in grid.edges() {
            b.push_edge(Edge::weighted(e.src + offset, e.dst + offset, e.weight));
        }
    }
    b.build()
}

fn regional_side(scale: Scale) -> usize {
    match scale {
        Scale::Small => 12,
        Scale::Medium => 40,
        Scale::Large => 220,
    }
}

/// Number of vertices per region of [`regional_traffic`].
pub fn regional_size(scale: Scale) -> u64 {
    let side = regional_side(scale) as u64;
    side * side
}

/// A batch of `count` distinct edge deletions confined to the id range
/// `[lo, hi)` — the "road closures in one region" / "updates to one catalog
/// segment" shape that keeps a non-monotone delta's damage frontier local.
pub fn ranged_deletion_delta(
    graph: &Graph,
    lo: u64,
    hi: u64,
    count: usize,
    seed: u64,
) -> GraphDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let local: Vec<_> = graph
        .edges()
        .iter()
        .filter(|e| (lo..hi).contains(&e.src) && (lo..hi).contains(&e.dst))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut delta = GraphDelta::new();
    // Attempts are bounded: the graph may contain parallel edges, so the
    // number of distinct (src, dst) pairs can be below `count.min(len)`.
    for _ in 0..count.saturating_mul(4) {
        if local.is_empty() || seen.len() >= count.min(local.len()) {
            break;
        }
        let e = local[rng.gen_range(0..local.len() as u64) as usize];
        if seen.insert((e.src, e.dst)) {
            delta = delta.remove_edge(e.src, e.dst);
        }
    }
    delta
}

/// A batch of `count` weighted edge insertions confined to the id range
/// `[lo, hi)` — the regional counterpart of [`insertion_delta`].
pub fn ranged_insertion_delta(lo: u64, hi: u64, count: usize, seed: u64) -> GraphDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = GraphDelta::new();
    let mut added = 0usize;
    while added < count && hi - lo > 1 {
        let src = rng.gen_range(lo..hi);
        let dst = lo + (src - lo + 1 + rng.gen_range(0u64..32.min(hi - lo - 1))) % (hi - lo);
        if src == dst {
            continue;
        }
        let weight = 1.0 + rng.gen_range(0u32..8) as f64;
        delta = delta.add_weighted_edge(src, dst, weight);
        added += 1;
    }
    delta
}

/// A *segmented* rating workload: `segments` disjoint bipartite blocks
/// (catalogs that share no users or items), each a scaled-down
/// [`movielens`]-like block occupying a contiguous id range.  Returns the
/// graph, the `[lo, hi)` range of each segment, and the number of users per
/// segment (ids `lo .. lo + users` are the segment's users — returned so
/// delta generators can never drift from the workload's shape).  The
/// workload of the CF incremental experiment: new ratings land in one
/// segment, and the epoch-seeded (component-closed) refresh must retrain
/// only that segment.
pub fn segmented_movielens(scale: Scale, segments: usize) -> (Graph, Vec<(u64, u64)>, u64) {
    use grape_graph::builder::GraphBuilder;
    use grape_graph::types::Edge;

    let (users, items, ratings) = match scale {
        Scale::Small => (60, 20, 900),
        Scale::Medium => (400, 120, 8_000),
        Scale::Large => (6_000, 1_600, 200_000),
    };
    let block = (users + items) as u64;
    let mut b = GraphBuilder::directed().ensure_vertices((users + items) * segments);
    let mut ranges = Vec::with_capacity(segments);
    for s in 0..segments {
        let data = bipartite_ratings(users, items, ratings, 8, 0xD00D + s as u64);
        let offset = s as u64 * block;
        for e in data.graph.edges() {
            b.push_edge(Edge::weighted(e.src + offset, e.dst + offset, e.weight));
        }
        ranges.push((offset, offset + block));
    }
    (b.build(), ranges, users as u64)
}

/// A batch of `count` new ratings confined to one segment of
/// [`segmented_movielens`] (user → item edges inside `[lo, hi)`).
pub fn segment_rating_delta(
    lo: u64,
    hi: u64,
    num_users: u64,
    count: usize,
    seed: u64,
) -> GraphDelta {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut delta = GraphDelta::new();
    for _ in 0..count {
        let user = lo + rng.gen_range(0..num_users);
        let item = lo + num_users + rng.gen_range(0..hi - lo - num_users);
        let rating = 1.0 + rng.gen_range(0u32..40) as f64 / 10.0;
        delta = delta.add_weighted_edge(user, item, rating);
    }
    delta
}

/// A pattern of the paper's Sim workload shape `|Q| = (8, 15)` (scaled to
/// (4, 7) at small scale so that the quadratic sequential oracle in the tests
/// stays fast), drawn from the labels of `graph`.
pub fn sim_pattern(graph: &Graph, scale: Scale, seed: u64) -> Pattern {
    let alphabet = graph.distinct_vertex_labels();
    let alphabet = if alphabet.len() > 1 {
        alphabet
    } else {
        vec![1]
    };
    match scale {
        Scale::Small => Pattern::random(4, 7, &alphabet, seed),
        Scale::Medium | Scale::Large => Pattern::random(8, 15, &alphabet, seed),
    }
}

/// A pattern of the paper's SubIso workload shape `|Q| = (6, 10)` (scaled to
/// (3, 4) at small scale).
pub fn subiso_pattern(graph: &Graph, scale: Scale, seed: u64) -> Pattern {
    let alphabet = graph.distinct_vertex_labels();
    let alphabet = if alphabet.len() > 1 {
        alphabet
    } else {
        vec![1]
    };
    match scale {
        Scale::Small => Pattern::random(3, 4, &alphabet, seed),
        Scale::Medium | Scale::Large => Pattern::random(6, 10, &alphabet, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("large"), Some(Scale::Large));
        assert_eq!(Scale::parse("nightly"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Large.name(), "large");
    }

    #[test]
    fn insertion_delta_is_insert_only_and_sized() {
        let g = traffic(Scale::Small);
        let delta = insertion_delta(&g, 32, 7);
        assert_eq!(delta.added_edges().len(), 32);
        assert!(!delta.has_removals());
        // Deterministic per seed.
        assert_eq!(
            insertion_delta(&g, 32, 7).added_edges(),
            delta.added_edges()
        );
    }

    #[test]
    fn deletion_delta_removes_existing_distinct_edges() {
        let g = livejournal(Scale::Small);
        let delta = deletion_delta(&g, 16, 3);
        assert_eq!(delta.removed_edges().len(), 16);
        assert!(!delta.has_insertions());
        // Every removal refers to a real edge: applying must succeed.
        assert!(g.apply_delta(&delta).is_ok());
    }

    #[test]
    fn workloads_have_expected_shapes() {
        let t = traffic(Scale::Small);
        assert_eq!(t.num_vertices(), 48 * 48);
        let lj = livejournal(Scale::Small);
        assert_eq!(lj.num_vertices(), 3_000);
        assert!(lj.distinct_vertex_labels().len() > 10);
        let db = dbpedia(Scale::Small);
        assert!(db.num_edges() > 10_000);
        let ml = movielens(Scale::Small, 0.5);
        assert!(ml.graph.num_edges() <= 3_000);
    }

    #[test]
    fn synthetic_sizes_grow_with_step() {
        let a = synthetic(0, Scale::Small);
        let b = synthetic(4, Scale::Small);
        assert!(b.num_vertices() > a.num_vertices());
        assert!(b.num_edges() > a.num_edges());
    }

    #[test]
    fn regional_traffic_keeps_regions_disjoint() {
        let g = regional_traffic(Scale::Small, 4);
        let size = regional_size(Scale::Small);
        assert_eq!(g.num_vertices() as u64, 4 * size);
        for e in g.edges() {
            assert_eq!(e.src / size, e.dst / size, "edge crosses regions");
        }
        let delta = ranged_deletion_delta(&g, 0, size, 16, 5);
        assert_eq!(delta.removed_edges().len(), 16);
        assert!(delta
            .removed_edges()
            .iter()
            .all(|&(s, d)| s < size && d < size));
        assert!(g.apply_delta(&delta).is_ok());
    }

    #[test]
    fn segmented_movielens_keeps_segments_disjoint() {
        let (g, ranges, users) = segmented_movielens(Scale::Small, 3);
        assert_eq!(ranges.len(), 3);
        for e in g.edges() {
            let seg = ranges
                .iter()
                .position(|&(lo, hi)| (lo..hi).contains(&e.src))
                .unwrap();
            let (lo, hi) = ranges[seg];
            assert!((lo..hi).contains(&e.dst), "rating crosses segments");
            // Ratings run user → item within the segment.
            assert!(e.src < lo + users && e.dst >= lo + users);
        }
        let (lo, hi) = ranges[1];
        let delta = segment_rating_delta(lo, hi, users, 12, 3);
        assert_eq!(delta.added_edges().len(), 12);
        assert!(delta
            .added_edges()
            .iter()
            .all(|e| (lo..hi).contains(&e.src) && (lo..hi).contains(&e.dst)));
    }

    #[test]
    fn patterns_fit_the_workload_shape() {
        let g = dbpedia(Scale::Small);
        let p = sim_pattern(&g, Scale::Small, 1);
        assert_eq!(p.num_nodes(), 4);
        let p2 = subiso_pattern(&g, Scale::Small, 2);
        assert_eq!(p2.num_nodes(), 3);
    }
}
