//! Per-table / per-figure experiment drivers.  Each function returns the
//! rows of the corresponding paper artifact; the `experiments` binary prints
//! them and `tests/paper_shapes.rs` asserts each figure's count-shaped claim
//! on them.

use crate::runner::{
    run_cc, run_cf, run_incremental_cc, run_incremental_cf, run_incremental_sim,
    run_incremental_sssp, run_incremental_subiso, run_refresh_comparison_sssp, run_sim, run_sim_ni,
    run_sim_optimized, run_sssp, run_subiso, RunRow, System,
};
use crate::workloads::{self, Scale};

/// The worker counts swept in Figures 6 and 8 (the paper uses 4..24 physical
/// machines; we sweep threads).
pub fn worker_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![2, 4],
        Scale::Medium => vec![1, 2, 4, 8],
        Scale::Large => vec![4, 8, 16],
    }
}

/// Table 1: SSSP over traffic on all systems at the largest worker count.
pub fn table1(scale: Scale) -> Vec<RunRow> {
    let g = workloads::traffic(scale);
    let n = *worker_counts(scale).last().unwrap();
    System::all()
        .iter()
        .map(|&s| run_sssp(s, &g, 0, n, "traffic"))
        .collect()
}

/// Figures 6(a)–(c) and 8(a)–(c): SSSP time / communication vs `n` on the
/// three graph datasets.
pub fn fig6_sssp(scale: Scale) -> Vec<RunRow> {
    let datasets = [
        ("traffic", workloads::traffic(scale)),
        ("livejournal", workloads::livejournal(scale)),
        ("dbpedia", workloads::dbpedia(scale)),
    ];
    let mut rows = Vec::new();
    for (name, g) in &datasets {
        for &n in &worker_counts(scale) {
            for system in System::all() {
                rows.push(run_sssp(system, g, 0, n, name));
            }
        }
    }
    rows
}

/// Figures 6(d)–(f) and 8(d)–(f): CC vs `n` on the three graph datasets.
pub fn fig6_cc(scale: Scale) -> Vec<RunRow> {
    let datasets = [
        ("traffic", workloads::traffic(scale)),
        ("livejournal", workloads::livejournal(scale).to_undirected()),
        ("dbpedia", workloads::dbpedia(scale).to_undirected()),
    ];
    let mut rows = Vec::new();
    for (name, g) in &datasets {
        for &n in &worker_counts(scale) {
            for system in System::all() {
                rows.push(run_cc(system, g, n, name));
            }
        }
    }
    rows
}

/// Figures 6(g)–(h) and 8(g)–(h): Sim vs `n` on liveJournal and DBpedia.
pub fn fig6_sim(scale: Scale) -> Vec<RunRow> {
    let datasets = [
        ("livejournal", workloads::livejournal(scale)),
        ("dbpedia", workloads::dbpedia(scale)),
    ];
    let mut rows = Vec::new();
    for (name, g) in &datasets {
        let pattern = workloads::sim_pattern(g, scale, 0x51);
        for &n in &worker_counts(scale) {
            for system in System::all() {
                rows.push(run_sim(system, g, &pattern, n, name));
            }
        }
    }
    rows
}

/// Figures 6(i)–(j) and 8(i)–(j): SubIso vs `n` on liveJournal and DBpedia.
pub fn fig6_subiso(scale: Scale) -> Vec<RunRow> {
    let datasets = [
        ("livejournal", workloads::livejournal(scale)),
        ("dbpedia", workloads::dbpedia(scale)),
    ];
    let mut rows = Vec::new();
    for (name, g) in &datasets {
        let pattern = workloads::subiso_pattern(g, scale, 0x52);
        for &n in &worker_counts(scale) {
            for system in System::all() {
                rows.push(run_subiso(system, g, &pattern, n, name));
            }
        }
    }
    rows
}

/// Figures 6(k)–(l) and 8(k)–(l): CF vs `n` with 90% and 50% training sets.
pub fn fig6_cf(scale: Scale) -> Vec<RunRow> {
    let mut rows = Vec::new();
    for (name, fraction) in [("movielens-90", 0.9), ("movielens-50", 0.5)] {
        let data = workloads::movielens(scale, fraction);
        for &n in &worker_counts(scale) {
            for system in System::all() {
                rows.push(run_cf(system, &data, 6, n, name));
            }
        }
    }
    rows
}

/// Figure 7(a), Exp-2: incremental GRAPE vs the non-incremental GRAPE_NI for
/// Sim over liveJournal.
pub fn fig7_incremental(scale: Scale) -> Vec<RunRow> {
    let g = workloads::livejournal(scale);
    let pattern = workloads::sim_pattern(&g, scale, 0x71);
    let mut rows = Vec::new();
    for &n in &worker_counts(scale) {
        rows.push(run_sim(System::Grape, &g, &pattern, n, "livejournal"));
        rows.push(run_sim_ni(&g, &pattern, n, "livejournal"));
    }
    rows
}

/// Figure 7(b), Exp-3: the speedup of the index-optimized sequential Sim is
/// preserved by GRAPE parallelization.
pub fn fig7_optimization(scale: Scale) -> Vec<RunRow> {
    let g = workloads::livejournal(scale);
    let pattern = workloads::sim_pattern(&g, scale, 0x72);
    let mut rows = Vec::new();
    for &n in &worker_counts(scale) {
        rows.push(run_sim(System::Grape, &g, &pattern, n, "livejournal"));
        rows.push(run_sim_optimized(&g, &pattern, n, "livejournal"));
    }
    rows
}

/// The prepared-query update experiment (the repo's extension of Exp-2 to
/// *whole-computation* incrementality): for each of the **five** query
/// classes, prepare `Q(G)`, apply one `ΔG` batch, and compare the refresh
/// with a full recompute on the updated graph.  SSSP/CC take insertions
/// (monotone, `GRAPE (incremental)` rows) and Sim deletions (its monotone
/// direction); CF takes a burst of new ratings in one catalog segment and
/// SubIso a deletion batch — both non-monotone, refreshed by the bounded
/// path (`GRAPE (bounded)` rows, `peval_calls == |damaged|`).  Update
/// latency is the `seconds` column, messages saved is the difference of the
/// `messages` columns.
pub fn incremental(scale: Scale) -> Vec<RunRow> {
    let n = *worker_counts(scale).last().unwrap();
    let batch = workloads::delta_batch_size(scale);
    let mut rows = Vec::new();

    let traffic = workloads::traffic(scale);
    let delta = workloads::insertion_delta(&traffic, batch, 0xD1);
    rows.extend(run_incremental_sssp(&traffic, &delta, 0, n, "traffic"));

    let lj_undirected = workloads::livejournal(scale).to_undirected();
    let delta = workloads::insertion_delta(&lj_undirected, batch, 0xD2);
    rows.extend(run_incremental_cc(&lj_undirected, &delta, n, "livejournal"));

    let lj = workloads::livejournal(scale);
    let pattern = workloads::sim_pattern(&lj, scale, 0xD3);
    let delta = workloads::deletion_delta(&lj, batch, 0xD4);
    rows.extend(run_incremental_sim(&lj, &pattern, &delta, n, "livejournal"));

    // CF: new ratings confined to one catalog segment of a segmented
    // movielens; fragment count = segment multiple so the component-closed
    // frontier stays segmental.
    let (ratings, segments, users) = workloads::segmented_movielens(scale, 2 * n);
    let (lo, hi) = segments[0];
    let delta = workloads::segment_rating_delta(lo, hi, users, batch.min(64), 0xD5);
    rows.extend(run_incremental_cf(&ratings, &delta, 6, n, "movielens-seg"));

    // SubIso: a deletion batch on the knowledge graph; the pattern-radius
    // halo bounds the re-matching.
    let db = workloads::dbpedia(scale);
    let pattern = workloads::subiso_pattern(&db, scale, 0xD6);
    let delta = workloads::deletion_delta(&db, batch.min(16), 0xD7);
    rows.extend(run_incremental_subiso(&db, &pattern, &delta, n, "dbpedia"));

    rows
}

/// The `recompute vs retracted vs monotone` comparison: one prepared SSSP
/// query over the regional traffic network absorbs a batch of new road
/// segments (monotone path), then a batch of road closures confined to one
/// region (retracted path: the closed segments' shortest-path subtrees are
/// reset and re-derived, `peval_calls == 0`), priced against a full
/// recompute of the final graph.
pub fn refresh_comparison(scale: Scale) -> Vec<RunRow> {
    let n = *worker_counts(scale).last().unwrap();
    let batch = workloads::delta_batch_size(scale);
    let regions = n.max(2);
    let g = workloads::regional_traffic(scale, regions);
    let region = workloads::regional_size(scale);
    // New road segments, then road closures, both inside the source's
    // region — kept regional so each path's footprint stays visible (and
    // reachable from the source, so both refreshes do real work).
    let insert_delta = workloads::ranged_insertion_delta(0, region, batch.min(64), 0xD9);
    let delete_delta = workloads::ranged_deletion_delta(&g, 0, region, batch.min(64), 0xD8);
    run_refresh_comparison_sssp(&g, &insert_delta, &delete_delta, 0, n, "regional-traffic")
}

/// Figure 8 is the communication view of the Figure 6 runs; the same rows are
/// reused (every row already carries `comm_mb`).
pub fn fig8_comm(scale: Scale) -> Vec<RunRow> {
    let mut rows = Vec::new();
    rows.extend(fig6_sssp(scale));
    rows.extend(fig6_cc(scale));
    rows.extend(fig6_sim(scale));
    rows.extend(fig6_subiso(scale));
    rows.extend(fig6_cf(scale));
    rows
}

/// Figure 9: scalability over the synthetic size sweep at the largest worker
/// count (SSSP, CC, Sim, SubIso).
pub fn fig9_scalability(scale: Scale) -> Vec<RunRow> {
    let n = *worker_counts(scale).last().unwrap();
    let mut rows = Vec::new();
    for step in 0..5 {
        let g = workloads::synthetic(step, scale);
        let name = format!("synthetic-{}", step + 1);
        for system in System::all() {
            rows.push(run_sssp(system, &g, 0, n, &name));
            rows.push(run_cc(system, &g.to_undirected(), n, &name));
        }
        let sim_pattern = workloads::sim_pattern(&g, scale, 0x90 + step as u64);
        let subiso_pattern = workloads::subiso_pattern(&g, scale, 0xA0 + step as u64);
        for system in System::all() {
            rows.push(run_sim(system, &g, &sim_pattern, n, &name));
            rows.push(run_subiso(system, &g, &subiso_pattern, n, &name));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_incremental_compares_two_variants() {
        let rows = fig7_incremental(Scale::Small);
        assert!(rows.iter().any(|r| r.system == "GRAPE_NI"));
        assert!(rows.iter().any(|r| r.system == "GRAPE"));
    }

    #[test]
    fn worker_counts_are_increasing() {
        let counts = worker_counts(Scale::Medium);
        assert!(counts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn incremental_emits_a_pair_per_query_class() {
        let rows = incremental(Scale::Small);
        assert_eq!(rows.len(), 10, "five query classes, two rows each");
        for query in ["sssp", "cc", "sim"] {
            let pair: Vec<_> = rows.iter().filter(|r| r.query == query).collect();
            assert_eq!(pair.len(), 2, "{query}");
            assert!(pair.iter().any(|r| r.system == "GRAPE (incremental)"));
            assert!(pair.iter().any(|r| r.system == "GRAPE (recompute)"));
        }
        // CF and SubIso updates are non-monotone: their refresh rows record
        // the bounded path (never a silent full re-preparation for CF's
        // segment-local burst).
        let cf: Vec<_> = rows.iter().filter(|r| r.query == "cf").collect();
        assert_eq!(cf.len(), 2);
        assert!(cf.iter().any(|r| r.system == "GRAPE (bounded)"));
        assert!(cf.iter().any(|r| r.system == "GRAPE (recompute)"));
        let subiso: Vec<_> = rows.iter().filter(|r| r.query == "subiso").collect();
        assert_eq!(subiso.len(), 2);
        assert!(subiso
            .iter()
            .any(|r| r.system == "GRAPE (bounded)" || r.system == "GRAPE (full)"));
        assert!(subiso.iter().any(|r| r.system == "GRAPE (recompute)"));
    }

    #[test]
    fn refresh_comparison_emits_all_three_paths() {
        let rows = refresh_comparison(Scale::Small);
        assert_eq!(rows.len(), 3);
        let systems: Vec<&str> = rows.iter().map(|r| r.system.as_str()).collect();
        assert!(systems.contains(&"GRAPE (monotone)"));
        assert!(systems.contains(&"GRAPE (retracted)"));
        assert!(systems.contains(&"GRAPE (recompute)"));
        // The decision table's locality claim, in PEval calls: neither the
        // monotone nor the retracted path re-roots anything, the recompute
        // re-roots everything.
        let pevals_of = |s: &str| rows.iter().find(|r| r.system == s).unwrap().peval_calls;
        assert_eq!(pevals_of("GRAPE (monotone)"), 0);
        assert_eq!(pevals_of("GRAPE (retracted)"), 0);
        assert!(pevals_of("GRAPE (recompute)") > 0);
    }
}
