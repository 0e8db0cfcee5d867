//! The shapes of the paper's figures, asserted over exact counts.
//!
//! Each helper takes the rows of one `experiments::*` function — the rows
//! the `experiments` binary prints — and asserts the inequalities the paper
//! draws from that figure on `comm_mb`, `messages`, `supersteps` and
//! `peval_calls`.  Tier-1 runs every helper at `Scale::Small`.  The
//! `#[ignore]`d tests run the same helpers at `Scale::Large` (millions of
//! edges, minutes of runtime) in the nightly profile:
//!
//! ```text
//! cargo test --release -p grape-bench --test paper_shapes -- --ignored
//! ```
//!
//! Claims about time alone (Fig 7(a) and 7(b)) are printed by the binary,
//! not asserted: both sides of those figures do identical counted work.

use grape_bench::experiments;
use grape_bench::runner::RunRow;
use grape_bench::workloads::Scale;
use grape_core::config::EngineMode;

/// One plotted point: the three systems' rows for one query, workload and
/// worker count.
struct Point<'a> {
    grape: &'a RunRow,
    block: &'a RunRow,
    vertex: &'a RunRow,
}

/// Splits `rows` into points, requiring exactly one row per system each.
fn points(rows: &[RunRow]) -> Vec<Point<'_>> {
    let mut keys: Vec<(&str, &str, usize)> = rows
        .iter()
        .map(|r| (r.query.as_str(), r.workload.as_str(), r.workers))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let points: Vec<Point<'_>> = keys
        .into_iter()
        .map(|(query, workload, workers)| {
            let find = |system: &str| {
                let mut matching = rows.iter().filter(|r| {
                    (
                        r.query.as_str(),
                        r.workload.as_str(),
                        r.workers,
                        r.system.as_str(),
                    ) == (query, workload, workers, system)
                });
                let row = matching.next().unwrap_or_else(|| {
                    panic!("{query} on {workload}, n = {workers}: no {system} row")
                });
                assert!(
                    matching.next().is_none(),
                    "two {system} rows for {query} on {workload}"
                );
                row
            };
            Point {
                grape: find("GRAPE"),
                block: find("block-centric"),
                vertex: find("vertex-centric"),
            }
        })
        .collect();
    assert_eq!(points.len() * 3, rows.len(), "rows outside any point");
    points
}

/// Whether GRAPE runs BSP, the paper's model.  The barrier-free runtime
/// (`GRAPE_ENGINE_MODE=async`) ships values that a later round may improve
/// and counts supersteps by how threads interleave, so GRAPE's supersteps
/// and its thin-margin counts are compared under BSP only.
fn bsp() -> bool {
    EngineMode::default_from_env() == EngineMode::Sync
}

/// The per-family claims of Table 1 and Figs 6, 8 and 9 at one point.
fn assert_point(p: &Point<'_>) {
    let (g, b, v) = (p.grape, p.block, p.vertex);
    let at = format!("{} on {}, n = {}", g.query, g.workload, g.workers);
    let comm = format!(
        "{at}: comm GRAPE {} / block {} / vertex {} MB",
        g.comm_mb, b.comm_mb, v.comm_mb
    );
    let steps = format!(
        "{at}: supersteps GRAPE {} / block {} / vertex {}",
        g.supersteps, b.supersteps, v.supersteps
    );
    match g.query.as_str() {
        "sssp" | "cc" => {
            assert!(g.comm_mb < v.comm_mb, "{comm}");
            assert!(b.supersteps < v.supersteps, "{steps}");
            // On SSSP over dbpedia at n = 4 the block-centric baseline ships
            // more than the vertex-centric one, so only CC asserts it.
            if g.query == "cc" {
                assert!(b.comm_mb < v.comm_mb, "{comm}");
            }
            if bsp() {
                assert!(g.comm_mb <= b.comm_mb, "{comm}");
                assert!(g.supersteps <= b.supersteps, "{steps}");
            }
        }
        "sim" => {
            assert_eq!(g.messages, b.messages, "{at}: Sim messages");
            assert!(g.comm_mb <= b.comm_mb && b.comm_mb < v.comm_mb, "{comm}");
        }
        "subiso" => {
            assert!(g.comm_mb < v.comm_mb && v.comm_mb < b.comm_mb, "{comm}");
            assert!(g.supersteps < b.supersteps.min(v.supersteps), "{steps}");
        }
        "cf" => assert!(g.comm_mb < b.comm_mb.min(v.comm_mb), "{comm}"),
        other => panic!("{at}: no shape for query class {other:?}"),
    }
}

/// Table 1: SSSP on traffic, one row per system.
fn table1_shape(rows: &[RunRow]) {
    let points = points(rows);
    assert_eq!(points.len(), 1, "Table 1 is one point");
    assert_eq!(points[0].grape.query, "sssp");
    assert_eq!(points[0].grape.workload, "traffic");
    assert_point(&points[0]);
}

/// Figs 6 and 8 (one family's rows of `fig6_*`; Fig 8 reads the same runs'
/// `comm_mb`) and Fig 9 (every family at each synthetic size).
fn systems_shape(rows: &[RunRow]) {
    let points = points(rows);
    assert!(!points.is_empty(), "no rows");
    points.iter().for_each(assert_point);
}

/// The incremental rows: a monotone refresh runs no PEval and, under BSP,
/// ships no more than recompute; CF's bounded refresh runs fewer PEvals.
/// SubIso's refresh takes the full path, so its pair is not compared.
fn incremental_shape(rows: &[RunRow]) {
    let row = |query: &str, system: &str| {
        rows.iter()
            .find(|r| r.query == query && r.system == system)
            .unwrap_or_else(|| panic!("no {system} row for {query}"))
    };
    for query in ["sssp", "cc", "sim"] {
        let (incremental, recompute) = (
            row(query, "GRAPE (incremental)"),
            row(query, "GRAPE (recompute)"),
        );
        assert_eq!(incremental.peval_calls, 0, "{query}: incremental PEval");
        if bsp() {
            assert!(
                incremental.messages <= recompute.messages,
                "{query}: incremental {} vs recompute {} messages",
                incremental.messages,
                recompute.messages
            );
        }
    }
    let (bounded, recompute) = (row("cf", "GRAPE (bounded)"), row("cf", "GRAPE (recompute)"));
    assert!(
        bounded.peval_calls < recompute.peval_calls,
        "cf: bounded {} vs recompute {} PEvals",
        bounded.peval_calls,
        recompute.peval_calls
    );
}

#[test]
fn table1() {
    table1_shape(&experiments::table1(Scale::Small));
}

#[test]
fn fig6_fig8_sssp() {
    systems_shape(&experiments::fig6_sssp(Scale::Small));
}

#[test]
fn fig6_fig8_cc() {
    systems_shape(&experiments::fig6_cc(Scale::Small));
}

#[test]
fn fig6_fig8_sim() {
    systems_shape(&experiments::fig6_sim(Scale::Small));
}

#[test]
fn fig6_fig8_subiso() {
    systems_shape(&experiments::fig6_subiso(Scale::Small));
}

#[test]
fn fig6_fig8_cf() {
    systems_shape(&experiments::fig6_cf(Scale::Small));
}

#[test]
fn fig9() {
    systems_shape(&experiments::fig9_scalability(Scale::Small));
}

#[test]
fn incremental() {
    incremental_shape(&experiments::incremental(Scale::Small));
}

#[test]
#[ignore = "nightly profile: millions of edges, minutes of runtime"]
fn table1_at_large_scale() {
    table1_shape(&experiments::table1(Scale::Large));
}

#[test]
#[ignore = "nightly profile: millions of edges, minutes of runtime"]
fn incremental_at_large_scale() {
    let rows = experiments::incremental(Scale::Large);
    incremental_shape(&rows);
    let seconds = |system: &str| {
        rows.iter()
            .find(|r| r.query == "sssp" && r.system == system)
            .map(|r| r.seconds)
            .unwrap()
    };
    let (incremental, recompute) = (seconds("GRAPE (incremental)"), seconds("GRAPE (recompute)"));
    assert!(
        incremental < recompute,
        "sssp: incremental {incremental}s vs recompute {recompute}s"
    );
}
