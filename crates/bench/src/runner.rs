//! Runners that execute one query class on one workload under each of the
//! three systems (GRAPE, vertex-centric, block-centric) and report the
//! metrics the paper plots: response time, communication volume, supersteps.

use grape_core::metrics::EngineMetrics;
use grape_core::session::GrapeSession;
use grape_graph::generators::RatingData;
use grape_graph::graph::Graph;
use grape_graph::pattern::Pattern;
use grape_graph::types::VertexId;
use grape_partition::edge_cut::RangeEdgeCut;
use grape_partition::fragment::Fragmentation;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;
use serde::Serialize;

use grape_algorithms::cc::{Cc, CcQuery};
use grape_algorithms::cf::CfQuery;
use grape_algorithms::sim::{Sim, SimNi, SimQuery};
use grape_algorithms::sssp::{Sssp, SsspQuery};
use grape_algorithms::subiso::{SubIso, SubIsoQuery};

use grape_baselines::block_centric::{
    run_block, run_block_subiso, BlockCc, BlockCf, BlockSim, BlockSssp,
};
use grape_baselines::vertex_centric::{
    run_vertex, VertexCc, VertexCf, VertexSim, VertexSssp, VertexSubIso, VertexSubIsoQuery,
};

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// The GRAPE engine running PIE programs.
    Grape,
    /// The vertex-centric baseline (Giraph / synchronous GraphLab model).
    VertexCentric,
    /// The block-centric baseline (Blogel model).
    BlockCentric,
}

impl System {
    /// All systems, in the order the paper's tables list them.
    pub fn all() -> [System; 3] {
        [System::VertexCentric, System::BlockCentric, System::Grape]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::Grape => "GRAPE",
            System::VertexCentric => "vertex-centric",
            System::BlockCentric => "block-centric",
        }
    }
}

/// One measured configuration — a row of a paper table / one point of a
/// figure.
#[derive(Debug, Clone, Serialize)]
pub struct RunRow {
    /// Query class (sssp, cc, sim, subiso, cf).
    pub query: String,
    /// Workload name.
    pub workload: String,
    /// System measured.
    pub system: String,
    /// Number of workers `n`.
    pub workers: usize,
    /// Response time in seconds.
    pub seconds: f64,
    /// Communication volume in megabytes.
    pub comm_mb: f64,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Messages shipped (for incremental refreshes this includes the
    /// `ΔG`-derived seed messages) — what the `incremental` experiment's
    /// messages-saved comparison reads.
    pub messages: usize,
    /// `PEval` invocations: `fragments` for a full run, `0` for a monotone
    /// refresh, the damage-frontier size for a bounded refresh — what the
    /// `refresh_comparison` experiment's locality claim reads.
    pub peval_calls: usize,
}

impl RunRow {
    fn from_metrics(
        query: &str,
        workload: &str,
        system: System,
        workers: usize,
        m: &EngineMetrics,
    ) -> Self {
        RunRow {
            query: query.to_string(),
            workload: workload.to_string(),
            system: system.name().to_string(),
            workers,
            seconds: m.seconds(),
            comm_mb: m.comm_megabytes(),
            supersteps: m.supersteps,
            messages: m.total_messages,
            peval_calls: m.peval_calls,
        }
    }
}

/// Partitions `graph` into `workers` fragments with the default strategy
/// (METIS-like, as in the paper).
pub fn partition(graph: &Graph, workers: usize) -> Fragmentation {
    MetisLike::new(workers.max(1))
        .partition(graph)
        .expect("partition")
}

fn grape_session(workers: usize) -> GrapeSession {
    GrapeSession::with_workers(workers)
}

/// Runs SSSP on one system.
pub fn run_sssp(
    system: System,
    graph: &Graph,
    source: VertexId,
    workers: usize,
    workload: &str,
) -> RunRow {
    let query = SsspQuery::new(source);
    let metrics = match system {
        System::Grape => {
            let frag = partition(graph, workers);
            grape_session(workers)
                .run(&frag, &Sssp, &query)
                .expect("grape sssp")
                .metrics
        }
        System::VertexCentric => {
            run_vertex(graph, &VertexSssp, &query, workers)
                .expect("vertex-centric run")
                .metrics
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            run_block(&frag, &BlockSssp, &query, workers)
                .expect("block-centric sssp")
                .metrics
        }
    };
    RunRow::from_metrics("sssp", workload, system, workers, &metrics)
}

/// Runs CC on one system.
pub fn run_cc(system: System, graph: &Graph, workers: usize, workload: &str) -> RunRow {
    let metrics = match system {
        System::Grape => {
            let frag = partition(graph, workers);
            grape_session(workers)
                .run(&frag, &Cc, &CcQuery)
                .expect("grape cc")
                .metrics
        }
        System::VertexCentric => {
            run_vertex(graph, &VertexCc, &(), workers)
                .expect("vertex-centric run")
                .metrics
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            run_block(&frag, &BlockCc, &(), workers)
                .expect("block-centric cc")
                .metrics
        }
    };
    RunRow::from_metrics("cc", workload, system, workers, &metrics)
}

/// Runs graph simulation on one system.
pub fn run_sim(
    system: System,
    graph: &Graph,
    pattern: &Pattern,
    workers: usize,
    workload: &str,
) -> RunRow {
    let metrics = match system {
        System::Grape => {
            let frag = partition(graph, workers);
            grape_session(workers)
                .run(&frag, &Sim::new(), &SimQuery::new(pattern.clone()))
                .expect("grape sim")
                .metrics
        }
        System::VertexCentric => {
            run_vertex(graph, &VertexSim, pattern, workers)
                .expect("vertex-centric run")
                .metrics
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            run_block(&frag, &BlockSim, &SimQuery::new(pattern.clone()), workers)
                .expect("block-centric sim")
                .metrics
        }
    };
    RunRow::from_metrics("sim", workload, system, workers, &metrics)
}

/// Runs the GRAPE_NI (non-incremental) simulation variant — Exp-2.
pub fn run_sim_ni(graph: &Graph, pattern: &Pattern, workers: usize, workload: &str) -> RunRow {
    let frag = partition(graph, workers);
    let metrics = grape_session(workers)
        .run(&frag, &SimNi, &SimQuery::new(pattern.clone()))
        .expect("grape sim-ni")
        .metrics;
    RunRow {
        system: "GRAPE_NI".to_string(),
        ..RunRow::from_metrics("sim", workload, System::Grape, workers, &metrics)
    }
}

/// Runs the index-optimized simulation variant — Exp-3.
pub fn run_sim_optimized(
    graph: &Graph,
    pattern: &Pattern,
    workers: usize,
    workload: &str,
) -> RunRow {
    let frag = partition(graph, workers);
    let metrics = grape_session(workers)
        .run(&frag, &Sim::with_index(), &SimQuery::new(pattern.clone()))
        .expect("grape sim-opt")
        .metrics;
    RunRow {
        system: "GRAPE (optimized)".to_string(),
        ..RunRow::from_metrics("sim", workload, System::Grape, workers, &metrics)
    }
}

/// Runs subgraph isomorphism on one system.
pub fn run_subiso(
    system: System,
    graph: &Graph,
    pattern: &Pattern,
    workers: usize,
    workload: &str,
) -> RunRow {
    const MAX_MATCHES: usize = 20_000;
    let metrics = match system {
        System::Grape => {
            let frag = partition(graph, workers);
            grape_session(workers)
                .run(
                    &frag,
                    &SubIso,
                    &SubIsoQuery::new(pattern.clone()).with_max_matches(MAX_MATCHES),
                )
                .expect("grape subiso")
                .metrics
        }
        System::VertexCentric => {
            let query = VertexSubIsoQuery {
                pattern: pattern.clone(),
                max_matches_per_vertex: MAX_MATCHES,
            };
            run_vertex(graph, &VertexSubIso, &query, workers)
                .expect("vertex-centric run")
                .metrics
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            run_block_subiso(&frag, pattern, MAX_MATCHES, workers)
                .expect("block-centric subiso")
                .1
        }
    };
    RunRow::from_metrics("subiso", workload, system, workers, &metrics)
}

/// Runs collaborative filtering on one system.
pub fn run_cf(
    system: System,
    data: &RatingData,
    epochs: usize,
    workers: usize,
    workload: &str,
) -> RunRow {
    let query = CfQuery {
        epochs,
        num_factors: 8,
        ..Default::default()
    };
    let metrics = match system {
        System::Grape => {
            let frag = partition(&data.graph, workers);
            grape_session(workers)
                .run(&frag, &grape_algorithms::cf::Cf, &query)
                .expect("grape cf")
                .metrics
        }
        System::VertexCentric => {
            run_vertex(&data.graph, &VertexCf, &query, workers)
                .expect("vertex-centric run")
                .metrics
        }
        System::BlockCentric => {
            let frag = partition(&data.graph, workers);
            run_block(&frag, &BlockCf, &query, workers)
                .expect("block-centric cf")
                .metrics
        }
    };
    RunRow::from_metrics("cf", workload, system, workers, &metrics)
}

/// A GRAPE row with an explicit system label (the refresh-path tags of the
/// incremental experiments: `GRAPE (incremental)`, `GRAPE (bounded)`, …).
fn labeled_row(
    query_name: &str,
    workload: &str,
    workers: usize,
    metrics: &EngineMetrics,
    system: &str,
) -> RunRow {
    RunRow {
        system: system.to_string(),
        ..RunRow::from_metrics(query_name, workload, System::Grape, workers, metrics)
    }
}

/// Prices a full recompute of the prepared query's *current* graph — the
/// `GRAPE (recompute)` baseline row shared by every refresh experiment.
fn recompute_row<P: grape_core::pie::IncrementalPie>(
    session: &GrapeSession,
    prepared: &grape_core::prepared::PreparedQuery<P>,
    query_name: &str,
    workload: &str,
    workers: usize,
) -> RunRow {
    let recompute = session
        .run(
            prepared.fragmentation(),
            prepared.program(),
            prepared.query(),
        )
        .expect("full recompute on the updated graph");
    labeled_row(
        query_name,
        workload,
        workers,
        &recompute.metrics,
        "GRAPE (recompute)",
    )
}

/// Prepares `program` over `graph`, applies `delta` through
/// [`grape_core::prepared::PreparedQuery::update`], and measures the refresh
/// against a full recompute on the updated graph (same partition, same
/// session): two rows, `GRAPE (incremental)` and `GRAPE (recompute)`.
/// Update latency is the row's `seconds`; messages saved is the difference
/// of the two rows' `messages`.
fn run_incremental_pair<P>(
    query_name: &str,
    workload: &str,
    graph: &Graph,
    delta: &grape_graph::delta::GraphDelta,
    program: P,
    query: P::Query,
    workers: usize,
) -> Vec<RunRow>
where
    P: grape_core::pie::IncrementalPie,
{
    let frag = partition(graph, workers);
    let session = grape_session(workers);
    let mut prepared = session
        .prepare(frag, program, query)
        .expect("prepare for incremental experiment");
    let report = prepared.update(delta).expect("apply delta");
    assert!(
        report.incremental,
        "the incremental experiment feeds monotone deltas only"
    );
    vec![
        labeled_row(
            query_name,
            workload,
            workers,
            &report.metrics,
            "GRAPE (incremental)",
        ),
        recompute_row(&session, &prepared, query_name, workload, workers),
    ]
}

/// The update-latency experiment for SSSP: a batch of edge insertions.
pub fn run_incremental_sssp(
    graph: &Graph,
    delta: &grape_graph::delta::GraphDelta,
    source: VertexId,
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    run_incremental_pair(
        "sssp",
        workload,
        graph,
        delta,
        Sssp,
        SsspQuery::new(source),
        workers,
    )
}

/// The update-latency experiment for CC: a batch of edge insertions.
pub fn run_incremental_cc(
    graph: &Graph,
    delta: &grape_graph::delta::GraphDelta,
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    run_incremental_pair("cc", workload, graph, delta, Cc, CcQuery, workers)
}

/// The update-latency experiment for Sim: a batch of edge deletions.
pub fn run_incremental_sim(
    graph: &Graph,
    pattern: &Pattern,
    delta: &grape_graph::delta::GraphDelta,
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    run_incremental_pair(
        "sim",
        workload,
        graph,
        delta,
        Sim::new(),
        SimQuery::new(pattern.clone()),
        workers,
    )
}

/// Prepares over an explicit (locality-aligned) fragmentation, applies one
/// `ΔG` through the update path it naturally takes, and pairs it with a
/// full recompute on the updated graph.  The first row's system name
/// records the refresh kind — `GRAPE (monotone)`, `GRAPE (retracted)`,
/// `GRAPE (bounded)` or `GRAPE (full)` — so the experiment output shows
/// which decision-table row fired; `supersteps`/`messages`/`seconds` quantify what it saved.
fn run_refresh_pair<P>(
    query_name: &str,
    workload: &str,
    frag: Fragmentation,
    delta: &grape_graph::delta::GraphDelta,
    program: P,
    query: P::Query,
    workers: usize,
) -> Vec<RunRow>
where
    P: grape_core::pie::IncrementalPie,
{
    let session = grape_session(workers);
    let mut prepared = session
        .prepare(frag, program, query)
        .expect("prepare for refresh experiment");
    let report = prepared.update(delta).expect("apply delta");
    let label = match report.kind {
        grape_core::prepared::RefreshKind::Monotone => "GRAPE (monotone)",
        grape_core::prepared::RefreshKind::Retracted => "GRAPE (retracted)",
        grape_core::prepared::RefreshKind::Bounded => "GRAPE (bounded)",
        grape_core::prepared::RefreshKind::Full => "GRAPE (full)",
    };
    vec![
        labeled_row(query_name, workload, workers, &report.metrics, label),
        recompute_row(&session, &prepared, query_name, workload, workers),
    ]
}

/// The update-latency experiment for CF: a burst of new ratings confined to
/// one catalog segment of a [`crate::workloads::segmented_movielens`]
/// workload.  The epoch-seeded refresh retrains only the quotient
/// component(s) of the touched segment (`GRAPE (bounded)` row) against a
/// full retrain (`GRAPE (recompute)` row).  Range-partitioned so fragments
/// align with the segments' contiguous id ranges.
pub fn run_incremental_cf(
    graph: &Graph,
    delta: &grape_graph::delta::GraphDelta,
    epochs: usize,
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    let query = CfQuery {
        epochs,
        num_factors: 8,
        ..Default::default()
    };
    let frag = RangeEdgeCut::new(workers.max(1))
        .partition(graph)
        .expect("partition");
    run_refresh_pair(
        "cf",
        workload,
        frag,
        delta,
        grape_algorithms::cf::Cf,
        query,
        workers,
    )
}

/// The update-latency experiment for SubIso: a batch of edge deletions;
/// the pattern-radius halo re-expands and re-matches only the fragments
/// within `d_Q + 1` quotient hops of the damage.
pub fn run_incremental_subiso(
    graph: &Graph,
    pattern: &Pattern,
    delta: &grape_graph::delta::GraphDelta,
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    const MAX_MATCHES: usize = 20_000;
    let frag = partition(graph, workers);
    run_refresh_pair(
        "subiso",
        workload,
        frag,
        delta,
        SubIso,
        SubIsoQuery::new(pattern.clone()).with_max_matches(MAX_MATCHES),
        workers,
    )
}

/// The `recompute vs retracted vs monotone` comparison on the regional
/// traffic workload: from one prepared SSSP query, (1) a batch of new road
/// segments takes the monotone IncEval-only path, then (2) a batch of road
/// closures confined to the first region is retracted (the shortest-path
/// subtrees of the closed segments are reset and re-derived by IncEval,
/// no PEval), and (3) the recompute row prices answering the final graph
/// from scratch.  Range-partitioned into **two fragments per region**, so
/// fragments align with regions while intra-region borders keep real
/// message traffic in every row.
pub fn run_refresh_comparison_sssp(
    graph: &Graph,
    insert_delta: &grape_graph::delta::GraphDelta,
    delete_delta: &grape_graph::delta::GraphDelta,
    source: VertexId,
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    let session = grape_session(workers);
    let frag = RangeEdgeCut::new(2 * workers.max(1))
        .partition(graph)
        .expect("partition");
    let query = SsspQuery::new(source);
    let mut prepared = session.prepare(frag, Sssp, query).expect("prepare");

    let monotone = prepared.update(insert_delta).expect("insert batch");
    assert!(
        monotone.incremental,
        "road-segment insertions take the monotone path"
    );
    let retracted = prepared.update(delete_delta).expect("deletion batch");
    assert_eq!(
        retracted.kind,
        grape_core::prepared::RefreshKind::Retracted,
        "road closures retract their shortest-path subtrees"
    );
    assert_eq!(retracted.metrics.peval_calls, 0);

    vec![
        labeled_row(
            "sssp",
            workload,
            workers,
            &monotone.metrics,
            "GRAPE (monotone)",
        ),
        labeled_row(
            "sssp",
            workload,
            workers,
            &retracted.metrics,
            "GRAPE (retracted)",
        ),
        recompute_row(&session, &prepared, "sssp", workload, workers),
    ]
}

/// A [`RunRow`] tagged with the experiment (table/figure) and scale it came
/// from — the machine-readable record emitted by `experiments --format
/// json|csv`, one per (algorithm, system, scale) run, so figures can be
/// regenerated and regressions tracked.
#[derive(Debug, Clone, Serialize)]
pub struct ExportRow {
    /// Experiment id, e.g. `table1` or `fig6_sssp`.
    pub experiment: String,
    /// Workload scale (`small`, `medium`, `large`).
    pub scale: String,
    /// The measured row, its fields inlined after the two tags.
    #[serde(flatten)]
    pub row: RunRow,
}

impl ExportRow {
    /// Tags a measured row with its experiment and scale.
    pub fn new(experiment: &str, scale: &str, row: &RunRow) -> Self {
        ExportRow {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            row: row.clone(),
        }
    }
}

/// The CSV header matching [`format_rows_csv`].
pub const CSV_HEADER: &str =
    "experiment,scale,query,workload,system,workers,seconds,comm_mb,supersteps,messages,peval_calls";

/// Formats rows as JSON Lines — one self-describing object per run.
pub fn format_rows_json(experiment: &str, scale: &str, rows: &[RunRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let export = ExportRow::new(experiment, scale, row);
        out.push_str(&serde_json::to_string(&export).expect("ExportRow serializes"));
        out.push('\n');
    }
    out
}

/// Formats rows as CSV records (no header; see [`CSV_HEADER`]).  Fields are
/// simple identifiers and numbers, except system names, which may contain
/// spaces/parentheses and are therefore quoted.
pub fn format_rows_csv(experiment: &str, scale: &str, rows: &[RunRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{},\"{}\",{},{:.6},{:.6},{},{},{}\n",
            experiment,
            scale,
            row.query,
            row.workload,
            row.system.replace('"', "\"\""),
            row.workers,
            row.seconds,
            row.comm_mb,
            row.supersteps,
            row.messages,
            row.peval_calls
        ));
    }
    out
}

/// Formats a slice of rows as an aligned text table (what the `experiments`
/// binary prints for every table/figure).
pub fn format_table(title: &str, rows: &[RunRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<10} {:<16} {:<20} {:>3} {:>12} {:>12} {:>10} {:>10} {:>7}\n",
        "query",
        "workload",
        "system",
        "n",
        "time (s)",
        "comm (MB)",
        "supersteps",
        "messages",
        "pevals"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:<16} {:<20} {:>3} {:>12.4} {:>12.4} {:>10} {:>10} {:>7}\n",
            r.query,
            r.workload,
            r.system,
            r.workers,
            r.seconds,
            r.comm_mb,
            r.supersteps,
            r.messages,
            r.peval_calls
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Scale};

    #[test]
    fn all_systems_produce_rows_for_sssp() {
        let g = workloads::traffic(Scale::Small);
        for system in System::all() {
            let row = run_sssp(system, &g, 0, 2, "traffic");
            assert_eq!(row.query, "sssp");
            assert!(row.seconds >= 0.0);
            assert!(row.supersteps >= 1);
        }
    }

    #[test]
    fn grape_ships_less_than_vertex_centric_on_traffic_sssp() {
        let g = workloads::traffic(Scale::Small);
        let grape = run_sssp(System::Grape, &g, 0, 4, "traffic");
        let vertex = run_sssp(System::VertexCentric, &g, 0, 4, "traffic");
        assert!(
            grape.comm_mb < vertex.comm_mb,
            "{} vs {}",
            grape.comm_mb,
            vertex.comm_mb
        );
        assert!(grape.supersteps < vertex.supersteps);
    }

    #[test]
    fn incremental_rows_come_in_pairs() {
        let g = workloads::traffic(Scale::Small);
        let delta = workloads::insertion_delta(&g, 16, 1);
        let rows = run_incremental_sssp(&g, &delta, 0, 2, "traffic");
        assert_eq!(rows.len(), 2);
        let incr = rows
            .iter()
            .find(|r| r.system == "GRAPE (incremental)")
            .unwrap();
        let full = rows
            .iter()
            .find(|r| r.system == "GRAPE (recompute)")
            .unwrap();
        assert_eq!(incr.query, "sssp");
        // The whole point: refreshing from retained partials ships less than
        // recomputing from scratch.
        assert!(
            incr.messages <= full.messages,
            "incremental {} vs recompute {}",
            incr.messages,
            full.messages
        );
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let g = workloads::livejournal(Scale::Small);
        let rows = vec![run_cc(System::Grape, &g, 2, "livejournal")];
        let table = format_table("test", &rows);
        assert!(table.contains("GRAPE"));
        assert!(table.contains("livejournal"));
    }

    #[test]
    fn json_rows_are_one_parsable_object_per_run() {
        let g = workloads::traffic(Scale::Small);
        let rows = vec![
            run_sssp(System::Grape, &g, 0, 2, "traffic"),
            run_sssp(System::VertexCentric, &g, 0, 2, "traffic"),
        ];
        let json = format_rows_json("table1", "small", &rows);
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let value: serde::Value = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(
                value.get_field("experiment").and_then(|v| v.as_str()),
                Some("table1")
            );
            assert_eq!(
                value.get_field("scale").and_then(|v| v.as_str()),
                Some("small")
            );
            assert!(value.get_field("supersteps").is_some());
            assert!(value.get_field("seconds").is_some());
        }
    }

    #[test]
    fn csv_rows_match_the_header_arity() {
        let g = workloads::traffic(Scale::Small);
        let rows = vec![run_cc(System::Grape, &g, 2, "traffic")];
        let csv = format_rows_csv("fig6_cc", "small", &rows);
        let header_fields = CSV_HEADER.split(',').count();
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), header_fields, "line: {line}");
            assert!(line.starts_with("fig6_cc,small,cc,traffic,"));
        }
    }
}
