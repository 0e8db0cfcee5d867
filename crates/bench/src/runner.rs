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
    run_block_subiso, BlockCc, BlockCentricEngine, BlockCf, BlockSim,
};
use grape_baselines::vertex_centric::{
    VertexCc, VertexCentricEngine, VertexCf, VertexSim, VertexSssp, VertexSubIso, VertexSubIsoQuery,
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
            VertexCentricEngine::new(workers)
                .run(graph, &VertexSssp, &query)
                .1
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            grape_baselines::block_centric::run_block_sssp(&frag, &query, workers).1
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
            VertexCentricEngine::new(workers)
                .run(graph, &VertexCc, &())
                .1
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            BlockCentricEngine::new(workers).run(&frag, &BlockCc, &()).1
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
            VertexCentricEngine::new(workers)
                .run(graph, &VertexSim, pattern)
                .1
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            BlockCentricEngine::new(workers)
                .run(&frag, &BlockSim, &SimQuery::new(pattern.clone()))
                .1
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
            VertexCentricEngine::new(workers)
                .run(graph, &VertexSubIso, &query)
                .1
        }
        System::BlockCentric => {
            let frag = partition(graph, workers);
            run_block_subiso(&frag, pattern, MAX_MATCHES, workers).1
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
            VertexCentricEngine::new(workers)
                .run(&data.graph, &VertexCf, &query)
                .1
        }
        System::BlockCentric => {
            let frag = partition(&data.graph, workers);
            BlockCentricEngine::new(workers)
                .run(&frag, &BlockCf, &query)
                .1
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

/// The serving experiment: `K` standing SSSP queries multiplexed by one
/// [`grape_core::serve::GrapeServer`] over a stream of insertion deltas,
/// priced against `K` independent [`grape_core::prepared::PreparedQuery`]
/// handles absorbing the same stream.  The server applies each `ΔG` to the
/// fragmentation **once** and fans the shared
/// [`grape_partition::delta::DeltaApplication`] out to every query; the
/// independent handles re-run `apply_delta` `K` times per delta.
///
/// Row semantics: `seconds` is the **mean per-delta latency** of the whole
/// apply step (partition maintenance + every query's refresh);
/// `messages` / `comm_mb` / `supersteps` / `peval_calls` are totals across
/// the stream and all queries (identical refresh work on both sides — the
/// amortization shows up purely in `seconds`).  The two sides' answers are
/// asserted identical before the rows are emitted.
pub fn run_serving(
    graph: &Graph,
    sources: &[VertexId],
    deltas: &[grape_graph::delta::GraphDelta],
    workers: usize,
    workload: &str,
) -> Vec<RunRow> {
    use grape_core::serve::GrapeServer;
    use std::time::Instant;

    let session = grape_session(workers);
    let k = sources.len();

    #[derive(Default)]
    struct Tally {
        messages: usize,
        bytes: usize,
        supersteps: usize,
        peval_calls: usize,
    }
    impl Tally {
        fn add(&mut self, m: &EngineMetrics) {
            self.messages += m.total_messages;
            self.bytes += m.total_bytes;
            self.supersteps += m.supersteps;
            self.peval_calls += m.peval_calls;
        }
        fn row(&self, system: &str, workload: &str, workers: usize, seconds: f64) -> RunRow {
            RunRow {
                query: "sssp".to_string(),
                workload: workload.to_string(),
                system: system.to_string(),
                workers,
                seconds,
                comm_mb: self.bytes as f64 / (1024.0 * 1024.0),
                supersteps: self.supersteps,
                messages: self.messages,
                peval_calls: self.peval_calls,
            }
        }
    }

    // One server, K handles, one apply_delta per delta.
    let mut server = GrapeServer::new(session.clone(), partition(graph, workers));
    let handles: Vec<_> = sources
        .iter()
        .map(|&src| {
            server
                .register(Sssp, SsspQuery::new(src))
                .expect("register serving query")
        })
        .collect();
    let mut server_tally = Tally::default();
    let server_start = Instant::now();
    for delta in deltas {
        let report = server.apply(delta).expect("server apply");
        for refresh in report.refreshed {
            server_tally.add(&refresh.result.expect("server refresh").metrics);
        }
    }
    let server_per_delta = server_start.elapsed().as_secs_f64() / deltas.len().max(1) as f64;
    assert_eq!(server.deltas_applied(), deltas.len());

    // K independent handles: K apply_delta calls per delta.
    let mut independent: Vec<_> = sources
        .iter()
        .map(|&src| {
            session
                .prepare(partition(graph, workers), Sssp, SsspQuery::new(src))
                .expect("prepare independent handle")
        })
        .collect();
    let mut independent_tally = Tally::default();
    let independent_start = Instant::now();
    for delta in deltas {
        for prepared in independent.iter_mut() {
            let report = prepared.update(delta).expect("independent update");
            independent_tally.add(&report.metrics);
        }
    }
    let independent_per_delta =
        independent_start.elapsed().as_secs_f64() / deltas.len().max(1) as f64;

    // The amortization must not change a single answer.
    for (handle, prepared) in handles.iter().zip(&independent) {
        let served = server.output(handle).expect("server output");
        let alone = prepared.output();
        assert_eq!(
            served.distances().len(),
            alone.distances().len(),
            "serving changed an answer"
        );
        for (v, d) in served.distances() {
            let other = alone.distances()[v];
            assert!(
                (d - other).abs() < 1e-9,
                "serving changed dist({v}): {d} vs {other}"
            );
        }
    }

    vec![
        server_tally.row(
            &format!("GRAPE (server, K={k})"),
            workload,
            workers,
            server_per_delta,
        ),
        independent_tally.row(
            &format!("GRAPE (independent, K={k})"),
            workload,
            workers,
            independent_per_delta,
        ),
    ]
}

/// One cell of the serving-scaling experiment: `K` standing queries, a
/// refresh fan-out width, an arrival pattern, and the per-delta latency
/// distribution it produced.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingRow {
    /// Workload name.
    pub workload: String,
    /// Number of standing queries.
    pub k: usize,
    /// Refresh fan-out width ([`grape_core::serve::GrapeServer::threads`]).
    pub threads: usize,
    /// Arrival pattern: `stream` (one `apply` per delta) or `batch`
    /// (pipelined `apply_batch` in chunks).
    pub arrival: String,
    /// Median per-delta latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-delta latency in milliseconds.
    pub p99_ms: f64,
    /// Mean per-delta latency in milliseconds.
    pub mean_ms: f64,
    /// Sustained throughput over the whole stream.
    pub deltas_per_sec: f64,
}

/// The serving-scaling experiment: `K` standing SSSP queries on one
/// [`grape_core::serve::GrapeServer`], swept over refresh fan-out widths
/// and two arrival patterns.  The engine runs **one** worker per refresh so
/// the fan-out is the only parallelism being measured; the per-delta
/// latency distribution ([`grape_core::metrics::LatencySummary`]) and the
/// sustained deltas/sec are the tracked artifact.
///
/// Answer equality is asserted *inside* the runner: every (threads,
/// arrival) cell must produce distances identical to the first cell and to
/// a from-scratch recompute on the final graph — the fan-out and the
/// pipeline are not allowed to buy latency with wrong answers.
pub fn run_serving_scaling(
    graph: &Graph,
    sources: &[VertexId],
    deltas: &[grape_graph::delta::GraphDelta],
    thread_counts: &[usize],
    fragments: usize,
    workload: &str,
) -> Vec<ScalingRow> {
    use grape_core::serve::GrapeServer;
    use std::time::Instant;

    let session = grape_session(1);
    let k = sources.len();
    let frag = partition(graph, fragments);
    const BATCH_CHUNK: usize = 4;

    let mut rows = Vec::new();
    let mut reference: Option<Vec<grape_algorithms::sssp::SsspResult>> = None;
    for &threads in thread_counts {
        for arrival in ["stream", "batch"] {
            let mut server = GrapeServer::new(session.clone(), frag.clone()).threads(threads);
            let handles: Vec<_> = sources
                .iter()
                .map(|&src| {
                    server
                        .register(Sssp, SsspQuery::new(src))
                        .expect("register scaling query")
                })
                .collect();

            // The server records one latency sample per commit itself (the
            // same histogram `graped` exports over the wire), so the bench
            // no longer stopwatches each apply caller-side.
            let start = Instant::now();
            match arrival {
                "stream" => {
                    for delta in deltas {
                        let report = server.apply(delta).expect("scaling apply");
                        for refresh in &report.refreshed {
                            assert!(refresh.result.is_ok(), "scaling refresh failed");
                        }
                    }
                }
                _ => {
                    for chunk in deltas.chunks(BATCH_CHUNK) {
                        let batch = server.apply_batch(chunk);
                        assert!(batch.rejected.is_none(), "scaling batch rejected");
                    }
                }
            }
            let total = start.elapsed().as_secs_f64();
            assert_eq!(server.deltas_applied(), deltas.len());
            assert_eq!(
                server.latency_samples(),
                deltas.len(),
                "one latency sample per commit"
            );

            // Answer equality across every cell — and vs a recompute.
            let outputs: Vec<_> = handles
                .iter()
                .map(|h| server.output(h).expect("scaling output"))
                .collect();
            match &reference {
                None => {
                    for (i, (&src, out)) in sources.iter().zip(&outputs).enumerate() {
                        let recompute = session
                            .run(server.fragmentation(), &Sssp, &SsspQuery::new(src))
                            .expect("scaling recompute");
                        assert_eq!(
                            out.distances().len(),
                            recompute.output.distances().len(),
                            "query {i} diverged from recompute"
                        );
                        for (v, d) in out.distances() {
                            let other = recompute.output.distances()[v];
                            assert!(
                                (d - other).abs() < 1e-9,
                                "query {i}: dist({v}) {d} vs recompute {other}"
                            );
                        }
                    }
                    reference = Some(outputs);
                }
                Some(reference) => {
                    for (i, (out, base)) in outputs.iter().zip(reference).enumerate() {
                        assert_eq!(out.distances().len(), base.distances().len());
                        for (v, d) in out.distances() {
                            let other = base.distances()[v];
                            assert!(
                                (d - other).abs() < 1e-9,
                                "threads={threads} {arrival} query {i}: \
                                 dist({v}) {d} vs {other}"
                            );
                        }
                    }
                }
            }

            let summary = server.latency_summary();
            rows.push(ScalingRow {
                workload: workload.to_string(),
                k,
                threads,
                arrival: arrival.to_string(),
                p50_ms: summary.p50_ms,
                p99_ms: summary.p99_ms,
                mean_ms: summary.mean_ms,
                deltas_per_sec: deltas.len() as f64 / total.max(1e-12),
            });
        }
    }
    rows
}

/// A [`ScalingRow`] tagged with its experiment and scale — the record of
/// the `BENCH_serving_scaling.json` baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingExport {
    /// Experiment id (`serving_scaling`).
    pub experiment: String,
    /// Workload scale (`small`, `medium`, `large`).
    pub scale: String,
    /// Workload name.
    pub workload: String,
    /// Number of standing queries.
    pub k: usize,
    /// Refresh fan-out width.
    pub threads: usize,
    /// Arrival pattern (`stream` / `batch`).
    pub arrival: String,
    /// Median per-delta latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-delta latency in milliseconds.
    pub p99_ms: f64,
    /// Mean per-delta latency in milliseconds.
    pub mean_ms: f64,
    /// Sustained throughput over the whole stream.
    pub deltas_per_sec: f64,
}

/// Formats scaling rows as JSON Lines (the `BENCH_serving_scaling.json`
/// format).
pub fn format_scaling_json(experiment: &str, scale: &str, rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let export = ScalingExport {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            workload: row.workload.clone(),
            k: row.k,
            threads: row.threads,
            arrival: row.arrival.clone(),
            p50_ms: row.p50_ms,
            p99_ms: row.p99_ms,
            mean_ms: row.mean_ms,
            deltas_per_sec: row.deltas_per_sec,
        };
        out.push_str(&serde_json::to_string(&export).expect("ScalingExport serializes"));
        out.push('\n');
    }
    out
}

/// Formats scaling rows as an aligned text table.
pub fn format_scaling_table(title: &str, rows: &[ScalingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<16} {:>3} {:>7} {:<8} {:>10} {:>10} {:>10} {:>12}\n",
        "workload", "K", "threads", "arrival", "p50 (ms)", "p99 (ms)", "mean (ms)", "deltas/sec"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>3} {:>7} {:<8} {:>10.3} {:>10.3} {:>10.3} {:>12.2}\n",
            r.workload, r.k, r.threads, r.arrival, r.p50_ms, r.p99_ms, r.mean_ms, r.deltas_per_sec
        ));
    }
    out
}

/// One cell of the serving-watchers experiment: `K` standing queries, `W`
/// subscribers per query, and the push-vs-poll byte economics the
/// subscription subsystem exists to win.
#[derive(Debug, Clone, Serialize)]
pub struct WatcherRow {
    /// Workload name.
    pub workload: String,
    /// Number of standing queries.
    pub k: usize,
    /// Subscribers per query (each gets its own copy of every event).
    pub watchers: usize,
    /// Deltas in the stream.
    pub deltas: usize,
    /// Total bytes pushed: `W ×` the serialized size of every per-commit
    /// `OutputDelta` — what the daemon writes to the `W` sockets.
    pub pushed_bytes: usize,
    /// Total bytes the same `W` clients would pull by polling the full
    /// answer after every commit instead.
    pub polled_bytes: usize,
    /// `pushed_bytes / polled_bytes` — below 1.0 whenever answers are
    /// larger than their per-commit change.
    pub push_ratio: f64,
    /// Mean per-commit latency in milliseconds (the server's own
    /// histogram, including delta derivation for the watched queries).
    pub mean_ms: f64,
}

/// Exact row-level diff size between two canonical sorted answers — the
/// `|change|` that the pushed delta is asserted to be proportional to.
fn answer_diff_rows(
    before: &[(serde::Value, serde::Value)],
    after: &[(serde::Value, serde::Value)],
) -> usize {
    use grape_core::output_delta::value_cmp;
    use std::cmp::Ordering;
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < before.len() && j < after.len() {
        match value_cmp(&before[i].0, &after[j].0) {
            Ordering::Less => {
                count += 1; // removed
                i += 1;
            }
            Ordering::Greater => {
                count += 1; // added
                j += 1;
            }
            Ordering::Equal => {
                if before[i].1 != after[j].1 {
                    count += 1; // changed
                }
                i += 1;
                j += 1;
            }
        }
    }
    count + (before.len() - i) + (after.len() - j)
}

/// The serving-watchers experiment: `K` standing SSSP queries on one
/// [`grape_core::serve::GrapeServer`], each watched by `W` subscribers,
/// absorbing a stream of insertion deltas.  Per commit the server derives
/// **one** `OutputDelta` per watched query and the wire layer copies it to
/// every subscriber, so pushed bytes are `W ×` the delta size — priced here
/// against the `W ×` full-answer bytes the same clients would pull by
/// polling after every commit.
///
/// Two properties are asserted inside the runner, per commit and per query:
///
/// * **O(|change|)**: the pushed delta's row count equals the exact row
///   diff of the answer before/after the commit — never the answer size;
/// * **equality**: folding every pushed delta over the initial answer
///   reproduces the final `output()` byte-for-byte (and the final answers
///   are identical across all `W` cells).
pub fn run_serving_watchers(
    graph: &Graph,
    sources: &[VertexId],
    deltas: &[grape_graph::delta::GraphDelta],
    watcher_counts: &[usize],
    fragments: usize,
    workload: &str,
) -> Vec<WatcherRow> {
    use grape_core::output_delta::{wire_rows, DeltaOutput, OutputEvent};
    use grape_core::serve::GrapeServer;

    let session = grape_session(1);
    let k = sources.len();
    let frag = partition(graph, fragments);
    let queries: Vec<SsspQuery> = sources.iter().map(|&src| SsspQuery::new(src)).collect();

    let mut rows = Vec::new();
    let mut reference: Option<Vec<String>> = None;
    for &w in watcher_counts {
        let mut server = GrapeServer::new(session.clone(), frag.clone());
        let handles: Vec<_> = queries
            .iter()
            .map(|q| server.register(Sssp, *q).expect("register watched query"))
            .collect();
        let mut subs = Vec::new();
        for h in &handles {
            for _ in 0..w {
                subs.push(server.subscribe(h).expect("subscribe watcher"));
            }
        }

        // Each subscriber starts from the initial answer and folds pushed
        // deltas — `replay` is that client-side copy, one per query.
        let mut replay: Vec<Vec<(serde::Value, serde::Value)>> = handles
            .iter()
            .zip(&queries)
            .map(|(h, q)| {
                wire_rows(&Sssp.canonical(q, &server.output(h).expect("baseline output")))
            })
            .collect();

        let mut pushed_bytes = 0usize;
        let mut polled_bytes = 0usize;
        for delta in deltas {
            let report = server.apply(delta).expect("watchers apply");
            for refresh in &report.refreshed {
                assert!(refresh.result.is_ok(), "watchers refresh failed");
            }
            for qd in server.drain_events() {
                let idx = handles
                    .iter()
                    .position(|h| h.id() == qd.query)
                    .expect("event for a watched query");
                let OutputEvent::Delta(d) = qd.event else {
                    panic!("healthy query pushed a poison event");
                };
                let before = replay[idx].clone();
                d.apply_to(&mut replay[idx]);
                // O(|change|): pushed rows are exactly the answer diff.
                assert_eq!(
                    d.len(),
                    answer_diff_rows(&before, &replay[idx]),
                    "pushed delta must carry exactly the changed rows"
                );
                let event_bytes = serde_json::to_string(&d.changed)
                    .expect("delta serializes")
                    .len()
                    + serde_json::to_string(&d.removed)
                        .expect("delta serializes")
                        .len();
                pushed_bytes += w * event_bytes;
                polled_bytes += w * serde_json::to_string(&replay[idx])
                    .expect("answer serializes")
                    .len();
            }
        }
        assert_eq!(server.deltas_applied(), deltas.len());
        assert!(
            pushed_bytes <= polled_bytes,
            "pushing deltas must not cost more than polling answers \
             ({pushed_bytes} vs {polled_bytes})"
        );

        // Equality: every subscriber's folded copy is byte-identical to the
        // final answer, and the final answers agree across all W cells.
        let finals: Vec<String> = handles
            .iter()
            .zip(&queries)
            .zip(&replay)
            .map(|((h, q), folded)| {
                let expect = serde_json::to_string(&wire_rows(
                    &Sssp.canonical(q, &server.output(h).expect("final output")),
                ))
                .expect("answer serializes");
                let got = serde_json::to_string(folded).expect("answer serializes");
                assert_eq!(got, expect, "folded deltas diverged from output()");
                expect
            })
            .collect();
        match &reference {
            None => reference = Some(finals),
            Some(reference) => assert_eq!(
                &finals, reference,
                "final answers must not depend on the watcher count"
            ),
        }
        for sub in subs {
            server.unsubscribe(sub).expect("unsubscribe watcher");
        }

        rows.push(WatcherRow {
            workload: workload.to_string(),
            k,
            watchers: w,
            deltas: deltas.len(),
            pushed_bytes,
            polled_bytes,
            push_ratio: pushed_bytes as f64 / polled_bytes.max(1) as f64,
            mean_ms: server.latency_summary().mean_ms,
        });
    }
    rows
}

/// A [`WatcherRow`] tagged with its experiment and scale — the record of
/// the `BENCH_serving_watchers.json` baseline.
#[derive(Debug, Clone, Serialize)]
pub struct WatcherExport {
    /// Experiment id (`serving_watchers`).
    pub experiment: String,
    /// Workload scale (`small`, `medium`, `large`).
    pub scale: String,
    /// Workload name.
    pub workload: String,
    /// Number of standing queries.
    pub k: usize,
    /// Subscribers per query.
    pub watchers: usize,
    /// Deltas in the stream.
    pub deltas: usize,
    /// Total bytes pushed to all subscribers.
    pub pushed_bytes: usize,
    /// Total bytes the same clients would poll.
    pub polled_bytes: usize,
    /// `pushed_bytes / polled_bytes`.
    pub push_ratio: f64,
    /// Mean per-commit latency in milliseconds.
    pub mean_ms: f64,
}

/// Formats watcher rows as JSON Lines (the `BENCH_serving_watchers.json`
/// format).
pub fn format_watchers_json(experiment: &str, scale: &str, rows: &[WatcherRow]) -> String {
    let mut out = String::new();
    for row in rows {
        let export = WatcherExport {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            workload: row.workload.clone(),
            k: row.k,
            watchers: row.watchers,
            deltas: row.deltas,
            pushed_bytes: row.pushed_bytes,
            polled_bytes: row.polled_bytes,
            push_ratio: row.push_ratio,
            mean_ms: row.mean_ms,
        };
        out.push_str(&serde_json::to_string(&export).expect("WatcherExport serializes"));
        out.push('\n');
    }
    out
}

/// Formats watcher rows as an aligned text table.
pub fn format_watchers_table(title: &str, rows: &[WatcherRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<16} {:>3} {:>8} {:>7} {:>13} {:>13} {:>7} {:>10}\n",
        "workload", "K", "watchers", "deltas", "pushed (B)", "polled (B)", "ratio", "mean (ms)"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>3} {:>8} {:>7} {:>13} {:>13} {:>7.3} {:>10.3}\n",
            r.workload,
            r.k,
            r.watchers,
            r.deltas,
            r.pushed_bytes,
            r.polled_bytes,
            r.push_ratio,
            r.mean_ms
        ));
    }
    out
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
    /// Messages shipped.
    pub messages: usize,
    /// `PEval` invocations (see [`RunRow::peval_calls`]).
    pub peval_calls: usize,
}

impl ExportRow {
    /// Tags a measured row with its experiment and scale.
    pub fn new(experiment: &str, scale: &str, row: &RunRow) -> Self {
        ExportRow {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            query: row.query.clone(),
            workload: row.workload.clone(),
            system: row.system.clone(),
            workers: row.workers,
            seconds: row.seconds,
            comm_mb: row.comm_mb,
            supersteps: row.supersteps,
            messages: row.messages,
            peval_calls: row.peval_calls,
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
