//! Road-network analysis: the workload behind Table 1 of the paper, now
//! served as a *prepared query over an evolving road network*.
//!
//! Generates a grid road network (the stand-in for the `traffic` dataset),
//! compares the METIS-like partition against hash partitioning, **prepares**
//! SSSP under GRAPE (PEval once, partials retained), then absorbs live
//! updates: opening a new road segment is an edge insertion — monotone for
//! SSSP, so the refresh runs IncEval only, with zero PEval calls — and a
//! road closure is a deletion, **retracted**: only the shortest-path
//! subtree that ran over the closed road is reset and re-derived by
//! IncEval, again with zero PEval calls.  The vertex-centric baseline is
//! re-run from scratch for the comparison row.
//!
//! ```text
//! cargo run --release --example road_network
//! ```

use grape::baselines::vertex_centric::{run_vertex, VertexSssp};
use grape::partition::quality;
use grape::prelude::*;

fn main() {
    let graph = generators::road_grid(80, 80, 7);
    println!(
        "road network: {} intersections, {} road segments",
        graph.num_vertices(),
        graph.num_edges() / 2
    );

    // Partition quality: METIS-like vs hash (graph-level optimization the
    // paper inherits from sequential processing).
    let metis = MetisLike::new(4)
        .partition(&graph)
        .expect("metis partition");
    let hash = HashEdgeCut::new(4)
        .partition(&graph)
        .expect("hash partition");
    let mq = quality::evaluate(&metis);
    let hq = quality::evaluate(&hash);
    println!(
        "partition quality (4 fragments): metis-like cut {} edges ({:.1}%), hash cut {} edges ({:.1}%)",
        mq.cut_edges,
        100.0 * mq.cut_ratio,
        hq.cut_edges,
        100.0 * hq.cut_ratio
    );

    // Prepare GRAPE SSSP: pay PEval once, keep the partials.
    let session = GrapeSession::with_workers(4);
    let query = SsspQuery::new(0);
    let mut prepared = session
        .prepare(metis, Sssp, query)
        .expect("prepare grape sssp");

    // Vertex-centric (Giraph-style) SSSP on the same graph.
    let vertex = run_vertex(&graph, &VertexSssp, &query, 4).expect("vertex-centric sssp");
    let (vertex_dist, vertex_metrics) = (vertex.output, vertex.metrics);

    // Agreement check.
    let far_corner = (graph.num_vertices() - 1) as u64;
    println!(
        "\ndistance to the far corner {far_corner}: GRAPE = {:.2}, vertex-centric = {:.2}",
        prepared.output().distance(far_corner).unwrap_or(f64::NAN),
        vertex_dist[far_corner as usize]
    );

    let prep = prepared.prepare_metrics().clone();
    println!("\n                    supersteps   messages      comm (MB)   time (s)");
    println!(
        "GRAPE (prepare)    {:>10} {:>10} {:>14.4} {:>10.4}",
        prep.supersteps,
        prep.total_messages,
        prep.comm_megabytes(),
        prep.seconds()
    );
    println!(
        "vertex-centric     {:>10} {:>10} {:>14.4} {:>10.4}",
        vertex_metrics.supersteps,
        vertex_metrics.total_messages,
        vertex_metrics.comm_megabytes(),
        vertex_metrics.seconds()
    );
    println!(
        "\nGRAPE ships {:.2}% of the data and needs {:.1}% of the supersteps — the Table 1 effect.",
        100.0 * prep.total_bytes as f64 / vertex_metrics.total_bytes.max(1) as f64,
        100.0 * prep.supersteps as f64 / vertex_metrics.supersteps.max(1) as f64
    );

    // --- The road network evolves ---------------------------------------

    // A new expressway segment opens near the source: an edge insertion is
    // monotone for SSSP, so the prepared query absorbs it with IncEval only.
    let new_road = GraphDelta::new().add_weighted_edge(0, 2 * 80 + 2, 1.0);
    let report = prepared.update(&new_road).expect("open new road");
    let m = &report.metrics;
    println!(
        "\nopening a road (insert): incremental = {}, PEval calls = {}, \
         IncEval calls = {}, {} msgs (+{} seeds), {:.4} s",
        report.incremental,
        m.peval_calls,
        m.inceval_calls,
        m.total_messages,
        m.seed_messages,
        m.seconds()
    );
    assert!(report.incremental && m.peval_calls == 0);

    // A closure on one of the source's roads: deletions are not monotone
    // for SSSP (distances can grow back), so SSSP retracts — the cells
    // whose shortest path ran over the closed road are reset to ∞ and
    // re-derived from their neighbours by IncEval, every other cell keeps
    // its retained distance — same answer as recomputing from scratch,
    // still with zero PEval calls.
    let closed = graph.out_neighbors(0)[0].target;
    let closure = GraphDelta::new().remove_edge(0, closed);
    let report = prepared.update(&closure).expect("close a road");
    println!(
        "closing a road (delete): kind = {:?}, {} cell(s) retracted, PEval calls = {} \
         (rebuilt {:?}, reused {}), {:.4} s",
        report.kind,
        report.retracted,
        report.metrics.peval_calls,
        report.rebuilt,
        report.reused,
        report.metrics.seconds()
    );
    assert!(report.incremental && report.metrics.peval_calls == 0);

    // The prepared output always equals a from-scratch run on the evolved graph.
    let recompute = session
        .run(prepared.fragmentation(), &Sssp, &query)
        .expect("recompute");
    let served = prepared.output();
    assert_eq!(served.num_reached(), recompute.output.num_reached());
    println!(
        "\nafter {} updates the prepared query still serves Q(G ⊕ ΔG) exactly \
         (far corner: {:.2}).",
        prepared.updates_applied(),
        served.distance(far_corner).unwrap_or(f64::NAN)
    );
}
