//! End-to-end integration tests spanning every crate: workload generation,
//! partitioning, the GRAPE engine, the PIE programs, the baselines and the
//! fault-tolerance / asynchronous extensions.

use grape::algorithms::cc::{Cc, CcQuery};
use grape::algorithms::cf::{Cf, CfQuery};
use grape::algorithms::sim::{Sim, SimQuery};
use grape::algorithms::sssp::{dijkstra, Sssp, SsspQuery};
use grape::algorithms::subiso::{subgraph_isomorphism, SubIso, SubIsoQuery};
use grape::baselines::block_centric::{run_block, BlockSim};
use grape::baselines::vertex_centric::{run_vertex, VertexSssp};
use grape::core::config::EngineMode;
use grape::core::session::GrapeSession;
use grape::graph::generators;
use grape::graph::pattern::Pattern;
use grape::partition::edge_cut::HashEdgeCut;
use grape::partition::grid::TwoDPartition;
use grape::partition::metis_like::MetisLike;
use grape::partition::strategy::PartitionStrategy;
use grape::partition::streaming::StreamingPartition;
use grape::partition::vertex_cut::GreedyVertexCut;

#[test]
fn all_five_query_classes_run_on_one_partitioned_graph() {
    let graph = generators::labeled_kg(1_000, 4_000, 20, 10, 42);
    let frag = MetisLike::new(4).partition(&graph).unwrap();
    let session = GrapeSession::with_workers(4);

    let sssp = session.run(&frag, &Sssp, &SsspQuery::new(0)).unwrap();
    assert!(sssp.output.num_reached() >= 1);

    let cc = session.run(&frag, &Cc, &CcQuery).unwrap();
    assert!(cc.output.num_components() >= 1);

    let alphabet: Vec<u32> = (1..=20).collect();
    let pattern = Pattern::random(4, 6, &alphabet, 7);
    let sim = session
        .run(&frag, &Sim::new(), &SimQuery::new(pattern.clone()))
        .unwrap();
    let subiso = session
        .run(
            &frag,
            &SubIso,
            &SubIsoQuery::new(pattern.clone()).with_max_matches(500),
        )
        .unwrap();
    // Every exact embedding is also contained in the simulation relation.
    if sim.output.is_match() {
        for m in subiso.output.matches() {
            for (u, v) in m.iter().enumerate() {
                assert!(
                    sim.output.matches(u as u32).contains(v),
                    "subiso match {m:?} not covered by simulation at query node {u}"
                );
            }
        }
    } else {
        assert_eq!(subiso.output.num_matches(), 0);
    }
}

#[test]
fn every_partition_strategy_yields_the_same_sssp_answer() {
    let graph = generators::power_law(800, 3_200, 0, 9);
    let expected = dijkstra(&graph, 0);
    let session = GrapeSession::with_workers(3);
    let strategies: Vec<Box<dyn PartitionStrategy>> = vec![
        Box::new(HashEdgeCut::new(5)),
        Box::new(MetisLike::new(5)),
        Box::new(StreamingPartition::ldg(5)),
        Box::new(StreamingPartition::fennel(5)),
        Box::new(TwoDPartition::new(2, 2)),
        Box::new(GreedyVertexCut::new(5)),
    ];
    for strategy in strategies {
        let frag = strategy.partition(&graph).unwrap();
        let result = session.run(&frag, &Sssp, &SsspQuery::new(0)).unwrap();
        for (v, d) in expected.iter().enumerate() {
            match result.output.distance(v as u64) {
                Some(got) => assert!(
                    (got - d).abs() < 1e-9,
                    "strategy {} vertex {v}: {got} vs {d}",
                    strategy.name()
                ),
                None => assert!(!d.is_finite(), "strategy {} vertex {v}", strategy.name()),
            }
        }
    }
}

#[test]
fn grape_baselines_and_sequential_agree_on_subiso_and_sim() {
    let graph = generators::labeled_kg(300, 1_200, 6, 3, 17);
    let alphabet: Vec<u32> = (1..=6).collect();
    let pattern = Pattern::random(3, 4, &alphabet, 23);
    let frag = HashEdgeCut::new(4).partition(&graph).unwrap();
    let session = GrapeSession::with_workers(2);

    let grape_subiso = session
        .run(&frag, &SubIso, &SubIsoQuery::new(pattern.clone()))
        .unwrap()
        .output;
    let mut expected = subgraph_isomorphism(&graph, &pattern, usize::MAX);
    expected.sort_unstable();
    assert_eq!(grape_subiso.matches(), expected.as_slice());

    let grape_sim = session
        .run(&frag, &Sim::new(), &SimQuery::new(pattern.clone()))
        .unwrap()
        .output;
    let block_sim = run_block(&frag, &BlockSim, &SimQuery::new(pattern.clone()), 2)
        .unwrap()
        .output;
    assert_eq!(grape_sim.relation(), block_sim.as_slice());
}

#[test]
fn fault_tolerance_and_async_mode_preserve_answers() {
    let graph = generators::road_grid(20, 20, 3);
    let frag = MetisLike::new(4).partition(&graph).unwrap();
    let query = SsspQuery::new(0);
    let expected = dijkstra(&graph, 0);

    // Checkpoint every superstep, kill fragment 2 at superstep 3.  Fault
    // tolerance is superstep-aligned, so this run pins synchronous mode.
    let faulty = GrapeSession::builder()
        .workers(3)
        .mode(EngineMode::Sync)
        .checkpoint_every(1)
        .inject_failure(3, 2)
        .build()
        .unwrap()
        .run(&frag, &Sssp, &query)
        .unwrap();
    assert_eq!(faulty.metrics.recovered_failures, 1);

    // Asynchronous (barrier-free) extension.
    let async_run = GrapeSession::builder()
        .workers(3)
        .mode(EngineMode::Async)
        .build()
        .unwrap()
        .run(&frag, &Sssp, &query)
        .unwrap();

    for (v, d) in expected.iter().enumerate() {
        if d.is_finite() {
            assert!((faulty.output.distance(v as u64).unwrap() - d).abs() < 1e-9);
            assert!((async_run.output.distance(v as u64).unwrap() - d).abs() < 1e-9);
        }
    }
    // The barrier-free runtime needs no more supersteps (longest causal
    // message chain) than the synchronous run.
    let sync_run = GrapeSession::builder()
        .workers(3)
        .mode(EngineMode::Sync)
        .build()
        .unwrap()
        .run(&frag, &Sssp, &query)
        .unwrap();
    assert!(
        async_run.metrics.supersteps <= sync_run.metrics.supersteps,
        "async {} vs sync {}",
        async_run.metrics.supersteps,
        sync_run.metrics.supersteps
    );
}

#[test]
fn cf_pipeline_learns_on_generated_ratings() {
    let data = generators::bipartite_ratings(200, 80, 4_000, 6, 5);
    let frag = HashEdgeCut::new(4).partition(&data.graph).unwrap();
    let session = GrapeSession::with_workers(4);
    let query = CfQuery {
        epochs: 8,
        num_factors: 6,
        ..Default::default()
    };
    let run = session.run(&frag, &Cf, &query).unwrap();
    let rmse = run.output.rmse(&data.graph);
    assert!(
        rmse < 0.9,
        "distributed CF should fit the training data, rmse = {rmse}"
    );
    // Predictions correlate with the ground truth for unseen pairs.
    let mut better = 0usize;
    let mut total = 0usize;
    for user in 0..20 {
        for item in 0..20 {
            let truth = data.true_rating(user, item);
            let predicted = run
                .output
                .predict(data.user_vertex(user), data.item_vertex(item));
            if (predicted - truth).abs() < 1.5 {
                better += 1;
            }
            total += 1;
        }
    }
    assert!(
        better * 2 > total,
        "only {better}/{total} predictions near the ground truth"
    );
}

#[test]
fn grape_beats_vertex_centric_on_road_network_metrics() {
    // The Table 1 shape at integration-test scale: fewer supersteps and less
    // data shipped on a high-diameter graph.
    let graph = generators::road_grid(30, 30, 8);
    let frag = MetisLike::new(4).partition(&graph).unwrap();
    let query = SsspQuery::new(0);
    let grape = GrapeSession::with_workers(4)
        .run(&frag, &Sssp, &query)
        .unwrap();
    let vertex = run_vertex(&graph, &VertexSssp, &query, 4).unwrap().metrics;
    assert!(grape.metrics.supersteps * 2 < vertex.supersteps);
    assert!(grape.metrics.total_bytes * 2 < vertex.total_bytes);
}
