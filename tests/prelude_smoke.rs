//! Smoke test for the workspace facade: `grape::prelude::*` must expose the
//! builder, a partition strategy, the engine + config, and all five
//! query-class PIE program types.  Referencing each item by its prelude path
//! makes a missing re-export a compile error, not a runtime surprise.

use grape::prelude::*;

/// Every advertised prelude item resolves (compile-time check), including
/// the five query-class program types and their query types.
#[test]
fn prelude_exposes_the_advertised_surface() {
    // Construction surface.
    let _builder: GraphBuilder = GraphBuilder::new(Directedness::Directed);
    let _strategy: HashEdgeCut = HashEdgeCut::new(2);
    let _session: GrapeSession = GrapeSession::with_workers(1);
    let _session_builder: GrapeSessionBuilder = GrapeSession::builder();
    let _config: EngineConfig = EngineConfig::with_workers(1);
    let _mode: EngineMode = EngineMode::Sync;
    let _transport: TransportSpec = TransportSpec::InProcess;

    // The five query classes of the paper (Section 5).
    fn is_pie_program<P: PieProgram>(_p: &P) {}
    is_pie_program(&Sssp);
    is_pie_program(&Cc);
    is_pie_program(&Sim::new());
    is_pie_program(&SubIso);
    is_pie_program(&Cf);

    // Query types accompany their programs.
    let _ = SsspQuery::new(0);
    let _ = CcQuery;
    let _ = SimQuery::new(Pattern::single(1));
    let _ = SubIsoQuery::new(Pattern::single(1));
    let _ = CfQuery::default();

    // Generators and core vocabulary types are reachable too.
    let _g: Graph = generators::erdos_renyi(8, 12, 0, Directedness::Directed, 7);
    let _v: VertexId = 0;
}

/// A miniature end-to-end run through nothing but the prelude: build,
/// partition, run, inspect metrics.
#[test]
fn prelude_supports_an_end_to_end_run() {
    let g = GraphBuilder::new(Directedness::Directed)
        .add_weighted_edge(0, 1, 2.0)
        .add_weighted_edge(1, 2, 2.0)
        .add_weighted_edge(0, 2, 10.0)
        .build();
    let fragments = HashEdgeCut::new(2).partition(&g).expect("partition");
    let session = GrapeSession::builder()
        .workers(2)
        .build()
        .expect("valid session");
    let result: RunResult<_> = session
        .run(&fragments, &Sssp, &SsspQuery::new(0))
        .expect("run");
    assert_eq!(result.output.distance(2), Some(4.0));

    let metrics: EngineMetrics = result.metrics;
    assert_eq!(metrics.fragments, 2);
    assert!(metrics.supersteps >= 1);

    // The alternative partition strategies re-exported by the prelude
    // satisfy the same trait.
    fn is_strategy<S: PartitionStrategy>(_s: &S) {}
    is_strategy(&HashEdgeCut::new(2));
    is_strategy(&MetisLike::new(2));
}

/// The facade also exposes the fragmentation vocabulary used by custom
/// engines and tests.
#[test]
fn prelude_exposes_fragmentation_types() {
    let g = GraphBuilder::new(Directedness::Undirected)
        .add_edge(0, 1)
        .add_edge(1, 2)
        .build();
    let fragments: Fragmentation = HashEdgeCut::new(2).partition(&g).expect("partition");
    assert_eq!(fragments.num_fragments(), 2);
}
