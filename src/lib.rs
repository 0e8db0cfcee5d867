//! # GRAPE — Parallelizing Sequential Graph Computations
//!
//! Umbrella crate for the GRAPE (SIGMOD 2017) reproduction.  It re-exports
//! the individual crates of the workspace under a single namespace so that
//! examples and downstream users can depend on one crate:
//!
//! * [`graph`] — graph storage, builders and synthetic workload generators,
//! * [`partition`] — partition strategies, fragments and the fragmentation graph,
//! * [`core`] — the GRAPE engine: the PIE programming model, coordinator,
//!   workers, messages and metrics,
//! * [`algorithms`] — ready-made PIE programs (SSSP, CC, Sim, SubIso, CF),
//! * [`baselines`] — the comparison systems (vertex-centric
//!   Pregel/Giraph-style and block-centric Blogel-style programs) and the
//!   BSP/MapReduce simulations of Theorem 2, all run on GRAPE's engine.
//!
//! ## Quickstart
//!
//! ```
//! use grape::prelude::*;
//!
//! // A small weighted directed graph.
//! let g = GraphBuilder::new(Directedness::Directed)
//!     .add_weighted_edge(0, 1, 2.0)
//!     .add_weighted_edge(1, 2, 2.0)
//!     .add_weighted_edge(0, 2, 10.0)
//!     .build();
//!
//! // Partition it into 2 fragments with hash edge-cut and prepare SSSP
//! // from vertex 0: PEval runs once, the partials are retained.
//! let fragments = HashEdgeCut::new(2).partition(&g).expect("partition");
//! let session = GrapeSession::builder().workers(2).build().unwrap();
//! let mut prepared = session.prepare(fragments, Sssp::default(), SsspQuery::new(0)).unwrap();
//! assert_eq!(prepared.output().distance(2), Some(4.0));
//!
//! // The graph evolves: a new edge shortens the path.  IncEval absorbs it —
//! // no PEval runs (one-shot `session.run` remains available as well).
//! let report = prepared.update(&GraphDelta::new().add_weighted_edge(0, 2, 3.0)).unwrap();
//! assert!(report.incremental && report.metrics.peval_calls == 0);
//! assert_eq!(prepared.output().distance(2), Some(3.0));
//! ```

pub use grape_algorithms as algorithms;
pub use grape_baselines as baselines;
pub use grape_core as core;
pub use grape_graph as graph;
pub use grape_partition as partition;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use grape_algorithms::cc::{Cc, CcQuery};
    pub use grape_algorithms::cf::{Cf, CfQuery};
    pub use grape_algorithms::sim::{Sim, SimQuery};
    pub use grape_algorithms::sssp::{Sssp, SsspQuery};
    pub use grape_algorithms::subiso::{SubIso, SubIsoQuery};
    pub use grape_core::config::{EngineConfig, EngineMode};
    pub use grape_core::engine::RunResult;
    pub use grape_core::metrics::EngineMetrics;
    pub use grape_core::pie::{IncrementalPie, PieProgram};
    pub use grape_core::prepared::{PreparedQuery, RefreshKind, UpdateReport};
    pub use grape_core::serve::{BatchReport, GrapeServer, QueryHandle, ServeReport};
    pub use grape_core::session::{GrapeSession, GrapeSessionBuilder};
    pub use grape_core::transport::{Transport, TransportSpec};
    pub use grape_graph::builder::GraphBuilder;
    pub use grape_graph::delta::GraphDelta;
    pub use grape_graph::generators;
    pub use grape_graph::graph::{Directedness, Graph};
    pub use grape_graph::pattern::Pattern;
    pub use grape_graph::types::VertexId;
    pub use grape_partition::edge_cut::HashEdgeCut;
    pub use grape_partition::fragment::Fragmentation;
    pub use grape_partition::metis_like::MetisLike;
    pub use grape_partition::strategy::PartitionStrategy;
}
