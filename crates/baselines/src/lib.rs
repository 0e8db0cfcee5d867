//! # grape-baselines
//!
//! The comparison systems of the paper's evaluation (Section 7) and the
//! models of its Simulation Theorem, rebuilt on the same graph/partition
//! substrate so that response time, supersteps and communication volume are
//! directly comparable with the GRAPE engine:
//!
//! * [`block_centric`] — Blogel-style B-compute programs that run batch
//!   computations per block and exchange per-edge messages between blocks,
//!   for SSSP, CC, Sim, SubIso and CF, and [`block_centric::BlockAsPie`],
//!   which runs any block program on GRAPE's engine,
//! * [`vertex_centric`] — a synchronous Pregel/Giraph-style model
//!   ("think like a vertex"), also standing in for synchronous GraphLab,
//!   with vertex programs for the same query classes, run as block
//!   programs,
//! * [`simulate`] — BSP programs and MapReduce jobs run as block programs
//!   (Theorem 2).
//!
//! So every model here runs on the one superstep runtime GRAPE has.
//!
//! All of them report [`grape_core::metrics::EngineMetrics`], which is what
//! the benchmark harness prints for Table 1 and Figures 6, 8 and 9.

pub mod block_centric;
pub mod simulate;
pub mod vertex_centric;

pub use block_centric::{BlockAsPie, BlockProgram};
pub use vertex_centric::{run_vertex, VertexProgram};
