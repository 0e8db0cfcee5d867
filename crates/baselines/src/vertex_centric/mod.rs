//! Vertex-centric ("think like a vertex") baseline: a Pregel/Giraph-style
//! synchronous model on GRAPE's engine plus vertex programs for SSSP, CC,
//! Sim, SubIso and CF.

pub mod engine;
pub mod programs;

pub use engine::{run_vertex, VertexContext, VertexProgram};
pub use programs::{VertexCc, VertexCf, VertexSim, VertexSssp, VertexSubIso, VertexSubIsoQuery};
