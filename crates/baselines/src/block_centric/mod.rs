//! Block-centric (Blogel-style) baseline: block programs for SSSP, CC, Sim
//! and CF, run on GRAPE's engine through [`BlockAsPie`], plus the standalone
//! SubIso runner.

pub mod adapter;
pub mod programs;

pub use adapter::{
    model_session, run_block, Block, BlockAsPie, BlockContext, BlockProgram, BlockRouting, ModelKey,
};
pub use programs::{run_block_subiso, BlockCc, BlockCf, BlockSim, BlockSssp};
