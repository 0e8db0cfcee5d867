//! # grape-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! GRAPE (SIGMOD 2017) evaluation:
//!
//! * [`workloads`] — scaled-down synthetic stand-ins for the paper's datasets
//!   (traffic, liveJournal, DBpedia, movieLens, Fig. 9 synthetic sweep),
//! * [`runner`] — functions that run one query class on one workload under
//!   GRAPE, the vertex-centric baseline and the block-centric baseline, and
//!   report time / communication / supersteps,
//! * [`experiments`] — the per-table/figure drivers behind the `experiments`
//!   binary and `tests/paper_shapes.rs`.
//!
//! `cargo run -p grape-bench --release --bin experiments -- all` prints every
//! table and figure as text; `cargo test -p grape-bench --test paper_shapes`
//! asserts each figure's count-shaped claim at small scale.

pub mod experiments;
pub mod runner;
pub mod workloads;
