//! # grape-partition
//!
//! Graph partition strategies, fragments and the fragmentation graph for the
//! GRAPE (SIGMOD 2017) reproduction.
//!
//! Following Section 2 of the paper, a partition strategy `P` splits a graph
//! `G` into fragments `F = (F_1, …, F_m)`, one per (virtual) worker.  Each
//! fragment knows
//!
//! * its *inner* vertices (the vertices assigned to it),
//! * its *outer copies* — endpoints of cross edges owned by other fragments,
//! * its border sets `F_i.I` (inner vertices with an incoming cross edge) and
//!   `F_i.O` (outer copies reachable by an outgoing cross edge),
//!
//! and the [`fragmentation_graph::FragmentationGraph`] `G_P` indexes, for every
//! border vertex, which fragments hold it on which side — this is what the
//! GRAPE engine uses to deduce message destinations.
//!
//! Strategies provided (Section 6, "Graph partition"):
//!
//! * [`edge_cut::HashEdgeCut`] and [`edge_cut::RangeEdgeCut`] — simple edge-cut
//!   baselines,
//! * [`metis_like::MetisLike`] — a multilevel heavy-edge-matching partitioner
//!   standing in for METIS (the paper's default),
//! * [`vertex_cut::GreedyVertexCut`] — PowerGraph-style greedy vertex cut,
//! * [`grid::OneDPartition`] / [`grid::TwoDPartition`] — 1-D / 2-D partitions,
//! * [`streaming::StreamingPartition`] — LDG / Fennel streaming heuristics.

pub mod delta;
pub mod edge_cut;
pub mod fragment;
pub mod fragmentation_graph;
pub mod grid;
pub mod metis_like;
pub mod quality;
pub mod shard;
pub mod snapshot;
pub mod strategy;
pub mod streaming;
#[doc(hidden)]
pub mod test_support;
pub mod vertex_cut;

pub use delta::{DeltaApplication, FragmentDelta};
pub use fragment::{Expansion, Fragment, Fragmentation};
pub use fragmentation_graph::{BorderScope, FragmentationGraph};
pub use snapshot::{LoadedSpill, QuerySpillStore, SnapshotError, SpillStoreStats};
pub use strategy::{PartitionError, PartitionStrategy};
