//! # grape-graph
//!
//! Graph storage and synthetic workload generators for the GRAPE (SIGMOD
//! 2017) reproduction.
//!
//! The crate provides:
//!
//! * [`graph::Graph`] — an immutable, CSR-backed, labeled and weighted graph
//!   (directed or undirected) with forward and reverse adjacency,
//! * [`builder::GraphBuilder`] — an incremental builder producing [`graph::Graph`],
//! * [`pattern::Pattern`] — small labeled pattern graphs used by graph-pattern
//!   matching (Sim / SubIso),
//! * [`generators`] — synthetic stand-ins for the paper's datasets
//!   (road grid ≙ *traffic*, power-law ≙ *liveJournal*, labeled knowledge graph
//!   ≙ *DBpedia*, bipartite ratings ≙ *movieLens*),
//! * [`delta`] — batched graph updates ([`delta::GraphDelta`]) and
//!   [`graph::Graph::apply_delta`], the `ΔG` of queries under updates,
//! * [`io`] — plain-text edge-list readers/writers and the binary value-tree
//!   codec of spill files and worker-pipe payloads,
//! * [`hash`] — the keyed fast hasher of the maps keyed by vertex ids.
//!
//! All vertex identifiers are dense `0..n` integers ([`types::VertexId`]);
//! this is what lets fragments and the fragmentation graph index status
//! variables with plain vectors.

pub mod builder;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod hash;
pub mod io;
pub mod pattern;
pub mod types;

pub use builder::GraphBuilder;
pub use delta::GraphDelta;
pub use graph::{Directedness, Graph};
pub use pattern::Pattern;
pub use types::{EdgeId, Label, VertexId, Weight};
