//! Graph pattern matching via subgraph isomorphism (SubIso), Section 5.1.
//!
//! * [`vf2`] — a VF2-style sequential backtracking enumerator over a whole
//!   graph (the algorithm of Cordella et al. the paper plugs in).
//! * [`pie`] — the PIE program: the engine ships the `d_Q`-neighborhood of
//!   every fragment's border through pattern-labelled vertices (the
//!   candidate set `C_i` with `d = d_Q`), after
//!   which each fragment enumerates, with VF2, the matches anchored at its
//!   inner vertices; no further messages are needed, so the computation takes
//!   a constant number of supersteps regardless of the graph.

pub mod pie;
pub mod vf2;

pub use pie::{SubIso, SubIsoQuery, SubIsoResult};
pub use vf2::subgraph_isomorphism;
