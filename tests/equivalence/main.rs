//! The equivalence pins of the paper's exactness contract — the Assurance
//! Theorem and incremental ≡ recompute — as relations over traces.
//!
//! [`harness`] draws one seeded case of a family (graph, fragments,
//! workers, queries), serves it on a [`harness::Axes`] (engine mode, host,
//! refresh fan-out width, evict schedule, partitioner), drives a seeded
//! delta stream and returns a [`harness::Trace`]: canonical answers (and,
//! on request, from-scratch recomputes), refresh kinds and `ServeReport`
//! digests per commit, rehydrations and the pushed answer deltas.  Each
//! module is one relation over traces:
//!
//! * [`update_recompute`] — every commit's answer equals a recompute;
//! * [`sync_async`] — Sync and Async answer alike;
//! * [`hosts`] — InProcess and Process answers are byte-equal;
//! * [`widths`] — fan-out widths 1, 2 and 4 agree, and batch ≡ sequential;
//! * [`replay`] — folding the pushed deltas over the subscribed answer
//!   reproduces the final answer, across evict windows.
//!
//! The relation × family × axes table (`✓` pinned, `✗` does not hold, `·`
//! not run):
//!
//! | relation          | SSSP | CC | Sim | SubIso | CF | axes                                          |
//! |-------------------|------|----|-----|--------|----|-----------------------------------------------|
//! | update ≡ recompute| ✓    | ✓  | ✓   | ✓      | ✓¹ | both modes × {InProcess, Process²}            |
//! | Sync ≡ Async      | ✓    | ✓  | ✓   | ✓      | ✗³ | one-shot answers                              |
//! | InProcess ≡ Process| ✓   | ✓  | ✓⁴  | ✓      | ✓¹ | both modes; SSSP also along a stream          |
//! | widths 1 ≡ 2 ≡ 4  | ✓    | ·  | ·   | ·      | ·  | both modes × {never, random} evict; batch     |
//! | replay ≡ output() | ✓    | ✓  | ✓   | ✓      | ✓  | both modes × widths {1, 4} × 3 evict windows  |
//!
//! ¹ CF's SGD trajectory depends on the drain order: its cells run two
//! engine workers under Sync and one (the only Async count with one drain
//! order) under Async.
//! ² Tier-1 runs SSSP, CC and Sim on the Process host; the nightly profile
//! all five.
//! ³ A finding, not a gap: Sync on two workers and Async on one give
//! different factors for 13 of 16 seeds (`0xA5_0500 + {0..=11, 13}`), so
//! the cell is not pinned.
//! ⁴ Both the plain and the index-optimized program.
//!
//! The widths relation runs SSSP queries beside a `MinForward` one: the
//! fan-out only matters with several queries per server; the other
//! families run at widths 1 and 4 in the replay relation.  Scenario pins
//! that are not seeded streams (the high-diameter async superstep bound,
//! localized damage, the churn stream, the pipe-byte ceiling,
//! injected-failure recovery, poisoned and behind queries) live beside the
//! relation they belong to.  The `long_fuzz_*` tests are the nightly
//! profile (`--ignored`).

mod harness;
mod hosts;
mod replay;
mod sync_async;
mod update_recompute;
mod widths;
