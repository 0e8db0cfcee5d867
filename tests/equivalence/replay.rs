//! event replay ≡ `output()`: folding a query's pushed `OutputDelta` stream
//! over the answer it subscribed to reproduces its final answer
//! byte-identically — all five families × both modes × refresh fan-out
//! widths {1, 4} × three evict windows (always resident; cold in the
//! middle, so the cold stretch arrives as one compacted delta on
//! rehydration; cold at the tail, rehydrated after the last delta) — and
//! every pushed delta carries exactly the rows that changed: its `len()`
//! equals the number of keys whose row differs between the folded answer
//! before and after it, never the answer size.
//!
//! The rows are canonical wire rows serialized to JSON, the exact bytes a
//! `grapectl watch` client folds into its local copy: if this holds, a
//! subscriber that starts from `output()` never needs to poll again.

use std::cmp::Ordering;

use serde::Value;

use grape::core::output_delta::{value_cmp, OutputEvent};

use crate::harness::*;

const WIDTHS: [usize; 2] = [1, 4];
const WINDOWS: [Evict; 3] = [Evict::Never, Evict::Window(1, 3), Evict::Window(2, 9)];

type Rows = Vec<(Value, Value)>;

/// Exact row-level diff size between two canonical sorted answers: the
/// keys removed, added, or whose value changed.
fn answer_diff_rows(before: &[(Value, Value)], after: &[(Value, Value)]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < before.len() && j < after.len() {
        match value_cmp(&before[i].0, &after[j].0) {
            Ordering::Less => {
                count += 1; // removed
                i += 1;
            }
            Ordering::Greater => {
                count += 1; // added
                j += 1;
            }
            Ordering::Equal => {
                if before[i].1 != after[j].1 {
                    count += 1; // changed
                }
                i += 1;
                j += 1;
            }
        }
    }
    count + (before.len() - i) + (after.len() - j)
}

/// Folds each query's pushed deltas over the answer it subscribed to: the
/// versions rise, no healthy query is poisoned, every delta is exactly the
/// rows it changes, and the fold ends on the final answer's bytes.
fn assert_replays(t: &Trace) {
    let first = &t.commits[0].answers;
    let last = &t.commits.last().unwrap().answers;
    let known = t.events.iter().all(|qd| t.ids.contains(&qd.query));
    assert!(known, "{}: an event for a query never registered", t.tag);
    for (q, &id) in t.ids.iter().enumerate() {
        let base = first[q].as_deref().expect("subscribed answers are warm");
        let mut replay: Rows = serde_json::from_str(base).unwrap();
        let mut last_version = 0usize;
        for qd in t.events.iter().filter(|qd| qd.query == id) {
            assert!(
                qd.version >= last_version,
                "{}: event versions must be monotone",
                t.tag
            );
            last_version = qd.version;
            let OutputEvent::Delta(d) = &qd.event else {
                panic!("{}: healthy query pushed a poison event", t.tag);
            };
            let before = replay.clone();
            d.apply_to(&mut replay);
            assert_eq!(
                d.len(),
                answer_diff_rows(&before, &replay),
                "{}: the delta at version {} must carry exactly the changed rows",
                t.tag,
                qd.version
            );
        }
        assert_eq!(
            serde_json::to_string(&replay).unwrap(),
            *last[q].as_ref().expect("the tail is rehydrated"),
            "{}: replayed stream does not reproduce the final answer",
            t.tag
        );
    }
}

fn replays(family: Family, p: &Profile, seed_base: u64) {
    for mode in MODES {
        for width in WIDTHS {
            for (w, evict) in WINDOWS.into_iter().enumerate() {
                let axes = Axes {
                    width,
                    evict,
                    ..Axes::new(family, mode)
                };
                let mut stand = stand(family, p, axes, seed_base + w as u64);
                stand.watch();
                assert_replays(&stand.drive(Record::Ends));
            }
        }
    }
}

/// A fixed 24-vertex, 70-edge-draw graph over four fragments, under the
/// serving mix.
const STREAM: Profile = Profile {
    rounds: 5,
    n: (24, 25),
    m: (70, 71),
    fragments: Some((4, 5)),
    mixes: &[Mix::Coin(4, 2)],
    ..BASE
};

#[test]
fn sssp_delta_stream_replays_to_the_answer() {
    replays(Family::Sssp, &STREAM, 0xDE17_A100);
}

#[test]
fn cc_delta_stream_replays_to_the_answer() {
    replays(Family::Cc, &STREAM, 0xDE17_A200);
}

#[test]
fn sim_delta_stream_replays_to_the_answer() {
    const P: Profile = Profile {
        rounds: 4,
        n: (20, 21),
        m: (60, 61),
        fragments: Some((3, 4)),
        ..STREAM
    };
    replays(SIM, &P, 0xDE17_A300);
}

#[test]
fn subiso_delta_stream_replays_to_the_answer() {
    const P: Profile = Profile {
        rounds: 4,
        n: (16, 17),
        m: (40, 41),
        fragments: Some((3, 4)),
        ..STREAM
    };
    replays(Family::SubIso, &P, 0xDE17_A400);
}

#[test]
fn cf_delta_stream_replays_to_the_answer() {
    const P: Profile = Profile {
        rounds: 4,
        fragments: Some((3, 4)),
        mixes: &[],
        ..STREAM
    };
    replays(Family::Cf, &P, 0xDE17_A500);
}
