//! Tentpole pin: replaying a query's `OutputDelta` stream over its initial
//! answer reproduces `output()` **byte-identically** — for all five
//! algorithm families × {Sync, Async} × refresh fan-out widths {1, 4},
//! including across evict → apply-while-cold → rehydrate interleavings
//! (where the whole cold stretch arrives as one compacted delta) — and
//! every pushed delta carries **exactly** the rows that changed: its
//! `len()` equals the number of keys whose row differs between the folded
//! answer before and after it, never the answer size.
//!
//! The comparison is on canonical wire rows serialized to JSON, i.e. the
//! exact bytes a `grapectl watch` client folds into its local answer copy:
//! if this pin holds, a subscriber that starts from `output()` and applies
//! every pushed delta never needs to poll again.

use std::cmp::Ordering;
use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};

use grape::algorithms::cc::{Cc, CcQuery};
use grape::algorithms::cf::{Cf, CfQuery};
use grape::algorithms::sim::{Sim, SimQuery};
use grape::algorithms::sssp::{Sssp, SsspQuery};
use grape::algorithms::subiso::{SubIso, SubIsoQuery};
use grape::core::config::EngineMode;
use grape::core::output_delta::{value_cmp, wire_rows, DeltaOutput, OutputEvent};
use grape::core::serve::{GrapeServer, QueryHandle};
use grape::core::session::GrapeSession;
use grape::graph::builder::GraphBuilder;
use grape::graph::delta::GraphDelta;
use grape::graph::graph::{Directedness, Graph};
use grape::graph::pattern::Pattern;
use grape::graph::types::Edge;
use grape::partition::edge_cut::{HashEdgeCut, RangeEdgeCut};
use grape::partition::strategy::PartitionStrategy;

const MODES: [EngineMode; 2] = [EngineMode::Sync, EngineMode::Async];
const WIDTHS: [usize; 2] = [1, 4];

/// Evict/rehydrate interleavings: always-resident; a cold stretch in the
/// middle (rehydrated before the stream ends); a cold tail (rehydrated
/// only after the last delta).
const WINDOWS: [Option<(usize, usize)>; 3] = [None, Some((1, 3)), Some((2, 9))];

fn session(mode: EngineMode, width: usize) -> GrapeSession {
    GrapeSession::builder()
        .workers(2)
        .mode(mode)
        .refresh_threads(width)
        .build()
        .unwrap()
}

fn labeled_graph(rng: &mut StdRng, n: u64, m: usize, labels: u32) -> Graph {
    let mut b = GraphBuilder::new(Directedness::Directed).ensure_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.push_edge(Edge::weighted(s, d, rng.gen_range(1u32..9u32) as f64));
        }
    }
    if labels > 0 {
        for v in 0..n {
            b.push_vertex_label(v, (v as u32 % labels) + 1);
        }
    }
    b.build()
}

/// A mixed delta stream that is valid against the *initial* graph under any
/// prefix: inserts between existing (or strictly-fresh) vertices, deletes
/// drawn without repetition from the initial edge list.
fn delta_stream(rng: &mut StdRng, g: &Graph, steps: usize) -> Vec<GraphDelta> {
    let n = g.num_vertices() as u64;
    let edges = g.edges().to_vec();
    let mut fresh = n;
    let mut deleted: HashSet<(u64, u64)> = HashSet::new();
    (0..steps)
        .map(|_| {
            let mut delta = GraphDelta::new();
            for _ in 0..rng.gen_range(2usize..5) {
                let s = rng.gen_range(0..n);
                let d = if rng.gen_range(0u32..4) == 0 {
                    fresh += 1;
                    fresh - 1
                } else {
                    rng.gen_range(0..n)
                };
                if s != d {
                    delta = delta.add_weighted_edge(s, d, rng.gen_range(1u32..9u32) as f64);
                }
            }
            for _ in 0..rng.gen_range(0usize..3) {
                if edges.is_empty() {
                    break;
                }
                let e = edges[rng.gen_range(0..edges.len() as u64) as usize];
                if deleted.insert((e.src, e.dst)) {
                    delta = delta.remove_edge(e.src, e.dst);
                }
            }
            if delta.is_empty() {
                delta = delta.add_weighted_edge(0, n - 1, 2.0);
            }
            delta
        })
        .collect()
}

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

/// Subscribes, drives the delta stream (with an optional cold stretch),
/// then asserts the replayed stream over the baseline reproduces the final
/// answer byte-for-byte on canonical wire rows, and that every delta holds
/// exactly the rows it changed.
fn drive_and_replay<P>(
    server: &mut GrapeServer,
    pie: &P,
    query: &P::Query,
    handle: QueryHandle<P>,
    deltas: &[GraphDelta],
    window: Option<(usize, usize)>,
    tag: &str,
) where
    P: DeltaOutput + 'static,
    P::Partial: Serialize + Deserialize,
{
    let sub = server.subscribe(&handle).expect("subscribe");
    let base = server
        .output(&handle)
        .unwrap_or_else(|e| panic!("{tag}: baseline output: {e}"));
    let mut replay = wire_rows(&pie.canonical(query, &base));

    let mut events = Vec::new();
    for (i, delta) in deltas.iter().enumerate() {
        if let Some((start, end)) = window {
            if i == start {
                server
                    .evict(&handle)
                    .unwrap_or_else(|e| panic!("{tag}: evict: {e}"));
            }
            if i == end {
                server
                    .rehydrate(&handle)
                    .unwrap_or_else(|e| panic!("{tag}: rehydrate: {e}"));
            }
        }
        server
            .apply(delta)
            .unwrap_or_else(|e| panic!("{tag}: apply {i}: {e}"));
        events.extend(server.drain_events());
    }
    if let Some((_, end)) = window {
        if end >= deltas.len() {
            // The cold tail: the stream ended while evicted; rehydration
            // must deliver the whole stretch as one compacted delta.
            server
                .rehydrate(&handle)
                .unwrap_or_else(|e| panic!("{tag}: tail rehydrate: {e}"));
        }
    }
    let fin = server
        .output(&handle)
        .unwrap_or_else(|e| panic!("{tag}: final output: {e}"));
    events.extend(server.drain_events());

    let mut last_version = 0usize;
    for qd in events {
        assert_eq!(qd.query, handle.id(), "{tag}: single-query server");
        assert!(
            qd.version >= last_version,
            "{tag}: event versions must be monotone"
        );
        last_version = qd.version;
        let OutputEvent::Delta(d) = qd.event else {
            panic!("{tag}: healthy query pushed a poison event");
        };
        let before = replay.clone();
        d.apply_to(&mut replay);
        assert_eq!(
            d.len(),
            answer_diff_rows(&before, &replay),
            "{tag}: the delta at version {} must carry exactly the changed rows",
            qd.version
        );
    }

    let expect = wire_rows(&pie.canonical(query, &fin));
    assert_eq!(
        serde_json::to_string(&replay).expect("rows"),
        serde_json::to_string(&expect).expect("rows"),
        "{tag}: replayed stream does not reproduce the final answer"
    );
    server.unsubscribe(sub).expect("unsubscribe");
}

#[test]
fn sssp_delta_stream_replays_to_the_answer() {
    for mode in MODES {
        for width in WIDTHS {
            for (w, window) in WINDOWS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xDE17_A100 + w as u64);
                let graph = labeled_graph(&mut rng, 24, 70, 0);
                let frag = HashEdgeCut::new(4).partition(&graph).unwrap();
                let mut server = GrapeServer::new(session(mode, width), frag);
                let source = rng.gen_range(0u64..24);
                let handle = server.register(Sssp, SsspQuery::new(source)).unwrap();
                let deltas = delta_stream(&mut rng, server.fragmentation().source(), 5);
                drive_and_replay(
                    &mut server,
                    &Sssp,
                    &SsspQuery::new(source),
                    handle,
                    &deltas,
                    *window,
                    &format!("sssp {mode:?} width {width} window {window:?}"),
                );
            }
        }
    }
}

#[test]
fn cc_delta_stream_replays_to_the_answer() {
    for mode in MODES {
        for width in WIDTHS {
            for (w, window) in WINDOWS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xDE17_A200 + w as u64);
                let graph = labeled_graph(&mut rng, 24, 70, 0);
                let frag = HashEdgeCut::new(4).partition(&graph).unwrap();
                let mut server = GrapeServer::new(session(mode, width), frag);
                let handle = server.register(Cc, CcQuery).unwrap();
                let deltas = delta_stream(&mut rng, server.fragmentation().source(), 5);
                drive_and_replay(
                    &mut server,
                    &Cc,
                    &CcQuery,
                    handle,
                    &deltas,
                    *window,
                    &format!("cc {mode:?} width {width} window {window:?}"),
                );
            }
        }
    }
}

#[test]
fn sim_delta_stream_replays_to_the_answer() {
    for mode in MODES {
        for width in WIDTHS {
            for (w, window) in WINDOWS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xDE17_A300 + w as u64);
                let graph = labeled_graph(&mut rng, 20, 60, 4);
                let pattern = Pattern::random(3, 4, &[1, 2, 3, 4], rng.gen_range(0u64..500));
                let query = SimQuery::new(pattern);
                let frag = HashEdgeCut::new(3).partition(&graph).unwrap();
                let mut server = GrapeServer::new(session(mode, width), frag);
                let handle = server.register(Sim::new(), query.clone()).unwrap();
                let deltas = delta_stream(&mut rng, server.fragmentation().source(), 4);
                drive_and_replay(
                    &mut server,
                    &Sim::new(),
                    &query,
                    handle,
                    &deltas,
                    *window,
                    &format!("sim {mode:?} width {width} window {window:?}"),
                );
            }
        }
    }
}

#[test]
fn subiso_delta_stream_replays_to_the_answer() {
    for mode in MODES {
        for width in WIDTHS {
            for (w, window) in WINDOWS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xDE17_A400 + w as u64);
                let graph = labeled_graph(&mut rng, 16, 40, 3);
                let pattern = Pattern::random(2, 2, &[1, 2, 3], rng.gen_range(0u64..500));
                let query = SubIsoQuery::new(pattern);
                let frag = HashEdgeCut::new(3).partition(&graph).unwrap();
                let mut server = GrapeServer::new(session(mode, width), frag);
                let handle = server.register(SubIso, query.clone()).unwrap();
                let deltas = delta_stream(&mut rng, server.fragmentation().source(), 4);
                drive_and_replay(
                    &mut server,
                    &SubIso,
                    &query,
                    handle,
                    &deltas,
                    *window,
                    &format!("subiso {mode:?} width {width} window {window:?}"),
                );
            }
        }
    }
}

/// CF's rating graph: two disjoint bipartite blocks over range fragments,
/// with the delta stream confined to in-block rating additions.
fn rating_graph(rng: &mut StdRng) -> (Graph, Vec<(u64, u64)>) {
    let mut b = GraphBuilder::directed();
    let mut ranges = Vec::new();
    let mut base = 0u64;
    for _ in 0..2 {
        let users = rng.gen_range(3u64..6);
        let items = rng.gen_range(2u64..4);
        for _ in 0..rng.gen_range(8usize..16) {
            let u = base + rng.gen_range(0..users);
            let i = base + users + rng.gen_range(0..items);
            b.push_edge(Edge::weighted(u, i, 1.0 + rng.gen_range(0u32..5) as f64));
        }
        ranges.push((base, base + users + items));
        base += users + items;
    }
    (b.build(), ranges)
}

fn cf_delta_stream(rng: &mut StdRng, ranges: &[(u64, u64)], steps: usize) -> Vec<GraphDelta> {
    (0..steps)
        .map(|_| {
            let (lo, hi) = ranges[rng.gen_range(0..ranges.len() as u64) as usize];
            let mut delta = GraphDelta::new();
            for _ in 0..rng.gen_range(1usize..4) {
                let u = rng.gen_range(lo..hi);
                let i = rng.gen_range(lo..hi);
                if u != i {
                    delta = delta.add_weighted_edge(u, i, 1.0 + rng.gen_range(0u32..5) as f64);
                }
            }
            if delta.is_empty() {
                delta = delta.add_weighted_edge(lo, hi - 1, 3.0);
            }
            delta
        })
        .collect()
}

#[test]
fn cf_delta_stream_replays_to_the_answer() {
    for mode in MODES {
        for width in WIDTHS {
            for (w, window) in WINDOWS.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(0xDE17_A500 + w as u64);
                let (graph, ranges) = rating_graph(&mut rng);
                let frag = RangeEdgeCut::new(3).partition(&graph).unwrap();
                let mut server = GrapeServer::new(session(mode, width), frag);
                let query = CfQuery {
                    epochs: 3,
                    num_factors: 4,
                    ..Default::default()
                };
                let handle = server.register(Cf, query.clone()).unwrap();
                let deltas = cf_delta_stream(&mut rng, &ranges, 4);
                drive_and_replay(
                    &mut server,
                    &Cf,
                    &query,
                    handle,
                    &deltas,
                    *window,
                    &format!("cf {mode:?} width {width} window {window:?}"),
                );
            }
        }
    }
}
