//! The scaffolding every relation shares: one graph generator, one delta
//! generator, the family table, the axes a run varies, and the driver that
//! turns one seeded case into a [`Trace`].

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use grape::core::output_delta::{DeltaOutput, QueryDelta};
use grape::core::worker_proto::locate_worker_binary;
use grape::graph::types::Edge;
use grape::partition::edge_cut::RangeEdgeCut;
use grape::prelude::*;

pub const MODES: [EngineMode; 2] = [EngineMode::Sync, EngineMode::Async];

/// The subprocess host of the Process-axis cells.
pub const PROCESS: TransportSpec = TransportSpec::Process { workers: 2 };

/// A half-open draw range `lo..hi`.  A range holding one value draws
/// nothing, so a fixed size or count consumes no randomness.
pub type Span = (u64, u64);

fn draw(rng: &mut StdRng, (lo, hi): Span) -> u64 {
    if hi == lo + 1 {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// The sizes of one seeded case and the stream driven over it.
#[derive(Clone, Copy)]
pub struct Profile {
    pub cases: u64,
    /// Stream rounds; a round whose drawn delta is empty commits nothing.
    pub rounds: usize,
    /// Vertex and edge draws of the random graph (CF draws rating blocks).
    pub n: Span,
    pub m: Span,
    /// Fragment count; `None` takes the family's range.
    pub fragments: Option<Span>,
    /// Engine workers, unless the family pins them.
    pub workers: Span,
    /// Queries of the family registered on the server.
    pub queries: Span,
    /// Round `r` draws `mixes[r % len]`; empty takes the family's mix.
    pub mixes: &'static [Mix],
}

/// One registration and no stream; every relation's profiles start here.
pub const BASE: Profile = Profile {
    cases: 1,
    rounds: 0,
    n: (6, 40),
    m: (4, 140),
    fragments: None,
    workers: (2, 3),
    queries: (1, 2),
    mixes: &[],
};

impl Profile {
    /// The same profile over `n` vertex and `m` edge draws.
    pub const fn sized(self, n: Span, m: Span) -> Profile {
        Profile { n, m, ..self }
    }
}

/// What one round's delta holds.  Insertions go one in four to a fresh
/// vertex; deletions are distinct live edges.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// Insertions and deletions, plus a vertex detachment one batch in
    /// three.
    Mixed(usize, usize),
    Inserts(usize),
    Deletes(usize),
    /// Insertions, with deletions on a heads coin flip: the serving mix,
    /// half of whose batches stay on the monotone path.
    Coin(usize, usize),
    /// One to three new ratings inside one random rating block.
    Ratings,
}

impl Mix {
    fn draw(self, rng: &mut StdRng, g: &Graph, blocks: &[(u64, u64)]) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let (inserts, deletes, coin, detach) = match self {
            Mix::Mixed(i, d) => (i, d, false, true),
            Mix::Inserts(i) => (i, 0, false, false),
            Mix::Deletes(d) => (0, d, false, false),
            Mix::Coin(i, d) => (i, d, true, false),
            Mix::Ratings => {
                let (lo, hi) = blocks[rng.gen_range(0..blocks.len() as u64) as usize];
                for _ in 0..rng.gen_range(1usize..4) {
                    let u = rng.gen_range(lo..hi);
                    let i = rng.gen_range(lo..hi);
                    if u != i {
                        delta = delta.add_weighted_edge(u, i, 1.0 + rng.gen_range(0u32..5) as f64);
                    }
                }
                return delta;
            }
        };
        let n = g.num_vertices() as u64;
        let m = g.num_edges();
        for _ in 0..inserts {
            let s = rng.gen_range(0..n);
            let d = if rng.gen_range(0u32..4) == 0 {
                n + rng.gen_range(0u64..3)
            } else {
                rng.gen_range(0..n)
            };
            if s != d {
                delta = delta.add_weighted_edge(s, d, rng.gen_range(1u32..10) as f64);
            }
        }
        if m > 0 && (!coin || rng.gen_range(0u32..2) == 0) {
            let mut seen = HashSet::new();
            for _ in 0..deletes * 3 {
                if seen.len() >= deletes.min(m) {
                    break;
                }
                let e = g.edges()[rng.gen_range(0..m as u64) as usize];
                if seen.insert((e.src, e.dst)) {
                    delta = delta.remove_edge(e.src, e.dst);
                }
            }
        }
        if detach && rng.gen_range(0u32..3) == 0 && n > 4 {
            delta = delta.remove_vertex(rng.gen_range(0..n));
        }
        delta
    }
}

/// The one random graph: directed, self-loops dropped, integer weights in
/// `1..10`, and `labels` round-robin vertex labels (none when `0`).
pub fn arb_graph(rng: &mut StdRng, n: Span, m: Span, labels: u32) -> Graph {
    let n = draw(rng, n);
    let m = draw(rng, m);
    let mut b = GraphBuilder::new(Directedness::Directed).ensure_vertices(n as usize);
    for _ in 0..m {
        let s = rng.gen_range(0..n);
        let d = rng.gen_range(0..n);
        if s != d {
            b.push_edge(Edge::weighted(s, d, rng.gen_range(1u32..10) as f64));
        }
    }
    if labels > 0 {
        for v in 0..n {
            b.push_vertex_label(v, (v as u32 % labels) + 1);
        }
    }
    b.build()
}

/// Three disjoint bipartite rating blocks, so the quotient graph has
/// several components and CF's component-closed frontier can stay local;
/// also returns each block's id range.
fn rating_blocks(rng: &mut StdRng) -> (Graph, Vec<(u64, u64)>) {
    let mut b = GraphBuilder::directed();
    let mut ranges = Vec::new();
    let mut base = 0u64;
    for _ in 0..3 {
        let users = rng.gen_range(3u64..7);
        let items = rng.gen_range(2u64..5);
        for _ in 0..rng.gen_range(6usize..18) {
            let u = base + rng.gen_range(0..users);
            let i = base + users + rng.gen_range(0..items);
            b.push_edge(Edge::weighted(u, i, 1.0 + rng.gen_range(0u32..5) as f64));
        }
        ranges.push((base, base + users + items));
        base += users + items;
    }
    (b.build(), ranges)
}

/// The family table.  A row fixes the program and its query draw, the
/// graph shape, the fragment range and partitioner, the mixed delta stream,
/// the engine workers it pins, and — through [`Member`] — the canonical
/// answer bytes and the recompute oracle.
///
/// | row    | query draw          | graph                  | fragments  | mix          |
/// |--------|---------------------|------------------------|------------|--------------|
/// | SSSP   | source vertex       | random                 | 2..6 hash  | Mixed(5, 3)  |
/// | CC     | —                   | random, undirected     | 2..6 hash  | Mixed(4, 3)  |
/// | Sim    | 3-node pattern seed | random, 4 labels       | 2..5 hash  | Mixed(3, 4)  |
/// | SubIso | 2-node pattern seed | random, 3 labels       | 2..5 hash  | Mixed(3, 3)  |
/// | CF     | —                   | 3 rating blocks        | 3..6 range | Ratings      |
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    Sssp,
    Cc,
    /// Graph simulation; `indexed` runs the index-optimized program.
    Sim {
        indexed: bool,
    },
    SubIso,
    Cf,
}

pub const SIM: Family = Family::Sim { indexed: false };

pub const FAMILIES: [Family; 5] = [Family::Sssp, Family::Cc, SIM, Family::SubIso, Family::Cf];

#[derive(Clone, Copy, Debug)]
pub enum Part {
    Hash,
    Range,
}

impl Family {
    /// The row's vertex labels, fragment range, partitioner and mix.
    fn row(self) -> (u32, Span, Part, Mix) {
        match self {
            Family::Sssp => (0, (2, 6), Part::Hash, Mix::Mixed(5, 3)),
            Family::Cc => (0, (2, 6), Part::Hash, Mix::Mixed(4, 3)),
            Family::Sim { .. } => (4, (2, 5), Part::Hash, Mix::Mixed(3, 4)),
            Family::SubIso => (3, (2, 5), Part::Hash, Mix::Mixed(3, 3)),
            Family::Cf => (0, (3, 6), Part::Range, Mix::Ratings),
        }
    }

    /// CF's SGD is trajectory-dependent: the engine is deterministic under
    /// Sync for any worker count, and under Async only on one worker (one
    /// drain order), so CF cells pin those counts.
    pub fn pinned_workers(self, mode: EngineMode) -> Option<u64> {
        match (self, mode) {
            (Family::Cf, EngineMode::Sync) => Some(2),
            (Family::Cf, EngineMode::Async) => Some(1),
            _ => None,
        }
    }

    fn register(self, rng: &mut StdRng, server: &mut GrapeServer, n: u64) -> Box<dyn Member> {
        match self {
            Family::Sssp => serve(server, Sssp, SsspQuery::new(rng.gen_range(0..n))),
            Family::Cc => serve(server, Cc, CcQuery),
            Family::Sim { indexed } => {
                let pattern = Pattern::random(3, 4, &[1, 2, 3, 4], rng.gen_range(0u64..500));
                let program = if indexed {
                    Sim::with_index()
                } else {
                    Sim::new()
                };
                serve(server, program, SimQuery::new(pattern))
            }
            Family::SubIso => {
                let pattern = Pattern::random(2, 2, &[1, 2, 3], rng.gen_range(0u64..500));
                serve(server, SubIso, SubIsoQuery::new(pattern))
            }
            Family::Cf => {
                let query = CfQuery {
                    epochs: 3,
                    num_factors: 4,
                    ..Default::default()
                };
                serve(server, Cf, query)
            }
        }
    }
}

/// When a member is cold.
#[derive(Clone, Copy, Debug)]
pub enum Evict {
    Never,
    /// Member 0 is evicted before round `.0` and rehydrated before round
    /// `.1`, or after the stream when `.1` is past its end.
    Window(usize, usize),
    /// Before every round a coin flip evicts a random member of the family
    /// while none is cold, or rehydrates the cold one.
    Random,
}

/// How one run serves its queries.
#[derive(Clone, Copy, Debug)]
pub struct Axes {
    pub mode: EngineMode,
    pub host: TransportSpec,
    /// Refresh fan-out threads.
    pub width: usize,
    pub evict: Evict,
    pub part: Part,
}

impl Axes {
    /// In-process, width 1, never evicted, the family's partitioner.
    pub fn new(family: Family, mode: EngineMode) -> Axes {
        Axes {
            mode,
            host: TransportSpec::InProcess,
            width: 1,
            evict: Evict::Never,
            part: family.row().2,
        }
    }

    pub fn session(&self, workers: usize) -> GrapeSession {
        GrapeSession::builder()
            .workers(workers)
            .mode(self.mode)
            .transport(self.host)
            .refresh_threads(self.width)
            .build()
            .unwrap()
    }
}

/// `true` when the grape-worker binary is discoverable.  A workspace
/// `cargo test` always builds it; a bare `cargo test --test equivalence`
/// on a cold tree may not, so Process-axis cells skip loudly instead.
pub fn worker_available() -> bool {
    let found = locate_worker_binary().is_some();
    if !found {
        eprintln!(
            "skipping Process-axis cells: grape-worker binary not built \
             (run `cargo build -p grape-daemon --bins` first)"
        );
    }
    found
}

/// The canonical byte form of an answer: its key-sorted rows, serialized
/// with the JSON codec the worker pipes use, so a float that crossed a pipe
/// differently shows here.
pub fn canon<P: DeltaOutput>(program: &P, query: &P::Query, output: &P::Output) -> String {
    serde_json::to_string(&program.canonical(query, output)).unwrap()
}

/// One registered query, type-erased so a server may hold any mix of
/// programs.
pub trait Member {
    fn id(&self) -> usize;
    /// The served answer's canonical bytes (the query must be warm).
    fn answer(&self, server: &GrapeServer) -> String;
    /// A from-scratch run on `frag`, in the same bytes.
    fn oracle(&self, session: &GrapeSession, frag: &Fragmentation) -> String;
    fn subscribe(&self, server: &mut GrapeServer);
    fn evict(&self, server: &mut GrapeServer);
    /// Returns the replayed step count and the replay's PEval calls.
    fn rehydrate(&self, server: &mut GrapeServer) -> (usize, usize);
}

struct Served<P: DeltaOutput> {
    program: P,
    query: P::Query,
    handle: QueryHandle<P>,
}

/// Registers `query` on `server`.
pub fn serve<P>(server: &mut GrapeServer, program: P, query: P::Query) -> Box<dyn Member>
where
    P: DeltaOutput + Clone + 'static,
    P::Query: Clone,
    P::Partial: Serialize + Deserialize,
{
    let handle = server.register(program.clone(), query.clone()).unwrap();
    Box::new(Served {
        program,
        query,
        handle,
    })
}

impl<P> Member for Served<P>
where
    P: DeltaOutput + 'static,
    P::Partial: Serialize + Deserialize,
{
    fn id(&self) -> usize {
        self.handle.id()
    }

    fn answer(&self, server: &GrapeServer) -> String {
        let out = server
            .try_output(&self.handle)
            .unwrap_or_else(|e| panic!("query {}: {e}", self.id()));
        canon(&self.program, &self.query, &out)
    }

    fn oracle(&self, session: &GrapeSession, frag: &Fragmentation) -> String {
        let run = session.run(frag, &self.program, &self.query).unwrap();
        canon(&self.program, &self.query, &run.output)
    }

    fn subscribe(&self, server: &mut GrapeServer) {
        server.subscribe(&self.handle).unwrap();
    }

    fn evict(&self, server: &mut GrapeServer) {
        server.evict(&self.handle).unwrap();
    }

    fn rehydrate(&self, server: &mut GrapeServer) -> (usize, usize) {
        let report = server.rehydrate(&self.handle).unwrap();
        (report.replayed.len(), report.peval_calls())
    }
}

/// Sanity every refresh must satisfy, whatever path it took.
pub fn check_report(report: &UpdateReport, m: usize, tag: &str) {
    assert_eq!(
        report.metrics.peval_calls,
        report.repeval.len(),
        "peval accounting diverges from the damage frontier ({tag})"
    );
    assert_eq!(report.affected_fragments, report.rebuilt.len(), "{tag}");
    assert_eq!(report.reused, m - report.rebuilt.len(), "{tag}");
    if report.kind != RefreshKind::Retracted {
        assert_eq!(
            report.retracted, 0,
            "only a retraction resets cells ({tag})"
        );
    }
    match report.kind {
        RefreshKind::Monotone | RefreshKind::Retracted => {
            assert!(report.incremental, "{tag}");
            assert_eq!(report.metrics.peval_calls, 0, "{tag}");
        }
        RefreshKind::Bounded => {
            assert!(!report.incremental, "{tag}");
            assert!(
                report.metrics.peval_calls < m,
                "bounded refresh must beat a full re-preparation ({tag})"
            );
        }
        RefreshKind::Full => {
            assert!(!report.incremental, "{tag}");
            assert_eq!(report.metrics.peval_calls, m, "{tag}");
        }
    }
}

/// The width-independent content of a [`ServeReport`]: everything except
/// the raw engine metrics (whose message and superstep counts the async
/// runtime does not promise to be schedule-independent).  Also asserts the
/// per-query entries arrive sorted by id, the determinism contract of the
/// merged fan-out.
fn report_digest(r: &ServeReport, tag: &str) -> Vec<String> {
    let ids: Vec<usize> = r.refreshed.iter().map(|q| q.query).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "refreshed entries not sorted by id ({tag})");

    let mut digest = vec![format!(
        "version={} rebuilt={:?} reused={} caught_up={:?} deferred={:?} poisoned={:?}",
        r.version, r.rebuilt, r.reused, r.caught_up, r.deferred, r.poisoned
    )];
    for q in &r.refreshed {
        digest.push(match &q.result {
            Ok(u) => format!(
                "q{} ok kind={:?} rebuilt={:?} reused={} incremental={}",
                q.query, u.kind, u.rebuilt, u.reused, u.incremental
            ),
            Err(e) => format!("q{} err {e}", q.query),
        });
    }
    digest
}

/// One state of a run: after registration, after a committed round, or
/// after the tail rehydration.
#[derive(Debug, Default)]
pub struct Commit {
    /// The committed round; `None` for registration and the tail.
    pub round: Option<usize>,
    /// Every member's canonical answer, `None` while it is cold (empty
    /// where the run's [`Record`] skips it).
    pub answers: Vec<Option<String>>,
    /// Every member's from-scratch answer on the same graph (empty where
    /// the run's [`Record`] skips it).
    pub oracle: Vec<String>,
    /// The refresh path of every refreshed member.
    pub kinds: Vec<RefreshKind>,
    pub digest: Vec<String>,
}

/// What one seeded run did, for the relations to compare.
#[derive(Debug, Default)]
pub struct Trace {
    pub tag: String,
    pub ids: Vec<usize>,
    pub commits: Vec<Commit>,
    /// Every answer delta pushed to the subscriptions (see
    /// [`Stand::watch`]), in order.
    pub events: Vec<QueryDelta>,
    /// `(replayed steps, PEval calls)` of every rehydration.
    pub rehydrations: Vec<(usize, usize)>,
    /// The committed deltas, in order.
    pub deltas: Vec<GraphDelta>,
    pub version: usize,
}

impl Trace {
    pub fn answers(&self) -> Vec<&[Option<String>]> {
        self.commits.iter().map(|c| c.answers.as_slice()).collect()
    }

    pub fn digests(&self) -> Vec<&[String]> {
        self.commits.iter().map(|c| c.digest.as_slice()).collect()
    }

    /// update ≡ recompute: every warm answer equals the from-scratch run on
    /// the same graph, wherever the run recomputed.
    pub fn assert_exact(&self) {
        let last = self.commits.last().expect("a trace starts at registration");
        assert!(!last.oracle.is_empty(), "{}: nothing recomputed", self.tag);
        for c in self.commits.iter().filter(|c| !c.oracle.is_empty()) {
            for (q, (served, fresh)) in c.answers.iter().zip(&c.oracle).enumerate() {
                if let Some(served) = served {
                    assert_eq!(
                        served, fresh,
                        "{}: query {q} after round {:?} differs from a recompute",
                        self.tag, c.round
                    );
                }
            }
        }
    }
}

/// Which states of a run a [`Trace`] records answers of, and whether each
/// is also recomputed from scratch.  The registration's answers are always
/// recorded; the final state's too.
#[derive(Clone, Copy, PartialEq)]
pub enum Record {
    /// The registration and the final state.
    Ends,
    /// The same, with the final state recomputed.
    EndsExact,
    /// Every commit.
    Commits,
    /// Every commit, each recomputed.
    CommitsExact,
}

/// One seeded case, registered and ready to drive.
pub struct Stand {
    pub server: GrapeServer,
    pub members: Vec<Box<dyn Member>>,
    session: GrapeSession,
    evict: Evict,
    family_members: usize,
    rounds: usize,
    mixes: Vec<Mix>,
    blocks: Vec<(u64, u64)>,
    rng: StdRng,
    tag: String,
}

/// Draws one seeded case of `family` — the graph, the fragment count, the
/// engine workers, the query count, then each query, in that order — and
/// registers it on a server built with `axes`.
pub fn stand(family: Family, p: &Profile, axes: Axes, seed: u64) -> Stand {
    let mut rng = StdRng::seed_from_u64(seed);
    let (labels, family_fragments, _, family_mix) = family.row();
    let (graph, blocks) = match family {
        Family::Cf => rating_blocks(&mut rng),
        Family::Cc => (arb_graph(&mut rng, p.n, p.m, 0).to_undirected(), Vec::new()),
        _ => (arb_graph(&mut rng, p.n, p.m, labels), Vec::new()),
    };
    let fragments = draw(&mut rng, p.fragments.unwrap_or(family_fragments)) as usize;
    let workers = family
        .pinned_workers(axes.mode)
        .unwrap_or_else(|| draw(&mut rng, p.workers)) as usize;
    let k = draw(&mut rng, p.queries) as usize;
    let frag = match axes.part {
        Part::Hash => HashEdgeCut::new(fragments).partition(&graph),
        Part::Range => RangeEdgeCut::new(fragments).partition(&graph),
    }
    .unwrap();
    let session = axes.session(workers);
    let mut server = GrapeServer::new(session.clone(), frag);
    let n = graph.num_vertices() as u64;
    let members = (0..k)
        .map(|_| family.register(&mut rng, &mut server, n))
        .collect();
    let mixes = if p.mixes.is_empty() {
        vec![family_mix]
    } else {
        p.mixes.to_vec()
    };
    Stand {
        server,
        members,
        session,
        evict: axes.evict,
        family_members: k,
        rounds: p.rounds,
        mixes,
        blocks,
        rng,
        tag: format!("{family:?} seed {seed:#x} workers {workers} {axes:?}"),
    }
}

impl Stand {
    /// Subscribes to every member's answer deltas; [`Trace::events`]
    /// collects them.
    pub fn watch(&mut self) {
        for member in &self.members {
            member.subscribe(&mut self.server);
        }
    }

    /// Drives the stream: per round, the eviction schedule, one drawn delta
    /// (skipped when empty), the sanity of every refresh and the report's
    /// digest — plus, as `record` asks, a snapshot of every warm answer and
    /// a recompute of every query.  A member still cold after the stream is
    /// rehydrated and snapshotted once more.
    pub fn drive(mut self, record: Record) -> Trace {
        let mut trace = Trace {
            tag: self.tag.clone(),
            ids: self.members.iter().map(|m| m.id()).collect(),
            ..Trace::default()
        };
        let every = matches!(record, Record::Commits | Record::CommitsExact);
        let exact = record == Record::CommitsExact;
        trace
            .commits
            .push(self.snapshot(Commit::default(), None, false));
        let mut cold: Option<usize> = None;
        for round in 0..self.rounds {
            let flip = match (self.evict, cold) {
                (Evict::Never, _) => false,
                (Evict::Window(start, _), None) => round == start,
                (Evict::Window(_, end), Some(_)) => round == end,
                (Evict::Random, _) => self.rng.gen_range(0u32..2) == 0,
            };
            if flip {
                match cold.take() {
                    Some(c) => trace
                        .rehydrations
                        .push(self.members[c].rehydrate(&mut self.server)),
                    None => {
                        let c = match self.evict {
                            Evict::Random => self.rng.gen_range(0..self.family_members as u64),
                            _ => 0,
                        } as usize;
                        self.members[c].evict(&mut self.server);
                        cold = Some(c);
                    }
                }
            }
            let mix = self.mixes[round % self.mixes.len()];
            let delta = mix.draw(
                &mut self.rng,
                self.server.fragmentation().source(),
                &self.blocks,
            );
            if delta.is_empty() {
                continue;
            }
            let tag = format!("{} round {round}", self.tag);
            let report = self
                .server
                .apply(&delta)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let m = self.server.fragmentation().num_fragments();
            let mut kinds = Vec::new();
            for q in &report.refreshed {
                let update = q.result.as_ref().unwrap_or_else(|e| panic!("{tag}: {e}"));
                check_report(update, m, &tag);
                kinds.push(update.kind);
            }
            if let Some(c) = cold {
                let id = self.members[c].id();
                assert!(
                    report.deferred.contains(&id),
                    "cold query {id} not deferred ({tag})"
                );
            }
            let commit = Commit {
                round: Some(round),
                kinds,
                digest: report_digest(&report, &tag),
                ..Commit::default()
            };
            let commit = if every {
                self.snapshot(commit, cold, exact)
            } else {
                commit
            };
            trace.commits.push(commit);
            trace.deltas.push(delta);
        }
        if let Some(c) = cold {
            trace
                .rehydrations
                .push(self.members[c].rehydrate(&mut self.server));
            trace
                .commits
                .push(self.snapshot(Commit::default(), None, exact));
        }
        let last = trace.commits.last_mut().unwrap();
        if last.answers.is_empty() {
            *last = self.snapshot(std::mem::take(last), None, false);
        }
        if record == Record::EndsExact || (exact && last.oracle.is_empty()) {
            last.oracle = self.oracles();
        }
        trace.events = self.server.drain_events();
        trace.version = self.server.version();
        trace
    }

    fn snapshot(&self, mut commit: Commit, cold: Option<usize>, oracle: bool) -> Commit {
        for (i, member) in self.members.iter().enumerate() {
            commit
                .answers
                .push((cold != Some(i)).then(|| member.answer(&self.server)));
        }
        if oracle {
            commit.oracle = self.oracles();
        }
        commit
    }

    fn oracles(&self) -> Vec<String> {
        let frag = self.server.fragmentation();
        self.members
            .iter()
            .map(|m| m.oracle(&self.session, frag))
            .collect()
    }
}
