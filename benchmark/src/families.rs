//! The `families` workload: the paper's own measurement.  All five query
//! classes, library only — no daemon, no serve layer, no spill — through
//! `GrapeSession::run` (response time, communication volume) and
//! `PreparedQuery::update` (answers under updates).
//!
//! One operation is a *sweep*: every family run from scratch once, then
//! every family's prepared handle taken through one stationary update pair
//! (close: remove one edge; reopen: insert it again).  Each answer is
//! checked against its oracle; the checks run between the timed calls, so
//! an operation's latency is the sum of its timed calls.
//!
//! The graphs, patterns and the SSSP source are parameters of the harness:
//! a different pattern is a different problem, not another sample of this
//! one.  `--seed` picks which edge each family closes and reopens.

use std::time::Duration;

use grape_algorithms::cc::{connected_components, Cc, CcQuery};
use grape_algorithms::cf::{Cf, CfQuery};
use grape_algorithms::sim::{graph_simulation, Sim, SimQuery};
use grape_algorithms::sssp::{dijkstra, Sssp, SsspQuery};
use grape_algorithms::subiso::{subgraph_isomorphism, SubIso, SubIsoQuery};
use grape_core::config::EngineMode;
use grape_core::metrics::EngineMetrics;
use grape_core::pie::IncrementalPie;
use grape_core::prepared::PreparedQuery;
use grape_core::session::GrapeSession;
use grape_graph::delta::GraphDelta;
use grape_graph::generators::{bipartite_ratings, labeled_kg, power_law, road_grid};
use grape_graph::graph::Graph;
use grape_graph::pattern::Pattern;
use grape_graph::types::{Edge, VertexId};
use grape_partition::fragment::Fragmentation;
use grape_partition::metis_like::MetisLike;
use grape_partition::strategy::PartitionStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{Fnv, Mirror};
use crate::manifest::{FAMILIES, TAIL_PERCENTILE};
use crate::serve::{FRAGMENTS, WORKERS};
use crate::stats::{self, samples_needed};
use crate::trace::Recorder;
use crate::{procs, Metrics, RunOpts, RunResult, SETUPS};

/// Async run sweeps a traced run makes for `core.run_sweep_async_ms`.
const ASYNC_SWEEPS: usize = 5;
/// SubIso's per-fragment match cap; the datasets stay well below it, so
/// the capped enumeration and the oracle's agree.
const MATCH_CAP: usize = 20_000;
/// A trained CF model must fit its training ratings at least this well.
const CF_RMSE_BOUND: f64 = 1.5;
/// Values agree within this (absolute and relative).
const TOLERANCE: f64 = 1e-9;

/// An answer in comparable form: `(key, value)` rows sorted by key.
type Canon = Vec<(u64, f64)>;

fn agrees(got: &Canon, want: &Canon) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&(gk, gv), &(wk, wv))| {
            gk == wk && (gv - wv).abs() <= TOLERANCE * wv.abs().max(1.0)
        })
}

fn canon_sorted(mut rows: Canon) -> Canon {
    rows.sort_by_key(|row| row.0);
    rows
}

fn relation_rows(relation: &[Vec<VertexId>], vertices: usize) -> Canon {
    canon_sorted(
        relation
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| ((u * vertices) as u64 + v, 1.0)))
            .collect(),
    )
}

/// Matches as a set: VF2 reports a mapping once per parallel edge it can
/// follow, the engine once.
fn match_rows(matches: &[Vec<VertexId>]) -> Canon {
    let mut rows = canon_sorted(
        matches
            .iter()
            .map(|m| {
                let mut fnv = Fnv::new();
                m.iter().for_each(|&v| fnv.u64(v));
                (fnv.finish(), 1.0)
            })
            .collect(),
    );
    rows.dedup();
    rows
}

/// What a timed engine call reported.
struct Call {
    took: Duration,
    metrics: EngineMetrics,
}

/// One query class behind a uniform face, so a sweep is a loop.
trait Case {
    fn family(&self) -> &'static str;
    /// `session.run` from scratch on the start graph; checks the answer
    /// when `verify` is set.
    fn run(
        &mut self,
        session: &GrapeSession,
        rec: &mut Recorder,
        verify: bool,
    ) -> Result<Call, String>;
    /// Close then reopen on the prepared handle; checks both answers.
    fn update_pair(&mut self, rec: &mut Recorder) -> Result<Call, String>;
    /// Logs the answer's size and folds what identifies this case's input
    /// into `fnv`.
    fn describe(&self, fnv: &mut Fnv);
}

/// A [`Case`] for program `P`.
struct Typed<P: IncrementalPie + Clone> {
    family: &'static str,
    run_span: &'static str,
    update_span: &'static str,
    program: P,
    query: P::Query,
    fragmentation: Fragmentation,
    prepared: PreparedQuery<P>,
    /// The answer in comparable form.
    canon: fn(&P::Output, &Graph) -> Canon,
    /// The edge the update pair closes and reopens.
    edge: Edge,
    /// Expected answers: on the start graph, after close, after reopen.
    expect_start: Canon,
    expect_closed: Canon,
    expect_reopened: Canon,
}

impl<P: IncrementalPie + Clone> Case for Typed<P> {
    fn family(&self) -> &'static str {
        self.family
    }

    fn run(
        &mut self,
        session: &GrapeSession,
        rec: &mut Recorder,
        verify: bool,
    ) -> Result<Call, String> {
        let span = rec.enter(self.run_span, None, 0);
        let result = session.run(&self.fragmentation, &self.program, &self.query);
        let took = rec.exit(span);
        let result = result.map_err(|e| format!("{} run: {e}", self.family))?;
        let got = (self.canon)(&result.output, self.fragmentation.source());
        if verify && !agrees(&got, &self.expect_start) {
            return Err(format!("{} run disagrees with its oracle", self.family));
        }
        Ok(Call {
            took,
            metrics: result.metrics,
        })
    }

    fn update_pair(&mut self, rec: &mut Recorder) -> Result<Call, String> {
        let close = GraphDelta::new().remove_edge(self.edge.src, self.edge.dst);
        let reopen = GraphDelta::new().add_edge_record(self.edge);
        let mut took = Duration::ZERO;
        let mut last = None;
        for (delta, expect, what) in [
            (&close, &self.expect_closed, "close"),
            (&reopen, &self.expect_reopened, "reopen"),
        ] {
            let span = rec.enter(self.update_span, None, 0);
            let report = self.prepared.update(delta);
            took += rec.exit(span);
            let report = report.map_err(|e| format!("{} {what}: {e}", self.family))?;
            let output = self
                .prepared
                .try_output()
                .map_err(|e| format!("{} {what}: {e}", self.family))?;
            let got = (self.canon)(&output, self.prepared.fragmentation().source());
            if !agrees(&got, expect) {
                return Err(format!(
                    "{} after {what} disagrees with its oracle ({} rows, expected {})",
                    self.family,
                    got.len(),
                    expect.len()
                ));
            }
            last = Some(report.metrics);
        }
        Ok(Call {
            took,
            metrics: last.expect("two updates ran"),
        })
    }

    fn describe(&self, fnv: &mut Fnv) {
        eprintln!(
            "families: {} answer has {} rows",
            self.family,
            self.expect_start.len()
        );
        let source = self.fragmentation.source();
        fnv.u64(source.num_vertices() as u64);
        fnv.u64(source.num_edges() as u64);
        fnv.edge(&self.edge);
    }
}

/// How a family's expected answer over a fragmentation's source graph is
/// obtained (CF's oracle also needs the fragmentation itself).
type Oracle<'a> = &'a dyn Fn(&Fragmentation) -> Result<Canon, String>;

/// Prepares one family: partition, the prepared handle, and the expected
/// answers — taken while the handle goes through one un-timed update pair,
/// after checking against the harness's own mirror that the handle's graph
/// really lost and regained the edge.  (The pair also fixes the edge order
/// the stationary updates alternate between.)
#[allow(clippy::too_many_arguments)]
fn prepare_case<P: IncrementalPie + Clone + 'static>(
    family: &'static str,
    spans: (&'static str, &'static str),
    graph: &Graph,
    program: P,
    query: P::Query,
    canon: fn(&P::Output, &Graph) -> Canon,
    oracle: Oracle<'_>,
    session: &GrapeSession,
    rng: &mut StdRng,
    rec: &mut Recorder,
) -> Result<Box<dyn Case>, String> {
    let span = rec.enter("partition.partition", None, 0);
    let fragmentation = MetisLike::new(FRAGMENTS).partition(graph);
    rec.exit(span);
    let fragmentation = fragmentation.map_err(|e| format!("{family}: {e}"))?;
    let prepared = session
        .prepare(fragmentation.clone(), program.clone(), query.clone())
        .map_err(|e| format!("{family} prepare: {e}"))?;

    // An edge that is the only one between its endpoints, so removing and
    // re-inserting it leaves the graph as it was.
    let edges = graph.edges();
    let edge = loop {
        let candidate = edges[rng.gen_range(0..edges.len())];
        let twins = edges
            .iter()
            .filter(|e| e.src == candidate.src && e.dst == candidate.dst)
            .count();
        if twins == 1 {
            break candidate;
        }
    };
    let mut case = Typed {
        family,
        run_span: spans.0,
        update_span: spans.1,
        program,
        query,
        expect_start: oracle(&fragmentation)?,
        fragmentation,
        prepared,
        canon,
        edge,
        expect_closed: Vec::new(),
        expect_reopened: Vec::new(),
    };
    let mut mirror = Mirror::new(graph);
    for closing in [true, false] {
        let delta = if closing {
            GraphDelta::new().remove_edge(edge.src, edge.dst)
        } else {
            GraphDelta::new().add_edge_record(edge)
        };
        mirror.apply(&delta);
        case.prepared
            .update(&delta)
            .map_err(|e| format!("{family} first update pair: {e}"))?;
        let now = case.prepared.fragmentation();
        if !mirror.matches(now.source()) {
            return Err(format!(
                "{family}: the handle's graph is not the updated graph"
            ));
        }
        let expected = oracle(now)?;
        if closing {
            case.expect_closed = expected;
        } else {
            case.expect_reopened = expected;
        }
    }
    // From here on every pair must reproduce exactly these two answers.
    case.update_pair(&mut Recorder::new(false))?;
    Ok(Box::new(case))
}

/// A path pattern of `nodes` nodes that the graph is sure to match often:
/// it starts with the most frequent `(source label, target label)` pair
/// among the edges and extends with the most frequent pair that continues
/// from the last label.  A random pattern over a hundred labels matches
/// nothing, which would leave Sim and SubIso with no work to measure.
fn frequent_path(graph: &Graph, nodes: usize) -> Pattern {
    let mut pairs: std::collections::BTreeMap<(u32, u32), usize> = Default::default();
    for e in graph.edges() {
        *pairs
            .entry((graph.vertex_label(e.src), graph.vertex_label(e.dst)))
            .or_default() += 1;
    }
    let best = |from: Option<u32>| {
        pairs
            .iter()
            .filter(|((a, _), _)| from.is_none_or(|f| *a == f))
            .max_by_key(|(pair, &count)| (count, std::cmp::Reverse(**pair)))
            .map(|(&pair, _)| pair)
    };
    let (first, second) = best(None).expect("the graph has edges");
    let mut labels = vec![first, second];
    while labels.len() < nodes {
        let last = *labels.last().expect("non-empty");
        let (_, next) = best(Some(last)).expect("a frequent label has out-edges");
        labels.push(next);
    }
    let edges = (1..nodes as u32).map(|i| (i - 1, i)).collect();
    Pattern::new(labels, edges)
}

/// CF has no sequential algorithm that reproduces the distributed SGD
/// trajectory, so its oracle is the repo's own pin: a from-scratch engine
/// run over the same fragmentation, which must also fit the ratings.
fn cf_oracle(
    session: &GrapeSession,
    query: &CfQuery,
    fragmentation: &Fragmentation,
) -> Result<Canon, String> {
    let graph = fragmentation.source();
    let model = session
        .run(fragmentation, &Cf, query)
        .map_err(|e| e.to_string())?
        .output;
    let rmse = model.rmse(graph);
    if rmse.is_nan() || rmse >= CF_RMSE_BOUND {
        return Err(format!("cf model does not fit its ratings: rmse {rmse}"));
    }
    Ok(cf_rows(&model, graph))
}

fn cf_rows(model: &grape_algorithms::cf::CfModel, _graph: &Graph) -> Canon {
    canon_sorted(
        model
            .factors()
            .iter()
            .flat_map(|(&v, f)| {
                f.iter()
                    .enumerate()
                    .map(move |(i, &x)| (v * 64 + i as u64, x))
            })
            .collect(),
    )
}

/// Builds the five cases.  Everything here is set-up a library user pays:
/// dataset build, partition, prepare.  The oracles are the harness's cost,
/// but they are small beside it and keeping them inline keeps one code path.
fn set_up(
    session: &GrapeSession,
    seed: u64,
    rec: &mut Recorder,
) -> Result<Vec<Box<dyn Case>>, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let road = road_grid(64, 64, 7);
    let social = power_law(4_000, 24_000, 100, 0xBEEF);
    let knowledge = labeled_kg(4_000, 16_000, 200, 160, 0xCAFE);
    let ratings = bipartite_ratings(500, 150, 9_000, 8, 0xD00D).graph;
    let sim_pattern = frequent_path(&social, 4);
    let iso_pattern = frequent_path(&knowledge, 3);
    let cf_query = CfQuery::default();

    let mut cases = Vec::new();
    cases.push(prepare_case(
        FAMILIES[0],
        ("core.run.sssp", "core.update.sssp"),
        &road,
        Sssp,
        SsspQuery::new(0),
        |out, _| {
            canon_sorted(
                out.distances()
                    .iter()
                    .filter(|(_, d)| d.is_finite())
                    .map(|(&v, &d)| (v, d))
                    .collect(),
            )
        },
        &|f| {
            Ok(dijkstra(f.source(), 0)
                .into_iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, d)| (v as u64, d))
                .collect())
        },
        session,
        &mut rng,
        rec,
    )?);
    cases.push(prepare_case(
        FAMILIES[1],
        ("core.run.cc", "core.update.cc"),
        &road,
        Cc,
        CcQuery,
        |out, _| canon_sorted(out.labels().iter().map(|(&v, &c)| (v, c as f64)).collect()),
        &|f| {
            Ok(connected_components(f.source())
                .into_iter()
                .enumerate()
                .map(|(v, c)| (v as u64, c as f64))
                .collect())
        },
        session,
        &mut rng,
        rec,
    )?);
    let pattern = sim_pattern.clone();
    cases.push(prepare_case(
        FAMILIES[2],
        ("core.run.sim", "core.update.sim"),
        &social,
        Sim::new(),
        SimQuery::new(sim_pattern),
        |out, g| relation_rows(out.relation(), g.num_vertices()),
        &|f| {
            let g = f.source();
            Ok(relation_rows(
                &graph_simulation(g, &pattern),
                g.num_vertices(),
            ))
        },
        session,
        &mut rng,
        rec,
    )?);
    let pattern = iso_pattern.clone();
    cases.push(prepare_case(
        FAMILIES[3],
        ("core.run.subiso", "core.update.subiso"),
        &knowledge,
        SubIso,
        SubIsoQuery::new(iso_pattern).with_max_matches(MATCH_CAP),
        |out, _| match_rows(out.matches()),
        &|f| {
            let matches = subgraph_isomorphism(f.source(), &pattern, MATCH_CAP);
            if matches.len() >= MATCH_CAP {
                return Err("subiso dataset reaches the match cap".to_string());
            }
            Ok(match_rows(&matches))
        },
        session,
        &mut rng,
        rec,
    )?);
    let query = cf_query.clone();
    cases.push(prepare_case(
        FAMILIES[4],
        ("core.run.cf", "core.update.cf"),
        &ratings,
        Cf,
        cf_query,
        cf_rows,
        &|f| cf_oracle(session, &query, f),
        session,
        &mut rng,
        rec,
    )?);
    Ok(cases)
}

fn session(mode: EngineMode) -> Result<GrapeSession, String> {
    GrapeSession::builder()
        .workers(WORKERS)
        .mode(mode)
        .build()
        .map_err(|e| e.to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-family samples a traced run derives its layer metrics from.
#[derive(Default)]
struct FamilySamples {
    run_ms: Vec<f64>,
    route_ms: Vec<f64>,
    peval_ms: Vec<f64>,
    inceval_ms: Vec<f64>,
    update_ms: Vec<f64>,
    comm_mb: f64,
}

/// Runs the `families` workload.
pub fn run(opts: &RunOpts, rec: &mut Recorder) -> Result<RunResult, String> {
    let sync = session(EngineMode::Sync)?;
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        let started = std::time::Instant::now();
        cases = set_up(&sync, opts.seed, rec)?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut fnv = Fnv::new();
    cases.iter().for_each(|c| c.describe(&mut fnv));
    eprintln!(
        "families: input_digest {:016x} (seed {})",
        fnv.finish(),
        opts.seed
    );

    let mut samples: Vec<FamilySamples> = FAMILIES.iter().map(|_| Default::default()).collect();
    let (mut run_sweeps, mut update_sweeps, mut op_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let min_ops = if opts.trace {
        1
    } else {
        samples_needed(TAIL_PERCENTILE)
    };
    let me = std::process::id();
    let cpu_before = procs::cpu_seconds(me);
    let started = std::time::Instant::now();
    'sweeps: while started.elapsed().as_secs_f64() < opts.seconds || op_ms.len() < min_ops {
        let (mut run_sweep, mut update_sweep) = (Duration::ZERO, Duration::ZERO);
        for (case, s) in cases.iter_mut().zip(&mut samples) {
            attempted += 1;
            match case.run(&sync, rec, true) {
                Ok(call) => {
                    run_sweep += call.took;
                    let m = &call.metrics;
                    let peval = m
                        .per_superstep
                        .first()
                        .map_or(Duration::ZERO, |s| s.duration);
                    s.run_ms.push(ms(m.total_time));
                    s.route_ms
                        .push(ms(m.total_time.saturating_sub(m.eval_time)));
                    s.peval_ms.push(ms(peval));
                    s.inceval_ms.push(ms(m.eval_time.saturating_sub(peval)));
                    s.comm_mb = m.comm_megabytes();
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                    break 'sweeps;
                }
            }
        }
        for (case, s) in cases.iter_mut().zip(&mut samples) {
            attempted += 1;
            match case.update_pair(rec) {
                Ok(call) => {
                    update_sweep += call.took;
                    s.update_ms.push(ms(call.took));
                }
                Err(e) => {
                    eprintln!("{e}");
                    failed += 1;
                    break 'sweeps;
                }
            }
        }
        run_sweeps.push(ms(run_sweep));
        update_sweeps.push(ms(update_sweep));
        op_ms.push(ms(run_sweep + update_sweep));
    }
    let wall = started.elapsed();
    let cpu_used = procs::cpu_seconds(me) - cpu_before;

    let mut metrics = Metrics::default();
    if opts.trace {
        let relaxed = session(EngineMode::Async)?;
        let mut async_sweeps = Vec::new();
        for _ in 0..ASYNC_SWEEPS {
            let mut sweep = Duration::ZERO;
            for case in cases.iter_mut() {
                attempted += 1;
                // CF's SGD depends on the order messages arrive in, which
                // the barrier-free runtime does not fix: timed, not checked.
                let verify = case.family() != "cf";
                match case.run(&relaxed, &mut Recorder::new(false), verify) {
                    Ok(call) => sweep += call.took,
                    Err(e) => {
                        eprintln!("async {e}");
                        failed += 1;
                    }
                }
            }
            async_sweeps.push(ms(sweep));
        }
        metrics.set("core.run_sweep_ms", stats::median(&run_sweeps));
        metrics.set("core.update_sweep_ms", stats::median(&update_sweeps));
        metrics.set("core.run_sweep_async_ms", stats::median(&async_sweeps));
        metrics.set(
            "partition.partition_ms",
            stats::median(&rec.durations_ms("partition.partition")),
        );
        for (case, s) in cases.iter().zip(&samples) {
            let f = case.family();
            metrics.set(&format!("core.run_ms.{f}"), stats::median(&s.run_ms));
            metrics.set(&format!("core.route_ms.{f}"), stats::median(&s.route_ms));
            metrics.set(
                &format!("core.prepared_update_ms.{f}"),
                stats::median(&s.update_ms),
            );
            metrics.set(
                &format!("algorithms.peval_ms.{f}"),
                stats::median(&s.peval_ms),
            );
            metrics.set(
                &format!("algorithms.inceval_ms.{f}"),
                stats::median(&s.inceval_ms),
            );
            metrics.set(&format!("algorithms.comm_mb.{f}"), s.comm_mb);
        }
    } else {
        metrics = Metrics::end_to_end(
            "families",
            &setups,
            &op_ms,
            wall,
            cpu_used,
            procs::peak_rss_mb(me),
        );
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
    })
}
