//! The correctness oracle for served answers: the sequential algorithms
//! over the harness's own mirror of the graph.  A mismatch is a failed
//! operation, never a warning.

use grape_algorithms::cc::connected_components;
use grape_algorithms::sssp::dijkstra;
use grape_core::spec::QuerySpec;
use grape_daemon::protocol::QueryAnswer;
use grape_graph::graph::Graph;
use grape_graph::types::VertexId;

/// Distances agree when they differ by at most this (absolute and
/// relative): the engine sums a path's weights in another order than
/// Dijkstra does.
const DISTANCE_TOLERANCE: f64 = 1e-9;

/// The expected answer rows of `spec` over `graph`, in the wire's canonical
/// form (sorted by vertex; unreachable vertices absent).
pub fn expected(spec: QuerySpec, graph: &Graph) -> QueryAnswer {
    match spec {
        QuerySpec::Sssp { source } => QueryAnswer::Sssp {
            distances: dijkstra(graph, source)
                .into_iter()
                .enumerate()
                .filter(|(_, d)| d.is_finite())
                .map(|(v, d)| (v as VertexId, d))
                .collect(),
        },
        QuerySpec::Cc => QueryAnswer::Cc {
            components: connected_components(graph)
                .into_iter()
                .enumerate()
                .map(|(v, c)| (v as VertexId, c))
                .collect(),
        },
    }
}

/// Whether `got` is the answer `want` (same kind, same vertices, equal
/// component ids, distances within tolerance).
pub fn agrees(got: &QueryAnswer, want: &QueryAnswer) -> bool {
    match (got, want) {
        (QueryAnswer::Sssp { distances: g }, QueryAnswer::Sssp { distances: w }) => {
            g.len() == w.len()
                && g.iter().zip(w).all(|(&(gv, gd), &(wv, wd))| {
                    gv == wv && (gd - wd).abs() <= DISTANCE_TOLERANCE * wd.abs().max(1.0)
                })
        }
        (QueryAnswer::Cc { components: g }, QueryAnswer::Cc { components: w }) => g == w,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::road_grid;

    #[test]
    fn the_oracle_accepts_its_own_answer_and_rejects_a_corrupted_one() {
        let g = road_grid(6, 6, 7);
        for spec in [QuerySpec::Sssp { source: 3 }, QuerySpec::Cc] {
            let want = expected(spec, &g);
            assert!(agrees(&want, &want));
            let mut corrupted = want.clone();
            match &mut corrupted {
                QueryAnswer::Sssp { distances } => distances[5].1 += 1e-6,
                QueryAnswer::Cc { components } => components[5].1 = 99,
            }
            assert!(!agrees(&corrupted, &want), "{spec}: corruption must show");
            let mut short = want.clone();
            match &mut short {
                QueryAnswer::Sssp { distances } => drop(distances.pop()),
                QueryAnswer::Cc { components } => drop(components.pop()),
            }
            assert!(!agrees(&short, &want), "{spec}: a missing row must show");
        }
        assert!(!agrees(
            &expected(QuerySpec::Cc, &g),
            &expected(QuerySpec::Sssp { source: 0 }, &g)
        ));
    }

    #[test]
    fn float_reassociation_is_not_a_mismatch() {
        let want = QueryAnswer::Sssp {
            distances: vec![(0, 0.0), (1, 0.1 + 0.2 + 0.3)],
        };
        let got = QueryAnswer::Sssp {
            distances: vec![(0, 0.0), (1, 0.3 + 0.2 + 0.1)],
        };
        assert!(agrees(&got, &want));
    }
}
