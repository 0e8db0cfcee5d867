//! Rendering daemon replies for `grapectl`.
//!
//! `--format json` prints the reply body's canonical wire JSON (so shell
//! pipelines can consume `grapectl` output exactly as they would consume
//! the socket); `--format text` prints a compact human view.

use grape_core::output_delta::OutputEvent;

use crate::protocol::{EventFrame, MetricsInfo, QueryAnswer, QueryRow, ResponseBody, StatusInfo};

/// Output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Format {
    /// Compact human-readable text (the default).
    #[default]
    Text,
    /// The reply body's wire JSON, one value per line.
    Json,
}

impl Format {
    /// Parses a `--format` argument.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format `{other}` (expected text|json)")),
        }
    }
}

/// Renders a reply body in the chosen format.
pub fn render(body: &ResponseBody, format: Format) -> String {
    match format {
        Format::Json => serde_json::to_string(body).unwrap_or_else(|e| {
            format!("{{\"reply\":\"error\",\"kind\":\"BadRequest\",\"message\":\"unserializable reply: {e}\"}}")
        }),
        Format::Text => render_text(body),
    }
}

fn render_text(body: &ResponseBody) -> String {
    match body {
        ResponseBody::Registered { query, spec } => {
            format!("registered query {query}: {spec}")
        }
        ResponseBody::Applied { reports, rejected } => {
            let mut out = String::new();
            for r in reports {
                out.push_str(&format!(
                    "v{}: rebuilt {} fragment(s), refreshed {:?}",
                    r.version,
                    r.rebuilt.len(),
                    r.refreshed
                ));
                if !r.failed.is_empty() {
                    out.push_str(&format!(", FAILED {:?}", r.failed));
                }
                if !r.deferred.is_empty() {
                    out.push_str(&format!(", deferred {:?}", r.deferred));
                }
                if !r.poisoned.is_empty() {
                    out.push_str(&format!(", poisoned {:?}", r.poisoned));
                }
                out.push('\n');
            }
            if let Some(rej) = rejected {
                out.push_str(&format!("delta #{} rejected: {}\n", rej.index, rej.reason));
            }
            if out.is_empty() {
                out.push_str("nothing applied\n");
            }
            out.pop();
            out
        }
        ResponseBody::Answer { query, answer } => render_answer(*query, answer),
        ResponseBody::Evicted { query, spill } => {
            format!("evicted query {query} -> {spill}")
        }
        ResponseBody::Rehydrated {
            query,
            replayed,
            peval_calls,
        } => format!(
            "rehydrated query {query}: replayed {replayed} delta(s), {peval_calls} PEval call(s)"
        ),
        ResponseBody::Compacted { query, folded } => {
            if *folded {
                format!("compacted query {query}: spill chain folded into a fresh base")
            } else {
                format!("compacted query {query}: nothing to fold (no increments)")
            }
        }
        ResponseBody::Subscribed {
            query,
            subscription,
        } => format!("subscribed {subscription} to query {query}"),
        ResponseBody::Unsubscribed { subscription } => {
            format!("unsubscribed {subscription}")
        }
        ResponseBody::Status { status } => render_status(status),
        ResponseBody::Metrics { metrics } => render_metrics(metrics),
        ResponseBody::ShuttingDown => "daemon shutting down".to_string(),
        ResponseBody::Error { kind, message } => format!("error ({kind:?}): {message}"),
    }
}

fn render_answer(query: usize, answer: &QueryAnswer) -> String {
    match answer {
        QueryAnswer::Sssp { distances } => {
            let mut out = format!(
                "query {query} (sssp): {} reachable vertices\n",
                distances.len()
            );
            for &(v, d) in distances {
                out.push_str(&format!("  {v}\t{d}\n"));
            }
            out.pop();
            out
        }
        QueryAnswer::Cc { components } => {
            let distinct = {
                let mut ids: Vec<_> = components.iter().map(|&(_, c)| c).collect();
                ids.sort_unstable();
                ids.dedup();
                ids.len()
            };
            let mut out = format!(
                "query {query} (cc): {} vertices in {distinct} component(s)\n",
                components.len()
            );
            for &(v, c) in components {
                out.push_str(&format!("  {v}\t{c}\n"));
            }
            out.pop();
            out
        }
    }
}

fn render_rows(out: &mut String, queries: &[QueryRow]) {
    out.push_str(
        "  id  spec              version  state     updates  inc/ret/bnd  bytes     spill\n",
    );
    for (id, row) in queries.iter().enumerate() {
        let s = &row.status;
        let state = if s.poisoned {
            "poisoned"
        } else if s.evicted {
            "evicted"
        } else {
            "resident"
        };
        let spill = if s.spill_bytes == 0 {
            "-".to_string()
        } else {
            // base + chain_len increments on disk, their total size, and
            // how many times the chain was folded.
            format!(
                "base+{} {}B fold:{}",
                s.spill_chain, s.spill_bytes, s.compactions
            )
        };
        out.push_str(&format!(
            "  {:<3} {:<17} {:<8} {:<9} {:<8} {:>3}/{:>3}/{:<4} {:<9} {}\n",
            id,
            row.spec.to_string(),
            s.version,
            state,
            s.updates_applied,
            s.incremental_updates,
            s.retracted_updates,
            s.bounded_updates,
            s.partial_bytes,
            spill
        ));
    }
}

fn render_status(info: &StatusInfo) -> String {
    let mut out = format!(
        "version {} | {} version(s) retained | {} quer{} ({} evicted) | {} resident partial byte(s)\n",
        info.version,
        info.retained_versions,
        info.num_queries,
        if info.num_queries == 1 { "y" } else { "ies" },
        info.num_evicted,
        info.resident_partial_bytes
    );
    out.push_str(&format!(
        "spill dir {} | {} compaction(s)\n",
        if info.spill_dir.is_empty() {
            "(unknown)"
        } else {
            info.spill_dir.as_str()
        },
        info.compactions
    ));
    render_rows(&mut out, &info.queries);
    out.pop();
    out
}

fn render_metrics(info: &MetricsInfo) -> String {
    let l = &info.latency;
    let mut out = format!(
        "uptime {:.1}s | version {} | {} resident partial byte(s) | {} compaction(s)\n",
        info.uptime_ms as f64 / 1e3,
        info.version,
        info.resident_partial_bytes,
        info.compactions
    );
    out.push_str(&format!(
        "per-delta latency over last {} commit(s): mean {:.3}ms  p50 {:.3}ms  p99 {:.3}ms  max {:.3}ms\n",
        info.latency_samples, l.mean_ms, l.p50_ms, l.p99_ms, l.max_ms
    ));
    out.push_str(&format!(
        "watch events: {} encode(s) | {} frame(s) | {} payload byte(s)\n",
        info.event_encodes, info.event_frames, info.event_bytes
    ));
    out.push_str(&format!(
        "worker pipes: {} payload byte(s)\n",
        info.pipe_bytes
    ));
    if let Some(samples) = &info.samples {
        out.push_str(&format!(
            "samples (ms): {}\n",
            samples
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    render_rows(&mut out, &info.queries);
    out.pop();
    out
}

/// Renders one pushed subscription event as a single line (the unit
/// `grapectl watch` streams).
pub fn render_event(event: &EventFrame, format: Format) -> String {
    match format {
        Format::Json => serde_json::to_string(event)
            .unwrap_or_else(|e| format!("{{\"event\":\"error\",\"message\":\"{e}\"}}")),
        Format::Text => match &event.event {
            OutputEvent::Delta(delta) => format!(
                "v{} query {} sub {}: {} changed, {} removed",
                event.version,
                event.query,
                event.subscription,
                delta.changed.len(),
                delta.removed.len()
            ),
            OutputEvent::Poisoned => format!(
                "v{} query {} sub {}: POISONED (terminal)",
                event.version, event.query, event.subscription
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorKind;
    use grape_core::spec::QuerySpec;

    #[test]
    fn format_parses_and_rejects() {
        assert_eq!(Format::parse("text").unwrap(), Format::Text);
        assert_eq!(Format::parse("json").unwrap(), Format::Json);
        assert!(Format::parse("yaml").is_err());
    }

    #[test]
    fn text_rendering_is_stable_for_simple_replies() {
        let body = ResponseBody::Registered {
            query: 2,
            spec: QuerySpec::Sssp { source: 3 },
        };
        assert_eq!(
            render(&body, Format::Text),
            "registered query 2: sssp(source=3)"
        );
        let err = ResponseBody::Error {
            kind: ErrorKind::UnknownHandle,
            message: "no query 9".to_string(),
        };
        assert_eq!(
            render(&err, Format::Text),
            "error (UnknownHandle): no query 9"
        );
    }

    #[test]
    fn status_rendering_shows_the_retraction_count() {
        use crate::protocol::{QueryRow, StatusInfo};
        use grape_core::serve::QueryStatus;

        let body = ResponseBody::Status {
            status: StatusInfo {
                version: 9,
                retained_versions: 1,
                num_queries: 1,
                num_evicted: 0,
                resident_partial_bytes: 64,
                spill_dir: String::new(),
                compactions: 0,
                queries: vec![QueryRow {
                    spec: QuerySpec::Sssp { source: 0 },
                    status: QueryStatus {
                        query: 0,
                        version: 9,
                        evicted: false,
                        poisoned: false,
                        updates_applied: 9,
                        incremental_updates: 4,
                        bounded_updates: 2,
                        retracted_updates: 3,
                        partial_bytes: 64,
                        watchers: 0,
                        spill_chain: 0,
                        spill_bytes: 0,
                        compactions: 0,
                    },
                }],
            },
        };
        let text = render(&body, Format::Text);
        assert!(text.contains("inc/ret/bnd"), "{text}");
        assert!(text.contains("  4/  3/2 "), "{text}");
        let json = render(&body, Format::Json);
        assert!(json.contains("\"retracted_updates\":3"), "{json}");
    }

    #[test]
    fn json_rendering_is_the_wire_body() {
        let body = ResponseBody::Answer {
            query: 0,
            answer: QueryAnswer::Sssp {
                distances: vec![(0, 0.0), (1, 1.5)],
            },
        };
        let json = render(&body, Format::Json);
        assert!(json.contains("\"reply\":\"answer\""), "{json}");
        assert!(json.contains("\"kind\":\"sssp\""), "{json}");
    }
}
