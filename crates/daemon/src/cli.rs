//! `grapectl` argument parsing and execution.
//!
//! Hand-rolled parsing (the container world has no clap): global flags
//! `--addr` and `--format`, then one subcommand.  [`parse`] is pure so the
//! tests can pin the grammar; [`run`] connects and executes.

use grape_core::output_delta::OutputEvent;
use grape_core::spec::QuerySpec;
use grape_graph::delta::GraphDelta;

use crate::client::{ClientError, GrapeClient};
use crate::format::{render, render_event, Format};
use crate::protocol::{RequestBody, ResponseBody, DEFAULT_PORT};

/// What `grapectl` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// `status` — server + per-query state.
    Status,
    /// `metrics [--samples]` — uptime, latency histogram, per-query
    /// counters; `--samples` adds the raw per-commit latency vector.
    Metrics {
        /// Request the raw sample vector too.
        samples: bool,
    },
    /// `watch <id> [--count N]` — subscribe to a query's answer deltas
    /// and stream them as they are pushed.
    Watch {
        /// The query handle to watch.
        query: usize,
        /// Stop after this many events (stream forever when `None`).
        count: Option<usize>,
    },
    /// `query <kind> [--source N]` — register a query AND print its
    /// current answer (the one-shot workflow).
    Query(QuerySpec),
    /// `register <kind> [--source N]` — register only; prints the handle.
    Register(QuerySpec),
    /// `apply --file <path>` or `apply <json>` — one delta (`{...}`) or a
    /// batch (`[...]`).
    Apply {
        /// Where the delta JSON comes from.
        source: DeltaSource,
    },
    /// `output <id>` — assemble an answer (rehydrates if needed).
    Output(usize),
    /// `try-output <id>` — assemble only if resident and caught up.
    TryOutput(usize),
    /// `evict <id>` — spill a query.
    Evict(usize),
    /// `rehydrate <id>` — reload and catch up a query.
    Rehydrate(usize),
    /// `shutdown` — stop the daemon.
    Shutdown,
}

/// Where `apply` reads its delta JSON from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaSource {
    /// `--file <path>`.
    File(String),
    /// The JSON given inline on the command line.
    Inline(String),
}

/// A fully parsed `grapectl` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CliOptions {
    /// Daemon address (`--addr`, default `127.0.0.1:4817`).
    pub addr: String,
    /// Output format (`--format text|json`).
    pub format: Format,
    /// The subcommand.
    pub action: Action,
}

/// The `--help` text.
pub const USAGE: &str = "grapectl — control a running graped

USAGE: grapectl [--addr HOST:PORT] [--format text|json] <command>

COMMANDS:
  status                       server + per-query state
  metrics [--samples]          uptime, per-delta latency, per-query counters
  watch <id> [--count N]       stream a query's answer deltas as pushed
  query sssp --source N        register an SSSP query and print its answer
  query cc                     register a CC query and print its answer
  register sssp --source N     register only; prints the handle id
  register cc
  apply --file delta.json      apply one delta ({...}) or a batch ([...])
  apply '<json>'               same, inline
  output <id>                  assemble an answer (rehydrates if evicted)
  try-output <id>              assemble only if resident and caught up
  evict <id>                   spill a query to disk
  rehydrate <id>               reload an evicted query and catch it up
  shutdown                     stop the daemon";

fn parse_number(args: &[String], i: usize, flag: &str) -> Result<(usize, usize), String> {
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    let n = raw
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {raw:?}"))?;
    Ok((n, i + 2))
}

fn parse_spec(args: &[String], mut i: usize) -> Result<(QuerySpec, usize), String> {
    let kind = args
        .get(i)
        .ok_or_else(|| "expected a query kind (sssp|cc)".to_string())?
        .clone();
    i += 1;
    match kind.as_str() {
        "cc" => Ok((QuerySpec::Cc, i)),
        "sssp" => {
            let mut source = None;
            while i < args.len() {
                match args[i].as_str() {
                    "--source" => {
                        let (n, next) = parse_number(args, i, "--source")?;
                        source = Some(n as u64);
                        i = next;
                    }
                    other => return Err(format!("unexpected argument {other:?} after `sssp`")),
                }
            }
            let source = source.ok_or_else(|| "sssp needs --source <vertex>".to_string())?;
            Ok((QuerySpec::Sssp { source }, i))
        }
        other => Err(format!("unknown query kind {other:?} (expected sssp|cc)")),
    }
}

fn parse_handle(args: &[String], i: usize, command: &str) -> Result<usize, String> {
    let raw = args
        .get(i)
        .ok_or_else(|| format!("{command} needs a query id"))?;
    raw.parse()
        .map_err(|_| format!("{command} needs a numeric query id, got {raw:?}"))
}

/// Parses a `grapectl` argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<CliOptions, String> {
    let mut addr = format!("127.0.0.1:{DEFAULT_PORT}");
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args
                    .get(i + 1)
                    .ok_or_else(|| "--addr needs HOST:PORT".to_string())?
                    .clone();
                i += 2;
            }
            "--format" => {
                format = Format::parse(
                    args.get(i + 1)
                        .ok_or_else(|| "--format needs text|json".to_string())?,
                )?;
                i += 2;
            }
            "--help" | "-h" | "help" => return Err(USAGE.to_string()),
            _ => break,
        }
    }
    let command = args
        .get(i)
        .ok_or_else(|| format!("no command given\n\n{USAGE}"))?
        .clone();
    i += 1;
    let action = match command.as_str() {
        "status" => Action::Status,
        "metrics" => {
            let mut samples = false;
            if args.get(i).map(String::as_str) == Some("--samples") {
                samples = true;
                i += 1;
            }
            Action::Metrics { samples }
        }
        "watch" => {
            let query = parse_handle(args, i, "watch")?;
            i += 1;
            let mut count = None;
            if args.get(i).map(String::as_str) == Some("--count") {
                let (n, next) = parse_number(args, i, "--count")?;
                count = Some(n);
                i = next;
            }
            Action::Watch { query, count }
        }
        "query" => {
            let (spec, next) = parse_spec(args, i)?;
            i = next;
            Action::Query(spec)
        }
        "register" => {
            let (spec, next) = parse_spec(args, i)?;
            i = next;
            Action::Register(spec)
        }
        "apply" => {
            let source = match args.get(i).map(String::as_str) {
                Some("--file") => {
                    let path = args
                        .get(i + 1)
                        .ok_or_else(|| "--file needs a path".to_string())?
                        .clone();
                    i += 2;
                    DeltaSource::File(path)
                }
                Some(_) => {
                    let json = args[i].clone();
                    i += 1;
                    DeltaSource::Inline(json)
                }
                None => return Err("apply needs --file <path> or inline JSON".to_string()),
            };
            Action::Apply { source }
        }
        "output" => {
            let id = parse_handle(args, i, "output")?;
            i += 1;
            Action::Output(id)
        }
        "try-output" => {
            let id = parse_handle(args, i, "try-output")?;
            i += 1;
            Action::TryOutput(id)
        }
        "evict" => {
            let id = parse_handle(args, i, "evict")?;
            i += 1;
            Action::Evict(id)
        }
        "rehydrate" => {
            let id = parse_handle(args, i, "rehydrate")?;
            i += 1;
            Action::Rehydrate(id)
        }
        "shutdown" => Action::Shutdown,
        other => return Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    if i < args.len() {
        return Err(format!("unexpected trailing argument {:?}", args[i]));
    }
    Ok(CliOptions {
        addr,
        format,
        action,
    })
}

/// Parses delta JSON: one delta (`{...}`) or a batch (`[...]`).
fn parse_deltas(json: &str) -> Result<Vec<GraphDelta>, String> {
    if json.trim_start().starts_with('[') {
        serde_json::from_str::<Vec<GraphDelta>>(json)
            .map_err(|e| format!("bad delta batch JSON: {e}"))
    } else {
        serde_json::from_str::<GraphDelta>(json)
            .map(|d| vec![d])
            .map_err(|e| format!("bad delta JSON: {e}"))
    }
}

fn call_rendered(
    client: &mut GrapeClient,
    body: RequestBody,
    format: Format,
) -> Result<String, String> {
    let reply = client.call(body).map_err(|e| e.to_string())?;
    let text = render(&reply, format);
    if matches!(reply, ResponseBody::Error { .. }) {
        Err(text)
    } else {
        Ok(text)
    }
}

/// Executes a parsed invocation against the daemon.  `Ok` is what to print
/// on stdout; `Err` goes to stderr with a non-zero exit.
pub fn execute(options: &CliOptions) -> Result<String, String> {
    let mut client = GrapeClient::connect(options.addr.as_str())
        .map_err(|e| format!("cannot reach graped at {}: {e}", options.addr))?;
    let format = options.format;
    match &options.action {
        Action::Status => call_rendered(&mut client, RequestBody::Status, format),
        Action::Metrics { samples } => call_rendered(
            &mut client,
            RequestBody::Metrics { samples: *samples },
            format,
        ),
        Action::Watch { query, count } => {
            let subscription = client.subscribe(*query).map_err(|e| e.to_string())?;
            let mut seen = 0usize;
            let mut lines = Vec::new();
            loop {
                let event = client.next_event().map_err(|e| e.to_string())?;
                if event.subscription != subscription {
                    continue;
                }
                let terminal = matches!(event.event, OutputEvent::Poisoned);
                let line = render_event(&event, format);
                match count {
                    // Bounded watch: collect and return (testable output).
                    Some(_) => lines.push(line),
                    // Unbounded watch: stream line-by-line until the
                    // subscription turns terminal or stdout goes away.
                    None => {
                        use std::io::Write;
                        let mut out = std::io::stdout().lock();
                        if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                            break;
                        }
                    }
                }
                seen += 1;
                if terminal || count.is_some_and(|n| seen >= n) {
                    break;
                }
            }
            let _ = client.unsubscribe(subscription);
            Ok(lines.join("\n"))
        }
        Action::Register(spec) => {
            call_rendered(&mut client, RequestBody::Register { spec: *spec }, format)
        }
        Action::Query(spec) => {
            let query = client
                .register(*spec)
                .map_err(|e: ClientError| e.to_string())?;
            call_rendered(&mut client, RequestBody::Output { query }, format)
        }
        Action::Apply { source } => {
            let json = match source {
                DeltaSource::File(path) => {
                    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
                }
                DeltaSource::Inline(json) => json.clone(),
            };
            let mut deltas = parse_deltas(&json)?;
            let body = if deltas.len() == 1 {
                RequestBody::Apply {
                    delta: deltas.pop().expect("one delta"),
                }
            } else {
                RequestBody::ApplyBatch { deltas }
            };
            call_rendered(&mut client, body, format)
        }
        Action::Output(id) => {
            call_rendered(&mut client, RequestBody::Output { query: *id }, format)
        }
        Action::TryOutput(id) => {
            call_rendered(&mut client, RequestBody::TryOutput { query: *id }, format)
        }
        Action::Evict(id) => call_rendered(&mut client, RequestBody::Evict { query: *id }, format),
        Action::Rehydrate(id) => {
            call_rendered(&mut client, RequestBody::Rehydrate { query: *id }, format)
        }
        Action::Shutdown => call_rendered(&mut client, RequestBody::Shutdown, format),
    }
}

/// Parse + execute; the `grapectl` main body.
pub fn run(args: &[String]) -> Result<String, String> {
    execute(&parse(args)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_globals_and_subcommands() {
        let o = parse(&argv("--addr 10.0.0.1:9 --format json status")).unwrap();
        assert_eq!(o.addr, "10.0.0.1:9");
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.action, Action::Status);

        let o = parse(&argv("query sssp --source 3")).unwrap();
        assert_eq!(o.addr, format!("127.0.0.1:{DEFAULT_PORT}"));
        assert_eq!(o.action, Action::Query(QuerySpec::Sssp { source: 3 }));

        assert_eq!(
            parse(&argv("query cc")).unwrap().action,
            Action::Query(QuerySpec::Cc)
        );
        assert_eq!(
            parse(&argv("register cc")).unwrap().action,
            Action::Register(QuerySpec::Cc)
        );
        assert_eq!(parse(&argv("evict 2")).unwrap().action, Action::Evict(2));
        assert_eq!(
            parse(&argv("try-output 1")).unwrap().action,
            Action::TryOutput(1)
        );
        assert_eq!(
            parse(&argv("apply --file d.json")).unwrap().action,
            Action::Apply {
                source: DeltaSource::File("d.json".to_string())
            }
        );
        assert_eq!(
            parse(&argv("apply {\"x\":1}")).unwrap().action,
            Action::Apply {
                source: DeltaSource::Inline("{\"x\":1}".to_string())
            }
        );
    }

    #[test]
    fn parses_metrics_and_watch_grammar() {
        assert_eq!(
            parse(&argv("metrics")).unwrap().action,
            Action::Metrics { samples: false }
        );
        assert_eq!(
            parse(&argv("metrics --samples")).unwrap().action,
            Action::Metrics { samples: true }
        );
        assert_eq!(
            parse(&argv("watch 2")).unwrap().action,
            Action::Watch {
                query: 2,
                count: None
            }
        );
        assert_eq!(
            parse(&argv("watch 0 --count 5")).unwrap().action,
            Action::Watch {
                query: 0,
                count: Some(5)
            }
        );
    }

    #[test]
    fn rejects_bad_invocations() {
        assert!(parse(&argv("sssp")).is_err(), "unknown command");
        assert!(parse(&argv("query sssp")).is_err(), "missing --source");
        assert!(parse(&argv("evict two")).is_err(), "non-numeric id");
        assert!(parse(&argv("rehydrate")).is_err(), "missing query id");
        assert!(parse(&argv("compact 4")).is_err(), "no such command");
        assert!(parse(&argv("status extra")).is_err(), "trailing garbage");
        assert!(parse(&argv("--format yaml status")).is_err(), "bad format");
        assert!(parse(&[]).is_err(), "no command");
        assert!(parse(&argv("watch")).is_err(), "missing query id");
        assert!(parse(&argv("watch one")).is_err(), "non-numeric id");
        assert!(parse(&argv("watch 0 --count")).is_err(), "missing count");
        assert!(parse(&argv("metrics --sample")).is_err(), "unknown flag");
    }

    #[test]
    fn delta_json_accepts_object_or_array() {
        let one = serde_json::to_string(
            &grape_graph::delta::GraphDelta::new().add_weighted_edge(0, 1, 2.0),
        )
        .unwrap();
        assert_eq!(parse_deltas(&one).unwrap().len(), 1);
        let batch = format!("[{one},{one}]");
        assert_eq!(parse_deltas(&batch).unwrap().len(), 2);
        assert!(parse_deltas("not json").is_err());
    }
}
