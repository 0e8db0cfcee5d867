//! `graped` — the GRAPE serving daemon.
//!
//! Binds a TCP listener, owns one `GrapeServer` on a single engine
//! thread, and serves the length-delimited JSON protocol to any number of
//! concurrent clients.  `--mock` registers a synthetic workload and feeds
//! a generated insert-only delta stream, so the daemon has something to
//! serve out of the box.

use std::path::PathBuf;

use grape_core::{EngineMode, TransportSpec};
use grape_daemon::server::{DaemonConfig, GrapedHandle, GraphSource};
use grape_daemon::MockConfig;

const USAGE: &str = "graped — GRAPE serving daemon

USAGE: graped [OPTIONS]

OPTIONS:
  --addr HOST:PORT        bind address (default 127.0.0.1:4817; port 0 = ephemeral)
  --workers N             engine workers per refresh (default 2)
  --refresh-threads N     concurrent query refreshes per delta (default 2)
  --fragments N           partition fragment count (default 4)
  --mode sync|async       engine mode (default: GRAPE_ENGINE_MODE or sync)
  --transport process     shard fragments across --workers grape-worker
                          subprocesses (default: evaluate in the daemon; the
                          message transport follows --mode)
  --graph SPEC            start graph: grid:WxH[@seed] | path:N (default grid:24x24@7)
  --spill-dir PATH        directory for eviction spill files (default: temp dir)
  --mock                  register a synthetic workload + feed generated deltas
  --mock-queries N        standing SSSP queries in the mock workload (default 3)
  --mock-deltas N         stop the mock stream after N deltas (default: unbounded)
  --mock-interval-ms N    pause between mock deltas (default 200)
  -h, --help              this help";

fn parse_args(args: &[String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    let mut mock = MockConfig::default();
    let mut want_mock = false;
    let mut process = false;
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, String> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |args: &[String], i: usize, flag: &str| -> Result<u64, String> {
        let raw = value(args, i, flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} needs a number, got {raw:?}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                config.addr = value(args, i, "--addr")?;
                i += 2;
            }
            "--workers" => {
                config.workers = number(args, i, "--workers")?.max(1) as usize;
                i += 2;
            }
            "--refresh-threads" => {
                config.refresh_threads = number(args, i, "--refresh-threads")?.max(1) as usize;
                i += 2;
            }
            "--fragments" => {
                config.fragments = number(args, i, "--fragments")?.max(1) as usize;
                i += 2;
            }
            "--mode" => {
                config.mode = match value(args, i, "--mode")?.as_str() {
                    "sync" => EngineMode::Sync,
                    "async" => EngineMode::Async,
                    other => return Err(format!("unknown mode {other:?} (expected sync|async)")),
                };
                i += 2;
            }
            "--transport" => {
                process = match value(args, i, "--transport")?.as_str() {
                    "process" => true,
                    "barrier" => return Err(retired("barrier", "sync")),
                    "channel" => return Err(retired("channel", "async")),
                    other => return Err(format!("unknown transport {other:?} (expected process)")),
                };
                i += 2;
            }
            "--graph" => {
                config.graph = GraphSource::parse(&value(args, i, "--graph")?)?;
                i += 2;
            }
            "--spill-dir" => {
                config.spill_dir = Some(PathBuf::from(value(args, i, "--spill-dir")?));
                i += 2;
            }
            "--mock" => {
                want_mock = true;
                i += 1;
            }
            "--mock-queries" => {
                mock.queries = number(args, i, "--mock-queries")?.max(1) as usize;
                want_mock = true;
                i += 2;
            }
            "--mock-deltas" => {
                mock.deltas = number(args, i, "--mock-deltas")? as usize;
                want_mock = true;
                i += 2;
            }
            "--mock-interval-ms" => {
                mock.interval_ms = number(args, i, "--mock-interval-ms")?;
                want_mock = true;
                i += 2;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other:?}\n\n{USAGE}")),
        }
    }
    if want_mock {
        config.mock = Some(mock);
    }
    // Resolved after the loop so `--transport process` sizes its worker
    // pool from the final --workers value regardless of flag order.
    if process {
        config.transport = TransportSpec::Process {
            workers: config.workers,
        };
    }
    Ok(config)
}

/// The parse error for a transport name that the mode now implies.
fn retired(name: &str, mode: &str) -> String {
    format!(
        "--transport {name} is gone: the message transport follows the mode; \
         use --mode {mode}"
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let mock = config.mock.is_some();
    let handle = match GrapedHandle::spawn(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("graped failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "graped listening on {}{}",
        handle.addr(),
        if mock { " (mock workload running)" } else { "" }
    );
    handle.wait();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<DaemonConfig, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn transport_flag_resolves_against_the_final_worker_count() {
        let config = parse(&[]).unwrap();
        assert_eq!(config.transport, TransportSpec::InProcess);
        // The transports the mode implies are rejected at parse time, with
        // the flag that replaced them, whatever the mode.
        for (name, mode) in [("barrier", "sync"), ("channel", "async")] {
            for given in ["sync", "async"] {
                let err = parse(&["--mode", given, "--transport", name]).unwrap_err();
                assert!(err.contains(&format!("--mode {mode}")), "got: {err}");
            }
        }
        // Flag order must not matter: the process pool is sized from the
        // final --workers value even when --transport comes first.
        let config = parse(&["--transport", "process", "--workers", "3"]).unwrap();
        assert_eq!(config.transport, TransportSpec::Process { workers: 3 });
        let err = parse(&["--transport", "carrier-pigeon"]).unwrap_err();
        assert!(err.contains("unknown transport"), "got: {err}");
    }
}
