//! The repo's benchmark.
//!
//! ```text
//! grape-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! runs one workload and prints, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1` (which
//! also writes `benchmark/out/trace-<workload>.jsonl`).  `BENCHMARK.json`
//! is checked against the harness's registry before anything runs.
//!
//! `--list` prints the registry, `--check-manifest` only validates, and
//! `--repeat N [--vary-seed] [--assert-agreement]` runs the selected
//! workloads (all of them without `--workload`) N times each as child
//! processes and prints every metric's spread against its bound.

mod families;
mod inputs;
mod manifest;
mod oracle;
mod procs;
mod replay;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use serde::Value;

use manifest::{Better, END_TO_END, TAIL_PERCENTILE, WORKLOADS};
use trace::Recorder;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one invocation was asked to do.
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out` of the checkout: spill directories and traces.
    pub out_dir: PathBuf,
    /// Where `graped` and `grape-worker` were built (beside this binary).
    pub bin_dir: PathBuf,
}

/// Metric values by registry name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records a value.  Panics on a name the registry does not hold: a
    /// workload may only print what `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            manifest::declares(name),
            "metric `{name}` is not in the registry"
        );
        self.0.insert(name.to_string(), value);
    }

    /// The six end-to-end metrics of a measured section: `setups` are the
    /// set-up times in seconds, `op_ms` the per-operation latencies, `wall`
    /// the section's wall time, `cpu_s` the CPU seconds the system spent in
    /// it and `peak_rss_mb` its peak resident set.
    pub fn end_to_end(
        workload: &str,
        setups: &[f64],
        op_ms: &[f64],
        wall: Duration,
        cpu_s: f64,
        peak_rss_mb: f64,
    ) -> Metrics {
        let sorted = stats::sorted(op_ms);
        let ops = op_ms.len().max(1) as f64;
        eprintln!("{workload}: {}", stats::describe(&sorted));
        let mut metrics = Metrics::default();
        metrics.set("setup_s", stats::median(setups));
        metrics.set("op_p50_ms", stats::percentile(&sorted, 50.0));
        metrics.set("op_p90_ms", stats::percentile(&sorted, TAIL_PERCENTILE));
        metrics.set("ops_per_s", ops / wall.as_secs_f64());
        metrics.set("cpu_ms_per_op", cpu_s * 1e3 / ops);
        metrics.set("peak_rss_mb", peak_rss_mb);
        metrics
    }

    /// Folds another run's values in.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run produced.
pub struct RunResult {
    /// Operations and answer checks attempted.
    pub attempted: usize,
    /// Those that failed, were refused, timed out or answered wrongly.
    pub failed: usize,
    pub metrics: Metrics,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: grape-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       grape-benchmark --list | --check-manifest\n       grape-benchmark --repeat N [--workload W] [--vary-seed] [--assert-agreement] [--seed N] [--seconds S]",
        names.join("|")
    )
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    check_only: bool,
    repeat: usize,
    vary_seed: bool,
    assert_agreement: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        list: false,
        check_only: false,
        repeat: 0,
        vary_seed: false,
        assert_agreement: false,
    };
    fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag} cannot take {raw:?}"))
    }
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--list" => parsed.list = true,
            "--check-manifest" => parsed.check_only = true,
            "--vary-seed" => parsed.vary_seed = true,
            "--assert-agreement" => parsed.assert_agreement = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--repeat" => {
                let raw = rest.next().ok_or(format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => parsed.workload = Some(raw.clone()),
                    "--seed" => parsed.seed = number(flag, raw)?,
                    "--seconds" => parsed.seconds = number(flag, raw)?,
                    "--repeat" => parsed.repeat = number(flag, raw)?,
                    _ => {
                        parsed.trace = match raw.as_str() {
                            "0" => false,
                            "1" => true,
                            _ => return Err(format!("--trace takes 0 or 1, got {raw:?}")),
                        }
                    }
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
        return Err("--seconds must be within (0, 60]".to_string());
    }
    if let Some(name) = &parsed.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}\n{}", usage()));
        }
    }
    Ok(parsed)
}

/// Validates `BENCHMARK.json` of the current directory (the checkout root).
fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json from the working directory: {e}"))?;
    let errors = manifest::check(&text, &|p| std::path::Path::new(p).is_dir());
    if errors.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json is invalid:\n  {}",
            errors.join("\n  ")
        ))
    }
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &RunOpts, rec: &mut Recorder) -> Result<RunResult, String> {
    let Some(spec) = serve::SPECS.iter().find(|s| s.name == name) else {
        return families::run(opts, rec);
    };
    let mut result = serve::run(spec, opts, rec)?;
    if opts.trace {
        let local = replay::run(spec, opts, rec)?;
        result.attempted += local.attempted;
        result.failed += local.failed;
        result.metrics.extend(local.metrics);
    }
    Ok(result)
}

/// The result line: every declared metric of the mode, in registry order.
/// A layer the workload never enters reports 0 — that is the signal; a
/// missing end-to-end metric is an error.
fn result_line(result: &RunResult, trace: bool) -> Result<String, String> {
    let declared: Vec<(String, &str)> = if trace {
        manifest::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match result.metrics.get(&name) {
            Some(value) if value.is_finite() => value,
            Some(value) => return Err(format!("{name} measured as {value}")),
            None if trace => 0.0,
            None => return Err(format!("the workload did not measure {name}")),
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        fields.join(",")
    ))
}

fn single_run(args: &Args, workload: &str) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from("benchmark/out"),
        bin_dir: exe
            .parent()
            .ok_or("this binary has no parent directory")?
            .to_path_buf(),
    };
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut rec = Recorder::new(opts.trace);
    let result = run_workload(workload, &opts, &mut rec)?;
    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{workload}.jsonl"));
        rec.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for (name, value) in &result.metrics.0 {
        eprintln!("{workload}\t{name}\t{value}");
    }
    println!("{}", result_line(&result, opts.trace)?);
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One child run's parsed result line.
struct ChildRun {
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} (seed {seed}) printed no result"))?;
    let value: Value =
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let failed = match value.get_field("failed") {
        Some(Value::UInt(n)) => *n,
        _ => return Err(format!("{workload}: result line has no `failed`")),
    };
    let mut metrics = BTreeMap::new();
    if let Some(Value::Map(entries)) = value.get_field("metrics") {
        for (name, entry) in entries {
            let v = match entry.get_field("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::UInt(n)) => *n as f64,
                Some(Value::Int(n)) => *n as f64,
                _ => return Err(format!("{workload}: metric {name} has no value")),
            };
            metrics.insert(name.clone(), v);
        }
    }
    Ok(ChildRun { failed, metrics })
}

/// `--repeat N`: runs each selected workload N times end to end (and, with
/// `--assert-agreement`, N times traced), prints each end-to-end metric's
/// values, median and quartile spread against its bound, and — asserting —
/// fails unless every run agrees with the first within the bound and every
/// exact count of the traced runs is identical.
fn repeat_runs(args: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let mut disagreements = 0;
    for workload in selected {
        let mut runs = Vec::new();
        for i in 0..args.repeat {
            let seed = args.seed + if args.vary_seed { i as u64 } else { 0 };
            let run = child_run(workload, seed, args.seconds, false)?;
            if run.failed != 0 {
                return Err(format!(
                    "{workload} (seed {seed}): {} operations failed",
                    run.failed
                ));
            }
            runs.push(run);
        }
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[m.name]).collect();
            let spread = if values.len() >= 2 {
                stats::quartile_spread(&values)
            } else {
                0.0
            };
            let worst = values
                .iter()
                .map(|v| match m.better {
                    Better::Lower => v / values[0] - 1.0,
                    Better::Higher => values[0] / v - 1.0,
                })
                .fold(0.0, f64::max);
            let agrees = worst <= m.bound;
            println!(
                "{workload}\t{}\tmedian {:.4} {}\tspread {:.2}% of bound {:.0}%\tworst vs first {:+.2}%{}",
                m.name,
                stats::median(&values),
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                worst * 100.0,
                if agrees { "" } else { "\tDISAGREES" }
            );
            if !agrees {
                disagreements += 1;
            }
        }
        if args.assert_agreement {
            let mut traced = Vec::new();
            for _ in 0..args.repeat {
                traced.push(child_run(workload, args.seed, args.seconds, true)?);
            }
            for m in manifest::per_layer() {
                if !m.exact {
                    continue;
                }
                let values: Vec<f64> = traced.iter().map(|r| r.metrics[&m.name]).collect();
                if values.iter().any(|v| *v != values[0]) {
                    println!(
                        "{workload}\t{}\texact count differs between runs: {values:?}",
                        m.name
                    );
                    disagreements += 1;
                }
            }
        }
    }
    if args.assert_agreement && disagreements > 0 {
        return Err(format!(
            "{disagreements} metrics disagree between runs of the same code"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if args.list {
            print!("{}", manifest::listing());
            return Ok(ExitCode::SUCCESS);
        }
        check_manifest()?;
        if args.check_only {
            println!("BENCHMARK.json agrees with the harness and the contract");
            return Ok(ExitCode::SUCCESS);
        }
        if args.repeat > 0 {
            return repeat_runs(&args);
        }
        match &args.workload {
            Some(workload) => single_run(&args, workload),
            None => Err(usage()),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
