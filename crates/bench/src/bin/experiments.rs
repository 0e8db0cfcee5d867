//! Regenerates every table and figure of the GRAPE (SIGMOD 2017) evaluation.
//!
//! ```text
//! experiments [--scale small|medium|large] [--format text|json|csv]
//!             [table1|fig6|fig7|fig8|fig9|incremental|loc|all]
//! ```
//!
//! `incremental` is the prepared-query update experiment: update latency and
//! messages saved of `PreparedQuery::update` (IncEval-only refresh) vs a
//! full recompute on the updated graph, per query class.  `all` runs every
//! other target in turn, except `fig8`, whose rows are `fig6`'s.
//!
//! `--format text` (the default) prints aligned tables; `--format json`
//! emits one self-describing JSON object per (algorithm, system, scale) run
//! (JSON Lines); `--format csv` emits one CSV record per run with a single
//! header line.  The machine-readable formats are what figure-regeneration
//! and regression-tracking scripts consume.  The `loc` section (Exp-6) has
//! no run rows and is text-only: it is skipped — with a note on stderr —
//! under the machine-readable formats, including within `all`.
//!
//! An unknown experiment, `--scale` or `--format` exits with status 2
//! before anything runs.
//!
//! Absolute numbers are not expected to match the paper (24-node cluster vs
//! threads on one machine, scaled-down synthetic datasets); the *shapes* —
//! which system ships less and needs fewer supersteps — are asserted by
//! `tests/paper_shapes.rs` over the same functions.

use std::path::{Path, PathBuf};

use grape_bench::experiments;
use grape_bench::runner::{format_rows_csv, format_rows_json, format_table, RunRow, CSV_HEADER};
use grape_bench::workloads::Scale;

/// The targets `all` runs, in order.
const ALL: [&str; 6] = ["table1", "fig6", "fig7", "fig9", "incremental", "loc"];

/// Every target the command line accepts.
const TARGETS: [&str; 8] = [
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "incremental",
    "loc",
    "all",
];

/// Reports a bad command line on stderr and exits with status 2, before
/// any experiment runs.
fn usage_error(message: &str) -> ! {
    eprintln!("experiments: {message}");
    std::process::exit(2);
}

/// Output format of the run rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

impl Format {
    fn parse(s: &str) -> Option<Format> {
        match s {
            "text" => Some(Format::Text),
            "json" => Some(Format::Json),
            "csv" => Some(Format::Csv),
            _ => None,
        }
    }
}

/// One experiment section: a stable id (the machine-readable `experiment`
/// field), a human title, and its rows.
type Section = (&'static str, &'static str, Vec<RunRow>);

fn sections_for(target: &str, scale: Scale) -> Option<Vec<Section>> {
    Some(match target {
        "table1" => vec![(
            "table1",
            "Table 1: SSSP on traffic",
            experiments::table1(scale),
        )],
        "fig6" => vec![
            (
                "fig6_sssp",
                "Fig 6(a-c) / 8(a-c): SSSP, time & comm vs n",
                experiments::fig6_sssp(scale),
            ),
            (
                "fig6_cc",
                "Fig 6(d-f) / 8(d-f): CC, time & comm vs n",
                experiments::fig6_cc(scale),
            ),
            (
                "fig6_sim",
                "Fig 6(g-h) / 8(g-h): Sim, time & comm vs n",
                experiments::fig6_sim(scale),
            ),
            (
                "fig6_subiso",
                "Fig 6(i-j) / 8(i-j): SubIso, time & comm vs n",
                experiments::fig6_subiso(scale),
            ),
            (
                "fig6_cf",
                "Fig 6(k-l) / 8(k-l): CF, time & comm vs n",
                experiments::fig6_cf(scale),
            ),
        ],
        "fig7" => vec![
            (
                "fig7_incremental",
                "Fig 7(a): incremental vs non-incremental Sim",
                experiments::fig7_incremental(scale),
            ),
            (
                "fig7_optimization",
                "Fig 7(b): optimized sequential Sim under GRAPE",
                experiments::fig7_optimization(scale),
            ),
        ],
        "fig8" => vec![(
            "fig8",
            "Fig 8(a-l): communication cost (see comm column)",
            experiments::fig8_comm(scale),
        )],
        "fig9" => vec![(
            "fig9",
            "Fig 9: scalability on synthetic graphs",
            experiments::fig9_scalability(scale),
        )],
        "incremental" => vec![
            (
                "incremental",
                "Prepared queries: update latency & messages saved vs recompute",
                experiments::incremental(scale),
            ),
            (
                "refresh_comparison",
                "Deletion refresh: recompute vs retracted vs monotone (regional traffic)",
                experiments::refresh_comparison(scale),
            ),
        ],
        _ => return None,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut format = Format::Text;
    let mut targets: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().map(String::as_str).unwrap_or("small");
                scale = Scale::parse(value).unwrap_or_else(|| {
                    usage_error(&format!("unknown scale {value:?} (use small|medium|large)"))
                });
            }
            "--format" => {
                let value = iter.next().map(String::as_str).unwrap_or("text");
                format = Format::parse(value).unwrap_or_else(|| {
                    usage_error(&format!("unknown format {value:?} (use text|json|csv)"))
                });
            }
            "all" => targets.extend(ALL),
            other if TARGETS.contains(&other) => targets.push(other),
            other => usage_error(&format!(
                "unknown experiment {other:?} (use {})",
                TARGETS.join("|")
            )),
        }
    }
    if targets.is_empty() {
        targets.extend(ALL);
    }

    let scale_name = scale.name();
    let mut csv_header_printed = false;
    for target in targets {
        if target == "loc" {
            // The lines-of-code comparison has no RunRow shape; emitting it
            // into a JSON/CSV stream would corrupt the output for parsers.
            if format == Format::Text {
                print_loc();
            } else {
                eprintln!("loc is text-only (Exp-6 has no run rows); skipping under --format");
            }
            continue;
        }
        let sections = sections_for(target, scale).expect("TARGETS names only known sections");
        for (id, title, rows) in &sections {
            match format {
                Format::Text => print!("{}", format_table(title, rows)),
                Format::Json => print!("{}", format_rows_json(id, scale_name, rows)),
                Format::Csv => {
                    if !csv_header_printed {
                        println!("{CSV_HEADER}");
                        csv_header_printed = true;
                    }
                    print!("{}", format_rows_csv(id, scale_name, rows));
                }
            }
        }
    }
}

/// The workspace's `crates/` directory, read at run time.
const CRATES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Exp-6 (ease of programming): lines of code of the PIE programs vs the
/// vertex/block programs, the analogue of Figures 10–11, then the non-test
/// lines of each crate under the same rule.
fn print_loc() {
    let programs = [
        ("PIE SSSP", "algorithms/src/sssp/pie.rs"),
        ("PIE CC", "algorithms/src/cc/pie.rs"),
        ("PIE Sim", "algorithms/src/sim/pie.rs"),
        (
            "vertex programs, all five",
            "baselines/src/vertex_centric/programs.rs",
        ),
        (
            "block programs, all five",
            "baselines/src/block_centric/programs.rs",
        ),
    ];
    println!("\n== Exp-6: ease of programming (non-test, non-comment lines) ==");
    for (name, file) in programs {
        let loc = file_loc(&Path::new(CRATES).join(file));
        println!("{loc:>6}  {name} (crates/{file})");
    }
    println!("\n== Crate totals (same rule, every .rs file under src/) ==");
    let (mut core_daemon_bench, mut core_baselines) = (0, 0);
    for krate in [
        "core",
        "daemon",
        "bench",
        "partition",
        "algorithms",
        "baselines",
    ] {
        let mut files = Vec::new();
        rs_files(&Path::new(CRATES).join(krate).join("src"), &mut files);
        let loc: usize = files.iter().map(|f| file_loc(f)).sum();
        if matches!(krate, "core" | "daemon" | "bench") {
            core_daemon_bench += loc;
        }
        if matches!(krate, "core" | "baselines") {
            core_baselines += loc;
        }
        println!("{loc:>6}  crates/{krate}");
    }
    println!("{core_daemon_bench:>6}  core + daemon + bench");
    println!("{core_baselines:>6}  core + baselines");
}

fn file_loc(path: &Path) -> usize {
    let source =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    count_loc(&source)
}

/// Every `.rs` file below `dir`, in path order.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Non-blank lines that are not `//` comments, outside `#[cfg(test)]`
/// items.  Each gated item is skipped through its closing brace, or through
/// its `;` if it has no body; braces are counted per character, so a brace
/// inside a string or char literal of a test item can end the skip early.
fn count_loc(source: &str) -> usize {
    let mut loc = 0;
    // While skipping a gated item: its brace depth so far, and whether its
    // body has opened.
    let mut skip: Option<(usize, bool)> = None;
    for line in source.lines() {
        let t = line.trim();
        if skip.is_none() && t.starts_with("#[cfg(test)]") {
            skip = Some((0, false));
        }
        if let Some((depth, opened)) = &mut skip {
            for c in t.chars() {
                match c {
                    '{' => {
                        *depth += 1;
                        *opened = true;
                    }
                    '}' => *depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            if (*opened && *depth == 0) || (!*opened && t.ends_with(';')) {
                skip = None;
            }
        } else if !t.is_empty() && !t.starts_with("//") {
            loc += 1;
        }
    }
    loc
}

#[cfg(test)]
mod tests {
    use super::count_loc;

    #[test]
    fn loc_skips_each_test_item_and_counts_what_follows() {
        let source = "\
//! crate docs
fn a() {}

#[cfg(test)]
fn helper() {
    let s = \"{}\";
}

fn b() {
    // comment
}
#[cfg(test)]
use std::fmt;
#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
";
        // `fn a() {}`, then `fn b() {` and its `}`.
        assert_eq!(count_loc(source), 3);
    }
}
