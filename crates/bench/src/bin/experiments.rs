//! Regenerates every table and figure of the GRAPE (SIGMOD 2017) evaluation.
//!
//! ```text
//! experiments [--scale small|medium|large] [--format text|json|csv]
//!             [table1|fig6|fig7|fig8|fig9|incremental|serving|serving_scaling|
//!              serving_watchers|loc|all]
//! ```
//!
//! `incremental` is the prepared-query update experiment: update latency and
//! messages saved of `PreparedQuery::update` (IncEval-only refresh) vs a
//! full recompute on the updated graph, per query class.
//!
//! `--format text` (the default) prints aligned tables; `--format json`
//! emits one self-describing JSON object per (algorithm, system, scale) run
//! (JSON Lines); `--format csv` emits one CSV record per run with a single
//! header line.  The machine-readable formats are what figure-regeneration
//! and regression-tracking scripts consume.  The `loc` section (Exp-6) has
//! no run rows and is text-only: it is skipped — with a note on stderr —
//! under the machine-readable formats, including within `all`.
//!
//! `serving_scaling` has its own row shape (per-delta latency percentiles
//! per (K, threads, arrival) cell rather than a `RunRow`): it prints a text
//! table or JSON Lines (the `BENCH_serving_scaling.json` baseline format)
//! and is skipped — with a note on stderr — under `--format csv`.
//!
//! Absolute numbers are not expected to match the paper (24-node cluster vs
//! threads on one machine, scaled-down synthetic datasets); the *shapes* —
//! which system wins, by roughly what factor, and how the curves move with
//! `n` and `|G|` — are what EXPERIMENTS.md records.

use grape_bench::experiments;
use grape_bench::runner::{
    format_rows_csv, format_rows_json, format_scaling_json, format_scaling_table, format_table,
    format_watchers_json, format_watchers_table, RunRow, CSV_HEADER,
};
use grape_bench::workloads::Scale;

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

/// One experiment section: a stable id (used as the machine-readable
/// `experiment` field), a human title, and its rows.
struct Section {
    id: &'static str,
    title: String,
    rows: Vec<RunRow>,
}

fn section(id: &'static str, title: &str, rows: Vec<RunRow>) -> Section {
    Section {
        id,
        title: title.to_string(),
        rows,
    }
}

fn fig6_sections(scale: Scale) -> Vec<Section> {
    vec![
        section(
            "fig6_sssp",
            "Fig 6(a-c) / 8(a-c): SSSP, time & comm vs n",
            experiments::fig6_sssp(scale),
        ),
        section(
            "fig6_cc",
            "Fig 6(d-f) / 8(d-f): CC, time & comm vs n",
            experiments::fig6_cc(scale),
        ),
        section(
            "fig6_sim",
            "Fig 6(g-h) / 8(g-h): Sim, time & comm vs n",
            experiments::fig6_sim(scale),
        ),
        section(
            "fig6_subiso",
            "Fig 6(i-j) / 8(i-j): SubIso, time & comm vs n",
            experiments::fig6_subiso(scale),
        ),
        section(
            "fig6_cf",
            "Fig 6(k-l) / 8(k-l): CF, time & comm vs n",
            experiments::fig6_cf(scale),
        ),
    ]
}

fn fig7_sections(scale: Scale) -> Vec<Section> {
    vec![
        section(
            "fig7_incremental",
            "Fig 7(a): incremental vs non-incremental Sim",
            experiments::fig7_incremental(scale),
        ),
        section(
            "fig7_optimization",
            "Fig 7(b): optimized sequential Sim under GRAPE",
            experiments::fig7_optimization(scale),
        ),
    ]
}

fn sections_for(target: &str, scale: Scale) -> Option<Vec<Section>> {
    match target {
        "table1" => Some(vec![section(
            "table1",
            "Table 1: SSSP on traffic",
            experiments::table1(scale),
        )]),
        "fig6" => Some(fig6_sections(scale)),
        "fig7" => Some(fig7_sections(scale)),
        "fig8" => Some(vec![section(
            "fig8",
            "Fig 8(a-l): communication cost (see comm column)",
            experiments::fig8_comm(scale),
        )]),
        "fig9" => Some(vec![section(
            "fig9",
            "Fig 9: scalability on synthetic graphs",
            experiments::fig9_scalability(scale),
        )]),
        "incremental" => Some(vec![
            section(
                "incremental",
                "Prepared queries: update latency & messages saved vs recompute",
                experiments::incremental(scale),
            ),
            section(
                "refresh_comparison",
                "Deletion refresh: recompute vs retracted vs monotone (regional traffic)",
                experiments::refresh_comparison(scale),
            ),
        ]),
        "serving" => Some(vec![section(
            "serving",
            "GrapeServer: K standing queries, one delta stream (per-delta latency)",
            experiments::serving(scale),
        )]),
        "all" => {
            let mut all = vec![section(
                "table1",
                "Table 1: SSSP on traffic",
                experiments::table1(scale),
            )];
            all.extend(fig6_sections(scale));
            all.extend(fig7_sections(scale));
            all.push(section(
                "fig9",
                "Fig 9: scalability on synthetic graphs",
                experiments::fig9_scalability(scale),
            ));
            all.push(section(
                "incremental",
                "Prepared queries: update latency & messages saved vs recompute",
                experiments::incremental(scale),
            ));
            all.push(section(
                "refresh_comparison",
                "Deletion refresh: recompute vs retracted vs monotone (regional traffic)",
                experiments::refresh_comparison(scale),
            ));
            all.push(section(
                "serving",
                "GrapeServer: K standing queries, one delta stream (per-delta latency)",
                experiments::serving(scale),
            ));
            Some(all)
        }
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut format = Format::Text;
    let mut targets: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().map(String::as_str).unwrap_or("small");
                scale = Scale::parse(value).unwrap_or_else(|| {
                    eprintln!("unknown scale {value:?}, using small");
                    Scale::Small
                });
            }
            "--format" => {
                let value = iter.next().map(String::as_str).unwrap_or("text");
                format = Format::parse(value).unwrap_or_else(|| {
                    eprintln!("unknown format {value:?} (use text|json|csv), using text");
                    Format::Text
                });
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }

    let scale_name = scale.name();
    let mut csv_header_printed = false;
    for target in &targets {
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
        if target == "serving_scaling" {
            print_serving_scaling(scale, format, scale_name);
            continue;
        }
        if target == "serving_watchers" {
            print_serving_watchers(scale, format, scale_name);
            continue;
        }
        let Some(sections) = sections_for(target, scale) else {
            eprintln!(
                "unknown experiment {target:?} \
                 (use table1|fig6|fig7|fig8|fig9|incremental|serving|serving_scaling|\
                 serving_watchers|loc|all)"
            );
            continue;
        };
        for s in &sections {
            match format {
                Format::Text => print!("{}", format_table(&s.title, &s.rows)),
                Format::Json => print!("{}", format_rows_json(s.id, scale_name, &s.rows)),
                Format::Csv => {
                    if !csv_header_printed {
                        println!("{CSV_HEADER}");
                        csv_header_printed = true;
                    }
                    print!("{}", format_rows_csv(s.id, scale_name, &s.rows));
                }
            }
        }
        if target == "all" {
            print_serving_scaling(scale, format, scale_name);
            print_serving_watchers(scale, format, scale_name);
            if format == Format::Text {
                print_loc();
            } else {
                eprintln!("loc is text-only (Exp-6 has no run rows); skipping under --format");
            }
        }
    }
}

/// Prints the serving-scaling section in its own row shape; CSV has no
/// column set for it, so it is skipped there with a note on stderr.
fn print_serving_scaling(scale: Scale, format: Format, scale_name: &str) {
    match format {
        Format::Csv => {
            eprintln!(
                "serving_scaling has its own row shape (latency percentiles); \
                 use --format text|json"
            );
        }
        Format::Text => {
            let rows = experiments::serving_scaling(scale);
            print!(
                "{}",
                format_scaling_table(
                    "GrapeServer scaling: K queries x refresh threads x arrival",
                    &rows
                )
            );
        }
        Format::Json => {
            let rows = experiments::serving_scaling(scale);
            print!(
                "{}",
                format_scaling_json("serving_scaling", scale_name, &rows)
            );
        }
    }
}

/// Prints the serving-watchers section in its own row shape (push-vs-poll
/// byte totals per watcher count); CSV has no column set for it, so it is
/// skipped there with a note on stderr.
fn print_serving_watchers(scale: Scale, format: Format, scale_name: &str) {
    match format {
        Format::Csv => {
            eprintln!(
                "serving_watchers has its own row shape (pushed/polled bytes); \
                 use --format text|json"
            );
        }
        Format::Text => {
            let rows = experiments::serving_watchers(scale);
            print!(
                "{}",
                format_watchers_table(
                    "GrapeServer watchers: K queries x W subscribers, pushed vs polled bytes",
                    &rows
                )
            );
        }
        Format::Json => {
            let rows = experiments::serving_watchers(scale);
            print!(
                "{}",
                format_watchers_json("serving_watchers", scale_name, &rows)
            );
        }
    }
}

/// Exp-6 (ease of programming): lines of code of the PIE programs vs the
/// vertex/block programs, the analogue of Figures 10–11.
fn print_loc() {
    let entries = [
        (
            "PIE SSSP (crates/algorithms/src/sssp/pie.rs)",
            include_str!("../../../algorithms/src/sssp/pie.rs"),
        ),
        (
            "PIE CC (crates/algorithms/src/cc/pie.rs)",
            include_str!("../../../algorithms/src/cc/pie.rs"),
        ),
        (
            "PIE Sim (crates/algorithms/src/sim/pie.rs)",
            include_str!("../../../algorithms/src/sim/pie.rs"),
        ),
        (
            "vertex programs, all five (crates/baselines/src/vertex_centric/programs.rs)",
            include_str!("../../../baselines/src/vertex_centric/programs.rs"),
        ),
        (
            "block programs, all five (crates/baselines/src/block_centric/programs.rs)",
            include_str!("../../../baselines/src/block_centric/programs.rs"),
        ),
    ];
    println!("\n== Exp-6: ease of programming (non-test, non-comment lines) ==");
    for (name, source) in entries {
        let loc = source
            .lines()
            .take_while(|l| !l.contains("#[cfg(test)]"))
            .filter(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with("//")
            })
            .count();
        println!("{loc:>6}  {name}");
    }
}
