//! The benchmark's registry — workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics — and the validator that holds
//! `BENCHMARK.json` to both the registry and the manifest contract.
//!
//! The registry is the single source of names: the workloads emit through
//! it, `--list` prints it, and [`check`] refuses a manifest that names a
//! metric the harness does not print or omits one it does.

use serde::Value;

/// The five query classes of the paper; per-family metrics carry one of
/// these as a suffix.
pub const FAMILIES: [&str; 5] = ["sssp", "cc", "sim", "subiso", "cf"];

/// A named workload and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// The six workloads.  Names are final: later issues cite them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "serve-insert",
        why: "monotone inserts, no watcher, no reads: apply_delta + IncEval fan-out + small frames; watcher and deletion work must not move it",
    },
    Workload {
        name: "serve-churn",
        why: "remove one edge and re-insert the last: every commit is non-monotone, so damage frontier, bounded refresh and PEval do the work",
    },
    Workload {
        name: "serve-watch-read",
        why: "36 subscriptions plus output polls beside the writes: diff_output, per-subscriber event encode, socket writes, answer JSON",
    },
    Workload {
        name: "cold-cycle",
        why: "evict, two commits, rehydrate: spill-store writes with fsync, fold-on-load, compaction, missed-delta replay; engine work is small",
    },
    Workload {
        name: "serve-process",
        why: "the insert stream over --transport process: pipe JSON encode/decode dominates; the only workload a worker-wire change can move",
    },
    Workload {
        name: "families",
        why: "library only: all five query classes run and updated on prepared handles; bypasses daemon, serve and spill, so wire work must not move it",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The manifest's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction, and whether it is an exact count.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

/// An end-to-end metric with the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics: what a user of the system sees.  Every workload
/// reports every one; "op" is the workload's own operation (see the
/// README's workload table).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// The percentile `op_p90_ms` reports.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// `(name, unit, better, exact)` of the per-layer metrics that are not
/// per-family.  An exact metric is a count over a fixed prefix of the seeded
/// input: it must repeat bit for bit between runs of the same code.
const PER_LAYER_PLAIN: &[(&str, &str, Better, bool)] = &[
    // grape-partition
    ("partition.partition_ms", "ms", Better::Lower, false),
    ("partition.apply_delta_ms", "ms", Better::Lower, false),
    ("partition.rebuilt_fragments", "count", Better::Lower, true),
    ("partition.damage_frontier_ms", "ms", Better::Lower, false),
    ("partition.damaged_fragments", "count", Better::Lower, true),
    ("partition.spill_ms", "ms", Better::Lower, false),
    ("partition.load_ms", "ms", Better::Lower, false),
    ("partition.compact_ms", "ms", Better::Lower, false),
    ("partition.spill_bytes_base", "bytes", Better::Lower, true),
    ("partition.spill_bytes_inc", "bytes", Better::Lower, true),
    ("partition.chain_len_mean", "count", Better::Lower, true),
    // grape-core
    ("core.register_ms", "ms", Better::Lower, false),
    ("core.serve_apply_ms", "ms", Better::Lower, false),
    ("core.refresh_self_ms", "ms", Better::Lower, false),
    ("core.update_ms.sssp", "ms", Better::Lower, false),
    ("core.update_ms.cc", "ms", Better::Lower, false),
    ("core.peval_calls", "count", Better::Lower, true),
    ("core.inceval_calls", "count", Better::Lower, true),
    ("core.supersteps", "count", Better::Lower, true),
    ("core.messages", "count", Better::Lower, true),
    ("core.msg_bytes", "bytes", Better::Lower, true),
    ("core.useful_refresh_ratio", "share", Better::Higher, true),
    ("core.diff_output_ms", "ms", Better::Lower, false),
    ("core.event_rows", "count", Better::Lower, true),
    ("core.output_ms", "ms", Better::Lower, false),
    ("core.evict_ms", "ms", Better::Lower, false),
    ("core.rehydrate_ms", "ms", Better::Lower, false),
    ("core.replayed_deltas", "count", Better::Lower, true),
    ("core.pipe_bytes_per_commit", "bytes", Better::Lower, true),
    ("core.pipe_bytes_register", "bytes", Better::Lower, true),
    ("core.run_sweep_ms", "ms", Better::Lower, false),
    ("core.run_sweep_async_ms", "ms", Better::Lower, false),
    ("core.update_sweep_ms", "ms", Better::Lower, false),
    // grape-daemon
    ("daemon.spawn_ms", "ms", Better::Lower, false),
    ("daemon.register_ms", "ms", Better::Lower, false),
    ("daemon.apply_ms", "ms", Better::Lower, false),
    ("daemon.server_commit_ms", "ms", Better::Lower, false),
    ("daemon.overhead_ms", "ms", Better::Lower, false),
    ("daemon.apply_req_bytes", "bytes", Better::Lower, true),
    ("daemon.apply_resp_bytes", "bytes", Better::Lower, true),
    ("daemon.req_encode_ms", "ms", Better::Lower, false),
    ("daemon.req_decode_ms", "ms", Better::Lower, false),
    ("daemon.event_ms", "ms", Better::Lower, false),
    ("daemon.event_lag_ms", "ms", Better::Lower, false),
    (
        "daemon.event_frame_bytes_per_commit",
        "bytes",
        Better::Lower,
        true,
    ),
    ("daemon.event_encode_ms", "ms", Better::Lower, false),
    ("daemon.output_ms", "ms", Better::Lower, false),
    ("daemon.output_stall_share", "share", Better::Lower, false),
    ("daemon.answer_bytes", "bytes", Better::Lower, true),
    ("daemon.orphans", "count", Better::Lower, true),
    ("daemon.answer_encode_ms", "ms", Better::Lower, false),
    ("daemon.answer_decode_ms", "ms", Better::Lower, false),
    ("daemon.evict_ms", "ms", Better::Lower, false),
    ("daemon.rehydrate_ms", "ms", Better::Lower, false),
    // the harness's own check on its trace
    ("trace.commit_coverage", "share", Better::Higher, false),
];

/// `(prefix, unit)` of the per-family metrics; each expands to one metric
/// per entry of [`FAMILIES`].
const PER_LAYER_BY_FAMILY: [(&str, &str); 6] = [
    ("core.run_ms", "ms"),
    ("core.route_ms", "ms"),
    ("core.prepared_update_ms", "ms"),
    ("algorithms.peval_ms", "ms"),
    ("algorithms.inceval_ms", "ms"),
    ("algorithms.comm_mb", "MB"),
];

/// Every per-layer metric, in the order `--list` and the manifest use.
pub fn per_layer() -> Vec<Metric> {
    let mut all: Vec<Metric> = PER_LAYER_PLAIN
        .iter()
        .map(|&(name, unit, better, exact)| Metric {
            name: name.to_string(),
            unit,
            better,
            exact,
        })
        .collect();
    for (prefix, unit) in PER_LAYER_BY_FAMILY {
        for family in FAMILIES {
            all.push(Metric {
                name: format!("{prefix}.{family}"),
                unit,
                better: Better::Lower,
                // Communication volume is the one per-family count.
                exact: unit == "MB",
            });
        }
    }
    all
}

/// Whether `name` is a metric of the registry.
pub fn declares(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || per_layer().iter().any(|m| m.name == name)
}

/// The registry as `--list` prints it: one line per workload and metric.
pub fn listing() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload\t{}\t{}\n", w.name, w.why));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end\t{}\t{}\t{}\t{}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in per_layer() {
        out.push_str(&format!(
            "per_layer\t{}\t{}\t{}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// The manifest contract
// ---------------------------------------------------------------------------

/// A name: starts with a letter or digit, then letters, digits, `_ . -`;
/// at most 64 characters.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit: letters, digits, `_ / % . -`; 1 to 16 characters.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// A path of the repo: relative, at most 200 of letters, digits, `_ . - /`,
/// never leading out through `..`.
fn valid_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && s.split('/').all(|part| part != "..")
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c))
}

fn keys_of<'v>(v: &'v Value, what: &str, errors: &mut Vec<String>) -> Vec<&'v str> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => {
            errors.push(format!("{what} is not an object"));
            Vec::new()
        }
    }
}

fn expect_keys(v: &Value, what: &str, want: &[&str], errors: &mut Vec<String>) {
    let mut got = keys_of(v, what, errors);
    got.sort_unstable();
    let mut want = want.to_vec();
    want.sort_unstable();
    if got != want {
        errors.push(format!(
            "{what} has keys {got:?}, expected exactly {want:?}"
        ));
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get_field(key).and_then(Value::as_str).unwrap_or("")
}

fn seq_field<'v>(v: &'v Value, key: &str, errors: &mut Vec<String>) -> &'v [Value] {
    match v.get_field(key) {
        Some(Value::Seq(items)) => items,
        _ => {
            errors.push(format!("`{key}` is missing or not a list"));
            &[]
        }
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Validates the text of a `BENCHMARK.json` against the contract and the
/// registry.  `path_exists` answers whether a `paths` entry is a directory
/// of the checkout.  Returns every violation found.
pub fn check(text: &str, path_exists: &dyn Fn(&str) -> bool) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > 64 * 1024 {
        errors.push(format!("manifest is {} bytes, over 64 KiB", text.len()));
    }
    let root: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("manifest does not parse: {e}")],
    };
    expect_keys(
        &root,
        "manifest",
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        &mut errors,
    );

    // command
    let command = seq_field(&root, "command", &mut errors);
    if command.is_empty() || command.len() > 32 {
        errors.push(format!(
            "`command` has {} strings, want 1..=32",
            command.len()
        ));
    }
    let paths: Vec<&str> = seq_field(&root, "paths", &mut errors)
        .iter()
        .map(|p| p.as_str().unwrap_or(""))
        .collect();
    for part in command {
        let Some(s) = part.as_str() else {
            errors.push("`command` holds a non-string".to_string());
            continue;
        };
        if s.len() > 200 {
            errors.push(format!("command part {s:?} is over 200 characters"));
        }
        if s.starts_with('/') || s.split('/').any(|p| p == "..") {
            errors.push(format!(
                "command part {s:?} is absolute or leads out of the repo"
            ));
        }
        if s.contains('/') && !paths.iter().any(|p| s.starts_with(&format!("{p}/"))) {
            errors.push(format!("command part {s:?} names a file outside `paths`"));
        }
    }

    // paths
    if paths.is_empty() || paths.len() > 16 {
        errors.push(format!("`paths` has {} entries, want 1..=16", paths.len()));
    }
    for p in &paths {
        if !valid_path(p) {
            errors.push(format!("path {p:?} is not a plain relative path"));
        } else if !path_exists(p) {
            errors.push(format!("path {p:?} is not a directory of the checkout"));
        }
    }

    // run_seconds
    match root.get_field("run_seconds") {
        Some(Value::UInt(n)) if (1..=60).contains(n) => {}
        other => errors.push(format!(
            "`run_seconds` must be a whole number 1..=60, got {other:?}"
        )),
    }

    let mut names: Vec<String> = Vec::new();

    // workloads
    let workloads = seq_field(&root, "workloads", &mut errors);
    if !(2..=8).contains(&workloads.len()) {
        errors.push(format!("{} workloads, want 2..=8", workloads.len()));
    }
    for w in workloads {
        expect_keys(w, "a workload", &["name", "why"], &mut errors);
        let why = str_field(w, "why");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            errors.push(format!(
                "workload {:?}: `why` must be one line of 1..=200 characters",
                str_field(w, "name")
            ));
        }
        names.push(str_field(w, "name").to_string());
    }
    let listed: Vec<&str> = workloads.iter().map(|w| str_field(w, "name")).collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if listed != ours {
        errors.push(format!(
            "manifest workloads {listed:?} differ from the harness's {ours:?}"
        ));
    }

    // end_to_end
    let end_to_end = seq_field(&root, "end_to_end", &mut errors);
    if !(1..=16).contains(&end_to_end.len()) {
        errors.push(format!(
            "{} end-to-end metrics, want 1..=16",
            end_to_end.len()
        ));
    }
    let mut saw_setup = false;
    for m in end_to_end {
        expect_keys(
            m,
            "an end-to-end metric",
            &["name", "unit", "better", "bound"],
            &mut errors,
        );
        let name = str_field(m, "name");
        names.push(name.to_string());
        let bound = number(m.get_field("bound"));
        if !bound.is_some_and(|b| (0.0..=0.25).contains(&b)) {
            errors.push(format!("{name}: bound {bound:?} is not within 0..=0.25"));
        }
        if name == "setup_s" {
            saw_setup = str_field(m, "unit") == "s" && str_field(m, "better") == "lower";
        }
        match END_TO_END.iter().find(|e| e.name == name) {
            None => errors.push(format!("{name}: listed but the harness does not print it")),
            Some(e) => {
                if str_field(m, "unit") != e.unit
                    || str_field(m, "better") != e.better.as_str()
                    || bound != Some(e.bound)
                {
                    errors.push(format!(
                        "{name}: unit, direction or bound differ from the harness's"
                    ));
                }
            }
        }
    }
    if !saw_setup {
        errors.push("no `setup_s` metric with unit `s` and better `lower`".to_string());
    }
    for e in &END_TO_END {
        if !end_to_end.iter().any(|m| str_field(m, "name") == e.name) {
            errors.push(format!("{}: printed by the harness but not listed", e.name));
        }
    }

    // per_layer
    let layer = seq_field(&root, "per_layer", &mut errors);
    if !(1..=128).contains(&layer.len()) {
        errors.push(format!("{} per-layer metrics, want 1..=128", layer.len()));
    }
    let ours = per_layer();
    for m in layer {
        expect_keys(
            m,
            "a per-layer metric",
            &["name", "unit", "better"],
            &mut errors,
        );
        let name = str_field(m, "name");
        names.push(name.to_string());
        match ours.iter().find(|o| o.name == name) {
            None => errors.push(format!("{name}: listed but the harness does not print it")),
            Some(o) => {
                if str_field(m, "unit") != o.unit || str_field(m, "better") != o.better.as_str() {
                    errors.push(format!(
                        "{name}: unit or direction differ from the harness's"
                    ));
                }
            }
        }
    }
    for o in &ours {
        if !layer.iter().any(|m| str_field(m, "name") == o.name) {
            errors.push(format!("{}: printed by the harness but not listed", o.name));
        }
    }

    // names and units, across all three lists
    for m in end_to_end.iter().chain(layer) {
        let unit = str_field(m, "unit");
        if !valid_unit(unit) {
            errors.push(format!(
                "{}: unit {unit:?} is not a valid unit",
                str_field(m, "name")
            ));
        }
        let better = str_field(m, "better");
        if better != "lower" && better != "higher" {
            errors.push(format!("{}: better {better:?}", str_field(m, "name")));
        }
    }
    for name in &names {
        if !valid_name(name) {
            errors.push(format!("{name:?} is not a valid name"));
        }
    }
    let mut seen = names.clone();
    seen.sort_unstable();
    for pair in seen.windows(2) {
        if pair[0] == pair[1] {
            errors.push(format!("name {:?} is used more than once", pair[0]));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A manifest built from the registry: what `BENCHMARK.json` must say.
    fn manifest_from_registry() -> String {
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("{{\"name\":\"{}\",\"why\":\"{}\"}}", w.name, w.why))
            .collect();
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect();
        let layer: Vec<String> = per_layer()
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect();
        format!(
            "{{\"command\":[\"bash\",\"benchmark/run.sh\"],\"paths\":[\"benchmark\"],\"run_seconds\":10,\"workloads\":[{}],\"end_to_end\":[{}],\"per_layer\":[{}]}}",
            workloads.join(","),
            e2e.join(","),
            layer.join(",")
        )
    }

    fn check_ok(text: &str) -> Vec<String> {
        check(text, &|p| p == "benchmark")
    }

    #[test]
    fn names_follow_the_contract() {
        for good in [
            "setup_s",
            "core.update_ms.sssp",
            "serve-insert",
            "9lives",
            "a",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "_x",
            "has space",
            "sla/sh",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["ms", "s", "1/s", "count", "MB", "%"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "per second", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn the_registry_itself_is_a_valid_manifest() {
        assert_eq!(check_ok(&manifest_from_registry()), Vec::<String>::new());
        assert!(per_layer().len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
    }

    #[test]
    fn a_manifest_that_disagrees_with_the_harness_is_refused() {
        let good = manifest_from_registry();
        // A metric the harness does not print.
        let extra = good.replace(
            "\"per_layer\":[",
            "\"per_layer\":[{\"name\":\"core.invented\",\"unit\":\"ms\",\"better\":\"lower\"},",
        );
        assert!(check_ok(&extra).iter().any(|e| e.contains("core.invented")));
        // A metric the harness prints, dropped from the manifest.
        let dropped = good.replace(
            "{\"name\":\"daemon.orphans\",\"unit\":\"count\",\"better\":\"lower\"},",
            "",
        );
        assert!(check_ok(&dropped)
            .iter()
            .any(|e| e.contains("daemon.orphans") && e.contains("not listed")));
        // A bound over the cap, a renamed workload, a missing path, a
        // command reaching outside `paths`.
        assert!(!check_ok(&good.replace("\"bound\":0.25", "\"bound\":0.3")).is_empty());
        assert!(!check_ok(&good.replace("serve-churn", "serve-chum")).is_empty());
        assert!(!check(&good, &|_| false).is_empty());
        assert!(!check_ok(&good.replace("benchmark/run.sh", "crates/run.sh")).is_empty());
        assert!(!check_ok(&good.replace("\"run_seconds\":10", "\"run_seconds\":61")).is_empty());
        assert!(!check_ok("{not json").is_empty());
    }
}
