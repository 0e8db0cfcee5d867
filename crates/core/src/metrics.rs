//! Runtime metrics of a GRAPE run: response time, supersteps and
//! communication volume — the three quantities the paper's evaluation
//! (Table 1, Figures 6, 8, 9) reports.

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Per-superstep breakdown.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SuperstepMetrics {
    /// Superstep index (0 = PEval, ≥ 1 = IncEval rounds).
    pub superstep: usize,
    /// Number of fragments that did local work in this superstep.
    pub active_fragments: usize,
    /// Messages routed to workers at the end of the superstep.
    pub messages: usize,
    /// Bytes shipped for those messages.
    pub bytes: usize,
    /// Time of the superstep (local evaluation + routing): wall-clock under
    /// the synchronous runtime; summed concurrent evaluation durations
    /// under the barrier-free runtime (see
    /// [`EngineMetrics::eval_time`]).
    #[serde(skip)]
    pub duration: Duration,
}

/// Aggregate metrics of one engine run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Name of the PIE / vertex / block program that ran.
    pub program: String,
    /// Name of the substrate that ran the query
    /// ([`crate::transport::TransportSpec::name`]: `"barrier"`, `"channel"`
    /// or `"process"`); empty for engines that predate the transport layer
    /// (the baselines).
    #[serde(default)]
    pub transport: String,
    /// Number of physical workers used.
    pub workers: usize,
    /// Number of fragments (virtual workers).
    pub fragments: usize,
    /// Total supersteps executed (PEval counts as the first).
    pub supersteps: usize,
    /// Total number of routed messages.
    pub total_messages: usize,
    /// Total communication volume in bytes (messages + fragment expansion).
    pub total_bytes: usize,
    /// Bytes attributable to `d`-hop fragment expansion (SubIso).
    pub expansion_bytes: usize,
    /// Number of injected worker failures that were recovered.
    pub recovered_failures: usize,
    /// Number of checkpoints taken.
    pub checkpoints: usize,
    /// Number of `PEval` invocations.  An IncEval-only incremental refresh
    /// (see `crate::prepared::PreparedQuery::update`) reports **0** here —
    /// the pin of the prepared-query acceptance criterion — and a *bounded*
    /// non-monotone refresh reports the size of the damage frontier
    /// (`|damaged| < fragments`, the pin of the bounded-refresh criterion).
    #[serde(default)]
    pub peval_calls: usize,
    /// Number of `IncEval` invocations (evaluations that actually consumed
    /// messages; empty drains are not counted).
    #[serde(default)]
    pub inceval_calls: usize,
    /// Messages synthesized from `ΔG` by the per-fragment rebase step and
    /// injected into the mailboxes to start an incremental refresh, after
    /// `aggregateMsg` (one per destination and key), in either engine mode.
    /// Counted separately from the per-superstep message flow (they are part
    /// of [`EngineMetrics::total_messages`]).
    #[serde(default)]
    pub seed_messages: usize,
    /// Whether this run was an incremental refresh (IncEval-only, or a
    /// bounded refresh rooted at the damage frontier) rather than a full
    /// PEval-everywhere computation.
    #[serde(default)]
    pub incremental: bool,
    /// Bytes that crossed worker-subprocess pipes (requests + replies,
    /// JSON frames included): fragments and partials shipped at the
    /// handshake, per-evaluation message traffic, and collected partials.
    /// Always **0** for [`crate::transport::TransportSpec::InProcess`] runs.
    #[serde(default)]
    pub pipe_bytes: usize,
    /// Time spent in PEval/IncEval across all supersteps.  Under the
    /// synchronous runtime this is wall-clock per superstep; under the
    /// barrier-free runtime it is the *sum* of per-evaluation durations,
    /// which run concurrently across workers and can therefore exceed
    /// wall-clock time (use [`EngineMetrics::total_time`] for wall-clock
    /// comparisons — that is what the benches report).
    #[serde(skip)]
    pub eval_time: Duration,
    /// Total wall-clock time of the run (evaluation + routing + assemble).
    #[serde(skip)]
    pub total_time: Duration,
    /// Per-superstep breakdown.
    pub per_superstep: Vec<SuperstepMetrics>,
}

impl EngineMetrics {
    /// Communication volume in megabytes (the unit of Table 1 and Figure 8).
    pub fn comm_megabytes(&self) -> f64 {
        self.total_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Total wall-clock time in seconds (the unit of Table 1 and Figure 6).
    pub fn seconds(&self) -> f64 {
        self.total_time.as_secs_f64()
    }

    /// Records a finished superstep.
    pub fn push_superstep(&mut self, step: SuperstepMetrics) {
        self.supersteps = self.supersteps.max(step.superstep + 1);
        self.total_messages += step.messages;
        self.total_bytes += step.bytes;
        self.per_superstep.push(step);
    }

    /// Adds expansion (d-hop neighborhood shipping) communication.
    pub fn add_expansion(&mut self, bytes: usize) {
        self.expansion_bytes += bytes;
        self.total_bytes += bytes;
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} workers, {} fragments, {} supersteps, {} msgs, {:.3} MB, {:.3} s",
            self.program,
            self.workers,
            self.fragments,
            self.supersteps,
            self.total_messages,
            self.comm_megabytes(),
            self.seconds()
        )
    }
}

/// Latency statistics over a set of per-operation durations — what the
/// serving-scaling experiment reports per (K, threads, arrival-pattern)
/// cell.  Percentiles use the nearest-rank method on the sorted samples,
/// so `p50`/`p99` are always actual observed values.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples summarized.
    pub samples: usize,
    /// Arithmetic mean, in milliseconds.
    pub mean_ms: f64,
    /// Median (50th percentile), in milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, in milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency, in milliseconds.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a set of durations; all-zero for an empty slice.
    pub fn from_durations(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
        let mean = ms.iter().sum::<f64>() / ms.len() as f64;
        LatencySummary {
            samples: ms.len(),
            mean_ms: mean,
            p50_ms: percentile(&ms, 50.0),
            p99_ms: percentile(&ms, 99.0),
            max_ms: *ms.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_uses_nearest_rank_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = LatencySummary::from_durations(&samples);
        assert_eq!(s.samples, 100);
        assert!((s.p50_ms - 50.0).abs() < 1e-9);
        assert!((s.p99_ms - 99.0).abs() < 1e-9);
        assert!((s.max_ms - 100.0).abs() < 1e-9);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);

        let one = LatencySummary::from_durations(&[Duration::from_millis(7)]);
        assert!((one.p50_ms - 7.0).abs() < 1e-9);
        assert!((one.p99_ms - 7.0).abs() < 1e-9);

        let empty = LatencySummary::from_durations(&[]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.max_ms, 0.0);
    }

    #[test]
    fn push_superstep_accumulates_totals() {
        let mut m = EngineMetrics {
            program: "sssp".into(),
            workers: 4,
            ..Default::default()
        };
        m.push_superstep(SuperstepMetrics {
            superstep: 0,
            active_fragments: 4,
            messages: 10,
            bytes: 160,
            duration: Duration::from_millis(5),
        });
        m.push_superstep(SuperstepMetrics {
            superstep: 1,
            active_fragments: 2,
            messages: 3,
            bytes: 48,
            duration: Duration::from_millis(2),
        });
        assert_eq!(m.supersteps, 2);
        assert_eq!(m.total_messages, 13);
        assert_eq!(m.total_bytes, 208);
        assert_eq!(m.per_superstep.len(), 2);
    }

    #[test]
    fn expansion_counts_towards_total_bytes() {
        let mut m = EngineMetrics::default();
        m.add_expansion(1024);
        assert_eq!(m.expansion_bytes, 1024);
        assert_eq!(m.total_bytes, 1024);
    }

    #[test]
    fn unit_conversions() {
        let m = EngineMetrics {
            total_bytes: 2 * 1024 * 1024,
            total_time: Duration::from_millis(1500),
            ..Default::default()
        };
        assert!((m.comm_megabytes() - 2.0).abs() < 1e-9);
        assert!((m.seconds() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn summary_mentions_program_name() {
        let m = EngineMetrics {
            program: "cc".into(),
            ..Default::default()
        };
        assert!(m.summary().contains("cc"));
    }

    #[test]
    fn serde_roundtrip() {
        let mut m = EngineMetrics {
            program: "sim".into(),
            workers: 2,
            peval_calls: 4,
            inceval_calls: 9,
            seed_messages: 3,
            incremental: true,
            ..Default::default()
        };
        m.push_superstep(SuperstepMetrics {
            superstep: 0,
            messages: 1,
            bytes: 8,
            ..Default::default()
        });
        let json = serde_json::to_string(&m).unwrap();
        let back: EngineMetrics = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total_messages, 1);
        assert_eq!(back.program, "sim");
        assert_eq!(back.peval_calls, 4);
        assert_eq!(back.inceval_calls, 9);
        assert_eq!(back.seed_messages, 3);
        assert!(back.incremental);
    }
}
