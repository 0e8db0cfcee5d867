//! The outside-in trace: a span around each call the harness makes into a
//! layer's public function.  Nothing inside the crates is instrumented.
//!
//! Spans are kept in memory and written as one JSON object per line when
//! the run ends.  With recording off (the end-to-end runs) `enter`/`exit`
//! still time the call — the caller needs the duration either way — but
//! keep nothing.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Recorder`]; the id written to the trace file.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.serve_apply`.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The commit version the call belongs to — the identifier the spans
    /// of one request share (0 outside a commit).
    pub version: usize,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    /// Microseconds since the recorder was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An open span: where it started and, when recording, its slot.
pub struct Open {
    started: Instant,
    slot: Option<SpanId>,
}

impl Open {
    /// The id child spans name as their parent (`None` with recording off).
    pub fn id(&self) -> Option<SpanId> {
        self.slot
    }
}

/// The in-memory span store.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled = false` times calls but keeps no spans.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>, version: usize) -> Open {
        let started = Instant::now();
        let slot = self.enabled.then(|| {
            let us = started.duration_since(self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                parent,
                version,
                start_us: us,
                end_us: us,
            });
            self.spans.len() - 1
        });
        Open { started, slot }
    }

    /// Closes a span and returns how long it was open.
    pub fn exit(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_us = now.duration_since(self.origin).as_secs_f64() * 1e6;
        }
        now.duration_since(open.started)
    }

    /// Records a span whose interval was measured elsewhere (the watcher
    /// thread's "last frame read" instant).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        version: usize,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                version,
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: end.duration_since(self.origin).as_secs_f64() * 1e6,
            });
        }
    }

    /// Every recorded span, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span called `name`, in opening order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times (ms) of every span called `name`.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time_us((s.start_us, s.end_us), &children[i]) / 1e3)
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"version\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.version, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children are counted once, and a child is
/// clipped to its parent).
pub fn self_time_us(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.partial_cmp(b).expect("span times are never NaN"));
    let mut covered = 0.0;
    let mut reach = span.0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (span.1 - span.0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        // 100 µs span, children cover [10,30] and [50,60].
        assert_eq!(
            self_time_us((0.0, 100.0), &[(10.0, 30.0), (50.0, 60.0)]),
            70.0
        );
        // Overlapping children count once: [10,40] ∪ [30,60] = 50 µs.
        assert_eq!(
            self_time_us((0.0, 100.0), &[(10.0, 40.0), (30.0, 60.0)]),
            50.0
        );
        // A child reaching outside its parent is clipped.
        assert_eq!(
            self_time_us((20.0, 100.0), &[(0.0, 30.0), (90.0, 150.0)]),
            60.0
        );
        // No children: all self.
        assert_eq!(self_time_us((5.0, 25.0), &[]), 20.0);
        // A child nested in another adds nothing.
        assert_eq!(self_time_us((0.0, 10.0), &[(1.0, 9.0), (2.0, 3.0)]), 2.0);
    }

    #[test]
    fn recorder_keeps_parents_and_derives_self_time() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer.call", None, 3);
        let inner = rec.enter("inner.call", outer.id(), 3);
        std::thread::sleep(Duration::from_millis(2));
        let inner_took = rec.exit(inner);
        let outer_took = rec.exit(outer);
        assert!(outer_took >= inner_took);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].version, 3);
        let own = rec.self_times_ms("outer.call")[0];
        assert!((own - (spans[0].ms() - spans[1].ms())).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.enter("x.y", None, 0);
        assert_eq!(open.id(), None);
        std::thread::sleep(Duration::from_millis(1));
        assert!(rec.exit(open) >= Duration::from_millis(1));
        assert!(rec.spans().is_empty());
    }
}
