//! In-memory spans for the traced run.
//!
//! Each call the traced day loop makes into the program gets a span:
//! name, start, end, parent and day. Spans stay in a `Vec` until the
//! run ends; [`Spans::self_time_ns`] folds them into per-name self time
//! (a span's duration minus its children's).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use enki_telemetry::{Clock, MonotonicClock};

/// Index of a span in its [`Spans`] buffer.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was called, as `layer.call`.
    pub name: &'static str,
    /// Start, nanoseconds since the buffer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the buffer's epoch.
    pub end_ns: u64,
    /// The span whose work this one is part of.
    pub parent: Option<SpanId>,
    /// Protocol day the call belongs to.
    pub day: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer with a shared epoch.
#[derive(Debug)]
pub struct Spans {
    clock: MonotonicClock,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty buffer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            clock: MonotonicClock::new(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.clock.now().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Times `f` as a span called `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        day: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (out, self.push(name, start_ns, end_ns, parent, day))
    }

    /// Records a span measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        day: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            day,
        });
        self.spans.len() - 1
    }

    /// Sets the end of a span pushed before its work finished.
    pub fn set_end(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    /// Self time per span name over the spans of days `min_day..`: each
    /// span's duration minus the durations of its children, summed by
    /// name. A child always shares its parent's day.
    #[must_use]
    pub fn self_time_ns(&self, min_day: u64) -> BTreeMap<&'static str, i128> {
        let mut out: BTreeMap<&'static str, i128> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.day >= min_day) {
            let d = i128::from(span.duration_ns());
            *out.entry(span.name).or_default() += d;
            if let Some(parent) = span.parent {
                *out.entry(self.spans[parent].name).or_default() -= d;
            }
        }
        out
    }

    /// The spans as JSON lines:
    /// `{"id":..,"name":..,"start_ns":..,"end_ns":..,"parent":..,"day":..}`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"day\":{}}}",
                s.name, s.start_ns, s.end_ns, s.day
            );
        }
        out
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let parent = spans.push("agents.on_tick", 0, 100, None, 0);
        spans.push("solver.solve", 200, 260, Some(parent), 0);
        spans.push("core.greedy", 300, 310, Some(parent), 0);
        spans.push("agents.on_tick", 400, 500, None, 1);
        let st = spans.self_time_ns(0);
        assert_eq!(st["agents.on_tick"], 130);
        assert_eq!(st["solver.solve"], 60);
        assert_eq!(st["core.greedy"], 10);
        let later = spans.self_time_ns(1);
        assert_eq!(later["agents.on_tick"], 100);
        assert!(!later.contains_key("solver.solve"));
        assert!(spans.to_jsonl().contains("\"parent\":0"));
    }
}
