//! Harness spans: one per call into a layer, recorded from the
//! benchmark's own files (spans *inside* the program are a later
//! change).
//!
//! A [`Lane`] is one thread's span buffer. Spans stay in memory while
//! the workload runs and are written as JSONL — `id, name, start_ns,
//! end_ns, parent, op_id` — when the benchmark ends. Spans of one
//! operation share its `op_id`; `parent` is the id of the span that
//! caused this one (`0` for an operation's root span). A layer's *self
//! time* is its span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `lane << 32 | index + 1` — unique across lanes, never 0.
    pub id: u64,
    /// Layer (module) name, or `op.<kind>` for an operation's root.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Id of the causing span, `0` for a root.
    pub parent: u64,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
}

/// One thread's span buffer. A disabled lane records nothing and reads
/// no clock, so the untraced run pays one branch per call.
pub struct Lane {
    epoch: Instant,
    lane: u64,
    enabled: bool,
    spans: Vec<Span>,
}

impl Lane {
    /// A lane numbered `lane` measuring from `epoch`.
    pub fn new(epoch: Instant, lane: u64, enabled: bool) -> Lane {
        Lane {
            epoch,
            lane,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A lane that records nothing.
    pub fn off() -> Lane {
        Lane::new(Instant::now(), 0, false)
    }

    /// Opens a span; returns its id (`0` when disabled).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u64, op_id: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = (self.lane << 32) | (self.spans.len() as u64 + 1);
        self.spans.push(Span {
            id,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op_id,
        });
        id
    }

    /// Closes the span `id` returned by [`Lane::begin`].
    #[inline]
    pub fn end(&mut self, id: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let index = (id & 0xFFFF_FFFF) as usize - 1;
        self.spans[index].end_ns = now;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        op_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op_id);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Renders spans as JSONL, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}\n",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.op_id
        ));
    }
    out
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus what child spans cover, nanoseconds.
    pub self_ns: u64,
}

/// Groups spans by name with total and self time.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut lane = Lane::new(Instant::now(), 1, true);
        let op = lane.begin("op.ingest", 0, 7);
        lane.span("layer.a", op, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        lane.end(op);
        let spans = lane.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        let t = totals(&spans);
        assert!(t["op.ingest"].total_ns >= t["layer.a"].total_ns);
        assert!(t["op.ingest"].self_ns < t["op.ingest"].total_ns);
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }

    #[test]
    fn disabled_lane_records_nothing() {
        let mut lane = Lane::off();
        let id = lane.begin("x", 0, 1);
        lane.end(id);
        assert!(lane.into_spans().is_empty());
    }
}
