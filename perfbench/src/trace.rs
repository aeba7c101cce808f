//! In-memory spans for the traced run.
//!
//! Spans wrap calls into the program's public functions from outside; the
//! program itself is not instrumented. They are kept in memory and written
//! out once, when the run ends, so writing them costs no time inside an
//! operation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a layer boundary crossed by one operation.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `query.evaluate`.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans when enabled; every method is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span and returns its index (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, op, parent, start_ns: ns(start), end_ns: ns(end) });
        Some(self.spans.len() - 1)
    }

    /// Per span name: (number of spans, total duration ms, total self time
    /// ms). A span's self time is its duration minus the part of it that its
    /// child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration as f64 / 1e6;
            entry.2 += duration.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    /// The spans as JSON: `{"spans": [[name, op, parent, start_ns, end_ns], …]}`
    /// with `parent` = -1 for a root span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{sep}",
                s.name, s.op, parent, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = tracer.record("op", 0, None, at(0), at(10));
        tracer.record("a", 0, root, at(1), at(4));
        tracer.record("b", 0, root, at(3), at(6));
        let times = tracer.self_times();
        let (n, total, own) = times["op"];
        assert_eq!(n, 1);
        assert!((total - 10.0).abs() < 1e-6);
        assert!((own - 5.0).abs() < 1e-6, "children cover 1..6, self = 5 ms, got {own}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record("op", 0, None, now, now), None);
        assert!(tracer.self_times().is_empty());
    }
}
