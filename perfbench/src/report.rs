//! What a run reports: the end-to-end metrics of the untraced run, the
//! per-layer metrics of the traced run, and the result line.

use crate::stats::{median, summarize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("answers_per_s", "1/s"),
    ("update_p50_ms", "ms"),
    ("update_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.eval_ms", "ms"),
    ("query.eval_share", "ratio"),
    ("query.answers", "count"),
    ("engine.batch_ms", "ms"),
    ("engine.backend_ms", "ms"),
    ("engine.compile_steps", "count"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.canon_searches", "count"),
    ("cache.prekey_skips", "count"),
    ("cache.evictions", "count"),
    ("cache.searches_per_hit", "ratio"),
    ("canon.key_us", "us"),
    ("canon.prekey_us", "us"),
    ("dtree.compile_ms", "ms"),
    ("dtree.nodes", "count"),
    ("core.count_ms", "ms"),
    ("live.apply_ms", "ms"),
    ("live.touched", "count"),
    ("live.compile_steps", "count"),
    ("live.cache_hits", "count"),
    ("serve.wait_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.queue_depth", "count"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.rejected", "count"),
    ("trace.p50_ms", "ms"),
    ("trace.update_p50_ms", "ms"),
];

/// Per-layer values by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one per-layer metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`]: the list is the contract.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (reads and updates).
    pub attempted: u64,
    /// Operations that failed, outputs that failed verification included.
    pub failed: u64,
    /// Read-operation latencies, ms.
    pub reads_ms: Vec<f64>,
    /// Update latencies, ms.
    pub updates_ms: Vec<f64>,
    /// Answers attributed per second of timed wall time.
    pub answers_per_s: f64,
    /// Set-up times of the repeated set-ups, s.
    pub setups_s: Vec<f64>,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics (traced run only).
    pub layers: Layers,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Wall time of each phase of the run, s.
    pub phases: Vec<(&'static str, f64)>,
    phase_start: Option<Instant>,
}

impl Outcome {
    /// An empty outcome whose first phase starts now.
    pub fn new() -> Self {
        Outcome { phase_start: Some(Instant::now()), ..Outcome::default() }
    }

    /// Ends the current phase of the run, called `name`, and starts the next.
    pub fn end_phase(&mut self, name: &'static str) {
        let now = Instant::now();
        let start = self.phase_start.replace(now).unwrap_or(now);
        self.phases.push((name, (now - start).as_secs_f64()));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Runs one set-up of the program and records how long it took.
    pub fn time_set_up<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let kept = set_up();
        self.setups_s.push(start.elapsed().as_secs_f64());
        kept
    }

    /// The end-to-end metric values; `None` if a latency list is too short
    /// to have a tail.
    pub fn end_to_end(&self) -> Option<Vec<f64>> {
        let reads = summarize(&self.reads_ms)?;
        let updates = summarize(&self.updates_ms)?;
        Some(vec![
            reads.p50,
            reads.tail,
            self.answers_per_s,
            updates.p50,
            updates.tail,
            median(&self.setups_s),
            self.peak_rss_mb,
        ])
    }

    /// Lines describing the latency distributions (percentile and count
    /// behind each tail).
    pub fn describe(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (what, samples) in [("read", &self.reads_ms), ("update", &self.updates_ms)] {
            if let Some(s) = summarize(samples) {
                lines.push(format!(
                    "{what}: n={} p50={:.4} ms tail=p{:.3} {:.4} ms",
                    s.count, s.p50, s.tail_pct, s.tail
                ));
            }
        }
        lines.push(format!(
            "setup_s samples: {:?}",
            self.setups_s.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>()
        ));
        let phases: Vec<String> =
            self.phases.iter().map(|(name, s)| format!("{name} {s:.2} s")).collect();
        lines.push(format!("phases: {}", phases.join(", ")));
        let ratio =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        lines.push(format!("fail_ratio {ratio} ({}/{})", self.failed, self.attempted));
        lines
    }

    /// The result line. `traced` selects the per-layer metrics instead of
    /// the end-to-end ones. A missing metric makes the run incorrect.
    pub fn result_line(&self, traced: bool) -> (bool, String) {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        let mut push = |name: &str, value: f64, unit: &str| {
            let sep = if metrics.is_empty() { "" } else { ", " };
            let value = if value.is_finite() { value } else { 0.0 };
            let _ =
                write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        };
        if traced {
            for (name, unit) in PER_LAYER {
                match self.layers.0.get(name) {
                    Some(&v) => push(name, v, unit),
                    None => correct = false,
                }
            }
        } else {
            match self.end_to_end() {
                Some(values) => {
                    for ((name, unit), v) in END_TO_END.iter().zip(values) {
                        push(name, v, unit);
                    }
                }
                None => correct = false,
            }
        }
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        (correct, line)
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            attempted: 40,
            reads_ms: (1..=20).map(f64::from).collect(),
            updates_ms: (1..=20).map(|x| f64::from(x) * 2.0).collect(),
            answers_per_s: 100.5,
            setups_s: vec![0.3, 0.1, 0.2],
            peak_rss_mb: 12.0,
            ..Outcome::default()
        }
    }

    #[test]
    fn result_line_names_every_end_to_end_metric() {
        let (correct, line) = outcome().result_line(false);
        assert!(correct);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.contains("\"tail_ms\": {\"value\": 10,"), "{line}");
        assert!(line.contains("\"setup_s\": {\"value\": 0.2,"), "{line}");
    }

    #[test]
    fn a_failure_or_missing_layer_makes_the_run_incorrect() {
        let mut failed = outcome();
        failed.failed = 1;
        assert!(!failed.result_line(false).0);
        // No per-layer metric was set.
        assert!(!outcome().result_line(true).0);
    }
}
