//! Spans the benchmark records around its own calls into each layer.
//!
//! The traced run does not read the program's span table: it times the
//! public layer calls it makes, so the numbers exist without any span inside
//! the program. Every timed slice is disjoint from every other, so their sum
//! is the attributed part of the iteration and the rest of its wall time is
//! the unattributed remainder.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The per-layer metrics, with their units. A traced run reports all of
/// them; a layer that a workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("web.generate_s", "s"),
    ("tokens.build_s", "s"),
    ("tokens.count", "count"),
    ("crawler.crawl_s", "s"),
    ("crawler.busy_s", "s"),
    ("browser.requests", "count"),
    ("browser.pages", "count"),
    ("crawler.retries", "count"),
    ("net.fault.observed", "count"),
    ("crawler.retry_ratio", "ratio"),
    ("browser.cache.hits", "count"),
    ("browser.cache.hit_ratio", "ratio"),
    ("store.append_s", "s"),
    ("store.finish_s", "s"),
    ("store.raw_bytes", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.compression_ratio", "ratio"),
    ("store.read_entry_s", "s"),
    ("store.segments_verified", "count"),
    ("detect.s", "s"),
    ("detect.requests", "count"),
    ("detect.bytes_scanned", "bytes"),
    ("detect.leak_events", "count"),
    ("detect.hit_ratio", "ratio"),
    ("stream.peak_resident_bytes", "bytes"),
    ("tracking.analyze_s", "s"),
    ("analysis.table4_s", "s"),
    ("analysis.browsers_s", "s"),
    ("analysis.render_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// What one traced iteration measured.
#[derive(Debug, Default)]
pub struct Trace {
    /// Disjoint slices of the iteration's wall time, by metric name.
    times: BTreeMap<&'static str, Duration>,
    /// Counts, ratios and inclusive times (which overlap the slices).
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Run `f` and attribute its wall time to `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Attribute a slice measured elsewhere (inside a callback) to `name`.
    pub fn add(&mut self, name: &'static str, slice: Duration) {
        *self.times.entry(name).or_default() += slice;
    }

    /// Record a value that is not a slice of the wall time.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// `part / whole`, recorded as 0 when `whole` is 0.
    pub fn ratio(&mut self, name: &'static str, part: f64, whole: f64) {
        self.set(name, if whole > 0.0 { part / whole } else { 0.0 });
    }

    /// Every per-layer metric for an iteration of `wall` seconds. Names the
    /// iteration did not touch read 0; `trace.overhead_s` is filled in by
    /// the caller, which knows the untimed median.
    pub fn metrics(&self, wall: Duration) -> BTreeMap<&'static str, f64> {
        let attributed: Duration = self.times.values().sum();
        let mut out: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
        for (&name, slice) in &self.times {
            out.insert(name, slice.as_secs_f64());
        }
        out.extend(self.values.iter().map(|(&name, &v)| (name, v)));
        out.insert(
            "trace.unattributed_s",
            wall.as_secs_f64() - attributed.as_secs_f64(),
        );
        out.insert(
            "trace.coverage",
            attributed.as_secs_f64() / wall.as_secs_f64(),
        );
        out
    }
}
