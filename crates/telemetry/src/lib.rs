//! Deterministic telemetry for the crawl→detect→analysis pipeline.
//!
//! Large-scale measurement studies live or die on observability: the §3.2
//! funnel is only auditable if the crawler can say where time and work went.
//! This crate provides the substrate — span-based tracing plus
//! counters/gauges/histograms — with two properties the rest of the
//! workspace depends on:
//!
//! 1. **Strict pass-through when disabled.** Every recording entry point
//!    checks one atomic flag and returns; nothing is allocated, locked or
//!    timed, so a study run with telemetry off is byte-identical to a build
//!    without it (pinned by `tests/telemetry.rs`).
//! 2. **Deterministic metric values.** Counters, gauges and histograms
//!    record *work*, never wall time, so under a fixed seed their values
//!    reproduce across runs and worker counts — CI asserts on them. Spans
//!    additionally carry wall-clock intervals (for the Chrome trace-event
//!    export, [`trace`]) and, where the instrumented code runs against the
//!    crawler's `SimClock`, the virtual milliseconds they account for.
//!    The scheduling-dependent exceptions (per-worker site claims, DNS
//!    cache locality) are tagged by [`is_scheduling_dependent`].
//!
//! Instrumented code talks to one process-global [`Collector`] through the
//! free functions ([`counter`], [`gauge`], [`observe`], [`span`]), so deep
//! call sites (the fault model, the resolver cache) need no plumbing;
//! standalone [`Collector`] instances exist for unit tests. Exporters:
//! [`trace::chrome_trace_json`] (Perfetto / `chrome://tracing`) and
//! [`report::render`] (the human-readable `--metrics` run report).

#![forbid(unsafe_code)]

pub mod report;
pub mod trace;

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Aggregated distribution of observed values (sizes, virtual delays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

impl Histogram {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One finished span: a named region of work on one thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub name: String,
    /// Wall-clock start in microseconds since the collector's epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Dense per-process thread id (assignment order, not the OS tid).
    pub tid: u64,
    /// Virtual milliseconds attributed by the instrumented code (the
    /// crawler's `SimClock`), when it runs against one.
    pub virtual_ms: Option<u64>,
    /// Free-form string annotations (site domain, page path, …).
    pub args: Vec<(String, String)>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
}

/// A point-in-time copy of everything a collector has recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, Histogram>,
    pub spans: Vec<SpanRecord>,
}

impl Snapshot {
    /// A counter's value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The counters whose values are a pure function of the seed — the
    /// subset CI may assert on across runs and worker counts.
    pub fn deterministic_counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, _)| !is_scheduling_dependent(name))
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }
}

/// True for metrics whose values depend on the worker pool rather than on
/// the seed: which worker claims which site (work-stealing) and, downstream
/// of that, the per-worker DNS cache's behaviour (each worker's resolver
/// cache persists across the sites it happens to crawl, so hits — and
/// first-touch alias discoveries — follow the assignment, not the seed).
/// `study.workers` is the pool size itself, echoed as a gauge.
pub fn is_scheduling_dependent(name: &str) -> bool {
    name == "dns.cache_hits"
        || name == "dns.aliased"
        || name == "study.workers"
        || name.starts_with("crawler.worker.")
}

/// Thread-safe telemetry sink. One process-global instance serves the
/// instrumented pipeline (see [`global`]); standalone instances are for
/// tests.
pub struct Collector {
    enabled: AtomicBool,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector::new()
    }
}

impl Collector {
    /// A new, disabled collector.
    pub fn new() -> Collector {
        Collector {
            enabled: AtomicBool::new(false),
            // The single allowlisted wall-clock read in the workspace:
            // every span timestamp is derived from this epoch handle
            // (`epoch.elapsed()`), so telemetry wall time exists only
            // relative to collector creation and never leaks into the
            // deterministic pipeline.
            epoch: Instant::now(), // lint:allow(W01) -- the telemetry epoch IS the wall-clock boundary; spans measure offsets from it
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Drop everything recorded so far (keeps the enabled flag).
    pub fn reset(&self) {
        *self.inner.lock() = Inner::default();
    }

    /// Add `delta` to a monotone counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if !self.is_enabled() {
            return;
        }
        update(&mut self.inner.lock().counters, name, |n| *n += delta);
    }

    /// Set a gauge to its latest value.
    pub fn gauge(&self, name: &str, value: i64) {
        if !self.is_enabled() {
            return;
        }
        update(&mut self.inner.lock().gauges, name, |g| *g = value);
    }

    /// Record one observation into a histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if !self.is_enabled() {
            return;
        }
        update(&mut self.inner.lock().histograms, name, |h| h.record(value));
    }

    /// Open a span; it records itself on drop. Inert when disabled — no
    /// clock read, no allocation.
    pub fn span(&self, name: &str) -> Span<'_> {
        if !self.is_enabled() {
            return Span {
                collector: None,
                name: String::new(),
                start: None,
                virtual_ms: None,
                args: Vec::new(),
            };
        }
        Span {
            collector: Some(self),
            name: name.to_string(),
            // Routed through the epoch handle rather than a second raw
            // `Instant::now()`: the span's start is *defined* as an offset
            // from the collector's epoch, which keeps the epoch the only
            // wall-clock read in the workspace.
            start: Some(self.epoch.elapsed()),
            virtual_ms: None,
            args: Vec::new(),
        }
    }

    /// Record an externally-built span (used by exporter tests).
    pub fn record_span(&self, span: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        self.inner.lock().spans.push(span);
    }

    /// Copy out everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        Snapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans.clone(),
        }
    }
}

/// Apply `f` to the metric named `name`, created at its default the first
/// time the name is seen. The lookup borrows `name`, so only that first
/// call allocates a key.
fn update<V: Default>(metrics: &mut BTreeMap<String, V>, name: &str, f: impl FnOnce(&mut V)) {
    match metrics.get_mut(name) {
        Some(metric) => f(metric),
        None => f(metrics.entry(name.to_string()).or_default()),
    }
}

/// RAII span guard handed out by [`Collector::span`] / [`span`]. An
/// inactive guard (disabled collector) ignores every method.
pub struct Span<'c> {
    collector: Option<&'c Collector>,
    name: String,
    /// Start time as an offset from the collector's epoch (the one
    /// allowlisted wall-clock read); `None` when the collector is off.
    start: Option<Duration>,
    virtual_ms: Option<u64>,
    args: Vec<(String, String)>,
}

impl Span<'_> {
    /// Attach a key/value annotation (shows up under `args` in the trace).
    pub fn add_arg(&mut self, key: &str, value: &str) {
        if self.collector.is_some() {
            self.args.push((key.to_string(), value.to_string()));
        }
    }

    /// Attribute virtual (SimClock) milliseconds to this span.
    pub fn set_virtual_ms(&mut self, ms: u64) {
        if self.collector.is_some() {
            self.virtual_ms = Some(ms);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(collector) = self.collector else {
            return;
        };
        let Some(start) = self.start else { return };
        let end = collector.epoch.elapsed();
        let start_us = start.as_micros().min(u64::MAX as u128) as u64;
        let dur_us = end.saturating_sub(start).as_micros().min(u64::MAX as u128) as u64;
        collector.inner.lock().spans.push(SpanRecord {
            name: std::mem::take(&mut self.name),
            start_us,
            dur_us,
            tid: current_tid(),
            virtual_ms: self.virtual_ms,
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Dense per-process thread id: threads are numbered in the order they
/// first record a span. (`std::thread::ThreadId` has no stable integer
/// accessor.)
fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

static GLOBAL: OnceLock<Collector> = OnceLock::new();

/// The process-global collector the instrumented pipeline records into.
pub fn global() -> &'static Collector {
    GLOBAL.get_or_init(Collector::new)
}

/// Is the global collector enabled? The fast path every instrumentation
/// site takes when telemetry is off: one atomic load, nothing else.
pub fn enabled() -> bool {
    GLOBAL.get().is_some_and(Collector::is_enabled)
}

/// Enable the global collector (`--metrics` / `--trace`).
pub fn enable() {
    global().enable();
}

/// Disable the global collector.
pub fn disable() {
    if let Some(c) = GLOBAL.get() {
        c.disable();
    }
}

/// Drop everything the global collector recorded.
pub fn reset() {
    if let Some(c) = GLOBAL.get() {
        c.reset();
    }
}

/// Add `delta` to a global counter. No-op (one atomic load) when disabled.
pub fn counter(name: &str, delta: u64) {
    if let Some(c) = GLOBAL.get() {
        c.counter(name, delta);
    }
}

/// Set a global gauge.
pub fn gauge(name: &str, value: i64) {
    if let Some(c) = GLOBAL.get() {
        c.gauge(name, value);
    }
}

/// Record one observation into a global histogram.
pub fn observe(name: &str, value: u64) {
    if let Some(c) = GLOBAL.get() {
        c.observe(name, value);
    }
}

/// Open a span on the global collector. Inert when disabled.
pub fn span(name: &str) -> Span<'static> {
    match GLOBAL.get() {
        Some(c) => c.span(name),
        None => Span {
            collector: None,
            name: String::new(),
            start: None,
            virtual_ms: None,
            args: Vec::new(),
        },
    }
}

/// Snapshot of the global collector.
pub fn snapshot() -> Snapshot {
    match GLOBAL.get() {
        Some(c) => c.snapshot(),
        None => Snapshot::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Collector::new();
        c.counter("a", 1);
        c.gauge("g", 7);
        c.observe("h", 3);
        {
            let mut s = c.span("region");
            s.add_arg("k", "v");
            s.set_virtual_ms(10);
        }
        let snap = c.snapshot();
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let c = Collector::new();
        c.enable();
        c.counter("req", 2);
        c.counter("req", 3);
        c.gauge("sites", 404);
        c.gauge("sites", 405);
        for v in [10, 2, 6] {
            c.observe("delay", v);
        }
        let snap = c.snapshot();
        assert_eq!(snap.counter("req"), 5);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauges["sites"], 405);
        let h = snap.histograms["delay"];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 18, 2, 10));
        assert!((h.mean() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_names_update_one_entry() {
        let c = Collector::new();
        c.enable();
        for i in 0..1000 {
            c.counter("req", 1);
            c.gauge("depth", i);
            c.observe("size", 2);
        }
        c.counter("other", 5);
        let snap = c.snapshot();
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.counter("req"), 1000);
        assert_eq!(snap.counter("other"), 5);
        assert_eq!(snap.gauges.len(), 1);
        assert_eq!(snap.gauges["depth"], 999);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms["size"].count, 1000);
        assert_eq!(snap.histograms["size"].sum, 2000);
    }

    #[test]
    fn spans_record_on_drop_with_args_and_virtual_time() {
        let c = Collector::new();
        c.enable();
        {
            let mut s = c.span("crawl.site");
            s.add_arg("domain", "shop.example");
            s.set_virtual_ms(750);
        }
        let snap = c.snapshot();
        assert_eq!(snap.spans.len(), 1);
        let span = &snap.spans[0];
        assert_eq!(span.name, "crawl.site");
        assert_eq!(span.virtual_ms, Some(750));
        assert_eq!(span.args, vec![("domain".into(), "shop.example".into())]);
        assert!(span.tid >= 1);
    }

    #[test]
    fn reset_clears_data_but_keeps_enablement() {
        let c = Collector::new();
        c.enable();
        c.counter("x", 1);
        c.reset();
        assert!(c.is_enabled());
        assert_eq!(c.snapshot(), Snapshot::default());
        c.counter("x", 1);
        assert_eq!(c.snapshot().counter("x"), 1);
    }

    #[test]
    fn deterministic_counter_subset_excludes_scheduling_artifacts() {
        let c = Collector::new();
        c.enable();
        c.counter("detect.leaks", 9);
        c.counter("dns.queries", 100);
        c.counter("dns.cache_hits", 37);
        c.counter("crawler.worker.3.sites", 51);
        let det = c.snapshot().deterministic_counters();
        assert!(det.contains_key("detect.leaks"));
        assert!(det.contains_key("dns.queries"));
        assert!(!det.contains_key("dns.cache_hits"));
        assert!(!det.contains_key("crawler.worker.3.sites"));
    }

    #[test]
    fn collector_is_thread_safe() {
        let c = Collector::new();
        c.enable();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        c.counter("hits", 1);
                        c.observe("size", 8);
                        let _s = c.span("work");
                    }
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.counter("hits"), 400);
        assert_eq!(snap.histograms["size"].count, 400);
        assert_eq!(snap.spans.len(), 400);
        let tids: std::collections::BTreeSet<u64> = snap.spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4, "each thread gets its own dense tid");
    }

    #[test]
    fn global_is_inert_until_enabled() {
        // Note: this test relies on running before anything enables the
        // global collector in this process; the lib tests never do.
        counter("never", 1);
        assert_eq!(snapshot().counter("never"), 0);
    }
}
