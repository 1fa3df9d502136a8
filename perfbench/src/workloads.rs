//! The three workloads: their inputs, the untimed path a user runs, the
//! traced rebuild from public layer calls, and the correctness checks.
//!
//! The untimed path calls only `Study` and the analysis pass functions the
//! `full` subcommand calls, with `Study.workers = 1` as the only thread
//! setting. The traced rebuild composes the same layers the way `Study`
//! does, timing each call, and must produce the same output.

use crate::trace::Trace;
use pii_suite::analysis::degradation::{self, DegradationBuilder};
use pii_suite::analysis::streaming::{StreamStats, STREAM_BATCH};
use pii_suite::analysis::{browsers, table4, Study, StudyResults};
use pii_suite::core::detect::{DetectionReport, LeakDetector};
use pii_suite::core::tracking::analyze;
use pii_suite::crawler::{CrawlDataset, Crawler, FunnelStats};
use pii_suite::dns::PublicSuffixList;
use pii_suite::net::cache::CacheStrategy;
use pii_suite::net::fault::FaultProfile;
use pii_suite::store::{ArchiveMeta, ArchiveReader, ArchiveWriter, SkippedSegment, StoreSummary};
use pii_suite::telemetry;
use pii_suite::web::tracker::{detector_domain, ProviderClass};
use pii_suite::web::{Universe, UniverseSpec};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::Hasher;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `full` at the paper's scale: materialized study, Table 4, the
    /// six-browser re-crawl and rendering with comparisons.
    Paper1x,
    /// `Study::crawl_to_archive` at 10x under faults, with a warm-cache
    /// revisit of every site.
    Capture10x,
    /// Streaming replay of a faultless 10x archive built in set-up.
    Replay10x,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper1x, Workload::Capture10x, Workload::Replay10x];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper1x => "paper-1x",
            Workload::Capture10x => "capture-10x",
            Workload::Replay10x => "replay-10x",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Universe scale factor the workload is named for.
    pub fn scale(self) -> usize {
        match self {
            Workload::Paper1x => 1,
            Workload::Capture10x | Workload::Replay10x => 10,
        }
    }
}

/// What one run of a workload left behind, before it is checked.
pub enum Run {
    /// A study and its rendered text (`paper-1x`, `replay-10x`).
    Study(Box<StudyResults>, String),
    /// The sealed archive's summary (`capture-10x`).
    Archive(std::io::Result<StoreSummary>),
}

/// A checked run: the digest of the output that must repeat across
/// iterations, and every check that failed.
pub struct Checked {
    pub digest: u64,
    pub problems: Vec<String>,
}

/// A 64-bit digest of output bytes. Outputs are compared by digest so that
/// no iteration holds a second copy of a multi-megabyte archive, which would
/// raise the heap the next iteration's peak RSS starts from.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(bytes);
    hasher.finish()
}

/// [`digest`] of a file's bytes, read in chunks.
fn file_digest(path: &Path) -> std::io::Result<u64> {
    let mut file = std::fs::File::open(path)?;
    let mut hasher = DefaultHasher::new();
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        match file.read(&mut chunk)? {
            0 => return Ok(hasher.finish()),
            n => hasher.write(&chunk[..n]),
        }
    }
}

/// One workload instance: its inputs and its scratch directory.
pub struct Bench {
    workload: Workload,
    seed: u64,
    scale: usize,
    dir: PathBuf,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64, scale: usize, dir: &Path) -> Bench {
        Bench {
            workload,
            seed,
            scale,
            dir: dir.to_path_buf(),
        }
    }

    /// The archive the workload writes (`capture-10x`, and `paper-1x`'s
    /// size probe) or replays (`replay-10x`).
    pub fn archive(&self) -> PathBuf {
        self.dir.join("study.store")
    }

    /// The workload's study, configured as the CLI would configure it, with
    /// one worker.
    fn study(&self) -> Study {
        let mut study = Study::paper();
        study.spec = UniverseSpec {
            seed: self.seed,
            ..UniverseSpec::default()
        }
        .scaled(self.scale);
        study.workers = 1;
        if self.workload == Workload::Capture10x {
            study.faults = FaultProfile::PaperMay2021;
            study.cache = Some(CacheStrategy::CacheFirst);
            study.repeat = 2;
        }
        study
    }

    /// A replay of the workload's archive, with one worker.
    fn replay_study(&self) -> Study {
        let mut study = Study::from_archive(self.archive());
        study.workers = 1;
        study
    }

    /// One-off work before the first iteration: `replay-10x`'s faultless
    /// cold archive.
    pub fn setup(&self) -> std::io::Result<()> {
        if self.workload == Workload::Replay10x {
            self.study().crawl_to_archive(&self.archive())?;
        }
        Ok(())
    }

    /// The untimed path: one iteration as a user of the library runs it.
    pub fn run(&self) -> Run {
        match self.workload {
            Workload::Paper1x => {
                let r = self.study().run();
                let text = render_full(&r, &mut Trace::default());
                Run::Study(Box::new(r), text)
            }
            Workload::Capture10x => Run::Archive(
                self.study()
                    .crawl_to_archive(&self.archive())
                    .map(|(summary, _)| summary),
            ),
            Workload::Replay10x => {
                let r = self.replay_study().run_streaming();
                let text = r.render_all();
                Run::Study(Box::new(r), text)
            }
        }
    }

    /// The traced rebuild of [`Bench::run`], timing each layer call.
    pub fn run_traced(&self, trace: &mut Trace) -> Run {
        match self.workload {
            Workload::Paper1x => {
                let r = self.traced_study(trace);
                let text = render_full(&r, trace);
                Run::Study(Box::new(r), text)
            }
            Workload::Capture10x => Run::Archive(self.traced_capture(trace)),
            Workload::Replay10x => {
                let r = self.traced_replay(trace);
                let text = trace.span("analysis.render_s", || r.render_all());
                Run::Study(Box::new(r), text)
            }
        }
    }

    /// Check one run: the digest of its output and every failed check.
    pub fn check(&self, run: Run) -> Checked {
        match run {
            Run::Study(r, text) => {
                let problems = match self.workload {
                    Workload::Replay10x => clean_replay_problems(&r),
                    _ => ground_truth_problems(&r),
                };
                Checked {
                    digest: digest(text.as_bytes()),
                    problems,
                }
            }
            Run::Archive(Err(e)) => Checked {
                digest: digest(&[]),
                problems: vec![format!("capture failed: {e}")],
            },
            Run::Archive(Ok(_)) => {
                let mut problems = Vec::new();
                let digest = file_digest(&self.archive()).unwrap_or_else(|e| {
                    problems.push(format!("archive unreadable: {e}"));
                    digest(&[])
                });
                Checked { digest, problems }
            }
        }
    }

    /// [`Bench::check`] for the cold iteration, plus the checks whose
    /// result later iterations inherit through the digest:
    /// - `capture-10x`: the archive's `pii_store::verify`. Verification is
    ///   a function of the archive's bytes alone, so a later archive with
    ///   the cold one's digest verifies clean too; running it once keeps
    ///   its allocations out of the heap that later iterations' peak RSS
    ///   starts from.
    /// - `replay-10x`: the universe's truth, as `paper-1x` checks it on
    ///   every iteration. The fixture is faultless, so the replayed
    ///   detection must find exactly the configured graph at 10x too.
    pub fn check_cold(&self, run: Run) -> Checked {
        let truth = match (&run, self.workload) {
            (Run::Study(r, _), Workload::Replay10x) => ground_truth_problems(r),
            _ => Vec::new(),
        };
        let mut checked = self.check(run);
        checked.problems.extend(truth);
        if self.workload == Workload::Capture10x {
            match pii_suite::store::verify(&self.archive()) {
                Ok(report) if report.is_clean() => {}
                Ok(report) => checked
                    .problems
                    .push(format!("archive not clean: {}", report.render())),
                Err(e) => checked.problems.push(format!("archive unverifiable: {e}")),
            }
        }
        checked
    }

    /// The once-per-run check, outside the timed window, given the output
    /// of the reference (cold) iteration. Also returns `archive_mb`.
    pub fn check_once(&self, reference: u64) -> (Vec<String>, f64) {
        let mut problems = Vec::new();
        match self.workload {
            // The capture `paper-1x` would persist, sized but not replayed.
            Workload::Paper1x => {
                if let Err(e) = self.study().crawl_to_archive(&self.archive()) {
                    problems.push(format!("archiving the 1x capture failed: {e}"));
                }
            }
            Workload::Capture10x => {
                let live = self.study().run().render_all();
                let replayed = self.replay_study().run().render_all();
                if live != replayed {
                    problems.push("materialized replay differs from the live study".into());
                }
            }
            Workload::Replay10x => {
                let materialized = self.replay_study().run().render_all();
                if digest(materialized.as_bytes()) != reference {
                    problems.push("streamed render differs from the materialized study".into());
                }
            }
        }
        let bytes = std::fs::metadata(self.archive()).map_or(0, |m| m.len());
        (problems, bytes as f64 / 1e6)
    }

    /// `Study::run`'s live branch, rebuilt (`paper-1x`).
    fn traced_study(&self, trace: &mut Trace) -> StudyResults {
        let study = self.study();
        let universe = trace.span("web.generate_s", || {
            Universe::generate_with(study.spec.clone())
        });
        let crawler = crawler_for(&study, &universe);
        telemetry::reset();
        let start = Instant::now();
        let dataset = crawler.run(study.capture_browser);
        let crawl = start.elapsed();
        trace.add("crawler.busy_s", crawl);
        trace.set("crawler.crawl_s", crawl.as_secs_f64());
        crawl_counters(trace, &telemetry::snapshot());
        let tokens = trace.span("tokens.build_s", || study.tokens.build(&universe.persona));
        trace.set("tokens.count", tokens.len() as f64);
        telemetry::reset();
        let (psl, report) = trace.span("detect.s", || {
            let psl = PublicSuffixList::embedded();
            let report = LeakDetector::new(&tokens, &psl, &universe.zones)
                .detect_parallel(&dataset, study.workers);
            (psl, report)
        });
        detect_counters(trace, &report);
        let (tracking, degradation, funnel) = trace.span("tracking.analyze_s", || {
            (
                analyze(&report),
                degradation::compute(&dataset, study.faults),
                dataset.funnel(),
            )
        });
        StudyResults {
            universe,
            psl,
            dataset,
            funnel,
            tokens,
            report,
            tracking,
            degradation,
            stream: None,
        }
    }

    /// `Study::crawl_to_archive`, rebuilt (`capture-10x`).
    fn traced_capture(&self, trace: &mut Trace) -> std::io::Result<StoreSummary> {
        let study = self.study();
        let universe = trace.span("web.generate_s", || {
            Universe::generate_with(study.spec.clone())
        });
        let meta = ArchiveMeta {
            spec: universe.spec.clone(),
            browser: study.capture_browser,
            faults: study.faults,
        };
        let crawler = crawler_for(&study, &universe);
        let writer = Mutex::new(ArchiveWriter::create(&self.archive(), &meta)?);
        let write_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let append_ns = AtomicU64::new(0);
        telemetry::reset();
        let start = Instant::now();
        crawler.run_streaming(study.capture_browser, &|index, crawl| {
            let start = Instant::now();
            let mut w = writer.lock().expect("archive writer lock poisoned");
            if let Err(e) = w.append_site(index, crawl) {
                write_error
                    .lock()
                    .expect("write error lock poisoned")
                    .get_or_insert(e);
            }
            append_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        let crawl = start.elapsed();
        let append = Duration::from_nanos(append_ns.into_inner());
        trace.add("crawler.busy_s", crawl.saturating_sub(append));
        trace.add("store.append_s", append);
        trace.set("crawler.crawl_s", crawl.as_secs_f64());
        crawl_counters(trace, &telemetry::snapshot());
        if let Some(e) = write_error.into_inner().expect("write error lock poisoned") {
            return Err(e);
        }
        let writer = writer.into_inner().expect("archive writer lock poisoned");
        let summary = trace.span("store.finish_s", || writer.finish())?;
        trace.set("store.raw_bytes", summary.raw_bytes as f64);
        trace.set("store.bytes_written", summary.bytes_written as f64);
        trace.set("store.compression_ratio", summary.compression_ratio());
        Ok(summary)
    }

    /// `Study::run_streaming` over an archive, rebuilt (`replay-10x`): the
    /// batch fold of `analysis::streaming::replay` with one worker.
    fn traced_replay(&self, trace: &mut Trace) -> StudyResults {
        let path = self.archive();
        let reader = ArchiveReader::open(&path)
            .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display()));
        let meta = reader.meta().clone();
        let study = self.replay_study();
        let universe = trace.span("web.generate_s", || {
            Universe::generate_with(meta.spec.clone())
        });
        let tokens = trace.span("tokens.build_s", || study.tokens.build(&universe.persona));
        trace.set("tokens.count", tokens.len() as f64);
        let psl = PublicSuffixList::embedded();
        let detector = trace.span("detect.s", || {
            LeakDetector::new(&tokens, &psl, &universe.zones)
        });
        telemetry::reset();
        let entries = reader.entries();
        let mut funnel = FunnelStats::default();
        let mut builder = DegradationBuilder::default();
        let mut report = DetectionReport::default();
        let mut skipped: Vec<SkippedSegment> = reader.scan_damage().to_vec();
        let mut verified = 0usize;
        let mut stats = StreamStats {
            sites: entries.len(),
            batches: 0,
            peak_resident_bytes: 0,
        };
        let (mut read, mut detect) = (Duration::ZERO, Duration::ZERO);
        for batch in entries.chunks(STREAM_BATCH) {
            stats.batches += 1;
            let resident: u64 = batch.iter().map(|e| u64::from(e.segment_len)).sum();
            stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
            for entry in batch {
                let start = Instant::now();
                let crawl = reader.read_entry(entry);
                read += start.elapsed();
                match crawl {
                    Ok(crawl) => {
                        verified += 1;
                        let mut fragment = DetectionReport::default();
                        if crawl.outcome.completed() {
                            let start = Instant::now();
                            detector.detect_site(&crawl, &mut fragment);
                            detect += start.elapsed();
                        }
                        funnel.observe(&crawl.outcome);
                        builder.observe(&crawl);
                        report.merge(fragment);
                    }
                    Err(e) => {
                        skipped.push(SkippedSegment {
                            label: Some(entry.label.clone()),
                            offset: entry.offset,
                            records: entry.records,
                            reason: e.to_string(),
                        });
                        let placeholder = ArchiveReader::quarantine_placeholder(entry, &e);
                        funnel.observe(&placeholder.outcome);
                        builder.observe(&placeholder);
                    }
                }
            }
        }
        trace.add("store.read_entry_s", read);
        trace.add("detect.s", detect);
        trace.set("store.segments_verified", verified as f64);
        trace.set(
            "stream.peak_resident_bytes",
            stats.peak_resident_bytes as f64,
        );
        detect_counters(trace, &report);
        let (tracking, mut degradation) = trace.span("tracking.analyze_s", || {
            (analyze(&report), builder.finish(meta.faults, funnel))
        });
        report.skipped_records += skipped.iter().map(|s| s.records as usize).sum::<usize>();
        if !skipped.is_empty() {
            degradation.archive_segments = Some((verified, entries.len()));
            degradation.archive_skipped = skipped
                .iter()
                .map(|s| (s.describe(), s.reason.clone()))
                .collect();
        }
        StudyResults {
            dataset: CrawlDataset {
                browser: meta.browser,
                crawls: Vec::new(),
            },
            universe,
            psl,
            funnel,
            tokens,
            report,
            tracking,
            degradation,
            stream: Some(stats),
        }
    }
}

/// A crawler configured the way `Study` configures its own.
fn crawler_for<'u>(study: &Study, universe: &'u Universe) -> Crawler<'u> {
    let mut crawler = Crawler::new(universe);
    crawler.workers = study.workers;
    crawler.faults = universe.fault_plan(study.faults);
    crawler.retry = study.retry;
    crawler.watchdog_ms = study.watchdog_ms;
    crawler.cache = study.cache;
    crawler.repeat = study.repeat;
    crawler
}

/// The crawl layer's counts, from the program's own telemetry counters.
fn crawl_counters(trace: &mut Trace, snap: &telemetry::Snapshot) {
    let requests = snap.counter("browser.requests") as f64;
    let pages = snap.counter("browser.pages") as f64;
    let retries = snap.counter("crawler.retries") as f64;
    let hits = snap.counter("browser.cache.hits") as f64;
    trace.set("browser.requests", requests);
    trace.set("browser.pages", pages);
    trace.set("crawler.retries", retries);
    trace.set(
        "net.fault.observed",
        snap.counter("net.fault.observed") as f64,
    );
    trace.set("browser.cache.hits", hits);
    // Page attempts: loads that completed plus loads a fault aborted.
    let attempts = pages + snap.counter("browser.page_aborts") as f64;
    trace.ratio("crawler.retry_ratio", retries, attempts);
    trace.ratio("browser.cache.hit_ratio", hits, requests);
}

/// The detection layer's counts: the report's own, plus bytes scanned from
/// the program's telemetry.
fn detect_counters(trace: &mut Trace, report: &DetectionReport) {
    trace.set("detect.requests", report.total_requests as f64);
    trace.set(
        "detect.bytes_scanned",
        telemetry::snapshot().counter("detect.bytes_scanned") as f64,
    );
    trace.set("detect.leak_events", report.events.len() as f64);
    trace.ratio(
        "detect.hit_ratio",
        report.leaking_request_count() as f64,
        report.third_party_requests as f64,
    );
}

/// What the `full` subcommand prints after its study: tables 1–3 and
/// figure 2, Table 4 with the providers the lists miss, the §7.1 browser
/// table and the paper-comparison tally.
fn render_full(r: &StudyResults, trace: &mut Trace) -> String {
    let mut out = trace.span("analysis.render_s", || r.render_all());
    let (table4_text, missed, table4_comparisons) = trace.span("analysis.table4_s", || {
        (
            table4::table(r).render(),
            table4::missed_tracking_providers(r),
            table4::comparisons(r),
        )
    });
    let results = trace.span("analysis.browsers_s", || browsers::evaluate_all(r));
    trace.span("analysis.render_s", || {
        let _ = writeln!(out, "{table4_text}");
        let _ = writeln!(out, "providers missed by the combined lists: {missed:?}\n");
        let _ = writeln!(out, "{}", browsers::table(r, &results).render());
        let mut comparisons = r.comparisons();
        comparisons.extend(table4_comparisons);
        comparisons.extend(browsers::comparisons(r, &results));
        let matches = comparisons.iter().filter(|c| c.matches).count();
        let _ = writeln!(
            out,
            "{matches}/{} comparisons match the paper",
            comparisons.len()
        );
    });
    out
}

/// `paper-1x`: the detected sender→receiver graph and confirmed-tracker set
/// must equal the universe's configured truth for the seed.
fn ground_truth_problems(r: &StudyResults) -> Vec<String> {
    let truth: BTreeMap<&str, BTreeSet<String>> = r
        .universe
        .sender_sites()
        .map(|site| {
            let receivers = site
                .edges
                .iter()
                .map(|e| detector_domain(&e.receiver))
                .collect();
            (site.domain.as_str(), receivers)
        })
        .collect();
    let mut measured: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for e in &r.report.events {
        measured
            .entry(e.sender.as_str())
            .or_default()
            .insert(e.receiver_domain.clone());
    }
    let mut problems = Vec::new();
    if truth.keys().ne(measured.keys()) {
        problems.push("detected sender set differs from the universe's senders".into());
    }
    let union = |g: &BTreeMap<&str, BTreeSet<String>>| -> BTreeSet<String> {
        g.values().flatten().cloned().collect()
    };
    if union(&truth) != union(&measured) {
        problems.push("detected receiver set differs from the universe's receivers".into());
    } else if truth != measured {
        problems.push("detected sender→receiver edges differ from the universe's".into());
    }
    let configured: BTreeSet<&str> = r
        .universe
        .catalog
        .iter()
        .filter(|p| p.class == ProviderClass::PersistentTracker)
        .map(|p| p.domain)
        .collect();
    let confirmed: BTreeSet<&str> = r
        .tracking
        .confirmed()
        .iter()
        .map(|p| p.receiver_domain.as_str())
        .collect();
    if configured != confirmed {
        problems.push(format!(
            "confirmed trackers {confirmed:?} differ from the configured {configured:?}"
        ));
    }
    problems
}

/// `replay-10x`: the fixture was written cleanly, so every segment must
/// replay and every site must be accounted for.
fn clean_replay_problems(r: &StudyResults) -> Vec<String> {
    let mut problems = Vec::new();
    if !r.degradation.archive_skipped.is_empty() {
        problems.push(format!(
            "{} archive segments skipped",
            r.degradation.archive_skipped.len()
        ));
    }
    if r.funnel.total != r.universe.sites.len() {
        problems.push(format!(
            "replayed {} of {} sites",
            r.funnel.total,
            r.universe.sites.len()
        ));
    }
    problems
}
