//! One-call orchestration of the full measurement study.
//!
//! ```no_run
//! use pii_analysis::Study;
//! let results = Study::paper().run();
//! println!("{}", results.render_all());
//! ```

use crate::degradation::CaptureConfig;
use crate::streaming::StudyFold;
use pii_browser::profiles::BrowserKind;
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_core::tokens::{TokenSet, TokenSetBuilder};
use pii_core::tracking::{analyze, TrackingAnalysis};
use pii_crawler::{CrawlDataset, CrawlOutcome, CrawlSummary, Crawler, FunnelStats, RetryPolicy};
use pii_dns::PublicSuffixList;
use pii_net::cache::CacheStrategy;
use pii_net::fault::FaultProfile;
use pii_store::{ArchiveMeta, ArchiveReader, ArchiveWriter, FailPoint, StoreSummary};
use pii_web::{Universe, UniverseSpec};
use std::path::{Path, PathBuf};

/// Where the study's capture comes from: a live crawl of the simulated
/// universe, or a `.store` archive written by an earlier crawl. Detection
/// and every downstream analysis are source-agnostic — both sources feed
/// the same canonical-order fold ([`crate::streaming`]).
#[derive(Debug, Clone, Default)]
pub enum CaptureSource {
    /// Crawl the universe now (the original pipeline).
    #[default]
    Live,
    /// Replay a persisted capture; the universe is regenerated from the
    /// archive's recorded spec (a pure function of the seed), so only the
    /// crawl itself is skipped.
    Archive(PathBuf),
}

/// Study configuration.
#[derive(Clone)]
pub struct Study {
    pub spec: UniverseSpec,
    pub tokens: TokenSetBuilder,
    pub capture_browser: BrowserKind,
    /// Worker threads for the crawl and detection shards. Results are merged
    /// in canonical site order, so any value yields byte-identical output.
    pub workers: usize,
    /// Transport fault profile. `None` injects nothing and leaves the
    /// pipeline byte-identical to a faultless run; any other profile routes
    /// the crawl through the retrying, self-healing path so the §3.2 funnel
    /// is measured from observed failures.
    pub faults: FaultProfile,
    /// Retry policy for the fault-injected crawl (ignored under `None`).
    pub retry: RetryPolicy,
    /// Capture source. Under [`CaptureSource::Archive`] the `spec`,
    /// `capture_browser` and `faults` fields are overridden by the
    /// archive's recorded meta — the archive *is* the capture.
    pub source: CaptureSource,
    /// Per-site virtual-time deadline for live crawls (CLI
    /// `--watchdog-ms`); see [`Crawler::watchdog_ms`]. `None` disables it.
    pub watchdog_ms: Option<u64>,
    /// HTTP cache strategy for the crawl's browsers (CLI `--cache`).
    /// `None` disables the cache, preserving the historical capture.
    pub cache: Option<CacheStrategy>,
    /// Visits per site (CLI `--repeat`). Values above 1 replay the revisit
    /// pages against warm caches, so the degradation report can compare
    /// suppressed vs. fired requests.
    pub repeat: u32,
}

/// The capture a study folds: the archive it replays, opened (`None` for a
/// live crawl), and the capture's universe spec, browser and fault profile.
struct Capture {
    reader: Option<ArchiveReader>,
    spec: UniverseSpec,
    browser: BrowserKind,
    faults: FaultProfile,
}

impl Study {
    /// The paper's configuration: default universe, Firefox 88 capture,
    /// one crawl/detect worker per available core (capped at 8).
    pub fn paper() -> Study {
        Study {
            spec: UniverseSpec::default(),
            tokens: TokenSetBuilder::default(),
            capture_browser: BrowserKind::Firefox88Vanilla,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            faults: FaultProfile::None,
            retry: RetryPolicy::default(),
            source: CaptureSource::Live,
            watchdog_ms: None,
            cache: None,
            repeat: 1,
        }
    }

    /// Paper configuration with an explicit worker-pool size.
    pub fn with_workers(workers: usize) -> Study {
        Study {
            workers: workers.max(1),
            ..Study::paper()
        }
    }

    /// Paper configuration under a transport fault profile.
    pub fn with_faults(profile: FaultProfile) -> Study {
        Study {
            faults: profile,
            ..Study::paper()
        }
    }

    /// Paper configuration replaying a persisted capture instead of
    /// crawling; spec/browser/faults come from the archive's meta.
    pub fn from_archive(path: impl Into<PathBuf>) -> Study {
        Study {
            source: CaptureSource::Archive(path.into()),
            ..Study::paper()
        }
    }

    /// Run §3 (crawl) + §4.1 (detection) + §5.2 (tracking analysis),
    /// keeping the capture as [`StudyResults::dataset`].
    ///
    /// # Panics
    ///
    /// Under [`CaptureSource::Archive`], panics when the archive cannot be
    /// opened at all (missing file, foreign bytes, unreadable meta). Damage
    /// *inside* an archive never panics — damaged segments are skipped and
    /// reported through the degradation section.
    pub fn run(self) -> StudyResults {
        self.fold(true)
    }

    /// [`Study::run`] in streaming, constant-memory mode: each site is
    /// dropped as soon as it is folded, so no [`CrawlDataset`] is ever
    /// materialized. Output is byte-identical to [`Study::run`] — same
    /// tables, same degradation, same counters — for any worker count; only
    /// `StudyResults::dataset` differs (it stays empty, because not holding
    /// it is the point). An archive is replayed in batches sized by
    /// [`crate::streaming::STREAM_BATCH`]; a live crawl is folded as its
    /// sites complete.
    ///
    /// # Panics
    ///
    /// As [`Study::run`]: only when the archive cannot be opened at all.
    pub fn run_streaming(self) -> StudyResults {
        self.fold(false)
    }

    /// The one study pipeline behind [`Study::run`] and
    /// [`Study::run_streaming`]: every site of the capture source, in
    /// canonical order, through one [`StudyFold`]. `keep_crawls` is the only
    /// difference between the two.
    fn fold(self, keep_crawls: bool) -> StudyResults {
        let workers = self.workers.max(1);
        let Capture {
            reader,
            spec,
            browser,
            faults,
        } = self.capture();
        let universe = {
            let _span = pii_telemetry::span("study.generate");
            Universe::generate_with(spec)
        };
        pii_telemetry::gauge("study.sites", universe.sites.len() as i64);
        pii_telemetry::gauge("study.workers", workers as i64);
        let psl = PublicSuffixList::embedded();
        let tokens = {
            let _span = pii_telemetry::span("study.tokens");
            self.tokens.build(&universe.persona)
        };
        pii_telemetry::gauge("study.tokens", tokens.len() as i64);
        let mut fold = StudyFold::new(keep_crawls);
        let (replay, stream) = {
            let detector = LeakDetector::new(&tokens, &psl, &universe.zones);
            match &reader {
                Some(reader) => {
                    let (replay, stats) =
                        crate::streaming::replay(reader, &detector, workers, &mut fold);
                    (Some(replay), Some(stats))
                }
                None => {
                    let mut span = pii_telemetry::span("study.crawl");
                    span.add_arg("browser", browser.name());
                    let crawler = self.crawler(&universe);
                    crate::streaming::crawl(
                        &crawler,
                        browser.profile(),
                        None,
                        &detector,
                        &mut fold,
                    );
                    (None, None)
                }
            }
        };
        let StudyFold {
            funnel,
            degradation,
            mut report,
            crawls,
            ..
        } = fold;
        pii_telemetry::gauge("study.leak_events", report.events.len() as i64);
        let (tracking, mut degradation) = {
            let _span = pii_telemetry::span("study.analyze");
            (analyze(&report), degradation.finish(faults, funnel))
        };
        degradation.capture = CaptureConfig {
            replayed: reader.is_some(),
            cache: self.cache,
            repeat: self.repeat,
            workers,
        };
        if let Some(replay) = replay {
            // Records lost to archive damage are accounted for exactly like
            // records lost to a panicking detect worker; a clean replay adds
            // nothing, keeping its output byte-identical to a live run.
            report.skipped_records += replay.skipped_records();
            if !replay.skipped.is_empty() {
                degradation.archive_segments =
                    Some((replay.segments_verified, replay.segments_total));
                degradation.archive_skipped = replay
                    .skipped
                    .iter()
                    .map(|s| (s.describe(), s.reason.clone()))
                    .collect();
            }
        }
        StudyResults {
            universe,
            psl,
            dataset: CrawlDataset {
                browser,
                crawls: crawls.unwrap_or_default(),
            },
            funnel,
            tokens,
            report,
            tracking,
            degradation,
            stream: stream.filter(|_| !keep_crawls),
        }
    }

    /// The universe the study measures, generated without crawling or
    /// replaying anything: from `spec`, or under
    /// [`CaptureSource::Archive`] from the archive's recorded spec.
    ///
    /// # Panics
    ///
    /// As [`Study::run`]: only when the archive cannot be opened at all.
    pub fn universe(&self) -> Universe {
        Universe::generate_with(self.capture().spec)
    }

    /// The capture this study folds. An archive's recorded meta is its
    /// capture's configuration; a live crawl takes this study's own.
    fn capture(&self) -> Capture {
        let reader = match &self.source {
            CaptureSource::Live => None,
            // Documented `# Panics` contract on `run`: an archive that
            // cannot be opened at all has no degraded flow to fall back to.
            CaptureSource::Archive(path) => Some(
                ArchiveReader::open(path)
                    // lint:allow(W04) -- see the `# Panics` contract on `run`
                    .unwrap_or_else(|e| panic!("cannot replay {}: {e}", path.display())),
            ),
        };
        let (spec, browser, faults) = match &reader {
            Some(reader) => {
                let meta = reader.meta();
                (meta.spec.clone(), meta.browser, meta.faults)
            }
            None => (self.spec.clone(), self.capture_browser, self.faults),
        };
        Capture {
            reader,
            spec,
            browser,
            faults,
        }
    }

    /// A crawler over `universe` configured from this study.
    fn crawler<'u>(&self, universe: &'u Universe) -> Crawler<'u> {
        let mut crawler = Crawler::new(universe);
        crawler.workers = self.workers.max(1);
        crawler.faults = universe.fault_plan(self.faults);
        crawler.retry = self.retry;
        crawler.watchdog_ms = self.watchdog_ms;
        crawler.cache = self.cache;
        crawler.repeat = self.repeat;
        crawler
    }

    /// Run only §3 (the crawl), streaming each site's capture into the
    /// archive at `path` as its shard completes — and dropping it once
    /// written, so the crawl is constant-memory in the site count. Returns
    /// the sealed archive's summary plus the funnel accounting (for the
    /// `crawl` subcommand's printout); replay the archive later with
    /// [`Study::from_archive`].
    pub fn crawl_to_archive(self, path: &Path) -> std::io::Result<(StoreSummary, CrawlSummary)> {
        self.crawl_to_archive_with(path, false, None)
    }

    /// [`Study::crawl_to_archive`] with crash-recovery controls (CLI
    /// `crawl --out X --resume [--kill <point>]`).
    ///
    /// With `resume`, a partial archive at `path` is reopened via
    /// [`ArchiveWriter::open_append`]: its torn tail is truncated, every
    /// committed site is kept, and only the sites that are missing — or
    /// whose kept outcome is `Quarantined` (a crashed worker's placeholder
    /// is worth one more try) — are recrawled, through the same pool core
    /// as a full crawl. The returned funnel folds the kept outcomes
    /// together with the recrawled ones, so it matches an uninterrupted
    /// run's funnel exactly. Without `resume`, any existing file is
    /// replaced (`ArchiveWriter::create`) and the full universe is
    /// crawled.
    ///
    /// `kill` arms a deterministic [`FailPoint`] on the writer: the crawl
    /// runs until the archive hits that point, then every append fails and
    /// this returns the kill error with the torn file left on disk —
    /// exactly what a process death at that byte would leave.
    pub fn crawl_to_archive_with(
        self,
        path: &Path,
        resume: bool,
        kill: Option<FailPoint>,
    ) -> std::io::Result<(StoreSummary, CrawlSummary)> {
        let universe = {
            let _span = pii_telemetry::span("study.generate");
            Universe::generate_with(self.spec.clone())
        };
        pii_telemetry::gauge("study.sites", universe.sites.len() as i64);
        pii_telemetry::gauge("study.workers", self.workers.max(1) as i64);
        let meta = ArchiveMeta {
            spec: universe.spec.clone(),
            browser: self.capture_browser,
            faults: self.faults,
        };
        let crawler = self.crawler(&universe);
        let (writer, kept) = if resume {
            let (writer, state) = ArchiveWriter::open_append_with_failpoint(path, &meta, kill)?;
            (writer, state.kept)
        } else {
            (
                ArchiveWriter::create_with_failpoint(path, &meta, kill)?,
                Vec::new(),
            )
        };
        // Which canonical sites are already done? Kept non-quarantined
        // segments count (their outcomes fold straight into the funnel);
        // quarantined ones are recrawled — a crashed worker's placeholder
        // is worth one more try, and determinism makes the retry converge.
        let total = universe.sites.len();
        let mut done = vec![false; total];
        let mut kept_funnel = FunnelStats::default();
        for k in &kept {
            if matches!(k.outcome, CrawlOutcome::Quarantined(_)) {
                continue;
            }
            // Out-of-range site indices (foreign or damaged meta) are skipped.
            if let Some(slot) = done.get_mut(k.site_index as usize) {
                if !*slot {
                    *slot = true;
                    kept_funnel.observe(&k.outcome);
                }
            }
        }
        let missing: Vec<usize> = done
            .iter()
            .enumerate()
            .filter(|(_, d)| !**d)
            .map(|(i, _)| i)
            .collect();
        if resume {
            pii_telemetry::counter("store.resume.sites_requeued", missing.len() as u64);
        }
        // Recrawl only the missing sites. The pool preserves universe order
        // within the filtered subset and `missing` is sorted ascending, so
        // the sink's filtered index k maps back to canonical site index
        // `missing[k]`.
        let filter: Option<Vec<String>> = (missing.len() != total).then(|| {
            missing
                .iter()
                .filter_map(|&i| universe.sites.get(i))
                .map(|site| site.domain.clone())
                .collect()
        });
        let writer = parking_lot::Mutex::new(writer);
        let write_error: parking_lot::Mutex<Option<std::io::Error>> = parking_lot::Mutex::new(None);
        let crawl_summary = {
            let mut span = pii_telemetry::span("study.crawl");
            span.add_arg("browser", self.capture_browser.name());
            crawler.run_streaming_on(self.capture_browser, filter.as_deref(), &|k, crawl| {
                let Some(&site_index) = missing.get(k) else {
                    return; // filtered index beyond the requeued set: drop, not panic
                };
                let mut w = writer.lock();
                if let Err(e) = w.append_site(site_index, crawl) {
                    write_error.lock().get_or_insert(e);
                }
            })
        };
        if let Some(e) = write_error.into_inner() {
            return Err(e);
        }
        let summary = writer.into_inner().finish()?;
        let mut funnel = kept_funnel;
        funnel.merge(&crawl_summary.funnel);
        Ok((
            summary,
            CrawlSummary {
                browser: crawl_summary.browser,
                funnel,
            },
        ))
    }
}

/// Everything downstream experiments need.
pub struct StudyResults {
    pub universe: Universe,
    pub psl: PublicSuffixList,
    /// The materialized capture. **Empty under streaming mode** — the whole
    /// point of [`Study::run_streaming`] is never holding it; consumers that
    /// need raw crawls (table 4, ablations) must use the materialized path.
    pub dataset: CrawlDataset,
    /// §3.2 funnel accounting, valid in both execution modes (streaming
    /// folds it incrementally; the rendered tables read it from here, never
    /// from `dataset`).
    pub funnel: FunnelStats,
    pub tokens: TokenSet,
    pub report: DetectionReport,
    pub tracking: TrackingAnalysis,
    /// Self-healing accounting; only rendered when a fault profile was active.
    pub degradation: crate::degradation::Degradation,
    /// Streaming-replay stats (batch count, peak resident bytes). `None`
    /// for materialized runs, and for a live streaming run, which reads no
    /// archive segments to measure.
    pub stream: Option<crate::streaming::StreamStats>,
}

impl StudyResults {
    /// Map a detected receiver domain to the paper's reporting label
    /// (Table 2 calls the CNAME-cloaked Adobe endpoints `adobe_cname`).
    pub fn receiver_label(&self, domain: &str) -> String {
        pii_web::tracker::reporting_label(domain)
    }

    /// Render every table/figure of the paper in order.
    pub fn render_all(&self) -> String {
        let mut out = String::new();
        out.push_str(&crate::aggregates::render(self));
        out.push('\n');
        out.push_str(
            &crate::table1::tables(self)
                .iter()
                .map(|t| t.render())
                .collect::<Vec<_>>()
                .join("\n"),
        );
        out.push('\n');
        out.push_str(&crate::figure2::table(self).render());
        out.push('\n');
        out.push_str(&crate::table2::table(self).render());
        out.push('\n');
        out.push_str(&crate::table3::table(self).render());
        out.push('\n');
        if self.degradation.should_render() {
            out.push_str(&crate::degradation::table(&self.degradation).render());
            out.push('\n');
        }
        out
    }

    /// All paper-vs-measured comparisons from the core pipeline (tables 1–3,
    /// figure 2, aggregates). Browser/blocklist comparisons are produced by
    /// their own modules because they re-crawl.
    pub fn comparisons(&self) -> Vec<crate::report::Comparison> {
        let mut out = Vec::new();
        out.extend(crate::aggregates::comparisons(self));
        out.extend(crate::table1::comparisons(self));
        out.extend(crate::figure2::comparisons(self));
        out.extend(crate::table2::comparisons(self));
        out.extend(crate::table3::comparisons(self));
        if self.degradation.profile != FaultProfile::None {
            // Archive damage alone adds no paper comparison — §3.2 was
            // measured by the crawl, not by the replay.
            out.extend(crate::degradation::comparisons(&self.degradation));
        }
        out
    }
}

/// Shared fixture for the crate's test modules: the full study is
/// expensive, so run it once per test binary.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use std::sync::OnceLock;

    pub(crate) fn shared() -> &'static StudyResults {
        static RESULTS: OnceLock<StudyResults> = OnceLock::new();
        RESULTS.get_or_init(|| Study::paper().run())
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::shared;

    #[test]
    fn full_pipeline_headlines() {
        let r = shared();
        assert_eq!(r.report.senders().len(), 130);
        assert_eq!(r.report.receivers().len(), 100);
        assert_eq!(r.tracking.confirmed().len(), 20);
    }

    #[test]
    fn render_all_produces_every_section() {
        let r = shared();
        let text = r.render_all();
        for needle in [
            "Table 1a",
            "Table 1b",
            "Table 1c",
            "Figure 2",
            "Table 2",
            "Table 3",
            "facebook.com",
            "adobe_cname",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn comparisons_mostly_match() {
        let r = shared();
        let comparisons = r.comparisons();
        assert!(comparisons.len() >= 30, "expected a rich comparison set");
        let matching = comparisons.iter().filter(|c| c.matches).count();
        let ratio = matching as f64 / comparisons.len() as f64;
        assert!(
            ratio >= 0.8,
            "only {matching}/{} comparisons match the paper",
            comparisons.len()
        );
    }
}
