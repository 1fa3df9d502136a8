//! The study fold: one canonical-order pass from a capture source to the
//! study's accumulators, shared by every pipeline.
//!
//! Whatever the source, each site goes — in canonical site order — through
//! `FunnelStats::observe`, `DegradationBuilder::observe` and
//! `DetectionReport::merge` exactly once ([`StudyFold`]). The materialized
//! study additionally keeps the crawls as its dataset; the streaming study
//! drops each one as soon as it is folded. Because `detect_site` is a pure
//! function of one crawl and fragments merge in canonical order, the result
//! is byte-identical for any source, worker count and mode;
//! `tests/streaming.rs` pins this across worker counts and fault profiles.
//!
//! There are two sources. Both run on `pii_crawler::pool`, which delivers
//! in index order, so neither keeps a reorder buffer of its own:
//!
//! - **Archive** ([`replay`]): the footer index is read in
//!   [`STREAM_BATCH`]-sized batches, one pool call per batch; each
//!   segment is decoded and detected on a worker and folded in index
//!   order. Peak residency is
//!   one batch of segments, tracked as the deterministic
//!   `study.stream.peak_resident_bytes` gauge (max over batches of the
//!   batch's summed segment bytes) — a pure function of the archive, so it
//!   can be asserted flat across universe scales.
//! - **Live crawl** ([`crawl`]): each site is detected on the crawl worker
//!   that finished it and folded in site order. A site whose crawl
//!   panics is retried on the same worker before anything later is folded,
//!   so it is never late.

use crate::degradation::DegradationBuilder;
use pii_browser::profiles::BrowserProfile;
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_crawler::{CrawlOutcome, Crawler, FunnelStats, SiteCrawl};
use pii_store::format::FrameError;
use pii_store::reader::{ArchiveReader, ReplayReport, SkippedSegment};

/// Sites decoded + detected per batch. Large enough to keep a worker pool
/// busy, small enough that a batch of even record-heavy sites stays far
/// below a materialized dataset.
pub const STREAM_BATCH: usize = 64;

/// What one streaming replay measured about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Indexed site segments replayed (verified + skipped).
    pub sites: usize,
    /// Batches the index was split into.
    pub batches: usize,
    /// Max over batches of the summed on-disk segment bytes held at once —
    /// the replay's deterministic memory bound. Grows with site size, never
    /// with site *count*.
    pub peak_resident_bytes: u64,
}

/// The study's accumulators, fed one site at a time in canonical order.
#[derive(Default)]
pub(crate) struct StudyFold {
    pub(crate) funnel: FunnelStats,
    pub(crate) degradation: DegradationBuilder,
    pub(crate) report: DetectionReport,
    /// The folded crawls, kept only by the materialized pipeline.
    pub(crate) crawls: Option<Vec<SiteCrawl>>,
    /// The sites whose sign-up the crawling browser broke, in site order.
    pub(crate) signup_failures: Vec<String>,
}

impl StudyFold {
    pub(crate) fn new(keep_crawls: bool) -> StudyFold {
        StudyFold {
            crawls: keep_crawls.then(Vec::new),
            ..StudyFold::default()
        }
    }

    /// Fold the next site in canonical order with its detection fragment.
    fn observe(&mut self, crawl: SiteCrawl, fragment: DetectionReport) {
        self.funnel.observe(&crawl.outcome);
        self.degradation.observe(&crawl);
        self.report.merge(fragment);
        if let CrawlOutcome::SignupFailed(_) = crawl.outcome {
            self.signup_failures.push(crawl.domain.clone());
        }
        if let Some(crawls) = &mut self.crawls {
            crawls.push(crawl);
        }
    }
}

/// Fold a live crawl of `crawler`'s universe — or of the `filter` subset,
/// in universe order — under `profile`. Each site is detected on the worker
/// that crawled it and folded in site order. This is the only code that
/// crawls and detects: the study itself and every re-crawling pass (the
/// §7.1 browsers, the strict-referrer counterfactual, the crowdsourced
/// contributors) go through it.
pub(crate) fn crawl(
    crawler: &Crawler<'_>,
    profile: BrowserProfile,
    filter: Option<&[String]>,
    detector: &LeakDetector,
    fold: &mut StudyFold,
) {
    crawler.run_pool(
        profile,
        filter,
        |crawl| {
            let fragment = detector.detect_site_guarded(&crawl);
            (crawl, fragment)
        },
        |_, (crawl, fragment)| fold.observe(crawl, fragment),
    );
}

/// Fold `reader`'s indexed segments batch by batch through `detector`.
///
/// Per batch: decode + guarded per-site detection on the worker pool,
/// folded in index order. Damaged segments become the same `Quarantined`
/// placeholder rows and [`SkippedSegment`] notes as
/// [`ArchiveReader::read_dataset`], so the degradation accounting cannot
/// drift between a replay and the archive's own reader; a segment whose
/// worker was lost degrades the same way.
pub(crate) fn replay(
    reader: &ArchiveReader,
    detector: &LeakDetector,
    workers: usize,
    fold: &mut StudyFold,
) -> (ReplayReport, StreamStats) {
    let _span = pii_telemetry::span("study.stream");
    let entries = reader.entries();
    let mut replay = ReplayReport {
        segments_total: entries.len(),
        used_footer: reader.used_footer(),
        skipped: reader.scan_damage().to_vec(),
        ..ReplayReport::default()
    };
    let mut stats = StreamStats {
        sites: entries.len(),
        batches: 0,
        peak_resident_bytes: 0,
    };
    for batch in entries.chunks(STREAM_BATCH) {
        stats.batches += 1;
        let resident: u64 = batch.iter().map(|e| u64::from(e.segment_len)).sum();
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
        pii_crawler::pool(
            workers,
            batch.len(),
            |_| (),
            |(), index| {
                // lint:allow(W04) -- the pool passes only indices below its len, `batch.len()`
                let crawl = reader.read_entry(&batch[index])?;
                let fragment = detector.detect_site_guarded(&crawl);
                Ok((crawl, fragment))
            },
            |_| Err(FrameError::Corrupt("replay worker lost")),
            |index, slot| match slot {
                Ok((crawl, fragment)) => {
                    replay.segments_verified += 1;
                    pii_telemetry::counter("store.segments_verified", 1);
                    fold.observe(crawl, fragment);
                }
                Err(e) => {
                    let entry = &batch[index]; // lint:allow(W04) -- as in `work`, index < batch.len()
                    pii_telemetry::counter("store.segments_skipped", 1);
                    replay.skipped.push(SkippedSegment {
                        label: Some(entry.label.clone()),
                        offset: entry.offset,
                        records: entry.records,
                        reason: e.to_string(),
                    });
                    let placeholder = ArchiveReader::quarantine_placeholder(entry, &e);
                    fold.observe(placeholder, DetectionReport::default());
                }
            },
        );
    }
    pii_telemetry::gauge(
        "study.stream.peak_resident_bytes",
        stats.peak_resident_bytes as i64,
    );
    (replay, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pii_browser::profiles::BrowserKind;
    use pii_core::tokens::TokenSetBuilder;
    use pii_dns::PublicSuffixList;
    use pii_net::fault::{DomainSchedule, FaultProfile};
    use pii_web::Universe;

    /// A site whose crawl panics is retried in place and quarantined while
    /// the other workers crawl on ahead; the pool must still hand it to the
    /// fold in its place, so the live fold equals crawl-then-detect in site
    /// order.
    #[test]
    fn live_fold_restores_site_order_around_a_late_site() {
        let universe = Universe::generate();
        let victim = universe.sender_sites().next().unwrap().domain.clone();
        let mut crawler = Crawler::new(&universe);
        crawler.workers = 4;
        crawler.faults = universe.fault_plan(FaultProfile::PaperMay2021);
        crawler.faults.set(&victim, DomainSchedule::Panic);
        let tokens = TokenSetBuilder::default().build(&universe.persona);
        let psl = PublicSuffixList::embedded();
        let detector = LeakDetector::new(&tokens, &psl, &universe.zones);

        let mut fold = StudyFold::new(true);
        crawl(
            &crawler,
            BrowserKind::Firefox88Vanilla.profile(),
            None,
            &detector,
            &mut fold,
        );
        let dataset = crawler.run(BrowserKind::Firefox88Vanilla);

        let crawls = fold.crawls.unwrap();
        assert_eq!(
            serde_json::to_string(&crawls).unwrap(),
            serde_json::to_string(&dataset.crawls).unwrap()
        );
        assert_eq!(fold.funnel, dataset.funnel());
        assert_eq!(fold.funnel.quarantined, 1);
        let report = detector.detect_parallel(&dataset, 1);
        assert_eq!(fold.report.events, report.events);
        assert_eq!(fold.report.skipped_records, report.skipped_records);
    }
}
