//! Crawl-degradation report: what fault injection did to the §3.2 funnel
//! and what the self-healing crawler recovered.
//!
//! Under fault profile `none` nothing is injected and this report is
//! omitted from the rendered output; under `paper-may-2021` it shows the
//! funnel as a *measured* quantity next to the paper's published counts;
//! under `hostile` it documents graceful degradation.

use crate::report::{Comparison, Table};
use pii_crawler::capture::{CrawlDataset, CrawlOutcome, FunnelStats};
use pii_net::cache::{CacheDisposition, CacheStrategy};
use pii_net::fault::FaultProfile;
use std::collections::BTreeMap;

/// Self-healing accounting over one fault-injected crawl.
#[derive(Debug, Clone)]
pub struct Degradation {
    /// The profile the crawl ran under.
    pub profile: FaultProfile,
    /// The measured funnel.
    pub funnel: FunnelStats,
    /// Sites where a failed page load was rescued by a later attempt.
    pub rescued_sites: Vec<String>,
    /// (page-load attempts per site, number of sites with that count).
    pub attempts_histogram: Vec<(u32, usize)>,
    /// Total page-load attempts across the crawl.
    pub total_attempts: u64,
    /// Total retries (attempts beyond the first for some page).
    pub total_retries: u64,
    /// (fetch-error label, occurrences) across every observed fault.
    pub error_counts: Vec<(String, usize)>,
    /// Sites isolated after repeated worker panics, with reasons.
    pub quarantined: Vec<(String, String)>,
    /// Largest virtual-time budget any single site consumed (ms).
    pub max_site_virtual_ms: u64,
    /// Requests that actually went on the wire (including conditional
    /// revalidations answered with 304).
    pub requests_fired: u64,
    /// Requests answered from the browser's HTTP cache instead of the
    /// network: fresh hits plus stale-while-revalidate serves. Zero unless
    /// the crawl ran with a cache strategy and warm revisits.
    pub requests_suppressed: u64,
    /// Fresh cache hits (no wire traffic at all).
    pub cache_hits: u64,
    /// Stale responses served while revalidating in the background.
    pub cache_stale_served: u64,
    /// Conditional requests answered 304 Not Modified.
    pub cache_revalidated: u64,
    /// Archive segments a replay had to skip (corrupt or truncated), as
    /// `(site or offset, reason)`. Empty for live crawls and for clean
    /// replays — which is what keeps a clean replay byte-identical to the
    /// live run.
    pub archive_skipped: Vec<(String, String)>,
    /// `(verified, indexed)` archive segments when replaying from a store.
    pub archive_segments: Option<(usize, usize)>,
    /// How the capture was crawled, beyond the fault profile. The passes
    /// that re-crawl read it to size their pool and to decide whether the
    /// study's own report already is their baseline crawl.
    pub capture: CaptureConfig,
}

/// The study's crawl configuration that the fault profile does not record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// The capture was replayed from an archive (`--from`). An archive's
    /// meta records neither the cache strategy nor the visit count, so
    /// `cache` and `repeat` then say what was asked for, not what was
    /// crawled.
    pub replayed: bool,
    /// HTTP cache strategy of the crawl's browsers (`--cache`).
    pub cache: Option<CacheStrategy>,
    /// Visits per site (`--repeat`).
    pub repeat: u32,
    /// Worker threads for the passes that re-crawl (`--workers`).
    pub workers: usize,
}

impl Default for CaptureConfig {
    /// A live, uncached, one-visit crawl with `Crawler::new`'s pool size:
    /// what [`compute`] and [`DegradationBuilder::finish`] are handed
    /// without a study around them.
    fn default() -> CaptureConfig {
        CaptureConfig {
            replayed: false,
            cache: None,
            repeat: 1,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
        }
    }
}

impl Degradation {
    /// True when there is anything to show: an active fault profile,
    /// archive damage found during replay, or cache-served traffic from a
    /// warm-revisit crawl.
    pub fn should_render(&self) -> bool {
        self.profile != FaultProfile::None
            || !self.archive_skipped.is_empty()
            || self.requests_suppressed + self.cache_revalidated > 0
    }

    /// True when the capture is exactly what a re-crawl with a plain
    /// crawler makes: live, faultless, uncached, one visit per site. Each
    /// site's crawl is then a pure function of the site and the browser
    /// policy, so a re-crawl of any subset under the capture browser's
    /// policy reproduces the capture's records for those sites.
    pub fn capture_is_plain(&self) -> bool {
        self.profile == FaultProfile::None
            && !self.capture.replayed
            && self.capture.cache.is_none()
            && self.capture.repeat == 1
    }
}

/// Compute the degradation report for a materialized crawl.
pub fn compute(dataset: &CrawlDataset, profile: FaultProfile) -> Degradation {
    let mut builder = DegradationBuilder::default();
    for crawl in &dataset.crawls {
        builder.observe(crawl);
    }
    builder.finish(profile, dataset.funnel())
}

/// Incremental form of [`compute`]: the streaming replay folds each site in
/// as it is decoded, then seals the report — so degradation accounting needs
/// no materialized dataset. `compute` itself is a fold over this builder,
/// which keeps the two paths byte-identical by construction.
#[derive(Debug, Default)]
pub struct DegradationBuilder {
    rescued_sites: Vec<String>,
    histogram: BTreeMap<u32, usize>,
    errors: BTreeMap<String, usize>,
    quarantined: Vec<(String, String)>,
    total_attempts: u64,
    total_retries: u64,
    max_site_virtual_ms: u64,
    requests_fired: u64,
    requests_suppressed: u64,
    cache_hits: u64,
    cache_stale_served: u64,
    cache_revalidated: u64,
}

impl DegradationBuilder {
    /// Fold one site's crawl into the accounting. Call in canonical site
    /// order — `rescued_sites` and `quarantined` keep insertion order.
    pub fn observe(&mut self, crawl: &pii_crawler::capture::SiteCrawl) {
        if let CrawlOutcome::Quarantined(reason) = &crawl.outcome {
            self.quarantined
                .push((crawl.domain.clone(), reason.clone()));
        }
        // Suppressed-vs-fired accounting: which successful requests went on
        // the wire, and which the HTTP cache answered locally.
        for record in &crawl.records {
            if record.blocked.is_some() || record.error.is_some() {
                continue;
            }
            match record.from_cache {
                Some(CacheDisposition::Hit) => {
                    self.cache_hits += 1;
                    self.requests_suppressed += 1;
                }
                Some(CacheDisposition::Stale) => {
                    self.cache_stale_served += 1;
                    self.requests_suppressed += 1;
                }
                Some(CacheDisposition::Revalidated) => {
                    self.cache_revalidated += 1;
                    self.requests_fired += 1;
                }
                None => self.requests_fired += 1,
            }
        }
        let Some(res) = &crawl.resilience else {
            return;
        };
        self.total_attempts += u64::from(res.attempts);
        self.total_retries += u64::from(res.retries);
        self.max_site_virtual_ms = self.max_site_virtual_ms.max(res.virtual_ms);
        *self.histogram.entry(res.attempts).or_default() += 1;
        if res.rescued {
            self.rescued_sites.push(crawl.domain.clone());
        }
        for entry in &res.errors {
            // Entries are "label@path#attempt"; aggregate by label.
            let label = entry.split('@').next().unwrap_or(entry).to_string();
            *self.errors.entry(label).or_default() += 1;
        }
    }

    /// Seal the report with the crawl's profile and funnel.
    pub fn finish(self, profile: FaultProfile, funnel: FunnelStats) -> Degradation {
        Degradation {
            profile,
            funnel,
            rescued_sites: self.rescued_sites,
            attempts_histogram: self.histogram.into_iter().collect(),
            total_attempts: self.total_attempts,
            total_retries: self.total_retries,
            error_counts: self.errors.into_iter().collect(),
            quarantined: self.quarantined,
            max_site_virtual_ms: self.max_site_virtual_ms,
            requests_fired: self.requests_fired,
            requests_suppressed: self.requests_suppressed,
            cache_hits: self.cache_hits,
            cache_stale_served: self.cache_stale_served,
            cache_revalidated: self.cache_revalidated,
            archive_skipped: Vec::new(),
            archive_segments: None,
            capture: CaptureConfig::default(),
        }
    }
}

/// Render the report as an ASCII table.
pub fn table(d: &Degradation) -> Table {
    let mut t = Table::new(
        format!("Crawl degradation (fault profile: {})", d.profile),
        &["Metric", "Value"],
    );
    t.row(&["candidate sites".to_string(), d.funnel.total.to_string()]);
    t.row(&[
        "completed auth flows".to_string(),
        d.funnel.completed.to_string(),
    ]);
    t.row(&[
        "unreachable (measured)".to_string(),
        d.funnel.unreachable.to_string(),
    ]);
    t.row(&[
        "sign-up blocked (measured)".to_string(),
        d.funnel.signup_blocked.to_string(),
    ]);
    t.row(&[
        "no auth flow".to_string(),
        d.funnel.no_auth_flow.to_string(),
    ]);
    t.row(&[
        "quarantined sites".to_string(),
        d.funnel.quarantined.to_string(),
    ]);
    t.row(&[
        "sites rescued by retry".to_string(),
        d.rescued_sites.len().to_string(),
    ]);
    t.row(&[
        "page-load attempts".to_string(),
        d.total_attempts.to_string(),
    ]);
    t.row(&["retries".to_string(), d.total_retries.to_string()]);
    t.row(&[
        "max per-site virtual time".to_string(),
        format!("{} ms", d.max_site_virtual_ms),
    ]);
    // Warm-cache accounting: only present when the crawl ran with a cache
    // strategy, so cacheless runs render the same table as before.
    if d.requests_suppressed + d.cache_revalidated > 0 {
        t.row(&[
            "requests fired (network)".to_string(),
            d.requests_fired.to_string(),
        ]);
        t.row(&[
            "requests suppressed (cache)".to_string(),
            d.requests_suppressed.to_string(),
        ]);
        t.row(&["cache hits (fresh)".to_string(), d.cache_hits.to_string()]);
        t.row(&[
            "stale served (revalidating)".to_string(),
            d.cache_stale_served.to_string(),
        ]);
        t.row(&[
            "revalidated (304)".to_string(),
            d.cache_revalidated.to_string(),
        ]);
    }
    for (label, count) in &d.error_counts {
        t.row(&[format!("observed {label}"), count.to_string()]);
    }
    for (attempts, sites) in &d.attempts_histogram {
        t.row(&[format!("sites with {attempts} attempts"), sites.to_string()]);
    }
    for (domain, reason) in &d.quarantined {
        t.row(&[format!("quarantined {domain}"), reason.clone()]);
    }
    // Archive-replay damage: only present when segments were actually
    // skipped, so a clean replay renders the same table as a live run.
    if !d.archive_skipped.is_empty() {
        if let Some((verified, total)) = d.archive_segments {
            t.row(&[
                "archive segments verified".to_string(),
                format!("{verified}/{total}"),
            ]);
        }
        t.row(&[
            "archive segments skipped".to_string(),
            d.archive_skipped.len().to_string(),
        ]);
        for (what, reason) in &d.archive_skipped {
            t.row(&[format!("archive segment {what}"), reason.clone()]);
        }
    }
    t
}

/// The measured funnel next to §3.2's published counts.
pub fn comparisons(d: &Degradation) -> Vec<Comparison> {
    vec![
        Comparison::counts(
            "§3.2 funnel (measured) / candidate sites",
            404,
            d.funnel.total,
            0,
        ),
        Comparison::counts(
            "§3.2 funnel (measured) / unreachable",
            22,
            d.funnel.unreachable,
            0,
        ),
        Comparison::counts(
            "§3.2 funnel (measured) / sign-up blocked",
            56,
            d.funnel.signup_blocked,
            0,
        ),
        Comparison::counts(
            "§3.2 funnel (measured) / no auth flow",
            19,
            d.funnel.no_auth_flow,
            0,
        ),
        Comparison::counts(
            "§3.2 funnel (measured) / usable sites",
            307,
            d.funnel.completed,
            0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pii_browser::profiles::BrowserKind;
    use pii_crawler::capture::{SiteCrawl, SiteResilience};

    fn crawl(domain: &str, outcome: CrawlOutcome, res: Option<SiteResilience>) -> SiteCrawl {
        SiteCrawl {
            domain: domain.to_string(),
            outcome,
            records: Vec::new(),
            stored_cookies: Vec::new(),
            resilience: res,
        }
    }

    #[test]
    fn only_a_live_faultless_uncached_single_visit_capture_is_plain() {
        let plain =
            DegradationBuilder::default().finish(FaultProfile::None, FunnelStats::default());
        assert!(plain.capture_is_plain());
        let mut more_workers = plain.clone();
        more_workers.capture.workers += 3;
        assert!(more_workers.capture_is_plain());
        let variants: [fn(&mut Degradation); 5] = [
            |d| d.profile = FaultProfile::PaperMay2021,
            |d| d.profile = FaultProfile::Hostile,
            |d| d.capture.replayed = true,
            |d| d.capture.cache = Some(CacheStrategy::NetworkFirst),
            |d| d.capture.repeat = 2,
        ];
        for (i, change) in variants.iter().enumerate() {
            let mut d = plain.clone();
            change(&mut d);
            assert!(!d.capture_is_plain(), "variant {i}");
        }
    }

    #[test]
    fn aggregates_resilience_quarantines_and_errors() {
        let dataset = CrawlDataset {
            browser: BrowserKind::Firefox88Vanilla,
            crawls: vec![
                crawl(
                    "a.com",
                    CrawlOutcome::Completed {
                        email_confirmed: false,
                        bot_detection_passed: false,
                    },
                    Some(SiteResilience {
                        attempts: 9,
                        retries: 2,
                        rescued: true,
                        virtual_ms: 750,
                        errors: vec!["reset@/#1".into(), "reset@/signup#1".into()],
                    }),
                ),
                crawl(
                    "b.com",
                    CrawlOutcome::Unreachable,
                    Some(SiteResilience {
                        attempts: 3,
                        retries: 2,
                        rescued: false,
                        virtual_ms: 1200,
                        errors: vec![
                            "dns-failure@/#1".into(),
                            "dns-failure@/#2".into(),
                            "dns-failure@/#3".into(),
                        ],
                    }),
                ),
                crawl(
                    "c.com",
                    CrawlOutcome::Quarantined("panicked twice".into()),
                    None,
                ),
            ],
        };
        let d = compute(&dataset, FaultProfile::Hostile);
        assert_eq!(d.rescued_sites, vec!["a.com"]);
        assert_eq!(d.total_attempts, 12);
        assert_eq!(d.total_retries, 4);
        assert_eq!(d.max_site_virtual_ms, 1200);
        assert_eq!(d.attempts_histogram, vec![(3, 1), (9, 1)]);
        assert_eq!(
            d.error_counts,
            vec![("dns-failure".to_string(), 3), ("reset".to_string(), 2)]
        );
        assert_eq!(
            d.quarantined,
            vec![("c.com".to_string(), "panicked twice".to_string())]
        );
        assert_eq!(d.funnel.quarantined, 1);
        let text = table(&d).render();
        assert!(text.contains("fault profile: hostile"));
        assert!(text.contains("observed dns-failure"));
        assert!(text.contains("quarantined c.com"));
        // The measured-funnel comparisons exist (they won't match §3.2 for
        // this toy dataset, and that's the point of measuring).
        assert_eq!(comparisons(&d).len(), 5);
    }
}
