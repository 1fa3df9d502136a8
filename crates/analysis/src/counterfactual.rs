//! What-if experiments beyond the paper's §7 — policy counterfactuals the
//! discussion invites but the authors did not run.
//!
//! * [`strict_referrer`] — what if browsers enforced
//!   `strict-origin-when-cross-origin` regardless of the site's own
//!   `Referrer-Policy`? (Chrome 85+/Firefox 87+ made it the *default*, but
//!   sites can still opt back into `unsafe-url`, which is exactly what the
//!   three badly coded GET-form sites do.) Prediction: the Figure 1.a
//!   channel disappears, everything else is untouched — PII leakage is
//!   overwhelmingly *intentional*.
//! * [`no_cname_uncloaking`] — what if a request blocker matched only the
//!   visible host (no CNAME resolution)? Prediction: the Adobe cookie/URI
//!   channel survives wholesale blocking.

use crate::streaming::StudyFold;
use crate::study::StudyResults;
use pii_browser::profiles::{BrowserKind, BrowserProfile};
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_crawler::Crawler;
use pii_web::site::LeakMethod;

/// Outcome of the strict-referrer counterfactual.
#[derive(Debug, Clone, PartialEq)]
pub struct StrictReferrerOutcome {
    /// Referer-method senders before/after.
    pub referer_senders: (usize, usize),
    /// All senders before/after (should barely move).
    pub total_senders: (usize, usize),
    /// All receivers before/after.
    pub total_receivers: (usize, usize),
}

fn count_referer_senders(report: &DetectionReport) -> usize {
    let mut senders: Vec<&str> = report
        .events
        .iter()
        .filter(|e| e.method == LeakMethod::Referer)
        .map(|e| e.sender.as_str())
        .collect();
    senders.sort();
    senders.dedup();
    senders.len()
}

/// Re-crawl with a Firefox 88 profile that enforces strict referrers.
pub fn strict_referrer(r: &StudyResults) -> StrictReferrerOutcome {
    let after = strict_recrawl(r);
    StrictReferrerOutcome {
        referer_senders: (
            count_referer_senders(&r.report),
            count_referer_senders(&after),
        ),
        total_senders: (r.report.senders().len(), after.senders().len()),
        total_receivers: (r.report.receivers().len(), after.receivers().len()),
    }
}

/// Firefox 88 enforcing `strict-origin-when-cross-origin` on every page.
fn strict_profile() -> BrowserProfile {
    BrowserProfile {
        enforce_strict_referrer: true,
        ..BrowserKind::Firefox88Vanilla.profile()
    }
}

/// The leaking senders re-crawled under [`strict_profile`] through the
/// study fold: a plain crawl (no faults, no cache, one visit) with the
/// study's workers, each crawl dropped once detected.
fn strict_recrawl(r: &StudyResults) -> DetectionReport {
    let senders: Vec<String> = r.report.senders().iter().map(|s| s.to_string()).collect();
    let mut crawler = Crawler::new(&r.universe);
    crawler.workers = r.degradation.capture.workers;
    let detector = LeakDetector::new(&r.tokens, &r.psl, &r.universe.zones);
    let mut fold = StudyFold::new(false);
    let profile = strict_profile();
    crate::streaming::crawl(&crawler, profile, Some(&senders), &detector, &mut fold);
    fold.report
}

/// Outcome of the no-CNAME-uncloaking counterfactual.
#[derive(Debug, Clone, PartialEq)]
pub struct NoUncloakingOutcome {
    /// Cookie/URI leak events to the cloaked Adobe endpoints that a
    /// visible-host-only blocker would let through.
    pub surviving_cloaked_events: usize,
    /// Senders still leaking through the cloak.
    pub surviving_senders: usize,
}

/// Evaluate a visible-host-only blocker against the cloaked traffic: every
/// leak event whose request host is first-party-looking survives, because
/// no list blocks `metrics.<site>`.
pub fn no_cname_uncloaking(r: &StudyResults) -> NoUncloakingOutcome {
    let cloaked: Vec<_> = r.report.events.iter().filter(|e| e.cloaked).collect();
    let mut senders: Vec<&str> = cloaked.iter().map(|e| e.sender.as_str()).collect();
    senders.sort();
    senders.dedup();
    NoUncloakingOutcome {
        surviving_cloaked_events: cloaked.len(),
        surviving_senders: senders.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::testutil::shared;
    use crate::Study;
    use pii_crawler::{CrawlDataset, SiteCrawl};
    use pii_web::UniverseSpec;

    /// The pass `strict_recrawl` replaced: the senders crawled into a
    /// dataset, then detected one site after another.
    fn crawl_then_detect(r: &StudyResults) -> DetectionReport {
        let senders: Vec<String> = r.report.senders().iter().map(|s| s.to_string()).collect();
        let mut crawls: Vec<SiteCrawl> = Vec::new();
        let browser = Crawler::new(&r.universe).run_pool(
            strict_profile(),
            Some(&senders),
            |crawl| crawl,
            |_, crawl| crawls.push(crawl),
        );
        let dataset = CrawlDataset { browser, crawls };
        LeakDetector::new(&r.tokens, &r.psl, &r.universe.zones).detect(&dataset)
    }

    #[test]
    fn strict_recrawl_equals_crawl_then_detect() {
        for seed in [7, 11] {
            for workers in [1, 4] {
                let r = Study {
                    spec: UniverseSpec {
                        seed,
                        ..UniverseSpec::default()
                    },
                    ..Study::with_workers(workers)
                }
                .run_streaming();
                assert_eq!(r.degradation.capture.workers, workers);
                assert_eq!(
                    strict_recrawl(&r),
                    crawl_then_detect(&r),
                    "seed {seed}, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn strict_referrer_kills_exactly_the_accidental_channel() {
        let r = shared();
        let outcome = strict_referrer(r);
        assert_eq!(outcome.referer_senders.0, 3, "baseline referer senders");
        assert_eq!(outcome.referer_senders.1, 0, "strict policy removes them");
        // The 3 referer-only senders leak nothing else, so total senders
        // drop by exactly 3; intentional leakage is untouched.
        assert_eq!(outcome.total_senders, (130, 127));
        // Their 7 receivers still receive PII from *other* senders' script
        // tags, so the receiver count barely moves (only the taboola
        // referer path disappears from nothing — all 7 have URI edges too).
        assert_eq!(outcome.total_receivers.0, 100);
        assert!(
            outcome.total_receivers.1 >= 98,
            "receivers after: {}",
            outcome.total_receivers.1
        );
    }

    #[test]
    fn cloaked_adobe_traffic_survives_host_only_blocking() {
        let r = shared();
        let outcome = no_cname_uncloaking(r);
        assert_eq!(outcome.surviving_senders, 8, "adobe_cname's 8 senders");
        assert!(outcome.surviving_cloaked_events > 0);
    }
}
