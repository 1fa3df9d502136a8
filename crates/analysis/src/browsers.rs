//! §7.1 — evaluating browser countermeasures against PII leakage.
//!
//! "We then obtain data on the 130 first-party sites that leak PII to third
//! parties. Finally, we apply the same method to detect PII leakage among
//! these profiles."

use crate::report::{Comparison, Table};
use crate::streaming::StudyFold;
use crate::study::StudyResults;
use pii_browser::profiles::{BrowserKind, BrowserProfile};
use pii_core::detect::LeakDetector;
use pii_crawler::{CrawlOutcome, Crawler};

/// One browser's measured exposure.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserResult {
    pub browser: BrowserKind,
    pub senders: usize,
    pub receivers: usize,
    pub leaking_requests: usize,
    /// Sites whose sign-up flow the browser itself broke.
    pub signup_failures: Vec<String>,
}

impl BrowserResult {
    /// Reduction relative to a baseline count.
    pub fn reduction(&self, baseline: usize, value: usize) -> f64 {
        if baseline == 0 {
            return 0.0;
        }
        (baseline - value) as f64 * 100.0 / baseline as f64
    }
}

/// The protection policy a browser crawls under: its profile with `kind`
/// masked. `kind` only picks the `User-Agent` value, and detection never
/// scans that header, so browsers with one policy leak identically.
fn policy(kind: BrowserKind) -> BrowserProfile {
    BrowserProfile {
        kind: BrowserKind::Firefox88Vanilla,
        ..kind.profile()
    }
}

/// Re-crawl the leaking senders under every browser and re-run detection,
/// once per distinct protection policy, through the study fold. The
/// re-crawl is plain: no faults, no cache, one visit per site, with the
/// study's worker count. When the study's own capture was crawled exactly
/// that way, the capture browser's policy is not re-crawled: the study's
/// report is that crawl's report.
pub fn evaluate_all(r: &StudyResults) -> Vec<BrowserResult> {
    let senders: Vec<String> = r.report.senders().iter().map(|s| s.to_string()).collect();
    let mut crawler = Crawler::new(&r.universe);
    crawler.workers = r.degradation.capture.workers;
    let detector = LeakDetector::new(&r.tokens, &r.psl, &r.universe.zones);
    let reuse = r
        .degradation
        .capture_is_plain()
        .then(|| policy(r.dataset.browser));
    // Every kind's row, next to its policy; a kind whose policy an earlier
    // kind has takes that kind's row.
    let mut rows: Vec<(BrowserProfile, BrowserResult)> = Vec::new();
    for kind in BrowserKind::ALL {
        let policy = policy(kind);
        let row = match rows.iter().find(|(p, _)| *p == policy) {
            Some((_, row)) => BrowserResult {
                browser: kind,
                ..row.clone()
            },
            // Detection runs only on completed crawls, so every sender's
            // crawl completed: no broken sign-ups.
            None if reuse.as_ref() == Some(&policy) => BrowserResult {
                browser: kind,
                senders: r.report.senders().len(),
                receivers: r.report.receivers().len(),
                leaking_requests: r.report.leaking_request_count(),
                signup_failures: Vec::new(),
            },
            None => crawl_and_detect(&crawler, &detector, kind, &senders),
        };
        rows.push((policy, row));
    }
    rows.into_iter().map(|(_, row)| row).collect()
}

/// One browser's row, measured by re-crawling `senders` and detecting. The
/// fold keeps its crawls: the row names the sites whose sign-up failed.
fn crawl_and_detect(
    crawler: &Crawler,
    detector: &LeakDetector,
    kind: BrowserKind,
    senders: &[String],
) -> BrowserResult {
    let mut fold = StudyFold::new(true);
    crate::streaming::crawl(crawler, kind.profile(), Some(senders), detector, &mut fold);
    let report = &fold.report;
    BrowserResult {
        browser: kind,
        senders: report.senders().len(),
        receivers: report.receivers().len(),
        leaking_requests: report.leaking_request_count(),
        signup_failures: fold
            .crawls
            .iter()
            .flatten()
            .filter(|c| matches!(c.outcome, CrawlOutcome::SignupFailed(_)))
            .map(|c| c.domain.clone())
            .collect(),
    }
}

pub fn table(r: &StudyResults, results: &[BrowserResult]) -> Table {
    let base_senders = r.report.senders().len();
    let base_receivers = r.report.receivers().len();
    let mut t = Table::new(
        format!("§7.1 — browsers vs PII leakage (re-crawl of the {base_senders} leaking sites)"),
        &[
            "Browser",
            "Senders",
            "Receivers",
            "Sender reduction",
            "Receiver reduction",
            "Broken sign-ups",
        ],
    );
    for res in results {
        t.row(&[
            res.browser.name().to_string(),
            res.senders.to_string(),
            res.receivers.to_string(),
            format!("{:.1}%", res.reduction(base_senders, res.senders)),
            format!("{:.1}%", res.reduction(base_receivers, res.receivers)),
            if res.signup_failures.is_empty() {
                "—".to_string()
            } else {
                res.signup_failures.join(", ")
            },
        ]);
    }
    t
}

pub fn comparisons(r: &StudyResults, results: &[BrowserResult]) -> Vec<Comparison> {
    let base_senders = r.report.senders().len();
    let base_receivers = r.report.receivers().len();
    let mut out = Vec::new();
    for res in results {
        match res.browser {
            BrowserKind::Brave129 => {
                let sender_red = res.reduction(base_senders, res.senders);
                let receiver_red = res.reduction(base_receivers, res.receivers);
                out.push(Comparison::new(
                    "§7.1 / Brave sender reduction",
                    "93.1%",
                    format!("{sender_red:.1}%"),
                    (90.0..=95.0).contains(&sender_red),
                ));
                out.push(Comparison::new(
                    "§7.1 / Brave receiver reduction",
                    "92.0%",
                    format!("{receiver_red:.1}%"),
                    (90.0..=94.0).contains(&receiver_red),
                ));
                out.push(Comparison::counts(
                    "§7.1 / receivers missed by Brave",
                    8,
                    res.receivers,
                    0,
                ));
                out.push(Comparison::new(
                    "§7.1 / Brave broken sign-up",
                    "nykaa.com",
                    res.signup_failures.join(","),
                    res.signup_failures == ["nykaa.com"],
                ));
            }
            other => {
                out.push(Comparison::counts(
                    format!("§7.1 / {} senders (no effect expected)", other.name()),
                    base_senders,
                    res.senders,
                    0,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::testutil::shared;
    use crate::Study;
    use pii_net::cache::CacheStrategy;
    use pii_net::fault::FaultProfile;
    use pii_web::UniverseSpec;
    use std::sync::OnceLock;

    fn results() -> &'static Vec<BrowserResult> {
        static R: OnceLock<Vec<BrowserResult>> = OnceLock::new();
        R.get_or_init(|| evaluate_all(shared()))
    }

    /// The pass `evaluate_all` replaced: a full re-crawl and detection for
    /// each of the six browsers.
    fn six_crawls(r: &StudyResults) -> Vec<BrowserResult> {
        let senders: Vec<String> = r.report.senders().iter().map(|s| s.to_string()).collect();
        let crawler = Crawler::new(&r.universe);
        BrowserKind::ALL
            .iter()
            .map(|&kind| {
                let dataset = crawler.run_on(kind, Some(&senders));
                let report =
                    LeakDetector::new(&r.tokens, &r.psl, &r.universe.zones).detect(&dataset);
                BrowserResult {
                    browser: kind,
                    senders: report.senders().len(),
                    receivers: report.receivers().len(),
                    leaking_requests: report.leaking_request_count(),
                    signup_failures: dataset
                        .crawls
                        .iter()
                        .filter(|c| matches!(c.outcome, CrawlOutcome::SignupFailed(_)))
                        .map(|c| c.domain.clone())
                        .collect(),
                }
            })
            .collect()
    }

    fn study(seed: u64, faults: FaultProfile, cache: Option<CacheStrategy>, repeat: u32) -> Study {
        Study {
            spec: UniverseSpec {
                seed,
                ..UniverseSpec::default()
            },
            faults,
            cache,
            repeat,
            ..Study::paper()
        }
    }

    /// Seed 7 crawled with a warm cache: the study's report misses the
    /// three Referer-only senders, so it must not stand in for a re-crawl.
    fn cached() -> &'static StudyResults {
        static R: OnceLock<StudyResults> = OnceLock::new();
        R.get_or_init(|| {
            study(
                UniverseSpec::default().seed,
                FaultProfile::None,
                Some(CacheStrategy::CacheFirst),
                2,
            )
            .run()
        })
    }

    #[test]
    fn grouped_pass_equals_six_crawls_on_plain_studies() {
        for seed in [7, 11, 23] {
            let r = if seed == UniverseSpec::default().seed {
                shared()
            } else {
                &study(seed, FaultProfile::None, None, 1).run()
            };
            assert!(r.degradation.capture_is_plain());
            assert_eq!(evaluate_all(r), six_crawls(r), "seed {seed}");
        }
    }

    #[test]
    fn grouped_pass_equals_six_crawls_when_the_capture_is_not_plain() {
        let faulted = study(
            UniverseSpec::default().seed,
            FaultProfile::PaperMay2021,
            None,
            1,
        )
        .run();
        for r in [&faulted, cached()] {
            assert!(!r.degradation.capture_is_plain());
            assert_eq!(evaluate_all(r), six_crawls(r));
        }
    }

    #[test]
    fn title_counts_the_study_senders() {
        let r = cached();
        let senders = r.report.senders().len();
        assert_ne!(senders, 130);
        let title = table(r, &evaluate_all(r)).title;
        assert!(
            title.contains(&format!("re-crawl of the {senders} leaking sites")),
            "{title}"
        );
    }

    #[test]
    fn only_brave_reduces_leakage() {
        let r = shared();
        let base = r.report.senders().len();
        for res in results() {
            if res.browser == BrowserKind::Brave129 {
                assert_eq!(res.senders, 9, "Brave leaves 9 senders (−93.1%)");
                assert_eq!(res.receivers, 8, "Brave leaves the 8 missed receivers");
            } else {
                assert_eq!(res.senders, base, "{} must not help", res.browser.name());
                assert_eq!(res.receivers, 100);
            }
        }
    }

    #[test]
    fn brave_breaks_nykaa_signup_only() {
        for res in results() {
            if res.browser == BrowserKind::Brave129 {
                assert_eq!(res.signup_failures, vec!["nykaa.com".to_string()]);
            } else {
                assert!(res.signup_failures.is_empty(), "{}", res.browser.name());
            }
        }
    }

    #[test]
    fn comparison_rows_all_match() {
        let r = shared();
        for c in comparisons(r, results()) {
            assert!(
                c.matches,
                "{}: paper {} vs {}",
                c.metric, c.paper, c.measured
            );
        }
    }

    #[test]
    fn table_renders_six_rows() {
        let r = shared();
        let t = table(r, results());
        assert_eq!(t.rows.len(), 6);
        assert!(t.render().contains("Brave"));
    }
}
