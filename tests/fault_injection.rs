//! Seeded transport faults and the self-healing crawl: the §3.2 funnel is
//! *measured* from observed failures, the measurement stays deterministic
//! under any worker count, and a single bad site (even one that panics the
//! worker) never takes down the crawl.

use pii_suite::crawler::{CrawlOutcome, RetryPolicy};
use pii_suite::net::fault::{DomainSchedule, FaultPlan, FaultProfile, FetchError};
use pii_suite::prelude::*;
use std::sync::OnceLock;

fn universe() -> &'static Universe {
    static U: OnceLock<Universe> = OnceLock::new();
    U.get_or_init(Universe::generate)
}

fn dataset_json(dataset: &CrawlDataset) -> String {
    serde_json::to_string(dataset).expect("dataset serializes")
}

#[test]
fn faultless_plan_is_byte_identical_to_the_plain_pipeline() {
    let u = universe();
    let targets: Vec<String> = u.sender_sites().take(5).map(|s| s.domain.clone()).collect();
    let plain = Crawler::new(u).run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
    let mut faultless = Crawler::new(u);
    faultless.faults = u.fault_plan(FaultProfile::None);
    assert!(faultless.faults.is_inert());
    let routed = faultless.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
    assert_eq!(dataset_json(&plain), dataset_json(&routed));
}

#[test]
fn measured_funnel_reproduces_section_3_2() {
    let u = universe();
    let mut crawler = Crawler::new(u);
    crawler.faults = u.fault_plan(FaultProfile::PaperMay2021);
    let dataset = crawler.run(BrowserKind::Firefox88Vanilla);
    let funnel = dataset.funnel();
    // The paper's funnel, measured from wire behavior instead of asserted
    // from config: 404 candidates → 22 unreachable, 56 sign-up blocked,
    // 19 without auth flow → 307 usable.
    assert_eq!(funnel.total, 404);
    assert_eq!(funnel.completed, 307);
    assert_eq!(funnel.unreachable, 22);
    assert_eq!(funnel.signup_blocked, 56);
    assert_eq!(funnel.no_auth_flow, 19);
    assert_eq!(funnel.signup_failed, 0);
    assert_eq!(funnel.quarantined, 0);
    assert_eq!(funnel.email_confirmed, 68);
    assert_eq!(funnel.bot_detection, 43);
    // The profile's flaky sites really failed and really were rescued.
    let rescued = dataset
        .crawls
        .iter()
        .filter(|c| c.resilience.as_ref().is_some_and(|r| r.rescued))
        .count();
    assert!(rescued > 0, "paper profile injects recoverable faults");
    // Unreachable sites exhausted the retry budget and delivered nothing.
    for crawl in &dataset.crawls {
        if crawl.outcome == CrawlOutcome::Unreachable {
            let res = crawl.resilience.as_ref().expect("measured crawl");
            assert_eq!(res.attempts, 3, "{} gave up early", crawl.domain);
            assert!(crawl.records.iter().all(|r| !r.delivered()));
        }
    }
}

#[test]
fn fault_injected_crawl_is_deterministic_across_worker_counts() {
    let u = universe();
    for profile in [
        FaultProfile::None,
        FaultProfile::PaperMay2021,
        FaultProfile::Hostile,
    ] {
        let run = |workers: usize| {
            let mut crawler = Crawler::new(u);
            crawler.workers = workers;
            crawler.faults = u.fault_plan(profile);
            dataset_json(&crawler.run(BrowserKind::Firefox88Vanilla))
        };
        let baseline = run(1);
        for workers in [1, 2, 3, 5, 8, 64] {
            assert_eq!(
                baseline,
                run(workers),
                "diverged at {workers} workers under {profile:?}"
            );
        }
    }
}

#[test]
fn hostile_profile_degrades_without_panicking_and_stays_deterministic() {
    let u = universe();
    let run = || {
        let mut crawler = Crawler::new(u);
        crawler.workers = 4;
        crawler.faults = u.fault_plan(FaultProfile::Hostile);
        crawler.run(BrowserKind::Firefox88Vanilla)
    };
    let dataset = run();
    let funnel = dataset.funnel();
    assert_eq!(funnel.total, 404, "every site is accounted for");
    assert_eq!(funnel.quarantined, 0);
    assert!(
        funnel.completed < 307,
        "hostile faults exceed the retry budget on some sites"
    );
    assert!(funnel.completed > 0, "but not on all of them");
    assert_eq!(dataset_json(&dataset), dataset_json(&run()));
}

#[test]
fn panicking_site_is_quarantined_while_the_rest_complete() {
    let u = universe();
    let victim = u
        .sender_sites()
        .nth(5)
        .map(|s| s.domain.clone())
        .expect("universe has senders");
    let mut plan = u.fault_plan(FaultProfile::PaperMay2021);
    plan.set(&victim, DomainSchedule::Panic);
    let mut crawler = Crawler::new(u);
    crawler.workers = 4;
    crawler.faults = plan;
    let dataset = crawler.run(BrowserKind::Firefox88Vanilla);
    let funnel = dataset.funnel();
    assert_eq!(funnel.total, 404);
    assert_eq!(funnel.quarantined, 1);
    assert_eq!(funnel.completed, 306, "only the victim is lost");
    assert_eq!(funnel.unreachable, 22);
    let crawl = dataset.site(&victim).expect("victim still has an entry");
    match &crawl.outcome {
        CrawlOutcome::Quarantined(reason) => {
            assert!(
                reason.contains("panic"),
                "reason records the cause: {reason}"
            )
        }
        other => panic!("victim should be quarantined, got {other:?}"),
    }
}

#[test]
fn retry_rescues_a_site_that_recovers_after_attempt_two() {
    let u = universe();
    let target = u
        .sender_sites()
        .next()
        .map(|s| s.domain.clone())
        .expect("universe has senders");
    let targets = vec![target.clone()];
    let mut plan = FaultPlan::none();
    plan.set(
        &target,
        DomainSchedule::Flaky {
            error: FetchError::ConnectTimeout,
            failures: 2,
        },
    );
    // Default policy (3 attempts): the third attempt lands, the site is
    // rescued, and the failed attempts are preserved as error records.
    let mut crawler = Crawler::new(u);
    crawler.faults = plan.clone();
    let dataset = crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
    let crawl = dataset.site(&target).expect("target crawled");
    assert!(crawl.outcome.completed(), "got {:?}", crawl.outcome);
    let res = crawl.resilience.as_ref().expect("fault-injected crawl");
    assert!(res.rescued);
    assert!(res.retries >= 2);
    assert!(res.virtual_ms > 0, "backoff consumed virtual time");
    assert!(crawl.records.iter().any(|r| r.error.is_some()));
    assert!(crawl.records.iter().any(|r| r.delivered()));
    // With only 2 attempts the fault never clears: the site is classified
    // unreachable from its observed failures.
    let mut impatient = Crawler::new(u);
    impatient.faults = plan;
    impatient.retry = RetryPolicy::with_max_attempts(2);
    let dataset = impatient.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
    let crawl = dataset.site(&target).expect("target crawled");
    assert_eq!(crawl.outcome, CrawlOutcome::Unreachable);
}

#[test]
fn study_reports_degradation_only_under_an_active_profile() {
    // Profile `none` leaves the study byte-identical to the plain pipeline
    // and renders no degradation section.
    let plain = Study::paper().run();
    let routed = Study::with_faults(FaultProfile::None).run();
    assert_eq!(plain.render_all(), routed.render_all());
    assert!(!plain.render_all().contains("Crawl degradation"));
    // The paper profile measures the funnel, keeps every §4–§5 headline, and
    // renders the degradation report.
    let faulted = Study::with_faults(FaultProfile::PaperMay2021).run();
    assert_eq!(faulted.dataset.funnel().completed, 307);
    assert_eq!(faulted.report.senders().len(), 130);
    let text = faulted.render_all();
    assert!(text.contains("Crawl degradation (fault profile: paper-may-2021)"));
    assert!(text.contains("sites rescued by retry"));
    let measured: Vec<_> = faulted
        .comparisons()
        .into_iter()
        .filter(|c| c.metric.starts_with("§3.2 funnel (measured)"))
        .collect();
    assert_eq!(measured.len(), 5);
    assert!(
        measured.iter().all(|c| c.matches),
        "measured funnel disagrees with §3.2: {measured:?}"
    );
}
