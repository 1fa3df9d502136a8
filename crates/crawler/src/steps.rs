//! The §3.2 authentication flow as one straight-line page walk.
//!
//! Every site is driven through the same page sequence: homepage →
//! sign-up → submit → optional confirmation → post-signup browsing, and —
//! when repeat visits are configured — warm-cache revisits. [`walk`]
//! encodes that sequence once, top to bottom, returning early at the first
//! page that decides the outcome. Page order, outcome mapping, and
//! failure-reason strings live here and only here.
//!
//! The walk runs in two modes, chosen by the [`PageRun`] it loads pages
//! through. *Config* mode (no fault plan) trusts `site.outcome` like the
//! original happy path and its page loads cannot fail; *measured* mode
//! retries each load per the policy and derives outcomes from the failures
//! the transport actually exhibited.

use crate::capture::{CrawlOutcome, SiteCrawl, SiteResilience};
use crate::retry::{RetryPolicy, SimClock};
use pii_browser::engine::{Browser, FetchRecord, PageContext};
use pii_net::fault::{FaultPlan, FetchError};
use pii_net::Url;
use pii_web::site::{BlockReason, Site, SiteOutcome};

/// Pages walked on every visit after the first (the account exists; the
/// caches are warm). PII is known throughout.
const REVISIT_PAGES: [&str; 3] = ["/", "/account", "/products/1"];

/// Pages walked after sign-up completes on the first visit.
const POST_SIGNUP_PAGES: [&str; 3] = ["/signin", "/account", "/products/1"];

/// One page's terminal failure: the error of the last attempt and how many
/// attempts were spent.
pub(crate) struct PageFailure {
    error: FetchError,
    attempts: u32,
}

impl PageFailure {
    /// A sign-up step that kept failing reads as "sign-up blocked", with
    /// the observed fault as the reason.
    fn blocked(self, path: &str) -> CrawlOutcome {
        CrawlOutcome::SignupBlocked(format!(
            "{} on {path} after {} attempts",
            self.error, self.attempts
        ))
    }
}

/// Walk `site` through the §3.2 page sequence, loading every page through
/// `run` (which keeps the records), and return the crawl's outcome. `base`
/// is the site's homepage URL, the fallback for a path that forms no URL.
pub(crate) fn walk(
    browser: &mut Browser<'_>,
    site: &Site,
    base: &Url,
    run: &mut PageRun<'_>,
    repeat: u32,
) -> CrawlOutcome {
    let measured = run.measured();
    let page =
        |path: &str| -> Url { crate::flow::site_url(site, path).unwrap_or_else(|| base.clone()) };
    if !measured && site.outcome == SiteOutcome::Unreachable {
        return CrawlOutcome::Unreachable;
    }
    // A front door that never answers is, on the wire, what "unreachable"
    // means.
    if run
        .load(browser, site, &PageContext::get(page("/"), "/", false))
        .is_err()
    {
        return CrawlOutcome::Unreachable;
    }
    // Content-driven: the homepage rendered and offers no sign-up form.
    if site.outcome == SiteOutcome::NoAuthFlow {
        return CrawlOutcome::NoAuthFlow;
    }
    // Persistent failure here (bot walls answer 5xx on /signup forever)
    // reads as "sign-up blocked".
    let signup = PageContext::get(page("/signup"), "/signup", false);
    if let Err(failure) = run.load(browser, site, &signup) {
        return failure.blocked("/signup");
    }
    if let (false, SiteOutcome::SignupBlocked(reason)) = (measured, &site.outcome) {
        return CrawlOutcome::SignupBlocked(
            match reason {
                BlockReason::PhoneVerification => "phone verification required",
                BlockReason::IdentityDocuments => "identity documents required",
                BlockReason::GeoBlocked => "account creation blocked for global customers",
            }
            .to_string(),
        );
    }
    if !browser.signup_can_complete(site) {
        // Brave Shields vs. nykaa.com's CAPTCHA.
        return CrawlOutcome::SignupFailed("shields broke CAPTCHA verification".to_string());
    }
    // Submit the filled form.
    let submit = PageContext {
        document_url: browser.form_submit_url(site),
        path: "/welcome".into(),
        pii_known: true,
        form_post: browser.form_post_body(site),
    };
    if let Err(failure) = run.load(browser, site, &submit) {
        return failure.blocked("/welcome");
    }
    // The site's flow shape (confirmation email, bot detection) is content,
    // not transport; it comes from the site itself.
    let (email_confirmation, bot_detection) = match &site.outcome {
        SiteOutcome::Ok {
            email_confirmation,
            bot_detection,
        } => (*email_confirmation, *bot_detection),
        _ => (false, false),
    };
    if email_confirmation {
        // "We open another browser and got the email confirmation link."
        let confirm = page("/confirm").with_query_param("token", "c0nf1rm");
        if let Err(failure) = run.load(browser, site, &PageContext::get(confirm, "/confirm", true))
        {
            return failure.blocked("/confirm");
        }
    }
    // Post-signup browsing, then each revisit against warm caches. The
    // account exists now, so a lost page only costs its traffic — failures
    // no longer disqualify.
    for path in POST_SIGNUP_PAGES {
        let _ = run.load(browser, site, &PageContext::get(page(path), path, true));
    }
    for _ in 1..repeat.max(1) {
        browser.advance_visit();
        for path in REVISIT_PAGES {
            let _ = run.load(browser, site, &PageContext::get(page(path), path, true));
        }
    }
    CrawlOutcome::Completed {
        email_confirmed: email_confirmation,
        bot_detection_passed: bot_detection,
    }
}

/// Page-load state for one site's crawl: the records so far and, in
/// measured mode, the retry loop's bookkeeping. The bookkeeping order inside
/// [`PageRun::load`] is part of the capture's byte-identity contract.
pub(crate) struct PageRun<'p> {
    /// The fault plan and retry policy of a measured crawl; `None` in
    /// config mode.
    faults: Option<(&'p FaultPlan, &'p RetryPolicy)>,
    clock: SimClock,
    resilience: SiteResilience,
    records: Vec<FetchRecord>,
}

impl<'p> PageRun<'p> {
    pub(crate) fn new(faults: Option<(&'p FaultPlan, &'p RetryPolicy)>) -> PageRun<'p> {
        PageRun {
            faults,
            clock: SimClock::default(),
            resilience: SiteResilience::default(),
            records: Vec::new(),
        }
    }

    fn measured(&self) -> bool {
        self.faults.is_some()
    }

    /// Load one page to completion, retrying per the policy. Failed
    /// attempts stay in the capture as aborted records; backoff advances
    /// the virtual clock only. In config mode the load cannot fail.
    pub(crate) fn load(
        &mut self,
        browser: &mut Browser<'_>,
        site: &Site,
        ctx: &PageContext,
    ) -> Result<(), PageFailure> {
        let Some((plan, retry)) = self.faults else {
            self.records.append(&mut browser.load_page(site, ctx));
            return Ok(());
        };
        let mut attempt = 1u32;
        loop {
            browser.set_fault_attempt(attempt);
            self.resilience.attempts += 1;
            match browser.load_page_checked(site, ctx) {
                Ok(mut records) => {
                    if attempt > 1 {
                        self.resilience.rescued = true;
                        pii_telemetry::counter("crawler.rescued_pages", 1);
                    }
                    self.records.append(&mut records);
                    return Ok(());
                }
                Err(failure) => {
                    self.resilience.errors.push(format!(
                        "{}@{}#{attempt}",
                        failure.error.label(),
                        ctx.path
                    ));
                    self.records.push(*failure.record);
                    let delay = retry.backoff_ms(plan, &site.domain, attempt);
                    let out_of_attempts = attempt >= retry.max_attempts;
                    let out_of_budget = !retry.budget_allows(self.clock.now_ms(), delay);
                    if out_of_attempts || out_of_budget {
                        return Err(PageFailure {
                            error: failure.error,
                            attempts: attempt,
                        });
                    }
                    self.clock.advance(delay);
                    self.resilience.retries += 1;
                    pii_telemetry::counter("crawler.retries", 1);
                    pii_telemetry::observe("crawler.backoff_ms", delay);
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// Seal the crawl with its outcome; only a measured crawl carries
    /// resilience accounting.
    pub(crate) fn finish(
        mut self,
        browser: &mut Browser<'_>,
        site: &Site,
        outcome: CrawlOutcome,
    ) -> SiteCrawl {
        browser.set_fault_attempt(1);
        self.resilience.virtual_ms = self.clock.now_ms();
        SiteCrawl {
            domain: site.domain.clone(),
            outcome,
            records: self.records,
            stored_cookies: browser.jar().all().into_iter().cloned().collect(),
            resilience: self.faults.is_some().then_some(self.resilience),
        }
    }
}
