//! The §3.2 authentication flow as an explicit state machine.
//!
//! Every site is driven through the same page sequence: homepage →
//! sign-up → submit → optional confirmation → post-signup browsing, and —
//! when repeat visits are configured — warm-cache revisits. [`SiteFlow`]
//! encodes that sequence once, as a pull-based machine: the crawl loop asks
//! for the next [`FlowStep`], performs it, and reports the result back on
//! the next call. Page order, outcome mapping, and failure-reason strings
//! live here and only here.
//!
//! The machine runs in two modes. *Config* mode (no fault plan) trusts
//! `site.outcome` like the original happy path; *measured* mode derives
//! outcomes from the failures the transport actually exhibited, consulting
//! the [`PageFailure`] the crawl loop passes back in.

use crate::capture::{CrawlOutcome, SiteCrawl, SiteResilience};
use crate::retry::{RetryPolicy, SimClock};
use pii_browser::engine::{Browser, FetchRecord, PageContext};
use pii_net::fault::{FaultPlan, FetchError};
use pii_net::Url;
use pii_web::site::{BlockReason, Site, SiteOutcome};

/// Pages walked on every visit after the first (the account exists; the
/// caches are warm). PII is known throughout.
pub(crate) const REVISIT_PAGES: [&str; 3] = ["/", "/account", "/products/1"];

/// Pages walked after sign-up completes on the first visit.
const POST_SIGNUP_PAGES: [&str; 3] = ["/signin", "/account", "/products/1"];

/// One page's terminal failure: the error of the last attempt and how many
/// attempts were spent.
pub(crate) struct PageFailure {
    error: FetchError,
    attempts: u32,
}

/// What the crawl loop should do next with this site.
pub(crate) enum FlowStep {
    /// Load this page (with retries, in measured mode), then call
    /// [`SiteFlow::next`] again with the result.
    Load(PageContext),
    /// The visit finished and another is configured: advance the browser's
    /// cache clock (`Browser::advance_visit`) and continue.
    NextVisit,
    /// The crawl is over.
    Finish(CrawlOutcome),
}

enum Stage {
    Start,
    /// The homepage load finished.
    Home,
    /// The `/signup` load finished.
    Signup,
    /// The form-submission (`/welcome`) load finished.
    Submit,
    /// The `/confirm` load finished.
    Confirm,
    /// `POST_SIGNUP_PAGES[i]` finished.
    Post(usize),
    /// Visit `visit` is about to start (after the cache-clock advance).
    VisitGap(u32),
    /// `REVISIT_PAGES[p]` of visit `visit` finished.
    Revisit(u32, usize),
    Done,
}

/// See the module docs.
pub(crate) struct SiteFlow {
    /// Measured mode: outcomes derive from observed transport failures.
    measured: bool,
    /// Total visits (1 = the paper's one-shot crawl, no revisits).
    repeat: u32,
    stage: Stage,
    email_confirmation: bool,
    bot_detection: bool,
}

impl SiteFlow {
    pub(crate) fn new(measured: bool, repeat: u32) -> SiteFlow {
        SiteFlow {
            measured,
            repeat: repeat.max(1),
            stage: Stage::Start,
            email_confirmation: false,
            bot_detection: false,
        }
    }

    /// Advance the machine. `failed` is the terminal failure of the load
    /// the previous `Load` step requested (always `None` in config mode,
    /// where page loads cannot fail).
    pub(crate) fn next(
        &mut self,
        browser: &Browser<'_>,
        site: &Site,
        base: &Url,
        failed: Option<&PageFailure>,
    ) -> FlowStep {
        let page = |path: &str| -> Url {
            crate::flow::site_url(site, path).unwrap_or_else(|| base.clone())
        };
        match self.stage {
            Stage::Start => {
                if !self.measured && site.outcome == SiteOutcome::Unreachable {
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::Unreachable);
                }
                self.stage = Stage::Home;
                FlowStep::Load(PageContext::get(page("/"), "/", false))
            }
            Stage::Home => {
                // A front door that never answers is, on the wire, what
                // "unreachable" means.
                if self.measured && failed.is_some() {
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::Unreachable);
                }
                // Content-driven: the homepage rendered and offers no
                // sign-up form.
                if site.outcome == SiteOutcome::NoAuthFlow {
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::NoAuthFlow);
                }
                self.stage = Stage::Signup;
                FlowStep::Load(PageContext::get(page("/signup"), "/signup", false))
            }
            Stage::Signup => {
                // Persistent failure here (bot walls answer 5xx on /signup
                // forever) reads as "sign-up blocked", with the observed
                // fault as the reason.
                if let Some(failure) = failed.filter(|_| self.measured) {
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::SignupBlocked(format!(
                        "{} on /signup after {} attempts",
                        failure.error, failure.attempts
                    )));
                }
                if !self.measured {
                    if let SiteOutcome::SignupBlocked(reason) = &site.outcome {
                        self.stage = Stage::Done;
                        return FlowStep::Finish(CrawlOutcome::SignupBlocked(
                            match reason {
                                BlockReason::PhoneVerification => "phone verification required",
                                BlockReason::IdentityDocuments => "identity documents required",
                                BlockReason::GeoBlocked => {
                                    "account creation blocked for global customers"
                                }
                            }
                            .to_string(),
                        ));
                    }
                }
                if !browser.signup_can_complete(site) {
                    // Brave Shields vs. nykaa.com's CAPTCHA.
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::SignupFailed(
                        "shields broke CAPTCHA verification".to_string(),
                    ));
                }
                // Submit the filled form.
                self.stage = Stage::Submit;
                FlowStep::Load(PageContext {
                    document_url: browser.form_submit_url(site),
                    path: "/welcome".into(),
                    pii_known: true,
                    form_post: browser.form_post_body(site),
                })
            }
            Stage::Submit => {
                if let Some(failure) = failed.filter(|_| self.measured) {
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::SignupBlocked(format!(
                        "{} on /welcome after {} attempts",
                        failure.error, failure.attempts
                    )));
                }
                // The site's flow shape (confirmation email, bot detection)
                // is content, not transport; it comes from the site itself.
                (self.email_confirmation, self.bot_detection) = match &site.outcome {
                    SiteOutcome::Ok {
                        email_confirmation,
                        bot_detection,
                    } => (*email_confirmation, *bot_detection),
                    _ => (false, false),
                };
                if self.email_confirmation {
                    // "We open another browser and got the email
                    // confirmation link."
                    let confirm = page("/confirm").with_query_param("token", "c0nf1rm");
                    self.stage = Stage::Confirm;
                    return FlowStep::Load(PageContext::get(confirm, "/confirm", true));
                }
                self.stage = Stage::Post(0);
                FlowStep::Load(PageContext::get(
                    page(POST_SIGNUP_PAGES[0]),
                    POST_SIGNUP_PAGES[0],
                    true,
                ))
            }
            Stage::Confirm => {
                if let Some(failure) = failed.filter(|_| self.measured) {
                    self.stage = Stage::Done;
                    return FlowStep::Finish(CrawlOutcome::SignupBlocked(format!(
                        "{} on /confirm after {} attempts",
                        failure.error, failure.attempts
                    )));
                }
                self.stage = Stage::Post(0);
                FlowStep::Load(PageContext::get(
                    page(POST_SIGNUP_PAGES[0]),
                    POST_SIGNUP_PAGES[0],
                    true,
                ))
            }
            // Post-signup browsing. The account exists now, so a lost page
            // only costs its traffic — failures no longer disqualify.
            Stage::Post(done) => match POST_SIGNUP_PAGES.get(done + 1) {
                Some(path) => {
                    self.stage = Stage::Post(done + 1);
                    FlowStep::Load(PageContext::get(page(path), path, true))
                }
                None => self.visit_finished(1),
            },
            Stage::VisitGap(visit) => {
                self.stage = Stage::Revisit(visit, 0);
                FlowStep::Load(PageContext::get(
                    page(REVISIT_PAGES[0]),
                    REVISIT_PAGES[0],
                    true,
                ))
            }
            Stage::Revisit(visit, done) => match REVISIT_PAGES.get(done + 1) {
                Some(path) => {
                    self.stage = Stage::Revisit(visit, done + 1);
                    FlowStep::Load(PageContext::get(page(path), path, true))
                }
                None => self.visit_finished(visit),
            },
            // Defensive: a caller that keeps polling a finished flow gets
            // a quarantine, not an infinite loop.
            Stage::Done => FlowStep::Finish(CrawlOutcome::Quarantined(
                "flow advanced past completion".to_string(),
            )),
        }
    }

    /// Visit `visit` just finished successfully: start the next one or seal
    /// the crawl as completed.
    fn visit_finished(&mut self, visit: u32) -> FlowStep {
        if visit < self.repeat {
            self.stage = Stage::VisitGap(visit + 1);
            return FlowStep::NextVisit;
        }
        self.stage = Stage::Done;
        FlowStep::Finish(CrawlOutcome::Completed {
            email_confirmed: self.email_confirmation,
            bot_detection_passed: self.bot_detection,
        })
    }
}

/// Retry-loop state for one site's measured crawl. The bookkeeping order
/// inside [`PageRun::load`] is part of the capture's byte-identity contract.
pub(crate) struct PageRun<'p> {
    plan: &'p FaultPlan,
    retry: &'p RetryPolicy,
    clock: SimClock,
    resilience: SiteResilience,
    records: Vec<FetchRecord>,
}

impl<'p> PageRun<'p> {
    pub(crate) fn new(plan: &'p FaultPlan, retry: &'p RetryPolicy) -> PageRun<'p> {
        PageRun {
            plan,
            retry,
            clock: SimClock::default(),
            resilience: SiteResilience::default(),
            records: Vec::new(),
        }
    }

    /// Load one page to completion, retrying per the policy. Failed
    /// attempts stay in the capture as aborted records; backoff advances
    /// the virtual clock only.
    pub(crate) fn load(
        &mut self,
        browser: &mut Browser<'_>,
        site: &Site,
        ctx: &PageContext,
    ) -> Result<(), PageFailure> {
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
                    let delay = self.retry.backoff_ms(self.plan, &site.domain, attempt);
                    let out_of_attempts = attempt >= self.retry.max_attempts;
                    let out_of_budget = !self.retry.budget_allows(self.clock.now_ms(), delay);
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

    /// Seal the crawl with its measured outcome.
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
            resilience: Some(self.resilience),
        }
    }
}
