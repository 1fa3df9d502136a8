//! # pii-crawler
//!
//! The §3.2 measurement pipeline: drive the simulated browser through every
//! site's authentication flow like the paper's human operator did, and
//! capture "HTTP requests (URLs, headers, and payload body — if any), HTTP
//! responses (URLs and headers), and cookies (both those set/sent and a copy
//! of stored browser cookies)".
//!
//! The flow per crawlable site:
//!
//! 1. visit the homepage,
//! 2. open the sign-up form and fill it with the persona,
//! 3. submit (GET forms navigate with the PII in the URL),
//! 4. follow the email-confirmation link when the site requires it,
//! 5. sign in with the created account,
//! 6. reload the site logged-in,
//! 7. click through to a product subpage.
//!
//! [`Crawler::run`] fans sites out over [`pool`], the worker pool that
//! archive replay and sharded detection run on too. The pool hands results
//! on in site order, and the browser engine is deterministic, so a crawl's
//! output depends only on the seed and flags, never on the worker count.
//!
//! Under a non-inert [`pii_net::fault::FaultPlan`] the crawler switches from
//! the config-driven happy path to a *measured* crawl: every page load is
//! retried per [`retry::RetryPolicy`], sites are classified from the faults
//! they actually exhibited, and a site whose crawl panics is retried once
//! on a fresh browser and then quarantined — the crawl itself never aborts.

#![forbid(unsafe_code)]

pub mod capture;
pub mod flow;
pub mod har;
mod pool;
pub mod retry;
mod steps;

pub use capture::{CrawlDataset, CrawlOutcome, FunnelStats, SiteCrawl, SiteResilience};
pub use flow::{CrawlSink, CrawlSummary, Crawler};
pub use pool::pool;
pub use retry::{RetryPolicy, SimClock};
