//! The authentication-flow driver.

use crate::capture::{CrawlDataset, CrawlOutcome, SiteCrawl};
use crate::pool::{DeliveryBoard, PanicLedger};
use crate::retry::RetryPolicy;
use crate::steps::{walk, PageRun};
use parking_lot::Mutex;
use pii_browser::engine::Browser;
use pii_browser::profiles::BrowserKind;
use pii_dns::PublicSuffixList;
use pii_net::cache::CacheStrategy;
use pii_net::fault::FaultPlan;
use pii_net::Url;
use pii_web::site::Site;
use pii_web::Universe;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Observer for [`Crawler::run_streaming`]: called with the site's
/// canonical index and its finished crawl, from whichever worker thread
/// completed the shard (hence `Sync`).
pub type CrawlSink<'a> = &'a (dyn Fn(usize, &SiteCrawl) + Sync);

/// What a streaming crawl returns instead of a materialized dataset: the
/// funnel accounting accumulated shard by shard. The crawls themselves went
/// to the sink and were dropped — the pool never held more than the shards
/// in flight.
#[derive(Debug, Clone)]
pub struct CrawlSummary {
    pub browser: BrowserKind,
    pub funnel: crate::capture::FunnelStats,
}

/// Drives browsers through the site universe.
pub struct Crawler<'a> {
    universe: &'a Universe,
    psl: PublicSuffixList,
    /// Worker threads for the crawl fan-out.
    pub workers: usize,
    /// Transport faults to inject. The default (inert) plan keeps the
    /// config-driven happy path byte for byte; any non-inert plan switches
    /// to the measured crawl, where outcomes derive from observed faults.
    pub faults: FaultPlan,
    /// Retry/backoff policy for the measured crawl.
    pub retry: RetryPolicy,
    /// Per-site virtual-time deadline. A measured crawl whose `SimClock`
    /// exceeds this many virtual milliseconds (retry backoff is the only
    /// thing that advances it) is quarantined instead of stalling the run —
    /// the simulation's equivalent of a watchdog killing a hung worker.
    /// `None` (the default) disables the deadline; the decision depends only
    /// on the seeded fault schedule, never on wall-clock or scheduling, so
    /// a watchdogged run is exactly as deterministic as a plain one.
    pub watchdog_ms: Option<u64>,
    /// HTTP cache strategy handed to every browser. `None` (the default)
    /// disables the cache, preserving the historical capture byte for byte.
    pub cache: Option<CacheStrategy>,
    /// Visits per site. 1 (the default) is the paper's one-shot crawl; more
    /// replays the revisit pages against warm caches, with the cache clock
    /// advanced between visits.
    pub repeat: u32,
}

impl<'a> Crawler<'a> {
    pub fn new(universe: &'a Universe) -> Crawler<'a> {
        Crawler {
            universe,
            psl: PublicSuffixList::embedded(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            watchdog_ms: None,
            cache: None,
            repeat: 1,
        }
    }

    /// Crawl every site with the given browser profile.
    pub fn run(&self, kind: BrowserKind) -> CrawlDataset {
        self.run_on(kind, None)
    }

    /// Crawl a subset of sites into a materialized dataset, in universe
    /// order. The analysis passes crawl and detect through `pii-analysis`'s
    /// study fold instead; this collector serves [`Crawler::run`], tests and
    /// examples.
    pub fn run_on(&self, kind: BrowserKind, filter: Option<&[String]>) -> CrawlDataset {
        // The materialized view is itself just a consumer of the streaming
        // pool: collect the shards, then restore canonical site order.
        let results: Mutex<Vec<(usize, SiteCrawl)>> = Mutex::new(Vec::new());
        let browser = self.run_pool(kind.profile(), filter, &|index, crawl| {
            results.lock().push((index, crawl));
        });
        let mut results = results.into_inner();
        results.sort_by_key(|(i, _)| *i);
        CrawlDataset {
            browser,
            crawls: results.into_iter().map(|(_, crawl)| crawl).collect(),
        }
    }

    /// Streaming crawl: hands each site's finished crawl to `sink` the
    /// moment its shard completes (from whichever worker thread crawled it —
    /// completion order, not site order) and then **drops it**, returning
    /// only the accumulated funnel. Peak memory is bounded by the shards in
    /// flight, not the universe size; the streaming archive writer hangs off
    /// this hook so a capture is persisted as it happens. The `usize` is the
    /// site's canonical index, which lets consumers restore universe order.
    pub fn run_streaming(&self, kind: BrowserKind, sink: CrawlSink<'_>) -> CrawlSummary {
        self.run_streaming_on(kind, None, sink)
    }

    /// [`Crawler::run_streaming`] over a subset of sites — the resume path
    /// recrawls only the sites missing from a partial archive. With a
    /// filter, the index handed to `sink` is the site's position within the
    /// filtered subset (which preserves universe order); the caller maps it
    /// back to the canonical index, since only the caller knows which sites
    /// it asked for.
    pub fn run_streaming_on(
        &self,
        kind: BrowserKind,
        filter: Option<&[String]>,
        sink: CrawlSink<'_>,
    ) -> CrawlSummary {
        let funnel = Mutex::new(crate::capture::FunnelStats::default());
        self.run_pool(kind.profile(), filter, &|index, crawl| {
            sink(index, &crawl);
            funnel.lock().observe(&crawl.outcome);
        });
        CrawlSummary {
            browser: kind,
            funnel: funnel.into_inner(),
        }
    }

    /// The worker pool underneath every crawl: one OS thread per worker,
    /// sites claimed from a shared queue. `deliver` receives every site
    /// exactly once, by value, with its index into the (filtered) site
    /// list: completed shards in completion order from the worker threads,
    /// then — after the pool drains — a quarantined placeholder in index
    /// order for any site nobody delivered (worker lost outside the panic
    /// guard), so no site is silently dropped. The pool itself holds no
    /// results; a consumer that needs site order restores it.
    pub fn run_pool(
        &self,
        profile: pii_browser::profiles::BrowserProfile,
        filter: Option<&[String]>,
        deliver: &(dyn Fn(usize, SiteCrawl) + Sync),
    ) -> BrowserKind {
        let sites = self.site_list(filter);
        let plan = (!self.faults.is_inert()).then_some(&self.faults);
        let board = DeliveryBoard::new(sites.len());
        let ledger = PanicLedger::new(sites.len());
        let next = AtomicUsize::new(0);
        // Sites whose worker panicked, tagged with the panicking worker so a
        // *different* worker retries them when possible.
        let requeued: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        // Every panic is caught inside the worker loop, so the scope result
        // carries no information; if a worker still died, the affected sites
        // surface as quarantined through the gap-fill below instead of
        // aborting the crawl.
        let _ = crossbeam::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(self.workers.max(1));
            for worker_id in 0..self.workers.max(1) {
                let (next, requeued, ledger) = (&next, &requeued, &ledger);
                let (sites, board, profile) = (&sites, &board, &profile);
                workers.push(scope.spawn(move |_| {
                    let mut browser = self.fresh_browser(profile, plan);
                    loop {
                        // Requeued sites take priority; a worker skips its
                        // own casualties until the fresh queue is drained,
                        // after which anyone may take them (no deadlock when
                        // only the panicking worker is left).
                        let fresh_done = next.load(Ordering::Relaxed) >= sites.len();
                        let retried = {
                            let mut queue = requeued.lock();
                            queue
                                .iter()
                                .position(|&(_, from)| from != worker_id)
                                .or_else(|| (fresh_done && !queue.is_empty()).then_some(0))
                                .map(|pos| queue.remove(pos))
                        };
                        let index = match retried {
                            Some((index, _)) => index,
                            None => {
                                let index = next.fetch_add(1, Ordering::Relaxed);
                                if index >= sites.len() {
                                    if requeued.lock().is_empty() {
                                        break;
                                    }
                                    continue;
                                }
                                index
                            }
                        };
                        let attempt = {
                            let mut span = pii_telemetry::span("crawl.site");
                            span.add_arg("site", &sites[index].domain);
                            let browser = &mut browser;
                            let attempt =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                    let crawl = crawl_site(
                                        browser,
                                        sites[index],
                                        plan,
                                        &self.retry,
                                        self.repeat,
                                    );
                                    apply_watchdog(crawl, self.watchdog_ms)
                                }));
                            if let Ok(crawl) = &attempt {
                                if let Some(res) = &crawl.resilience {
                                    span.set_virtual_ms(res.virtual_ms);
                                }
                            }
                            attempt
                        };
                        match attempt {
                            Ok(crawl) => {
                                pii_telemetry::counter("crawler.sites", 1);
                                // Per-worker site claims are a scheduling
                                // artifact, not a seed artifact; the name is
                                // dynamic, so skip even the format when off.
                                if pii_telemetry::enabled() {
                                    pii_telemetry::counter(
                                        &format!("crawler.worker.{worker_id}.sites"),
                                        1,
                                    );
                                }
                                board.mark(index);
                                deliver(index, crawl);
                            }
                            Err(payload) => {
                                pii_telemetry::counter("crawler.panics", 1);
                                // State of an unwound browser is suspect:
                                // rebuild before the next site.
                                browser = self.fresh_browser(profile, plan);
                                let reason = panic_reason(payload.as_ref());
                                if ledger.first_panic(index) {
                                    requeued.lock().push((index, worker_id));
                                } else {
                                    let crawl = quarantined(
                                        sites[index],
                                        format!("crawl worker panicked twice: {reason}"),
                                    );
                                    board.mark(index);
                                    deliver(index, crawl);
                                }
                            }
                        }
                    }
                }));
            }
            // The scope itself waits only for the workers' closures to
            // return. Joining waits for each thread to exit, which is when
            // the allocator releases the thread's arena. Unjoined, the next
            // pool's worker can find that arena still attached and start
            // another, and the resident memory of back-to-back crawls then
            // varies from run to run. A join error is a worker lost outside
            // the panic guard; the gap-fill covers it.
            for worker in workers {
                let _ = worker.join();
            }
        });
        // Gap-fill: a site nobody delivered (worker lost outside the panic
        // guard) is quarantined rather than silently dropped.
        board.fill_gaps(|index| {
            deliver(
                index,
                quarantined(sites[index], "crawl worker lost".to_string()),
            );
        });
        profile.kind
    }

    /// Resolve the optional domain filter against the universe, preserving
    /// universe order.
    fn site_list(&self, filter: Option<&[String]>) -> Vec<&Site> {
        // Hash the filter once: the resume path passes hundreds of missing
        // domains, and a per-site linear scan over that list is O(n·m).
        let filter: Option<std::collections::HashSet<&str>> =
            filter.map(|f| f.iter().map(|d| d.as_str()).collect());
        self.universe
            .sites
            .iter()
            .filter(|s| {
                filter
                    .as_ref()
                    .is_none_or(|f| f.contains(s.domain.as_str()))
            })
            .collect()
    }

    fn fresh_browser<'b>(
        &'b self,
        profile: &pii_browser::profiles::BrowserProfile,
        plan: Option<&'b FaultPlan>,
    ) -> Browser<'b> {
        let mut browser = Browser::with_profile(
            profile.clone(),
            &self.psl,
            &self.universe.zones,
            &self.universe.persona,
        );
        browser.set_fault_plan(plan);
        browser.set_cache_strategy(self.cache);
        browser
    }
}

/// Quarantine a crawl whose virtual clock blew past the watchdog deadline.
/// The traffic of a site that would have hung the run is discarded (as a
/// killed worker's would be), but its resilience accounting is kept so the
/// degradation report can say *why* the site was given up on.
fn apply_watchdog(crawl: SiteCrawl, watchdog_ms: Option<u64>) -> SiteCrawl {
    let Some(limit) = watchdog_ms else {
        return crawl;
    };
    let spent = match &crawl.resilience {
        Some(res) if res.virtual_ms > limit => res.virtual_ms,
        _ => return crawl,
    };
    pii_telemetry::counter("crawler.watchdog_quarantined", 1);
    SiteCrawl {
        domain: crawl.domain,
        outcome: CrawlOutcome::Quarantined(format!(
            "watchdog: {spent} virtual ms exceeded the {limit} ms per-site deadline"
        )),
        records: Vec::new(),
        stored_cookies: Vec::new(),
        resilience: crawl.resilience,
    }
}

/// A site the pool gave up on after repeated worker panics.
fn quarantined(site: &Site, reason: String) -> SiteCrawl {
    pii_telemetry::counter("crawler.quarantined", 1);
    SiteCrawl {
        domain: site.domain.clone(),
        outcome: CrawlOutcome::Quarantined(reason),
        records: Vec::new(),
        stored_cookies: Vec::new(),
        resilience: None,
    }
}

/// Human-readable reason out of a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Build a page URL on `site`. `None` when the domain itself cannot form a
/// valid URL — such a site is isolated, never crashed on.
pub(crate) fn site_url(site: &Site, path: &str) -> Option<Url> {
    Url::parse(&format!("https://{}{}", site.domain, path)).ok()
}

/// Run the full §3.2 flow against one site. Without a fault plan the
/// configured outcome is trusted; with one, the outcome is *measured* from
/// the faults the transport actually exhibited, not read from the site's
/// configuration. (Without a schedule in the plan, every site behaves
/// perfectly — the configured funnel emerges only because the plan was
/// derived from the universe.) The page sequence lives in [`walk`].
fn crawl_site(
    browser: &mut Browser,
    site: &Site,
    plan: Option<&FaultPlan>,
    retry: &RetryPolicy,
    repeat: u32,
) -> SiteCrawl {
    browser.reset();
    let Some(base) = site_url(site, "/") else {
        return quarantined(site, "site domain does not form a valid URL".to_string());
    };
    let mut run = PageRun::new(plan.map(|plan| (plan, retry)));
    let outcome = walk(browser, site, &base, &mut run, repeat);
    run.finish(browser, site, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::FunnelStats;
    use pii_web::site::SiteOutcome;

    fn dataset() -> (Universe, CrawlDataset) {
        let u = Universe::generate();
        let crawler = Crawler::new(&u);
        let ds = crawler.run(BrowserKind::Firefox88Vanilla);
        (u, ds)
    }

    #[test]
    fn funnel_reproduces_section_3_2() {
        let (_u, ds) = dataset();
        let f = ds.funnel();
        assert_eq!(
            f,
            FunnelStats {
                total: 404,
                completed: 307,
                unreachable: 22,
                no_auth_flow: 19,
                signup_blocked: 56,
                signup_failed: 0,
                email_confirmed: 68,
                bot_detection: 43,
                quarantined: 0,
            }
        );
    }

    #[test]
    fn crawl_is_deterministic_despite_threads() {
        let u = Universe::generate();
        let crawler = Crawler::new(&u);
        let a = crawler.run(BrowserKind::Firefox88Vanilla);
        let b = crawler.run(BrowserKind::Firefox88Vanilla);
        assert_eq!(a.crawls.len(), b.crawls.len());
        for (x, y) in a.crawls.iter().zip(&b.crawls) {
            assert_eq!(x.domain, y.domain);
            assert_eq!(x.records.len(), y.records.len(), "{}", x.domain);
            for (rx, ry) in x.records.iter().zip(&y.records) {
                assert_eq!(rx.request, ry.request, "{}", x.domain);
            }
        }
    }

    #[test]
    fn completed_crawls_have_full_flow_traffic() {
        let (u, ds) = dataset();
        let sender = u.sender_sites().next().unwrap();
        let crawl = ds.site(&sender.domain).unwrap();
        assert!(crawl.outcome.completed());
        // At least: 6 document loads + subresources.
        let documents = crawl
            .records
            .iter()
            .filter(|r| r.request.kind == pii_net::http::ResourceKind::Document)
            .count();
        assert!(documents >= 6, "expected ≥6 documents, got {documents}");
        assert!(!crawl.stored_cookies.is_empty());
    }

    #[test]
    fn unreachable_sites_produce_no_traffic() {
        let (u, ds) = dataset();
        let dead = u
            .sites
            .iter()
            .find(|s| s.outcome == SiteOutcome::Unreachable)
            .unwrap();
        let crawl = ds.site(&dead.domain).unwrap();
        assert_eq!(crawl.outcome, CrawlOutcome::Unreachable);
        assert!(crawl.records.is_empty());
    }

    #[test]
    fn brave_fails_exactly_nykaa() {
        let u = Universe::generate();
        let crawler = Crawler::new(&u);
        let ds = crawler.run(BrowserKind::Brave129);
        let failed: Vec<&str> = ds
            .crawls
            .iter()
            .filter(|c| matches!(c.outcome, CrawlOutcome::SignupFailed(_)))
            .map(|c| c.domain.as_str())
            .collect();
        assert_eq!(failed, vec!["nykaa.com"]);
        assert_eq!(ds.funnel().completed, 306);
    }

    #[test]
    fn watchdog_quarantines_only_sites_over_the_virtual_deadline() {
        let u = Universe::generate();
        let mut crawler = Crawler::new(&u);
        crawler.faults = u.fault_plan(pii_net::fault::FaultProfile::Hostile);
        let baseline = crawler.run(BrowserKind::Firefox88Vanilla);
        // Deadline below the slowest site but above the fastest retried one:
        // some (not all) sites must trip it.
        let max_ms = baseline
            .crawls
            .iter()
            .filter_map(|c| c.resilience.as_ref())
            .map(|r| r.virtual_ms)
            .max()
            .expect("hostile profile produces retried sites");
        assert!(max_ms > 0, "hostile profile should advance virtual time");
        crawler.watchdog_ms = Some(max_ms / 2);
        let dogged = crawler.run(BrowserKind::Firefox88Vanilla);
        let mut tripped = 0;
        for (plain, watched) in baseline.crawls.iter().zip(&dogged.crawls) {
            let spent = plain.resilience.as_ref().map_or(0, |r| r.virtual_ms);
            if spent > max_ms / 2 {
                tripped += 1;
                match &watched.outcome {
                    CrawlOutcome::Quarantined(reason) => {
                        assert!(reason.starts_with("watchdog:"), "{reason}")
                    }
                    other => panic!("{} should be watchdogged, got {other:?}", plain.domain),
                }
                assert!(watched.records.is_empty());
                // Resilience survives so degradation can account for it.
                assert_eq!(watched.resilience, plain.resilience);
            } else {
                assert_eq!(watched.outcome, plain.outcome, "{}", plain.domain);
            }
        }
        assert!(tripped > 0, "deadline of {}ms tripped nothing", max_ms / 2);
        // And the watchdogged run is itself deterministic.
        let again = crawler.run(BrowserKind::Firefox88Vanilla);
        for (a, b) in dogged.crawls.iter().zip(&again.crawls) {
            assert_eq!(a.outcome, b.outcome, "{}", a.domain);
        }
    }

    #[test]
    fn filtered_crawl_only_visits_requested_sites() {
        let u = Universe::generate();
        let crawler = Crawler::new(&u);
        let targets: Vec<String> = u.sender_sites().take(5).map(|s| s.domain.clone()).collect();
        let ds = crawler.run_on(BrowserKind::Chrome93, Some(&targets));
        assert_eq!(ds.crawls.len(), 5);
        for c in &ds.crawls {
            assert!(targets.contains(&c.domain));
        }
    }

    #[test]
    fn repeat_visits_with_warm_caches_serve_from_cache_and_add_traffic() {
        let u = Universe::generate();
        let targets: Vec<String> = u.sender_sites().take(6).map(|s| s.domain.clone()).collect();
        let run = |repeat: u32| {
            let mut crawler = Crawler::new(&u);
            crawler.workers = 4;
            crawler.cache = Some(CacheStrategy::CacheFirst);
            crawler.repeat = repeat;
            crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets))
        };
        let twice = run(2);
        // The second visit really happened against a warm cache: some
        // requests were answered locally (suppressed) instead of going on
        // the wire.
        let suppressed = twice
            .crawls
            .iter()
            .flat_map(|c| &c.records)
            .filter(|r| r.from_cache.is_some_and(|d| d.suppressed()))
            .count();
        assert!(suppressed > 0, "warm revisits should serve from cache");
        // And a single-visit run has strictly fewer records.
        let count = |ds: &CrawlDataset| ds.crawls.iter().map(|c| c.records.len()).sum::<usize>();
        assert!(count(&twice) > count(&run(1)));
    }

    #[test]
    fn dataset_round_trips_through_json() {
        let u = Universe::generate();
        let crawler = Crawler::new(&u);
        let targets: Vec<String> = u.sender_sites().take(2).map(|s| s.domain.clone()).collect();
        let ds = crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
        let json = serde_json::to_string(&ds).unwrap();
        let back: CrawlDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.crawls.len(), ds.crawls.len());
        assert_eq!(back.delivered_request_count(), ds.delivered_request_count());
    }
}
