//! The page-load engine: fetches a [`Site`]'s HTML document, *parses it*
//! ([`crate::dom`]), and fetches what the markup references — exactly like
//! a browser.
//!
//! Each page load produces, in document order:
//!
//! 1. the **document** request/response (first-party; sets the session
//!    cookie; the body is the rendered HTML),
//! 2. whatever the document references: CDN assets, the CAPTCHA widget,
//!    tracker **library scripts** — and inline scripts execute (the only
//!    JavaScript the simulated sites use is `document.cookie = …`, which
//!    materialises the Figure 1.c PII cookie),
//! 3. per tracker script that loaded, its **identify call** (pixel/beacon)
//!    with the script as initiator — giving Table 4 its "request initiator
//!    chains".
//!
//! Browser policy is applied at emission time: Brave Shields drop tracker
//! requests (CNAME-aware), cookie policies decide what rides along and what
//! a tracker response may store.

use crate::profiles::{BrowserKind, BrowserProfile};
use pii_dns::{PublicSuffixList, ZoneStore};
use pii_net::cache::{CacheDecision, CacheDisposition, CacheEntry, CachePolicy, CacheStrategy};
use pii_net::cookie::{Cookie, CookieJar};
use pii_net::fault::{FaultPlan, FetchError};
use pii_net::http::{Method, Request, ResourceKind, Response};
use pii_net::Url;
use pii_web::persona::{Persona, PiiKind};
use pii_web::site::{LeakEdge, LeakMethod, Site};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// One fetch as the capture pipeline sees it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchRecord {
    pub request: Request,
    pub response: Response,
    /// `Some(reason)` when the browser refused to emit the request (Brave
    /// Shields). Blocked requests never reach the network, but the capture
    /// keeps them for §7.1 accounting.
    pub blocked: Option<String>,
    /// `Some(error)` when the transport failed (seeded fault injection):
    /// the request went out but no usable response came back. The capture
    /// keeps the aborted attempt; HAR export flags it devtools-style.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub error: Option<FetchError>,
    /// How the HTTP cache satisfied this request, when a cache strategy is
    /// active: `Hit`/`Stale` requests never reached the wire, `Revalidated`
    /// ones went out conditionally and came back `304`. `None` means an
    /// unconditional network fetch (cache disabled or cache miss).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub from_cache: Option<CacheDisposition>,
}

impl FetchRecord {
    /// The request went on the wire and a usable response came back — the
    /// condition for a leak to actually reach a tracker's server. Cache
    /// hits and stale serves are *not* delivered: the request they describe
    /// was suppressed before it existed on the network.
    pub fn delivered(&self) -> bool {
        self.blocked.is_none()
            && self.error.is_none()
            && !self.from_cache.is_some_and(|d| d.suppressed())
    }

    /// The browser obtained a usable response body, from the network *or*
    /// the cache — the condition for a fetched script to execute. A cached
    /// tracker library still runs and still fires its identify beacon.
    pub fn served(&self) -> bool {
        self.blocked.is_none() && self.error.is_none()
    }
}

/// A document fetch that failed at the transport layer. The aborted attempt
/// is preserved as an (undelivered) capture record.
#[derive(Debug)]
pub struct PageError {
    pub error: FetchError,
    pub record: Box<FetchRecord>,
}

/// Parameters of one page load.
#[derive(Debug, Clone)]
pub struct PageContext {
    /// Full document URL (GET-form submissions carry the PII query here).
    pub document_url: Url,
    /// Site-relative path being rendered (`/`, `/signup`, `/welcome`, …).
    pub path: String,
    /// Whether the persona's PII has been submitted (tags can read it).
    pub pii_known: bool,
    /// POST-form submission body for this navigation, if any.
    pub form_post: Option<Vec<u8>>,
}

impl PageContext {
    /// An ordinary GET navigation.
    pub fn get(document_url: Url, path: &str, pii_known: bool) -> PageContext {
        PageContext {
            document_url,
            path: path.to_string(),
            pii_known,
            form_post: None,
        }
    }
}

/// The document a page load's subresources are fetched for: its URL, that
/// URL shared as every subresource's initiator, and formatted once for every
/// subresource's `Referer` and every leak call's `dl=` parameter.
struct PageUrl<'p> {
    url: &'p Url,
    shared: Arc<Url>,
    text: String,
}

/// A simulated browser session on one site.
pub struct Browser<'a> {
    pub profile: BrowserProfile,
    jar: CookieJar,
    storage: crate::storage::WebStorage,
    psl: &'a PublicSuffixList,
    resolver: pii_dns::CachingResolver<'a>,
    persona: &'a Persona,
    /// Known tracker domains (for ETP's tracker-scoped cookie blocking).
    known_trackers: HashSet<&'static str>,
    /// Fault plan consulted on every fetch (None = perfect transport).
    faults: Option<&'a FaultPlan>,
    /// 1-based attempt number the crawler's retry loop is currently on;
    /// flaky schedules clear once it exceeds their failure count.
    fault_attempt: u32,
    /// The HTTP cache, consulted only when `cache_strategy` is set.
    cache: crate::cache::HttpCache,
    cache_strategy: Option<CacheStrategy>,
    /// Virtual time the cache entries are judged against. Advances only
    /// between visits (`advance_visit`), so one visit sees one snapshot.
    cache_clock_ms: u64,
    /// Records produced as side effects of a primary fetch (async SWR
    /// revalidations); drained by `load_page_checked` in emission order.
    side_records: Vec<FetchRecord>,
    /// What `fetch` knows of each host the current site's pages request.
    host_facts: HostFactsMemo,
}

/// Party and tracker facts about one request host of one site.
struct HostFacts {
    third_party: bool,
    /// The host's registrable domain (the host itself when it has none).
    tracker_domain: String,
    /// Whether that domain, or a registrable domain on the host's CNAME
    /// chain, is in the tracker catalogue.
    known_tracker: bool,
}

/// [`HostFacts`] per host of one site, each computed once.
#[derive(Default)]
struct HostFactsMemo {
    /// The site the facts belong to.
    site: String,
    /// A site requests a handful of hosts (median 4, at most 20 in a
    /// seed-7 capture), so a linear scan suffices.
    hosts: Vec<(String, HostFacts)>,
}

impl HostFactsMemo {
    /// The facts for `host` on `site`, from `compute` on first use. They
    /// depend on the site, not on the browser state `reset` wipes, so a
    /// change of site — with or without a reset — is what clears them.
    fn get(&mut self, site: &str, host: &str, compute: impl FnOnce() -> HostFacts) -> &HostFacts {
        if self.site != site {
            self.site.clear();
            self.site.push_str(site);
            self.hosts.clear();
        }
        let at = match self.hosts.iter().position(|(h, _)| h == host) {
            Some(at) => at,
            None => {
                self.hosts.push((host.to_string(), compute()));
                self.hosts.len() - 1
            }
        };
        &self.hosts[at].1
    }
}

impl<'a> Browser<'a> {
    pub fn new(
        kind: BrowserKind,
        psl: &'a PublicSuffixList,
        zones: &'a ZoneStore,
        persona: &'a Persona,
    ) -> Browser<'a> {
        Browser::with_profile(kind.profile(), psl, zones, persona)
    }

    /// Build with an explicit (possibly counterfactual) profile.
    pub fn with_profile(
        profile: crate::profiles::BrowserProfile,
        psl: &'a PublicSuffixList,
        zones: &'a ZoneStore,
        persona: &'a Persona,
    ) -> Browser<'a> {
        let mut jar = CookieJar::new();
        jar.partition_third_party = profile.partition_third_party_storage;
        let known_trackers = pii_web::tracker::catalog()
            .iter()
            .map(|p| p.domain)
            .collect();
        let storage = crate::storage::WebStorage::new(profile.partition_third_party_storage);
        Browser {
            profile,
            jar,
            storage,
            psl,
            resolver: pii_dns::CachingResolver::new(zones),
            persona,
            known_trackers,
            faults: None,
            fault_attempt: 1,
            cache: crate::cache::HttpCache::new(),
            cache_strategy: None,
            cache_clock_ms: 0,
            side_records: Vec::new(),
            host_facts: HostFactsMemo::default(),
        }
    }

    /// Enable (or disable) the HTTP cache for subsequent fetches.
    pub fn set_cache_strategy(&mut self, strategy: Option<CacheStrategy>) {
        self.cache_strategy = strategy;
    }

    /// Move the cache clock forward to the next visit: cookies, storage,
    /// and cache entries persist, but freshness is re-judged against the
    /// later timestamp.
    pub fn advance_visit(&mut self) {
        self.cache_clock_ms = self
            .cache_clock_ms
            .saturating_add(crate::cache::REVISIT_GAP_MS);
    }

    /// Route every subsequent fetch through a fault plan (None restores the
    /// perfect transport).
    pub fn set_fault_plan(&mut self, plan: Option<&'a FaultPlan>) {
        self.faults = plan;
    }

    /// Tell the transport which retry attempt the crawler is on.
    pub fn set_fault_attempt(&mut self, attempt: u32) {
        self.fault_attempt = attempt.max(1);
    }

    /// The browser's localStorage areas (inspected by §7.1 tests).
    pub fn storage(&self) -> &crate::storage::WebStorage {
        &self.storage
    }

    /// DNS footprint of the session so far (queries, cache hits, CNAMEs).
    pub fn dns_stats(&self) -> pii_dns::ResolverStats {
        self.resolver.stats()
    }

    /// The browser's cookie store (captured at the end of a crawl, §3.2).
    pub fn jar(&self) -> &CookieJar {
        &self.jar
    }

    /// Wipe state between sites (each site gets a fresh profile, §3.2).
    pub fn reset(&mut self) {
        let partition = self.jar.partition_third_party;
        self.jar = CookieJar::new();
        self.jar.partition_third_party = partition;
        self.storage.clear();
        self.cache.clear();
        self.cache_clock_ms = 0;
        self.side_records.clear();
    }

    /// Can the sign-up flow complete on `site` under this profile?
    /// Shields breaking the CAPTCHA widget is the one §7.1 failure.
    pub fn signup_can_complete(&self, site: &Site) -> bool {
        let Some(host) = captcha_host(site) else {
            return true;
        };
        match &self.profile.shields {
            Some(shields) => {
                let res = self.resolver.resolve(host);
                !shields.blocks(self.psl, host, &res.cname_chain)
            }
            None => true,
        }
    }

    /// The document URL a form submission navigates to.
    pub fn form_submit_url(&self, site: &Site) -> Url {
        let base = Url::https(&site.domain, "/welcome").unwrap();
        if site.form.method == Method::Get {
            // GET forms serialise every field into the URL — the
            // precondition for the Figure 1.a referer leak.
            let mut url = base;
            for kind in &site.form.fields {
                url = url.with_query_param(kind.name(), &self.persona.value(*kind));
            }
            url
        } else {
            base
        }
    }

    /// The POST body for a POST-method sign-up form (None for GET forms).
    pub fn form_post_body(&self, site: &Site) -> Option<Vec<u8>> {
        if site.form.method != Method::Post {
            return None;
        }
        let mut body = String::new();
        for kind in &site.form.fields {
            if !body.is_empty() {
                body.push('&');
            }
            body.push_str(kind.name());
            body.push('=');
            encode_form_into(&mut body, self.persona.value(*kind).as_bytes());
        }
        body.shrink_to_fit();
        Some(body.into_bytes())
    }

    /// Load one page of `site`, returning every fetch in emission order.
    /// Transport faults surface as a single aborted document record; callers
    /// that need to retry should use [`Browser::load_page_checked`].
    pub fn load_page(&mut self, site: &Site, ctx: &PageContext) -> Vec<FetchRecord> {
        match self.load_page_checked(site, ctx) {
            Ok(records) => records,
            Err(err) => vec![*err.record],
        }
    }

    /// Load one page of `site`, failing fast when the fault plan kills the
    /// document fetch. The `Err` carries the aborted attempt's record so the
    /// crawler can keep it in the capture.
    pub fn load_page_checked(
        &mut self,
        site: &Site,
        ctx: &PageContext,
    ) -> Result<Vec<FetchRecord>, PageError> {
        let mut span = pii_telemetry::span("browser.page");
        span.add_arg("site", &site.domain);
        span.add_arg("path", &ctx.path);
        let doc_url = &ctx.document_url;

        // 1. Document fetch (always first-party). POST form submissions
        // carry the field data in the body.
        let doc_method = if ctx.form_post.is_some() {
            Method::Post
        } else {
            Method::Get
        };
        let mut doc_req = Request::new(doc_method, doc_url.clone(), ResourceKind::Document);
        if let Some(body) = &ctx.form_post {
            doc_req = doc_req
                .with_body(body.clone())
                .with_header("Content-Type", "application/x-www-form-urlencoded");
        }
        if let Some(header) = self.jar.cookie_header(doc_url, &site.domain, false) {
            doc_req.headers.insert("Cookie", header);
        }
        doc_req.headers.insert("Host", doc_url.host.clone());
        doc_req
            .headers
            .insert("User-Agent", user_agent(self.profile.kind));
        // Transport faults kill the navigation before the origin renders
        // anything (and before the session cookie exists); the aborted
        // request is still a capture record.
        if let Some(plan) = self.faults {
            if plan.panics_on(&doc_url.host) {
                panic!("injected transport panic on {}", doc_url.host);
            }
            let fault = match self
                .resolver
                .resolve_checked(&doc_url.host, plan, self.fault_attempt)
            {
                Err(error) => Some(error),
                Ok(_) => plan.fault_for(&doc_url.host, &doc_url.path, self.fault_attempt),
            };
            if let Some(error) = fault {
                pii_telemetry::counter("browser.page_aborts", 1);
                span.add_arg("aborted", error.label());
                let record = FetchRecord {
                    request: doc_req,
                    response: Response::new(error.http_status()),
                    blocked: None,
                    error: Some(error.clone()),
                    from_cache: None,
                };
                return Err(PageError {
                    error,
                    record: Box::new(record),
                });
            }
        }
        // Render the document: the server knows the signed-in user once the
        // form was submitted.
        let user = ctx.pii_known.then_some(self.persona);
        let html = pii_web::html::render_page(site, &ctx.path, user);
        // Parse the document and resolve what it references; the elements
        // borrow from the markup, which then moves into the response body.
        let crate::dom::Discovery {
            resources,
            inline_scripts,
            resource_order,
            ..
        } = crate::dom::discover(doc_url, &crate::dom::parse(&html));
        // Documents are never cached: navigations must always re-render
        // (the signed-in state changes what the origin serves).
        let mut doc_resp = Response::ok()
            .with_header("Content-Type", "text/html")
            .with_header("Cache-Control", "no-store");
        let (session, set_cookie) = session_cookie(&site.domain);
        doc_resp.headers.insert("Set-Cookie", set_cookie);
        self.jar.set(session, doc_url, &site.domain);
        doc_resp.body = Some(html.into_bytes());
        // The document, each resource, and at most one leak call per
        // script-loaded edge (cache revalidations, when a cache strategy is
        // set, grow it further).
        let leak_edges = site
            .edges
            .iter()
            .filter(|e| e.method != LeakMethod::Referer)
            .count();
        let mut out = Vec::with_capacity(1 + resources.len() + leak_edges);
        out.push(FetchRecord {
            request: doc_req,
            response: doc_resp,
            blocked: None,
            error: None,
            from_cache: None,
        });

        // 2. Process the document in document order: inline scripts
        // execute (cookie writes), external references fetch, and tracker
        // library scripts fire their identify beacons. Every subresource
        // carries the same document URL, formatted once here.
        let page = PageUrl {
            url: doc_url,
            shared: Arc::new(doc_url.clone()),
            text: doc_url.text(),
        };
        // Indices of the edges whose tracker script already loaded on this
        // page.
        let mut fired: Vec<usize> = Vec::new();
        // Merge inline scripts and resources by document order.
        let mut inline_iter = inline_scripts.iter().peekable();
        for (pos, resource) in resource_order.iter().zip(resources) {
            while inline_iter
                .peek()
                .is_some_and(|(script_pos, _)| script_pos < pos)
            {
                let (_, script) = inline_iter.next().unwrap();
                self.execute_inline_script(site, doc_url, script);
            }
            let record = self.fetch(
                site,
                &page,
                Request::new(Method::Get, resource.url, resource.kind),
                None,
                None,
            );
            // A tracker library that loaded — from the network *or* the
            // cache — issues its identify call once the user's PII exists.
            let edge = script_edge(site, &record.request.url)
                .filter(|(index, _)| !fired.contains(index))
                .map(|(index, edge)| {
                    fired.push(index);
                    edge
                });
            let leak_from = edge
                .filter(|_| ctx.pii_known && record.served())
                .map(|edge| (edge, Arc::new(record.request.url.clone())));
            out.push(record);
            // Async SWR revalidations emitted by the fetch follow it in the
            // capture, exactly where the network saw them.
            out.append(&mut self.side_records);
            if let Some((edge, script_url)) = leak_from {
                out.push(self.leak_call(site, &page, edge, &script_url, &ctx.path));
            }
        }
        for (_, script) in inline_iter {
            self.execute_inline_script(site, doc_url, script);
        }
        pii_telemetry::counter("browser.pages", 1);
        pii_telemetry::counter("browser.records", out.len() as u64);
        pii_telemetry::observe("browser.page_records", out.len() as u64);
        Ok(out)
    }

    /// "Execute" an inline script: the simulated sites only ever assign
    /// `document.cookie`, so that is the whole interpreter.
    fn execute_inline_script(&mut self, site: &Site, doc_url: &Url, script: &str) {
        for assignment in crate::dom::cookie_assignments(script) {
            if let Some(cookie) = Cookie::parse_set_cookie(&assignment) {
                self.jar.set(cookie, doc_url, &site.domain);
            }
        }
    }

    /// Build the PII-carrying call for a URI/payload/cookie edge.
    fn leak_call(
        &mut self,
        site: &Site,
        page: &PageUrl<'_>,
        edge: &LeakEdge,
        script_url: &Arc<Url>,
        path: &str,
    ) -> FetchRecord {
        // The primary identifier is the email when the edge carries it;
        // otherwise the edge's first PII kind (e.g. the lone username-only
        // receiver of Table 1c).
        let primary = if edge.pii.contains(&PiiKind::Email) {
            PiiKind::Email
        } else {
            *edge.pii.first().expect("edge leaks at least one PII kind")
        };
        let primary_token = edge.chain.apply(&self.persona.value(primary));
        let mut url = Url::https(&edge.request_host, &edge.endpoint).unwrap();
        let mut body: Option<Vec<u8>> = None;
        let method;
        match edge.method {
            LeakMethod::Uri => {
                method = Method::Get;
                url = url.with_query_param("v", "2.9.1");
                url = url.with_query_param(&edge.param, &primary_token);
                for extra in &edge.pii {
                    if *extra != primary {
                        url = url.with_query_param(
                            extra_param(*extra),
                            &edge.chain.apply(&self.persona.value(*extra)),
                        );
                    }
                }
                url = url.with_query_param("dl", &page.text);
            }
            LeakMethod::Payload => {
                method = Method::Post;
                let mut form = String::from("ev=identify&");
                form.push_str(&edge.param);
                form.push('=');
                encode_form_into(&mut form, primary_token.as_bytes());
                for extra in &edge.pii {
                    if *extra != primary {
                        form.push('&');
                        form.push_str(extra_param(*extra));
                        form.push('=');
                        let token = edge.chain.apply(&self.persona.value(*extra));
                        encode_form_into(&mut form, token.as_bytes());
                    }
                }
                form.push_str("&page=");
                encode_form_into(&mut form, path.as_bytes());
                form.shrink_to_fit();
                body = Some(form.into_bytes());
            }
            LeakMethod::Cookie => {
                // The PII travels in the Cookie header attached by `fetch`
                // (first-party cookie, cloaked host); the URL itself is
                // clean.
                method = Method::Get;
                url = url.with_query_param("AQB", "1");
            }
            LeakMethod::Referer => unreachable!("referer edges never emit leak calls"),
        }
        let mut req = Request::new(method, url, edge.kind);
        if let Some(b) = body {
            req = req
                .with_body(b)
                .with_header("Content-Type", "application/x-www-form-urlencoded");
        }
        self.fetch(site, page, req, Some(script_url), Some(edge))
    }

    /// Apply browser policy, attach headers, and synthesise the response.
    fn fetch(
        &mut self,
        site: &Site,
        page: &PageUrl<'_>,
        mut req: Request,
        initiator: Option<&Arc<Url>>,
        edge: Option<&LeakEdge>,
    ) -> FetchRecord {
        let host = &req.url.host;
        pii_telemetry::counter("browser.requests", 1);
        let resolution = self.resolver.resolve(host);
        let facts = self.host_facts.get(&site.domain, host, || {
            let tracker_domain = self
                .psl
                .registrable_domain_cow(host)
                .unwrap_or(Cow::Borrowed(host))
                .into_owned();
            let known_tracker = self.known_trackers.contains(tracker_domain.as_str())
                || resolution
                    .cname_chain
                    .iter()
                    .filter_map(|c| self.psl.registrable_domain_cow(c))
                    .any(|rd| self.known_trackers.contains(rd.as_ref()));
            HostFacts {
                third_party: !self.psl.same_site(host, &site.domain),
                tracker_domain,
                known_tracker,
            }
        });
        let is_third_party = facts.third_party;
        // Brave Shields: drop tracker requests before they exist on the wire.
        if let Some(shields) = &self.profile.shields {
            if shields.blocks(self.psl, host, &resolution.cname_chain) {
                pii_telemetry::counter("browser.blocked", 1);
                let reason = ["shields: ", host].concat();
                req.initiator = initiator.cloned();
                return FetchRecord {
                    request: req,
                    response: Response::new(0),
                    blocked: Some(reason),
                    error: None,
                    from_cache: None,
                };
            }
        }
        req.initiator = Some(Arc::clone(initiator.unwrap_or(&page.shared)));
        req.headers.insert("Host", host.clone());
        // Referer: the 2021 capture sends the full URL (badly coded sites
        // pin `Referrer-Policy: unsafe-url`); the counterfactual profile
        // truncates cross-origin referers to the origin.
        let referer = if self.profile.enforce_strict_referrer && is_third_party {
            format!("{}/", page.url.origin())
        } else {
            page.text.clone()
        };
        req.headers.insert("Referer", referer);
        req.headers
            .insert("User-Agent", user_agent(self.profile.kind));

        // Cookie attachment. First-party-looking hosts (incl. CNAME-cloaked
        // subdomains!) always get the site's cookies; genuine third parties
        // go through the profile's policy.
        let cookies_allowed = !is_third_party
            || self
                .profile
                .third_party_cookies_allowed(facts.known_tracker);
        if cookies_allowed {
            if let Some(header) = self
                .jar
                .cookie_header(&req.url, &site.domain, is_third_party)
            {
                req.headers.insert("Cookie", header);
            }
        }

        // HTTP cache consultation (only when a strategy is configured; the
        // paper's one-shot crawl runs cache-less and never enters this
        // block). Blocked requests return above and never reach the cache.
        let url_key = self.cache_strategy.map(|_| req.url.text());
        if let (Some(strategy), Some(url_key)) = (self.cache_strategy, &url_key) {
            match pii_net::cache::decide(strategy, self.cache.get(url_key), self.cache_clock_ms) {
                CacheDecision::Miss => {}
                CacheDecision::ServeCached => {
                    pii_telemetry::counter("browser.cache.hits", 1);
                    let response = self
                        .cache
                        .get(url_key)
                        .map(|e| e.response.clone())
                        .unwrap_or_else(Response::ok);
                    return FetchRecord {
                        request: req,
                        response,
                        blocked: None,
                        error: None,
                        from_cache: Some(CacheDisposition::Hit),
                    };
                }
                CacheDecision::ServeStaleAndRevalidate => {
                    pii_telemetry::counter("browser.cache.stale", 1);
                    let response = self
                        .cache
                        .get(url_key)
                        .map(|e| e.response.clone())
                        .unwrap_or_else(Response::ok);
                    // The async revalidation goes on the wire alongside the
                    // stale serve; the caller splices it into the capture.
                    let side = self.revalidate(req.clone(), url_key);
                    self.side_records.push(side);
                    return FetchRecord {
                        request: req,
                        response,
                        blocked: None,
                        error: None,
                        from_cache: Some(CacheDisposition::Stale),
                    };
                }
                CacheDecision::Revalidate => {
                    return self.revalidate(req, url_key);
                }
            }
        }

        // Transport faults: the request was emitted (headers and all) but no
        // usable response ever arrived, so no tracker state is written.
        if let Some(plan) = self.faults {
            if let Some(error) = plan.fault_for(host, &req.url.path, self.fault_attempt) {
                return FetchRecord {
                    request: req,
                    response: Response::new(error.http_status()),
                    blocked: None,
                    error: Some(error),
                    from_cache: None,
                };
            }
        }

        // Response: trackers try to set their own identifier cookie, and
        // fall back to localStorage when the browser refuses it — exactly
        // the stateful-tracking arms race §2.1 describes.
        // Static assets advertise cache policies (a deterministic mix of
        // short- and long-lived `max-age`s plus validators); tracker
        // endpoints and everything dynamic say `no-store`, like real
        // analytics beacons do.
        let mut response = Response::ok();
        let static_asset = matches!(
            req.kind,
            ResourceKind::Script | ResourceKind::Stylesheet | ResourceKind::Image
        ) && edge.is_none();
        if static_asset {
            let fp = pii_net::cache::asset_fingerprint(&req.url);
            let cache_control = if fp.is_multiple_of(4) {
                "max-age=30, stale-while-revalidate=600"
            } else {
                "max-age=3600, stale-while-revalidate=600"
            };
            response.headers.insert("Cache-Control", cache_control);
            // A quoted 16-digit hex fingerprint, written into its exact size.
            let mut etag = String::with_capacity(18);
            let _ = write!(etag, "\"{fp:016x}\"");
            response.headers.insert("ETag", etag);
            response
                .headers
                .insert("Last-Modified", "Fri, 21 May 2021 10:00:00 GMT");
        } else {
            response.headers.insert("Cache-Control", "no-store");
        }
        if is_third_party && edge.is_some() {
            let (cookie, set_cookie) = tracker_uid_cookie(&facts.tracker_domain);
            response.headers.insert("Set-Cookie", set_cookie);
            if cookies_allowed {
                self.jar.set(cookie, &req.url, &site.domain);
            } else {
                self.storage
                    .set_item(&req.url.origin(), &site.domain, "uid", &cookie.value);
            }
        }
        // Store cacheable responses for later visits (cache enabled only,
        // so the default cache-less configuration keeps identical state).
        if let Some(url_key) = &url_key {
            let policy = CachePolicy::parse(&response.headers);
            if policy.cacheable() {
                pii_telemetry::counter("browser.cache.stores", 1);
                self.cache.store(
                    url_key,
                    CacheEntry {
                        response: response.clone(),
                        policy,
                        stored_at_ms: self.cache_clock_ms,
                    },
                );
            }
        }
        FetchRecord {
            request: req,
            response,
            blocked: None,
            error: None,
            from_cache: None,
        }
    }

    /// Put a conditional request on the wire and synthesise its `304 Not
    /// Modified`. A transport fault aborts it like any network fetch; a
    /// success restarts the stored entry's freshness lifetime.
    fn revalidate(&mut self, mut req: Request, url_key: &str) -> FetchRecord {
        let (etag, last_modified, cache_control) = match self.cache.get(url_key) {
            Some(entry) => (
                entry.policy.etag.clone(),
                entry.policy.last_modified.clone(),
                entry
                    .response
                    .headers
                    .get("Cache-Control")
                    .map(str::to_string),
            ),
            None => (None, None, None),
        };
        if let Some(etag) = &etag {
            req.headers.insert("If-None-Match", etag.clone());
        }
        if let Some(lm) = &last_modified {
            req.headers.insert("If-Modified-Since", lm.clone());
        }
        if let Some(plan) = self.faults {
            if let Some(error) = plan.fault_for(&req.url.host, &req.url.path, self.fault_attempt) {
                return FetchRecord {
                    request: req,
                    response: Response::new(error.http_status()),
                    blocked: None,
                    error: Some(error),
                    from_cache: None,
                };
            }
        }
        pii_telemetry::counter("browser.cache.revalidations", 1);
        self.cache.refresh(url_key, self.cache_clock_ms);
        // The simulated origins' assets never change, so conditional
        // requests always validate. The 304 repeats the validators and
        // carries no body, per RFC 9110 §15.4.5.
        let mut response = Response::new(304);
        if let Some(cc) = cache_control {
            response.headers.insert("Cache-Control", cc);
        }
        if let Some(etag) = etag {
            response.headers.insert("ETag", etag);
        }
        if let Some(lm) = last_modified {
            response.headers.insert("Last-Modified", lm);
        }
        FetchRecord {
            request: req,
            response,
            blocked: None,
            error: None,
            from_cache: Some(CacheDisposition::Revalidated),
        }
    }
}

/// The leak edge a script at `url` is the tracker library of: of the
/// non-Referer edges whose script URL is `url`'s text, the last, with its
/// index.
fn script_edge<'s>(site: &'s Site, url: &Url) -> Option<(usize, &'s LeakEdge)> {
    site.edges.iter().enumerate().rev().find(|(_, e)| {
        e.method != LeakMethod::Referer && url.text_equals(&pii_web::html::edge_script_parts(e))
    })
}

/// `domain` with its dots as dashes, between `prefix` and `suffix`.
fn dashed(prefix: &str, domain: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + domain.len() + suffix.len());
    out.push_str(prefix);
    out.extend(domain.chars().map(|c| if c == '.' { '-' } else { c }));
    out.push_str(suffix);
    out
}

/// The identifier cookie a tracker's response tries to set, and its
/// `Set-Cookie` value: `uid=tp-<tracker domain with dots as dashes>`,
/// `Secure`, `SameSite=None`, on path `/`.
fn tracker_uid_cookie(tracker_domain: &str) -> (Cookie, String) {
    let uid = dashed("tp-", tracker_domain, "");
    let set_cookie = ["uid=", &uid, "; Path=/; SameSite=None; Secure"].concat();
    let mut cookie = Cookie::new("uid", uid);
    cookie.secure = true;
    cookie.same_site = Some(pii_net::cookie::SameSite::None);
    (cookie, set_cookie)
}

/// The session cookie a site's document response sets, and its
/// `Set-Cookie` value: `session=<domain with dots as dashes>-sess`,
/// `SameSite=Lax`, on path `/`.
fn session_cookie(domain: &str) -> (Cookie, String) {
    let mut cookie = Cookie::new("session", dashed("", domain, "-sess"));
    cookie.same_site = Some(pii_net::cookie::SameSite::Lax);
    let set_cookie = cookie.to_set_cookie();
    (cookie, set_cookie)
}

/// CAPTCHA widget host for bot-detection sites (re-exported from
/// `pii-web::site`, where the markup renderer also needs it).
pub use pii_web::site::captcha_host;

fn user_agent(kind: BrowserKind) -> &'static str {
    match kind {
        BrowserKind::Firefox88Vanilla => {
            "Mozilla/5.0 (X11; Linux x86_64; rv:88.0) Gecko/20100101 Firefox/88.0"
        }
        BrowserKind::Chrome93 => "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chrome/93.0",
        BrowserKind::Opera79 => "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 OPR/79.0",
        BrowserKind::Safari14 => {
            "Mozilla/5.0 (Macintosh) AppleWebKit/605.1.15 Version/14.0 Safari/605.1.15"
        }
        BrowserKind::Firefox92Etp => {
            "Mozilla/5.0 (X11; Linux x86_64; rv:92.0) Gecko/20100101 Firefox/92.0"
        }
        BrowserKind::Brave129 => {
            "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chrome/93.0 Brave/1.29"
        }
    }
}

// Minimal local form-encoder (the full one lives in pii-encodings; this
// avoids a dependency cycle concern and covers the same byte classes).
fn encode_form_into(out: &mut String, data: &[u8]) {
    const HEX: &[u8; 16] = b"0123456789ABCDEF";
    for &b in data {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(b as char);
        } else if b == b' ' {
            out.push('+');
        } else {
            out.push('%');
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0x0f)]));
        }
    }
}

/// Parameter names used when an edge exfiltrates more than the email.
fn extra_param(kind: PiiKind) -> &'static str {
    match kind {
        PiiKind::Name => "udff[fn]",
        PiiKind::Username => "udff[un]",
        PiiKind::Phone => "udff[ph]",
        other => other.name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pii_web::Universe;

    fn world() -> (Universe, PublicSuffixList) {
        (Universe::generate(), PublicSuffixList::embedded())
    }

    fn ctx(site: &Site, path: &str, pii: bool) -> PageContext {
        PageContext::get(
            Url::parse(&format!("https://{}{}", site.domain, path)).unwrap(),
            path,
            pii,
        )
    }

    fn find_sender<'u>(u: &'u Universe, receiver: &str, method: LeakMethod) -> &'u Site {
        u.sender_sites()
            .find(|s| {
                s.edges
                    .iter()
                    .any(|e| e.receiver == receiver && e.method == method)
            })
            .unwrap_or_else(|| panic!("no sender for {receiver}"))
    }

    #[test]
    fn uri_leak_appears_after_pii_submission_only() {
        let (u, psl) = world();
        let site = find_sender(&u, "facebook.com", LeakMethod::Uri);
        let mut b = Browser::new(BrowserKind::Firefox88Vanilla, &psl, &u.zones, &u.persona);
        // Pre-submit: tag script loads, but no PII call.
        let pre = b.load_page(site, &ctx(site, "/", false));
        assert!(pre.iter().all(|f| f
            .request
            .url
            .query
            .as_deref()
            .is_none_or(|q| !q.contains("udff"))));
        // Post-submit account page: the sha256 email token is in a URL.
        let post = b.load_page(site, &ctx(site, "/account", true));
        let sha = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Sha256, b"foo@mydom.com");
        let md5 = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Md5, b"foo@mydom.com");
        assert!(
            post.iter().any(|f| {
                f.request.url.host == "facebook.com"
                    && f.request
                        .url
                        .query
                        .as_deref()
                        .is_some_and(|q| q.contains(&sha) || q.contains(&md5))
            }),
            "facebook leak call missing"
        );
    }

    #[test]
    fn payload_leak_rides_in_post_body() {
        let (u, psl) = world();
        let site = find_sender(&u, "bluecore.com", LeakMethod::Payload);
        let mut b = Browser::new(BrowserKind::Firefox88Vanilla, &psl, &u.zones, &u.persona);
        let records = b.load_page(site, &ctx(site, "/account", true));
        let b64 = pii_encodings::base64::encode(b"foo@mydom.com");
        let hit = records
            .iter()
            .find(|f| f.request.url.host == "bluecore.com" && f.request.method == Method::Post);
        let hit = hit.expect("bluecore beacon missing");
        let body = hit.request.body_text().unwrap();
        // Form-encoded base64 contains %3D for '='.
        assert!(
            body.contains(&b64.replace('=', "%3D")) || body.contains(&b64),
            "payload should carry base64 email: {body}"
        );
    }

    #[test]
    fn cookie_leak_travels_to_cloaked_host() {
        let (u, psl) = world();
        let site = find_sender(&u, "adobe_cname", LeakMethod::Cookie);
        let mut b = Browser::new(BrowserKind::Firefox88Vanilla, &psl, &u.zones, &u.persona);
        let records = b.load_page(site, &ctx(site, "/account", true));
        let cloaked_host = format!("metrics.{}", site.domain);
        let sha = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Sha256, b"foo@mydom.com");
        let hit = records
            .iter()
            .find(|f| f.request.url.host == cloaked_host && f.request.url.path == "/b/ss")
            .expect("cloaked adobe call missing");
        let cookie = hit.request.headers.get("Cookie").expect("cookie header");
        assert!(
            cookie.contains(&sha),
            "PII cookie should ride along: {cookie}"
        );
    }

    #[test]
    fn referer_leak_carries_form_data() {
        let (u, psl) = world();
        let site = find_sender(&u, "taboola.com", LeakMethod::Referer);
        let mut b = Browser::new(BrowserKind::Firefox88Vanilla, &psl, &u.zones, &u.persona);
        assert_eq!(site.form.method, Method::Get);
        let submit_url = b.form_submit_url(site);
        assert!(submit_url
            .query
            .as_deref()
            .unwrap()
            .contains("foo%40mydom.com"));
        let records = b.load_page(
            site,
            &PageContext::get(submit_url.clone(), "/welcome", true),
        );
        let hit = records
            .iter()
            .find(|f| f.request.url.host == "taboola.com")
            .expect("taboola embed missing");
        let referer = hit.request.headers.get("Referer").unwrap();
        assert!(referer.contains("foo%40mydom.com"), "referer: {referer}");
    }

    #[test]
    fn brave_blocks_facebook_but_not_zendesk() {
        let (u, psl) = world();
        let fb_site = find_sender(&u, "facebook.com", LeakMethod::Uri);
        let mut brave = Browser::new(BrowserKind::Brave129, &psl, &u.zones, &u.persona);
        let records = brave.load_page(fb_site, &ctx(fb_site, "/account", true));
        let fb = records
            .iter()
            .filter(|f| f.request.url.host == "facebook.com")
            .collect::<Vec<_>>();
        assert!(!fb.is_empty());
        assert!(
            fb.iter().all(|f| !f.delivered()),
            "shields should block facebook"
        );

        let zd_site = find_sender(&u, "zendesk.com", LeakMethod::Uri);
        let mut brave2 = Browser::new(BrowserKind::Brave129, &psl, &u.zones, &u.persona);
        let records = brave2.load_page(zd_site, &ctx(zd_site, "/account", true));
        assert!(
            records
                .iter()
                .any(|f| f.request.url.host == "zendesk.com" && f.delivered()),
            "zendesk is on the miss list and must get through"
        );
    }

    #[test]
    fn brave_blocks_cloaked_adobe_via_cname_uncloaking() {
        let (u, psl) = world();
        let site = find_sender(&u, "adobe_cname", LeakMethod::Cookie);
        let mut brave = Browser::new(BrowserKind::Brave129, &psl, &u.zones, &u.persona);
        let records = brave.load_page(site, &ctx(site, "/account", true));
        let cloaked_host = format!("metrics.{}", site.domain);
        let cloaked: Vec<_> = records
            .iter()
            .filter(|f| f.request.url.host == cloaked_host)
            .collect();
        assert!(!cloaked.is_empty());
        assert!(cloaked.iter().all(|f| !f.delivered()));
    }

    #[test]
    fn safari_blocks_third_party_cookies_but_not_leaks() {
        let (u, psl) = world();
        let site = find_sender(&u, "facebook.com", LeakMethod::Uri);
        let mut safari = Browser::new(BrowserKind::Safari14, &psl, &u.zones, &u.persona);
        let records = safari.load_page(site, &ctx(site, "/account", true));
        let fb: Vec<_> = records
            .iter()
            .filter(|f| f.request.url.host == "facebook.com" && f.delivered())
            .collect();
        assert!(!fb.is_empty(), "ITP does not block requests");
        // The tracker's own uid cookie was refused…
        assert!(fb.iter().all(|f| f.request.headers.get("Cookie").is_none()));
        // …but the URI leak is intact.
        let sha = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Sha256, b"foo@mydom.com");
        let md5 = pii_hashes::hex_digest(pii_hashes::HashAlgorithm::Md5, b"foo@mydom.com");
        assert!(fb.iter().any(|f| {
            f.request
                .url
                .query
                .as_deref()
                .is_some_and(|q| q.contains(&sha) || q.contains(&md5))
        }));
    }

    #[test]
    fn nykaa_signup_fails_only_under_brave() {
        let (u, psl) = world();
        let nykaa = u.site("nykaa.com").unwrap();
        for kind in BrowserKind::ALL {
            let b = Browser::new(kind, &psl, &u.zones, &u.persona);
            let ok = b.signup_can_complete(nykaa);
            assert_eq!(
                ok,
                kind != BrowserKind::Brave129,
                "{} on nykaa.com",
                kind.name()
            );
        }
        // Other bot-detection sites complete everywhere.
        let other_bot = u
            .crawlable_sites()
            .find(|s| {
                s.domain != "nykaa.com"
                    && matches!(
                        s.outcome,
                        pii_web::site::SiteOutcome::Ok {
                            bot_detection: true,
                            ..
                        }
                    )
            })
            .unwrap();
        let brave = Browser::new(BrowserKind::Brave129, &psl, &u.zones, &u.persona);
        assert!(brave.signup_can_complete(other_bot));
    }

    #[test]
    fn initiator_chain_links_leak_to_script_to_document() {
        let (u, psl) = world();
        let site = find_sender(&u, "criteo.com", LeakMethod::Uri);
        let mut b = Browser::new(BrowserKind::Firefox88Vanilla, &psl, &u.zones, &u.persona);
        let records = b.load_page(site, &ctx(site, "/account", true));
        let leak = records
            .iter()
            .find(|f| {
                f.request.url.host == "criteo.com"
                    && f.request
                        .url
                        .query
                        .as_deref()
                        .is_some_and(|q| q.contains("p0=") || q.contains("p1="))
            })
            .expect("criteo leak");
        let initiator = leak.request.initiator.as_ref().unwrap();
        assert!(
            initiator.path.ends_with("lib.js"),
            "initiator should be the tag script"
        );
    }

    #[test]
    fn itp_pushes_trackers_into_partitioned_storage() {
        // Under Safari, the tracker's uid cookie is refused, so it falls
        // back to localStorage — which ITP partitions per top-level site,
        // so the identifier cannot join two shops.
        let (u, psl) = world();
        let sites: Vec<&Site> = u
            .sender_sites()
            .filter(|s| s.edges.iter().any(|e| e.receiver == "facebook.com"))
            .take(2)
            .collect();
        let mut safari = Browser::new(BrowserKind::Safari14, &psl, &u.zones, &u.persona);
        for site in &sites {
            safari.load_page(site, &ctx(site, "/account", true));
        }
        let storage = safari.storage();
        // Facebook has one storage area per shop, each holding its uid.
        let a = storage.get_item("https://facebook.com", &sites[0].domain, "uid");
        let b = storage.get_item("https://facebook.com", &sites[1].domain, "uid");
        assert_eq!(a, Some("tp-facebook-com"));
        assert_eq!(b, Some("tp-facebook-com"));
        // Partitioned: area count grows with top-level sites.
        assert!(storage.area_count() >= 2);
        // A vanilla browser keeps the cookie instead and writes no storage.
        let mut chrome = Browser::new(BrowserKind::Chrome93, &psl, &u.zones, &u.persona);
        chrome.load_page(sites[0], &ctx(sites[0], "/account", true));
        assert_eq!(chrome.storage().area_count(), 0);
    }

    #[test]
    fn transport_faults_abort_the_document_before_any_side_effect() {
        use pii_net::fault::{DomainSchedule, FaultPlan, FetchError};
        let (u, psl) = world();
        let site = u.crawlable_sites().next().unwrap();
        let mut plan = FaultPlan::none();
        plan.set(
            &site.domain,
            DomainSchedule::Flaky {
                error: FetchError::DnsFailure,
                failures: 1,
            },
        );
        let mut b = Browser::new(BrowserKind::Chrome93, &psl, &u.zones, &u.persona);
        b.set_fault_plan(Some(&plan));
        // Attempt 1 fails: one aborted record, no session cookie stored.
        let err = b
            .load_page_checked(site, &ctx(site, "/", false))
            .expect_err("attempt 1 must fail");
        assert_eq!(err.error, FetchError::DnsFailure);
        assert!(!err.record.delivered());
        assert_eq!(err.record.response.status, 0);
        assert!(b.jar().all().is_empty(), "no cookie from an aborted load");
        // Attempt 2 succeeds and behaves like a faultless load.
        b.set_fault_attempt(2);
        let records = b
            .load_page_checked(site, &ctx(site, "/", false))
            .expect("flaky schedule clears on attempt 2");
        assert!(records[0].delivered());
    }

    #[test]
    fn session_cookie_returns_on_next_page() {
        let (u, psl) = world();
        let site = u.crawlable_sites().next().unwrap();
        let mut b = Browser::new(BrowserKind::Chrome93, &psl, &u.zones, &u.persona);
        b.load_page(site, &ctx(site, "/", false));
        let second = b.load_page(site, &ctx(site, "/signup", false));
        let doc = &second[0];
        assert!(doc
            .request
            .headers
            .get("Cookie")
            .is_some_and(|c| c.contains("session=")));
    }

    /// `fetch` memoizes host facts per site, and `is_third_party` depends on
    /// the site: a browser that moves on without a reset must re-derive it.
    /// The second site is the first one's receiver, so a host that was a
    /// third party becomes the first party. Safari partitions third-party
    /// state, so nothing else carries over and the records must equal two
    /// fresh browsers'.
    #[test]
    fn host_facts_follow_the_site_without_a_reset() {
        let (u, psl) = world();
        let first = find_sender(&u, "facebook.com", LeakMethod::Uri);
        let receiver = Site {
            domain: "facebook.com".to_string(),
            ..first.clone()
        };
        let visit = |b: &mut Browser<'_>, site: &Site| {
            let mut records = b.load_page(site, &ctx(site, "/", false));
            records.extend(b.load_page(site, &ctx(site, "/account", true)));
            records
        };
        let mut shared = Browser::new(BrowserKind::Safari14, &psl, &u.zones, &u.persona);
        let together = [visit(&mut shared, first), visit(&mut shared, &receiver)];
        let mut queries = 0;
        let apart = [first, &receiver].map(|site| {
            let mut fresh = Browser::new(BrowserKind::Safari14, &psl, &u.zones, &u.persona);
            let records = visit(&mut fresh, site);
            queries += fresh.dns_stats().queries;
            records
        });
        assert_eq!(format!("{together:?}"), format!("{apart:?}"));
        // Every fetch still resolves its host, memo or not.
        assert_eq!(shared.dns_stats().queries, queries);
        // The host's party really flipped between the two sites.
        let tracker_uid = |records: &[FetchRecord]| {
            records.iter().any(|r| {
                r.request.url.host == "facebook.com"
                    && r.response
                        .headers
                        .get("Set-Cookie")
                        .is_some_and(|c| c.starts_with("uid=tp-"))
            })
        };
        assert!(tracker_uid(&together[0]));
        assert!(!tracker_uid(&together[1]));
    }

    /// The session cookie and its header equal what formatting the header
    /// and parsing it back gave, with no spare header capacity.
    #[test]
    fn session_cookie_equals_the_parsed_header() {
        for domain in ["shop.com", "a.b.co.uk", "x", "shop-1.example.net"] {
            let parsed = Cookie::parse_set_cookie(&format!(
                "session={}-sess; Path=/; SameSite=Lax",
                domain.replace('.', "-")
            ))
            .unwrap();
            let (cookie, header) = session_cookie(domain);
            assert_eq!(cookie, parsed);
            assert_eq!(header, parsed.to_set_cookie());
            assert_eq!(header.capacity(), header.len());
        }
    }

    /// The tracker's identifier cookie and its header equal the formatted
    /// header and what parsing it gave.
    #[test]
    fn tracker_uid_cookie_equals_the_parsed_header() {
        for domain in ["facebook.com", "omtrdc.net", "pix.herokuapp.com"] {
            let uid = format!("tp-{}", domain.replace('.', "-"));
            let formatted = format!("uid={uid}; Path=/; SameSite=None; Secure");
            let (cookie, header) = tracker_uid_cookie(domain);
            assert_eq!(header, formatted);
            assert_eq!(header.capacity(), header.len());
            assert_eq!(Some(cookie), Cookie::parse_set_cookie(&formatted));
        }
    }

    #[test]
    fn form_encoding_covers_every_byte() {
        let all: Vec<u8> = (0..=255u8).collect();
        let mut encoded = String::new();
        encode_form_into(&mut encoded, &all);
        let reference: String = all
            .iter()
            .map(|&b| {
                if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
                    (b as char).to_string()
                } else if b == b' ' {
                    "+".to_string()
                } else {
                    format!("%{b:02X}")
                }
            })
            .collect();
        assert_eq!(encoded, reference);
    }

    /// Two tracker edges that share one script URL: the page carries two
    /// tags for it, and — as a map from script URL to edge collected in
    /// edge order would have it — only the later edge fires, once.
    #[test]
    fn edges_sharing_a_script_url_fire_the_later_edge_once() {
        let (u, psl) = world();
        let mut site = find_sender(&u, "facebook.com", LeakMethod::Uri).clone();
        let first = site
            .edges
            .iter()
            .position(|e| e.receiver == "facebook.com" && e.method == LeakMethod::Uri)
            .unwrap();
        let mut twin = site.edges[first].clone();
        twin.param = "twin".to_string();
        twin.persistent = true;
        site.edges[first].persistent = true;
        site.edges.push(twin);
        let url = pii_web::html::edge_script_url(&site.edges[first]);
        let mut b = Browser::new(BrowserKind::Chrome93, &psl, &u.zones, &u.persona);
        let records = b.load_page(&site, &ctx(&site, "/account", true));
        let scripts = records
            .iter()
            .filter(|r| r.request.url.to_string() == url)
            .count();
        assert_eq!(scripts, 2, "one script fetch per tag");
        let calls: Vec<&FetchRecord> = records
            .iter()
            .filter(|r| {
                r.request
                    .initiator
                    .as_ref()
                    .map(|i| i.to_string())
                    .as_deref()
                    == Some(url.as_str())
            })
            .collect();
        assert_eq!(calls.len(), 1, "the shared script fires once");
        let leak = &calls[0].request.url;
        assert!(leak.query_param("twin").is_some(), "{leak}");
        assert!(
            leak.query_param(&site.edges[first].param).is_none(),
            "{leak}"
        );
    }

    #[test]
    fn every_user_agent_decodes_to_a_static_string() {
        // The archive decoder interns header values; a UA missing from
        // `pii_net::http`'s table would cost an allocation per record.
        for kind in BrowserKind::ALL {
            let ua = user_agent(kind);
            assert!(
                matches!(pii_net::http::intern(ua), Cow::Borrowed(s) if s == ua),
                "{ua}"
            );
        }
    }
}
