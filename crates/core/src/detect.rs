//! PII-leakage detection over captured traffic (§4.1).
//!
//! For every delivered request of every completed crawl:
//!
//! 1. classify the request host against the visited site — first-party,
//!    third-party (Public Suffix List), or CNAME-cloaked third party (zone
//!    resolution × cloaking blocklist);
//! 2. for third parties, search the four channels for candidate tokens:
//!    request URI (query parameter values, decoded, plus path segments),
//!    `Referer` header (the *referer's* query values — Figure 1.a),
//!    `Cookie` header values, and the payload body (form-decoded values);
//! 3. record a [`LeakEvent`] per (channel, parameter, token) hit.
//!
//! The detector sees nothing but wire data and the candidate set — it has
//! no access to the universe's ground-truth edges, which is what makes the
//! end-to-end comparison in `pii-analysis` a real measurement.

use crate::tokens::TokenSet;
use pii_crawler::{CrawlDataset, SiteCrawl};
use pii_dns::{classify_party, CloakingDetector, Party, PublicSuffixList, ZoneStore};
use pii_net::Url;
use pii_web::obfuscate::Obfuscation;
use pii_web::persona::PiiKind;
use pii_web::site::LeakMethod;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;

/// One detected leak: a PII token found in one channel of one request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakEvent {
    /// The first-party site whose crawl produced the request.
    pub sender: String,
    /// Registrable domain the PII went to. For CNAME-cloaked requests this
    /// is the *unmasked* provider domain (e.g. `omtrdc.net`).
    pub receiver_domain: String,
    /// Host exactly as addressed on the wire.
    pub request_host: String,
    /// Full request URL.
    pub url: String,
    /// Page path the leak fired from (derived from the Referer header) —
    /// §5.2's subpage-persistence test keys on this.
    pub page_path: String,
    pub method: LeakMethod,
    /// Parameter/cookie name that carried the token (empty for path and
    /// referer hits).
    pub param: String,
    pub pii: PiiKind,
    /// The obfuscation chain of the matched token.
    #[serde(skip)]
    pub chain: Obfuscation,
    /// Table 1b bucket of the chain.
    pub bucket: String,
    /// Whether the receiver was hidden behind CNAME cloaking.
    pub cloaked: bool,
    /// Index of the request within its site crawl (for joining back).
    pub request_index: usize,
}

/// The full detection output for one dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectionReport {
    pub events: Vec<LeakEvent>,
    /// Requests inspected (delivered, third-party or cloaked).
    pub third_party_requests: usize,
    /// Total delivered requests inspected.
    pub total_requests: usize,
    /// Capture records the detector could not inspect: transport-aborted
    /// fetches and delivered records too mangled to attribute (e.g. an
    /// unparseable Referer). Counted, never silently dropped.
    pub skipped_records: usize,
}

impl DetectionReport {
    /// Append another report's events and counters. Used by the sharded
    /// detector to fold per-site fragments back together; as long as
    /// fragments are merged in canonical site order the result is
    /// indistinguishable from a sequential pass.
    pub fn merge(&mut self, other: DetectionReport) {
        self.events.extend(other.events);
        self.third_party_requests += other.third_party_requests;
        self.total_requests += other.total_requests;
        self.skipped_records += other.skipped_records;
    }

    /// Distinct leaking senders.
    pub fn senders(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.events.iter().map(|e| e.sender.as_str()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct receiver domains.
    pub fn receivers(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self
            .events
            .iter()
            .map(|e| e.receiver_domain.as_str())
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct (sender, request) pairs that contained leaked PII — the
    /// paper's "1,522 requests that contain leaked PII".
    pub fn leaking_request_count(&self) -> usize {
        let mut v: Vec<(&str, usize)> = self
            .events
            .iter()
            .map(|e| (e.sender.as_str(), e.request_index))
            .collect();
        v.sort();
        v.dedup();
        v.len()
    }

    /// Events for one sender.
    pub fn events_for<'s>(&'s self, sender: &'s str) -> impl Iterator<Item = &'s LeakEvent> + 's {
        self.events.iter().filter(move |e| e.sender == sender)
    }
}

/// The §4.1 detector.
pub struct LeakDetector<'a> {
    tokens: &'a TokenSet,
    psl: &'a PublicSuffixList,
    zones: &'a ZoneStore,
    cloaking: CloakingDetector,
    /// Test-only panic injection: detecting these sender domains panics the
    /// worker, mirroring `DomainSchedule::Panic` on the crawl side. The
    /// detector has no data-reachable crash, so the degradation path needs
    /// an explicit seam; the field does not exist in production builds.
    #[cfg(test)]
    panic_domains: std::collections::HashSet<String>,
}

impl<'a> LeakDetector<'a> {
    pub fn new(tokens: &'a TokenSet, psl: &'a PublicSuffixList, zones: &'a ZoneStore) -> Self {
        LeakDetector {
            tokens,
            psl,
            zones,
            cloaking: CloakingDetector::embedded(),
            #[cfg(test)]
            panic_domains: std::collections::HashSet::new(),
        }
    }

    /// Run detection over a whole dataset, one site after another. Each
    /// site goes through [`detect_site_guarded`](Self::detect_site_guarded),
    /// so a detection panic degrades that site to skipped records instead
    /// of aborting the pass.
    pub fn detect(&self, dataset: &CrawlDataset) -> DetectionReport {
        let mut report = DetectionReport::default();
        for crawl in dataset.completed() {
            report.merge(self.detect_site_guarded(crawl));
        }
        report
    }

    /// Run detection sharded per-site on [`pii_crawler::pool`].
    ///
    /// Workers pull sites off a shared index counter (work-stealing by
    /// construction: a worker stuck on a large site simply claims fewer
    /// sites), produce one [`DetectionReport`] fragment per site, and the
    /// pool hands the fragments to the merge in canonical site order. Because
    /// [`detect_site`](Self::detect_site) is a pure function of one crawl,
    /// the merged report is byte-identical to [`detect`](Self::detect) —
    /// event order, counters, everything (the `parallel_equals_sequential`
    /// integration test pins this down).
    ///
    /// The token set, PSL, and zone store are shared by reference across
    /// workers; nothing is cloned.
    ///
    /// A panicking worker does not abort the process, at any worker count:
    /// each site runs through [`detect_site_guarded`](Self::detect_site_guarded),
    /// so a panic degrades that site into a fragment that only counts its
    /// records as [`DetectionReport::skipped_records`] (mirroring the crawl
    /// pool's quarantine), and the remaining shards complete normally.
    pub fn detect_parallel(&self, dataset: &CrawlDataset, workers: usize) -> DetectionReport {
        let crawls: Vec<&SiteCrawl> = dataset.completed().collect();
        let mut report = DetectionReport::default();
        pii_crawler::pool(
            workers,
            crawls.len(),
            |_| (),
            |(), index| self.detect_site_guarded(crawls[index]),
            |index| skipped_site(crawls[index]),
            |_, fragment| report.merge(fragment),
        );
        report
    }

    /// One site's detection fragment, panic-guarded: empty for a crawl that
    /// did not complete, and — when detection panics — a fragment counting
    /// every record of the site as skipped. Every pipeline that detects per
    /// site goes through here, so a panic degrades the same way whatever the
    /// worker count or capture source.
    pub fn detect_site_guarded(&self, crawl: &SiteCrawl) -> DetectionReport {
        if !crawl.outcome.completed() {
            return DetectionReport::default();
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut fragment = DetectionReport::default();
            self.detect_site(crawl, &mut fragment);
            fragment
        }))
        .unwrap_or_else(|_| skipped_site(crawl))
    }

    /// Run detection over one site's capture.
    ///
    /// Host classification is a function of (site, host), and the Referer
    /// of a page is shared by every record the page emits, so the call keeps
    /// two memos that die with it: each distinct request host is classified
    /// once, and a one-entry cache parses each run of equal Referers once.
    /// Nothing outlives the call, so every caller — sequential, sharded or
    /// streaming — sees the same pure function of one crawl. Channel values
    /// are borrowed from the record; strings are copied only into an
    /// emitted [`LeakEvent`].
    pub fn detect_site(&self, crawl: &SiteCrawl, report: &mut DetectionReport) {
        #[cfg(test)]
        if self.panic_domains.contains(&crawl.domain) {
            panic!("injected detect panic on {}", crawl.domain);
        }
        let mut span = pii_telemetry::span("detect.site");
        span.add_arg("site", &crawl.domain);
        let before = (
            report.total_requests,
            report.third_party_requests,
            report.skipped_records,
            report.events.len(),
        );
        let mut bytes_scanned = 0;
        let mut receivers: HashMap<&str, Option<Receiver<'_>>> = HashMap::new();
        let mut last_referer: Option<(&str, Option<Url>)> = None;
        for (index, record) in crawl.records.iter().enumerate() {
            if !record.delivered() {
                // Transport-aborted attempts carry no payload worth
                // scanning; browser-blocked requests are accounted for by
                // the §7.1 tables instead.
                if record.error.is_some() {
                    report.skipped_records += 1;
                }
                continue;
            }
            report.total_requests += 1;
            let request = &record.request;
            // A Referer header that is present but unparseable means the
            // record is mangled: page attribution is impossible, so skip it
            // visibly rather than misfiling hits under "/".
            let referer = match request.headers.get("Referer") {
                None => None,
                Some(raw) => {
                    if last_referer.as_ref().is_none_or(|(last, _)| *last != raw) {
                        last_referer = Some((raw, Url::parse(raw).ok()));
                    }
                    let parsed = last_referer.as_ref().and_then(|(_, url)| url.as_ref());
                    if parsed.is_none() {
                        report.skipped_records += 1;
                        continue;
                    }
                    parsed
                }
            };
            let host = request.url.host.as_str();
            let Some(receiver) = receivers
                .entry(host)
                .or_insert_with(|| self.receiver(&crawl.domain, host))
            else {
                continue;
            };
            let (receiver_domain, cloaked) = (&*receiver.domain, receiver.cloaked);
            report.third_party_requests += 1;
            let page_path = referer.map_or("/", |r| r.path.as_str());
            let mut emit = |method: LeakMethod, param: &str, token: &str| {
                bytes_scanned += token.len();
                if let Some(info) = self.tokens.lookup_normalized(token) {
                    report.events.push(LeakEvent {
                        sender: crawl.domain.clone(),
                        receiver_domain: receiver_domain.to_string(),
                        request_host: host.to_string(),
                        url: request.url.text(),
                        page_path: page_path.to_string(),
                        method,
                        param: param.to_string(),
                        pii: info.pii,
                        chain: info.chain.clone(),
                        bucket: info.bucket().to_string(),
                        cloaked,
                        request_index: index,
                    });
                }
            };

            // Channel 1: request URI — decoded query values and path
            // segments. `query_pairs` decodes once; the shared helper adds
            // the one-extra-round rule for double-encoded values.
            for (key, value) in request.url.query_pairs() {
                scan_with_extra_round(&mut emit, LeakMethod::Uri, &key, &value);
            }
            // Path segments are matched percent-decoded — `/track/foo%40x.com`
            // carries the same leak as its query-value form.
            for segment in request.url.path.split('/') {
                if segment.is_empty() {
                    continue;
                }
                scan_with_extra_round(&mut emit, LeakMethod::Uri, "", &percent_decoded(segment));
            }

            // Channel 2: Referer header — the referring document's query.
            if let Some(referer) = referer {
                for (key, value) in referer.query_pairs() {
                    scan_with_extra_round(&mut emit, LeakMethod::Referer, &key, &value);
                }
            }

            // Channel 3: Cookie header values, which are frequently
            // percent-encoded on the wire: decode once, then the shared
            // extra-round rule. The raw wire form is scanned too when it
            // differs — base64 cookie values can contain `%`-free tokens
            // that decoding would mangle.
            for (name, value) in request.cookie_pairs() {
                let decoded = percent_decoded(value);
                scan_with_extra_round(&mut emit, LeakMethod::Cookie, name, &decoded);
                if *decoded != *value {
                    emit(LeakMethod::Cookie, name, value);
                }
            }

            // Channel 4: payload body — form-encoded pairs, else raw tokens.
            // Pairs follow the `query_pairs` convention: a bare fragment is
            // `(fragment, "")`, and parameter *names* are form-decoded so
            // `user%5Femail` and `user_email` aggregate as one Table 1
            // parameter. A bare fragment is additionally scanned as a value,
            // since beacon bodies are sometimes just the token itself.
            // Values go through the same extra-round rule as every other
            // channel.
            if let Some(body) = request.body_text() {
                for pair in body.split('&') {
                    match pair.split_once('=') {
                        Some((key, value)) => scan_with_extra_round(
                            &mut emit,
                            LeakMethod::Payload,
                            &form_decoded(key),
                            &form_decoded(value),
                        ),
                        None => scan_with_extra_round(
                            &mut emit,
                            LeakMethod::Payload,
                            "",
                            &form_decoded(pair),
                        ),
                    }
                }
            }
        }
        // The site's counters are added once, from the fragment's own
        // tallies: a counter call under `--metrics` takes a lock.
        if pii_telemetry::enabled() {
            let added = [
                ("detect.requests", report.total_requests - before.0),
                ("detect.third_party", report.third_party_requests - before.1),
                ("detect.skipped_records", report.skipped_records - before.2),
                ("detect.bytes_scanned", bytes_scanned),
            ];
            for (name, delta) in added {
                if delta > 0 {
                    pii_telemetry::counter(name, delta as u64);
                }
            }
            for event in report.events.iter().skip(before.3) {
                pii_telemetry::counter(leak_counter(event.method), 1);
            }
            span.add_arg("events", &(report.events.len() - before.3).to_string());
        }
    }

    /// Where a request from `site` to `host` sends its data: `None` for a
    /// first party, else the receiver's registrable domain — the unmasked
    /// provider for a CNAME-cloaked host.
    fn receiver<'h>(&self, site: &str, host: &'h str) -> Option<Receiver<'h>> {
        match classify_party(self.psl, self.zones, &self.cloaking, site, host) {
            Party::First => None,
            Party::Third => Some(Receiver {
                domain: self
                    .psl
                    .registrable_domain_cow(host)
                    .unwrap_or(Cow::Borrowed(host)),
                cloaked: false,
            }),
            Party::CnameCloaked => {
                let resolution = self.zones.resolve(host);
                let hit = self
                    .cloaking
                    .detect(self.psl, host, &resolution)
                    .expect("classify_party said cloaked");
                Some(Receiver {
                    domain: Cow::Owned(hit.provider_domain),
                    cloaked: true,
                })
            }
        }
    }
}

/// The receiver of a third-party (or cloaked) request host.
struct Receiver<'h> {
    domain: Cow<'h, str>,
    /// Whether the host hid the receiver behind CNAME cloaking.
    cloaked: bool,
}

/// `s` percent-decoded (lossy UTF-8), borrowed when it holds no `%`.
fn percent_decoded(s: &str) -> Cow<'_, str> {
    if s.contains('%') {
        Cow::Owned(String::from_utf8_lossy(&pii_encodings::percent::decode_lossy(s)).into_owned())
    } else {
        Cow::Borrowed(s)
    }
}

/// `s` form-decoded (`+` is a space; lossy UTF-8), borrowed when it holds
/// neither `%` nor `+`.
fn form_decoded(s: &str) -> Cow<'_, str> {
    if s.contains(['%', '+']) {
        Cow::Owned(
            String::from_utf8_lossy(&pii_encodings::percent::decode_form_lossy(s)).into_owned(),
        )
    } else {
        Cow::Borrowed(s)
    }
}

/// The one-extra-round decode rule, shared by every channel (§4.1).
///
/// Each channel decodes its value once as part of framing — URL query and
/// body values via their form rules, path segments and cookie values via
/// `decode_lossy`. Trackers occasionally double-encode (the value is
/// encoded once by the tag and again by the URL serializer), so when the
/// once-decoded value still contains a `%` escape, exactly one extra
/// `decode_lossy` round is scanned as well — never more, so an attacker
/// cannot make the detector loop.
///
/// Before this helper existed only the URI query/path channels applied the
/// extra round; cookie and payload values decoded once, so a double-encoded
/// email in a cookie was invisible while the same bytes in a query string
/// were detected (`channels_agree_on_double_encoded_email` pins the fix).
fn scan_with_extra_round(
    emit: &mut dyn FnMut(LeakMethod, &str, &str),
    method: LeakMethod,
    param: &str,
    once: &str,
) {
    emit(method, param, once);
    if once.contains('%') {
        emit(method, param, &percent_decoded(once));
    }
}

/// Per-method leak counter names (static so the hot path never allocates).
fn leak_counter(method: LeakMethod) -> &'static str {
    match method {
        LeakMethod::Uri => "detect.leaks.uri",
        LeakMethod::Referer => "detect.leaks.referer",
        LeakMethod::Cookie => "detect.leaks.cookie",
        LeakMethod::Payload => "detect.leaks.payload",
    }
}

/// Degraded fragment for a site whose detect worker panicked: every record
/// of the site is counted as skipped, nothing else is claimed about it.
fn skipped_site(crawl: &SiteCrawl) -> DetectionReport {
    pii_telemetry::counter("detect.sites_quarantined", 1);
    DetectionReport {
        skipped_records: crawl.records.len(),
        ..DetectionReport::default()
    }
}

/// The detector before the allocation cuts — up to three Referer parses per
/// record, owned receiver domains, every channel value decoded into a fresh
/// `String` — kept as the oracle for the differential tests below.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn detect_site(d: &LeakDetector<'_>, crawl: &SiteCrawl, report: &mut DetectionReport) {
        if d.panic_domains.contains(&crawl.domain) {
            panic!("injected detect panic on {}", crawl.domain);
        }
        for (index, record) in crawl.records.iter().enumerate() {
            if !record.delivered() {
                // Transport-aborted attempts carry no payload worth
                // scanning; browser-blocked requests are accounted for by
                // the §7.1 tables instead.
                if record.error.is_some() {
                    report.skipped_records += 1;
                }
                continue;
            }
            report.total_requests += 1;
            let request = &record.request;
            // A Referer header that is present but unparseable means the
            // record is mangled: page attribution is impossible, so skip it
            // visibly rather than misfiling hits under "/".
            if request.headers.get("Referer").is_some() && request.referer().is_none() {
                report.skipped_records += 1;
                continue;
            }
            let host = &request.url.host;
            let party = classify_party(d.psl, d.zones, &d.cloaking, &crawl.domain, host);
            let (receiver_domain, cloaked) = match party {
                Party::First => continue,
                Party::Third => (
                    d.psl
                        .registrable_domain(host)
                        .unwrap_or_else(|| host.clone()),
                    false,
                ),
                Party::CnameCloaked => {
                    let resolution = d.zones.resolve(host);
                    let hit = d
                        .cloaking
                        .detect(d.psl, host, &resolution)
                        .expect("classify_party said cloaked");
                    (hit.provider_domain, true)
                }
            };
            report.third_party_requests += 1;
            let page_path = request
                .referer()
                .map(|r| r.path.clone())
                .unwrap_or_else(|| "/".to_string());
            let mut emit = |method: LeakMethod, param: &str, token: &str| {
                if let Some(info) = d.tokens.lookup_normalized(token) {
                    report.events.push(LeakEvent {
                        sender: crawl.domain.clone(),
                        receiver_domain: receiver_domain.clone(),
                        request_host: host.clone(),
                        url: request.url.to_string(),
                        page_path: page_path.clone(),
                        method,
                        param: param.to_string(),
                        pii: info.pii,
                        chain: info.chain.clone(),
                        bucket: info.bucket().to_string(),
                        cloaked,
                        request_index: index,
                    });
                }
            };

            // Channel 1: request URI — decoded query values and path
            // segments. `query_pairs` decodes once; the shared helper adds
            // the one-extra-round rule for double-encoded values.
            for (key, value) in request.url.query_pairs() {
                scan_with_extra_round(&mut emit, LeakMethod::Uri, &key, &value);
            }
            // Path segments are matched percent-decoded — `/track/foo%40x.com`
            // carries the same leak as its query-value form.
            for segment in request.url.path.split('/') {
                if segment.is_empty() {
                    continue;
                }
                let decoded = pii_encodings::percent::decode_lossy(segment);
                let decoded = String::from_utf8_lossy(&decoded).into_owned();
                scan_with_extra_round(&mut emit, LeakMethod::Uri, "", &decoded);
            }

            // Channel 2: Referer header — the referring document's query.
            if let Some(referer) = request.referer() {
                for (key, value) in referer.query_pairs() {
                    scan_with_extra_round(&mut emit, LeakMethod::Referer, &key, &value);
                }
            }

            // Channel 3: Cookie header values, which are frequently
            // percent-encoded on the wire: decode once, then the shared
            // extra-round rule. The raw wire form is scanned too when it
            // differs — base64 cookie values can contain `%`-free tokens
            // that decoding would mangle.
            for (name, value) in request.cookie_pairs() {
                let decoded = pii_encodings::percent::decode_lossy(value);
                let decoded = String::from_utf8_lossy(&decoded);
                scan_with_extra_round(&mut emit, LeakMethod::Cookie, name, &decoded);
                if *decoded != *value {
                    emit(LeakMethod::Cookie, name, value);
                }
            }

            // Channel 4: payload body — form-encoded pairs, else raw tokens.
            // Pairs follow the `query_pairs` convention: a bare fragment is
            // `(fragment, "")`, and parameter *names* are form-decoded so
            // `user%5Femail` and `user_email` aggregate as one Table 1
            // parameter. A bare fragment is additionally scanned as a value,
            // since beacon bodies are sometimes just the token itself.
            // Values go through the same extra-round rule as every other
            // channel.
            if let Some(body) = request.body_text() {
                for pair in body.split('&') {
                    match pair.split_once('=') {
                        Some((key, value)) => {
                            let key = pii_encodings::percent::decode_form_lossy(key);
                            let value = pii_encodings::percent::decode_form_lossy(value);
                            scan_with_extra_round(
                                &mut emit,
                                LeakMethod::Payload,
                                &String::from_utf8_lossy(&key),
                                &String::from_utf8_lossy(&value),
                            );
                        }
                        None => {
                            let token = pii_encodings::percent::decode_form_lossy(pair);
                            scan_with_extra_round(
                                &mut emit,
                                LeakMethod::Payload,
                                "",
                                &String::from_utf8_lossy(&token),
                            );
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::TokenSetBuilder;
    use pii_browser::profiles::BrowserKind;
    use pii_crawler::Crawler;
    use pii_web::Universe;

    struct World {
        universe: Universe,
        psl: PublicSuffixList,
        dataset: CrawlDataset,
        tokens: TokenSet,
    }

    fn world() -> World {
        let universe = Universe::generate();
        let psl = PublicSuffixList::embedded();
        let dataset = Crawler::new(&universe).run(BrowserKind::Firefox88Vanilla);
        let tokens = TokenSetBuilder::default().build(&universe.persona);
        World {
            universe,
            psl,
            dataset,
            tokens,
        }
    }

    #[test]
    fn detects_the_ground_truth_senders_exactly() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        let detected: std::collections::HashSet<&str> = report.senders().into_iter().collect();
        let truth: std::collections::HashSet<&str> = w
            .universe
            .sender_sites()
            .map(|s| s.domain.as_str())
            .collect();
        assert_eq!(detected, truth, "detected senders must equal ground truth");
        assert_eq!(detected.len(), 130);
    }

    #[test]
    fn receiver_count_matches_ground_truth() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        assert_eq!(report.receivers().len(), 100);
    }

    #[test]
    fn every_method_is_observed() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        for method in LeakMethod::ALL {
            assert!(
                report.events.iter().any(|e| e.method == method),
                "no {method:?} events detected"
            );
        }
    }

    #[test]
    fn cloaked_adobe_is_unmasked() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        let cloaked: Vec<&LeakEvent> = report.events.iter().filter(|e| e.cloaked).collect();
        assert!(!cloaked.is_empty());
        assert!(cloaked.iter().all(|e| e.receiver_domain == "omtrdc.net"));
        assert!(cloaked
            .iter()
            .all(|e| e.request_host.starts_with("metrics.")));
    }

    #[test]
    fn leaking_request_count_is_in_paper_range() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        let n = report.leaking_request_count();
        assert!(
            (1300..=1800).contains(&n),
            "leaking requests = {n} (paper: 1,522)"
        );
    }

    #[test]
    fn buckets_cover_table_1b_rows() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        for bucket in [
            "plaintext",
            "base64",
            "md5",
            "sha1",
            "sha256",
            "sha256_of_md5",
        ] {
            assert!(
                report.events.iter().any(|e| e.bucket == bucket),
                "bucket {bucket} never detected"
            );
        }
    }

    #[test]
    fn no_leaks_from_non_sender_sites() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&w.dataset);
        let senders: std::collections::HashSet<&str> = report.senders().into_iter().collect();
        for site in w.universe.crawlable_sites() {
            if !site.is_sender() {
                assert!(
                    !senders.contains(site.domain.as_str()),
                    "false positive on {}",
                    site.domain
                );
            }
        }
    }

    #[test]
    fn parallel_detection_is_identical_to_sequential() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let sequential = detector.detect(&w.dataset);
        for workers in [1, 2, 4, 7] {
            let parallel = detector.detect_parallel(&w.dataset, workers);
            assert_eq!(parallel.events, sequential.events, "workers = {workers}");
            assert_eq!(
                parallel.third_party_requests,
                sequential.third_party_requests
            );
            assert_eq!(parallel.total_requests, sequential.total_requests);
            assert_eq!(parallel.skipped_records, sequential.skipped_records);
        }
    }

    #[test]
    fn merge_sums_skipped_records() {
        let mut a = DetectionReport {
            skipped_records: 2,
            ..DetectionReport::default()
        };
        let b = DetectionReport {
            skipped_records: 3,
            total_requests: 7,
            ..DetectionReport::default()
        };
        a.merge(b);
        assert_eq!(a.skipped_records, 5);
        assert_eq!(a.total_requests, 7);
    }

    /// One completed single-record crawl for a synthetic third-party request.
    fn single_record_crawl(sender: &str, request: pii_net::Request) -> SiteCrawl {
        SiteCrawl {
            domain: sender.to_string(),
            outcome: pii_crawler::CrawlOutcome::Completed {
                email_confirmed: true,
                bot_detection_passed: true,
            },
            records: vec![pii_browser::engine::FetchRecord {
                request,
                response: pii_net::Response::ok(),
                blocked: None,
                error: None,
                from_cache: None,
            }],
            stored_cookies: Vec::new(),
            resilience: None,
        }
    }

    #[test]
    fn path_segment_leaks_are_percent_decoded() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let sender = w.universe.sender_sites().next().unwrap().domain.clone();
        // Singly and doubly percent-encoded plaintext-email path segments
        // must both resolve to the same leak as the query-value form.
        for path in [
            "/track/foo%40mydom.com/pixel",
            "/track/foo%2540mydom.com/pixel",
        ] {
            let url = pii_net::Url::parse(&format!("https://facebook.com{path}")).unwrap();
            let request = pii_net::Request::new(
                pii_net::Method::Get,
                url,
                pii_net::http::ResourceKind::Image,
            );
            let mut report = DetectionReport::default();
            detector.detect_site(&single_record_crawl(&sender, request), &mut report);
            let hit = report
                .events
                .iter()
                .find(|e| e.method == LeakMethod::Uri && e.param.is_empty())
                .unwrap_or_else(|| panic!("no path-segment event for {path}"));
            assert_eq!(hit.pii, PiiKind::Email);
            assert_eq!(hit.bucket, "plaintext");
            assert_eq!(hit.receiver_domain, "facebook.com");
        }
    }

    /// The same double-encoded email (`foo%2540mydom.com` — `%40` escaped
    /// again) must be detected in every channel. Before the shared
    /// `scan_with_extra_round` helper, query values and path segments
    /// applied the one-extra-round rule but cookie and payload values
    /// decoded only once, so the identical bytes leaked or hid depending on
    /// which channel carried them.
    #[test]
    fn channels_agree_on_double_encoded_email() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let sender = w.universe.sender_sites().next().unwrap().domain.clone();
        let double = "foo%2540mydom.com";
        let plain_url = || pii_net::Url::parse("https://facebook.com/beacon").unwrap();
        let cases: Vec<(LeakMethod, pii_net::Request)> = vec![
            (
                LeakMethod::Uri,
                pii_net::Request::new(
                    pii_net::Method::Get,
                    pii_net::Url::parse(&format!("https://facebook.com/p?em={double}")).unwrap(),
                    pii_net::http::ResourceKind::Image,
                ),
            ),
            (
                LeakMethod::Uri,
                pii_net::Request::new(
                    pii_net::Method::Get,
                    pii_net::Url::parse(&format!("https://facebook.com/track/{double}/px"))
                        .unwrap(),
                    pii_net::http::ResourceKind::Image,
                ),
            ),
            (
                LeakMethod::Cookie,
                pii_net::Request::new(
                    pii_net::Method::Get,
                    plain_url(),
                    pii_net::http::ResourceKind::Image,
                )
                .with_header("Cookie", format!("uid={double}")),
            ),
            (
                LeakMethod::Payload,
                pii_net::Request::new(
                    pii_net::Method::Post,
                    plain_url(),
                    pii_net::http::ResourceKind::Xhr,
                )
                .with_body(format!("em={double}").into_bytes()),
            ),
        ];
        for (method, request) in cases {
            let mut report = DetectionReport::default();
            detector.detect_site(&single_record_crawl(&sender, request), &mut report);
            let hit = report
                .events
                .iter()
                .find(|e| e.method == method && e.pii == PiiKind::Email)
                .unwrap_or_else(|| {
                    panic!("double-encoded email not detected in {method:?} channel")
                });
            assert_eq!(hit.bucket, "plaintext");
        }
    }

    #[test]
    fn payload_keys_are_decoded_and_bare_fragments_follow_query_pairs_convention() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let sender = w.universe.sender_sites().next().unwrap().domain.clone();
        // An encoded parameter name plus a bare token fragment: the name
        // must aggregate as `user_email`, and the bare fragment must be
        // scanned as a value under an empty parameter — not the other way
        // round (the old code inverted the `query_pairs` convention and
        // never decoded names).
        let body = "user%5Femail=foo%40mydom.com&foo%40mydom.com";
        let url = pii_net::Url::parse("https://facebook.com/beacon").unwrap();
        let request =
            pii_net::Request::new(pii_net::Method::Post, url, pii_net::http::ResourceKind::Xhr)
                .with_body(body.as_bytes().to_vec());
        let mut report = DetectionReport::default();
        detector.detect_site(&single_record_crawl(&sender, request), &mut report);
        let payload: Vec<&LeakEvent> = report
            .events
            .iter()
            .filter(|e| e.method == LeakMethod::Payload)
            .collect();
        assert!(
            payload.iter().any(|e| e.param == "user_email"),
            "encoded parameter name was not form-decoded: {payload:?}"
        );
        assert!(
            !payload.iter().any(|e| e.param.contains('%')),
            "raw encoded parameter name leaked into the aggregate: {payload:?}"
        );
        assert!(
            payload
                .iter()
                .any(|e| e.param.is_empty() && e.pii == PiiKind::Email),
            "bare payload fragment was not scanned as a value: {payload:?}"
        );
    }

    #[test]
    fn panicking_detect_worker_degrades_to_skipped_records() {
        let w = world();
        let victim = w
            .dataset
            .completed()
            .find(|c| !c.records.is_empty())
            .map(|c| c.domain.clone())
            .unwrap();
        let victim_records = w.dataset.site(&victim).unwrap().records.len();
        // The guard must not depend on the worker count: one worker takes
        // the sequential branch, four the sharded one.
        for workers in [1, 4] {
            let mut detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
            let baseline = detector.detect_parallel(&w.dataset, workers);
            // The victim's own faultless contribution to the skipped counter.
            let mut victim_only = DetectionReport::default();
            detector.detect_site(w.dataset.site(&victim).unwrap(), &mut victim_only);

            detector.panic_domains.insert(victim.clone());
            let degraded = detector.detect_parallel(&w.dataset, workers);

            // The pass finishes; the victim degrades into skipped records
            // while every other site's events survive byte-identically.
            assert_eq!(
                degraded.skipped_records,
                baseline.skipped_records - victim_only.skipped_records + victim_records,
                "workers = {workers}"
            );
            assert_eq!(
                degraded.total_requests,
                baseline.total_requests - victim_only.total_requests
            );
            assert!(!degraded.senders().contains(&victim.as_str()));
            let expected: Vec<LeakEvent> = baseline
                .events
                .iter()
                .filter(|e| e.sender != victim)
                .cloned()
                .collect();
            assert_eq!(degraded.events, expected);
        }
    }

    #[test]
    fn sequential_detection_degrades_a_panicking_site_to_skipped_records() {
        let w = world();
        let victim = w
            .dataset
            .completed()
            .find(|c| !c.records.is_empty())
            .map(|c| c.domain.clone())
            .unwrap();
        let victim_crawl = w.dataset.site(&victim).unwrap();
        let mut detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let baseline = detector.detect(&w.dataset);
        let mut victim_only = DetectionReport::default();
        detector.detect_site(victim_crawl, &mut victim_only);

        detector.panic_domains.insert(victim.clone());
        let degraded = detector.detect(&w.dataset);
        assert_eq!(
            degraded.skipped_records,
            baseline.skipped_records - victim_only.skipped_records + victim_crawl.records.len()
        );
        assert_eq!(
            degraded.total_requests,
            baseline.total_requests - victim_only.total_requests
        );
        let expected: Vec<LeakEvent> = baseline
            .events
            .iter()
            .filter(|e| e.sender != victim)
            .cloned()
            .collect();
        assert_eq!(degraded.events, expected);
    }

    /// Every completed site of `dataset`, detected by the current detector
    /// and by the reference, must give equal fragments.
    fn assert_matches_reference(detector: &LeakDetector<'_>, dataset: &CrawlDataset, label: &str) {
        let mut sites = 0;
        for crawl in dataset.completed() {
            let mut current = DetectionReport::default();
            detector.detect_site(crawl, &mut current);
            let mut oracle = DetectionReport::default();
            reference::detect_site(detector, crawl, &mut oracle);
            assert_eq!(current, oracle, "{label}: {}", crawl.domain);
            sites += 1;
        }
        assert!(sites > 0, "{label}: no completed sites");
    }

    #[test]
    fn detect_site_matches_the_reference_on_seeded_crawls() {
        let psl = PublicSuffixList::embedded();
        for seed in [7, 11, 23] {
            let universe = Universe::generate_with(pii_web::UniverseSpec {
                seed,
                ..pii_web::UniverseSpec::default()
            });
            let tokens = TokenSetBuilder::default().build(&universe.persona);
            let detector = LeakDetector::new(&tokens, &psl, &universe.zones);
            let mut crawler = Crawler::new(&universe);
            let plain = crawler.run(BrowserKind::Firefox88Vanilla);
            assert_matches_reference(&detector, &plain, &format!("seed {seed}"));
            // Transport faults, cache hits and revalidations put skipped and
            // undelivered records into the capture.
            crawler.faults = universe.fault_plan(pii_net::fault::FaultProfile::PaperMay2021);
            crawler.cache = Some(pii_net::cache::CacheStrategy::CacheFirst);
            crawler.repeat = 2;
            let faulted = crawler.run(BrowserKind::Firefox88Vanilla);
            assert!(
                faulted
                    .completed()
                    .any(|c| c.records.iter().any(|r| r.error.is_some())),
                "seed {seed}: the faulted crawl must hold aborted records"
            );
            assert_matches_reference(&detector, &faulted, &format!("seed {seed} faulted"));
        }
    }

    #[test]
    fn detect_site_matches_the_reference_on_edge_records() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let sender = w.universe.sender_sites().next().unwrap().domain.clone();
        let referers = [
            None,
            Some("not a url at all".to_string()),
            Some("http://".to_string()),
            Some("https://host:99999/".to_string()),
            Some(format!(
                "https://{sender}/welcome?email=foo%40mydom.com&name=Alice+Doe"
            )),
            Some(format!(
                "https://{sender}/welcome?em=foo%2540mydom.com&flag&=x"
            )),
            Some(format!("https://{sender}/p%20q/?x=%zz&y=%4")),
        ];
        let urls = [
            "https://facebook.com/tr?ev=1&em=foo%40mydom.com&u=a+b".to_string(),
            "https://facebook.com/track/foo%2540mydom.com/px/%ZZ".to_string(),
            "https://FaceBook.com/plain/segment".to_string(),
            format!("https://{sender}/first/party?em=foo%40mydom.com"),
            format!("https://metrics.{sender}/b/ss?AQB=1"),
        ];
        let cookies = [
            None,
            Some("uid=foo%40mydom.com; b64=Zm9vQG15ZG9tLmNvbQ==; bare; =x"),
            Some("e=foo%2540mydom.com"),
        ];
        let bodies: [Option<&[u8]>; 4] = [
            None,
            Some(b"user%5Femail=foo%40mydom.com&foo%40mydom.com&a+b=c+d"),
            Some(b"em=foo%2540mydom.com&&="),
            Some(b"\xff\xfeem=foo@mydom.com"),
        ];
        let mut records = Vec::new();
        for referer in &referers {
            for url in &urls {
                for cookie in &cookies {
                    for body in &bodies {
                        let mut request = pii_net::Request::new(
                            pii_net::Method::Post,
                            pii_net::Url::parse(url).unwrap(),
                            pii_net::http::ResourceKind::Xhr,
                        );
                        if let Some(referer) = referer {
                            request = request.with_header("Referer", referer.clone());
                        }
                        if let Some(cookie) = cookie {
                            request = request.with_header("Cookie", *cookie);
                        }
                        if let Some(body) = body {
                            request = request.with_body(body.to_vec());
                        }
                        records.push(single_record_crawl(&sender, request).records.remove(0));
                    }
                }
            }
        }
        let mut crawl = single_record_crawl(
            &sender,
            pii_net::Request::new(
                pii_net::Method::Get,
                pii_net::Url::parse("https://facebook.com/").unwrap(),
                pii_net::http::ResourceKind::Image,
            ),
        );
        crawl.records = records;
        let mut current = DetectionReport::default();
        detector.detect_site(&crawl, &mut current);
        let mut oracle = DetectionReport::default();
        reference::detect_site(&detector, &crawl, &mut oracle);
        assert_eq!(current, oracle);
        // The matrix reaches every branch: mangled Referers are skipped,
        // and leaks surface in every channel.
        assert!(current.skipped_records > 0);
        for method in LeakMethod::ALL {
            assert!(
                current.events.iter().any(|e| e.method == method),
                "{method:?}"
            );
        }
    }

    /// The Referer cache holds one entry: a Referer that changes mid-page,
    /// or an unparseable one between two equal parseable ones, must neither
    /// reuse a stale page path nor let a mangled record through.
    #[test]
    fn referer_cache_follows_every_change_of_referer() {
        let w = world();
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let sender = w.universe.sender_sites().next().unwrap().domain.clone();
        let (a, b) = (format!("https://{sender}/a"), format!("https://{sender}/b"));
        let referers = [&a, &a, "not a url", &a, &b, "http://", &b, &a];
        let mut crawl = single_record_crawl(
            &sender,
            pii_net::Request::new(
                pii_net::Method::Get,
                pii_net::Url::parse("https://facebook.com/").unwrap(),
                pii_net::http::ResourceKind::Image,
            ),
        );
        let template = crawl.records.remove(0);
        for referer in referers {
            let mut record = template.clone();
            record.request = pii_net::Request::new(
                pii_net::Method::Get,
                pii_net::Url::parse("https://facebook.com/tr?em=foo%40mydom.com").unwrap(),
                pii_net::http::ResourceKind::Image,
            )
            .with_header("Referer", referer.to_string());
            crawl.records.push(record);
        }
        let mut report = DetectionReport::default();
        detector.detect_site(&crawl, &mut report);
        assert_eq!(report.skipped_records, 2);
        let mut pages: Vec<(usize, &str)> = report
            .events
            .iter()
            .map(|e| (e.request_index, e.page_path.as_str()))
            .collect();
        pages.dedup();
        assert_eq!(
            pages,
            [
                (0, "/a"),
                (1, "/a"),
                (3, "/a"),
                (4, "/b"),
                (6, "/b"),
                (7, "/a")
            ]
        );
        let mut oracle = DetectionReport::default();
        reference::detect_site(&detector, &crawl, &mut oracle);
        assert_eq!(report, oracle);
    }

    /// The seed world, its detector inputs, and the hosts the arbitrary
    /// records are sent to, built once for every proptest case.
    struct Arena {
        world: World,
        sender: String,
        hosts: Vec<String>,
    }

    fn arena() -> &'static Arena {
        static ARENA: std::sync::OnceLock<Arena> = std::sync::OnceLock::new();
        ARENA.get_or_init(|| {
            let world = world();
            let detector = LeakDetector::new(&world.tokens, &world.psl, &world.universe.zones);
            let sender = detector
                .detect(&world.dataset)
                .events
                .iter()
                .find(|e| e.cloaked)
                .expect("the seed world has a cloaked receiver")
                .sender
                .clone();
            // The sender's own hosts (first party and cloaked), its third
            // parties, each again in mixed case, and hosts with no
            // registrable domain.
            let mut hosts: Vec<String> = world
                .dataset
                .site(&sender)
                .unwrap()
                .records
                .iter()
                .map(|r| r.request.url.host.clone())
                .collect();
            hosts.sort();
            hosts.dedup();
            let mixed: Vec<String> = hosts
                .iter()
                .map(|h| {
                    h.char_indices()
                        .map(|(i, c)| {
                            if i % 2 == 0 {
                                c.to_ascii_uppercase()
                            } else {
                                c
                            }
                        })
                        .collect()
                })
                .collect();
            hosts.extend(mixed);
            hosts.extend(["com", "co.uk", "", "a..b."].map(String::from));
            Arena {
                world,
                sender,
                hosts,
            }
        })
    }

    proptest::proptest! {
        /// Arbitrary records — Referers that hold, change mid-page or do not
        /// parse, arbitrary cookies, paths, queries and bodies, repeated
        /// first-party, cloaked and third-party hosts in mixed case — never
        /// panic the memoized detector, and its whole report equals the
        /// reference's.
        #[test]
        fn detect_site_matches_the_reference_on_arbitrary_records(
            controls in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..40),
            texts in proptest::collection::vec(
                "(foo%40mydom.com|foo@mydom.com|foo%2540mydom.com|Zm9vQG15ZG9tLmNvbQ==|%|%4|%zz|%C3%A9|é|[ -~]){0,8}",
                1..12,
            ),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let arena = arena();
            let w = &arena.world;
            let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
            let mut texts = texts;
            texts.push(String::from_utf8_lossy(&noise).into_owned());
            let text = |control: u64, shift: u32| texts[(control >> shift) as usize % texts.len()].as_str();
            let mut crawl = single_record_crawl(
                &arena.sender,
                pii_net::Request::new(
                    pii_net::Method::Get,
                    pii_net::Url::parse("https://facebook.com/").unwrap(),
                    pii_net::http::ResourceKind::Image,
                ),
            );
            let template = crawl.records.remove(0);
            let mut page = format!("https://{}/", arena.sender);
            for c in controls {
                let url = pii_net::Url {
                    scheme: "https".to_string(),
                    host: arena.hosts[c as usize % arena.hosts.len()].clone(),
                    port: None,
                    path: format!("/{}", text(c, 40)),
                    query: (c & (1 << 36) != 0).then(|| text(c, 44).to_string()),
                    fragment: None,
                };
                let mut request = pii_net::Request::new(
                    pii_net::Method::Post,
                    url,
                    pii_net::http::ResourceKind::Xhr,
                );
                match (c >> 8) % 5 {
                    0 => {}
                    1 => request = request.with_header("Referer", page.clone()),
                    2 => {
                        page = format!("https://{}/{}?em={}", arena.sender, text(c, 48), text(c, 52));
                        request = request.with_header("Referer", page.clone());
                    }
                    3 => request = request.with_header("Referer", text(c, 48).to_string()),
                    _ => request = request.with_header("Referer", "not a url"),
                }
                match (c >> 16) % 3 {
                    0 => {}
                    1 => request = request.with_header("Cookie", text(c, 56).to_string()),
                    _ => request = request.with_header("Cookie", format!("uid={}", text(c, 56))),
                }
                match (c >> 24) % 3 {
                    0 => {}
                    1 => request = request.with_body(text(c, 60).as_bytes().to_vec()),
                    _ => request = request.with_body(noise.clone()),
                }
                let mut record = template.clone();
                record.request = request;
                if (c >> 32) % 8 == 0 {
                    record.error = Some(pii_net::fault::FetchError::Reset);
                }
                crawl.records.push(record);
            }
            let mut current = DetectionReport::default();
            detector.detect_site(&crawl, &mut current);
            let mut oracle = DetectionReport::default();
            reference::detect_site(&detector, &crawl, &mut oracle);
            proptest::prop_assert_eq!(current, oracle);
        }
    }

    #[test]
    fn brave_crawl_detects_only_the_missed_receivers() {
        let w = world();
        let brave = Crawler::new(&w.universe).run(BrowserKind::Brave129);
        let detector = LeakDetector::new(&w.tokens, &w.psl, &w.universe.zones);
        let report = detector.detect(&brave);
        let receivers: std::collections::HashSet<&str> = report.receivers().into_iter().collect();
        assert_eq!(receivers.len(), 8, "§7.1: Brave misses exactly 8 receivers");
        assert_eq!(report.senders().len(), 9, "§7.1: ~93.1% sender reduction");
    }
}
