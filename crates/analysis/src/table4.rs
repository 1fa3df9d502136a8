//! Table 4 — detection performance of EasyList / EasyPrivacy / combined.
//!
//! "To determine if a request would have been blocked by an extension
//! utilizing these lists, we directly match the block list rules … with
//! 1,522 HTTP requests that contained leaked PII and all requests in their
//! request initiator chains."
//!
//! A leak is *prevented* when the leak request itself, or any request in
//! its initiator chain, matches the list. For CNAME-cloaked requests the
//! unmasked URL (host replaced by the CNAME target) is matched too, the way
//! CNAME-aware blockers operate. A sender/receiver counts as blocked when
//! **all** of its leaking requests are prevented.
//!
//! The join from leak events to requests and initiator chains builds each
//! sender's URL → request index once and reuses it for every leak request
//! of that sender, rather than rebuilding it per leak. The index borrows
//! the records' URLs as keys. The join also computes, once per leak
//! request, what every list check needs (the lowercased URL text, the host
//! and the third-party flag), and [`evaluate_all`] matches all three lists
//! over one join.

use crate::report::{count_pct, Comparison, Table};
use crate::study::StudyResults;
use pii_blocklist::{lists, FilterSet, RequestInfo};
use pii_core::LeakEvent;
use pii_crawler::CrawlDataset;
use pii_dns::{PublicSuffixList, ZoneStore};
use pii_net::http::Request;
use pii_net::Url;
use pii_web::site::LeakMethod;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One leak request joined with everything matching needs.
struct LeakRequest<'a> {
    sender: &'a str,
    receivers: BTreeSet<&'a str>,
    methods: BTreeSet<LeakMethod>,
    /// The requests a list may block the leak through, as each list check
    /// sees them: the leak request, its CNAME-unmasked form when it is
    /// cloaked, then its initiator chain, leak-first.
    checks: Vec<Check<'a>>,
}

/// One request as a list check sees it, computed once per leak request.
struct Check<'a> {
    request: &'a Request,
    /// The URL's text, ASCII-lowercased.
    url: String,
    /// The request's host; owned for an unmasked form.
    host: Cow<'a, str>,
    third_party: bool,
}

impl<'a> Check<'a> {
    /// `req` on `site`, or its CNAME-unmasked form when `unmasked` is set:
    /// the URL's host replaced by the unmasked one, always a third party.
    fn new(
        psl: &PublicSuffixList,
        site: &str,
        req: &'a Request,
        unmasked: Option<&str>,
    ) -> Check<'a> {
        let (mut url, host, third_party) = match unmasked {
            Some(h) => (
                req.url.text().replacen(&req.url.host, h, 1),
                Cow::Owned(h.to_string()),
                true,
            ),
            None => (
                req.url.text(),
                Cow::Borrowed(req.url.host.as_str()),
                !psl.same_site(&req.url.host, site),
            ),
        };
        url.make_ascii_lowercase();
        Check {
            request: req,
            url,
            host,
            third_party,
        }
    }

    /// The check of this request against `set`.
    fn blocked_by(&self, set: &FilterSet, site: &str) -> bool {
        set.is_blocked(&RequestInfo {
            url: &self.url,
            host: &self.host,
            top_level_host: site,
            is_third_party: self.third_party,
            kind: self.request.kind,
        })
    }
}

/// The checks of a leak request, in the order a list is matched.
fn checks<'a>(
    psl: &PublicSuffixList,
    site: &str,
    request: &'a Request,
    unmasked_host: Option<&str>,
    chain: &[&'a Request],
) -> Vec<Check<'a>> {
    let mut out = Vec::with_capacity(1 + usize::from(unmasked_host.is_some()) + chain.len());
    out.push(Check::new(psl, site, request, None));
    if let Some(unmasked) = unmasked_host {
        out.push(Check::new(psl, site, request, Some(unmasked)));
    }
    out.extend(chain.iter().map(|req| Check::new(psl, site, req, None)));
    out
}

/// The receivers, methods and cloaking flag of one `(sender, request)` group.
type Group<'a> = (BTreeSet<&'a str>, BTreeSet<LeakMethod>, bool);

fn collect(r: &StudyResults) -> Vec<LeakRequest<'_>> {
    join(&r.dataset, &r.universe.zones, &r.psl, &r.report.events)
}

/// Join the leak events, grouped by `(sender, request index)`, to their
/// crawl records, initiator chains and unmasked hosts. Groups are visited
/// sender by sender, so each sender's crawl and URL index are looked up and
/// built once and shared by all of that sender's groups.
fn join<'a>(
    dataset: &'a CrawlDataset,
    zones: &ZoneStore,
    psl: &PublicSuffixList,
    events: &'a [LeakEvent],
) -> Vec<LeakRequest<'a>> {
    let mut grouped: BTreeMap<&str, BTreeMap<usize, Group>> = BTreeMap::new();
    for e in events {
        let entry = grouped
            .entry(e.sender.as_str())
            .or_default()
            .entry(e.request_index)
            .or_default();
        entry.0.insert(e.receiver_domain.as_str());
        entry.1.insert(e.method);
        entry.2 |= e.cloaked;
    }
    let mut out = Vec::new();
    for (sender, groups) in grouped {
        // A leak event whose crawl or record is missing from the dataset is a
        // degraded capture: skip the row rather than abort the whole table.
        let Some(crawl) = dataset.site(sender) else {
            continue;
        };
        // Walk initiator chains by URL equality within the same crawl. Two
        // `Url`s are equal exactly when their texts are, since no URL the
        // browser builds holds a delimiter inside a field (a `?` in the
        // path, a `#` in the query).
        let by_url: HashMap<&Url, &Request> = crawl
            .records
            .iter()
            .map(|rec| (&rec.request.url, &rec.request))
            .collect();
        for (index, (receivers, methods, cloaked)) in groups {
            let Some(record) = crawl.records.get(index) else {
                continue;
            };
            let request = &record.request;
            let mut chain = Vec::new();
            let mut cursor = request.initiator.as_deref();
            for _ in 0..5 {
                let Some(url) = cursor.take() else { break };
                let Some(req) = by_url.get(&url) else { break };
                chain.push(*req);
                let next = req.initiator.as_deref();
                if next == Some(url) {
                    break; // self-initiated: end of chain
                }
                cursor = next;
            }
            let unmasked_host = if cloaked {
                zones
                    .resolve(&request.url.host)
                    .cname_chain
                    .first()
                    .cloned()
            } else {
                None
            };
            out.push(LeakRequest {
                sender,
                receivers,
                methods,
                checks: checks(psl, sender, request, unmasked_host.as_deref(), &chain),
            });
        }
    }
    out
}

/// Whether `set` prevents the leak: it blocks the leak request, its
/// unmasked form, or a request of its initiator chain.
fn blocked_by(set: &FilterSet, leak: &LeakRequest) -> bool {
    leak.checks.iter().any(|c| c.blocked_by(set, leak.sender))
}

/// Blocked-counts for one list.
pub struct ListPerformance {
    pub name: &'static str,
    /// Per method: (blocked senders, total senders, blocked receivers,
    /// total receivers).
    pub by_method: BTreeMap<LeakMethod, (usize, usize, usize, usize)>,
    pub combined_senders: (usize, usize),
    pub combined_receivers: (usize, usize),
    pub total_senders: (usize, usize),
    pub total_receivers: (usize, usize),
}

/// Evaluate one filter set over the study's leak requests.
pub fn evaluate(r: &StudyResults, name: &'static str, set: &FilterSet) -> ListPerformance {
    evaluate_joined(name, set, &collect(r))
}

/// [`evaluate`] over leak requests already joined by [`collect`].
fn evaluate_joined(name: &'static str, set: &FilterSet, leaks: &[LeakRequest]) -> ListPerformance {
    // Per sender / receiver / method: total and unblocked leak requests.
    let mut sender_all: BTreeMap<&str, bool> = BTreeMap::new(); // all blocked?
    let mut receiver_all: BTreeMap<&str, bool> = BTreeMap::new();
    let mut sender_methods: BTreeMap<&str, BTreeSet<LeakMethod>> = BTreeMap::new();
    let mut receiver_methods: BTreeMap<&str, BTreeSet<LeakMethod>> = BTreeMap::new();
    let mut sender_method_all: BTreeMap<(&str, LeakMethod), bool> = BTreeMap::new();
    let mut receiver_method_all: BTreeMap<(&str, LeakMethod), bool> = BTreeMap::new();
    for leak in leaks {
        let blocked = blocked_by(set, leak);
        *sender_all.entry(leak.sender).or_insert(true) &= blocked;
        for &method in &leak.methods {
            sender_methods
                .entry(leak.sender)
                .or_default()
                .insert(method);
            *sender_method_all
                .entry((leak.sender, method))
                .or_insert(true) &= blocked;
        }
        for &receiver in &leak.receivers {
            *receiver_all.entry(receiver).or_insert(true) &= blocked;
            for &method in &leak.methods {
                receiver_methods.entry(receiver).or_default().insert(method);
                *receiver_method_all
                    .entry((receiver, method))
                    .or_insert(true) &= blocked;
            }
        }
    }
    let mut by_method = BTreeMap::new();
    for method in LeakMethod::ALL {
        let s_total = sender_methods
            .values()
            .filter(|m| m.contains(&method))
            .count();
        let s_blocked = sender_method_all
            .iter()
            .filter(|((_, m), blocked)| *m == method && **blocked)
            .count();
        let r_total = receiver_methods
            .values()
            .filter(|m| m.contains(&method))
            .count();
        let r_blocked = receiver_method_all
            .iter()
            .filter(|((_, m), blocked)| *m == method && **blocked)
            .count();
        by_method.insert(method, (s_blocked, s_total, r_blocked, r_total));
    }
    let multi_senders: Vec<&str> = sender_methods
        .iter()
        .filter(|(_, m)| m.len() > 1)
        .map(|(s, _)| *s)
        .collect();
    let multi_receivers: Vec<&str> = receiver_methods
        .iter()
        .filter(|(_, m)| m.len() > 1)
        .map(|(s, _)| *s)
        .collect();
    ListPerformance {
        name,
        by_method,
        combined_senders: (
            multi_senders
                .iter()
                .filter(|s| sender_all.get(*s).copied().unwrap_or(false))
                .count(),
            multi_senders.len(),
        ),
        combined_receivers: (
            multi_receivers
                .iter()
                .filter(|s| receiver_all.get(*s).copied().unwrap_or(false))
                .count(),
            multi_receivers.len(),
        ),
        total_senders: (
            sender_all.values().filter(|b| **b).count(),
            sender_all.len(),
        ),
        total_receivers: (
            receiver_all.values().filter(|b| **b).count(),
            receiver_all.len(),
        ),
    }
}

/// Evaluate all three lists over one join.
pub fn evaluate_all(r: &StudyResults) -> Vec<ListPerformance> {
    let leaks = collect(r);
    let (easylist, easyprivacy) = (lists::easylist(), lists::easyprivacy());
    // `lists::combined()`, without parsing both lists a second time.
    let combined = FilterSet::combined(&[&easylist, &easyprivacy]);
    vec![
        evaluate_joined("EasyList", &easylist, &leaks),
        evaluate_joined("EasyPrivacy", &easyprivacy, &leaks),
        evaluate_joined("Combined", &combined, &leaks),
    ]
}

pub fn table(r: &StudyResults) -> Table {
    let perf = evaluate_all(r);
    let mut t = Table::new(
        "Table 4 — detection performance of well-known filters",
        &["Metric", "", "EasyList", "EasyPrivacy", "Combined"],
    );
    let method_rows = [
        (LeakMethod::Referer, "Referer"),
        (LeakMethod::Uri, "URI"),
        (LeakMethod::Payload, "Payload"),
        (LeakMethod::Cookie, "Cookie"),
    ];
    for (scope, sender_side) in [("Senders", true), ("Receivers", false)] {
        for (method, label) in method_rows {
            let cells: Vec<String> = perf
                .iter()
                .map(|p| {
                    let (sb, st, rb, rt) =
                        p.by_method.get(&method).copied().unwrap_or((0, 0, 0, 0));
                    if sender_side {
                        count_pct(sb, st)
                    } else {
                        count_pct(rb, rt)
                    }
                })
                .collect();
            t.row(&[
                scope.to_string(),
                label.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
        let combined: Vec<String> = perf
            .iter()
            .map(|p| {
                let (b, tot) = if sender_side {
                    p.combined_senders
                } else {
                    p.combined_receivers
                };
                count_pct(b, tot)
            })
            .collect();
        t.row(&[
            scope.to_string(),
            "Combined".to_string(),
            combined[0].clone(),
            combined[1].clone(),
            combined[2].clone(),
        ]);
        let totals: Vec<String> = perf
            .iter()
            .map(|p| {
                let (b, tot) = if sender_side {
                    p.total_senders
                } else {
                    p.total_receivers
                };
                count_pct(b, tot)
            })
            .collect();
        t.row(&[
            scope.to_string(),
            "Total".to_string(),
            totals[0].clone(),
            totals[1].clone(),
            totals[2].clone(),
        ]);
    }
    t
}

pub fn comparisons(r: &StudyResults) -> Vec<Comparison> {
    let perf = evaluate_all(r);
    let el = &perf[0];
    let ep = &perf[1];
    let all = &perf[2];
    let cookie = all
        .by_method
        .get(&LeakMethod::Cookie)
        .copied()
        .unwrap_or((0, 0, 0, 0));
    vec![
        Comparison::counts("Table 4 / EasyList total senders", 1, el.total_senders.0, 1),
        Comparison::counts(
            "Table 4 / EasyList total receivers",
            8,
            el.total_receivers.0,
            2,
        ),
        Comparison::counts(
            "Table 4 / EasyPrivacy total senders",
            95,
            ep.total_senders.0,
            8,
        ),
        Comparison::counts(
            "Table 4 / EasyPrivacy total receivers",
            65,
            ep.total_receivers.0,
            5,
        ),
        Comparison::counts(
            "Table 4 / Combined total senders",
            102,
            all.total_senders.0,
            8,
        ),
        Comparison::counts(
            "Table 4 / Combined total receivers",
            72,
            all.total_receivers.0,
            4,
        ),
        Comparison::counts("Table 4 / Combined cookie senders", 5, cookie.0, 0),
        Comparison::counts("Table 4 / Combined cookie receivers", 1, cookie.2, 0),
    ]
}

/// §7.2's closing observation: the tracking providers the combined lists
/// still miss.
pub fn missed_tracking_providers(r: &StudyResults) -> Vec<String> {
    let set = lists::combined();
    let leaks = collect(r);
    let confirmed: BTreeSet<&str> = r
        .tracking
        .confirmed()
        .iter()
        .map(|p| p.receiver_domain.as_str())
        .collect();
    let mut missed: BTreeSet<String> = BTreeSet::new();
    for leak in &leaks {
        if !blocked_by(&set, leak) {
            for receiver in &leak.receivers {
                if confirmed.contains(receiver) {
                    missed.insert(r.receiver_label(receiver));
                }
            }
        }
    }
    missed.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::testutil::shared;
    use pii_browser::engine::FetchRecord;
    use pii_crawler::{CrawlOutcome, SiteCrawl};
    use pii_net::http::ResourceKind;
    use pii_net::{Method, Response, Url};

    /// The per-leak join `join` replaced: it looks the crawl up and rebuilds
    /// the URL index for every `(sender, request)` group.
    fn per_leak_join<'a>(
        dataset: &'a CrawlDataset,
        zones: &ZoneStore,
        psl: &PublicSuffixList,
        events: &'a [LeakEvent],
    ) -> Vec<LeakRequest<'a>> {
        let mut grouped: BTreeMap<(&str, usize), Group> = BTreeMap::new();
        for e in events {
            let entry = grouped
                .entry((e.sender.as_str(), e.request_index))
                .or_default();
            entry.0.insert(e.receiver_domain.as_str());
            entry.1.insert(e.method);
            entry.2 |= e.cloaked;
        }
        let mut out = Vec::new();
        for ((sender, index), (receivers, methods, cloaked)) in grouped {
            let Some(crawl) = dataset.site(sender) else {
                continue;
            };
            let Some(record) = crawl.records.get(index) else {
                continue;
            };
            let request = &record.request;
            let by_url: HashMap<String, &Request> = crawl
                .records
                .iter()
                .map(|rec| (rec.request.url.to_string(), &rec.request))
                .collect();
            let mut chain = Vec::new();
            let mut cursor = request.initiator.as_ref().map(|u| u.to_string());
            for _ in 0..5 {
                let Some(url) = cursor.take() else { break };
                let Some(req) = by_url.get(&url) else { break };
                chain.push(*req);
                let next = req.initiator.as_ref().map(|u| u.to_string());
                if next.as_deref() == Some(url.as_str()) {
                    break;
                }
                cursor = next;
            }
            let unmasked_host = if cloaked {
                zones
                    .resolve(&request.url.host)
                    .cname_chain
                    .first()
                    .cloned()
            } else {
                None
            };
            // The per-check lookup `blocked_by` formatted, per list.
            let mut checks = vec![reference_check(psl, sender, request, None)];
            if let Some(unmasked) = &unmasked_host {
                checks.push(reference_check(psl, sender, request, Some(unmasked)));
            }
            checks.extend(
                chain
                    .iter()
                    .map(|req| reference_check(psl, sender, req, None)),
            );
            out.push(LeakRequest {
                sender,
                receivers,
                methods,
                checks,
            });
        }
        out
    }

    /// One check as `blocked_by` built it before the join computed it.
    fn reference_check<'a>(
        psl: &PublicSuffixList,
        site: &str,
        req: &'a Request,
        host_override: Option<&str>,
    ) -> Check<'a> {
        let host = host_override.unwrap_or(&req.url.host);
        let url = match host_override {
            Some(h) => req.url.to_string().replacen(&req.url.host, h, 1),
            None => req.url.to_string(),
        };
        Check {
            request: req,
            url: url.to_ascii_lowercase(),
            host: Cow::Owned(host.to_string()),
            third_party: !psl.same_site(host, site) || host_override.is_some(),
        }
    }

    /// Rows as comparable values: checked requests by address, so "the
    /// same request" means the same record of the same crawl.
    #[allow(clippy::type_complexity)]
    fn rows<'a>(
        leaks: &[LeakRequest<'a>],
    ) -> Vec<(
        &'a str,
        Vec<&'a str>,
        Vec<LeakMethod>,
        Vec<(*const Request, String, String, bool)>,
    )> {
        leaks
            .iter()
            .map(|l| {
                (
                    l.sender,
                    l.receivers.iter().copied().collect(),
                    l.methods.iter().copied().collect(),
                    l.checks
                        .iter()
                        .map(|c| {
                            (
                                c.request as *const Request,
                                c.url.clone(),
                                c.host.to_string(),
                                c.third_party,
                            )
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Whether a leak request is matched through an unmasked form.
    fn unmasked(leak: &LeakRequest) -> bool {
        leak.checks.iter().any(|c| matches!(c.host, Cow::Owned(_)))
    }

    #[test]
    fn per_sender_join_equals_per_leak_join_on_the_study() {
        let r = shared();
        let leaks = collect(r);
        let reference = per_leak_join(&r.dataset, &r.universe.zones, &r.psl, &r.report.events);
        assert!(leaks.len() > 1000, "{} leak requests", leaks.len());
        assert!(leaks.iter().any(|l| l.checks.len() > 1 && !unmasked(l)));
        assert!(leaks.iter().any(unmasked));
        assert_eq!(rows(&leaks), rows(&reference));
    }

    fn record(url: &str, initiator: Option<&str>) -> FetchRecord {
        let mut request = Request::new(Method::Get, Url::parse(url).unwrap(), ResourceKind::Script);
        request.initiator = initiator.map(|u| std::sync::Arc::new(Url::parse(u).unwrap()));
        FetchRecord {
            request,
            response: Response::ok(),
            blocked: None,
            error: None,
            from_cache: None,
        }
    }

    fn crawl(domain: &str, records: Vec<FetchRecord>) -> SiteCrawl {
        SiteCrawl {
            domain: domain.to_string(),
            outcome: CrawlOutcome::Completed {
                email_confirmed: true,
                bot_detection_passed: true,
            },
            records,
            stored_cookies: Vec::new(),
            resilience: None,
        }
    }

    #[test]
    fn per_sender_join_equals_per_leak_join_on_a_hand_built_crawl() {
        // Site a.com: a self-initiated loader and a seven-hop chain, longer
        // than the five-hop cap. Site b.com reuses a.com's URLs, so a
        // cross-sender index mix-up would show.
        let hop = |i: usize| format!("https://t{i}.net/s.js");
        let mut a = vec![record("https://a.com/", Some("https://a.com/"))];
        for i in 0..7 {
            let parent = if i == 0 {
                "https://a.com/".to_string()
            } else {
                hop(i - 1)
            };
            a.push(record(&hop(i), Some(&parent)));
        }
        a.push(record("https://leak.net/p?e=1", Some(&hop(6))));
        let b = vec![
            record("https://b.com/", None),
            record(&hop(0), Some("https://b.com/")),
            record("https://leak.net/p?e=2", Some(&hop(0))),
            record("https://leak.net/p?e=3", Some("https://gone.net/x.js")),
        ];
        let dataset = CrawlDataset {
            crawls: vec![crawl("a.com", a), crawl("b.com", b)],
            ..shared().dataset.clone()
        };
        // Events for both senders, interleaved, plus one whose record and
        // one whose crawl is missing from the dataset.
        let template = shared().report.events[0].clone();
        let event = |sender: &str, request_index: usize, receiver: &str, cloaked: bool| LeakEvent {
            sender: sender.to_string(),
            receiver_domain: receiver.to_string(),
            request_index,
            cloaked,
            ..template.clone()
        };
        let events = vec![
            event("b.com", 2, "leak.net", false),
            event("a.com", 8, "leak.net", false),
            event("b.com", 3, "leak.net", true),
            event("a.com", 0, "a.com", false),
            event("a.com", 8, "other.net", false),
            event("b.com", 1, "t0.net", false),
            event("a.com", 99, "leak.net", false),
            event("c.com", 0, "leak.net", false),
        ];
        let (zones, psl) = (&shared().universe.zones, &shared().psl);
        let leaks = join(&dataset, zones, psl, &events);
        assert_eq!(
            rows(&leaks),
            rows(&per_leak_join(&dataset, zones, psl, &events))
        );
        assert!(!leaks.iter().any(unmasked));
        // Without unmasked forms, a leak's checks are its request and then
        // its chain.
        let chain_of = |sender: &str, url: &str| -> Vec<String> {
            let leak = leaks
                .iter()
                .find(|l| l.sender == sender && l.checks[0].request.url.to_string() == url)
                .unwrap();
            leak.checks[1..]
                .iter()
                .map(|c| c.request.url.to_string())
                .collect()
        };
        assert_eq!(leaks.len(), 5);
        // Capped at five hops, nearest initiator first.
        assert_eq!(
            chain_of("a.com", "https://leak.net/p?e=1"),
            (2..7).rev().map(hop).collect::<Vec<_>>()
        );
        // The self-initiated document ends its own chain.
        assert_eq!(chain_of("a.com", "https://a.com/"), ["https://a.com/"]);
        // b.com's hop 0 is its own record, initiated by b.com's document.
        assert_eq!(
            chain_of("b.com", "https://leak.net/p?e=2"),
            [hop(0), "https://b.com/".to_string()]
        );
        assert!(chain_of("b.com", "https://leak.net/p?e=3").is_empty());
    }

    #[test]
    fn cookie_method_is_fully_blocked_by_easyprivacy() {
        let r = shared();
        let ep = evaluate(r, "EasyPrivacy", &lists::easyprivacy());
        let (sb, st, rb, rt) = ep.by_method[&LeakMethod::Cookie];
        assert_eq!(
            (sb, st),
            (5, 5),
            "Table 4: EasyPrivacy blocks 5/5 cookie senders"
        );
        assert_eq!((rb, rt), (1, 1));
    }

    #[test]
    fn easylist_is_nearly_useless_against_pii_leakage() {
        let r = shared();
        let el = evaluate(r, "EasyList", &lists::easylist());
        assert!(
            el.total_senders.0 <= 2,
            "EasyList senders: {}",
            el.total_senders.0
        );
        assert!(
            (6..=10).contains(&el.total_receivers.0),
            "EasyList receivers: {}",
            el.total_receivers.0
        );
    }

    #[test]
    fn combined_blocks_most_but_not_all() {
        let r = shared();
        let all = evaluate(r, "Combined", &lists::combined());
        let (blocked, total) = all.total_senders;
        assert_eq!(total, 130);
        assert!(
            (94..=110).contains(&blocked),
            "combined sender coverage {blocked} (paper: 102)"
        );
        let (rb, rt) = all.total_receivers;
        assert_eq!(rt, 100);
        assert!(
            (68..=76).contains(&rb),
            "combined receiver coverage {rb} (paper: 72)"
        );
    }

    #[test]
    fn the_three_documented_misses_are_reported() {
        let r = shared();
        let missed = missed_tracking_providers(r);
        for expected in ["custora.com", "taboola.com", "zendesk.com"] {
            assert!(
                missed.contains(&expected.to_string()),
                "{expected} should be missed; got {missed:?}"
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let r = shared();
        let rendered = table(r).render();
        assert!(rendered.contains("EasyPrivacy"));
        assert!(rendered.contains("Referer"));
        assert!(rendered.contains("Total"));
    }
}
