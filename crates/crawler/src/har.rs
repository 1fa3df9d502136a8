//! HAR 1.2 export of a capture — the interchange format real measurement
//! pipelines (OpenWPM, mitmproxy, browser devtools) speak, so the dataset
//! can be inspected with standard tooling.
//!
//! Only the fields the leak analysis needs are populated; timing fields are
//! zeroed because the simulation has no clock (everything is deterministic).

use crate::capture::{CrawlDataset, SiteCrawl};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Har {
    pub log: HarLog,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarLog {
    pub version: String,
    pub creator: HarCreator,
    pub pages: Vec<HarPage>,
    pub entries: Vec<HarEntry>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarCreator {
    pub name: String,
    pub version: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarPage {
    pub id: String,
    pub title: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarEntry {
    pub pageref: String,
    pub request: HarRequest,
    pub response: HarResponse,
    /// Non-standard: set when the browser blocked the request (Brave).
    #[serde(rename = "_blockedReason", skip_serializing_if = "Option::is_none")]
    pub blocked_reason: Option<String>,
    /// Non-standard: initiator URL for chain reconstruction.
    #[serde(rename = "_initiator", skip_serializing_if = "Option::is_none")]
    pub initiator: Option<String>,
    /// Non-standard (devtools convention): network-level error string for
    /// aborted requests; such entries carry response status 0 (or the 5xx
    /// the server managed to send) and no body.
    #[serde(rename = "_error", skip_serializing_if = "Option::is_none")]
    pub error: Option<String>,
    /// Non-standard (devtools convention): `"disk"` when the response was
    /// served from the HTTP cache without touching the network. Conditional
    /// revalidations answered 304 went on the wire and are not flagged —
    /// they show up as status-304 entries with `bodySize` 0 instead.
    #[serde(rename = "_fromCache", skip_serializing_if = "Option::is_none")]
    pub from_cache: Option<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarRequest {
    pub method: String,
    pub url: String,
    #[serde(rename = "httpVersion")]
    pub http_version: String,
    pub headers: Vec<HarNameValue>,
    #[serde(rename = "queryString")]
    pub query_string: Vec<HarNameValue>,
    pub cookies: Vec<HarNameValue>,
    #[serde(rename = "postData", skip_serializing_if = "Option::is_none")]
    pub post_data: Option<HarPostData>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarResponse {
    pub status: u16,
    pub headers: Vec<HarNameValue>,
    /// Bytes received over the network for the body: 0 for cache-served
    /// entries and 304 revalidations (nothing or only headers crossed the
    /// wire), the body length otherwise.
    #[serde(rename = "bodySize")]
    pub body_size: i64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarNameValue {
    pub name: String,
    pub value: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarPostData {
    #[serde(rename = "mimeType")]
    pub mime_type: String,
    pub text: String,
}

fn nv(name: &str, value: &str) -> HarNameValue {
    HarNameValue {
        name: name.to_string(),
        value: value.to_string(),
    }
}

/// Export one site crawl as HAR entries (page id = site domain).
fn site_entries(crawl: &SiteCrawl) -> Vec<HarEntry> {
    crawl
        .records
        .iter()
        .map(|rec| {
            let req = &rec.request;
            HarEntry {
                pageref: crawl.domain.clone(),
                request: HarRequest {
                    method: req.method.to_string(),
                    url: req.url.to_string(),
                    http_version: "HTTP/1.1".into(),
                    headers: req.headers.iter().map(|(n, v)| nv(n, v)).collect(),
                    query_string: req.url.query_pairs().map(|(k, v)| nv(&k, &v)).collect(),
                    cookies: req.cookie_pairs().map(|(n, v)| nv(n, v)).collect(),
                    post_data: req.body_text().map(|text| HarPostData {
                        mime_type: req
                            .headers
                            .get("Content-Type")
                            .unwrap_or("application/octet-stream")
                            .to_string(),
                        text: text.into_owned(),
                    }),
                },
                response: HarResponse {
                    status: rec.response.status,
                    headers: rec.response.headers.iter().map(|(n, v)| nv(n, v)).collect(),
                    body_size: if rec.from_cache.is_some_and(|d| d.suppressed()) {
                        // Served locally: no body bytes crossed the network.
                        0
                    } else {
                        rec.response.body.as_ref().map_or(0, |b| b.len() as i64)
                    },
                },
                blocked_reason: rec.blocked.clone(),
                initiator: req.initiator.as_ref().map(|u| u.to_string()),
                error: rec.error.as_ref().map(|e| e.har_error().to_string()),
                from_cache: rec
                    .from_cache
                    .filter(|d| d.suppressed())
                    .map(|_| "disk".to_string()),
            }
        })
        .collect()
}

/// Export a whole dataset as a HAR document.
pub fn export(dataset: &CrawlDataset) -> Har {
    let pages = dataset
        .crawls
        .iter()
        .filter(|c| !c.records.is_empty())
        .map(|c| HarPage {
            id: c.domain.clone(),
            title: format!("https://{}/ ({:?})", c.domain, c.outcome),
        })
        .collect();
    let entries = dataset.crawls.iter().flat_map(site_entries).collect();
    Har {
        log: HarLog {
            version: "1.2".into(),
            creator: HarCreator {
                name: "pii-crawler".into(),
                version: env!("CARGO_PKG_VERSION").into(),
            },
            pages,
            entries,
        },
    }
}

/// Export as pretty-printed HAR JSON.
pub fn export_json(dataset: &CrawlDataset) -> String {
    serde_json::to_string_pretty(&export(dataset)).expect("HAR serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Crawler;
    use pii_browser::profiles::BrowserKind;
    use pii_web::Universe;

    fn small_dataset() -> CrawlDataset {
        let u = Universe::generate();
        let targets: Vec<String> = u.sender_sites().take(2).map(|s| s.domain.clone()).collect();
        Crawler::new(&u).run_on(BrowserKind::Firefox88Vanilla, Some(&targets))
    }

    #[test]
    fn exports_pages_and_entries() {
        let ds = small_dataset();
        let har = export(&ds);
        assert_eq!(har.log.version, "1.2");
        assert_eq!(har.log.pages.len(), 2);
        assert!(!har.log.entries.is_empty());
        // Every entry references an exported page.
        let page_ids: Vec<&str> = har.log.pages.iter().map(|p| p.id.as_str()).collect();
        assert!(har
            .log
            .entries
            .iter()
            .all(|e| page_ids.contains(&e.pageref.as_str())));
    }

    #[test]
    fn post_bodies_survive() {
        let ds = small_dataset();
        let har = export(&ds);
        let posts: Vec<&HarEntry> = har
            .log
            .entries
            .iter()
            .filter(|e| e.request.method == "POST")
            .collect();
        assert!(!posts.is_empty());
        assert!(posts.iter().all(|e| e
            .request
            .post_data
            .as_ref()
            .is_some_and(|p| !p.text.is_empty())));
    }

    #[test]
    fn json_roundtrip() {
        let ds = small_dataset();
        let json = export_json(&ds);
        let back: Har = serde_json::from_str(&json).unwrap();
        assert_eq!(back.log.entries.len(), export(&ds).log.entries.len());
    }

    #[test]
    fn aborted_entries_follow_the_devtools_shape() {
        use pii_net::fault::{DomainSchedule, FaultPlan, FetchError};
        let u = Universe::generate();
        let targets: Vec<String> = u.sender_sites().take(2).map(|s| s.domain.clone()).collect();
        let mut crawler = Crawler::new(&u);
        let mut plan = FaultPlan::none();
        // One site never resolves; the other needs a single retry.
        plan.set(&targets[0], DomainSchedule::Dead(FetchError::DnsFailure));
        plan.set(
            &targets[1],
            DomainSchedule::Flaky {
                error: FetchError::Reset,
                failures: 1,
            },
        );
        crawler.faults = plan;
        let ds = crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
        let har = export(&ds);
        let aborted: Vec<&HarEntry> = har
            .log
            .entries
            .iter()
            .filter(|e| e.error.is_some())
            .collect();
        // The dead site records exactly its 3 exhausted attempts; the flaky
        // one fails the first attempt of every page it loads.
        assert_eq!(
            aborted.iter().filter(|e| e.pageref == targets[0]).count(),
            3
        );
        assert!(aborted.iter().any(|e| e.pageref == targets[1]));
        for entry in &aborted {
            assert_eq!(entry.response.status, 0, "no response ever arrived");
            assert!(entry.error.as_deref().unwrap().starts_with("net::ERR_"));
            assert!(entry.blocked_reason.is_none());
        }
        // Aborted attempts still belong to an exported page.
        let page_ids: Vec<&str> = har.log.pages.iter().map(|p| p.id.as_str()).collect();
        assert!(aborted
            .iter()
            .all(|e| page_ids.contains(&e.pageref.as_str())));
        // serde_json round-trip preserves the `_error` field verbatim.
        let json = export_json(&ds);
        assert!(json.contains("\"_error\": \"net::ERR_NAME_NOT_RESOLVED\""));
        assert!(json.contains("\"_error\": \"net::ERR_CONNECTION_RESET\""));
        let back: Har = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.log
                .entries
                .iter()
                .filter(|e| e.error.is_some())
                .count(),
            aborted.len()
        );
    }

    #[test]
    fn cache_served_entries_are_flagged_and_bodiless() {
        use pii_net::cache::CacheStrategy;
        let u = Universe::generate();
        let targets: Vec<String> = u.sender_sites().take(2).map(|s| s.domain.clone()).collect();
        let mut crawler = Crawler::new(&u);
        crawler.cache = Some(CacheStrategy::CacheFirst);
        crawler.repeat = 2;
        let ds = crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
        let har = export(&ds);
        let cached: Vec<&HarEntry> = har
            .log
            .entries
            .iter()
            .filter(|e| e.from_cache.is_some())
            .collect();
        assert!(!cached.is_empty(), "warm revisit should serve from cache");
        for entry in &cached {
            assert_eq!(entry.from_cache.as_deref(), Some("disk"));
            assert_eq!(entry.response.body_size, 0, "no bytes crossed the wire");
            assert!(entry.error.is_none());
        }
        let json = export_json(&ds);
        assert!(json.contains("\"_fromCache\": \"disk\""));
    }

    #[test]
    fn revalidated_entries_are_304_with_zero_byte_bodies() {
        use pii_net::cache::CacheStrategy;
        let u = Universe::generate();
        let targets: Vec<String> = u.sender_sites().take(2).map(|s| s.domain.clone()).collect();
        let mut crawler = Crawler::new(&u);
        // Network-first: every cached asset revalidates on the revisit.
        crawler.cache = Some(CacheStrategy::NetworkFirst);
        crawler.repeat = 2;
        let ds = crawler.run_on(BrowserKind::Firefox88Vanilla, Some(&targets));
        let har = export(&ds);
        let revalidated: Vec<&HarEntry> = har
            .log
            .entries
            .iter()
            .filter(|e| e.response.status == 304)
            .collect();
        assert!(!revalidated.is_empty(), "revisit should produce 304s");
        for entry in &revalidated {
            assert_eq!(entry.response.body_size, 0);
            // The conditional request went on the wire, so it is not a
            // cache-served entry.
            assert!(entry.from_cache.is_none());
        }
        // Entries that did carry a body report its true size.
        assert!(har
            .log
            .entries
            .iter()
            .any(|e| e.response.body_size > 0 && e.response.status == 200));
    }

    #[test]
    fn blocked_requests_are_flagged() {
        let u = Universe::generate();
        let targets: Vec<String> = u.sender_sites().take(2).map(|s| s.domain.clone()).collect();
        let ds = Crawler::new(&u).run_on(BrowserKind::Brave129, Some(&targets));
        let har = export(&ds);
        assert!(har.log.entries.iter().any(|e| e
            .blocked_reason
            .as_deref()
            .is_some_and(|r| r.starts_with("shields"))));
    }
}
