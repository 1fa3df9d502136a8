//! HTTP cache semantics for the simulated responses.
//!
//! A minimal, deterministic subset of RFC 9111: `Cache-Control:
//! max-age`/`no-store`, the `stale-while-revalidate` extension (RFC 5861),
//! and validator headers (`ETag`, `Last-Modified`) for conditional
//! revalidation. The browser (`pii-browser`) keeps one [`CacheEntry`] per
//! URL and asks [`decide`] what to do on each request; the answer depends
//! only on the stored policy, the configured [`CacheStrategy`], and the
//! browser's virtual cache clock — never on wall time.

use crate::http::{HeaderMap, Response};
use crate::url::Url;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How the browser consults its HTTP cache. Selected per scenario with
/// `--cache`; `None` at the browser level means the cache is disabled and
/// every request goes to the network (the original paper's behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheStrategy {
    /// Serve fresh entries from the cache; revalidate once stale.
    CacheFirst,
    /// Always revalidate conditionally; the cache only supplies validators.
    NetworkFirst,
    /// Serve fresh from cache; serve stale within the SWR window while
    /// revalidating in the background; revalidate synchronously past it.
    StaleWhileRevalidate,
}

impl CacheStrategy {
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStrategy::CacheFirst => "cache-first",
            CacheStrategy::NetworkFirst => "network-first",
            CacheStrategy::StaleWhileRevalidate => "stale-while-revalidate",
        }
    }
}

impl fmt::Display for CacheStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CacheStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cache-first" => Ok(CacheStrategy::CacheFirst),
            "network-first" => Ok(CacheStrategy::NetworkFirst),
            "stale-while-revalidate" | "swr" => Ok(CacheStrategy::StaleWhileRevalidate),
            other => Err(format!(
                "unknown cache strategy '{other}' (expected cache-first, network-first, \
                 or stale-while-revalidate)"
            )),
        }
    }
}

/// How a recorded request was satisfied relative to the cache. Absent on
/// records that went to the network unconditionally (cache disabled, cache
/// miss, or uncacheable response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheDisposition {
    /// Served from a fresh cache entry; no request went on the wire.
    Hit,
    /// Served from a stale entry within the SWR window; the wire saw only
    /// the async revalidation, recorded separately.
    Stale,
    /// A conditional request went on the wire and came back `304`.
    Revalidated,
}

impl CacheDisposition {
    /// Whether the original request was suppressed (never hit the wire).
    /// Revalidations do reach the network, just with a conditional header.
    pub fn suppressed(self) -> bool {
        !matches!(self, CacheDisposition::Revalidated)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Stale => "stale",
            CacheDisposition::Revalidated => "revalidated",
        }
    }
}

/// Freshness policy parsed from a response's caching headers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CachePolicy {
    pub no_store: bool,
    pub max_age_ms: Option<u64>,
    /// `stale-while-revalidate` window, counted from freshness expiry.
    pub swr_ms: u64,
    pub etag: Option<String>,
    pub last_modified: Option<String>,
}

impl CachePolicy {
    /// Parse `Cache-Control`, `ETag`, and `Last-Modified` from response
    /// headers. Unknown directives are ignored.
    pub fn parse(headers: &HeaderMap) -> CachePolicy {
        let mut policy = CachePolicy::default();
        if let Some(cc) = headers.get("Cache-Control") {
            for directive in cc.split(',') {
                let directive = directive.trim();
                if directive.eq_ignore_ascii_case("no-store")
                    || directive.eq_ignore_ascii_case("no-cache")
                {
                    policy.no_store = true;
                } else if let Some(secs) = directive
                    .strip_prefix("max-age=")
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    policy.max_age_ms = Some(secs.saturating_mul(1000));
                } else if let Some(secs) = directive
                    .strip_prefix("stale-while-revalidate=")
                    .and_then(|v| v.parse::<u64>().ok())
                {
                    policy.swr_ms = secs.saturating_mul(1000);
                }
            }
        }
        policy.etag = headers.get("ETag").map(str::to_string);
        policy.last_modified = headers.get("Last-Modified").map(str::to_string);
        policy
    }

    /// Whether a response carrying this policy may be stored at all.
    pub fn cacheable(&self) -> bool {
        !self.no_store && self.max_age_ms.is_some()
    }
}

/// A stored response plus the policy and virtual timestamp it arrived with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    pub response: Response,
    pub policy: CachePolicy,
    pub stored_at_ms: u64,
}

/// Freshness of an entry at a point in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    Fresh,
    /// Past `max-age` but inside the `stale-while-revalidate` window.
    StaleWithinWindow,
    Expired,
}

impl CacheEntry {
    /// Virtual ms at which the entry stops being fresh.
    pub fn fresh_until_ms(&self) -> u64 {
        self.stored_at_ms
            .saturating_add(self.policy.max_age_ms.unwrap_or(0))
    }

    /// Hard expiry: freshness lifetime plus the SWR window. Past this point
    /// no strategy may serve the stored body without revalidation.
    pub fn hard_expiry_ms(&self) -> u64 {
        self.fresh_until_ms().saturating_add(self.policy.swr_ms)
    }

    pub fn freshness(&self, now_ms: u64) -> Freshness {
        if now_ms < self.fresh_until_ms() {
            Freshness::Fresh
        } else if now_ms < self.hard_expiry_ms() {
            Freshness::StaleWithinWindow
        } else {
            Freshness::Expired
        }
    }
}

/// What the browser should do for a request, given its cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// No usable entry: fetch from the network and maybe store.
    Miss,
    /// Serve the stored response; nothing goes on the wire.
    ServeCached,
    /// Serve the stored (stale) response and issue an async conditional
    /// revalidation alongside it.
    ServeStaleAndRevalidate,
    /// Issue a conditional request (If-None-Match / If-Modified-Since).
    Revalidate,
}

/// The cache state machine. `entry` is the stored entry for the request
/// URL, if any; `now_ms` is the browser's virtual cache clock.
pub fn decide(strategy: CacheStrategy, entry: Option<&CacheEntry>, now_ms: u64) -> CacheDecision {
    let Some(entry) = entry else {
        return CacheDecision::Miss;
    };
    if !entry.policy.cacheable() {
        return CacheDecision::Miss;
    }
    match strategy {
        CacheStrategy::CacheFirst => match entry.freshness(now_ms) {
            Freshness::Fresh => CacheDecision::ServeCached,
            _ => CacheDecision::Revalidate,
        },
        CacheStrategy::NetworkFirst => CacheDecision::Revalidate,
        CacheStrategy::StaleWhileRevalidate => match entry.freshness(now_ms) {
            Freshness::Fresh => CacheDecision::ServeCached,
            Freshness::StaleWithinWindow => CacheDecision::ServeStaleAndRevalidate,
            Freshness::Expired => CacheDecision::Revalidate,
        },
    }
}

/// Deterministic per-URL fingerprint (FNV-1a 64 of the URL's serialized
/// form) used to vary synthesized cache attributes — which assets get a
/// short vs long `max-age`, and the `ETag` value — without any randomness.
/// The URL is hashed as it is formatted, so no string is built.
pub fn asset_fingerprint(url: &Url) -> u64 {
    struct Fnv1a(u64);
    impl fmt::Write for Fnv1a {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            for byte in s.bytes() {
                self.0 ^= u64::from(byte);
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
            Ok(())
        }
    }
    let mut hash = Fnv1a(0xcbf2_9ce4_8422_2325);
    // Writing into the hasher cannot fail.
    let _ = fmt::write(&mut hash, format_args!("{url}"));
    hash.0
}

/// The fingerprint over an already-formatted URL string, kept as the oracle
/// for `fingerprint_hashes_the_serialized_url`.
#[cfg(test)]
mod reference {
    pub fn asset_fingerprint(url: &str) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in url.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(max_age_ms: Option<u64>, swr_ms: u64, stored_at_ms: u64) -> CacheEntry {
        CacheEntry {
            response: Response::ok(),
            policy: CachePolicy {
                no_store: false,
                max_age_ms,
                swr_ms,
                etag: Some("\"abc\"".into()),
                last_modified: Some("Fri, 21 May 2021 10:00:00 GMT".into()),
            },
            stored_at_ms,
        }
    }

    #[test]
    fn parses_cache_control_directives() {
        let mut headers = HeaderMap::new();
        headers.insert("Cache-Control", "max-age=3600, stale-while-revalidate=600");
        headers.insert("ETag", "\"v1\"");
        headers.insert("Last-Modified", "Fri, 21 May 2021 10:00:00 GMT");
        let policy = CachePolicy::parse(&headers);
        assert_eq!(policy.max_age_ms, Some(3_600_000));
        assert_eq!(policy.swr_ms, 600_000);
        assert_eq!(policy.etag.as_deref(), Some("\"v1\""));
        assert!(policy.cacheable());

        let mut headers = HeaderMap::new();
        headers.insert("Cache-Control", "no-store");
        assert!(!CachePolicy::parse(&headers).cacheable());
    }

    #[test]
    fn cache_first_serves_fresh_then_revalidates() {
        let e = entry(Some(1000), 0, 0);
        assert_eq!(
            decide(CacheStrategy::CacheFirst, Some(&e), 999),
            CacheDecision::ServeCached
        );
        assert_eq!(
            decide(CacheStrategy::CacheFirst, Some(&e), 1000),
            CacheDecision::Revalidate
        );
        assert_eq!(
            decide(CacheStrategy::CacheFirst, None, 0),
            CacheDecision::Miss
        );
    }

    #[test]
    fn network_first_always_revalidates() {
        let e = entry(Some(1000), 600, 0);
        for now in [0u64, 500, 1500, 10_000] {
            assert_eq!(
                decide(CacheStrategy::NetworkFirst, Some(&e), now),
                CacheDecision::Revalidate
            );
        }
    }

    #[test]
    fn swr_windows_partition_the_timeline() {
        let e = entry(Some(1000), 500, 100);
        let s = CacheStrategy::StaleWhileRevalidate;
        assert_eq!(decide(s, Some(&e), 1099), CacheDecision::ServeCached);
        assert_eq!(
            decide(s, Some(&e), 1100),
            CacheDecision::ServeStaleAndRevalidate
        );
        assert_eq!(
            decide(s, Some(&e), 1599),
            CacheDecision::ServeStaleAndRevalidate
        );
        assert_eq!(decide(s, Some(&e), 1600), CacheDecision::Revalidate);
    }

    #[test]
    fn uncacheable_entries_never_serve() {
        let mut e = entry(None, 600, 0);
        assert_eq!(
            decide(CacheStrategy::CacheFirst, Some(&e), 0),
            CacheDecision::Miss
        );
        e.policy.max_age_ms = Some(1000);
        e.policy.no_store = true;
        assert_eq!(
            decide(CacheStrategy::StaleWhileRevalidate, Some(&e), 0),
            CacheDecision::Miss
        );
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_spreads() {
        let a = asset_fingerprint(&url("https://cdn.example/app.js"));
        assert_eq!(a, asset_fingerprint(&url("https://cdn.example/app.js")));
        assert_ne!(a, asset_fingerprint(&url("https://cdn.example/app2.js")));
    }

    #[test]
    fn fingerprint_hashes_the_serialized_url() {
        for s in [
            "https://cdn.example/app.js",
            "http://a.b:8080/p/q?x=1&y=%40#frag",
            "https://shop.com/",
            "https://t.net/lib.js?v=2.9.1",
        ] {
            let u = url(s);
            assert_eq!(
                asset_fingerprint(&u),
                reference::asset_fingerprint(&u.to_string())
            );
        }
    }

    proptest! {
        /// Stale-while-revalidate never serves a stored body at or past the
        /// hard expiry, and only reports a plain Hit while actually fresh.
        #[test]
        fn swr_never_serves_past_hard_expiry(
            max_age in 0u64..5_000,
            swr in 0u64..5_000,
            stored_at in 0u64..10_000,
            now in 0u64..40_000,
        ) {
            let e = entry(Some(max_age), swr, stored_at);
            let decision = decide(CacheStrategy::StaleWhileRevalidate, Some(&e), now);
            let serves_stored = matches!(
                decision,
                CacheDecision::ServeCached | CacheDecision::ServeStaleAndRevalidate
            );
            if now >= e.hard_expiry_ms() {
                prop_assert!(!serves_stored, "served stored body past hard expiry");
            }
            if decision == CacheDecision::ServeCached {
                prop_assert!(now < e.fresh_until_ms(), "plain hit on a non-fresh entry");
            }
        }
    }
}
