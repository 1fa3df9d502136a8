//! Filter matching engine.
//!
//! Two strategies that report the same rule:
//!
//! * the **indexed** path buckets `||domain^`-style rules by their host key
//!   and only scans the buckets reachable from the request host's label
//!   suffixes — the way production content blockers work; Table 4 uses it;
//! * the **naive** path scans every rule (what `adblockparser` does), kept
//!   as the tests' reference for the indexed path.

use crate::filter::{Anchor, Filter, ParseOutcome, TypeMask};
use pii_net::http::ResourceKind;
use std::borrow::Cow;
use std::collections::HashMap;

/// The request-side facts a filter decision needs.
#[derive(Debug, Clone)]
pub struct RequestInfo<'a> {
    /// Full URL as it would appear on the wire.
    pub url: &'a str,
    /// Request host (lowercased).
    pub host: &'a str,
    /// Host of the top-level document.
    pub top_level_host: &'a str,
    /// Whether the request crosses site boundaries (eTLD+1 comparison —
    /// computed by the caller, which owns the PSL).
    pub is_third_party: bool,
    pub kind: ResourceKind,
}

/// Rule-corpus statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterStats {
    pub total: usize,
    pub exceptions: usize,
    pub domain_anchored: usize,
    pub with_third_party: usize,
    pub with_type_filter: usize,
    pub with_domain_option: usize,
}

/// Outcome of a lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchResult {
    /// Blocked by the given rule.
    Blocked(String),
    /// A block rule matched but an exception overrode it.
    Excepted { block: String, exception: String },
    /// No rule matched.
    NotBlocked,
}

impl MatchResult {
    pub fn is_blocked(&self) -> bool {
        matches!(self, MatchResult::Blocked(_))
    }
}

/// A compiled filter list.
#[derive(Debug, Clone, Default)]
pub struct FilterSet {
    /// Block rules with a host index key.
    indexed: HashMap<String, Vec<Filter>>,
    /// Block rules without an index key.
    general: Vec<Filter>,
    /// Exception rules (scanned only after a block match).
    exceptions: Vec<Filter>,
    /// Total parsed rule count.
    rules: usize,
}

impl FilterSet {
    /// Parse a list text (one rule per line).
    pub fn parse(text: &str) -> Self {
        let mut set = FilterSet::default();
        for line in text.lines() {
            if let ParseOutcome::Rule(f) = Filter::parse(line) {
                set.add(f);
            }
        }
        set
    }

    /// Merge several lists (the paper's "Combined" column).
    pub fn combined(lists: &[&FilterSet]) -> FilterSet {
        let mut out = FilterSet::default();
        for list in lists {
            for bucket in list.indexed.values() {
                for f in bucket {
                    out.add(f.clone());
                }
            }
            for f in &list.general {
                out.add(f.clone());
            }
            for f in &list.exceptions {
                out.add(f.clone());
            }
        }
        out
    }

    fn add(&mut self, f: Filter) {
        self.rules += 1;
        if f.exception {
            self.exceptions.push(f);
        } else if let Some(key) = f.domain_key() {
            self.indexed.entry(key).or_default().push(f);
        } else {
            self.general.push(f);
        }
    }

    /// Number of rules compiled in.
    pub fn len(&self) -> usize {
        self.rules
    }

    pub fn is_empty(&self) -> bool {
        self.rules == 0
    }

    /// Rule-corpus statistics (for list audits like the paper's §7.2).
    pub fn stats(&self) -> FilterStats {
        let all_blocks = self.indexed.values().flatten().chain(self.general.iter());
        let mut stats = FilterStats {
            total: self.rules,
            exceptions: self.exceptions.len(),
            domain_anchored: 0,
            with_third_party: 0,
            with_type_filter: 0,
            with_domain_option: 0,
        };
        for f in all_blocks.chain(self.exceptions.iter()) {
            if f.domain_key().is_some() || f.anchor == crate::filter::Anchor::Domain {
                stats.domain_anchored += 1;
            }
            if f.options.third_party.is_some() {
                stats.with_third_party += 1;
            }
            if f.options.types != crate::filter::TypeMask::ALL {
                stats.with_type_filter += 1;
            }
            if !f.options.include_domains.is_empty() || !f.options.exclude_domains.is_empty() {
                stats.with_domain_option += 1;
            }
        }
        stats
    }

    /// Indexed lookup: would this request be blocked?
    pub fn matches(&self, req: &RequestInfo) -> MatchResult {
        let url_lower = lowercase(req.url);
        let Some(block) = self.block_rule(req, &url_lower) else {
            return MatchResult::NotBlocked;
        };
        if let Some(exc) = self.exception_rule(req, &url_lower) {
            return MatchResult::Excepted {
                block: block.raw.clone(),
                exception: exc.raw.clone(),
            };
        }
        MatchResult::Blocked(block.raw.clone())
    }

    /// [`FilterSet::matches`]`(req).is_blocked()`, without copying the
    /// rules' text. A URL that is already lowercase is not copied either.
    pub fn is_blocked(&self, req: &RequestInfo) -> bool {
        let url_lower = lowercase(req.url);
        self.block_rule(req, &url_lower).is_some() && self.exception_rule(req, &url_lower).is_none()
    }

    /// The block rule the indexed lookup finds for `req`, whose URL
    /// lowercased is `url_lower`.
    fn block_rule(&self, req: &RequestInfo, url_lower: &str) -> Option<&Filter> {
        let mut hit: Option<&Filter> = None;
        // Walk the host's label suffixes: a.b.c.com → a.b.c.com, b.c.com, …
        let mut suffix = req.host;
        loop {
            if let Some(bucket) = self.indexed.get(suffix) {
                if let Some(f) = bucket.iter().find(|f| filter_matches(f, url_lower, req)) {
                    hit = Some(f);
                    break;
                }
            }
            match suffix.split_once('.') {
                Some((_, rest)) if rest.contains('.') || !rest.is_empty() => suffix = rest,
                _ => break,
            }
        }
        hit.or_else(|| {
            self.general
                .iter()
                .find(|f| filter_matches(f, url_lower, req))
        })
    }

    /// The exception rule that overrides a block of `req`, if any.
    fn exception_rule(&self, req: &RequestInfo, url_lower: &str) -> Option<&Filter> {
        self.exceptions
            .iter()
            .find(|f| filter_matches(f, url_lower, req))
    }

    /// Naive lookup scanning every rule — the tests' reference; must agree
    /// with [`FilterSet::matches`], rule for rule (tested in the integration
    /// suite). Like the indexed walk from the full host down, it reports the
    /// matching host-anchored rule with the longest key (the first in list
    /// order under that key), else the first matching general rule. Keys
    /// are unique, so the answer does not depend on the index's order.
    pub fn matches_naive(&self, req: &RequestInfo) -> MatchResult {
        let url_lower = req.url.to_ascii_lowercase();
        let hit = self
            .indexed
            .iter()
            .filter_map(|(key, bucket)| {
                let f = bucket.iter().find(|f| filter_matches(f, &url_lower, req))?;
                Some((key, f))
            })
            .max_by(|(a, _), (b, _)| a.len().cmp(&b.len()).then_with(|| b.cmp(a)))
            .map(|(_, f)| f)
            .or_else(|| {
                self.general
                    .iter()
                    .find(|f| filter_matches(f, &url_lower, req))
            });
        let Some(block) = hit else {
            return MatchResult::NotBlocked;
        };
        if let Some(exc) = self
            .exceptions
            .iter()
            .find(|f| filter_matches(f, &url_lower, req))
        {
            return MatchResult::Excepted {
                block: block.raw.clone(),
                exception: exc.raw.clone(),
            };
        }
        MatchResult::Blocked(block.raw.clone())
    }
}

/// `s` ASCII-lowercased, borrowed when it holds no uppercase byte.
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Does `f` match this request?
fn filter_matches(f: &Filter, url_lower: &str, req: &RequestInfo) -> bool {
    // Options first (cheap).
    if let Some(wants_third) = f.options.third_party {
        if wants_third != req.is_third_party {
            return false;
        }
    }
    let kind_bit = match req.kind {
        ResourceKind::Script => TypeMask::SCRIPT,
        ResourceKind::Image => TypeMask::IMAGE,
        ResourceKind::Stylesheet => TypeMask::STYLESHEET,
        ResourceKind::Xhr => TypeMask::XHR,
        ResourceKind::Subdocument => TypeMask::SUBDOCUMENT,
        ResourceKind::Beacon => TypeMask::PING,
        ResourceKind::Document => TypeMask::DOCUMENT,
    };
    if !f.options.types.contains(kind_bit) {
        return false;
    }
    if !f.options.include_domains.is_empty()
        && !f
            .options
            .include_domains
            .iter()
            .any(|d| host_matches(req.top_level_host, d))
    {
        return false;
    }
    if f.options
        .exclude_domains
        .iter()
        .any(|d| host_matches(req.top_level_host, d))
    {
        return false;
    }
    pattern_matches(f, url_lower)
}

/// `host` equals `domain` or is a subdomain of it.
fn host_matches(host: &str, domain: &str) -> bool {
    host == domain || (host.ends_with(domain) && host[..host.len() - domain.len()].ends_with('.'))
}

/// Match the wildcard/anchored pattern against the lowercased URL.
fn pattern_matches(f: &Filter, url: &str) -> bool {
    match f.anchor {
        Anchor::Start => match_segments_at(f, url, 0),
        Anchor::Domain => {
            // `||` matches right after `scheme://` or after a `.` inside the
            // host part, i.e. at any domain-label boundary.
            let host_start = url.find("://").map(|i| i + 3).unwrap_or(0);
            let host_end = url[host_start..]
                .find(['/', '?', '#'])
                .map(|i| host_start + i)
                .unwrap_or(url.len());
            let label_starts = url.as_bytes()[host_start..host_end]
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'.')
                .map(|(i, _)| host_start + i + 1);
            std::iter::once(host_start)
                .chain(label_starts)
                .any(|s| match_segments_at(f, url, s))
        }
        Anchor::None => {
            if f.segments.len() == 1 && !f.segments[0].contains('^') {
                // Fast path: plain substring.
                if f.end_anchor {
                    return url.ends_with(f.segments[0].as_str());
                }
                return url.contains(f.segments[0].as_str());
            }
            (0..=url.len()).any(|s| match_segments_at(f, url, s))
        }
    }
}

/// Match the `*`-separated segments starting at byte offset `start`.
fn match_segments_at(f: &Filter, url: &str, start: usize) -> bool {
    let mut pos = start;
    for (i, seg) in f.segments.iter().enumerate() {
        let first = i == 0;
        let found = if first {
            segment_matches_at(seg, url, pos).then_some(pos)
        } else {
            // After a `*`, the segment may begin anywhere at or after pos.
            (pos..=url.len()).find(|&p| segment_matches_at(seg, url, p))
        };
        match found {
            Some(p) => pos = p + segment_consumed_len(seg, url, p),
            None => return false,
        }
    }
    if f.end_anchor {
        // The last segment must have consumed up to the end, except that a
        // trailing `^` may match the end of string.
        return pos == url.len();
    }
    true
}

/// Does `seg` (literal with `^` separators) match `url` at byte `p`?
fn segment_matches_at(seg: &str, url: &str, p: usize) -> bool {
    let url_bytes = url.as_bytes();
    let mut up = p;
    for sc in seg.bytes() {
        if sc == b'^' {
            match url_bytes.get(up) {
                // Separator: anything that is not alphanumeric or -._% …
                Some(&c) if is_separator(c) => up += 1,
                // …or the end of the URL.
                None => continue,
                Some(_) => return false,
            }
        } else {
            match url_bytes.get(up) {
                Some(&c) if c == sc => up += 1,
                _ => return false,
            }
        }
    }
    true
}

/// How many URL bytes `seg` consumed when matched at `p` (differs from
/// `seg.len()` only when a trailing `^` matched end-of-string).
fn segment_consumed_len(seg: &str, url: &str, p: usize) -> usize {
    (url.len() - p).min(seg.len())
}

/// ABP separator class: anything but letters, digits, and `_ - . %`.
fn is_separator(c: u8) -> bool {
    !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b'%'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req<'a>(
        url: &'a str,
        host: &'a str,
        top: &'a str,
        third: bool,
        kind: ResourceKind,
    ) -> RequestInfo<'a> {
        RequestInfo {
            url,
            host,
            top_level_host: top,
            is_third_party: third,
            kind,
        }
    }

    fn set(rules: &str) -> FilterSet {
        FilterSet::parse(rules)
    }

    /// `is_blocked` is `matches(..).is_blocked()` on both lists and a set
    /// with an exception, for URLs of any case, either party, every kind.
    #[test]
    fn is_blocked_agrees_with_matches() {
        let with_exception = set("||t.net^\n@@||t.net/ok^\n/pixel*\n|https://x.com^$third-party");
        let sets = [
            crate::lists::easylist(),
            crate::lists::easyprivacy(),
            with_exception,
        ];
        let urls = [
            ("https://t.net/ok", "t.net"),
            ("https://T.net/OK", "t.net"),
            (
                "https://www.google-analytics.com/collect?v=1",
                "www.google-analytics.com",
            ),
            (
                "https://connect.facebook.net/en_US/fbevents.js",
                "connect.facebook.net",
            ),
            ("https://shop.com/pixel/a.gif", "shop.com"),
            ("https://x.com/a", "x.com"),
            ("https://metrics.shop.com/b/ss?AQB=1", "metrics.shop.com"),
        ];
        let kinds = [
            ResourceKind::Script,
            ResourceKind::Image,
            ResourceKind::Xhr,
            ResourceKind::Beacon,
            ResourceKind::Document,
        ];
        let mut blocked = 0;
        for s in &sets {
            for (url, host) in urls {
                for third in [false, true] {
                    for kind in kinds {
                        let r = req(url, host, "shop.com", third, kind);
                        assert_eq!(
                            s.is_blocked(&r),
                            s.matches(&r).is_blocked(),
                            "{url} {kind:?}"
                        );
                        blocked += usize::from(s.is_blocked(&r));
                    }
                }
            }
        }
        assert!(blocked > 0);
    }

    #[test]
    fn domain_anchor_matches_subdomains() {
        let s = set("||tracker.net^");
        let r = req(
            "http://pixel.tracker.net/c?x=1",
            "pixel.tracker.net",
            "shop.com",
            true,
            ResourceKind::Image,
        );
        assert!(s.matches(&r).is_blocked());
        let r2 = req(
            "http://nottracker.net/",
            "nottracker.net",
            "shop.com",
            true,
            ResourceKind::Image,
        );
        assert!(!s.matches(&r2).is_blocked());
    }

    #[test]
    fn separator_semantics() {
        let s = set("||ads.example.com^");
        // `^` matches `/` and end-of-string but not a letter.
        let ok = req(
            "https://ads.example.com/x",
            "ads.example.com",
            "a.com",
            true,
            ResourceKind::Script,
        );
        assert!(s.matches(&ok).is_blocked());
        let ok2 = req(
            "https://ads.example.com",
            "ads.example.com",
            "a.com",
            true,
            ResourceKind::Script,
        );
        assert!(s.matches(&ok2).is_blocked());
        let bad = req(
            "https://ads.example.computer/",
            "ads.example.computer",
            "a.com",
            true,
            ResourceKind::Script,
        );
        assert!(!s.matches(&bad).is_blocked());
    }

    #[test]
    fn third_party_option() {
        let s = set("||t.net^$third-party");
        let third = req(
            "http://t.net/p",
            "t.net",
            "shop.com",
            true,
            ResourceKind::Image,
        );
        let first = req(
            "http://t.net/p",
            "t.net",
            "t.net",
            false,
            ResourceKind::Image,
        );
        assert!(s.matches(&third).is_blocked());
        assert!(!s.matches(&first).is_blocked());
    }

    #[test]
    fn type_options() {
        let s = set("||t.net^$script");
        let script = req(
            "http://t.net/a.js",
            "t.net",
            "x.com",
            true,
            ResourceKind::Script,
        );
        let image = req(
            "http://t.net/a.gif",
            "t.net",
            "x.com",
            true,
            ResourceKind::Image,
        );
        assert!(s.matches(&script).is_blocked());
        assert!(!s.matches(&image).is_blocked());
    }

    #[test]
    fn domain_option_scopes_to_top_level_site() {
        let s = set("||t.net^$domain=shop.com");
        let on_shop = req(
            "http://t.net/p",
            "t.net",
            "www.shop.com",
            true,
            ResourceKind::Image,
        );
        let elsewhere = req(
            "http://t.net/p",
            "t.net",
            "other.com",
            true,
            ResourceKind::Image,
        );
        assert!(s.matches(&on_shop).is_blocked());
        assert!(!s.matches(&elsewhere).is_blocked());
    }

    #[test]
    fn exception_overrides_block() {
        let s = set("||t.net^\n@@||t.net/allowed^");
        let blocked = req(
            "http://t.net/p",
            "t.net",
            "x.com",
            true,
            ResourceKind::Image,
        );
        let excepted = req(
            "http://t.net/allowed/p",
            "t.net",
            "x.com",
            true,
            ResourceKind::Image,
        );
        assert!(s.matches(&blocked).is_blocked());
        assert!(matches!(s.matches(&excepted), MatchResult::Excepted { .. }));
    }

    #[test]
    fn wildcard_patterns() {
        let s = set("/collect?*email=");
        let r = req(
            "http://t.net/collect?id=1&email=x",
            "t.net",
            "x.com",
            true,
            ResourceKind::Xhr,
        );
        assert!(s.matches(&r).is_blocked());
        let no = req(
            "http://t.net/collect?id=1",
            "t.net",
            "x.com",
            true,
            ResourceKind::Xhr,
        );
        assert!(!s.matches(&no).is_blocked());
    }

    #[test]
    fn start_and_end_anchor() {
        let s = set("|http://ads.|");
        let r = req("http://ads.", "ads.", "x.com", true, ResourceKind::Image);
        assert!(s.matches(&r).is_blocked());
        let longer = req(
            "http://ads.example/",
            "ads.example",
            "x.com",
            true,
            ResourceKind::Image,
        );
        assert!(!s.matches(&longer).is_blocked());
    }

    #[test]
    fn naive_agrees_with_indexed() {
        let s = set(
            "||tracker.net^$third-party\n/pixel?\n@@||tracker.net/safe^\n||ads.shop.com^$image\n\
             ||example.com*foo\n||ads.example.",
        );
        let cases = [
            (
                "http://sub.tracker.net/x",
                "sub.tracker.net",
                "shop.com",
                true,
                ResourceKind::Image,
            ),
            (
                "http://tracker.net/safe/x",
                "tracker.net",
                "shop.com",
                true,
                ResourceKind::Image,
            ),
            (
                "http://x.com/pixel?a=1",
                "x.com",
                "x.com",
                false,
                ResourceKind::Image,
            ),
            (
                "http://ads.shop.com/i.gif",
                "ads.shop.com",
                "shop.com",
                false,
                ResourceKind::Image,
            ),
            (
                "http://clean.com/",
                "clean.com",
                "clean.com",
                false,
                ResourceKind::Document,
            ),
            // Keys that need not be a suffix of the host: no terminator
            // ends `example.com`, and `ads.example.` ends in a dot.
            (
                "https://example.com.evil.net/foo",
                "example.com.evil.net",
                "shop.com",
                true,
                ResourceKind::Image,
            ),
            (
                "https://ads.example.org/x",
                "ads.example.org",
                "shop.com",
                true,
                ResourceKind::Image,
            ),
        ];
        for (url, host, top, third, kind) in cases {
            let r = req(url, host, top, third, kind);
            assert_eq!(s.matches(&r), s.matches_naive(&r), "disagree on {url}");
        }
    }

    #[test]
    fn stats_summarise_the_corpus() {
        let s = set(
            "||a.com^$third-party\n||b.net^$script\n@@||c.org^\n/plain-rule\n||d.io^$domain=x.com",
        );
        let stats = s.stats();
        assert_eq!(stats.total, 5);
        assert_eq!(stats.exceptions, 1);
        assert_eq!(stats.domain_anchored, 4);
        assert_eq!(stats.with_third_party, 1);
        assert_eq!(stats.with_type_filter, 1);
        assert_eq!(stats.with_domain_option, 1);
    }

    #[test]
    fn substring_rule_plain() {
        let s = set("email_sha256=");
        let r = req(
            "http://krxd.net/pixel?_kua_email_sha256=abc",
            "krxd.net",
            "x.com",
            true,
            ResourceKind::Image,
        );
        assert!(s.matches(&r).is_blocked());
    }
}
