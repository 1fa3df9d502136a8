//! Cookies: `Set-Cookie` parsing and an RFC 6265 cookie jar.
//!
//! The jar implements domain-match, path-match, `Secure`, `HttpOnly` and
//! `SameSite`, plus the two switches the browser-countermeasure experiment
//! (§7.1) needs: *blocking third-party cookies* and *partitioning
//! third-party storage* by top-level site (Safari ITP-style).

use crate::url::Url;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// `SameSite` attribute values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SameSite {
    Strict,
    Lax,
    None,
}

/// A cookie as parsed from a `Set-Cookie` header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cookie {
    pub name: String,
    pub value: String,
    /// Domain attribute (leading dot stripped); `None` = host-only cookie.
    pub domain: Option<String>,
    pub path: String,
    pub secure: bool,
    pub http_only: bool,
    pub same_site: Option<SameSite>,
    /// Lifetime in seconds (`Max-Age`); `None` = session cookie.
    pub max_age: Option<i64>,
}

impl Cookie {
    /// Build a simple session cookie.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Cookie {
            name: name.into(),
            value: value.into(),
            domain: None,
            path: "/".into(),
            secure: false,
            http_only: false,
            same_site: None,
            max_age: None,
        }
    }

    /// Parse a `Set-Cookie` header value. Returns `None` for nameless or
    /// empty cookies.
    pub fn parse_set_cookie(header: &str) -> Option<Cookie> {
        let mut parts = header.split(';').map(str::trim);
        let (name, value) = parts.next()?.split_once('=')?;
        if name.is_empty() {
            return None;
        }
        let mut cookie = Cookie::new(name, value);
        for attr in parts {
            let (key, val) = attr.split_once('=').unwrap_or((attr, ""));
            match key.to_ascii_lowercase().as_str() {
                "domain" => {
                    let d = val.trim_start_matches('.').to_ascii_lowercase();
                    if !d.is_empty() {
                        cookie.domain = Some(d);
                    }
                }
                "path" if val.starts_with('/') => {
                    cookie.path = val.to_string();
                }
                "secure" => cookie.secure = true,
                "httponly" => cookie.http_only = true,
                "samesite" => {
                    cookie.same_site = match val.to_ascii_lowercase().as_str() {
                        "strict" => Some(SameSite::Strict),
                        "lax" => Some(SameSite::Lax),
                        "none" => Some(SameSite::None),
                        _ => None,
                    }
                }
                "max-age" => cookie.max_age = val.parse().ok(),
                _ => {} // Expires and unknown attributes ignored (simulation has no clock)
            }
        }
        Some(cookie)
    }

    /// Serialise back to a `Set-Cookie` header value, with no spare
    /// capacity.
    pub fn to_set_cookie(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.name);
        out.push('=');
        out.push_str(&self.value);
        if let Some(d) = &self.domain {
            out.push_str("; Domain=");
            out.push_str(d);
        }
        if self.path != "/" {
            out.push_str("; Path=");
            out.push_str(&self.path);
        }
        if self.secure {
            out.push_str("; Secure");
        }
        if self.http_only {
            out.push_str("; HttpOnly");
        }
        if let Some(ss) = self.same_site {
            out.push_str(match ss {
                SameSite::Strict => "; SameSite=Strict",
                SameSite::Lax => "; SameSite=Lax",
                SameSite::None => "; SameSite=None",
            });
        }
        if let Some(age) = self.max_age {
            // Formatting into a `String` cannot fail.
            let _ = write!(out, "; Max-Age={age}");
        }
        out.shrink_to_fit();
        out
    }
}

/// RFC 6265 §5.1.3 domain matching.
pub fn domain_match(host: &str, cookie_domain: &str) -> bool {
    let (host, domain) = (host.as_bytes(), cookie_domain.as_bytes());
    let Some(split) = host.len().checked_sub(domain.len()) else {
        return false;
    };
    host[split..].eq_ignore_ascii_case(domain) && (split == 0 || host[split - 1] == b'.')
}

/// RFC 6265 §5.1.4 path matching.
pub fn path_match(request_path: &str, cookie_path: &str) -> bool {
    request_path == cookie_path
        || (request_path.starts_with(cookie_path)
            && (cookie_path.ends_with('/')
                || request_path.as_bytes().get(cookie_path.len()) == Some(&b'/')))
}

/// Whether `stored` equals `host` ASCII-lowercased.
fn is_lowercase_of(stored: &str, host: &str) -> bool {
    stored.len() == host.len()
        && stored
            .bytes()
            .zip(host.bytes())
            .all(|(s, h)| s == h.to_ascii_lowercase())
}

/// A stored cookie plus its storage key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoredCookie {
    cookie: Cookie,
    /// Host the cookie was set from (for host-only matching).
    origin_host: String,
    /// Partition key: the top-level site under which the cookie was set,
    /// when the jar runs in partitioned mode.
    partition: Option<String>,
}

/// A browser cookie store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CookieJar {
    cookies: Vec<StoredCookie>,
    /// When true, third-party storage is keyed by top-level site (ITP-style
    /// partitioning): a tracker cookie set under site A is invisible under
    /// site B.
    pub partition_third_party: bool,
}

impl CookieJar {
    pub fn new() -> Self {
        CookieJar::default()
    }

    /// Store a cookie set by a response from `url`, observed while the
    /// top-level document is `top_level_host`.
    ///
    /// Rejects cookies whose `Domain` does not cover `url.host` (RFC 6265
    /// "ignore the Set-Cookie entirely").
    pub fn set(&mut self, cookie: Cookie, url: &Url, top_level_host: &str) {
        if let Some(domain) = &cookie.domain {
            if !domain_match(&url.host, domain) {
                return; // a host cannot set cookies for an unrelated domain
            }
        }
        let partition = if self.partition_third_party {
            Some(top_level_host.to_ascii_lowercase())
        } else {
            None
        };
        let origin_host = url.host.clone();
        // Replace an existing cookie with the same (name, domain-key, path,
        // partition).
        self.cookies.retain(|stored| {
            !(stored.cookie.name == cookie.name
                && stored.cookie.path == cookie.path
                && stored.origin_host == origin_host
                && stored.cookie.domain == cookie.domain
                && stored.partition == partition)
        });
        if cookie.max_age == Some(0) {
            return; // immediate deletion
        }
        self.cookies.push(StoredCookie {
            cookie,
            origin_host,
            partition,
        });
    }

    /// Cookies to send on a request to `url` while the top-level document is
    /// `top_level_host`. `is_third_party` marks cross-site requests so that
    /// SameSite and partitioning apply.
    pub fn cookies_for(
        &self,
        url: &Url,
        top_level_host: &str,
        is_third_party: bool,
    ) -> Vec<(String, String)> {
        self.matching(url, top_level_host, is_third_party)
            .map(|c| (c.name.clone(), c.value.clone()))
            .collect()
    }

    /// The stored cookies [`CookieJar::cookies_for`] sends, in jar order.
    fn matching<'j>(
        &'j self,
        url: &'j Url,
        top_level_host: &'j str,
        is_third_party: bool,
    ) -> impl Iterator<Item = &'j Cookie> + 'j {
        self.cookies.iter().filter_map(move |stored| {
            let c = &stored.cookie;
            let domain_ok = match &c.domain {
                Some(d) => domain_match(&url.host, d),
                None => url.host == stored.origin_host,
            };
            if !domain_ok || !path_match(&url.path, &c.path) {
                return None;
            }
            if c.secure && url.scheme != "https" {
                return None;
            }
            if is_third_party {
                // SameSite=Lax/Strict cookies never accompany cross-site
                // subresource requests; only SameSite=None (or legacy
                // unspecified, pre-2020 default) do.
                if matches!(c.same_site, Some(SameSite::Lax) | Some(SameSite::Strict)) {
                    return None;
                }
                if self.partition_third_party
                    && !stored
                        .partition
                        .as_deref()
                        .is_some_and(|p| is_lowercase_of(p, top_level_host))
                {
                    return None;
                }
            }
            Some(c)
        })
    }

    /// Render the `Cookie` request header value, with no spare capacity,
    /// or `None` if no cookie matches.
    pub fn cookie_header(
        &self,
        url: &Url,
        top_level_host: &str,
        is_third_party: bool,
    ) -> Option<String> {
        let mut header = String::new();
        for c in self.matching(url, top_level_host, is_third_party) {
            if !header.is_empty() {
                header.push_str("; ");
            }
            header.push_str(&c.name);
            header.push('=');
            header.push_str(&c.value);
        }
        if header.is_empty() {
            return None;
        }
        header.shrink_to_fit();
        Some(header)
    }

    /// Every stored cookie (for the crawler's "copy of stored browser
    /// cookies" capture).
    pub fn all(&self) -> Vec<&Cookie> {
        self.cookies.iter().map(|s| &s.cookie).collect()
    }

    /// Remove every cookie (fresh profile between sites, as in §3.2).
    pub fn clear(&mut self) {
        self.cookies.clear();
    }

    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }
}

/// The header builder [`CookieJar::cookie_header`] replaced, kept as its
/// oracle: a `(name, value)` pair per cookie, with the partition key
/// compared against a lowercased copy of the top-level host.
#[cfg(test)]
mod reference {
    use super::{domain_match, path_match, CookieJar, SameSite};
    use crate::url::Url;

    pub fn cookie_header(
        jar: &CookieJar,
        url: &Url,
        top_level_host: &str,
        is_third_party: bool,
    ) -> Option<String> {
        let mut pairs = Vec::new();
        for stored in &jar.cookies {
            let c = &stored.cookie;
            let domain_ok = match &c.domain {
                Some(d) => domain_match(&url.host, d),
                None => url.host == stored.origin_host,
            };
            if !domain_ok || !path_match(&url.path, &c.path) {
                continue;
            }
            if c.secure && url.scheme != "https" {
                continue;
            }
            if is_third_party {
                if matches!(c.same_site, Some(SameSite::Lax) | Some(SameSite::Strict)) {
                    continue;
                }
                if jar.partition_third_party
                    && stored.partition.as_deref() != Some(&top_level_host.to_ascii_lowercase()[..])
                {
                    continue;
                }
            }
            pairs.push((c.name.clone(), c.value.clone()));
        }
        if pairs.is_empty() {
            return None;
        }
        Some(
            pairs
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join("; "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const HOSTS: [&str; 4] = ["x.com", "shop.x.com", "t.net", "Shop.X.com"];

    proptest! {
        /// Random jars, partitioned or not, queried from random hosts under
        /// a top-level host of random case: the header equals the
        /// reference's, with no spare capacity.
        #[test]
        fn cookie_header_matches_the_reference(
            partitioned in any::<bool>(),
            sets in proptest::collection::vec(any::<u64>(), 0..12),
            queries in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            // Each draw's bits pick one field each.
            let pick = |bits: u64, shift: u32, n: u64| ((bits >> shift) % n) as usize;
            let mut jar = CookieJar::new();
            jar.partition_third_party = partitioned;
            for bits in sets {
                let mut cookie = Cookie::new(
                    ["a", "b", "c", "ab"][pick(bits, 0, 4)],
                    ["", "1", "v2", "x=y"][pick(bits, 2, 4)],
                );
                cookie.domain = [None, Some("x.com"), Some("t.net")][pick(bits, 4, 3)].map(str::to_string);
                cookie.path = ["/", "/a", "/a/b"][pick(bits, 6, 3)].to_string();
                cookie.secure = bits >> 8 & 1 == 1;
                cookie.same_site = [None, Some(SameSite::None), Some(SameSite::Lax), Some(SameSite::Strict)]
                    [pick(bits, 9, 4)];
                let url = Url::parse(&format!("https://{}/a/b", HOSTS[pick(bits, 11, 4)])).unwrap();
                jar.set(cookie, &url, HOSTS[pick(bits, 13, 4)]);
            }
            for bits in queries {
                let scheme = if bits & 1 == 1 { "https" } else { "http" };
                let url = Url::parse(&format!(
                    "{scheme}://{}{}",
                    HOSTS[pick(bits, 1, 4)],
                    ["/", "/a", "/a/b/c"][pick(bits, 3, 3)]
                ))
                .unwrap();
                let (top, third_party) = (HOSTS[pick(bits, 5, 4)], bits >> 7 & 1 == 1);
                let header = jar.cookie_header(&url, top, third_party);
                if let Some(h) = &header {
                    prop_assert_eq!(h.capacity(), h.len());
                }
                prop_assert_eq!(header, reference::cookie_header(&jar, &url, top, third_party));
            }
        }
    }

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parses_set_cookie_attributes() {
        let c = Cookie::parse_set_cookie(
            "id=abc123; Domain=.tracker.net; Path=/x; Secure; HttpOnly; SameSite=None; Max-Age=3600",
        )
        .unwrap();
        assert_eq!(c.name, "id");
        assert_eq!(c.value, "abc123");
        assert_eq!(c.domain.as_deref(), Some("tracker.net"));
        assert_eq!(c.path, "/x");
        assert!(c.secure && c.http_only);
        assert_eq!(c.same_site, Some(SameSite::None));
        assert_eq!(c.max_age, Some(3600));
    }

    #[test]
    fn rejects_nameless() {
        assert!(Cookie::parse_set_cookie("=v").is_none());
        assert!(Cookie::parse_set_cookie("no-equals-sign").is_none());
    }

    #[test]
    fn domain_matching() {
        assert!(domain_match("shop.example.com", "example.com"));
        assert!(domain_match("example.com", "example.com"));
        assert!(!domain_match("badexample.com", "example.com"));
        assert!(!domain_match("example.com", "shop.example.com"));
    }

    #[test]
    fn domain_matching_ignores_ascii_case() {
        assert!(domain_match("Shop.EXAMPLE.com", "example.com"));
        assert!(domain_match("shop.example.com", "Example.COM"));
        assert!(domain_match("EXAMPLE.COM", "example.com"));
        assert!(!domain_match("BADEXAMPLE.com", "Example.com"));
    }

    #[test]
    fn domain_matching_edges() {
        // Equal length: only an exact (case-insensitive) match counts.
        assert!(domain_match("abc.com", "ABC.com"));
        assert!(!domain_match("abd.com", "abc.com"));
        // The suffix must start at a label boundary.
        assert!(domain_match("bad.example.com", "example.com"));
        // A domain longer than the host never matches.
        assert!(!domain_match("com", "example.com"));
        assert!(!domain_match("", "example.com"));
        // Non-ASCII bytes compare exactly.
        assert!(domain_match("a.é.com", "é.com"));
        assert!(!domain_match("a.É.com", "é.com"));
    }

    #[test]
    fn path_matching() {
        assert!(path_match("/a/b", "/a"));
        assert!(path_match("/a/b", "/a/"));
        assert!(path_match("/a", "/a"));
        assert!(!path_match("/ab", "/a"));
        assert!(!path_match("/", "/a"));
    }

    #[test]
    fn host_only_cookie_not_sent_to_subdomain() {
        let mut jar = CookieJar::new();
        jar.set(
            Cookie::new("sid", "1"),
            &url("http://example.com/"),
            "example.com",
        );
        assert_eq!(
            jar.cookies_for(&url("http://example.com/p"), "example.com", false)
                .len(),
            1
        );
        assert!(jar
            .cookies_for(&url("http://www.example.com/p"), "example.com", false)
            .is_empty());
    }

    #[test]
    fn domain_cookie_covers_subdomains() {
        let mut jar = CookieJar::new();
        let mut c = Cookie::new("sid", "1");
        c.domain = Some("example.com".into());
        jar.set(c, &url("http://example.com/"), "example.com");
        assert_eq!(
            jar.cookies_for(&url("http://shop.example.com/"), "example.com", false)
                .len(),
            1
        );
    }

    #[test]
    fn cannot_set_for_unrelated_domain() {
        let mut jar = CookieJar::new();
        let mut c = Cookie::new("evil", "1");
        c.domain = Some("other.com".into());
        jar.set(c, &url("http://example.com/"), "example.com");
        assert!(jar.is_empty());
    }

    #[test]
    fn secure_cookie_needs_https() {
        let mut jar = CookieJar::new();
        let mut c = Cookie::new("s", "1");
        c.secure = true;
        jar.set(c, &url("https://example.com/"), "example.com");
        assert!(jar
            .cookies_for(&url("http://example.com/"), "example.com", false)
            .is_empty());
        assert_eq!(
            jar.cookies_for(&url("https://example.com/"), "example.com", false)
                .len(),
            1
        );
    }

    #[test]
    fn samesite_lax_blocked_cross_site() {
        let mut jar = CookieJar::new();
        let mut c = Cookie::new("sid", "1");
        c.same_site = Some(SameSite::Lax);
        jar.set(c, &url("http://tracker.net/"), "site.com");
        assert!(jar
            .cookies_for(&url("http://tracker.net/pixel"), "site.com", true)
            .is_empty());
        assert_eq!(
            jar.cookies_for(&url("http://tracker.net/pixel"), "tracker.net", false)
                .len(),
            1
        );
    }

    #[test]
    fn partitioned_jar_isolates_tracker_across_sites() {
        let mut jar = CookieJar::new();
        jar.partition_third_party = true;
        // Tracker sets an ID while the user is on site-a.
        jar.set(
            Cookie::new("uid", "x"),
            &url("http://tracker.net/p"),
            "site-a.com",
        );
        // Visible again under site-a…
        assert_eq!(
            jar.cookies_for(&url("http://tracker.net/p"), "site-a.com", true)
                .len(),
            1
        );
        // …but not under site-b: the cross-site identifier is severed.
        assert!(jar
            .cookies_for(&url("http://tracker.net/p"), "site-b.com", true)
            .is_empty());
    }

    #[test]
    fn max_age_zero_deletes() {
        let mut jar = CookieJar::new();
        jar.set(Cookie::new("a", "1"), &url("http://x.com/"), "x.com");
        let mut del = Cookie::new("a", "");
        del.max_age = Some(0);
        jar.set(del, &url("http://x.com/"), "x.com");
        assert!(jar.is_empty());
    }

    #[test]
    fn replacement_updates_value() {
        let mut jar = CookieJar::new();
        jar.set(Cookie::new("a", "1"), &url("http://x.com/"), "x.com");
        jar.set(Cookie::new("a", "2"), &url("http://x.com/"), "x.com");
        assert_eq!(jar.len(), 1);
        assert_eq!(
            jar.cookies_for(&url("http://x.com/"), "x.com", false)[0].1,
            "2"
        );
    }

    #[test]
    fn cookie_header_renders() {
        let mut jar = CookieJar::new();
        jar.set(Cookie::new("a", "1"), &url("http://x.com/"), "x.com");
        jar.set(Cookie::new("b", "2"), &url("http://x.com/"), "x.com");
        assert_eq!(
            jar.cookie_header(&url("http://x.com/"), "x.com", false)
                .as_deref(),
            Some("a=1; b=2")
        );
        assert_eq!(
            jar.cookie_header(&url("http://y.com/"), "x.com", false),
            None
        );
    }

    #[test]
    fn set_cookie_roundtrip() {
        let header = "id=v; Domain=t.net; Path=/c; Secure; SameSite=None; Max-Age=60";
        let c = Cookie::parse_set_cookie(header).unwrap();
        let c2 = Cookie::parse_set_cookie(&c.to_set_cookie()).unwrap();
        assert_eq!(c, c2);
    }
}
