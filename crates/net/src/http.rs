//! HTTP/1.1 message model: methods, header map, request, response.

use crate::url::Url;
use serde::de::Error as _;
use serde::{Deserialize, Serialize, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Request methods used in the simulated web.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    Get,
    Post,
    Head,
    Put,
    Delete,
    Options,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Options => "OPTIONS",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Case-insensitive multimap of HTTP headers, preserving insertion order and
/// original casing (like real wire capture does).
///
/// Names and values are `Cow<'static, str>`: the header names a browser
/// emits and its constant values (`no-store`, `text/html`, user agents) are
/// stored borrowed, so only per-request values allocate. The serialized
/// shape is `{"entries": [[name, value], …]}` whichever way an entry is held.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    entries: Vec<(Cow<'static, str>, Cow<'static, str>)>,
}

impl HeaderMap {
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// Append a header (duplicates allowed, as on the wire).
    pub fn insert(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replace all values of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<Cow<'static, str>>) {
        self.remove(name);
        self.insert(name.to_string(), value);
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_ref())
    }

    /// All values for `name`.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.entries
            .iter()
            .filter(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_ref())
            .collect()
    }

    /// Remove every value of `name`; returns whether anything was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_ref(), v.as_ref()))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Header names and constant values the simulated browser emits. A decoder
/// that meets one of these spellings stores the static string instead of a
/// fresh allocation.
const STATIC_HEADER_STRS: &[&str] = &[
    "Host",
    "Referer",
    "User-Agent",
    "Cookie",
    "Set-Cookie",
    "Content-Type",
    "Cache-Control",
    "ETag",
    "Last-Modified",
    "If-None-Match",
    "If-Modified-Since",
    "no-store",
    "text/html",
    "application/x-www-form-urlencoded",
    // The browser profiles' `User-Agent` values (`pii-browser`'s
    // `user_agent`, whose tests hold the two lists together).
    "Mozilla/5.0 (X11; Linux x86_64; rv:88.0) Gecko/20100101 Firefox/88.0",
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chrome/93.0",
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 OPR/79.0",
    "Mozilla/5.0 (Macintosh) AppleWebKit/605.1.15 Version/14.0 Safari/605.1.15",
    "Mozilla/5.0 (X11; Linux x86_64; rv:92.0) Gecko/20100101 Firefox/92.0",
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 Chrome/93.0 Brave/1.29",
];

/// `s` as a header string: borrowed from [`STATIC_HEADER_STRS`] when it is
/// one of the browser's constant spellings (exact case), owned otherwise.
pub fn intern(s: &str) -> Cow<'static, str> {
    match STATIC_HEADER_STRS.iter().find(|known| **known == s) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(s.to_string()),
    }
}

impl Serialize for HeaderMap {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let entries = self
            .entries
            .iter()
            .map(|(n, v)| Value::Arr(vec![Value::Str(n.to_string()), Value::Str(v.to_string())]))
            .collect();
        serializer.serialize_value(Value::Obj(vec![(
            "entries".to_string(),
            Value::Arr(entries),
        )]))
    }
}

impl<'de> Deserialize<'de> for HeaderMap {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut fields = match deserializer.take_value()? {
            Value::Obj(fields) => fields,
            other => {
                return Err(D::Error::custom(format!(
                    "expected object for HeaderMap, found {}",
                    other.kind()
                )))
            }
        };
        let entries: Vec<(String, String)> =
            serde::value::from_value(serde::value::take_field(&mut fields, "entries"))
                .map_err(|e| D::Error::custom(format!("HeaderMap.entries: {e}")))?;
        Ok(HeaderMap {
            entries: entries
                .into_iter()
                .map(|(n, v)| (Cow::Owned(n), Cow::Owned(v)))
                .collect(),
        })
    }
}

/// Why a request was emitted — the paper's Table 4 analysis needs the
/// initiator chain ("all requests in their request initiator chains").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Top-level navigation (address bar, link click, form submit).
    Document,
    /// `<script src>` fetch.
    Script,
    /// Image / tracking pixel.
    Image,
    /// Stylesheet.
    Stylesheet,
    /// Fetch/XHR issued by a script.
    Xhr,
    /// Iframe document.
    Subdocument,
    /// Beacon (`navigator.sendBeacon`-style fire-and-forget POST).
    Beacon,
}

/// A captured HTTP request — exactly the fields the paper records (§3.2:
/// "URLs, headers, and payload body").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    pub method: Method,
    pub url: Url,
    pub headers: HeaderMap,
    /// Payload body bytes, if any (POST bodies, beacons).
    pub body: Option<Vec<u8>>,
    pub kind: ResourceKind,
    /// URL of the document/script that caused this request, for initiator
    /// chain reconstruction. Shared: every subresource of a page carries
    /// the same document URL. Serialized as the URL itself.
    #[serde(with = "shared_url")]
    pub initiator: Option<Arc<Url>>,
}

/// Serde for [`Request::initiator`]: the shared URL reads and writes as an
/// `Option<Url>`.
mod shared_url {
    use super::Url;
    use serde::{Deserialize, Serialize};
    use std::sync::Arc;

    pub fn serialize<S: serde::Serializer>(
        url: &Option<Arc<Url>>,
        serializer: S,
    ) -> Result<S::Ok, S::Error> {
        url.as_deref().serialize(serializer)
    }

    pub fn deserialize<'de, D: serde::Deserializer<'de>>(
        deserializer: D,
    ) -> Result<Option<Arc<Url>>, D::Error> {
        Ok(Option::<Url>::deserialize(deserializer)?.map(Arc::new))
    }
}

impl Request {
    pub fn new(method: Method, url: Url, kind: ResourceKind) -> Self {
        Request {
            method,
            url,
            headers: HeaderMap::new(),
            body: None,
            kind,
            initiator: None,
        }
    }

    pub fn with_body(mut self, body: impl Into<Vec<u8>>) -> Self {
        self.body = Some(body.into());
        self
    }

    pub fn with_header(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.headers.insert(name, value);
        self
    }

    /// Body as UTF-8 text (lossy) for scanners; borrowed when the body is
    /// valid UTF-8.
    pub fn body_text(&self) -> Option<Cow<'_, str>> {
        self.body.as_deref().map(String::from_utf8_lossy)
    }

    /// Value of the `Referer` header, parsed.
    pub fn referer(&self) -> Option<Url> {
        self.headers.get("Referer").and_then(|v| Url::parse(v).ok())
    }

    /// Value of the `Cookie` header split into (name, value) pairs.
    pub fn cookie_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.headers
            .get("Cookie")
            .unwrap_or("")
            .split("; ")
            .filter_map(|pair| pair.split_once('='))
    }
}

/// A captured HTTP response (the paper records "URLs and headers").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    pub status: u16,
    pub headers: HeaderMap,
    /// Body is kept for documents so the browser can discover embedded
    /// resources; third-party responses are typically empty pixels.
    pub body: Option<Vec<u8>>,
}

impl Response {
    pub fn new(status: u16) -> Self {
        Response {
            status,
            headers: HeaderMap::new(),
            body: None,
        }
    }

    pub fn ok() -> Self {
        Response::new(200)
    }

    pub fn with_header(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.headers.insert(name, value);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_map_is_case_insensitive() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("X-Missing"));
    }

    #[test]
    fn known_header_strings_intern_to_static_ones() {
        for known in STATIC_HEADER_STRS {
            assert!(matches!(intern(known), Cow::Borrowed(s) if s == *known));
        }
        assert!(matches!(intern("X-Custom"), Cow::Owned(s) if s == "X-Custom"));
        // Interning is exact: another spelling stays owned.
        assert!(matches!(intern("host"), Cow::Owned(s) if s == "host"));
    }

    #[test]
    fn header_map_serde_shape_is_the_entry_list() {
        let mut h = HeaderMap::new();
        h.insert("Host", String::from("a.com"));
        h.insert(String::from("X-N"), "v");
        let pair = |n: &str, v: &str| Value::Arr(vec![Value::Str(n.into()), Value::Str(v.into())]);
        let tree = serde::value::to_value(&h).unwrap();
        assert_eq!(
            tree,
            Value::Obj(vec![(
                "entries".into(),
                Value::Arr(vec![pair("Host", "a.com"), pair("X-N", "v")]),
            )])
        );
        let back: HeaderMap = serde::value::from_value(tree).unwrap();
        assert_eq!(back, h);
        assert!(serde::value::from_value::<HeaderMap>(Value::Arr(Vec::new())).is_err());
        let short = Value::Obj(vec![(
            "entries".into(),
            Value::Arr(vec![Value::Arr(vec![Value::Str("a".into())])]),
        )]);
        assert!(serde::value::from_value::<HeaderMap>(short).is_err());
    }

    #[test]
    fn header_map_keeps_duplicates_in_order() {
        let mut h = HeaderMap::new();
        h.insert("Set-Cookie", "a=1");
        h.insert("Set-Cookie", "b=2");
        assert_eq!(h.get_all("set-cookie"), vec!["a=1", "b=2"]);
        assert_eq!(h.get("Set-Cookie"), Some("a=1"));
    }

    #[test]
    fn set_replaces_all() {
        let mut h = HeaderMap::new();
        h.insert("X", "1");
        h.insert("x", "2");
        h.set("X", "3");
        assert_eq!(h.get_all("x"), vec!["3"]);
    }

    #[test]
    fn request_cookie_pairs() {
        let url = Url::parse("http://t.net/").unwrap();
        let req = Request::new(Method::Get, url, ResourceKind::Image)
            .with_header("Cookie", "id=foo%40mydom.com; session=xyz");
        assert_eq!(
            req.cookie_pairs().collect::<Vec<_>>(),
            vec![("id", "foo%40mydom.com"), ("session", "xyz")]
        );
    }

    #[test]
    fn request_referer_parses() {
        let url = Url::parse("http://t.net/pixel").unwrap();
        let req = Request::new(Method::Get, url, ResourceKind::Image)
            .with_header("Referer", "http://site.com/signup?email=foo%40mydom.com");
        let referer = req.referer().unwrap();
        assert_eq!(referer.host, "site.com");
        assert_eq!(
            referer.query_param("email").as_deref(),
            Some("foo@mydom.com")
        );
    }

    #[test]
    fn body_text_lossy() {
        let url = Url::parse("http://t.net/c").unwrap();
        let req = Request::new(Method::Post, url, ResourceKind::Beacon).with_body(b"em=x".to_vec());
        assert_eq!(req.body_text().as_deref(), Some("em=x"));
    }
}
