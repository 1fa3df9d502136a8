//! The site record codec (archive format v2): [`SiteCrawl`] ⇄ positional
//! bytes with a per-segment string table.
//!
//! A site segment is the capture's bulk, and most of it repeats: every
//! request carries the same `User-Agent`, the same header names, the same
//! hosts and initiator URLs. Format v1 wrote keyed vbin — every struct field
//! name and every repeated string spelled out in every record — and left
//! DEFLATE to rediscover that redundancy. v2 removes it before compression:
//!
//! - **Positional records.** The codec fixes the order of every field, so
//!   records carry no keys and no type tags. Enums are one byte; an
//!   `Option` is a presence bit in its struct's flag byte, a `0 = None`
//!   enum byte, or a `+1` varint.
//! - **A string table.** Every string (header names and values, URL parts,
//!   cookies, reasons and error labels) is one varint `x`: an even `x` is a
//!   literal of `x / 2` UTF-8 bytes that becomes the segment's next table
//!   entry, an odd `x` is a back-reference to entry `x / 2`.
//! - **A URL table.** Initiator URLs are `0` (none), `1` followed by a new
//!   URL, or `i + 2` for the `i`-th URL the segment introduced; every
//!   reference decodes to the one shared `Arc<Url>`.
//! - **Bodies** are `+1`-length-prefixed raw bytes.
//!
//! ```text
//! site       := str(domain) outcome count:uvar record* count:uvar cookie*
//!               has_resilience:u8 [resilience]
//! outcome    := 0 flags:u8 (email_confirmed, bot_detection_passed)
//!             | 1 (Unreachable) | 2 (NoAuthFlow)
//!             | 3 str (SignupBlocked) | 4 str (SignupFailed) | 5 str (Quarantined)
//! record     := flags:u8 (blocked) request response [str(blocked)]
//!               error:u8 [status:uvar if error = 6] from_cache:u8
//! request    := method:u8 kind:u8 url headers body initiator:uvar
//! response   := status:uvar headers body
//! url        := flags:u8 (query, fragment) str(scheme) str(host) port:uvar(+1)
//!               str(path) [str(query)] [str(fragment)]
//! headers    := count:uvar (str(name) str(value))*
//! body       := len:uvar(+1) byte*
//! cookie     := flags:u8 (domain, secure, http_only, max_age) str(name)
//!               str(value) [str(domain)] str(path) same_site:u8
//!               [max_age:zigzag uvar]
//! resilience := attempts:uvar retries:uvar rescued:u8 virtual_ms:uvar
//!               count:uvar str*
//! ```
//!
//! The decoder trusts nothing. Every table index is looked up with `get`,
//! every count is bounded by the smallest encoding its element can have,
//! every flag byte must have only its defined bits set, and a segment whose
//! strings would decode to more than [`STRING_AMPLIFICATION`] times its
//! inflated size is refused: back-references let a few bytes stand for many
//! copies of one long string, and that bound keeps a crafted segment from
//! allocating gigabytes. Any failure is an `Err`, which
//! [`crate::format::decode_site`] reports as a corrupt segment.
//!
//! The codec is lossless, not canonical: a decoded crawl re-encodes to an
//! equal crawl. The generic serde route is its reference — unit tests and
//! `tests/store.rs` compare `decode(encode(c))` with `c` through
//! `serde_json`, on every variant and on seed-7 captures.

use crate::vbin::{unzigzag, write_uvar, zigzag, Reader, VbinError};
use pii_browser::engine::FetchRecord;
use pii_crawler::{CrawlOutcome, SiteCrawl, SiteResilience};
use pii_net::cache::CacheDisposition;
use pii_net::cookie::{Cookie, SameSite};
use pii_net::fault::FetchError;
use pii_net::http::{HeaderMap, Method, Request, ResourceKind, Response};
use pii_net::url::Url;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// A segment may decode to at most this many string bytes per inflated
/// byte. No honest seed-7 segment passes 2.7 (DESIGN §9); a crafted run of
/// back-references to one long literal hits it and is refused.
pub const STRING_AMPLIFICATION: usize = 16;

/// The smallest encodings of a counted element, which bound every declared
/// count by the bytes left: a record is 16 bytes (flags, method, kind, a
/// five-byte URL, an empty header list and body on each side, the
/// initiator, status, error and cache bytes), a header two strings, a
/// cookie five bytes, a resilience error one string.
const MIN_RECORD: usize = 16;
const MIN_HEADER: usize = 2;
const MIN_COOKIE: usize = 5;
const MIN_STR: usize = 1;

const URL_QUERY: u8 = 1;
const URL_FRAGMENT: u8 = 2;
const RECORD_BLOCKED: u8 = 1;
const COOKIE_DOMAIN: u8 = 1;
const COOKIE_SECURE: u8 = 2;
const COOKIE_HTTP_ONLY: u8 = 4;
const COOKIE_MAX_AGE: u8 = 8;
const COMPLETED_EMAIL: u8 = 1;
const COMPLETED_BOT: u8 = 2;

/// The encoder's table hasher: FxHash's multiply-rotate over eight bytes at
/// a time. The tables are never iterated, so the bytes written do not
/// depend on it; SipHash made the encode about twice as slow. It is
/// unkeyed, so a forged archive's strings could collide on purpose and
/// slow down its own `store repair`, but not change what it writes.
#[derive(Clone, Copy, Default)]
struct FxBuild;

struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FxHasher::K);
    }
}

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            self.add(u64::from_le_bytes(w));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------- encoding

/// A flag byte: the OR of every bit whose condition holds.
fn flag_byte(bits: &[(bool, u8)]) -> u8 {
    bits.iter()
        .filter(|(set, _)| *set)
        .fold(0, |flags, (_, bit)| flags | bit)
}

/// One segment's encoder: the output plus the string and URL tables, both
/// keyed by borrows of the crawl being encoded.
struct Encoder<'c, 'o> {
    out: &'o mut Vec<u8>,
    strings: HashMap<&'c str, u32, FxBuild>,
    urls: HashMap<&'c Url, u32, FxBuild>,
}

impl<'c> Encoder<'c, '_> {
    fn byte(&mut self, b: u8) {
        self.out.push(b);
    }

    fn uvar(&mut self, n: u64) {
        write_uvar(self.out, n);
    }

    fn str(&mut self, s: &'c str) {
        let next = self.strings.len() as u32;
        match self.strings.entry(s) {
            Entry::Occupied(seen) => {
                write_uvar(self.out, (u64::from(*seen.get()) << 1) | 1);
            }
            Entry::Vacant(slot) => {
                slot.insert(next);
                write_uvar(self.out, (s.len() as u64) << 1);
                self.out.extend_from_slice(s.as_bytes());
            }
        }
    }

    fn body(&mut self, body: &Option<Vec<u8>>) {
        match body {
            None => self.uvar(0),
            Some(bytes) => {
                self.uvar(bytes.len() as u64 + 1);
                self.out.extend_from_slice(bytes);
            }
        }
    }

    fn url(&mut self, url: &'c Url) {
        self.byte(flag_byte(&[
            (url.query.is_some(), URL_QUERY),
            (url.fragment.is_some(), URL_FRAGMENT),
        ]));
        self.str(&url.scheme);
        self.str(&url.host);
        self.uvar(url.port.map_or(0, |p| u64::from(p) + 1));
        self.str(&url.path);
        if let Some(query) = &url.query {
            self.str(query);
        }
        if let Some(fragment) = &url.fragment {
            self.str(fragment);
        }
    }

    fn initiator(&mut self, initiator: &'c Option<Arc<Url>>) {
        let Some(url) = initiator else {
            return self.uvar(0);
        };
        let next = self.urls.len() as u32;
        match self.urls.entry(url) {
            Entry::Occupied(seen) => {
                write_uvar(self.out, u64::from(*seen.get()) + 2);
            }
            Entry::Vacant(slot) => {
                slot.insert(next);
                self.uvar(1);
                self.url(url);
            }
        }
    }

    fn headers(&mut self, headers: &'c HeaderMap) {
        self.uvar(headers.len() as u64);
        for (name, value) in headers.iter() {
            self.str(name);
            self.str(value);
        }
    }

    fn record(&mut self, rec: &'c FetchRecord) {
        self.byte(flag_byte(&[(rec.blocked.is_some(), RECORD_BLOCKED)]));
        let req = &rec.request;
        self.byte(match req.method {
            Method::Get => 0,
            Method::Post => 1,
            Method::Head => 2,
            Method::Put => 3,
            Method::Delete => 4,
            Method::Options => 5,
        });
        self.byte(match req.kind {
            ResourceKind::Document => 0,
            ResourceKind::Script => 1,
            ResourceKind::Image => 2,
            ResourceKind::Stylesheet => 3,
            ResourceKind::Xhr => 4,
            ResourceKind::Subdocument => 5,
            ResourceKind::Beacon => 6,
        });
        self.url(&req.url);
        self.headers(&req.headers);
        self.body(&req.body);
        self.initiator(&req.initiator);
        let resp = &rec.response;
        self.uvar(u64::from(resp.status));
        self.headers(&resp.headers);
        self.body(&resp.body);
        if let Some(blocked) = &rec.blocked {
            self.str(blocked);
        }
        match rec.error {
            None => self.byte(0),
            Some(FetchError::DnsFailure) => self.byte(1),
            Some(FetchError::ConnectTimeout) => self.byte(2),
            Some(FetchError::Reset) => self.byte(3),
            Some(FetchError::TruncatedBody) => self.byte(4),
            Some(FetchError::SlowResponse) => self.byte(5),
            Some(FetchError::Http5xx(status)) => {
                self.byte(6);
                self.uvar(u64::from(status));
            }
        }
        self.byte(match rec.from_cache {
            None => 0,
            Some(CacheDisposition::Hit) => 1,
            Some(CacheDisposition::Stale) => 2,
            Some(CacheDisposition::Revalidated) => 3,
        });
    }

    fn cookie(&mut self, c: &'c Cookie) {
        self.byte(flag_byte(&[
            (c.domain.is_some(), COOKIE_DOMAIN),
            (c.secure, COOKIE_SECURE),
            (c.http_only, COOKIE_HTTP_ONLY),
            (c.max_age.is_some(), COOKIE_MAX_AGE),
        ]));
        self.str(&c.name);
        self.str(&c.value);
        if let Some(domain) = &c.domain {
            self.str(domain);
        }
        self.str(&c.path);
        self.byte(match c.same_site {
            None => 0,
            Some(SameSite::Strict) => 1,
            Some(SameSite::Lax) => 2,
            Some(SameSite::None) => 3,
        });
        if let Some(age) = c.max_age {
            self.uvar(zigzag(age));
        }
    }

    fn outcome(&mut self, outcome: &'c CrawlOutcome) {
        match outcome {
            CrawlOutcome::Completed {
                email_confirmed,
                bot_detection_passed,
            } => {
                self.byte(0);
                self.byte(flag_byte(&[
                    (*email_confirmed, COMPLETED_EMAIL),
                    (*bot_detection_passed, COMPLETED_BOT),
                ]));
            }
            CrawlOutcome::Unreachable => self.byte(1),
            CrawlOutcome::NoAuthFlow => self.byte(2),
            CrawlOutcome::SignupBlocked(reason) => {
                self.byte(3);
                self.str(reason);
            }
            CrawlOutcome::SignupFailed(reason) => {
                self.byte(4);
                self.str(reason);
            }
            CrawlOutcome::Quarantined(reason) => {
                self.byte(5);
                self.str(reason);
            }
        }
    }

    fn resilience(&mut self, r: &'c SiteResilience) {
        self.uvar(u64::from(r.attempts));
        self.uvar(u64::from(r.retries));
        self.byte(u8::from(r.rescued));
        self.uvar(r.virtual_ms);
        self.uvar(r.errors.len() as u64);
        for e in &r.errors {
            self.str(e);
        }
    }
}

/// Append the v2 encoding of `crawl` to `out`.
pub fn encode_site_crawl(crawl: &SiteCrawl, out: &mut Vec<u8>) {
    let mut enc = Encoder {
        out,
        strings: HashMap::with_capacity_and_hasher(256, FxBuild),
        urls: HashMap::with_hasher(FxBuild),
    };
    enc.str(&crawl.domain);
    enc.outcome(&crawl.outcome);
    enc.uvar(crawl.records.len() as u64);
    for rec in &crawl.records {
        enc.record(rec);
    }
    enc.uvar(crawl.stored_cookies.len() as u64);
    for c in &crawl.stored_cookies {
        enc.cookie(c);
    }
    match &crawl.resilience {
        None => enc.byte(0),
        Some(r) => {
            enc.byte(1);
            enc.resilience(r);
        }
    }
}

// ---------------------------------------------------------------- decoding

const ERR: VbinError = VbinError("unexpected shape for the site codec");

/// One segment's decoder: the input, both tables as built so far, and the
/// string bytes the segment may still decode to.
struct Decoder<'a> {
    r: Reader<'a>,
    strings: Vec<&'a str>,
    urls: Vec<Arc<Url>>,
    budget: usize,
}

impl<'a> Decoder<'a> {
    fn byte(&mut self) -> Result<u8, VbinError> {
        self.r.byte()
    }

    /// A flag byte whose set bits must all be in `known`.
    fn flags(&mut self, known: u8) -> Result<u8, VbinError> {
        match self.byte()? {
            flags if flags & !known == 0 => Ok(flags),
            _ => Err(ERR),
        }
    }

    fn uvar(&mut self) -> Result<u64, VbinError> {
        self.r.uvar()
    }

    fn u16(&mut self) -> Result<u16, VbinError> {
        u16::try_from(self.uvar()?).map_err(|_| ERR)
    }

    fn u32(&mut self) -> Result<u32, VbinError> {
        u32::try_from(self.uvar()?).map_err(|_| ERR)
    }

    fn bool(&mut self) -> Result<bool, VbinError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ERR),
        }
    }

    /// A literal (entered into the table) or a back-reference, charged
    /// against the segment's string budget either way.
    fn str_slice(&mut self) -> Result<&'a str, VbinError> {
        let x = self.uvar()?;
        let half = usize::try_from(x >> 1).map_err(|_| ERR)?;
        let s = if x & 1 == 0 {
            // A literal of `half` bytes: the table's next entry.
            let s =
                std::str::from_utf8(self.r.take(half)?).map_err(|_| VbinError("invalid UTF-8"))?;
            self.strings.push(s);
            s
        } else {
            // A reference to entry `half`.
            *self
                .strings
                .get(half)
                .ok_or(VbinError("string reference"))?
        };
        self.budget = self
            .budget
            .checked_sub(s.len())
            .ok_or(VbinError("string amplification"))?;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, VbinError> {
        self.str_slice().map(str::to_string)
    }

    fn body(&mut self) -> Result<Option<Vec<u8>>, VbinError> {
        match self.uvar()? {
            0 => Ok(None),
            n => {
                let len = usize::try_from(n - 1).map_err(|_| ERR)?;
                Ok(Some(self.r.take(len)?.to_vec()))
            }
        }
    }

    fn url(&mut self) -> Result<Url, VbinError> {
        let flags = self.flags(URL_QUERY | URL_FRAGMENT)?;
        let scheme = self.string()?;
        let host = self.string()?;
        let port = match self.uvar()? {
            0 => None,
            n => Some(u16::try_from(n - 1).map_err(|_| ERR)?),
        };
        let path = self.string()?;
        let query = match flags & URL_QUERY {
            0 => None,
            _ => Some(self.string()?),
        };
        let fragment = match flags & URL_FRAGMENT {
            0 => None,
            _ => Some(self.string()?),
        };
        Ok(Url {
            scheme,
            host,
            port,
            path,
            query,
            fragment,
        })
    }

    fn initiator(&mut self) -> Result<Option<Arc<Url>>, VbinError> {
        match self.uvar()? {
            0 => Ok(None),
            1 => {
                let url = Arc::new(self.url()?);
                self.urls.push(Arc::clone(&url));
                Ok(Some(url))
            }
            n => {
                let at = usize::try_from(n - 2).map_err(|_| ERR)?;
                let url = self.urls.get(at).ok_or(VbinError("URL reference"))?;
                Ok(Some(Arc::clone(url)))
            }
        }
    }

    fn headers(&mut self) -> Result<HeaderMap, VbinError> {
        let count = self.r.count(MIN_HEADER)?;
        let mut headers = HeaderMap::new();
        for _ in 0..count {
            let name = pii_net::http::intern(self.str_slice()?);
            let value = pii_net::http::intern(self.str_slice()?);
            headers.insert(name, value);
        }
        Ok(headers)
    }

    fn record(&mut self) -> Result<FetchRecord, VbinError> {
        let flags = self.flags(RECORD_BLOCKED)?;
        let method = match self.byte()? {
            0 => Method::Get,
            1 => Method::Post,
            2 => Method::Head,
            3 => Method::Put,
            4 => Method::Delete,
            5 => Method::Options,
            _ => return Err(ERR),
        };
        let kind = match self.byte()? {
            0 => ResourceKind::Document,
            1 => ResourceKind::Script,
            2 => ResourceKind::Image,
            3 => ResourceKind::Stylesheet,
            4 => ResourceKind::Xhr,
            5 => ResourceKind::Subdocument,
            6 => ResourceKind::Beacon,
            _ => return Err(ERR),
        };
        let request = Request {
            method,
            url: self.url()?,
            headers: self.headers()?,
            body: self.body()?,
            kind,
            initiator: self.initiator()?,
        };
        let response = Response {
            status: self.u16()?,
            headers: self.headers()?,
            body: self.body()?,
        };
        let blocked = match flags & RECORD_BLOCKED {
            0 => None,
            _ => Some(self.string()?),
        };
        let error = match self.byte()? {
            0 => None,
            1 => Some(FetchError::DnsFailure),
            2 => Some(FetchError::ConnectTimeout),
            3 => Some(FetchError::Reset),
            4 => Some(FetchError::TruncatedBody),
            5 => Some(FetchError::SlowResponse),
            6 => Some(FetchError::Http5xx(self.u16()?)),
            _ => return Err(ERR),
        };
        let from_cache = match self.byte()? {
            0 => None,
            1 => Some(CacheDisposition::Hit),
            2 => Some(CacheDisposition::Stale),
            3 => Some(CacheDisposition::Revalidated),
            _ => return Err(ERR),
        };
        Ok(FetchRecord {
            request,
            response,
            blocked,
            error,
            from_cache,
        })
    }

    fn cookie(&mut self) -> Result<Cookie, VbinError> {
        let flags =
            self.flags(COOKIE_DOMAIN | COOKIE_SECURE | COOKIE_HTTP_ONLY | COOKIE_MAX_AGE)?;
        let name = self.string()?;
        let value = self.string()?;
        let domain = match flags & COOKIE_DOMAIN {
            0 => None,
            _ => Some(self.string()?),
        };
        let path = self.string()?;
        let same_site = match self.byte()? {
            0 => None,
            1 => Some(SameSite::Strict),
            2 => Some(SameSite::Lax),
            3 => Some(SameSite::None),
            _ => return Err(ERR),
        };
        let max_age = match flags & COOKIE_MAX_AGE {
            0 => None,
            _ => Some(unzigzag(self.uvar()?)),
        };
        Ok(Cookie {
            name,
            value,
            domain,
            path,
            secure: flags & COOKIE_SECURE != 0,
            http_only: flags & COOKIE_HTTP_ONLY != 0,
            same_site,
            max_age,
        })
    }

    fn outcome(&mut self) -> Result<CrawlOutcome, VbinError> {
        match self.byte()? {
            0 => {
                let flags = self.flags(COMPLETED_EMAIL | COMPLETED_BOT)?;
                Ok(CrawlOutcome::Completed {
                    email_confirmed: flags & COMPLETED_EMAIL != 0,
                    bot_detection_passed: flags & COMPLETED_BOT != 0,
                })
            }
            1 => Ok(CrawlOutcome::Unreachable),
            2 => Ok(CrawlOutcome::NoAuthFlow),
            3 => Ok(CrawlOutcome::SignupBlocked(self.string()?)),
            4 => Ok(CrawlOutcome::SignupFailed(self.string()?)),
            5 => Ok(CrawlOutcome::Quarantined(self.string()?)),
            _ => Err(ERR),
        }
    }

    fn resilience(&mut self) -> Result<SiteResilience, VbinError> {
        let attempts = self.u32()?;
        let retries = self.u32()?;
        let rescued = self.bool()?;
        let virtual_ms = self.uvar()?;
        let count = self.r.count(MIN_STR)?;
        let mut errors = Vec::with_capacity(count);
        for _ in 0..count {
            errors.push(self.string()?);
        }
        Ok(SiteResilience {
            attempts,
            retries,
            rescued,
            virtual_ms,
            errors,
        })
    }
}

/// Decode a [`SiteCrawl`] spanning exactly `bytes`. `Err` means the bytes
/// are not a v2 site record, or would decode past the string budget.
pub fn decode_site_crawl(bytes: &[u8]) -> Result<SiteCrawl, VbinError> {
    decode(bytes).map(|(crawl, _)| crawl)
}

/// [`decode_site_crawl`], also returning the string bytes the segment
/// decoded to (what [`STRING_AMPLIFICATION`] bounds).
fn decode(bytes: &[u8]) -> Result<(SiteCrawl, usize), VbinError> {
    let budget = bytes.len().saturating_mul(STRING_AMPLIFICATION);
    let mut d = Decoder {
        r: Reader::new(bytes),
        strings: Vec::new(),
        urls: Vec::new(),
        budget,
    };
    let domain = d.string()?;
    let outcome = d.outcome()?;
    let count = d.r.count(MIN_RECORD)?;
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        records.push(d.record()?);
    }
    let count = d.r.count(MIN_COOKIE)?;
    let mut stored_cookies = Vec::with_capacity(count);
    for _ in 0..count {
        stored_cookies.push(d.cookie()?);
    }
    let resilience = match d.bool()? {
        false => None,
        true => Some(d.resilience()?),
    };
    if d.r.pos != bytes.len() {
        return Err(VbinError("trailing bytes"));
    }
    let crawl = SiteCrawl {
        domain,
        outcome,
        records,
        stored_cookies,
        resilience,
    };
    Ok((crawl, budget - d.budget))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    pub(crate) fn exhaustive_crawl() -> SiteCrawl {
        // One of everything: every outcome shape is covered by
        // `all_outcomes_round_trip`, this exercises every *field* shape.
        let url = Url {
            scheme: "https".into(),
            host: "shop0001.com".into(),
            port: Some(8443),
            path: "/signup".into(),
            query: Some("ref=home".into()),
            fragment: Some("top".into()),
        };
        let bare_url = Url {
            scheme: "http".into(),
            host: "cdn.example".into(),
            port: None,
            path: "/".into(),
            query: None,
            fragment: None,
        };
        let mut headers = HeaderMap::new();
        headers.insert("Accept", "text/html");
        headers.insert("Cookie", "sid=1; sid=2");
        headers.insert("cookie", "duplicate-case");
        let record = |body: Option<Vec<u8>>, error: Option<FetchError>| FetchRecord {
            request: Request {
                method: Method::Post,
                url: url.clone(),
                headers: headers.clone(),
                body: body.clone(),
                kind: ResourceKind::Xhr,
                initiator: Some(Arc::new(bare_url.clone())),
            },
            response: Response {
                status: 503,
                headers: HeaderMap::new(),
                body,
            },
            blocked: Some("shields".into()),
            error,
            from_cache: None,
        };
        SiteCrawl {
            domain: "shop0001.com".into(),
            outcome: CrawlOutcome::Completed {
                email_confirmed: true,
                bot_detection_passed: false,
            },
            records: vec![
                record(Some(b"email=a%40b.c&name=Jane".to_vec()), None),
                record(Some(Vec::new()), Some(FetchError::Http5xx(503))),
                record(None, Some(FetchError::Reset)),
                FetchRecord {
                    request: Request {
                        method: Method::Get,
                        url: bare_url.clone(),
                        headers: HeaderMap::new(),
                        body: None,
                        kind: ResourceKind::Image,
                        initiator: None,
                    },
                    response: Response {
                        status: 200,
                        headers: HeaderMap::new(),
                        body: Some((0u8..=255).collect()),
                    },
                    blocked: None,
                    error: None,
                    from_cache: None,
                },
                // Cache-served variants (repeat-visit captures).
                FetchRecord {
                    request: Request {
                        method: Method::Get,
                        url: bare_url.clone(),
                        headers: HeaderMap::new(),
                        body: None,
                        kind: ResourceKind::Script,
                        initiator: None,
                    },
                    response: Response {
                        status: 200,
                        headers: HeaderMap::new(),
                        body: Some(b"cached".to_vec()),
                    },
                    blocked: None,
                    error: None,
                    from_cache: Some(pii_net::cache::CacheDisposition::Hit),
                },
                FetchRecord {
                    request: Request {
                        method: Method::Get,
                        url: bare_url.clone(),
                        headers: HeaderMap::new(),
                        body: None,
                        kind: ResourceKind::Script,
                        initiator: None,
                    },
                    response: Response {
                        status: 304,
                        headers: HeaderMap::new(),
                        body: None,
                    },
                    blocked: None,
                    error: None,
                    from_cache: Some(pii_net::cache::CacheDisposition::Revalidated),
                },
            ],
            stored_cookies: vec![
                Cookie {
                    name: "sid".into(),
                    value: "abc123".into(),
                    domain: Some("shop0001.com".into()),
                    path: "/".into(),
                    secure: true,
                    http_only: true,
                    same_site: Some(SameSite::Lax),
                    max_age: Some(-1),
                },
                Cookie::new("bare", "x"),
            ],
            resilience: Some(SiteResilience {
                attempts: 9,
                retries: 4,
                rescued: true,
                virtual_ms: 12_500,
                errors: vec!["tracker@/pixel#2".into()],
            }),
        }
    }

    fn encode(crawl: &SiteCrawl) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_site_crawl(crawl, &mut bytes);
        bytes
    }

    fn json<T: serde::Serialize>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
    }

    /// The oracle: the generic serde route renders `decode(encode(c))` and
    /// `c` identically. Returns the encoding.
    fn assert_round_trips(crawl: &SiteCrawl) -> Vec<u8> {
        let bytes = encode(crawl);
        let decoded = decode_site_crawl(&bytes).expect("v2 decode");
        assert_eq!(
            json(&decoded),
            json(crawl),
            "round trip of {}",
            crawl.domain
        );
        bytes
    }

    #[test]
    fn exhaustive_crawl_round_trips() {
        assert_round_trips(&exhaustive_crawl());
    }

    #[test]
    fn all_outcomes_round_trip() {
        for outcome in [
            CrawlOutcome::Completed {
                email_confirmed: false,
                bot_detection_passed: true,
            },
            CrawlOutcome::Completed {
                email_confirmed: true,
                bot_detection_passed: true,
            },
            CrawlOutcome::Unreachable,
            CrawlOutcome::NoAuthFlow,
            CrawlOutcome::SignupBlocked("policy".into()),
            CrawlOutcome::SignupFailed("captcha".into()),
            CrawlOutcome::Quarantined("panic: worker".into()),
        ] {
            assert_round_trips(&SiteCrawl {
                domain: "x.com".into(),
                outcome,
                records: Vec::new(),
                stored_cookies: Vec::new(),
                resilience: None,
            });
        }
    }

    #[test]
    fn all_enum_variants_round_trip() {
        let mut crawl = exhaustive_crawl();
        for method in [
            Method::Get,
            Method::Post,
            Method::Head,
            Method::Put,
            Method::Delete,
            Method::Options,
        ] {
            crawl.records[0].request.method = method;
            assert_round_trips(&crawl);
        }
        for kind in [
            ResourceKind::Document,
            ResourceKind::Script,
            ResourceKind::Image,
            ResourceKind::Stylesheet,
            ResourceKind::Xhr,
            ResourceKind::Subdocument,
            ResourceKind::Beacon,
        ] {
            crawl.records[0].request.kind = kind;
            assert_round_trips(&crawl);
        }
        for error in [
            None,
            Some(FetchError::DnsFailure),
            Some(FetchError::ConnectTimeout),
            Some(FetchError::Reset),
            Some(FetchError::TruncatedBody),
            Some(FetchError::SlowResponse),
            Some(FetchError::Http5xx(599)),
        ] {
            crawl.records[0].error = error;
            assert_round_trips(&crawl);
        }
        for from_cache in [
            None,
            Some(CacheDisposition::Hit),
            Some(CacheDisposition::Stale),
            Some(CacheDisposition::Revalidated),
        ] {
            crawl.records[0].from_cache = from_cache;
            assert_round_trips(&crawl);
        }
        for same_site in [
            None,
            Some(SameSite::Strict),
            Some(SameSite::Lax),
            Some(SameSite::None),
        ] {
            crawl.stored_cookies[0].same_site = same_site;
            assert_round_trips(&crawl);
        }
        for (secure, http_only, max_age) in [
            (false, false, None),
            (true, false, Some(i64::MIN)),
            (false, true, Some(i64::MAX)),
        ] {
            let cookie = &mut crawl.stored_cookies[0];
            cookie.secure = secure;
            cookie.http_only = http_only;
            cookie.max_age = max_age;
            assert_round_trips(&crawl);
        }
        crawl.resilience = None;
        assert_round_trips(&crawl);
    }

    /// Header maps hold static and owned strings side by side. Both decode
    /// equal through the codec, and the hand-written serde impl gives both
    /// the derived `{"entries": [[name, value], …]}` shape.
    #[test]
    fn borrowed_and_owned_headers_round_trip() {
        let mut crawl = exhaustive_crawl();
        let mut headers = HeaderMap::new();
        headers.insert("Host", String::from("shop0001.com"));
        headers.insert(String::from("X-Trace"), "static-value");
        headers.insert("Cache-Control", "no-store");
        headers.insert(String::from("cookie"), format!("sid={}", 7));
        crawl.records[0].request.headers = headers.clone();
        crawl.records[0].response.headers = headers.clone();

        let decoded = decode_site_crawl(&assert_round_trips(&crawl)).unwrap();
        assert_eq!(decoded.records[0].request.headers, headers);
        assert_eq!(decoded.records[0].response.headers, headers);

        let tree = serde::value::to_value(&crawl).unwrap();
        let back: SiteCrawl = serde::value::from_value(tree).unwrap();
        assert_eq!(back.records[0].request.headers, headers);
        assert_eq!(
            serde_json::to_string(&headers).unwrap(),
            r#"{"entries":[["Host","shop0001.com"],["X-Trace","static-value"],["Cache-Control","no-store"],["cookie","sid=7"]]}"#
        );
    }

    /// Every string is written once per segment: a `User-Agent` on fifty
    /// requests appears once as text, the other forty-nine times as a
    /// back-reference.
    #[test]
    fn a_repeated_string_is_written_once() {
        let ua = "Mozilla/5.0 (X11; Linux x86_64; rv:88.0) Gecko/20100101 Firefox/88.0-test";
        let mut crawl = exhaustive_crawl();
        let record = crawl.records[0].clone();
        crawl.records = (0..50)
            .map(|_| {
                let mut r = record.clone();
                r.request.headers.insert("User-Agent", ua);
                r
            })
            .collect();
        let bytes = assert_round_trips(&crawl);
        let copies = bytes
            .windows(ua.len())
            .filter(|w| *w == ua.as_bytes())
            .count();
        assert_eq!(copies, 1);
    }

    /// Equal initiators decode to one shared URL, wherever they recur in the
    /// segment; a different initiator, or none, between them decodes as
    /// written.
    #[test]
    fn repeated_initiators_decode_shared_and_equal() {
        let mut crawl = exhaustive_crawl();
        let record = crawl.records[0].clone();
        let a = Arc::new(Url::parse("https://shop0001.com/account").unwrap());
        let b = Arc::new(Url::parse("https://shop0001.com:8443/account?x=1#f").unwrap());
        let initiators = [
            Some(&a),
            Some(&a),
            None,
            Some(&a),
            Some(&b),
            Some(&a),
            Some(&a),
            Some(&b),
        ];
        // Each record holds its own copy, as separately built requests do.
        crawl.records = initiators
            .iter()
            .map(|initiator| {
                let mut r = record.clone();
                r.request.initiator = initiator.map(|u| Arc::new(Url::clone(u)));
                r
            })
            .collect();
        let decoded = decode_site_crawl(&assert_round_trips(&crawl)).unwrap();
        let got: Vec<Option<&Arc<Url>>> = decoded
            .records
            .iter()
            .map(|r| r.request.initiator.as_ref())
            .collect();
        for (g, want) in got.iter().zip(initiators) {
            assert_eq!(g.map(|u| &**u), want.map(|u| &**u));
        }
        let shared = |i: usize, j: usize| Arc::ptr_eq(got[i].unwrap(), got[j].unwrap());
        assert!(shared(0, 1) && shared(1, 3) && shared(3, 5) && shared(5, 6));
        assert!(shared(4, 7));
        assert!(!shared(3, 4), "different initiators stay distinct");
    }

    /// A v1 site record (keyed vbin, what the generic value tree encodes)
    /// is not a v2 record: the decoder refuses it, and a reader skips and
    /// counts the segment.
    #[test]
    fn a_v1_keyed_record_is_rejected_and_the_segment_skipped() {
        let tree = serde::value::to_value(&exhaustive_crawl()).unwrap();
        let mut bytes = Vec::new();
        crate::vbin::encode_value(&tree, &mut bytes);
        assert!(decode_site_crawl(&bytes).is_err());
        let payload = pii_encodings::deflate::compress(&bytes);
        let raw_len = bytes.len() as u32;
        assert_eq!(
            crate::format::decode_site(&payload, raw_len).map(|c| c.domain),
            Err(crate::format::FrameError::Corrupt("record shape"))
        );
        // An archive whose only site segment is the v1 record: an honest
        // archive's meta prefix, then the segment, with no footer.
        let meta = crate::ArchiveMeta {
            spec: pii_web::UniverseSpec::default(),
            browser: pii_browser::profiles::BrowserKind::Firefox88Vanilla,
            faults: pii_net::fault::FaultProfile::None,
        };
        let mut writer = crate::ArchiveWriter::new(Vec::new(), &meta).unwrap();
        writer.append_site(0, &exhaustive_crawl()).unwrap();
        let honest = writer.finish_with_sink().unwrap().1;
        let site_offset = crate::ArchiveReader::from_bytes(honest.clone())
            .unwrap()
            .entries()[0]
            .offset as usize;
        let mut archive = honest[..site_offset].to_vec();
        crate::format::write_segment(
            &mut archive,
            crate::format::SegmentKind::Site,
            0,
            1,
            raw_len,
            "shop0001.com",
            &payload,
        );
        let replay = crate::ArchiveReader::from_bytes(archive)
            .unwrap()
            .read_dataset();
        assert_eq!(replay.report.segments_total, 1);
        assert_eq!(replay.report.segments_verified, 0);
        assert_eq!(replay.report.skipped.len(), 1);
        assert_eq!(replay.report.skipped[0].reason, "corrupt: record shape");
        assert!(matches!(
            replay.dataset.crawls[0].outcome,
            CrawlOutcome::Quarantined(_)
        ));
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let bytes = encode(&exhaustive_crawl());
        for cut in 0..bytes.len() {
            assert!(decode_site_crawl(&bytes[..cut]).is_err());
        }
    }

    /// `refs` one-byte back-references to a 64 KiB domain, as resilience
    /// errors: without a bound, a million of them would decode to 64 GB.
    fn back_reference_bomb(refs: u64) -> Vec<u8> {
        let long = "x".repeat(64 * 1024);
        let mut raw = Vec::new();
        write_uvar(&mut raw, (long.len() as u64) << 1);
        raw.extend_from_slice(long.as_bytes());
        raw.push(1); // Unreachable
        raw.extend_from_slice(&[0, 0]); // no records, no cookies
        raw.push(1); // resilience follows
        raw.extend_from_slice(&[0, 0, 0, 0]); // attempts, retries, rescued, virtual_ms
        write_uvar(&mut raw, refs);
        raw.extend(std::iter::repeat_n(1u8, refs as usize)); // entry 0
        raw
    }

    #[test]
    fn a_back_reference_bomb_is_refused() {
        let few = decode_site_crawl(&back_reference_bomb(10)).expect("ten copies decode");
        let errors = few.resilience.expect("resilience").errors;
        assert_eq!(errors.len(), 10);
        assert!(errors.iter().all(|e| *e == few.domain));

        let bomb = back_reference_bomb(1_000_000);
        assert_eq!(
            decode_site_crawl(&bomb).map(|c| c.domain.len()),
            Err(VbinError("string amplification"))
        );
        let payload = pii_encodings::deflate::compress(&bomb);
        assert_eq!(
            crate::format::decode_site(&payload, bomb.len() as u32).map(|c| c.domain.len()),
            Err(crate::format::FrameError::Corrupt("record shape"))
        );
    }

    /// A table reference past the entries decoded so far is an error, for
    /// strings and for initiator URLs alike.
    #[test]
    fn forward_references_are_refused() {
        // Site "d", unreachable, with one record whose URL parts all refer
        // to "d" and whose initiator byte is `initiator`.
        let site = |initiator: u8| {
            let mut raw = vec![2, b'd', 1, 1]; // domain, Unreachable, 1 record
            raw.extend([0, 0, 0]); // flags, Get, Document
            raw.extend([0, 1, 1, 0, 1]); // url: scheme, host, no port, path
            raw.extend([0, 0, initiator]); // no headers, no body, initiator
            raw.extend([0xc8, 0x01, 0, 0, 0, 0]); // 200, no headers/body/error/cache
            raw.extend([0, 0]); // no cookies, no resilience
            raw
        };
        let decoded = decode_site_crawl(&site(0)).expect("a backward reference decodes");
        assert_eq!(decoded.records[0].request.url.path, "d");
        assert!(decoded.records[0].request.initiator.is_none());
        assert_eq!(
            decode_site_crawl(&site(2)).map(|c| c.domain),
            Err(VbinError("URL reference"))
        );
        let mut first_is_a_reference = site(0);
        first_is_a_reference[0] = 1;
        assert_eq!(
            decode_site_crawl(&first_is_a_reference).map(|c| c.domain),
            Err(VbinError("string reference"))
        );
    }

    /// A crawl of the smallest records, cookies and resilience errors the
    /// format has encodes each in exactly its count bound, and decodes: the
    /// bounds are the true minima, so no valid count is refused.
    #[test]
    fn minimal_elements_meet_their_count_bounds() {
        let d = Url {
            scheme: "d".into(),
            host: "d".into(),
            port: None,
            path: "d".into(),
            query: None,
            fragment: None,
        };
        let record = FetchRecord {
            request: Request {
                method: Method::Get,
                url: d,
                headers: HeaderMap::new(),
                body: None,
                kind: ResourceKind::Document,
                initiator: None,
            },
            response: Response {
                status: 0,
                headers: HeaderMap::new(),
                body: None,
            },
            blocked: None,
            error: None,
            from_cache: None,
        };
        let n = 50;
        let crawl = SiteCrawl {
            domain: "d".into(),
            outcome: CrawlOutcome::Unreachable,
            records: vec![record; n],
            stored_cookies: vec![
                Cookie {
                    path: "d".into(),
                    ..Cookie::new("d", "d")
                };
                n
            ],
            resilience: Some(SiteResilience {
                errors: vec!["d".into(); n],
                ..SiteResilience::default()
            }),
        };
        let prefix = 2 + 1; // the domain literal, the outcome
        let counts = 1 + 1 + 1; // records, cookies, resilience errors
        let resilience = 1 + 4; // its flag, attempts, retries, rescued, virtual_ms
        assert_eq!(
            assert_round_trips(&crawl).len(),
            prefix + counts + resilience + n * (MIN_RECORD + MIN_COOKIE + MIN_STR)
        );
    }

    /// Neither site decoder (the record codec, and the segment decode that
    /// inflates first) panics on `raw`, and whatever they accept re-encodes
    /// to a crawl that decodes equal: nothing accepted is lost on the next
    /// write.
    fn assert_site_decoders_are_total(raw: &[u8]) -> Result<(), TestCaseError> {
        let payload = pii_encodings::deflate::compress(raw);
        let _ = crate::format::decode_site(&payload, raw.len() as u32);
        if let Ok(crawl) = decode_site_crawl(raw) {
            let again = decode_site_crawl(&encode(&crawl));
            prop_assert!(again.is_ok(), "re-encoding failed: {raw:02x?}");
            prop_assert_eq!(json(&again.unwrap()), json(&crawl));
        }
        Ok(())
    }

    #[test]
    fn site_decoders_are_total_on_every_one_byte_edit() {
        let valid = encode(&exhaustive_crawl());
        for at in 0..=valid.len() {
            let mut edits = vec![valid[..at].to_vec()];
            for byte in [0x00, 0x01, 0x7f, 0xff] {
                let mut inserted = valid.clone();
                inserted.insert(at, byte);
                edits.push(inserted);
            }
            if at < valid.len() {
                for mask in [0x01, 0x02, 0x20, 0x80] {
                    let mut flipped = valid.clone();
                    flipped[at] ^= mask;
                    edits.push(flipped);
                }
            }
            for raw in edits {
                assert_site_decoders_are_total(&raw).unwrap();
            }
        }
    }

    /// A seed-7 1x crawl at one worker under the given settings.
    fn seed_7_crawls(
        faults: pii_net::fault::FaultProfile,
        cache: Option<pii_net::cache::CacheStrategy>,
        repeat: u32,
        watchdog_ms: Option<u64>,
    ) -> Vec<SiteCrawl> {
        let universe = pii_web::Universe::generate_with(pii_web::UniverseSpec {
            seed: 7,
            ..pii_web::UniverseSpec::default()
        });
        let mut crawler = pii_crawler::Crawler::new(&universe);
        crawler.workers = 1;
        crawler.faults = universe.fault_plan(faults);
        crawler.cache = cache;
        crawler.repeat = repeat;
        crawler.watchdog_ms = watchdog_ms;
        crawler
            .run(pii_browser::profiles::BrowserKind::Firefox88Vanilla)
            .crawls
    }

    /// Every site of the seed-7 crawls the store tests pin — plain, the
    /// paper's faults with a warm-cache revisit, hostile — round-trips, and
    /// decodes to well under the amplification bound.
    #[test]
    fn every_seed_7_capture_round_trips() {
        use pii_net::cache::CacheStrategy;
        use pii_net::fault::FaultProfile;
        let mut worst = 0.0f64;
        for crawls in [
            seed_7_crawls(FaultProfile::None, None, 1, None),
            seed_7_crawls(
                FaultProfile::PaperMay2021,
                Some(CacheStrategy::CacheFirst),
                2,
                None,
            ),
            seed_7_crawls(FaultProfile::Hostile, None, 1, Some(4000)),
        ] {
            assert_eq!(crawls.len(), 404);
            for crawl in &crawls {
                let bytes = assert_round_trips(crawl);
                let (_, strings) = decode(&bytes).unwrap();
                worst = worst.max(strings as f64 / bytes.len() as f64);
            }
        }
        assert!(
            worst * 4.0 < STRING_AMPLIFICATION as f64,
            "an honest segment decodes to {worst:.1}x its size in strings"
        );
    }

    /// A crawl drawn from a pool of `distinct` strings (plus the empty
    /// string): every pool string first as a header of record 0, then one
    /// record per pick whose header name is also its URL path, with
    /// initiators interleaved from three URLs that share the pool's text.
    fn sharing_crawl(distinct: usize, picks: &[(u16, u16, u8)]) -> SiteCrawl {
        let pool: Vec<String> = std::iter::once(String::new())
            .chain((0..distinct).map(|i| format!("s{i}")))
            .collect();
        let at = |i: u16| pool[i as usize % pool.len()].clone();
        let url = |host: String, path: String, query: Option<String>| Url {
            scheme: "https".into(),
            host,
            port: None,
            path,
            query,
            fragment: None,
        };
        let initiators = [
            Arc::new(url("a.example".into(), at(1), None)),
            Arc::new(url("b.example".into(), at(1), Some(at(2)))),
            Arc::new(url(at(3), "/".into(), None)),
        ];
        let mut first = HeaderMap::new();
        for (i, s) in pool.iter().enumerate() {
            first.insert(s.clone(), pool[i * 7 % pool.len()].clone());
        }
        let record = |headers: HeaderMap, path: String, host: String, pick: u8| FetchRecord {
            request: Request {
                method: Method::Get,
                url: url(host, path, (pick & 1 == 1).then(|| at(u16::from(pick)))),
                headers,
                body: (pick & 2 == 2).then(Vec::new),
                kind: ResourceKind::Image,
                initiator: match pick % 4 {
                    0 => None,
                    n => Some(Arc::new(Url::clone(&initiators[usize::from(n) - 1]))),
                },
            },
            response: Response {
                status: 200,
                headers: HeaderMap::new(),
                body: None,
            },
            blocked: (pick & 4 == 4).then(|| at(u16::from(pick))),
            error: None,
            from_cache: None,
        };
        let mut records = vec![record(first, "/".into(), "shop.example".into(), 0)];
        for &(a, b, pick) in picks {
            let mut headers = HeaderMap::new();
            headers.insert(at(a), at(b));
            headers.insert("", "");
            records.push(record(headers, at(a), at(b), pick));
        }
        SiteCrawl {
            domain: at(0),
            outcome: CrawlOutcome::SignupBlocked(at(5)),
            stored_cookies: picks
                .iter()
                .map(|&(a, b, _)| Cookie {
                    domain: Some(at(b)),
                    ..Cookie::new(at(a), at(b))
                })
                .collect(),
            resilience: Some(SiteResilience {
                errors: picks.iter().map(|&(a, _, _)| at(a)).collect(),
                ..SiteResilience::default()
            }),
            records,
        }
    }

    proptest! {
        /// String-sharing edge cases: empty strings, the same text as a
        /// header name and as a path, one-, two- and three-byte references
        /// (pools of up to 140 and over 16,384 strings), and interleaved
        /// initiators, which decode shared.
        #[test]
        fn string_sharing_edge_cases_round_trip(
            regime in 0u8..3,
            offset in 0usize..140,
            picks in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let distinct = match regime {
                0 => 0,
                1 => 1 + offset,
                _ => 16_380 + offset,
            };
            let picks: Vec<(u16, u16, u8)> = picks
                .iter()
                .map(|&p| (p as u16, (p >> 16) as u16, (p >> 32) as u8))
                .collect();
            let crawl = sharing_crawl(distinct, &picks);
            let decoded = decode_site_crawl(&encode(&crawl));
            prop_assert!(decoded.is_ok());
            let decoded = decoded.unwrap();
            prop_assert_eq!(json(&decoded), json(&crawl));
            let initiators: Vec<&Arc<Url>> = decoded
                .records
                .iter()
                .filter_map(|r| r.request.initiator.as_ref())
                .collect();
            for x in &initiators {
                for y in &initiators {
                    prop_assert_eq!(Arc::ptr_eq(x, y), x == y);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn site_decoders_are_total_on_arbitrary_bytes(
            raw in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            assert_site_decoders_are_total(&raw)?;
        }

        #[test]
        fn site_decoders_are_total_on_damaged_encodings(
            edits in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let mut raw = encode(&exhaustive_crawl());
            // Each edit flips bits of a byte, inserts one, or truncates.
            for edit in edits {
                let (at, byte) = ((edit >> 16) as usize % (raw.len() + 1), (edit >> 8) as u8);
                match edit % 3 {
                    0 if at < raw.len() => raw[at] ^= byte.max(1),
                    1 => raw.insert(at, byte),
                    _ => raw.truncate(at),
                }
            }
            assert_site_decoders_are_total(&raw)?;
        }
    }
}
