//! Direct [`SiteCrawl`] ⇄ vbin codec — the archive's hot path.
//!
//! The generic route (`to_value` / `from_value`) materialises an owned
//! [`serde::Value`] tree per segment: one heap node per header, body byte,
//! and object key. On a 10×-universe replay that intermediate tree cost
//! more than re-running the crawl. This module walks the capture graph
//! directly — struct fields stream straight to vbin bytes on encode, and
//! decode reads into the final structs with no tree, matching object keys
//! as borrowed byte slices.
//!
//! Both directions are *exact* mirrors of the generic path: the encoder
//! emits byte-for-byte what `vbin::encode_value(&to_value(crawl))` would
//! (enum variants externally tagged, `None` as null, `skip_serializing_if`
//! fields omitted, bodies packed as `TAG_BYTES`), and the decoder accepts
//! any field order plus the unpacked body form. The unit tests pin this
//! equivalence on every variant of every type in the graph; `tests/store.rs`
//! proptests it on whole datasets. A payload the decoder does not
//! recognise (e.g. one with a field this build does not know) is an `Err`,
//! and [`crate::format::decode_site`] reports the segment corrupt. The
//! generic route survives only in this module's tests, as the reference
//! the codec is held to.

use crate::vbin::{
    unzigzag, write_str, write_uvar, Reader, VbinError, TAG_ARR, TAG_BYTES, TAG_FALSE, TAG_I64,
    TAG_NULL, TAG_OBJ, TAG_STR, TAG_TRUE, TAG_U64,
};
use pii_browser::engine::FetchRecord;
use pii_crawler::{CrawlOutcome, SiteCrawl, SiteResilience};
use pii_net::cache::CacheDisposition;
use pii_net::cookie::{Cookie, SameSite};
use pii_net::fault::FetchError;
use pii_net::http::{HeaderMap, Method, Request, ResourceKind, Response};
use pii_net::url::Url;
use std::sync::Arc;

// ---------------------------------------------------------------- encoding

fn w_obj(out: &mut Vec<u8>, entries: u64) {
    out.push(TAG_OBJ);
    write_uvar(out, entries);
}

fn w_key(out: &mut Vec<u8>, key: &str) {
    write_str(out, key);
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    out.push(TAG_STR);
    write_str(out, s);
}

fn w_u64(out: &mut Vec<u8>, n: u64) {
    out.push(TAG_U64);
    write_uvar(out, n);
}

fn w_i64(out: &mut Vec<u8>, n: i64) {
    out.push(TAG_I64);
    write_uvar(out, crate::vbin::zigzag(n));
}

fn w_bool(out: &mut Vec<u8>, b: bool) {
    out.push(if b { TAG_TRUE } else { TAG_FALSE });
}

fn w_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(TAG_NULL),
        Some(s) => w_str(out, s),
    }
}

/// `Vec<u8>` bodies: the value tree renders them as arrays of small
/// unsigned numbers, which vbin packs as `TAG_BYTES` — except the empty
/// array, which stays `TAG_ARR` (matching `packable_as_bytes`).
fn w_opt_bytes(out: &mut Vec<u8>, b: &Option<Vec<u8>>) {
    match b {
        None => out.push(TAG_NULL),
        Some(bytes) if bytes.is_empty() => {
            out.push(TAG_ARR);
            write_uvar(out, 0);
        }
        Some(bytes) => {
            out.push(TAG_BYTES);
            write_uvar(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
    }
}

/// Externally-tagged unit variant: just the variant name as a string.
fn w_unit_variant(out: &mut Vec<u8>, name: &str) {
    w_str(out, name);
}

/// Externally-tagged newtype/struct variant header: `{ "Name": … }`.
fn w_variant_obj(out: &mut Vec<u8>, name: &str) {
    w_obj(out, 1);
    w_key(out, name);
}

fn w_url(out: &mut Vec<u8>, url: &Url) {
    w_obj(out, 6);
    w_key(out, "scheme");
    w_str(out, &url.scheme);
    w_key(out, "host");
    w_str(out, &url.host);
    w_key(out, "port");
    match url.port {
        None => out.push(TAG_NULL),
        Some(p) => w_u64(out, u64::from(p)),
    }
    w_key(out, "path");
    w_str(out, &url.path);
    w_key(out, "query");
    w_opt_str(out, &url.query);
    w_key(out, "fragment");
    w_opt_str(out, &url.fragment);
}

fn w_headers(out: &mut Vec<u8>, headers: &HeaderMap) {
    w_obj(out, 1);
    w_key(out, "entries");
    out.push(TAG_ARR);
    write_uvar(out, headers.len() as u64);
    for (name, value) in headers.iter() {
        out.push(TAG_ARR);
        write_uvar(out, 2);
        w_str(out, name);
        w_str(out, value);
    }
}

fn w_method(out: &mut Vec<u8>, m: Method) {
    w_unit_variant(
        out,
        match m {
            Method::Get => "Get",
            Method::Post => "Post",
            Method::Head => "Head",
            Method::Put => "Put",
            Method::Delete => "Delete",
            Method::Options => "Options",
        },
    );
}

fn w_resource_kind(out: &mut Vec<u8>, k: ResourceKind) {
    w_unit_variant(
        out,
        match k {
            ResourceKind::Document => "Document",
            ResourceKind::Script => "Script",
            ResourceKind::Image => "Image",
            ResourceKind::Stylesheet => "Stylesheet",
            ResourceKind::Xhr => "Xhr",
            ResourceKind::Subdocument => "Subdocument",
            ResourceKind::Beacon => "Beacon",
        },
    );
}

fn w_request(out: &mut Vec<u8>, req: &Request) {
    w_obj(out, 6);
    w_key(out, "method");
    w_method(out, req.method);
    w_key(out, "url");
    w_url(out, &req.url);
    w_key(out, "headers");
    w_headers(out, &req.headers);
    w_key(out, "body");
    w_opt_bytes(out, &req.body);
    w_key(out, "kind");
    w_resource_kind(out, req.kind);
    w_key(out, "initiator");
    match &req.initiator {
        None => out.push(TAG_NULL),
        Some(url) => w_url(out, url),
    }
}

fn w_response(out: &mut Vec<u8>, resp: &Response) {
    w_obj(out, 3);
    w_key(out, "status");
    w_u64(out, u64::from(resp.status));
    w_key(out, "headers");
    w_headers(out, &resp.headers);
    w_key(out, "body");
    w_opt_bytes(out, &resp.body);
}

fn w_fetch_error(out: &mut Vec<u8>, e: &FetchError) {
    match e {
        FetchError::DnsFailure => w_unit_variant(out, "DnsFailure"),
        FetchError::ConnectTimeout => w_unit_variant(out, "ConnectTimeout"),
        FetchError::Reset => w_unit_variant(out, "Reset"),
        FetchError::TruncatedBody => w_unit_variant(out, "TruncatedBody"),
        FetchError::SlowResponse => w_unit_variant(out, "SlowResponse"),
        FetchError::Http5xx(status) => {
            w_variant_obj(out, "Http5xx");
            w_u64(out, u64::from(*status));
        }
    }
}

fn w_fetch_record(out: &mut Vec<u8>, rec: &FetchRecord) {
    let count = 3 + u64::from(rec.error.is_some()) + u64::from(rec.from_cache.is_some());
    w_obj(out, count);
    w_key(out, "request");
    w_request(out, &rec.request);
    w_key(out, "response");
    w_response(out, &rec.response);
    w_key(out, "blocked");
    w_opt_str(out, &rec.blocked);
    if let Some(e) = &rec.error {
        w_key(out, "error");
        w_fetch_error(out, e);
    }
    if let Some(d) = rec.from_cache {
        w_key(out, "from_cache");
        match d {
            CacheDisposition::Hit => w_unit_variant(out, "Hit"),
            CacheDisposition::Stale => w_unit_variant(out, "Stale"),
            CacheDisposition::Revalidated => w_unit_variant(out, "Revalidated"),
        }
    }
}

fn w_cookie(out: &mut Vec<u8>, c: &Cookie) {
    w_obj(out, 8);
    w_key(out, "name");
    w_str(out, &c.name);
    w_key(out, "value");
    w_str(out, &c.value);
    w_key(out, "domain");
    w_opt_str(out, &c.domain);
    w_key(out, "path");
    w_str(out, &c.path);
    w_key(out, "secure");
    w_bool(out, c.secure);
    w_key(out, "http_only");
    w_bool(out, c.http_only);
    w_key(out, "same_site");
    match c.same_site {
        None => out.push(TAG_NULL),
        Some(SameSite::Strict) => w_unit_variant(out, "Strict"),
        Some(SameSite::Lax) => w_unit_variant(out, "Lax"),
        Some(SameSite::None) => w_unit_variant(out, "None"),
    }
    w_key(out, "max_age");
    match c.max_age {
        None => out.push(TAG_NULL),
        Some(age) => w_i64(out, age),
    }
}

fn w_outcome(out: &mut Vec<u8>, outcome: &CrawlOutcome) {
    match outcome {
        CrawlOutcome::Completed {
            email_confirmed,
            bot_detection_passed,
        } => {
            w_variant_obj(out, "Completed");
            w_obj(out, 2);
            w_key(out, "email_confirmed");
            w_bool(out, *email_confirmed);
            w_key(out, "bot_detection_passed");
            w_bool(out, *bot_detection_passed);
        }
        CrawlOutcome::Unreachable => w_unit_variant(out, "Unreachable"),
        CrawlOutcome::NoAuthFlow => w_unit_variant(out, "NoAuthFlow"),
        CrawlOutcome::SignupBlocked(reason) => {
            w_variant_obj(out, "SignupBlocked");
            w_str(out, reason);
        }
        CrawlOutcome::SignupFailed(reason) => {
            w_variant_obj(out, "SignupFailed");
            w_str(out, reason);
        }
        CrawlOutcome::Quarantined(reason) => {
            w_variant_obj(out, "Quarantined");
            w_str(out, reason);
        }
    }
}

fn w_resilience(out: &mut Vec<u8>, r: &SiteResilience) {
    w_obj(out, 5);
    w_key(out, "attempts");
    w_u64(out, u64::from(r.attempts));
    w_key(out, "retries");
    w_u64(out, u64::from(r.retries));
    w_key(out, "rescued");
    w_bool(out, r.rescued);
    w_key(out, "virtual_ms");
    w_u64(out, r.virtual_ms);
    w_key(out, "errors");
    out.push(TAG_ARR);
    write_uvar(out, r.errors.len() as u64);
    for e in &r.errors {
        w_str(out, e);
    }
}

/// Append the vbin encoding of `crawl` to `out` — byte-identical to
/// `vbin::encode_value(&serde::value::to_value(crawl))`.
pub fn encode_site_crawl(crawl: &SiteCrawl, out: &mut Vec<u8>) {
    w_obj(out, if crawl.resilience.is_some() { 5 } else { 4 });
    w_key(out, "domain");
    w_str(out, &crawl.domain);
    w_key(out, "outcome");
    w_outcome(out, &crawl.outcome);
    w_key(out, "records");
    out.push(TAG_ARR);
    write_uvar(out, crawl.records.len() as u64);
    for rec in &crawl.records {
        w_fetch_record(out, rec);
    }
    w_key(out, "stored_cookies");
    out.push(TAG_ARR);
    write_uvar(out, crawl.stored_cookies.len() as u64);
    for c in &crawl.stored_cookies {
        w_cookie(out, c);
    }
    if let Some(r) = &crawl.resilience {
        w_key(out, "resilience");
        w_resilience(out, r);
    }
}

// ---------------------------------------------------------------- decoding

const ERR: VbinError = VbinError("unexpected shape for the fast site codec");

impl<'a> Reader<'a> {
    fn r_obj(&mut self) -> Result<usize, VbinError> {
        if self.byte()? != TAG_OBJ {
            return Err(ERR);
        }
        self.count(2)
    }

    fn r_arr(&mut self) -> Result<usize, VbinError> {
        if self.byte()? != TAG_ARR {
            return Err(ERR);
        }
        self.count(1)
    }

    fn r_key(&mut self) -> Result<&'a [u8], VbinError> {
        self.str_bytes()
    }

    fn r_str(&mut self) -> Result<String, VbinError> {
        if self.byte()? != TAG_STR {
            return Err(ERR);
        }
        self.string()
    }

    fn r_str_slice(&mut self) -> Result<&'a str, VbinError> {
        if self.byte()? != TAG_STR {
            return Err(ERR);
        }
        std::str::from_utf8(self.str_bytes()?).map_err(|_| VbinError("invalid UTF-8"))
    }

    fn r_u64(&mut self) -> Result<u64, VbinError> {
        if self.byte()? != TAG_U64 {
            return Err(ERR);
        }
        self.uvar()
    }

    fn r_bool(&mut self) -> Result<bool, VbinError> {
        match self.byte()? {
            TAG_TRUE => Ok(true),
            TAG_FALSE => Ok(false),
            _ => Err(ERR),
        }
    }

    fn r_opt_str(&mut self) -> Result<Option<String>, VbinError> {
        match self.byte()? {
            TAG_NULL => Ok(None),
            TAG_STR => Ok(Some(self.string()?)),
            _ => Err(ERR),
        }
    }

    /// Bodies: null, the packed form, or a plain array of small numbers
    /// (the shape an empty body — or a pre-packing encoder — produces).
    fn r_opt_bytes(&mut self) -> Result<Option<Vec<u8>>, VbinError> {
        match self.byte()? {
            TAG_NULL => Ok(None),
            TAG_BYTES => Ok(Some(self.str_bytes()?.to_vec())),
            TAG_ARR => {
                let count = self.count(1)?;
                let mut bytes = Vec::with_capacity(count);
                for _ in 0..count {
                    match self.r_u64()? {
                        n if n < 256 => bytes.push(n as u8),
                        _ => return Err(ERR),
                    }
                }
                Ok(Some(bytes))
            }
            _ => Err(ERR),
        }
    }

    fn r_u16(&mut self) -> Result<u16, VbinError> {
        u16::try_from(self.r_u64()?).map_err(|_| ERR)
    }

    fn r_u32(&mut self) -> Result<u32, VbinError> {
        u32::try_from(self.r_u64()?).map_err(|_| ERR)
    }
}

fn r_url(r: &mut Reader<'_>) -> Result<Url, VbinError> {
    let count = r.r_obj()?;
    let mut scheme = None;
    let mut host = None;
    let mut port = None;
    let mut path = None;
    let mut query = None;
    let mut fragment = None;
    for _ in 0..count {
        match r.r_key()? {
            b"scheme" => scheme = Some(r.r_str()?),
            b"host" => host = Some(r.r_str()?),
            b"port" => {
                port = match r.byte()? {
                    TAG_NULL => None,
                    TAG_U64 => Some(u16::try_from(r.uvar()?).map_err(|_| ERR)?),
                    _ => return Err(ERR),
                }
            }
            b"path" => path = Some(r.r_str()?),
            b"query" => query = r.r_opt_str()?,
            b"fragment" => fragment = r.r_opt_str()?,
            _ => return Err(ERR),
        }
    }
    Ok(Url {
        scheme: scheme.ok_or(ERR)?,
        host: host.ok_or(ERR)?,
        port,
        path: path.ok_or(ERR)?,
        query,
        fragment,
    })
}

fn r_opt_url(r: &mut Reader<'_>) -> Result<Option<Url>, VbinError> {
    if r.bytes.get(r.pos) == Some(&TAG_NULL) {
        r.pos += 1;
        return Ok(None);
    }
    Ok(Some(r_url(r)?))
}

fn r_headers(r: &mut Reader<'_>) -> Result<HeaderMap, VbinError> {
    if r.r_obj()? != 1 || r.r_key()? != b"entries" {
        return Err(ERR);
    }
    let count = r.r_arr()?;
    let mut headers = HeaderMap::new();
    for _ in 0..count {
        if r.r_arr()? != 2 {
            return Err(ERR);
        }
        let name = pii_net::http::intern(r.r_str_slice()?);
        let value = pii_net::http::intern(r.r_str_slice()?);
        headers.insert(name, value);
    }
    Ok(headers)
}

fn r_method(r: &mut Reader<'_>) -> Result<Method, VbinError> {
    match r.r_str_slice()?.as_bytes() {
        b"Get" => Ok(Method::Get),
        b"Post" => Ok(Method::Post),
        b"Head" => Ok(Method::Head),
        b"Put" => Ok(Method::Put),
        b"Delete" => Ok(Method::Delete),
        b"Options" => Ok(Method::Options),
        _ => Err(ERR),
    }
}

fn r_resource_kind(r: &mut Reader<'_>) -> Result<ResourceKind, VbinError> {
    match r.r_str_slice()?.as_bytes() {
        b"Document" => Ok(ResourceKind::Document),
        b"Script" => Ok(ResourceKind::Script),
        b"Image" => Ok(ResourceKind::Image),
        b"Stylesheet" => Ok(ResourceKind::Stylesheet),
        b"Xhr" => Ok(ResourceKind::Xhr),
        b"Subdocument" => Ok(ResourceKind::Subdocument),
        b"Beacon" => Ok(ResourceKind::Beacon),
        _ => Err(ERR),
    }
}

/// The last initiator a segment decoded: its encoded bytes and the URL.
type LastInitiator<'a> = Option<(&'a [u8], Arc<Url>)>;

/// A request's initiator. When its encoding is the same bytes as the last
/// one decoded — a page's subresources all name the page — the record
/// shares that URL instead of decoding a copy.
fn r_initiator<'a>(
    r: &mut Reader<'a>,
    last: &mut LastInitiator<'a>,
) -> Result<Option<Arc<Url>>, VbinError> {
    if let Some((raw, url)) = last {
        if r.bytes[r.pos..].starts_with(raw) {
            r.pos += raw.len();
            return Ok(Some(Arc::clone(url)));
        }
    }
    let start = r.pos;
    let Some(url) = r_opt_url(r)? else {
        return Ok(None);
    };
    let url = Arc::new(url);
    *last = Some((&r.bytes[start..r.pos], Arc::clone(&url)));
    Ok(Some(url))
}

fn r_request<'a>(r: &mut Reader<'a>, last: &mut LastInitiator<'a>) -> Result<Request, VbinError> {
    let count = r.r_obj()?;
    let mut method = None;
    let mut url = None;
    let mut headers = None;
    let mut body = None;
    let mut kind = None;
    let mut initiator = None;
    for _ in 0..count {
        match r.r_key()? {
            b"method" => method = Some(r_method(r)?),
            b"url" => url = Some(r_url(r)?),
            b"headers" => headers = Some(r_headers(r)?),
            b"body" => body = r.r_opt_bytes()?,
            b"kind" => kind = Some(r_resource_kind(r)?),
            b"initiator" => initiator = r_initiator(r, last)?,
            _ => return Err(ERR),
        }
    }
    Ok(Request {
        method: method.ok_or(ERR)?,
        url: url.ok_or(ERR)?,
        headers: headers.ok_or(ERR)?,
        body,
        kind: kind.ok_or(ERR)?,
        initiator,
    })
}

fn r_response(r: &mut Reader<'_>) -> Result<Response, VbinError> {
    let count = r.r_obj()?;
    let mut status = None;
    let mut headers = None;
    let mut body = None;
    for _ in 0..count {
        match r.r_key()? {
            b"status" => status = Some(r.r_u16()?),
            b"headers" => headers = Some(r_headers(r)?),
            b"body" => body = r.r_opt_bytes()?,
            _ => return Err(ERR),
        }
    }
    Ok(Response {
        status: status.ok_or(ERR)?,
        headers: headers.ok_or(ERR)?,
        body,
    })
}

fn r_fetch_error(r: &mut Reader<'_>) -> Result<FetchError, VbinError> {
    match r.byte()? {
        TAG_STR => match r.str_bytes()? {
            b"DnsFailure" => Ok(FetchError::DnsFailure),
            b"ConnectTimeout" => Ok(FetchError::ConnectTimeout),
            b"Reset" => Ok(FetchError::Reset),
            b"TruncatedBody" => Ok(FetchError::TruncatedBody),
            b"SlowResponse" => Ok(FetchError::SlowResponse),
            _ => Err(ERR),
        },
        TAG_OBJ => {
            if r.count(2)? != 1 || r.r_key()? != b"Http5xx" {
                return Err(ERR);
            }
            Ok(FetchError::Http5xx(r.r_u16()?))
        }
        _ => Err(ERR),
    }
}

fn r_fetch_record<'a>(
    r: &mut Reader<'a>,
    last: &mut LastInitiator<'a>,
) -> Result<FetchRecord, VbinError> {
    let count = r.r_obj()?;
    let mut request = None;
    let mut response = None;
    let mut blocked = None;
    let mut error = None;
    let mut from_cache = None;
    for _ in 0..count {
        match r.r_key()? {
            b"request" => request = Some(r_request(r, last)?),
            b"response" => response = Some(r_response(r)?),
            b"blocked" => blocked = r.r_opt_str()?,
            b"error" => error = Some(r_fetch_error(r)?),
            b"from_cache" => {
                if r.byte()? != TAG_STR {
                    return Err(ERR);
                }
                from_cache = Some(match r.str_bytes()? {
                    b"Hit" => CacheDisposition::Hit,
                    b"Stale" => CacheDisposition::Stale,
                    b"Revalidated" => CacheDisposition::Revalidated,
                    _ => return Err(ERR),
                });
            }
            _ => return Err(ERR),
        }
    }
    Ok(FetchRecord {
        request: request.ok_or(ERR)?,
        response: response.ok_or(ERR)?,
        blocked,
        error,
        from_cache,
    })
}

fn r_cookie(r: &mut Reader<'_>) -> Result<Cookie, VbinError> {
    let count = r.r_obj()?;
    let mut name = None;
    let mut value = None;
    let mut domain = None;
    let mut path = None;
    let mut secure = None;
    let mut http_only = None;
    let mut same_site = None;
    let mut max_age = None;
    for _ in 0..count {
        match r.r_key()? {
            b"name" => name = Some(r.r_str()?),
            b"value" => value = Some(r.r_str()?),
            b"domain" => domain = r.r_opt_str()?,
            b"path" => path = Some(r.r_str()?),
            b"secure" => secure = Some(r.r_bool()?),
            b"http_only" => http_only = Some(r.r_bool()?),
            b"same_site" => {
                same_site = match r.byte()? {
                    TAG_NULL => None,
                    TAG_STR => Some(match r.str_bytes()? {
                        b"Strict" => SameSite::Strict,
                        b"Lax" => SameSite::Lax,
                        b"None" => SameSite::None,
                        _ => return Err(ERR),
                    }),
                    _ => return Err(ERR),
                }
            }
            b"max_age" => {
                max_age = match r.byte()? {
                    TAG_NULL => None,
                    TAG_I64 => Some(unzigzag(r.uvar()?)),
                    _ => return Err(ERR),
                }
            }
            _ => return Err(ERR),
        }
    }
    Ok(Cookie {
        name: name.ok_or(ERR)?,
        value: value.ok_or(ERR)?,
        domain,
        path: path.ok_or(ERR)?,
        secure: secure.ok_or(ERR)?,
        http_only: http_only.ok_or(ERR)?,
        same_site,
        max_age,
    })
}

fn r_outcome(r: &mut Reader<'_>) -> Result<CrawlOutcome, VbinError> {
    match r.byte()? {
        TAG_STR => match r.str_bytes()? {
            b"Unreachable" => Ok(CrawlOutcome::Unreachable),
            b"NoAuthFlow" => Ok(CrawlOutcome::NoAuthFlow),
            _ => Err(ERR),
        },
        TAG_OBJ => {
            if r.count(2)? != 1 {
                return Err(ERR);
            }
            match r.r_key()? {
                b"Completed" => {
                    let count = r.r_obj()?;
                    let mut email_confirmed = None;
                    let mut bot_detection_passed = None;
                    for _ in 0..count {
                        match r.r_key()? {
                            b"email_confirmed" => email_confirmed = Some(r.r_bool()?),
                            b"bot_detection_passed" => bot_detection_passed = Some(r.r_bool()?),
                            _ => return Err(ERR),
                        }
                    }
                    Ok(CrawlOutcome::Completed {
                        email_confirmed: email_confirmed.ok_or(ERR)?,
                        bot_detection_passed: bot_detection_passed.ok_or(ERR)?,
                    })
                }
                b"SignupBlocked" => Ok(CrawlOutcome::SignupBlocked(r.r_str()?)),
                b"SignupFailed" => Ok(CrawlOutcome::SignupFailed(r.r_str()?)),
                b"Quarantined" => Ok(CrawlOutcome::Quarantined(r.r_str()?)),
                _ => Err(ERR),
            }
        }
        _ => Err(ERR),
    }
}

fn r_resilience(r: &mut Reader<'_>) -> Result<SiteResilience, VbinError> {
    let count = r.r_obj()?;
    let mut resilience = SiteResilience::default();
    for _ in 0..count {
        match r.r_key()? {
            b"attempts" => resilience.attempts = r.r_u32()?,
            b"retries" => resilience.retries = r.r_u32()?,
            b"rescued" => resilience.rescued = r.r_bool()?,
            b"virtual_ms" => resilience.virtual_ms = r.r_u64()?,
            b"errors" => {
                let count = r.r_arr()?;
                resilience.errors = Vec::with_capacity(count);
                for _ in 0..count {
                    resilience.errors.push(r.r_str()?);
                }
            }
            _ => return Err(ERR),
        }
    }
    Ok(resilience)
}

/// Decode a [`SiteCrawl`] spanning exactly `bytes`. `Err` means the shape
/// was not the one [`encode_site_crawl`] produces.
pub fn decode_site_crawl(bytes: &[u8]) -> Result<SiteCrawl, VbinError> {
    let mut r = Reader::new(bytes);
    let count = r.r_obj()?;
    let mut domain = None;
    let mut outcome = None;
    let mut records = None;
    let mut stored_cookies = None;
    let mut resilience = None;
    for _ in 0..count {
        match r.r_key()? {
            b"domain" => domain = Some(r.r_str()?),
            b"outcome" => outcome = Some(r_outcome(&mut r)?),
            b"records" => {
                let count = r.r_arr()?;
                let mut recs = Vec::with_capacity(count);
                let mut last = None;
                for _ in 0..count {
                    recs.push(r_fetch_record(&mut r, &mut last)?);
                }
                records = Some(recs);
            }
            b"stored_cookies" => {
                let count = r.r_arr()?;
                let mut cookies = Vec::with_capacity(count);
                for _ in 0..count {
                    cookies.push(r_cookie(&mut r)?);
                }
                stored_cookies = Some(cookies);
            }
            b"resilience" => resilience = Some(r_resilience(&mut r)?),
            _ => return Err(ERR),
        }
    }
    if r.pos != bytes.len() {
        return Err(VbinError("trailing bytes"));
    }
    Ok(SiteCrawl {
        domain: domain.ok_or(ERR)?,
        outcome: outcome.ok_or(ERR)?,
        records: records.ok_or(ERR)?,
        stored_cookies: stored_cookies.ok_or(ERR)?,
        resilience,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    pub(crate) fn exhaustive_crawl() -> SiteCrawl {
        // One of everything: every outcome shape is covered by
        // `all_outcomes_agree`, this exercises every *field* shape.
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

    fn generic_bytes(crawl: &SiteCrawl) -> Vec<u8> {
        let tree = serde::value::to_value(crawl).unwrap();
        let mut out = Vec::new();
        crate::vbin::encode_value(&tree, &mut out);
        out
    }

    fn assert_codec_agrees(crawl: &SiteCrawl) {
        let generic = generic_bytes(crawl);
        let mut fast = Vec::new();
        encode_site_crawl(crawl, &mut fast);
        assert_eq!(fast, generic, "fast encoder diverged for {}", crawl.domain);
        let decoded = decode_site_crawl(&generic).expect("fast decode");
        assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            serde_json::to_string(crawl).unwrap(),
        );
    }

    /// Header maps hold static and owned strings side by side; the
    /// hand-written serde impl must give both the derived
    /// `{"entries": [[name, value], …]}` shape, so the generic route writes
    /// the fast encoder's bytes and reads them back equal.
    #[test]
    fn borrowed_and_owned_headers_share_one_wire_shape() {
        let mut crawl = exhaustive_crawl();
        let mut headers = HeaderMap::new();
        headers.insert("Host", String::from("shop0001.com"));
        headers.insert(String::from("X-Trace"), "static-value");
        headers.insert("Cache-Control", "no-store");
        headers.insert(String::from("cookie"), format!("sid={}", 7));
        crawl.records[0].request.headers = headers.clone();
        crawl.records[0].response.headers = headers.clone();

        let generic = generic_bytes(&crawl);
        let mut fast = Vec::new();
        encode_site_crawl(&crawl, &mut fast);
        assert_eq!(fast, generic);

        let tree = crate::vbin::decode_value(&generic).unwrap();
        let back: SiteCrawl = serde::value::from_value(tree).unwrap();
        assert_eq!(back.records[0].request.headers, headers);
        assert_eq!(back.records[0].response.headers, headers);
        assert_eq!(generic_bytes(&back), generic);
        let fast_back = decode_site_crawl(&fast).unwrap();
        assert_eq!(fast_back.records[0].request.headers, headers);
        assert_eq!(generic_bytes(&fast_back), generic);

        assert_eq!(
            serde_json::to_string(&headers).unwrap(),
            r#"{"entries":[["Host","shop0001.com"],["X-Trace","static-value"],["Cache-Control","no-store"],["cookie","sid=7"]]}"#
        );
    }

    #[test]
    fn fast_codec_matches_the_generic_path_on_an_exhaustive_crawl() {
        assert_codec_agrees(&exhaustive_crawl());
    }

    /// A run of records with the same initiator decodes to one shared URL;
    /// a different initiator, or none, between them decodes as written.
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
        ];
        crawl.records = initiators
            .iter()
            .map(|initiator| {
                let mut r = record.clone();
                r.request.initiator = initiator.map(|u| Arc::new(Url::clone(u)));
                r
            })
            .collect();
        assert_codec_agrees(&crawl);
        let mut bytes = Vec::new();
        encode_site_crawl(&crawl, &mut bytes);
        let decoded = decode_site_crawl(&bytes).unwrap();
        let got: Vec<Option<&Arc<Url>>> = decoded
            .records
            .iter()
            .map(|r| r.request.initiator.as_ref())
            .collect();
        for (g, want) in got.iter().zip(initiators) {
            assert_eq!(g.map(|u| &**u), want.map(|u| &**u));
        }
        let shared = |i: usize, j: usize| Arc::ptr_eq(got[i].unwrap(), got[j].unwrap());
        assert!(shared(0, 1) && shared(1, 3) && shared(5, 6));
        assert!(
            !shared(3, 5),
            "a different initiator in between is decoded afresh"
        );
    }

    #[test]
    fn all_outcomes_agree() {
        for outcome in [
            CrawlOutcome::Completed {
                email_confirmed: false,
                bot_detection_passed: true,
            },
            CrawlOutcome::Unreachable,
            CrawlOutcome::NoAuthFlow,
            CrawlOutcome::SignupBlocked("policy".into()),
            CrawlOutcome::SignupFailed("captcha".into()),
            CrawlOutcome::Quarantined("panic: worker".into()),
        ] {
            assert_codec_agrees(&SiteCrawl {
                domain: "x.com".into(),
                outcome,
                records: Vec::new(),
                stored_cookies: Vec::new(),
                resilience: None,
            });
        }
    }

    #[test]
    fn all_enum_variants_agree() {
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
            assert_codec_agrees(&crawl);
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
            assert_codec_agrees(&crawl);
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
            assert_codec_agrees(&crawl);
        }
        for same_site in [
            None,
            Some(SameSite::Strict),
            Some(SameSite::Lax),
            Some(SameSite::None),
        ] {
            crawl.stored_cookies[0].same_site = same_site;
            assert_codec_agrees(&crawl);
        }
    }

    /// What a future writer that added a field would emit: the exhaustive
    /// crawl's value tree plus one unknown `new_field`.
    fn new_field_bytes() -> Vec<u8> {
        let tree = serde::value::to_value(&exhaustive_crawl()).unwrap();
        let serde::Value::Obj(mut entries) = tree else {
            panic!("crawl serializes to an object")
        };
        entries.push(("new_field".into(), serde::Value::U64(1)));
        let mut bytes = Vec::new();
        crate::vbin::encode_value(&serde::Value::Obj(entries), &mut bytes);
        bytes
    }

    /// A future writer might add a field. The fast decoder must refuse it
    /// rather than silently drop data, and a reader must skip and count the
    /// segment.
    #[test]
    fn unknown_fields_are_rejected_and_the_segment_skipped() {
        let bytes = new_field_bytes();
        assert!(decode_site_crawl(&bytes).is_err());
        let payload = pii_encodings::deflate::compress(&bytes);
        let raw_len = bytes.len() as u32;
        assert_eq!(
            crate::format::decode_site(&payload, raw_len).map(|c| c.domain),
            Err(crate::format::FrameError::Corrupt("record shape"))
        );
        // An archive whose only site segment carries the unknown field: an
        // honest archive's meta prefix, then the segment, with no footer.
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
        let bytes = generic_bytes(&exhaustive_crawl());
        for cut in 0..bytes.len() {
            assert!(decode_site_crawl(&bytes[..cut]).is_err());
        }
    }

    /// Neither site decoder panics on `raw`, and whenever the direct decoder
    /// accepts it the generic value-tree route decodes the same crawl.
    fn assert_site_decoders_agree(raw: &[u8]) -> Result<(), TestCaseError> {
        let payload = pii_encodings::deflate::compress(raw);
        let _ = crate::format::decode_site(&payload, raw.len() as u32);
        if let Ok(fast) = decode_site_crawl(raw) {
            let tree = crate::vbin::decode_value(raw);
            prop_assert!(tree.is_ok(), "fast accepted what vbin rejects: {raw:02x?}");
            let generic: Result<SiteCrawl, _> = serde::value::from_value(tree.unwrap());
            prop_assert!(
                generic.is_ok(),
                "fast accepted what serde rejects: {raw:02x?}"
            );
            prop_assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&generic.unwrap()).unwrap()
            );
        }
        Ok(())
    }

    #[test]
    fn site_decoders_agree_on_every_one_byte_edit() {
        let mut valid = Vec::new();
        encode_site_crawl(&exhaustive_crawl(), &mut valid);
        for at in 0..=valid.len() {
            let mut edits = vec![valid[..at].to_vec()];
            for byte in [0x00, 0x7f, 0xff] {
                let mut inserted = valid.clone();
                inserted.insert(at, byte);
                edits.push(inserted);
            }
            if at < valid.len() {
                for mask in [0x01, 0x20, 0x80] {
                    let mut flipped = valid.clone();
                    flipped[at] ^= mask;
                    edits.push(flipped);
                }
            }
            for raw in edits {
                assert_site_decoders_agree(&raw).unwrap();
            }
        }
    }

    proptest! {
        #[test]
        fn site_decoders_are_total_on_arbitrary_bytes(
            raw in proptest::collection::vec(any::<u8>(), 0..1024),
        ) {
            assert_site_decoders_agree(&raw)?;
        }

        #[test]
        fn site_decoders_are_total_on_damaged_encodings(
            edits in proptest::collection::vec(any::<u64>(), 1..6),
        ) {
            let mut raw = Vec::new();
            encode_site_crawl(&exhaustive_crawl(), &mut raw);
            // Each edit flips bits of a byte, inserts one, or truncates.
            for edit in edits {
                let (at, byte) = ((edit >> 16) as usize % (raw.len() + 1), (edit >> 8) as u8);
                match edit % 3 {
                    0 if at < raw.len() => raw[at] ^= byte.max(1),
                    1 => raw.insert(at, byte),
                    _ => raw.truncate(at),
                }
            }
            assert_site_decoders_agree(&raw)?;
        }
    }
}
