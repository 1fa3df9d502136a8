//! HTTP/1.1 wire format: serialize [`Request`]/[`Response`] to message text
//! and parse them back.
//!
//! The crawler's capture is structured; the parser lets a user feed
//! externally captured HTTP/1.1 traffic through the same leak detector
//! (`pii_core::wire_input`). The writers produce that wire form, and the
//! tests hold the parser to them by round trip; no exporter writes raw
//! messages.

use crate::http::{HeaderMap, Method, Request, ResourceKind, Response};
use crate::url::Url;

/// Errors from the wire parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Missing or malformed request/status line.
    BadStartLine(String),
    /// Header line without a colon.
    BadHeader(String),
    /// Unknown request method token.
    BadMethod(String),
    /// Request target could not be reassembled into a URL.
    BadTarget(String),
    /// Body shorter than the announced Content-Length.
    TruncatedBody { expected: usize, got: usize },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadStartLine(line) => write!(f, "bad start line: {line:?}"),
            WireError::BadHeader(line) => write!(f, "bad header line: {line:?}"),
            WireError::BadMethod(m) => write!(f, "unknown method: {m:?}"),
            WireError::BadTarget(t) => write!(f, "bad request target: {t:?}"),
            WireError::TruncatedBody { expected, got } => {
                write!(f, "body truncated: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn parse_method(token: &str) -> Result<Method, WireError> {
    Ok(match token {
        "GET" => Method::Get,
        "POST" => Method::Post,
        "HEAD" => Method::Head,
        "PUT" => Method::Put,
        "DELETE" => Method::Delete,
        "OPTIONS" => Method::Options,
        other => return Err(WireError::BadMethod(other.to_string())),
    })
}

/// Serialize a request as an origin-form HTTP/1.1 message. A `Host` header
/// is added if absent; `Content-Length` is set when a body exists.
pub fn write_request(req: &Request) -> Vec<u8> {
    let mut target = req.url.path.clone();
    if let Some(q) = &req.url.query {
        target.push('?');
        target.push_str(q);
    }
    let mut out = format!("{} {} HTTP/1.1\r\n", req.method, target).into_bytes();
    let mut wrote_host = false;
    let mut wrote_len = false;
    for (name, value) in req.headers.iter() {
        if name.eq_ignore_ascii_case("host") {
            wrote_host = true;
        }
        if name.eq_ignore_ascii_case("content-length") {
            continue; // recomputed below so it can never lie
        }
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !wrote_host {
        out.extend_from_slice(format!("Host: {}\r\n", req.url.host).as_bytes());
    }
    if let Some(body) = &req.body {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        wrote_len = true;
    }
    let _ = wrote_len;
    out.extend_from_slice(b"\r\n");
    if let Some(body) = &req.body {
        out.extend_from_slice(body);
    }
    out
}

/// Serialize a response as an HTTP/1.1 message.
pub fn write_response(resp: &Response) -> Vec<u8> {
    let reason = match resp.status {
        200 => "OK",
        204 => "No Content",
        301 => "Moved Permanently",
        302 => "Found",
        304 => "Not Modified",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        500 => "Internal Server Error",
        _ => "",
    };
    let mut out = format!("HTTP/1.1 {} {}\r\n", resp.status, reason).into_bytes();
    for (name, value) in resp.headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if let Some(body) = &resp.body {
        out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    if let Some(body) = &resp.body {
        out.extend_from_slice(body);
    }
    out
}

/// Split a message into (start line, headers, body).
fn split_message(data: &[u8]) -> Result<(String, HeaderMap, Vec<u8>), WireError> {
    let boundary = data
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| WireError::BadStartLine("no header/body boundary".into()))?;
    let head = String::from_utf8_lossy(&data[..boundary]);
    let body_raw = &data[boundary + 4..];
    let mut lines = head.split("\r\n");
    let start = lines
        .next()
        .ok_or_else(|| WireError::BadStartLine(String::new()))?
        .to_string();
    let mut headers = HeaderMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::BadHeader(line.to_string()))?;
        headers.insert(name.trim().to_string(), value.trim().to_string());
    }
    // Chunked transfer coding takes precedence; then Content-Length; a
    // message with neither takes the remainder (connection-delimited).
    let chunked = headers
        .get("Transfer-Encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
    let body = if chunked {
        decode_chunked(body_raw)?
    } else {
        match headers
            .get("Content-Length")
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(len) => {
                if body_raw.len() < len {
                    return Err(WireError::TruncatedBody {
                        expected: len,
                        got: body_raw.len(),
                    });
                }
                body_raw[..len].to_vec()
            }
            None => body_raw.to_vec(),
        }
    };
    Ok((start, headers, body))
}

/// Decode a `Transfer-Encoding: chunked` body.
fn decode_chunked(data: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    loop {
        let line_end =
            data[pos..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .ok_or(WireError::TruncatedBody {
                    expected: 0,
                    got: out.len(),
                })?;
        let size_line = String::from_utf8_lossy(&data[pos..pos + line_end]);
        let size_token = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_token, 16)
            .map_err(|_| WireError::BadHeader(size_line.into_owned()))?;
        pos += line_end + 2;
        if size == 0 {
            return Ok(out);
        }
        // The size is read from the wire: bound it by what is left before
        // adding to offsets, so a huge size is a truncation, not an
        // overflow.
        let available = data.len().saturating_sub(pos);
        if size.checked_add(2).is_none_or(|need| need > available) {
            return Err(WireError::TruncatedBody {
                expected: size,
                got: available,
            });
        }
        out.extend_from_slice(&data[pos..pos + size]);
        pos += size + 2; // skip chunk + CRLF
    }
}

/// Encode a body as chunked transfer coding (single chunk + terminator).
pub fn encode_chunked(body: &[u8]) -> Vec<u8> {
    let mut out = format!("{:x}\r\n", body.len()).into_bytes();
    out.extend_from_slice(body);
    out.extend_from_slice(b"\r\n0\r\n\r\n");
    out
}

/// Parse an HTTP/1.1 request message. `scheme` ("http"/"https") is needed
/// because origin-form targets do not carry it.
pub fn parse_request(data: &[u8], scheme: &str) -> Result<Request, WireError> {
    let (start, headers, body) = split_message(data)?;
    let mut parts = start.split_whitespace();
    let method = parse_method(parts.next().unwrap_or(""))?;
    let target = parts
        .next()
        .ok_or_else(|| WireError::BadStartLine(start.clone()))?;
    let url = if target.contains("://") {
        Url::parse(target).map_err(|_| WireError::BadTarget(target.to_string()))?
    } else {
        let host = headers
            .get("Host")
            .ok_or_else(|| WireError::BadTarget("origin-form target without Host".into()))?;
        Url::parse(&format!("{scheme}://{host}{target}"))
            .map_err(|_| WireError::BadTarget(target.to_string()))?
    };
    let mut req = Request::new(method, url, ResourceKind::Document);
    req.headers = headers;
    if !body.is_empty() {
        req.body = Some(body);
    }
    Ok(req)
}

/// Parse an HTTP/1.1 response message.
pub fn parse_response(data: &[u8]) -> Result<Response, WireError> {
    let (start, headers, body) = split_message(data)?;
    let mut parts = start.split_whitespace();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/") {
        return Err(WireError::BadStartLine(start.clone()));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| WireError::BadStartLine(start.clone()))?;
    let mut resp = Response::new(status);
    resp.headers = headers;
    if !body.is_empty() {
        resp.body = Some(body);
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Near-valid messages for the totality proptests: a start line, framing
    /// headers with extreme values, then chunk sizes and data.
    const STARTS: &[&str] = &[
        "GET /p?a=1 HTTP/1.1",
        "POST https://t.net/x HTTP/1.1",
        "GET http://: HTTP/1.1",
        "HTTP/1.1 200 OK",
        "HTTP/1.1 abc",
        "",
    ];
    const HEADERS: &[&str] = &[
        "Host: t.net",
        "Host: ",
        "Transfer-Encoding: chunked",
        "Content-Length: 0",
        "Content-Length: 5",
        "Content-Length: 18446744073709551615",
        "BadHeader",
        "",
    ];
    const BODY: &[&str] = &[
        "0",
        "5",
        "3;ext=1",
        "ffffffffffffffff",
        "fffffffffffffffe",
        "18446744073709551615",
        "abc",
        "\r\n",
    ];

    fn message(start: usize, headers: &[usize], body: &[usize], noise: &[u8]) -> Vec<u8> {
        let mut data = STARTS[start].as_bytes().to_vec();
        for &h in headers {
            data.extend_from_slice(b"\r\n");
            data.extend_from_slice(HEADERS[h].as_bytes());
        }
        data.extend_from_slice(b"\r\n\r\n");
        for &b in body {
            data.extend_from_slice(BODY[b].as_bytes());
        }
        let at = noise
            .first()
            .map_or(0, |&b| usize::from(b) % (data.len() + 1));
        data.splice(at..at, noise.iter().copied());
        data
    }

    proptest! {
        /// Parsing arbitrary bytes returns a result, never a panic; a body
        /// is never longer than the message it came from.
        #[test]
        fn parsers_are_total_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            if let Ok(req) = parse_request(&data, "https") {
                prop_assert!(req.body.map_or(0, |b| b.len()) <= data.len());
            }
            if let Ok(resp) = parse_response(&data) {
                prop_assert!(resp.body.map_or(0, |b| b.len()) <= data.len());
            }
        }

        /// The same over near-valid messages, where chunked and
        /// Content-Length framing with extreme sizes is actually reached.
        #[test]
        fn parsers_are_total_on_near_valid_messages(
            start in 0..STARTS.len(),
            headers in proptest::collection::vec(0..HEADERS.len(), 0..4),
            body in proptest::collection::vec(0..BODY.len(), 0..10),
            noise in proptest::collection::vec(any::<u8>(), 0..4),
        ) {
            let data = message(start, &headers, &body, &noise);
            if let Ok(req) = parse_request(&data, "https") {
                prop_assert!(req.body.map_or(0, |b| b.len()) <= data.len());
            }
            if let Ok(resp) = parse_response(&data) {
                prop_assert!(resp.body.map_or(0, |b| b.len()) <= data.len());
            }
        }
    }

    fn sample_request() -> Request {
        Request::new(
            Method::Get,
            Url::parse("https://facebook.com/tr?udff%5Bem%5D=abc123&v=2.9.1").unwrap(),
            ResourceKind::Image,
        )
        .with_header("Referer", "https://shop.com/welcome")
        .with_header("Cookie", "uid=tp-facebook-com")
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let wire = write_request(&req);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with("GET /tr?udff%5Bem%5D=abc123&v=2.9.1 HTTP/1.1\r\n"));
        assert!(text.contains("Host: facebook.com\r\n"));
        let parsed = parse_request(&wire, "https").unwrap();
        assert_eq!(parsed.method, Method::Get);
        assert_eq!(parsed.url.to_string(), req.url.to_string());
        assert_eq!(
            parsed.headers.get("Referer"),
            Some("https://shop.com/welcome")
        );
        assert_eq!(parsed.body, None);
    }

    #[test]
    fn post_body_with_content_length() {
        let req = Request::new(
            Method::Post,
            Url::parse("https://bluecore.com/track").unwrap(),
            ResourceKind::Beacon,
        )
        .with_body(b"ev=identify&data=Zm9v".to_vec());
        let wire = write_request(&req);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("Content-Length: 21\r\n"));
        let parsed = parse_request(&wire, "https").unwrap();
        assert_eq!(parsed.body_text().as_deref(), Some("ev=identify&data=Zm9v"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok()
            .with_header("Set-Cookie", "uid=x; Path=/; SameSite=None")
            .with_header("Content-Type", "image/gif");
        let wire = write_response(&resp);
        let parsed = parse_response(&wire).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(
            parsed.headers.get("Set-Cookie"),
            Some("uid=x; Path=/; SameSite=None")
        );
    }

    #[test]
    fn absolute_form_target() {
        let wire = b"GET https://t.net/p?a=1 HTTP/1.1\r\nHost: t.net\r\n\r\n";
        let parsed = parse_request(wire, "https").unwrap();
        assert_eq!(parsed.url.to_string(), "https://t.net/p?a=1");
    }

    #[test]
    fn malformed_messages_error() {
        assert!(parse_request(b"garbage", "https").is_err());
        assert!(parse_request(b"FETCH /x HTTP/1.1\r\nHost: a\r\n\r\n", "https").is_err());
        assert!(
            parse_request(b"GET /x HTTP/1.1\r\n\r\n", "https").is_err(),
            "no Host"
        );
        assert!(parse_request(b"GET /x HTTP/1.1\r\nBadHeader\r\n\r\n", "https").is_err());
        assert!(parse_response(b"NOPE 200 OK\r\n\r\n").is_err());
    }

    #[test]
    fn truncated_body_detected() {
        let wire = b"POST /t HTTP/1.1\r\nHost: a.com\r\nContent-Length: 10\r\n\r\nshort";
        assert_eq!(
            parse_request(wire, "https"),
            Err(WireError::TruncatedBody {
                expected: 10,
                got: 5
            })
        );
    }

    #[test]
    fn chunked_bodies_decode() {
        let wire = b"POST /t HTTP/1.1\r\nHost: t.net\r\nTransfer-Encoding: chunked\r\n\r\n\
                     5\r\nem=fo\r\n9\r\no%40mydom\r\n0\r\n\r\n";
        let req = parse_request(wire, "https").unwrap();
        assert_eq!(req.body_text().as_deref(), Some("em=foo%40mydom"));
    }

    #[test]
    fn chunked_roundtrip_and_extension_tolerance() {
        let body = b"data=Zm9vQG15ZG9tLmNvbQ";
        let framed = encode_chunked(body);
        let mut wire =
            b"POST /x HTTP/1.1\r\nHost: a.net\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        wire.extend_from_slice(&framed);
        assert_eq!(
            parse_request(&wire, "https").unwrap().body.as_deref(),
            Some(&body[..])
        );
        // Chunk-size extensions (";ext=1") are tolerated.
        let with_ext = b"POST /x HTTP/1.1\r\nHost: a.net\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\n\r\n";
        assert_eq!(
            parse_request(with_ext, "https").unwrap().body.as_deref(),
            Some(&b"abc"[..])
        );
    }

    #[test]
    fn truncated_chunked_body_errors() {
        let wire =
            b"POST /x HTTP/1.1\r\nHost: a.net\r\nTransfer-Encoding: chunked\r\n\r\nff\r\nshort";
        assert!(parse_request(wire, "https").is_err());
        let bad_size =
            b"POST /x HTTP/1.1\r\nHost: a.net\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n";
        assert!(parse_request(bad_size, "https").is_err());
        // Sizes near `usize::MAX` are truncations, not offset overflows.
        for size in ["ffffffffffffffff", "fffffffffffffffe", "fffffffffffffffd"] {
            let wire = format!(
                "POST /x HTTP/1.1\r\nHost: a.net\r\nTransfer-Encoding: chunked\r\n\r\n{size}\r\nabc\r\n"
            );
            assert!(parse_request(wire.as_bytes(), "https").is_err(), "{size}");
        }
    }

    #[test]
    fn content_length_is_authoritative_not_copied() {
        // A stored lying Content-Length must be replaced on write.
        let req = sample_request().with_header("Content-Length", "9999");
        let wire = write_request(&req);
        assert!(!String::from_utf8_lossy(&wire).contains("9999"));
    }
}
